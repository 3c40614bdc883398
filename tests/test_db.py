"""Unit tests for repro.db: database wrapper, introspection, executor."""

from __future__ import annotations

import threading
import time

import pytest

from repro.db import (
    Database,
    QueryTimeoutError,
    execute_and_compare,
    execute_with_budget,
    gold_orders_rows,
    introspect_schema,
    normalize_rows,
    rows_equal,
)
from repro.errors import ExecutionError, SchemaError
from repro.schema import Column, ColumnType, Schema, Table


class TestDatabase:
    def test_create_and_count(self, pets_db):
        assert pets_db.row_count("student") == 4
        assert pets_db.row_count("pet") == 3

    def test_execute_rows(self, pets_db):
        rows = pets_db.execute("SELECT name FROM student WHERE age > 21 ORDER BY name")
        assert rows == [("Ann Miller",), ("Cid Rossi",)]

    def test_execute_bad_sql_raises(self, pets_db):
        with pytest.raises(ExecutionError):
            pets_db.execute("SELECT nope FROM student")

    def test_max_rows_guard(self, pets_db):
        with pytest.raises(ExecutionError):
            pets_db.execute("SELECT * FROM student, pet, has_pet", max_rows=5)

    def test_column_values(self, pets_db):
        column = pets_db.schema.column("student", "home_country")
        values = pets_db.column_values(column)
        assert sorted(set(values)) == ["France", "Italy", "Spain"]

    def test_column_values_star_raises(self, pets_db):
        with pytest.raises(SchemaError):
            pets_db.column_values(pets_db.schema.star_column)

    def test_contains_value_case_insensitive(self, pets_db):
        column = pets_db.schema.column("student", "home_country")
        assert pets_db.contains_value(column, "france")
        assert not pets_db.contains_value(column, "atlantis")

    def test_contains_numeric_value(self, pets_db):
        column = pets_db.schema.column("student", "age")
        assert pets_db.contains_value(column, 22)
        assert not pets_db.contains_value(column, 99)

    def test_insert_bad_shape_raises(self, pets_db):
        with pytest.raises(ExecutionError):
            pets_db.insert_rows("student", [(1, "only-two")])

    def test_file_database_roundtrip(self, pets_schema, tmp_path):
        path = tmp_path / "pets.sqlite"
        db = Database.create(pets_schema, path)
        db.insert_rows("student", [(9, "Zoe", 30, "France", "F")])
        db.close()
        reopened = Database.open(path, pets_schema)
        assert reopened.row_count("student") == 1
        reopened.close()

    def test_context_manager(self, pets_schema):
        with Database.create(pets_schema) as db:
            assert db.row_count("student") == 0


class TestThreadSafety:
    """One Database shared across a worker pool (serving requirement)."""

    @staticmethod
    def _hammer(db, errors, results):
        try:
            for _ in range(25):
                rows = db.execute(
                    "SELECT name FROM student WHERE age > 20 ORDER BY name"
                )
                results.append(tuple(rows))
                count = db.row_count("pet")
                assert count == 3, count
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    def _run_threads(self, db):
        errors: list = []
        results: list = []
        threads = [
            threading.Thread(target=self._hammer, args=(db, errors, results))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        expected = (("Ann Miller",), ("Cid Rossi",), ("Dana Levi",))
        assert set(results) == {expected}
        assert len(results) == 8 * 25

    def test_in_memory_database_shared_across_threads(self, pets_db):
        # Worker threads read a snapshot clone of the in-memory database.
        self._run_threads(pets_db)

    def test_file_database_shared_across_threads(self, pets_schema, tmp_path):
        db = Database.create(pets_schema, tmp_path / "pets.sqlite")
        db.insert_rows(
            "student",
            [
                (1, "Ann Miller", 22, "France", "F"),
                (2, "Bob Smith", 19, "France", "M"),
                (3, "Cid Rossi", 25, "Italy", "M"),
                (4, "Dana Levi", 21, "Spain", "F"),
            ],
        )
        db.insert_rows("pet", [(10, "Dog", 3, 12.0), (11, "Cat", 1, 3.5),
                               (12, "Dog", 7, 20.0)])
        try:
            self._run_threads(db)
        finally:
            db.close()

    def test_owner_thread_keeps_primary_connection(self, pets_db):
        assert pets_db.connection is pets_db.connection

    def test_close_then_use_raises(self, pets_schema):
        db = Database.create(pets_schema)
        db.close()
        with pytest.raises(ExecutionError):
            db.execute("SELECT 1")


class TestIntrospection:
    def test_introspects_tables_columns_pks_fks(self, pets_schema, tmp_path):
        path = tmp_path / "pets.sqlite"
        Database.create(pets_schema, path).close()
        db = Database.open(path)  # schema omitted -> introspection
        schema = db.schema
        assert {t.name for t in schema.tables} == {"student", "pet", "has_pet"}
        assert schema.column("student", "stuid").is_primary_key
        assert schema.column("pet", "weight").column_type is ColumnType.NUMBER
        fk_pairs = {
            (fk.source_table, fk.source_column, fk.target_table, fk.target_column)
            for fk in schema.foreign_keys
        }
        assert ("has_pet", "stuid", "student", "stuid") in fk_pairs
        db.close()

    def test_empty_database_raises(self, tmp_path):
        import sqlite3

        connection = sqlite3.connect(tmp_path / "empty.sqlite")
        with pytest.raises(SchemaError):
            introspect_schema(connection)


class TestResultComparison:
    def test_normalize_integral_floats(self):
        assert normalize_rows([(3.0, "x")]) == [(3, "x")]

    def test_multiset_semantics(self):
        assert rows_equal([(1,), (2,), (1,)], [(2,), (1,), (1,)])
        assert not rows_equal([(1,), (1,)], [(1,)])

    def test_order_matters_flag(self):
        assert not rows_equal([(1,), (2,)], [(2,), (1,)], order_matters=True)
        assert rows_equal([(1,), (2,)], [(2,), (1,)], order_matters=False)

    def test_execute_and_compare_correct(self, pets_db):
        outcome = execute_and_compare(
            pets_db,
            "SELECT name FROM student WHERE age > 21",
            "SELECT name FROM student WHERE age >= 22",
        )
        assert outcome.correct

    def test_execute_and_compare_wrong(self, pets_db):
        outcome = execute_and_compare(
            pets_db,
            "SELECT name FROM student WHERE age > 25",
            "SELECT name FROM student WHERE age > 21",
        )
        assert not outcome.correct
        assert outcome.predicted_error is None

    def test_predicted_failure_is_incorrect(self, pets_db):
        outcome = execute_and_compare(
            pets_db, "SELECT broken FROM student", "SELECT name FROM student"
        )
        assert not outcome.correct
        assert outcome.predicted_failed

    def test_gold_failure_recorded(self, pets_db):
        outcome = execute_and_compare(
            pets_db, "SELECT name FROM student", "SELECT broken FROM student"
        )
        assert not outcome.correct
        assert outcome.gold_error is not None

    def test_gold_orders_rows_top_level_only(self):
        assert gold_orders_rows("SELECT a FROM t ORDER BY a")
        assert not gold_orders_rows(
            "SELECT a FROM t WHERE x IN (SELECT b FROM u ORDER BY b)"
        )
        assert not gold_orders_rows("SELECT a FROM t")

    def test_gold_orders_rows_literal_containing_order_by(self):
        # 'order by' inside a string literal must not count as a clause.
        assert not gold_orders_rows("SELECT a FROM t WHERE x = 'order by'")
        assert not gold_orders_rows('SELECT a FROM t WHERE x = "ORDER BY a"')

    def test_gold_orders_rows_parens_in_literals_do_not_miscount_depth(self):
        # A '(' inside a literal used to push depth to 1, hiding the real
        # top-level ORDER BY; a ')' used to push it to -1 and un-hide
        # sub-query ones.
        assert gold_orders_rows("SELECT a FROM t WHERE x = '(' ORDER BY a")
        assert gold_orders_rows("SELECT a FROM t WHERE x = ':-)' ORDER BY a")
        assert not gold_orders_rows(
            "SELECT a FROM t WHERE x = ')' "
            "AND y IN (SELECT b FROM u ORDER BY b)"
        )

    def test_gold_orders_rows_doubled_quote_escape(self):
        assert gold_orders_rows(
            "SELECT a FROM t WHERE x = 'it''s (' ORDER BY a"
        )
        assert not gold_orders_rows(
            "SELECT a FROM t WHERE x = 'it''s order by'"
        )

    def test_gold_orders_rows_word_boundary(self):
        # A column whose name merely ends in "order" + " by ..." must not
        # match; unterminated literals consume the rest of the query.
        assert not gold_orders_rows("SELECT preorder bY FROM t")
        assert not gold_orders_rows("SELECT a FROM t WHERE x = 'oops ORDER BY a")

    def test_gold_orders_rows_bracket_identifier(self):
        assert not gold_orders_rows("SELECT [order by] FROM t")
        assert gold_orders_rows("SELECT [weird col] FROM t ORDER BY 1")


class TestExecutionBudget:
    """Per-query wall-clock budget + row cap (repro.db.execute_with_budget)."""

    def test_fast_query_unaffected_by_budget(self, pets_db):
        rows = execute_with_budget(
            pets_db, "SELECT COUNT(*) FROM student", timeout_s=5.0
        )
        assert rows == [(4,)]

    def test_none_timeout_disables_the_timer(self, pets_db):
        rows = execute_with_budget(
            pets_db, "SELECT COUNT(*) FROM student", timeout_s=None
        )
        assert rows == [(4,)]

    def test_runaway_query_interrupted(self, pets_db):
        # An unbounded recursive CTE runs forever without the interrupt.
        runaway = (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT COUNT(*) FROM r"
        )
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            execute_with_budget(pets_db, runaway, timeout_s=0.2)
        assert time.perf_counter() - started < 5.0

    def test_row_cap_enforced(self, pets_db):
        with pytest.raises(ExecutionError):
            execute_with_budget(
                pets_db, "SELECT * FROM student", timeout_s=5.0, max_rows=2
            )

    def test_plain_sql_error_not_reported_as_timeout(self, pets_db):
        with pytest.raises(ExecutionError) as excinfo:
            execute_with_budget(pets_db, "SELECT broken FROM student", timeout_s=5.0)
        assert not isinstance(excinfo.value, QueryTimeoutError)

    def test_budget_starts_no_thread_and_leaves_no_handler(self, pets_db, monkeypatch):
        def no_timer(*args, **kwargs):
            raise AssertionError("a budgeted query started a timer thread")

        monkeypatch.setattr(threading, "Timer", no_timer)
        assert execute_with_budget(
            pets_db, "SELECT COUNT(*) FROM student", timeout_s=0.01
        ) == [(4,)]
        with pytest.raises(ExecutionError):
            execute_with_budget(pets_db, "SELECT broken FROM student", timeout_s=0.01)
        time.sleep(0.02)  # both deadlines have passed
        # Millions of VM instructions: a handler left behind by either
        # call would interrupt this unbudgeted query.
        counted = (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
            "WHERE n < 200000) SELECT COUNT(*) FROM r"
        )
        assert pets_db.execute(counted) == [(200000,)]

    def test_connection_usable_after_interrupt(self, pets_db):
        runaway = (
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT COUNT(*) FROM r"
        )
        with pytest.raises(QueryTimeoutError):
            execute_with_budget(pets_db, runaway, timeout_s=0.2)
        assert pets_db.execute("SELECT COUNT(*) FROM pet") == [(3,)]
