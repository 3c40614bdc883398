"""Tests for the SQL policy engine.

Every rule in the registry gets a *fire* case and a *quiet twin*: a
statement that trips the rule, and the closest legitimate statement that
must pass.  The twin is the real test — a policy layer that blocks the
legitimate traffic it sits in front of would never be deployed.

Also locked in here: the structured violation shape (machine-readable
rule ids), config override precedence (default < database < tenant),
the tenant-labeled blocked counter, eager config validation, the
executor's unconditional multi-statement rejection, and the one SQL
lexer the gate and the executor share: every statement end SQLite sees
is a separator to both, and on generated SQL every verdict equals the
one the old per-module scanners (``tests/legacy_scanners.py``) gave.
"""

from __future__ import annotations

import json
import sqlite3

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.baselines import HeuristicBaseline
from repro.db.executor import (
    MultiStatementError,
    execute_with_budget,
    gold_orders_rows,
    reject_multi_statement,
)
from repro.policy import (
    ANONYMOUS_TENANT,
    PolicyConfig,
    PolicyConfigError,
    PolicyConfigStore,
    PolicyEngine,
    PolicyViolationError,
    all_rules,
    rule_catalog,
)
from repro.schema import Column, ColumnType, ForeignKey, Schema, Table
from repro.spider import CorpusConfig, generate_corpus
from repro.sql import TokenType, lex_sql
from repro.metrics import MetricsRegistry
from tests import legacy_scanners as legacy


def rule_ids(engine, sql, schema=None, **kwargs):
    """The set of rule ids that fire for ``sql``."""
    return {v.rule_id for v in engine.evaluate(sql, schema=schema, **kwargs)}


@pytest.fixture
def engine():
    """Engine with built-in defaults: read-only, no limit requirement."""
    return PolicyEngine()


@pytest.fixture
def orphan_schema(pets_schema) -> Schema:
    """Pets plus a table no foreign key reaches (join-sanity fodder)."""
    orphan = Table(
        "orphan",
        (Column("oid", "orphan", ColumnType.NUMBER, is_primary_key=True),),
    )
    return Schema(
        "pets",
        list(pets_schema.tables) + [orphan],
        list(pets_schema.foreign_keys),
    )


class TestRegistry:
    def test_catalog_lists_every_rule_once(self):
        ids = [rule_id for rule_id, _ in rule_catalog()]
        assert len(ids) == len(set(ids))
        assert set(ids) == {
            "multi-statement",
            "blocked-keyword",
            "read-only",
            "join-sanity",
            "limit-required",
            "subquery-depth",
            "max-tables",
        }

    def test_every_rule_has_a_description(self):
        for rule in all_rules():
            assert rule.rule_id
            assert rule.description


class TestMultiStatement:
    def test_fires_on_piggybacked_statement(self, engine, pets_schema):
        ids = rule_ids(
            engine, "SELECT name FROM student; DROP TABLE student", pets_schema
        )
        assert "multi-statement" in ids

    def test_quiet_on_trailing_semicolon(self, engine, pets_schema):
        ids = rule_ids(engine, "SELECT name FROM student;", pets_schema)
        assert "multi-statement" not in ids

    def test_quiet_on_semicolon_inside_literal(self, engine, pets_schema):
        ids = rule_ids(
            engine,
            "SELECT name FROM student WHERE home_country = 'a; DROP TABLE x'",
            pets_schema,
        )
        assert ids == set()


class TestBlockedKeyword:
    @pytest.mark.parametrize(
        "sql",
        [
            "DROP TABLE student",
            "DELETE FROM student",
            "INSERT INTO student VALUES (9, 'x', 1, 'y', 'F')",
            "UPDATE student SET age = 0",
            "PRAGMA table_info(student)",
            "ATTACH DATABASE '/tmp/x' AS x",
        ],
    )
    def test_fires_on_ddl_dml(self, engine, pets_schema, sql):
        assert "blocked-keyword" in rule_ids(engine, sql, pets_schema)

    def test_quiet_when_keyword_is_only_a_literal(self, engine, pets_schema):
        ids = rule_ids(
            engine,
            "SELECT name FROM student WHERE home_country = 'DROP TABLE'",
            pets_schema,
        )
        assert ids == set()

    def test_quiet_on_substring_identifiers(self, engine):
        # "updated_at" contains "update"; word boundaries must hold.
        assert "blocked-keyword" not in rule_ids(
            engine, "SELECT updated_at FROM t"
        )


class TestReadOnly:
    def test_fires_on_non_select(self, engine, pets_schema):
        assert "read-only" in rule_ids(
            engine, "VACUUM", pets_schema
        )

    def test_quiet_on_select(self, engine, pets_schema):
        assert "read-only" not in rule_ids(
            engine, "SELECT name FROM student", pets_schema
        )

    def test_disabled_by_config(self, pets_schema):
        store = PolicyConfigStore.from_dict(
            {"version": 1, "default": {"read_only": False,
                                       "blocked_keywords": []}}
        )
        engine = PolicyEngine(store)
        assert "read-only" not in rule_ids(engine, "VACUUM", pets_schema)


class TestJoinSanity:
    def test_fires_on_unreachable_join(self, engine, orphan_schema):
        ids = rule_ids(
            engine,
            "SELECT student.name FROM student JOIN orphan "
            "ON student.stuid = orphan.oid",
            orphan_schema,
        )
        assert "join-sanity" in ids

    def test_quiet_on_fk_connected_join(self, engine, orphan_schema):
        ids = rule_ids(
            engine,
            "SELECT student.name FROM student JOIN has_pet "
            "ON student.stuid = has_pet.stuid",
            orphan_schema,
        )
        assert ids == set()


class TestLimitRequired:
    @pytest.fixture
    def engine(self):
        store = PolicyConfigStore.from_dict(
            {"version": 1, "default": {"require_limit": 10}}
        )
        return PolicyEngine(store)

    def test_fires_without_limit(self, engine, pets_schema):
        assert "limit-required" in rule_ids(
            engine, "SELECT name FROM student", pets_schema
        )

    def test_fires_over_threshold(self, engine, pets_schema):
        assert "limit-required" in rule_ids(
            engine, "SELECT name FROM student LIMIT 100", pets_schema
        )

    def test_quiet_within_threshold(self, engine, pets_schema):
        assert rule_ids(
            engine, "SELECT name FROM student LIMIT 5", pets_schema
        ) == set()

    def test_quiet_on_aggregate_only_query(self, engine, pets_schema):
        # A scalar aggregate returns one row; demanding LIMIT is noise.
        assert rule_ids(
            engine, "SELECT count(*) FROM student", pets_schema
        ) == set()


class TestSubqueryDepth:
    @pytest.fixture
    def engine(self):
        store = PolicyConfigStore.from_dict(
            {"version": 1, "default": {"max_subquery_depth": 0}}
        )
        return PolicyEngine(store)

    def test_fires_on_nested_subquery(self, engine, pets_schema):
        assert "subquery-depth" in rule_ids(
            engine,
            "SELECT name FROM student WHERE stuid IN "
            "(SELECT stuid FROM has_pet)",
            pets_schema,
        )

    def test_quiet_on_flat_query(self, engine, pets_schema):
        assert rule_ids(
            engine, "SELECT name FROM student", pets_schema
        ) == set()


class TestMaxTables:
    @pytest.fixture
    def engine(self):
        store = PolicyConfigStore.from_dict(
            {"version": 1, "default": {"max_tables": 2}}
        )
        return PolicyEngine(store)

    def test_fires_on_three_table_join(self, engine, pets_schema):
        sql = (
            "SELECT student.name FROM student "
            "JOIN has_pet ON student.stuid = has_pet.stuid "
            "JOIN pet ON has_pet.petid = pet.petid"
        )
        assert "max-tables" in rule_ids(engine, sql, pets_schema)

    def test_quiet_on_two_table_join(self, engine, pets_schema):
        sql = (
            "SELECT student.name FROM student "
            "JOIN has_pet ON student.stuid = has_pet.stuid"
        )
        assert rule_ids(engine, sql, pets_schema) == set()


class TestUnparseableSql:
    def test_raw_rules_still_hold_without_an_ast(self, engine):
        # No schema at all: parse is skipped, but the raw-text defenses
        # (multi-statement, blocked keywords, read-only) still fire.
        ids = rule_ids(engine, "DELETE FROM x; PRAGMA writable_schema=1")
        assert {"multi-statement", "blocked-keyword", "read-only"} <= ids

    def test_ast_rules_skip_quietly_on_parse_failure(self, pets_schema):
        store = PolicyConfigStore.from_dict(
            {"version": 1, "default": {"require_limit": 1}}
        )
        engine = PolicyEngine(store)
        # Parses fine -> limit-required fires; unparseable -> it cannot.
        assert "limit-required" in rule_ids(
            engine, "SELECT name FROM student", pets_schema
        )
        ids = rule_ids(
            engine, "SELECT name FROM student WINDOW nonsense", pets_schema
        )
        assert "limit-required" not in ids


class TestViolationShape:
    def test_check_sql_raises_with_machine_readable_payload(
        self, engine, pets_schema
    ):
        with pytest.raises(PolicyViolationError) as info:
            engine.check_sql("DROP TABLE student", schema=pets_schema)
        err = info.value
        assert err.rule_id in str(err)
        payload = err.as_dict()
        assert payload["rule_id"] == err.rule_id
        assert payload["violations"]
        for violation in payload["violations"]:
            assert violation["rule_id"]
            assert violation["message"]
        json.dumps(payload)  # must be JSON-serializable end to end

    def test_check_sql_passes_legitimate_query(self, engine, pets_schema):
        engine.check_sql("SELECT name FROM student", schema=pets_schema)


# (forbidden statement, rule id that must fire, legitimate quiet twin)
_FORBIDDEN_CORPUS = [
    ("DROP TABLE city", "blocked-keyword",
     "SELECT city_name FROM city WHERE country = 'DROP TABLE'"),
    ("PRAGMA writable_schema = 1", "blocked-keyword",
     "SELECT city_name FROM city"),
    ("UPDATE city SET population = 0", "blocked-keyword",
     "SELECT population FROM city"),
    ("SELECT city_name FROM city; DELETE FROM city", "multi-statement",
     "SELECT city_name FROM city;"),
    ("VACUUM", "read-only",
     "SELECT COUNT(*) FROM city"),
]


class TestForbiddenCorpus:
    """Raw forbidden statements block with the named rule under a served
    config; each one's closest legitimate twin passes the whole gate."""

    @pytest.fixture
    def city_schema(self) -> Schema:
        columns = (
            Column("city_id", "city", ColumnType.NUMBER, is_primary_key=True),
            Column("city_name", "city", ColumnType.TEXT),
            Column("country", "city", ColumnType.TEXT),
            Column("population", "city", ColumnType.NUMBER),
        )
        return Schema("smoke", [Table("city", columns)], [])

    @pytest.mark.parametrize(
        "forbidden,rule_id,twin", _FORBIDDEN_CORPUS,
        ids=[case[1] + ":" + case[0] for case in _FORBIDDEN_CORPUS],
    )
    def test_blocks_with_rule_id_and_passes_twin(
        self, city_schema, forbidden, rule_id, twin
    ):
        engine = PolicyEngine(PolicyConfigStore.from_dict({
            "version": 1,
            "default": {"read_only": True},
            "databases": {"locked": {"max_tables": 0}},
        }))
        with pytest.raises(PolicyViolationError) as info:
            engine.check_sql(forbidden, database_id="open", schema=city_schema)
        assert rule_id in {v.rule_id for v in info.value.violations}
        engine.check_sql(twin, database_id="open", schema=city_schema)


class TestConfigPrecedence:
    @pytest.fixture
    def store(self):
        return PolicyConfigStore.from_dict(
            {
                "version": 1,
                "default": {"require_limit": 5},
                "databases": {"pets": {"require_limit": 50}},
                "tenants": {"acme": {"disabled_rules": ["limit-required"]}},
            }
        )

    def test_default_applies_without_overrides(self, store):
        assert store.resolve(None, None).require_limit == 5

    def test_database_overrides_default(self, store):
        assert store.resolve("pets", None).require_limit == 50
        assert store.resolve("other", None).require_limit == 5

    def test_tenant_overrides_win(self, store):
        config = store.resolve("pets", "acme")
        assert config.require_limit == 50  # database override survives
        assert config.rule_disabled("limit-required")
        assert not store.resolve("pets", "other").rule_disabled(
            "limit-required"
        )

    def test_override_is_field_level_merge(self):
        base = PolicyConfig()
        merged = base.override({"require_limit": 7})
        assert merged.require_limit == 7
        assert merged.read_only == base.read_only
        assert merged.blocked_keywords == base.blocked_keywords


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(PolicyConfigError):
            PolicyConfig().override({"no_such_knob": 1})

    def test_read_only_must_be_bool(self):
        with pytest.raises(PolicyConfigError):
            PolicyConfig().override({"read_only": "yes"})

    def test_numeric_fields_reject_negatives_and_bools(self):
        with pytest.raises(PolicyConfigError):
            PolicyConfig().override({"require_limit": -1})
        with pytest.raises(PolicyConfigError):
            PolicyConfig().override({"max_subquery_depth": True})

    def test_bad_version_rejected(self):
        with pytest.raises(PolicyConfigError):
            PolicyConfigStore.from_dict({"version": 2})

    def test_bad_scope_rejected_eagerly(self):
        with pytest.raises(PolicyConfigError):
            PolicyConfigStore.from_dict(
                {"version": 1, "tenants": {"acme": {"bogus": 1}}}
            )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(PolicyConfigError):
            PolicyConfigStore.load(tmp_path / "nope.json")

    def test_load_round_trips(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(
            {"version": 1, "default": {"require_limit": 9}}
        ))
        store = PolicyConfigStore.load(path)
        assert store.resolve(None, None).require_limit == 9


class TestBlockedMetrics:
    def test_counter_is_tenant_labeled(self, pets_schema):
        metrics = MetricsRegistry()
        engine = PolicyEngine(metrics=metrics)
        with pytest.raises(PolicyViolationError):
            engine.check_sql(
                "DROP TABLE student", schema=pets_schema, tenant_id="acme"
            )
        with pytest.raises(PolicyViolationError):
            engine.check_sql("DROP TABLE student", schema=pets_schema)
        snapshot = metrics.snapshot()
        assert snapshot['policy_blocked_total{tenant="acme"}'] == 1
        key = f'policy_blocked_total{{tenant="{ANONYMOUS_TENANT}"}}'
        assert snapshot[key] == 1

    def test_passing_queries_do_not_increment(self, pets_schema):
        metrics = MetricsRegistry()
        engine = PolicyEngine(metrics=metrics)
        engine.check_sql("SELECT name FROM student", schema=pets_schema)
        assert not any(
            key.startswith("policy_blocked_total{")
            for key in metrics.snapshot()
        )


class TestMaskStrings:
    def test_masks_preserve_length_and_structure(self):
        sql = "SELECT a FROM t WHERE b = 'x; DROP' AND c = \"d''e\""
        masked = lex_sql(sql).masked
        assert len(masked) == len(sql)
        assert "DROP" not in masked
        assert masked.startswith("SELECT a FROM t WHERE b = ")

    def test_unterminated_string_masks_to_end(self):
        masked = lex_sql("SELECT a FROM t WHERE b = 'oops").masked
        assert "oops" not in masked


class TestExecutorMultiStatementGate:
    def test_rejects_piggybacked_statement(self, pets_db):
        with pytest.raises(MultiStatementError):
            execute_with_budget(
                pets_db, "SELECT name FROM student; DROP TABLE student"
            )
        # The table must still exist: nothing ran.
        assert pets_db.execute("SELECT count(*) FROM student")

    def test_trailing_semicolon_is_fine(self, pets_db):
        rows = execute_with_budget(pets_db, "SELECT name FROM student;")
        assert len(rows) == 4

    def test_semicolons_in_literals_and_brackets_are_fine(self):
        reject_multi_statement("SELECT 'a;b' FROM t")
        reject_multi_statement('SELECT "a;b" FROM t')
        reject_multi_statement("SELECT [a;b] FROM t")
        with pytest.raises(MultiStatementError):
            reject_multi_statement("SELECT 1 ; SELECT 2")

    def test_policy_gate_runs_inside_executor(self, pets_db):
        engine = PolicyEngine()
        with pytest.raises(PolicyViolationError):
            execute_with_budget(
                pets_db, "DELETE FROM student", check_sql=engine.check_sql
            )
        assert len(pets_db.execute("SELECT name FROM student")) == 4

    def test_policy_gate_passes_selects(self, pets_db):
        engine = PolicyEngine()
        rows = execute_with_budget(
            pets_db, "SELECT name FROM student", check_sql=engine.check_sql
        )
        assert len(rows) == 4


def executor_rejects(sql: str) -> bool:
    try:
        reject_multi_statement(sql)
    except MultiStatementError:
        return True
    return False


def quote_in_comment(sql: str) -> bool:
    """Does a comment hold a quote or bracket opener (which the old
    scanners, knowing no comments, would have opened)?"""
    return any(
        token.type is TokenType.COMMENT
        and any(opener in token.value for opener in "'\"`[")
        for token in lex_sql(sql).tokens
    )


# SQLite's quote, bracket and comment characters; the two-character
# comment markers are also pieces of their own so comments are common.
PIECES = [
    "a", " ", "\n", ";", "'", '"', "`", "[", "]", "-", "/", "*", "DROP",
    "--", "/*", "*/",
]
sql_text = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)
bracket_free_text = st.lists(
    st.sampled_from([p for p in PIECES if p not in ("[", "]")] + ["SELECT", "select"]),
    max_size=24,
).map("".join)
order_text = st.lists(
    st.sampled_from(PIECES + ["(", ")", "ORDER BY", "order by", "xorder by"]),
    max_size=24,
).map("".join)


class TestOneLexer:
    """The policy gate, the executor and the accuracy check read SQL
    through one lexer, the way SQLite reads it."""

    @pytest.mark.parametrize("sql", [
        # A quote inside brackets hid the separator from the policy.
        "SELECT [it's] FROM pets; DROP TABLE pets",
        # A quote inside a comment hid it from the policy and executor.
        "SELECT 1 -- it's\n; DROP TABLE pets",
    ])
    def test_piggybacked_statement_behind_a_stray_quote(self, engine, sql):
        assert {"multi-statement", "blocked-keyword"} <= rule_ids(engine, sql)
        with pytest.raises(MultiStatementError):
            reject_multi_statement(sql)

    def test_quote_inside_comment_does_not_hide_order_by(self):
        assert gold_orders_rows("SELECT a FROM t /* ' */ ORDER BY a")

    @settings(max_examples=300)
    @given(sql=sql_text)
    def test_every_sqlite_statement_end_is_a_separator(self, sql):
        # SQLite ends a statement at i when s[:i+1] is complete and
        # s[:i] is not (this skips empty statements and a ";" inside a
        # trailing comment).  Both gates must see a separator there.
        engine = PolicyEngine()
        masked = lex_sql(sql).masked
        for i, ch in enumerate(sql):
            if ch != ";" or not sqlite3.complete_statement(sql[: i + 1]):
                continue
            if sqlite3.complete_statement(sql[:i]):
                continue
            assert masked[i] == ";"
            piggybacked = sql[: i + 1] + "x"
            assert executor_rejects(piggybacked)
            assert "multi-statement" in rule_ids(engine, piggybacked)

    @settings(max_examples=300)
    @given(sql=bracket_free_text)
    def test_no_looser_than_the_old_scanners_without_brackets(self, sql):
        assume(not quote_in_comment(sql))
        assert legacy.raw_rule_ids(sql) <= rule_ids(PolicyEngine(), sql)
        assert executor_rejects(sql) >= legacy.rejects_multi_statement(sql)

    def test_quote_inside_comment_is_read_as_sqlite_reads_it(self, engine):
        # The one bracket-free case where a verdict loosens: the old
        # scanners paired the comment's quote with a later one and saw a
        # ";" that SQLite reads inside the identifier "';a".
        sql = "--'\n\"';a\""
        assert legacy.rejects_multi_statement(sql)
        assert "multi-statement" in legacy.raw_rule_ids(sql)
        assert not any(
            sqlite3.complete_statement(sql[: i + 1]) for i in range(len(sql))
        )
        assert not executor_rejects(sql)
        assert "multi-statement" not in rule_ids(engine, sql)

    @settings(max_examples=300)
    @given(sql=order_text)
    def test_gold_orders_rows_matches_the_old_scanner(self, sql):
        if not quote_in_comment(sql):
            assert gold_orders_rows(sql) == legacy.gold_orders_rows(sql)


@pytest.fixture(scope="module")
def generated_sql():
    """Every gold query of the quick corpus and every heuristic-baseline
    query for its questions."""
    corpus = generate_corpus(CorpusConfig(train_per_domain=100, dev_per_domain=50))
    baselines: dict[str, HeuristicBaseline] = {}
    statements = []
    for example in list(corpus.train) + list(corpus.dev):
        statements.append(example.gold_sql)
        if example.db_id not in baselines:
            baselines[example.db_id] = HeuristicBaseline(
                corpus.database(example.db_id)
            )
        sql = baselines[example.db_id].translate(example.question).sql
        if sql:
            statements.append(sql)
    yield statements
    corpus.close()


def test_generated_sql_verdicts_are_unchanged(generated_sql):
    engine = PolicyEngine()
    assert len(generated_sql) > 2000
    for sql in generated_sql:
        assert rule_ids(engine, sql) == legacy.raw_rule_ids(sql), sql
        assert executor_rejects(sql) == legacy.rejects_multi_statement(sql), sql
        assert gold_orders_rows(sql) == legacy.gold_orders_rows(sql), sql


class TestForeignKeyLintCheck:
    def test_fk_reachability_uses_the_graph_argument(self, engine, pets_graph,
                                                     pets_schema):
        # Passing a prebuilt graph must behave identically to schema-only.
        sql = (
            "SELECT student.name FROM student "
            "JOIN has_pet ON student.stuid = has_pet.stuid"
        )
        assert engine.evaluate(sql, schema=pets_schema,
                               graph=pets_graph) == []
