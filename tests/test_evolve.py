"""Tests for repro.evolve: freshness polls, background refresh with
zero-downtime index swap, and schema-driven corpus growth.

Drift is made through a *separate* writer connection — exactly how it
arrives in production — and every poll is a non-forced refresher poll:
the refresher asks the index registry whether the bundle the runtime
serves still matches its file.  A quiet database (DELETE or WAL journal)
never swaps; a row insert, a count-preserving UPDATE (anywhere in a
table), a commit that lands between the served scan and ``watch()``,
and DDL each reach serving after one poll.  ``TestSchemaWatcher``
checks the detector on its own: a commit makes the registry entry
built before it stale.

The refresher tests run the real serving stack (DatabaseRuntime +
TranslationService) and prove the swap contract end to end — the swap
is the only way new content reaches serving, since a built index is
never mutated: a per-database swap count, pre-swap answers unreadable
through the generation cache key, and a post-drift value query
resolving against content that did not exist at index-build time.  A
finished swap triggers no other, two routing ids over one file swap to
one new build, swaps leave one cached schema feature set per served
database, and a refresh asked for one database (sync or async) swaps
only that one.
"""

from __future__ import annotations

import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.db import Database
from repro.evolve import CorpusWriter, KBRefresher, generate_examples
from repro.index.registry import IndexRegistry
from repro.model import ValueNetModel, build_vocabulary
from repro.preprocessing import Preprocessor
from repro.serving import (
    DatabaseRuntime,
    TranslationCache,
    TranslationService,
)
from repro.serving import routes


def _create_pets_file(path) -> None:
    """The conftest pets database, materialized as a SQLite file."""
    conn = sqlite3.connect(str(path))
    conn.executescript(
        """
        CREATE TABLE student (
            stuid INTEGER PRIMARY KEY, name TEXT, age INTEGER,
            home_country TEXT, sex TEXT);
        CREATE TABLE pet (
            petid INTEGER PRIMARY KEY, pet_type TEXT, pet_age INTEGER,
            weight REAL);
        CREATE TABLE has_pet (
            stuid INTEGER REFERENCES student(stuid),
            petid INTEGER REFERENCES pet(petid));
        INSERT INTO student VALUES
            (1,'Ann Miller',22,'France','F'),
            (2,'Bob Smith',19,'France','M'),
            (3,'Cid Rossi',25,'Italy','M'),
            (4,'Dana Levi',21,'Spain','F');
        INSERT INTO pet VALUES
            (10,'Dog',3,12.0),(11,'Cat',1,3.5),(12,'Dog',7,20.0);
        INSERT INTO has_pet VALUES (1,10),(3,11),(4,12);
        """
    )
    conn.commit()
    conn.close()


@pytest.fixture
def pets_file(tmp_path):
    path = tmp_path / "pets.sqlite"
    _create_pets_file(path)
    return path


PERSON_ROWS = 5000


@pytest.fixture
def people_file(tmp_path):
    """One 5000-row table, so an UPDATE of row 4500 lies past row 4096."""
    path = tmp_path / "people.sqlite"
    conn = sqlite3.connect(str(path))
    conn.execute(
        "CREATE TABLE person (personid INTEGER PRIMARY KEY, name TEXT, "
        "country TEXT)"
    )
    countries = ("France", "Italy", "Spain", "Peru")
    conn.executemany(
        "INSERT INTO person VALUES (?, ?, ?)",
        [
            (i, f"Person {i}", countries[i % len(countries)])
            for i in range(1, PERSON_ROWS + 1)
        ],
    )
    conn.commit()
    conn.close()
    return path


def _writer(path) -> sqlite3.Connection:
    """A drift source: a second connection, like a real external writer."""
    return sqlite3.connect(str(path))


# ------------------------------------------------------ refresher lifecycle

# An untrained model is enough to exercise the model's schema features.
_TINY = ModelConfig(
    dim=32, num_layers=1, num_heads=2, ff_dim=48, summary_hidden=16,
    decoder_hidden=32, pointer_hidden=24, dropout=0.0, word_dropout=0.0,
)


def _serving_stack(
    path, *, database_id="pets", model=None, before_watch=None,
    **refresher_kwargs,
):
    """A real single-database serving stack plus an (unstarted) refresher.

    ``before_watch`` runs after the runtime's index scan and before
    ``watch()``, the window a commit can land in at startup.
    """
    registry = IndexRegistry()
    database = Database.open(path)
    runtime = DatabaseRuntime(
        database, model, database_id=database_id,
        preprocessor=Preprocessor(database, registry=registry),
    )
    cache = TranslationCache(capacity=64, ttl_s=300.0)
    service = TranslationService([runtime], workers=2, cache=cache).start()
    if before_watch is not None:
        before_watch()
    refresher = KBRefresher(registry, interval_s=60.0, **refresher_kwargs)
    refresher.watch(database, database_id=database_id)
    refresher.attach_service(service)
    return database, service, cache, refresher


def _teardown_stack(database, service, refresher):
    refresher.stop()
    service.stop()
    database.close()


# ------------------------------------------------------------ freshness


def _table_names(database) -> set[str]:
    return {table.name for table in database.schema.tables}


def _column_names(database, table: str) -> set[str]:
    return {column.name for column in database.schema.table(table).columns}


# (id, statements a writer commits, what serving must see after one poll)
_DRIFT_CASES = [
    (
        "insert",
        ["INSERT INTO student VALUES (5,'Eve Okoro',23,'Nigeria','F')"],
        lambda database, index: index.contains("Nigeria"),
    ),
    (
        # Every row count stays the same; the commit still shows.
        "count-preserving-update",
        ["UPDATE student SET home_country='Japan' WHERE stuid=1"],
        lambda database, index: index.contains("Japan"),
    ),
    (
        "new-table",
        ["CREATE TABLE vet (vetid INTEGER, city TEXT)",
         "INSERT INTO vet VALUES (1, 'Oslo')"],
        lambda database, index: (
            "vet" in _table_names(database) and index.contains("Oslo")
        ),
    ),
    (
        "new-column",
        ["ALTER TABLE student ADD COLUMN nickname TEXT",
         "UPDATE student SET nickname='Annie' WHERE stuid=1"],
        lambda database, index: (
            "nickname" in _column_names(database, "student")
            and index.contains("Annie")
        ),
    ),
    (
        "dropped-table",
        ["DROP TABLE has_pet"],
        lambda database, index: "has_pet" not in _table_names(database),
    ),
]


class TestFreshnessPolls:
    """Non-forced polls: the refresher swaps exactly when the bundle the
    runtime serves no longer matches its file."""

    @pytest.mark.parametrize("journal_mode", ["delete", "wal"])
    def test_quiet_database_never_swaps(self, pets_file, journal_mode):
        with _writer(pets_file) as conn:
            conn.execute(f"PRAGMA journal_mode={journal_mode}")
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            builds = refresher.registry.build_count
            for question in _QUESTIONS[:3]:
                # Reads (translations that execute) between polls.
                assert service.translate(question, execute=True).ok
                assert refresher.refresh_now(force=False) == []
            assert refresher.registry.build_count == builds
            assert refresher.stats()["swaps"] == 0
        finally:
            _teardown_stack(database, service, refresher)

    @pytest.mark.parametrize(
        "statements,served",
        [case[1:] for case in _DRIFT_CASES],
        ids=[case[0] for case in _DRIFT_CASES],
    )
    def test_commit_is_served_after_a_non_forced_poll(
        self, pets_file, statements, served
    ):
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            with _writer(pets_file) as conn:
                for statement in statements:
                    conn.execute(statement)
            [info] = refresher.refresh_now(force=False)
            assert info["database_id"] == "pets"
            assert json.loads(json.dumps(info)) == info
            assert served(database, service.runtimes["pets"].preprocessor.index)
            # Settled: the next poll finds the served bundle current.
            assert refresher.refresh_now(force=False) == []
        finally:
            _teardown_stack(database, service, refresher)

    def test_commit_between_served_scan_and_watch_is_served(self, pets_file):
        """The baseline is the served bundle's own pre-scan file state, so
        a commit before ``watch()`` is not mistaken for the baseline."""

        def commit():
            with _writer(pets_file) as conn:
                conn.execute(
                    "INSERT INTO student VALUES (7,'Gil Tembo',24,'Zambia','M')"
                )

        database, service, cache, refresher = _serving_stack(
            pets_file, before_watch=commit
        )
        try:
            assert not service.runtimes["pets"].preprocessor.index.contains(
                "Zambia"
            )
            assert len(refresher.refresh_now(force=False)) == 1
            assert service.runtimes["pets"].preprocessor.index.contains("Zambia")
            assert refresher.refresh_now(force=False) == []
        finally:
            _teardown_stack(database, service, refresher)

    def test_update_past_row_4096_between_scan_and_watch_is_served(
        self, people_file
    ):
        """A count-preserving UPDATE deep in a table, committed before
        ``watch()``, is answered after the next scheduled poll."""

        def commit():
            with _writer(people_file) as conn:
                conn.execute(
                    "UPDATE person SET country='Tonga' WHERE personid=4800"
                )

        database, service, cache, refresher = _serving_stack(
            people_file, database_id="people", before_watch=commit
        )
        try:
            assert not service.runtimes["people"].preprocessor.index.contains(
                "Tonga"
            )
            assert len(refresher.refresh_now(force=False)) == 1
            response = service.translate(
                "Which persons are from Tonga?", execute=True
            )
            assert response.ok, response.error
            assert "Tonga" in response.sql
            assert ("Person 4800",) in response.rows
        finally:
            _teardown_stack(database, service, refresher)

    def test_two_routing_ids_over_one_file_swap_with_one_build(self, pets_file):
        registry = IndexRegistry()
        databases = {db_id: Database.open(pets_file) for db_id in ("a", "b")}
        service = TranslationService([
            DatabaseRuntime(
                database, database_id=db_id,
                preprocessor=Preprocessor(database, registry=registry),
            )
            for db_id, database in databases.items()
        ], workers=1).start()
        refresher = KBRefresher(registry, interval_s=60.0)
        for db_id, database in databases.items():
            refresher.watch(database, database_id=db_id)
        refresher.attach_service(service)
        try:
            assert registry.build_count == 1
            with _writer(pets_file) as conn:
                conn.execute(
                    "INSERT INTO student VALUES (5,'Eve Okoro',23,'Nigeria','F')"
                )
            swapped = refresher.refresh_now(force=False)
            assert [info["database_id"] for info in swapped] == ["a", "b"]
            assert registry.build_count == 2
            entries = {
                db_id: runtime.preprocessor.entry
                for db_id, runtime in service.runtimes.items()
            }
            assert entries["a"] is entries["b"]
            assert entries["a"].index.contains("Nigeria")
        finally:
            refresher.stop()
            service.stop()
            for database in databases.values():
                database.close()


class TestSchemaWatcher:
    """Drift detection itself: a writer's commit makes the registry
    entry built before it stale (``IndexRegistry.is_current``), and the
    entry the registry answers next is current again."""

    def test_update_past_row_4096_is_content_changed(self, people_file):
        """A count-preserving UPDATE far into a table is seen, and
        settles: the entry built after it is current."""
        registry = IndexRegistry()
        database = Database.open(people_file)
        try:
            entry = registry.get(database)
            assert registry.is_current(entry)
            with _writer(people_file) as conn:
                conn.execute(
                    "UPDATE person SET country='Zanzibar' WHERE personid=4500"
                )
            assert not registry.is_current(entry)
            fresh = registry.get(database)
            assert fresh is not entry
            assert registry.is_current(fresh)
            assert fresh.index.contains("Zanzibar")
        finally:
            database.close()

    def test_new_table_is_schema_changed(self, pets_file):
        registry = IndexRegistry()
        database = Database.open(pets_file)
        try:
            entry = registry.get(database)
            with _writer(pets_file) as conn:
                conn.execute("CREATE TABLE vet (vetid INTEGER, city TEXT)")
            assert not registry.is_current(entry)
            # A fresh open re-introspects the schema; the open one is as
            # it was introspected.
            assert "vet" not in _table_names(database)
            fresh = Database.open(pets_file)
            try:
                assert _table_names(fresh) - _table_names(database) == {"vet"}
            finally:
                fresh.close()
        finally:
            database.close()

    def test_report_as_dict_round_trips_to_json(self, pets_file):
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            with _writer(pets_file) as conn:
                conn.execute("CREATE TABLE vet (vetid INTEGER)")
            [info] = refresher.refresh_now(force=False)
            assert json.loads(json.dumps(info)) == info
            stats = refresher.stats()
            assert json.loads(json.dumps(stats)) == stats
        finally:
            _teardown_stack(database, service, refresher)


class TestKBRefresher:
    def test_in_memory_database_is_rejected(self, pets_db):
        refresher = KBRefresher(IndexRegistry(), interval_s=60.0)
        with pytest.raises(ValueError):
            refresher.watch(pets_db)

    def test_no_drift_means_no_swap(self, pets_file):
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            assert refresher.refresh_now(force=False) == []
            assert refresher.stats()["swaps"] == 0
        finally:
            _teardown_stack(database, service, refresher)

    def test_drift_swaps_invalidates_and_resolves_new_value(self, pets_file):
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            question = "Which students are from Zambia?"
            before = service.translate(question)
            assert before.ok
            assert "Zambia" not in (before.sql or "")
            # Warm the cache so a stale read would be observable.
            assert service.translate(question).cache_hit
            assert refresher.stats()["versions"] == {"pets": 0}

            with _writer(pets_file) as conn:
                conn.execute(
                    "INSERT INTO student VALUES (7,'Gil Tembo',24,'Zambia','M')"
                )
            swapped = refresher.refresh_now()
            assert len(swapped) == 1
            info = swapped[0]
            assert info["database_id"] == "pets"
            assert info["version"] == 1
            assert refresher.stats()["versions"] == {"pets": 1}
            # The registry answers the swapped-in bundle from now on.
            entry = refresher.registry.get(database)
            assert entry.index is service.runtimes["pets"].preprocessor.index

            after = service.translate(question)
            assert after.ok
            # The swap bumped the runtime's generation, so the pre-swap
            # answer sits under a key no later request looks up.
            assert not after.cache_hit
            assert "Zambia" in after.sql
        finally:
            _teardown_stack(database, service, refresher)

    def test_update_past_row_4096_swaps_without_force(self, people_file):
        """The scheduled (non-forced) cycle picks up an in-place UPDATE
        deep in a table, and the new value resolves."""
        database, service, cache, refresher = _serving_stack(
            people_file, database_id="people"
        )
        try:
            question = "Which persons are from Zanzibar?"
            before = service.translate(question)
            assert before.ok
            assert "Zanzibar" not in (before.sql or "")
            with _writer(people_file) as conn:
                conn.execute(
                    "UPDATE person SET country='Zanzibar' WHERE personid=4500"
                )
            swapped = refresher.refresh_now(force=False)
            assert [info["database_id"] for info in swapped] == ["people"]
            runtime = service.runtimes["people"]
            assert runtime.preprocessor.index.contains("Zanzibar")
            # Settled: the next poll finds the served bundle current.
            assert refresher.refresh_now(force=False) == []
            after = service.translate(question, execute=True)
            assert after.ok, after.error
            assert "WHERE person.country = 'Zanzibar'" in after.sql
            assert after.rows == [("Person 4500",)]
        finally:
            _teardown_stack(database, service, refresher)

    def test_a_finished_swap_triggers_no_other(self, pets_file, tmp_path):
        """Neither the rebuild's reads nor the corpus validation queries
        change the file state the registry compares."""
        database, service, cache, refresher = _serving_stack(
            pets_file, corpus_path=tmp_path / "grown.jsonl"
        )
        try:
            [info] = refresher.refresh_now(force=True)
            assert info["corpus_examples"] > 0
            assert refresher.refresh_now(force=False) == []
        finally:
            _teardown_stack(database, service, refresher)

    def test_swaps_keep_one_schema_feature_set_per_database(self, pets_file):
        """Each swap evicts the retired schema's cached features."""
        database = Database.open(pets_file)
        vocab = build_vocabulary(
            list(_QUESTIONS), [database.schema], [], vocab_size=300
        )
        database.close()
        model = ValueNetModel(vocab, _TINY)
        database, service, cache, refresher = _serving_stack(
            pets_file, model=model
        )
        try:
            before = [service.translate(q, execute=True) for q in _QUESTIONS]
            assert len(model.schema_cache) == 1
            for _ in range(5):
                assert len(refresher.refresh_now(force=True)) == 1
            assert len(model.schema_cache) == 1
            after = [service.translate(q, execute=True) for q in _QUESTIONS]
            assert [(r.sql, r.rows, r.engine) for r in after] == [
                (r.sql, r.rows, r.engine) for r in before
            ]
        finally:
            _teardown_stack(database, service, refresher)

    def test_ddl_reintrospects_schema_into_runtime(self, pets_file):
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            assert "clinic" not in {t.name for t in database.schema.tables}
            with _writer(pets_file) as conn:
                conn.execute(
                    "CREATE TABLE clinic (clinicid INTEGER PRIMARY KEY, "
                    "city TEXT)"
                )
                conn.execute("INSERT INTO clinic VALUES (1, 'Zurich')")
            assert len(refresher.refresh_now()) == 1
            # The serving runtime now sees the new table: the shared
            # Database's schema object was swapped in place.
            assert "clinic" in {t.name for t in database.schema.tables}
            response = service.translate("How many rows are in clinic?")
            assert response.ok
        finally:
            _teardown_stack(database, service, refresher)

    def test_trigger_wakes_the_background_thread(self, pets_file):
        import time

        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            refresher.start()
            with _writer(pets_file) as conn:
                conn.execute(
                    "INSERT INTO student VALUES (8,'Hana Sato',22,'Japan','F')"
                )
            refresher.trigger()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if refresher.stats()["swaps"] >= 1:
                    break
                time.sleep(0.02)
            assert refresher.stats()["swaps"] >= 1
        finally:
            _teardown_stack(database, service, refresher)

    def test_refresher_surfaces_in_health_and_admin_route(self, pets_file):
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            assert service.health()["evolve"]["watched"] == ["pets"]
            response = routes.handle(
                service, "POST", "/admin/refresh", {}, b""
            )
            assert response.status == 200
            payload = json.loads(response.body)
            assert payload["status"] == "ok"
            # force=True: the admin contract refreshes even without drift.
            assert [i["database_id"] for i in payload["refreshed"]] == ["pets"]
            async_response = routes.handle(
                service, "POST", "/admin/refresh", {}, b'{"wait": false}'
            )
            assert async_response.status == 202
        finally:
            _teardown_stack(database, service, refresher)

    @pytest.mark.parametrize("body", [
        b'{"database_id": 5}', b'{"database_id": ["pets"]}',
        b'{"wait": "no"}', b'{"wait": 0}',
    ])
    def test_admin_route_rejects_bad_fields(self, pets_file, body):
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            response = routes.handle(service, "POST", "/admin/refresh", {}, body)
            assert response.status == 400
            assert refresher.stats()["swaps"] == 0
        finally:
            _teardown_stack(database, service, refresher)

    def test_async_refresh_of_one_database_swaps_only_that_one(self, tmp_path):
        import time

        registry = IndexRegistry()
        databases = {}
        for db_id in ("left", "right"):
            _create_pets_file(tmp_path / f"{db_id}.sqlite")
            databases[db_id] = Database.open(tmp_path / f"{db_id}.sqlite")
        service = TranslationService([
            DatabaseRuntime(
                database, database_id=db_id,
                preprocessor=Preprocessor(database, registry=registry),
            )
            for db_id, database in databases.items()
        ], workers=1).start()
        refresher = KBRefresher(registry, interval_s=60.0)
        for db_id, database in databases.items():
            refresher.watch(database, database_id=db_id)
        refresher.attach_service(service)
        refresher.start()
        try:
            response = routes.handle(
                service, "POST", "/admin/refresh", {},
                b'{"database_id": "right", "wait": false}',
            )
            assert response.status == 202
            deadline = time.monotonic() + 10.0
            while refresher.stats()["swaps"] == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            # "left" is polled first in the cycle that swapped "right".
            assert refresher.stats()["versions"] == {"left": 0, "right": 1}
        finally:
            refresher.stop()
            service.stop()
            for database in databases.values():
                database.close()

    def test_admin_route_409_without_refresher(self, pets_db):
        service = TranslationService(
            [DatabaseRuntime(pets_db, database_id="pets")], workers=1
        ).start()
        try:
            response = routes.handle(
                service, "POST", "/admin/refresh", {}, b""
            )
            assert response.status == 409
        finally:
            service.stop()

    def test_failure_backs_off_and_daemon_survives(self, pets_file, tmp_path):
        database, service, cache, refresher = _serving_stack(pets_file)
        try:
            target = refresher._targets["pets"]
            # Simulate the watched file becoming unreadable mid-flight.
            target.path = str(tmp_path / "gone.sqlite")
            refresher.refresh_now()
            assert target.retry_at > 0.0  # backing off
            stats = refresher.metrics.snapshot()
            assert stats["evolve_refresh_failures_total"] >= 1
            # Recovery: point back at the real file, force past backoff.
            target.path = str(pets_file)
            assert len(refresher.refresh_now()) == 1
            assert target.retry_at == 0.0
        finally:
            _teardown_stack(database, service, refresher)


# --------------------------------------------- hypothesis: swap invariance


_QUESTIONS = (
    "How many students are there?",
    "List the name of all students.",
    "Which students are from France?",
    "What is the average age of students?",
    "How many pets are there?",
    "pets heavier than 10",
    "students older than 20",
    "What are the different pet types?",
)


@pytest.fixture(scope="module")
def swap_rig(tmp_path_factory):
    """One long-lived serving stack the invariance property hammers."""
    path = tmp_path_factory.mktemp("evolve") / "pets.sqlite"
    _create_pets_file(path)
    database, service, _cache, refresher = _serving_stack(path)
    yield service, refresher
    _teardown_stack(database, service, refresher)


@settings(max_examples=12)
@given(question=st.sampled_from(_QUESTIONS))
def test_forced_swap_never_changes_results_without_drift(swap_rig, question):
    """Zero-downtime invariant: for an unchanged database, a forced
    rebuild + swap is invisible — same SQL, same rows, before and after."""
    service, refresher = swap_rig
    before = service.translate(question, execute=True)
    assert before.ok, before.error
    swapped = refresher.refresh_now(force=True)
    assert [info["database_id"] for info in swapped] == ["pets"]
    after = service.translate(question, execute=True)
    assert after.ok, after.error
    assert after.sql == before.sql
    assert after.rows == before.rows
    assert after.engine == before.engine


# ------------------------------------------------------------------ corpus


class TestCorpusGrowth:
    def test_examples_are_ast_rendered_and_validated(self, pets_file):
        database = Database.open(pets_file)
        examples = generate_examples(database, database_id="pets")
        assert examples
        kinds = {example.kind for example in examples}
        assert {"row-count", "distinct", "distinct-count",
                "group-count"} <= kinds
        assert "value-filter" in kinds  # seeded from sampled base data
        assert all(example.validated for example in examples)
        assert all(example.database_id == "pets" for example in examples)
        by_kind = {example.kind: example for example in examples}
        assert by_kind["distinct"].sql.startswith("SELECT DISTINCT ")
        assert "COUNT(DISTINCT " in by_kind["distinct-count"].sql
        # Validated means runnable: spot-check by re-executing a few.
        from repro.db.executor import execute_with_budget

        for example in examples[:5]:
            execute_with_budget(database, example.sql, timeout_s=5.0)
        database.close()

    def test_tables_filter_restricts_generation(self, pets_file):
        database = Database.open(pets_file)
        examples = generate_examples(
            database, database_id="pets", tables=["pet"]
        )
        assert examples
        assert {example.table for example in examples} == {"pet"}
        database.close()

    def test_policy_blocks_are_dropped(self, pets_file):
        class DenyAll:
            def check_sql(self, sql, **kwargs):
                raise RuntimeError("blocked")

        database = Database.open(pets_file)
        assert generate_examples(database, policy=DenyAll()) == []
        database.close()

    def test_writer_dedups_within_and_across_instances(self, pets_file, tmp_path):
        database = Database.open(pets_file)
        examples = generate_examples(database, database_id="pets")
        path = tmp_path / "corpus.jsonl"
        writer = CorpusWriter(path)
        assert writer.append(examples) == len(examples)
        assert writer.append(examples) == 0  # same-instance dedup
        reopened = CorpusWriter(path)  # cross-run dedup via the file
        assert len(reopened) == len(examples)
        assert reopened.append(examples) == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(examples)
        assert all("sql" in line and "question" in line for line in lines)
        database.close()

    def test_refresher_grows_corpus_for_new_table_only(self, pets_file, tmp_path):
        """Each swap regrows every table; the writer keeps only the new
        examples, so DDL appends the new table's and nothing else."""
        corpus_path = tmp_path / "grown.jsonl"
        database, service, cache, refresher = _serving_stack(
            pets_file, corpus_path=corpus_path
        )
        try:
            [first] = refresher.refresh_now(force=True)
            assert first["corpus_examples"] > 0
            grown = len(corpus_path.read_text().splitlines())
            with _writer(pets_file) as conn:
                conn.execute(
                    "CREATE TABLE shelter (shelterid INTEGER PRIMARY KEY, "
                    "city TEXT, capacity INTEGER)"
                )
                conn.execute("INSERT INTO shelter VALUES (1,'Geneva',40)")
                conn.execute("INSERT INTO shelter VALUES (2,'Basel',25)")
            [info] = refresher.refresh_now(force=False)
            lines = [
                json.loads(line)
                for line in corpus_path.read_text().splitlines()
            ]
            added = lines[grown:]
            assert info["corpus_examples"] == len(added) > 0
            # Incremental growth: only the drifted table's examples.
            assert {line["table"] for line in added} == {"shelter"}
            assert all(line["validated"] for line in lines)
            snapshot = refresher.metrics.snapshot()
            assert snapshot["evolve_corpus_examples_total"] == len(lines)
        finally:
            _teardown_stack(database, service, refresher)
