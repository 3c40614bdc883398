"""Tests for the synthetic Spider-like corpus generator."""

from __future__ import annotations

import copy

import pytest

from repro.db import Database, gold_orders_rows, rows_equal
from repro.errors import DatasetError
from repro.evaluation.difficulty import Hardness, ValueDifficulty
from repro.postprocessing import SqlBuilder
from repro.schema import SchemaGraph
from repro.semql import query_to_semql, semql_to_query
from repro.spider import (
    CorpusConfig,
    DEFAULT_DEV_DOMAINS,
    DEFAULT_TRAIN_DOMAINS,
    DOMAIN_SPECS,
    build_domain,
    generate_corpus,
    hardness_distribution,
    load_corpus,
    value_difficulty_distribution,
    value_distribution,
)
from repro.sql import SqlRenderer, parse_sql


@pytest.fixture(scope="module")
def small_corpus():
    corpus = generate_corpus(CorpusConfig(train_per_domain=25, dev_per_domain=15))
    yield corpus
    corpus.close()


class TestDomains:
    def test_all_domains_materialize(self):
        for name in DOMAIN_SPECS:
            instance = build_domain(name)
            with instance.build_database() as db:
                for table in instance.schema.tables:
                    assert db.row_count(table.name) > 0

    def test_deterministic_per_seed(self):
        a = build_domain("pets", seed=3)
        b = build_domain("pets", seed=3)
        assert a.rows == b.rows
        c = build_domain("pets", seed=4)
        assert a.rows != c.rows

    def test_unknown_domain_raises(self):
        with pytest.raises(DatasetError):
            build_domain("narnia")

    def test_fk_integrity(self):
        instance = build_domain("pets")
        with instance.build_database() as db:
            orphans = db.execute(
                "SELECT COUNT(*) FROM has_pet WHERE stuid NOT IN "
                "(SELECT stuid FROM student)"
            )
            assert orphans == [(0,)]

    def test_primary_keys_unique(self):
        instance = build_domain("college")
        ids = instance.column_values("student", "stu_id")
        assert len(ids) == len(set(ids))

    def test_split_is_disjoint(self):
        assert not set(DEFAULT_TRAIN_DOMAINS) & set(DEFAULT_DEV_DOMAINS)
        assert set(DEFAULT_TRAIN_DOMAINS) | set(DEFAULT_DEV_DOMAINS) == set(DOMAIN_SPECS)


class TestGeneratedExamples:
    def test_sizes(self, small_corpus):
        assert small_corpus.num_train == 25 * len(DEFAULT_TRAIN_DOMAINS)
        assert small_corpus.num_dev == 15 * len(DEFAULT_DEV_DOMAINS)

    def test_gold_sql_executes(self, small_corpus):
        for example in small_corpus.train[:80] + small_corpus.dev[:40]:
            database = small_corpus.database(example.db_id)
            database.execute(example.gold_sql)  # must not raise

    def test_gold_sql_parses_back(self, small_corpus):
        for example in small_corpus.dev[:40]:
            schema = small_corpus.schema(example.db_id)
            query = parse_sql(example.gold_sql, schema)
            assert query.body.tables

    def test_gold_semql_valid_and_executable(self, small_corpus):
        for example in small_corpus.dev[:40]:
            schema = small_corpus.schema(example.db_id)
            example.gold_semql.validate()
            rebuilt = semql_to_query(example.gold_semql, schema)
            renderer = SqlRenderer(SchemaGraph(schema))
            database = small_corpus.database(example.db_id)
            database.execute(renderer.render(rebuilt))

    def test_semql_roundtrip_preserves_results(self, small_corpus):
        mismatches = 0
        for example in small_corpus.dev[:60]:
            schema = small_corpus.schema(example.db_id)
            database = small_corpus.database(example.db_id)
            renderer = SqlRenderer(SchemaGraph(schema))
            rebuilt_sql = renderer.render(semql_to_query(example.gold_semql, schema))
            gold_rows = sorted(map(tuple, database.execute(example.gold_sql)))
            rebuilt_rows = sorted(map(tuple, database.execute(rebuilt_sql)))
            if gold_rows != rebuilt_rows:
                mismatches += 1
        assert mismatches == 0

    def test_values_annotated(self, small_corpus):
        for example in small_corpus.train:
            assert len(example.values) == len(example.value_difficulties)

    def test_questions_unique_per_domain(self, small_corpus):
        seen = set()
        for example in small_corpus.train:
            key = (example.db_id, example.question)
            assert key not in seen
            seen.add(key)

    def test_train_split_does_not_depend_on_dev_size(self):
        def train(dev_per_domain):
            corpus = generate_corpus(CorpusConfig(
                train_per_domain=4, dev_per_domain=dev_per_domain, seed=7))
            return [(e.db_id, e.question) for e in corpus.train]

        assert train(2) == train(6)

    def test_determinism(self):
        config = CorpusConfig(train_per_domain=10, dev_per_domain=5, seed=7)
        a = generate_corpus(config)
        b = generate_corpus(config)
        assert [e.question for e in a.train] == [e.question for e in b.train]
        assert [e.gold_sql for e in a.dev] == [e.gold_sql for e in b.dev]

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(
                CorpusConfig(train_domains=("pets",), dev_domains=("pets",))
            )


class TestDistributions:
    def test_value_distribution_shape(self, small_corpus):
        distribution = value_distribution(small_corpus.train)
        # Fig. 9 shape: no-value and one-value dominate, long tail small
        assert distribution.fraction(0) > 0.25
        assert distribution.fraction(1) > 0.25
        assert distribution.fraction(2) < 0.30
        assert distribution.total_values > 0
        assert (
            distribution.samples_with_values
            == distribution.total_samples - distribution.counts.get(0, 0)
        )

    def test_hardness_all_classes_present(self, small_corpus):
        counts = hardness_distribution(small_corpus.train)
        for hardness in Hardness:
            assert counts[hardness] > 0, hardness

    def test_value_difficulty_classes_present(self, small_corpus):
        counts = value_difficulty_distribution(small_corpus.train)
        assert counts[ValueDifficulty.EASY] > 0
        assert counts[ValueDifficulty.MEDIUM] > 0
        assert counts[ValueDifficulty.EXTRA_HARD] > 0

    def test_example_value_difficulty_is_max(self, small_corpus):
        for example in small_corpus.train:
            if example.value_difficulties:
                order = list(ValueDifficulty)
                expected = max(example.value_difficulties, key=order.index)
                assert example.value_difficulty is expected


class TestPersistence:
    def test_save_load_roundtrip(self, small_corpus, tmp_path):
        small_corpus.save(tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        assert loaded.num_train == small_corpus.num_train
        assert loaded.num_dev == small_corpus.num_dev
        assert loaded.train[0].question == small_corpus.train[0].question
        assert loaded.train[0].gold_sql == small_corpus.train[0].gold_sql
        # gold SemQL is re-derived from SQL and stays valid
        loaded.train[0].gold_semql.validate()
        loaded.close()

    def test_loaded_databases_executable(self, small_corpus, tmp_path):
        small_corpus.save(tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        example = loaded.dev[0]
        loaded.database(example.db_id).execute(example.gold_sql)
        loaded.close()

    def test_unknown_db_raises(self, small_corpus):
        with pytest.raises(DatasetError):
            small_corpus.schema("nope")
        with pytest.raises(DatasetError):
            small_corpus.database("nope")


class TestDifficultyClassifier:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT name FROM student", Hardness.EASY),
            ("SELECT name FROM student WHERE age > 20", Hardness.EASY),
            (
                "SELECT home_country, count(*) FROM student GROUP BY home_country",
                Hardness.MEDIUM,
            ),
            ("SELECT name FROM student ORDER BY age DESC LIMIT 3", Hardness.MEDIUM),
            (
                "SELECT name FROM student WHERE stuid IN (SELECT stuid FROM has_pet)",
                Hardness.HARD,
            ),
            (
                "SELECT name FROM student WHERE sex = 'F' UNION "
                "SELECT name FROM student WHERE age > 20",
                Hardness.EXTRA_HARD,
            ),
        ],
    )
    def test_hardness_buckets(self, sql, expected, pets_schema):
        from repro.evaluation.difficulty import classify_hardness

        assert classify_hardness(parse_sql(sql, pets_schema)) is expected


class TestGoldRoundTrip:
    def test_post_processed_gold_trees_return_gold_rows(self):
        """Every gold SemQL tree of the quick corpus, train and dev, built
        by ``SqlBuilder`` (value formatting included) returns the gold
        query's rows."""
        corpus = generate_corpus(
            CorpusConfig(train_per_domain=100, dev_per_domain=50))
        builders = {name: SqlBuilder(corpus.schema(name)) for name in corpus.domains}
        failures = []
        for example in corpus.train + corpus.dev:
            database = corpus.database(example.db_id)
            # build() formats the tree's values in place.
            sql = builders[example.db_id].build(copy.deepcopy(example.gold_semql))
            if not rows_equal(
                database.execute(sql), database.execute(example.gold_sql),
                order_matters=gold_orders_rows(example.gold_sql),
            ):
                failures.append((example.gold_sql, sql))
        corpus.close()
        assert failures == []
