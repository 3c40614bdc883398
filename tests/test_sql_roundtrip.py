"""Property-based round-trip tests for the SQL layer.

Two invariants are locked in:

* parse -> render -> parse is the identity on the AST, both over every
  gold query of a synthetic corpus and under adversarial string literals
  (embedded quotes, unbalanced parens, SQL keywords like ``order by``).
* the quote-aware :func:`gold_orders_rows` heuristic is driven by the
  *structure* of the query, never by literal contents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.db.executor import gold_orders_rows
from repro.schema import Column, ColumnType, ForeignKey, Schema, SchemaGraph, Table
from repro.spider import CorpusConfig, generate_corpus
from repro.sql import (
    SqlRenderer,
    TokenType,
    iter_literals,
    lex_sql,
    parse_sql,
    quote_string,
)

# Literal contents chosen to attack the tokenizer and the quote-aware
# scanners: quotes (plain and doubled), parens, brackets, keywords.
ADVERSARIAL_ALPHABET = (
    "abcORDER BY'\"`()[]_-.,0123456789"
)
literals = st.text(alphabet=ADVERSARIAL_ALPHABET, min_size=0, max_size=30)

# Hypothesis forbids function-scoped fixtures inside @given (they are not
# reset per generated input), so the read-only schema is built once here.
SCHEMA = Schema(
    "pets",
    [
        Table("student", (
            Column("stuid", "student", ColumnType.NUMBER, is_primary_key=True),
            Column("name", "student", ColumnType.TEXT),
            Column("age", "student", ColumnType.NUMBER),
        )),
        Table("has_pet", (
            Column("stuid", "has_pet", ColumnType.NUMBER),
            Column("petid", "has_pet", ColumnType.NUMBER),
        )),
    ],
    [ForeignKey("has_pet", "stuid", "student", "stuid")],
)
GRAPH = SchemaGraph(SCHEMA)


@pytest.fixture(scope="module")
def corpus():
    corpus = generate_corpus(CorpusConfig(train_per_domain=10, dev_per_domain=5))
    yield corpus
    corpus.close()


class TestCorpusRoundTrip:
    def test_parse_render_parse_is_identity(self, corpus):
        checked = 0
        for split in (corpus.train, corpus.dev):
            for example in split:
                schema = corpus.schema(example.db_id)
                parsed = parse_sql(example.gold_sql, schema)
                rendered = SqlRenderer(SchemaGraph(schema)).render(parsed)
                reparsed = parse_sql(rendered, schema)
                assert parsed == reparsed, (
                    f"round trip changed the AST of {example.gold_sql!r} "
                    f"(rendered: {rendered!r})"
                )
                checked += 1
        assert checked > 50  # the corpus really covered something

    def test_rendered_corpus_queries_execute(self, corpus):
        domain = corpus.train_domains[0]
        db = corpus.database(domain)
        graph = SchemaGraph(db.schema)
        for example in corpus.train:
            if example.db_id != domain:
                continue
            rendered = SqlRenderer(graph).render(
                parse_sql(example.gold_sql, db.schema)
            )
            db.execute(rendered)  # must not raise


class TestAdversarialLiterals:
    @given(value=literals)
    def test_literal_survives_parse(self, value):
        sql = f"SELECT name FROM student WHERE name = {quote_string(value)}"
        query = parse_sql(sql, SCHEMA)
        assert [lit.value for lit in iter_literals(query)] == [value]

    @given(value=literals)
    def test_parse_render_parse_with_literal(self, value):
        sql = f"SELECT name FROM student WHERE name = {quote_string(value)}"
        parsed = parse_sql(sql, SCHEMA)
        rendered = SqlRenderer(GRAPH).render(parsed)
        assert parse_sql(rendered, SCHEMA) == parsed

    @given(value=literals, age=st.integers(min_value=0, max_value=99))
    def test_two_literal_round_trip(self, value, age):
        sql = (
            "SELECT name FROM student WHERE name = "
            f"{quote_string(value)} AND age > {age}"
        )
        parsed = parse_sql(sql, SCHEMA)
        rendered = SqlRenderer(GRAPH).render(parsed)
        reparsed = parse_sql(rendered, SCHEMA)
        assert reparsed == parsed
        assert {lit.value for lit in iter_literals(reparsed)} == {value, age}


class TestDialectRoundTrip:
    """parse -> render -> parse stays the identity for SQLite SQL."""

    def test_corpus_round_trips_through_sqlite_dialect(self, corpus):
        checked = 0
        for split in (corpus.train, corpus.dev):
            for example in split:
                schema = corpus.schema(example.db_id)
                parsed = parse_sql(example.gold_sql, schema)
                rendered = SqlRenderer(SchemaGraph(schema)).render(parsed)
                assert parse_sql(rendered, schema) == parsed
                checked += 1
        assert checked > 50

    @given(value=literals)
    def test_literal_round_trips_through_sqlite_dialect(self, value):
        sql = (
            "SELECT name FROM student WHERE name = "
            f"{quote_string(value)}"
        )
        parsed = parse_sql(sql, SCHEMA)
        rendered = SqlRenderer(GRAPH).render(parsed)
        assert parse_sql(rendered, SCHEMA) == parsed


# Classic breakout payloads: quote closers, comment markers, statement
# separators, backslash tricks, and a NUL byte.
INJECTION_PAYLOADS = [
    "'",
    "''",
    "\\",
    "\\'",
    "';--",
    "x'; DROP TABLE student;--",
    'x"; PRAGMA writable_schema=1;--',
    "a\x00b",
]


class TestInjectionLiterals:
    @pytest.mark.parametrize("payload", INJECTION_PAYLOADS)
    def test_payload_stays_contained(self, payload):
        rendered = quote_string(payload)
        sql = f"SELECT name FROM student WHERE name = {rendered}"
        lexed = lex_sql(sql)
        masked = lexed.masked
        # Quote-aware masking must see ONE contained literal: no DROP /
        # PRAGMA / comment marker / statement separator escapes it.
        assert [t.type for t in lexed.tokens].count(TokenType.STRING) == 1
        assert TokenType.COMMENT not in {t.type for t in lexed.tokens}
        assert "DROP" not in masked
        assert "PRAGMA" not in masked
        assert ";" not in masked
        assert "--" not in masked

    @pytest.mark.parametrize("payload", INJECTION_PAYLOADS)
    def test_sqlite_payload_round_trips_exactly(self, payload):
        sql = (
            "SELECT name FROM student WHERE name = "
            f"{quote_string(payload)}"
        )
        if "\x00" in payload:
            # Rendered as CAST(X'..' AS TEXT): safe, but a function call
            # is outside the parser's literal grammar — containment (see
            # above) is the property that matters here.
            assert "\x00" not in quote_string(payload)
            return
        query = parse_sql(sql, SCHEMA)
        assert [lit.value for lit in iter_literals(query)] == [payload]

    @given(value=literals)
    def test_adversarial_literals_stay_contained(self, value):
        sql = (
            "SELECT name FROM student WHERE name = "
            f"{quote_string(value)}"
        )
        masked = lex_sql(sql).masked
        assert ";" not in masked
        assert "ORDER BY" not in masked.replace(
            "SELECT name FROM student WHERE name = ", ""
        )


class TestGoldOrdersRows:
    @given(value=literals)
    def test_literal_contents_never_fake_an_order_by(self, value):
        sql = f"SELECT name FROM student WHERE name = {quote_string(value)}"
        assert not gold_orders_rows(sql)

    @given(value=literals)
    def test_top_level_order_by_detected_despite_literal(self, value):
        sql = (
            f"SELECT name FROM student WHERE name = {quote_string(value)} "
            "ORDER BY name"
        )
        assert gold_orders_rows(sql)

    @given(value=literals)
    def test_subquery_order_by_is_not_top_level(self, value):
        sql = (
            "SELECT name FROM student WHERE stuid IN "
            f"(SELECT stuid FROM has_pet WHERE note = {quote_string(value)} "
            "ORDER BY stuid)"
        )
        assert not gold_orders_rows(sql)

    def test_doubled_quote_escape_is_one_literal(self):
        # 'it''s (order by' is ONE literal: the doubled quote must not
        # close it early and expose the keyword / the paren.
        sql = "SELECT name FROM student WHERE name = 'it''s (order by'"
        assert not gold_orders_rows(sql)
        assert not gold_orders_rows(sql + " AND age > 1")
        assert gold_orders_rows(sql + " ORDER BY name")

    def test_identifier_quoting_styles_are_skipped(self):
        assert not gold_orders_rows(
            'SELECT "order by" FROM student'
        )
        assert not gold_orders_rows(
            "SELECT `order by` FROM student"
        )
        assert not gold_orders_rows(
            "SELECT [order by] FROM student"
        )
        assert gold_orders_rows(
            'SELECT "order by" FROM student ORDER BY name'
        )

    def test_order_by_requires_word_boundary(self):
        assert not gold_orders_rows("SELECT reorder_by FROM t")
        assert gold_orders_rows("SELECT a FROM t ORDER BY a")
