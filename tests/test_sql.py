"""Unit tests for repro.sql: lexer, tokenizer, parser, renderer, AST."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SqlParseError
from repro.sql import (
    AggregateFunction,
    BooleanExpr,
    ColumnRef,
    Condition,
    Literal,
    Operator,
    Query,
    SelectItem,
    SelectQuery,
    SqlRenderer,
    TokenType,
    iter_conditions,
    iter_literals,
    lex_sql,
    parse_sql,
    quote_string,
    render_literal,
    tokenize_sql,
)
from tests import legacy_scanners as legacy


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize_sql("SELECT name FROM t")
        assert tokens[0].is_keyword("select")
        assert tokens[2].is_keyword("from")

    def test_string_literal_quotes_stripped(self):
        [token, _end] = tokenize_sql("'France'")
        assert token.type is TokenType.STRING
        assert token.value == "France"

    def test_escaped_quote(self):
        [token, _end] = tokenize_sql("'O''Hare'")
        assert token.value == "O'Hare"

    def test_operators(self):
        values = [t.value for t in tokenize_sql("<= >= != <> = < >")[:-1]]
        assert values == ["<=", ">=", "!=", "!=", "=", "<", ">"]

    def test_numbers(self):
        tokens = tokenize_sql("12 3.5")
        assert tokens[0].value == "12" and tokens[1].value == "3.5"

    def test_unknown_char_raises(self):
        with pytest.raises(SqlParseError):
            tokenize_sql("SELECT @")

    def test_end_token(self):
        assert tokenize_sql("x")[-1].type is TokenType.END


class TestLexer:
    """One pass splits SQL into SQLite's regions; the masked view blanks
    quoted contents only."""

    def test_regions(self):
        sql = "SELECT 'a' \"b\" `c` [d] -- e\n/* f */ g;"
        types = [t.type for t in lex_sql(sql).tokens]
        assert types == [
            TokenType.KEYWORD, TokenType.STRING, TokenType.STRING,
            TokenType.QUOTED, TokenType.QUOTED, TokenType.COMMENT,
            TokenType.COMMENT, TokenType.IDENTIFIER, TokenType.SEPARATOR,
            TokenType.END,
        ]

    def test_masked_view_blanks_quoted_contents_only(self):
        sql = "SELECT 'x;y' \"DROP\" `o''k` [a;b] -- c;d\n/* e;f */"
        masked = lex_sql(sql).masked
        assert masked == (
            "SELECT '   ' \"    \" `    ` [   ] -- c;d\n/* e;f */"
        )

    @pytest.mark.parametrize("quote", ["'", '"', "`"])
    def test_doubled_delimiter_escapes(self, quote):
        sql = f"{quote}a{quote}{quote}; DROP{quote} x"
        lexed = lex_sql(sql)
        assert lexed.masked == f"{quote}{' ' * 9}{quote} x"
        assert lexed.tokens[1].value == "x"

    def test_bracket_has_no_escape(self):
        lexed = lex_sql("[a]]")
        assert [t.type for t in lexed.tokens] == [
            TokenType.QUOTED, TokenType.OTHER, TokenType.END,
        ]

    @pytest.mark.parametrize("opener", ["'", '"', "`", "["])
    def test_unterminated_quote_runs_to_the_end(self, opener):
        lexed = lex_sql(f"SELECT {opener}a; DROP")
        assert lexed.masked == f"SELECT {opener}       "
        assert lexed.tokens[1].type is TokenType.QUOTED

    def test_unterminated_block_comment_runs_to_the_end(self):
        lexed = lex_sql("SELECT /* 'a")
        assert [t.type for t in lexed.tokens] == [
            TokenType.KEYWORD, TokenType.COMMENT, TokenType.END,
        ]
        assert lexed.masked == "SELECT /* 'a"

    def test_quote_inside_comment_opens_nothing(self):
        lexed = lex_sql("SELECT 1 -- it's\n; DROP")
        assert lexed.masked == "SELECT 1 -- it's\n; DROP"
        assert lexed.separator() == 17

    def test_comment_marker_inside_quotes_is_quoted(self):
        lexed = lex_sql("SELECT '--' ; x")
        assert lexed.masked == "SELECT '  ' ; x"
        assert lexed.separator() == 12

    def test_trailing_separator_is_not_a_separator(self):
        assert lex_sql("SELECT 1 ;  \n").separator() is None
        assert lex_sql("SELECT ';x'").separator() is None

    @given(sql=st.text(max_size=40))
    def test_never_raises_and_keeps_length(self, sql):
        lexed = lex_sql(sql)
        assert len(lexed.masked) == len(sql)
        positions = [t.position for t in lexed.tokens]
        assert positions == sorted(positions)
        assert lexed.tokens[-1] == (TokenType.END, "", len(sql))

    @pytest.mark.parametrize("sql", [
        "SELECT a -- c", "SELECT a /* c */", "SELECT `a` FROM t",
        "SELECT [a] FROM t", "SELECT a FROM t;", "SELECT 'a",
    ])
    def test_strict_view_refuses_what_the_parser_cannot_read(self, sql):
        with pytest.raises(SqlParseError):
            tokenize_sql(sql)

    @given(sql=st.lists(st.sampled_from([
        "a", "1", "2.5", " ", "\n", "'", '"', "`", "[", "]", ";", "-", "/",
        "*", "(", ")", ",", ".", "<", ">", "=", "!", "SELECT", "from", "@",
    ]), max_size=20).map("".join))
    def test_strict_view_matches_the_old_tokenizer(self, sql):
        try:
            expected = legacy.tokenize_sql(sql)
        except SqlParseError as exc:
            with pytest.raises(SqlParseError) as excinfo:
                tokenize_sql(sql)
            assert str(excinfo.value) == str(exc)
        else:
            assert list(tokenize_sql(sql)) == expected


class TestParser:
    def test_simple_select(self, pets_schema):
        query = parse_sql("SELECT name FROM student", pets_schema)
        assert query.body.tables == ["student"]
        assert query.body.select[0].column == ColumnRef("student", "name")

    def test_alias_resolution(self, pets_schema):
        query = parse_sql(
            "SELECT T1.name FROM student AS T1 JOIN has_pet AS T2 "
            "ON T1.stuid = T2.stuid",
            pets_schema,
        )
        assert query.body.select[0].column.table == "student"
        assert query.body.tables == ["student", "has_pet"]

    def test_unqualified_column_binding(self, pets_schema):
        query = parse_sql(
            "SELECT weight FROM student JOIN has_pet ON student.stuid = has_pet.stuid "
            "JOIN pet ON has_pet.petid = pet.petid",
            pets_schema,
        )
        assert query.body.select[0].column == ColumnRef("pet", "weight")

    def test_where_conditions(self, pets_schema):
        query = parse_sql(
            "SELECT name FROM student WHERE home_country = 'France' AND age > 20",
            pets_schema,
        )
        conditions = list(iter_conditions(query.body.where))
        assert len(conditions) == 2
        assert conditions[0].operator is Operator.EQ
        assert conditions[0].rhs == Literal("France")
        assert conditions[1].rhs == Literal(20)

    def test_mixed_and_or_precedence(self, pets_schema):
        query = parse_sql(
            "SELECT name FROM student WHERE age > 20 AND sex = 'F' OR age < 18",
            pets_schema,
        )
        where = query.body.where
        assert isinstance(where, BooleanExpr) and where.connector == "or"
        left = where.operands[0]
        assert isinstance(left, BooleanExpr) and left.connector == "and"

    def test_between(self, pets_schema):
        query = parse_sql(
            "SELECT name FROM student WHERE age BETWEEN 18 AND 25", pets_schema
        )
        condition = query.body.where
        assert condition.operator is Operator.BETWEEN
        assert condition.rhs == (Literal(18), Literal(25))

    def test_not_variants(self, pets_schema):
        query = parse_sql(
            "SELECT name FROM student WHERE name NOT LIKE '%a%'", pets_schema
        )
        assert query.body.where.operator is Operator.NOT_LIKE

    def test_in_subquery(self, pets_schema):
        query = parse_sql(
            "SELECT name FROM student WHERE stuid IN (SELECT stuid FROM has_pet)",
            pets_schema,
        )
        condition = query.body.where
        assert condition.operator is Operator.IN
        assert isinstance(condition.rhs, Query)
        assert condition.rhs.body.tables == ["has_pet"]

    def test_group_having_order_limit(self, pets_schema):
        query = parse_sql(
            "SELECT home_country, count(*) FROM student GROUP BY home_country "
            "HAVING count(*) >= 2 ORDER BY count(*) DESC LIMIT 3",
            pets_schema,
        )
        body = query.body
        assert body.group_by == [ColumnRef("student", "home_country")]
        assert body.having.aggregate is AggregateFunction.COUNT
        assert body.order_by.items[0].aggregate is AggregateFunction.COUNT
        assert body.limit == 3

    def test_distinct_and_agg_distinct(self, pets_schema):
        query = parse_sql(
            "SELECT DISTINCT home_country FROM student", pets_schema
        )
        assert query.body.distinct
        query2 = parse_sql(
            "SELECT count(DISTINCT home_country) FROM student", pets_schema
        )
        assert query2.body.select[0].distinct

    def test_compound(self, pets_schema):
        query = parse_sql(
            "SELECT name FROM student UNION SELECT name FROM student", pets_schema
        )
        assert query.is_compound()
        assert len(query.all_select_queries()) == 2

    def test_qualified_star(self, pets_schema):
        query = parse_sql(
            "SELECT count(T2.*) FROM student AS T1 JOIN has_pet AS T2 "
            "ON T1.stuid = T2.stuid",
            pets_schema,
        )
        item = query.body.select[0]
        assert item.column == ColumnRef("has_pet", "*")
        assert item.aggregate is AggregateFunction.COUNT

    def test_unknown_table_raises(self, pets_schema):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT x FROM nope", pets_schema)

    def test_unknown_column_raises(self, pets_schema):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT nope FROM student", pets_schema)

    def test_trailing_tokens_raise(self, pets_schema):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT name FROM student extra", pets_schema)

    def test_unknown_alias_raises(self, pets_schema):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT T9.name FROM student AS T1", pets_schema)


class TestRenderer:
    def test_single_table_no_alias(self, pets_schema, pets_graph):
        query = parse_sql("SELECT name FROM student", pets_schema)
        sql = SqlRenderer(pets_graph).render(query)
        assert sql == "SELECT student.name FROM student"

    def test_join_gets_on_clause(self, pets_schema, pets_graph):
        query = Query(
            body=SelectQuery(
                select=[SelectItem(ColumnRef("student", "name"))],
                tables=["student", "pet"],
            )
        )
        sql = SqlRenderer(pets_graph).render(query)
        assert "JOIN has_pet" in sql
        assert sql.count(" ON ") == 2  # never a bare cross join

    def test_rendered_sql_executes(self, pets_db, pets_graph):
        query = Query(
            body=SelectQuery(
                select=[SelectItem(ColumnRef(None, "*"), AggregateFunction.COUNT)],
                tables=["student", "pet"],
                where=Condition(
                    ColumnRef("student", "home_country"), Operator.EQ, Literal("France")
                ),
            )
        )
        sql = SqlRenderer(pets_graph).render(query)
        rows = pets_db.execute(sql)
        assert rows == [(1,)]  # only Ann (France) owns a pet

    def test_count_qualified_star_renders_bare(self, pets_schema, pets_graph):
        query = Query(
            body=SelectQuery(
                select=[SelectItem(ColumnRef("has_pet", "*"), AggregateFunction.COUNT)],
                tables=["has_pet", "student"],
            )
        )
        sql = SqlRenderer(pets_graph).render(query)
        assert "COUNT(*)" in sql
        assert ".* " not in sql

    def test_between_rendering(self, pets_schema, pets_graph):
        query = parse_sql(
            "SELECT name FROM student WHERE age BETWEEN 18 AND 25", pets_schema
        )
        sql = SqlRenderer(pets_graph).render(query)
        assert "BETWEEN 18 AND 25" in sql

    def test_parse_render_roundtrip_executes(self, pets_db, pets_graph):
        original = (
            "SELECT count(*) FROM student AS T1 JOIN has_pet AS T2 ON "
            "T1.stuid = T2.stuid WHERE T1.home_country = 'France' AND T1.age > 20"
        )
        query = parse_sql(original, pets_db.schema)
        sql = SqlRenderer(pets_graph).render(query)
        assert pets_db.execute(sql) == pets_db.execute(original)

    def test_quote_string_escapes(self):
        assert quote_string("O'Hare") == "'O''Hare'"

    def test_render_literal_int_float(self):
        assert render_literal(Literal(3)) == "3"
        assert render_literal(Literal(3.0)) == "3"
        assert render_literal(Literal(3.5)) == "3.5"
        assert render_literal(Literal("x")) == "'x'"


class TestAstHelpers:
    def test_iter_literals_includes_limit_and_subqueries(self, pets_schema):
        query = parse_sql(
            "SELECT name FROM student WHERE stuid IN "
            "(SELECT stuid FROM has_pet) AND age > 20 ORDER BY age DESC LIMIT 3",
            pets_schema,
        )
        values = [literal.value for literal in iter_literals(query)]
        assert 20 in values and 3 in values

    def test_operator_negation(self):
        assert Operator.EQ.negated() is Operator.NE
        assert Operator.LIKE.negated() is Operator.NOT_LIKE
        with pytest.raises(ValueError):
            Operator.BETWEEN.negated()

    def test_boolean_expr_validation(self):
        condition = Condition(ColumnRef("t", "c"), Operator.EQ, Literal(1))
        with pytest.raises(ValueError):
            BooleanExpr("xor", (condition, condition))
        with pytest.raises(ValueError):
            BooleanExpr("and", (condition,))

    def test_query_compound_validation(self):
        body = SelectQuery(select=[SelectItem(ColumnRef("t", "c"))], tables=["t"])
        with pytest.raises(ValueError):
            Query(body=body, set_operator=None, compound=Query(body=body))
