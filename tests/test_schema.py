"""Unit tests for repro.schema: model, graph, joins, serialization."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError, TranslationError
from repro.schema import (
    Column,
    ColumnType,
    ForeignKey,
    Schema,
    SchemaGraph,
    Table,
    load_schemas,
    plan_joins,
    save_schemas,
    schema_from_dict,
    schema_to_dict,
    steiner_join_tables,
)


class TestColumnType:
    @pytest.mark.parametrize(
        "sql_type,expected",
        [
            ("VARCHAR(40)", ColumnType.TEXT),
            ("int", ColumnType.NUMBER),
            ("INTEGER", ColumnType.NUMBER),
            ("double", ColumnType.NUMBER),
            ("bool", ColumnType.BOOLEAN),
            ("DATETIME", ColumnType.TIME),
            ("blob", ColumnType.OTHERS),
        ],
    )
    def test_from_sql_type(self, sql_type, expected):
        assert ColumnType.from_sql_type(sql_type) is expected


class TestModel:
    def test_column_natural_name_default(self):
        column = Column("home_country", "student")
        assert column.natural_name == "home country"
        assert column.words == ["home", "country"]

    def test_qualified_name(self):
        assert Column("age", "student").qualified_name == "student.age"

    def test_star_column(self, pets_schema):
        star = pets_schema.star_column
        assert star.is_star()
        assert pets_schema.all_columns()[0] is star

    def test_table_rejects_foreign_columns(self):
        with pytest.raises(SchemaError):
            Table("a", (Column("x", "b"),))

    def test_schema_rejects_duplicate_tables(self):
        table = Table("t", (Column("x", "t"),))
        with pytest.raises(SchemaError):
            Schema("s", [table, table])

    def test_schema_rejects_dangling_fk(self):
        table = Table("t", (Column("x", "t"),))
        with pytest.raises(SchemaError):
            Schema("s", [table], [ForeignKey("t", "x", "t", "missing")])

    def test_lookup_case_insensitive(self, pets_schema):
        assert pets_schema.table("STUDENT").name == "student"
        assert pets_schema.column("Student", "AGE").name == "age"

    def test_missing_lookups_raise(self, pets_schema):
        with pytest.raises(SchemaError):
            pets_schema.table("nope")
        with pytest.raises(SchemaError):
            pets_schema.column("student", "nope")

    def test_column_index_alignment(self, pets_schema):
        columns = pets_schema.all_columns()
        for i, column in enumerate(columns):
            assert pets_schema.column_index(column) == i

    def test_table_index(self, pets_schema):
        assert pets_schema.table_index("student") == 0
        assert pets_schema.table_index("HAS_PET") == 2

    def test_counts(self, pets_schema):
        assert pets_schema.num_tables == 3
        assert pets_schema.num_columns == 11

    def test_primary_key(self, pets_schema):
        pks = pets_schema.primary_key("student")
        assert [c.name for c in pks] == ["stuid"]
        assert pets_schema.primary_key("has_pet") == []

    def test_relationships_of(self, pets_schema):
        fks = pets_schema.relationships_of("student")
        assert len(fks) == 1
        assert fks[0].source_table == "has_pet"


class TestGraph:
    def test_edge_between_orientation(self, pets_graph):
        edge = pets_graph.edge_between("student", "has_pet")
        assert edge is not None
        assert edge.left_table == "student"
        assert edge.right_table == "has_pet"
        assert edge.left_column == "stuid"

    def test_no_direct_edge(self, pets_graph):
        assert pets_graph.edge_between("student", "pet") is None

    def test_condition_rendering(self, pets_graph):
        edge = pets_graph.edge_between("student", "has_pet")
        assert edge.condition("T1", "T2") == "T1.stuid = T2.stuid"


class TestJoins:
    def test_steiner_includes_bridge(self, pets_graph):
        tables = steiner_join_tables(pets_graph, ["student", "pet"])
        assert tables == {"student", "has_pet", "pet"}

    def test_plan_joins_single_table(self, pets_graph):
        plan = plan_joins(pets_graph, ["student"])
        assert plan.tables == ("student",)
        assert plan.edges == ()

    def test_plan_joins_adds_bridge_with_on_columns(self, pets_graph):
        plan = plan_joins(pets_graph, ["student", "pet"])
        assert set(plan.tables) == {"student", "has_pet", "pet"}
        assert len(plan.edges) == 2
        # every edge must carry its FK columns (Execution Accuracy needs
        # the ON clauses)
        for edge in plan.edges:
            assert edge.left_column and edge.right_column

    def test_plan_joins_dedupes(self, pets_graph):
        plan = plan_joins(pets_graph, ["student", "student"])
        assert plan.tables == ("student",)

    def test_plan_joins_disconnected_raises(self):
        a = Table("a", (Column("x", "a"),))
        b = Table("b", (Column("y", "b"),))
        graph = SchemaGraph(Schema("s", [a, b]))
        with pytest.raises(TranslationError):
            plan_joins(graph, ["a", "b"])

    def test_plan_joins_empty_raises(self, pets_graph):
        with pytest.raises(TranslationError):
            plan_joins(pets_graph, [])

    def test_plan_preserves_first_table_anchor(self, pets_graph):
        plan = plan_joins(pets_graph, ["pet", "student"])
        assert plan.tables[0] == "pet"


class TestSerialization:
    def test_roundtrip(self, pets_schema):
        record = schema_to_dict(pets_schema)
        rebuilt = schema_from_dict(record)
        assert rebuilt.name == pets_schema.name
        assert [t.name for t in rebuilt.tables] == [t.name for t in pets_schema.tables]
        assert rebuilt.num_columns == pets_schema.num_columns
        assert len(rebuilt.foreign_keys) == len(pets_schema.foreign_keys)
        # PK flags survive
        assert rebuilt.column("student", "stuid").is_primary_key

    def test_spider_shape(self, pets_schema):
        record = schema_to_dict(pets_schema)
        assert record["column_names_original"][0] == [-1, "*"]
        assert "db_id" in record and "foreign_keys" in record

    def test_file_roundtrip(self, pets_schema, tmp_path):
        path = tmp_path / "tables.json"
        save_schemas([pets_schema], path)
        [loaded] = load_schemas(path)
        assert loaded.name == "pets"
        assert loaded.table("pet").column("weight").column_type is ColumnType.NUMBER

    def test_missing_key_raises(self):
        with pytest.raises(SchemaError):
            schema_from_dict({"db_id": "x"})
