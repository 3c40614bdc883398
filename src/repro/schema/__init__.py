"""Relational schema model, schema graph and JOIN path inference."""

from repro.schema.graph import JoinEdge, SchemaGraph
from repro.schema.joins import JoinPlan, plan_joins, steiner_join_tables
from repro.schema.model import Column, ColumnType, ForeignKey, Schema, Table
from repro.schema.serialization import (
    load_schemas,
    save_schemas,
    schema_from_dict,
    schema_to_dict,
)

__all__ = [
    "Column",
    "ColumnType",
    "ForeignKey",
    "JoinEdge",
    "JoinPlan",
    "Schema",
    "SchemaGraph",
    "Table",
    "load_schemas",
    "plan_joins",
    "save_schemas",
    "schema_from_dict",
    "schema_to_dict",
    "steiner_join_tables",
]
