"""Schema graph: tables as vertices, PK/FK relationships as edges.

Paper Section III-C2: "A common approach is to transform the database
schema into an undirected graph, where the vertexes are tables and edges
are primary-key/foreign-key relationships."  ValueNet additionally stores
the PK/FK *columns* on every edge, because Execution Accuracy requires
fully-specified ``ON`` clauses (a bare ``A JOIN B`` is a cross join).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.errors import SchemaError
from repro.schema.model import ForeignKey, Schema


@dataclass(frozen=True)
class JoinEdge:
    """One join step: ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def condition(self, left_alias: str, right_alias: str) -> str:
        """Render the ``ON`` condition given table aliases."""
        return (
            f"{left_alias}.{self.left_column} = {right_alias}.{self.right_column}"
        )


class SchemaGraph:
    """Undirected multigraph over tables, annotated with join columns.

    The graph is built once per schema and reused for every query; path
    queries are answered with networkx shortest-path / Steiner algorithms
    (see :mod:`repro.schema.joins`).
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.graph = nx.MultiGraph()
        for table in schema.tables:
            self.graph.add_node(table.name.lower(), label=table.name)
        for fk in schema.foreign_keys:
            self._add_edge(fk)

    def _add_edge(self, fk: ForeignKey) -> None:
        self.graph.add_edge(
            fk.source_table.lower(),
            fk.target_table.lower(),
            fk=fk,
            weight=1.0,
        )

    # ------------------------------------------------------------- queries

    def neighbors(self, table_name: str) -> list[str]:
        """Original-cased names of tables adjacent to ``table_name``."""
        key = table_name.lower()
        if key not in self.graph:
            raise SchemaError(f"table {table_name!r} not in schema graph")
        return [self.graph.nodes[n]["label"] for n in self.graph.neighbors(key)]

    def are_connected(self, table_a: str, table_b: str) -> bool:
        """Whether any join path exists between the two tables."""
        a, b = table_a.lower(), table_b.lower()
        if a not in self.graph or b not in self.graph:
            return False
        return nx.has_path(self.graph, a, b)

    def edge_between(self, table_a: str, table_b: str) -> JoinEdge | None:
        """A direct FK edge between two tables, or ``None``.

        When several FK edges connect the same pair of tables (e.g. a
        flight's origin and destination airports) the first one in schema
        order is returned; query-specific disambiguation is out of scope
        for the deterministic post-processing, matching the paper.
        """
        a, b = table_a.lower(), table_b.lower()
        data = self.graph.get_edge_data(a, b)
        if not data:
            return None
        fk: ForeignKey = data[min(data)]["fk"]
        return self._orient(fk, table_a)

    def _orient(self, fk: ForeignKey, left_table: str) -> JoinEdge:
        """Return the edge oriented so the left side matches ``left_table``."""
        if fk.source_table.lower() == left_table.lower():
            return JoinEdge(
                fk.source_table, fk.source_column,
                fk.target_table, fk.target_column,
            )
        return JoinEdge(
            fk.target_table, fk.target_column,
            fk.source_table, fk.source_column,
        )

    def original_name(self, table_key: str) -> str:
        """Original-cased table name for a lower-cased graph node key."""
        return self.graph.nodes[table_key.lower()]["label"]
