"""Schema graph: tables as vertices, PK/FK relationships as edges.

Paper Section III-C2: "A common approach is to transform the database
schema into an undirected graph, where the vertexes are tables and edges
are primary-key/foreign-key relationships."  ValueNet additionally stores
the PK/FK *columns* on every edge, because Execution Accuracy requires
fully-specified ``ON`` clauses (a bare ``A JOIN B`` is a cross join).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Built once per schema and reused for every query.  ``adjacency`` maps
    each lower-cased table name to its neighbours and each neighbour to
    the FKs joining the two, listed in FK order; tables and neighbours
    both keep schema order, so every walk over the graph (see
    :mod:`repro.schema.joins`) breaks ties the same way.  A
    self-referencing FK (``employee.manager_id``) is a self-loop.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._names = {table.name.lower(): table.name for table in schema.tables}
        rank = {key: i for i, key in enumerate(self._names)}
        links: dict[str, dict[str, list[ForeignKey]]] = {key: {} for key in rank}
        for fk in schema.foreign_keys:
            source, target = fk.source_table.lower(), fk.target_table.lower()
            links[source].setdefault(target, []).append(fk)
            if source != target:
                links[target].setdefault(source, []).append(fk)
        self.adjacency = {
            key: {n: links[key][n] for n in sorted(links[key], key=rank.__getitem__)}
            for key in rank
        }

    # ------------------------------------------------------------- queries

    def edge_between(self, table_a: str, table_b: str) -> JoinEdge | None:
        """A direct FK edge between two tables, or ``None``.

        When several FK edges connect the same pair of tables (e.g. a
        flight's origin and destination airports) the first one in schema
        order is returned; query-specific disambiguation is out of scope
        for the deterministic post-processing, matching the paper.
        """
        fks = self.adjacency.get(table_a.lower(), {}).get(table_b.lower())
        if not fks:
            return None
        return self._orient(fks[0], table_a)

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
        return self._names[table_key.lower()]
