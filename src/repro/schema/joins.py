"""JOIN path inference over the schema graph.

Paper Section III-C2: the user rarely mentions bridge tables, so the
post-processing has to connect all tables the decoder selected.  For two
tables the shortest path (Dijkstra) suffices; for three or more tables the
problem is a Steiner tree, which we solve with the standard 2-approximation
(metric-closure minimum spanning tree, the same family as Zelikovsky's
algorithm the paper cites).  Every edge on the resulting tree carries its
PK/FK columns so the SQL renderer can emit complete ``ON`` clauses —
without them the Execution Accuracy metric would see a Cartesian product.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
from networkx.algorithms.approximation import steiner_tree

from repro.errors import TranslationError
from repro.schema.graph import JoinEdge, SchemaGraph


@dataclass(frozen=True)
class JoinPlan:
    """An ordered join plan.

    Attributes:
        tables: every table that participates in the FROM clause, in join
            order (the first is the anchor of the FROM clause); includes
            bridge tables that the decoder never selected.
        edges: one :class:`JoinEdge` per JOIN keyword, aligned with
            ``tables[1:]`` — ``edges[i]`` connects ``tables[i + 1]`` to a
            table already joined.
    """

    tables: tuple[str, ...]
    edges: tuple[JoinEdge, ...]


def shortest_join_path(graph: SchemaGraph, table_a: str, table_b: str) -> list[str]:
    """Shortest table path between two tables (Dijkstra over FK edges).

    Returns original-cased table names, endpoints included.
    """
    a, b = table_a.lower(), table_b.lower()
    try:
        path = nx.shortest_path(graph.graph, a, b, weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise TranslationError(
            f"no join path between {table_a!r} and {table_b!r}"
        ) from exc
    return [graph.original_name(node) for node in path]


def steiner_join_tables(graph: SchemaGraph, tables: list[str]) -> set[str]:
    """All tables needed to connect ``tables``, via Steiner-tree approximation.

    Returns a set of original-cased table names including the terminals.
    """
    terminals = [t.lower() for t in tables]
    for terminal in terminals:
        if terminal not in graph.graph:
            raise TranslationError(f"table {terminal!r} not in schema graph")
    if len(set(terminals)) <= 1:
        return {graph.original_name(t) for t in terminals}
    # Restrict to the connected component holding the terminals: the
    # metric closure inside steiner_tree spans the WHOLE graph, so one
    # unrelated isolated table elsewhere in the schema would otherwise
    # poison planning for every multi-table query (KeyError from the
    # closure, surfacing as "cannot be connected").
    terminal_set = set(terminals)
    component: set[str] | None = None
    for nodes in nx.connected_components(graph.graph):
        if terminal_set & nodes:
            if not terminal_set <= nodes:
                raise TranslationError(
                    f"tables {tables!r} cannot be connected by join paths"
                )
            component = nodes
            break
    if component is None:
        raise TranslationError(
            f"tables {tables!r} cannot be connected by join paths"
        )
    try:
        tree = steiner_tree(
            graph.graph.subgraph(component), terminal_set, weight="weight"
        )
    except Exception as exc:  # networkx raises bare exceptions on disconnection
        raise TranslationError(
            f"tables {tables!r} cannot be connected by join paths"
        ) from exc
    if not all(t in tree for t in set(terminals)):
        raise TranslationError(
            f"tables {tables!r} cannot be connected by join paths"
        )
    return {graph.original_name(node) for node in tree.nodes}


def plan_joins(graph: SchemaGraph, tables: list[str]) -> JoinPlan:
    """Build an ordered :class:`JoinPlan` connecting all ``tables``.

    The plan starts from the first requested table, then greedily attaches
    the remaining tables of the (Steiner-completed) set one at a time; each
    attached table must have a direct FK edge to some already-joined table,
    which the Steiner tree guarantees exists.

    Raises:
        TranslationError: if the tables cannot be connected.
    """
    if not tables:
        raise TranslationError("cannot plan joins for an empty table set")

    # Deduplicate while preserving first-mention order.
    ordered: list[str] = []
    seen: set[str] = set()
    for table in tables:
        key = table.lower()
        if key not in seen:
            seen.add(key)
            ordered.append(graph.original_name(key) if key in graph.graph else table)

    if len(ordered) == 1:
        return JoinPlan(tables=(ordered[0],), edges=())

    needed = steiner_join_tables(graph, ordered)
    joined: list[str] = [ordered[0]]
    joined_keys = {ordered[0].lower()}
    edges: list[JoinEdge] = []
    remaining = {t for t in needed if t.lower() not in joined_keys}

    while remaining:
        attached = False
        # Prefer attaching requested tables in their mention order, then
        # bridge tables; this keeps FROM clauses stable across runs.
        candidates = [t for t in ordered if t in remaining] + sorted(
            t for t in remaining if t not in ordered
        )
        for candidate in candidates:
            for existing in joined:
                edge = graph.edge_between(existing, candidate)
                if edge is not None:
                    edges.append(edge)
                    joined.append(candidate)
                    joined_keys.add(candidate.lower())
                    remaining.discard(candidate)
                    attached = True
                    break
            if attached:
                break
        if not attached:
            raise TranslationError(
                f"could not attach tables {sorted(remaining)!r} to the join plan"
            )
    return JoinPlan(tables=tuple(joined), edges=tuple(edges))
