"""JOIN path inference over the schema graph.

Paper Section III-C2: the user rarely mentions bridge tables, so the
post-processing has to connect all tables the decoder selected.  That is a
Steiner tree problem, which we approximate in-repo with Mehlhorn's
2-approximation (the metric-closure minimum spanning tree family of
Zelikovsky's algorithm the paper cites) on unit edge weights: a
breadth-first search replaces Dijkstra, and every tie breaks in schema
order.  Every edge on the resulting tree carries its PK/FK columns so the
SQL renderer can emit complete ``ON`` clauses — without them the
Execution Accuracy metric would see a Cartesian product.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


def steiner_join_tables(graph: SchemaGraph, tables: list[str]) -> set[str]:
    """All tables needed to connect ``tables``, via Steiner-tree approximation.

    Mehlhorn's algorithm on unit edge weights:

    1. one breadth-first search from all terminals at once gives every
       reachable table its nearest terminal (its region), its distance
       and its BFS parent;
    2. every FK edge ``u - v`` between two regions is a bridge of length
       ``dist(u) + 1 + dist(v)``; Kruskal keeps a minimum spanning tree of
       the terminals over the shortest bridge of each pair of regions;
    3. each kept bridge expands into the path from one terminal down the
       BFS parents to ``u``, across to ``v`` and up to the other terminal.

    The expansion is already a tree whose leaves are all terminals: the
    parent chains form one shortest-path tree per region, the bridges
    join the regions along a spanning tree, and every non-terminal on a
    chain has a child or a bridge below it.  So Mehlhorn's second
    spanning tree and the pruning of non-terminal leaves have nothing to
    remove.  Terminals, neighbours and bridges are all visited in schema
    order, so every tie breaks the same way whatever the order of
    ``tables``.  A table outside the terminals' connected component (an
    isolated table, say) is never reached, and a self-referencing FK
    never joins two regions.

    Returns a set of original-cased table names including the terminals.
    """
    adjacency = graph.adjacency
    terminals = [t.lower() for t in tables]
    for terminal in terminals:
        if terminal not in adjacency:
            raise TranslationError(f"table {terminal!r} not in schema graph")
    if len(set(terminals)) <= 1:
        return {graph.original_name(t) for t in terminals}

    # 1. Regions: a breadth-first search from every terminal at once.
    sources = [t for t in adjacency if t in terminals]
    region = {t: t for t in sources}
    dist = {t: 0 for t in sources}
    parent: dict[str, str] = {}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for neighbour in adjacency[node]:
            if neighbour not in region:
                region[neighbour] = region[node]
                dist[neighbour] = dist[node] + 1
                parent[neighbour] = node
                queue.append(neighbour)

    # 2. The shortest bridge per pair of regions, then Kruskal over them.
    bridges: dict[frozenset[str], tuple[int, str, str]] = {}
    for u in adjacency:
        if u not in region:
            continue
        for v in adjacency[u]:
            if region[v] == region[u]:
                continue
            pair = frozenset((region[u], region[v]))
            length = dist[u] + 1 + dist[v]
            if pair not in bridges or length < bridges[pair][0]:
                bridges[pair] = (length, u, v)

    component = {t: t for t in sources}
    kept: list[tuple[str, str]] = []
    for _, u, v in sorted(bridges.values(), key=lambda bridge: bridge[0]):
        joined, absorbed = component[region[u]], component[region[v]]
        if joined == absorbed:
            continue
        for terminal, label in component.items():
            if label == absorbed:
                component[terminal] = joined
        kept.append((u, v))
    if len(kept) < len(sources) - 1:
        raise TranslationError(
            f"tables {tables!r} cannot be connected by join paths"
        )

    # 3. Each kept bridge's path: its two ends up the BFS parents.
    needed = set(sources)
    for end in (end for bridge in kept for end in bridge):
        while end not in needed:
            needed.add(end)
            end = parent[end]
    return {graph.original_name(node) for node in needed}


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
            ordered.append(graph.original_name(key) if key in graph.adjacency else table)

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
