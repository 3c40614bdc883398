"""The in-repo join planner against the networkx planner it replaced.

``steiner_join_tables`` used to call networkx's ``steiner_tree`` (its
default method: Mehlhorn).  ``reference_steiner_join_tables`` below is
that code, kept as the reference: every corpus schema and three pinned
schemas (an isolated table, a self-referencing FK, a cycle) must plan
exactly as it did.  A Hypothesis property then holds the planner to the
Steiner contract on random multigraphs with cycles and self-loops.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.schema.joins as joins
from repro.errors import TranslationError
from repro.schema import (
    Column,
    ForeignKey,
    Schema,
    SchemaGraph,
    Table,
    plan_joins,
    steiner_join_tables,
)
from repro.spider.domains import DOMAIN_SPECS, build_schema


@pytest.fixture(scope="module")
def reference():
    """The networkx-based ``steiner_join_tables`` this module replaced."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.approximation import steiner_tree

    def reference_steiner_join_tables(graph: SchemaGraph, tables: list[str]) -> set[str]:
        multigraph = nx.MultiGraph()
        for table in graph.schema.tables:
            multigraph.add_node(table.name.lower(), label=table.name)
        for fk in graph.schema.foreign_keys:
            multigraph.add_edge(
                fk.source_table.lower(), fk.target_table.lower(), fk=fk, weight=1.0
            )
        terminals = [t.lower() for t in tables]
        for terminal in terminals:
            if terminal not in multigraph:
                raise TranslationError(f"table {terminal!r} not in schema graph")
        if len(set(terminals)) <= 1:
            return {graph.original_name(t) for t in terminals}
        terminal_set = set(terminals)
        component: set[str] | None = None
        for nodes in nx.connected_components(multigraph):
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
                multigraph.subgraph(component), terminal_set, weight="weight"
            )
        except Exception as exc:
            raise TranslationError(
                f"tables {tables!r} cannot be connected by join paths"
            ) from exc
        if not all(t in tree for t in set(terminals)):
            raise TranslationError(
                f"tables {tables!r} cannot be connected by join paths"
            )
        return {graph.original_name(node) for node in tree.nodes}

    return reference_steiner_join_tables


def _plan(graph: SchemaGraph, tables: list[str], steiner=None):
    """``plan_joins``'s plan, or its error message, under ``steiner``."""
    with mock.patch.object(joins, "steiner_join_tables", steiner or steiner_join_tables):
        try:
            return plan_joins(graph, tables)
        except TranslationError as exc:
            return str(exc)


def _assert_plans_like_reference(schema: Schema, reference) -> None:
    graph = SchemaGraph(schema)
    names = [table.name for table in schema.tables]
    for size in range(1, min(4, len(names)) + 1):
        for tables in itertools.permutations(names, size):
            assert _plan(graph, list(tables)) == _plan(graph, list(tables), reference), tables


def _table(name: str, *columns: str) -> Table:
    return Table(name, tuple(Column(c, name) for c in ("id", *columns)))


def _isolated_schema() -> Schema:
    """Fig. 1's pets schema plus a table no FK reaches."""
    return Schema(
        "isolated",
        [
            _table("student"), _table("pet"), _table("has_pet", "stuid", "petid"),
            _table("audit_log"),
        ],
        [
            ForeignKey("has_pet", "stuid", "student", "id"),
            ForeignKey("has_pet", "petid", "pet", "id"),
        ],
    )


def _self_reference_schema() -> Schema:
    return Schema(
        "company",
        [
            _table("department"),
            _table("employee", "manager_id", "dept_id"),
            _table("project", "dept_id"),
        ],
        [
            ForeignKey("employee", "manager_id", "employee", "id"),
            ForeignKey("employee", "dept_id", "department", "id"),
            ForeignKey("project", "dept_id", "department", "id"),
        ],
    )


def _cycle_schema() -> Schema:
    """a-b-c and a-d-c, plus e->b and e->d."""
    return Schema(
        "cycle",
        [
            _table("a"), _table("b", "a_id", "c_id"), _table("c"),
            _table("d", "a_id", "c_id"), _table("e", "b_id", "d_id"),
        ],
        [
            ForeignKey("b", "a_id", "a", "id"),
            ForeignKey("b", "c_id", "c", "id"),
            ForeignKey("d", "a_id", "a", "id"),
            ForeignKey("d", "c_id", "c", "id"),
            ForeignKey("e", "b_id", "b", "id"),
            ForeignKey("e", "d_id", "d", "id"),
        ],
    )


def _edge_schema(size: int, edges: list[tuple[int, int]]) -> Schema:
    """Tables ``t0``..``t<size-1>``, one FK ``t<i>.ref<k> -> t<j>.id`` per edge."""
    refs: dict[int, list[str]] = {i: [] for i in range(size)}
    foreign_keys = []
    for k, (source, target) in enumerate(edges):
        refs[source].append(f"ref{k}")
        foreign_keys.append(ForeignKey(f"t{source}", f"ref{k}", f"t{target}", "id"))
    tables = [_table(f"t{i}", *refs[i]) for i in range(size)]
    return Schema("edges", tables, foreign_keys)


@pytest.mark.parametrize("domain", sorted(DOMAIN_SPECS))
def test_corpus_schemas_plan_like_reference(domain, reference):
    _assert_plans_like_reference(build_schema(DOMAIN_SPECS[domain]), reference)


@pytest.mark.parametrize(
    "schema", [_isolated_schema(), _self_reference_schema(), _cycle_schema()],
    ids=lambda schema: schema.name,
)
def test_pinned_schemas_plan_like_reference(schema, reference):
    _assert_plans_like_reference(schema, reference)


def test_isolated_table_does_not_poison_planning():
    graph = SchemaGraph(_isolated_schema())
    assert plan_joins(graph, ["student", "pet"]).tables == ("student", "has_pet", "pet")
    assert _plan(graph, ["student", "audit_log"]) == (
        "tables ['student', 'audit_log'] cannot be connected by join paths"
    )


def test_self_referencing_fk_is_ignored():
    graph = SchemaGraph(_self_reference_schema())
    plan = plan_joins(graph, ["project", "employee"])
    assert plan.tables == ("project", "department", "employee")
    assert [edge.right_column for edge in plan.edges] == ["id", "dept_id"]


def test_cycle_tie_breaks_in_schema_order():
    graph = SchemaGraph(_cycle_schema())
    assert plan_joins(graph, ["a", "c"]).tables == ("a", "b", "c")
    assert plan_joins(graph, ["c", "a"]).tables == ("c", "b", "a")


def test_terminal_order_does_not_matter():
    # t2 reaches t3 and t4 through t5 or t7 at equal cost; a search seeded
    # in mention order would let the first terminal claim the tie.
    graph = SchemaGraph(_edge_schema(8, [(0, 2), (0, 6), (2, 5), (2, 7), (3, 4), (3, 7), (4, 5)]))
    for terminals in itertools.permutations(["t6", "t2", "t3", "t4"]):
        assert steiner_join_tables(graph, list(terminals)) == {"t0", "t2", "t3", "t4", "t6", "t7"}


# ------------------------------------------------------------- property


@st.composite
def multigraph_schemas(draw):
    """A schema of 1-8 tables whose FKs may repeat, loop and close cycles."""
    size = draw(st.integers(1, 8))
    return _edge_schema(size, draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=12,
    )))


def _neighbours(schema: Schema) -> dict[str, set[str]]:
    links: dict[str, set[str]] = {table.name: set() for table in schema.tables}
    for fk in schema.foreign_keys:
        if fk.source_table != fk.target_table:
            links[fk.source_table].add(fk.target_table)
            links[fk.target_table].add(fk.source_table)
    return links


def _connected(nodes: set[str], links: dict[str, set[str]]) -> bool:
    start = next(iter(nodes))
    seen, frontier = {start}, [start]
    while frontier:
        for neighbour in links[frontier.pop()] & nodes:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen == nodes


def _optimum(terminals: set[str], links: dict[str, set[str]]) -> int | None:
    """Fewest tables in a connected set holding every terminal (brute force)."""
    others = sorted(set(links) - terminals)
    for extra in range(len(others) + 1):
        for bridge in itertools.combinations(others, extra):
            if _connected(terminals | set(bridge), links):
                return len(terminals) + extra
    return None


@given(schema=multigraph_schemas(), data=st.data())
def test_planner_is_a_steiner_2_approximation(schema, data):
    names = [table.name for table in schema.tables]
    terminals = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    graph = SchemaGraph(schema)
    links = _neighbours(schema)
    optimum = _optimum(set(terminals), links)
    if optimum is None:
        with pytest.raises(TranslationError, match="cannot be connected"):
            steiner_join_tables(graph, terminals)
        return

    needed = steiner_join_tables(graph, terminals)
    assert set(terminals) <= needed
    assert _connected(needed, links)
    for table in needed - set(terminals):
        assert len(links[table] & needed) >= 2, f"non-terminal leaf {table}"
    assert len(needed) - 1 <= 2 * (optimum - 1)
    assert steiner_join_tables(graph, data.draw(st.permutations(terminals))) == needed

    plan = plan_joins(graph, terminals)
    assert plan.tables[0] == terminals[0]
    assert set(plan.tables) == needed
    assert len(plan.edges) == len(plan.tables) - 1
