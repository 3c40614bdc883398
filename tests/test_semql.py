"""Unit tests for SemQL 2.0: grammar, trees, SQL round-trips."""

from __future__ import annotations

import pytest

from repro.errors import GrammarError, SemQLError, TranslationError
from repro.schema import SchemaGraph
from repro.semql import (
    ActionType,
    GRAMMAR_ACTION_LIST,
    GrammarAction,
    GrammarState,
    NUM_GRAMMAR_ACTIONS,
    SemQLNode,
    actions_for_type,
    actions_to_tree,
    children_of,
    num_productions,
    production_index,
    production_name,
    query_to_semql,
    semql_to_query,
    tree_to_actions,
)
from repro.sql import SqlRenderer, parse_sql


class TestGrammar:
    def test_value_extension_present(self):
        # SemQL 2.0's contribution over SemQL 1.0: the V non-terminal.
        assert ActionType.V in children_of(
            ActionType.FILTER, production_index(ActionType.FILTER, "eq_v")
        )
        assert ActionType.V in children_of(
            ActionType.SUPERLATIVE, production_index(ActionType.SUPERLATIVE, "most")
        )

    def test_between_has_two_values(self):
        children = children_of(
            ActionType.FILTER, production_index(ActionType.FILTER, "between_v")
        )
        assert children == (ActionType.A, ActionType.V, ActionType.V)

    def test_global_action_space_consistent(self):
        assert NUM_GRAMMAR_ACTIONS == len(GRAMMAR_ACTION_LIST)
        assert len(set(GRAMMAR_ACTION_LIST)) == NUM_GRAMMAR_ACTIONS

    def test_actions_for_type_partition(self):
        # every grammar action belongs to exactly one type bucket
        seen = []
        for action_type in (
            ActionType.Z, ActionType.R, ActionType.SELECT, ActionType.ORDER,
            ActionType.SUPERLATIVE, ActionType.FILTER, ActionType.A,
        ):
            seen.extend(actions_for_type(action_type))
        assert sorted(seen) == list(range(NUM_GRAMMAR_ACTIONS))

    def test_pointer_types_have_no_productions(self):
        for pointer in (ActionType.C, ActionType.T, ActionType.V):
            assert num_productions(pointer) == 0

    def test_production_name_roundtrip(self):
        for action_type in (ActionType.Z, ActionType.FILTER, ActionType.A):
            for production in range(num_productions(action_type)):
                name = production_name(action_type, production).split(".", 1)[1]
                assert production_index(action_type, name) == production

    def test_invalid_production_raises(self):
        with pytest.raises(GrammarError):
            GrammarAction(ActionType.Z, 99)
        with pytest.raises(GrammarError):
            GrammarAction(ActionType.C, 0)


class TestGrammarState:
    def test_full_walkthrough(self):
        state = GrammarState()
        assert state.expected_type() is ActionType.Z
        state.advance_grammar(GrammarAction(ActionType.Z, production_index(ActionType.Z, "single")))
        assert state.expected_type() is ActionType.R
        state.advance_grammar(GrammarAction(ActionType.R, production_index(ActionType.R, "select")))
        assert state.expected_type() is ActionType.SELECT
        state.advance_grammar(GrammarAction(ActionType.SELECT, 0))  # n1
        assert state.expected_type() is ActionType.A
        state.advance_grammar(GrammarAction(ActionType.A, production_index(ActionType.A, "none")))
        assert state.expected_type() is ActionType.C
        state.advance_pointer(ActionType.C)
        assert state.expected_type() is ActionType.T
        state.advance_pointer(ActionType.T)
        assert state.finished

    def test_wrong_type_raises(self):
        state = GrammarState()
        with pytest.raises(GrammarError):
            state.advance_grammar(GrammarAction(ActionType.R, 0))

    def test_pointer_when_grammar_expected_raises(self):
        state = GrammarState()
        with pytest.raises(GrammarError):
            state.advance_pointer(ActionType.C)

    def test_finished_state_raises(self):
        state = GrammarState(root=ActionType.C)
        state.advance_pointer(ActionType.C)
        with pytest.raises(GrammarError):
            state.expected_type()

    @staticmethod
    def _walk(*productions: tuple[ActionType, str]) -> GrammarState:
        state = GrammarState()
        for action_type, name in productions:
            state.advance_grammar(
                GrammarAction(action_type, production_index(action_type, name))
            )
        return state

    def test_star_forbidden_as_bare_filter_operand(self):
        state = self._walk(
            (ActionType.Z, "single"), (ActionType.R, "select_filter"),
            (ActionType.SELECT, "n1"), (ActionType.A, "none"),
        )
        state.advance_pointer(ActionType.C)
        state.advance_pointer(ActionType.T)
        for action_type, name in [(ActionType.FILTER, "eq_v"), (ActionType.A, "none")]:
            assert not state.expects_bare_filter_column()
            state.advance_grammar(
                GrammarAction(action_type, production_index(action_type, name))
            )
        assert state.expected_type() is ActionType.C
        assert state.expects_bare_filter_column()  # WHERE * = ... is not SQL
        state.advance_pointer(ActionType.C)
        assert state.expected_type() is ActionType.T
        assert not state.expects_bare_filter_column()
        # Survives cloning (beam search forks states).
        nested = self._walk(
            (ActionType.Z, "single"), (ActionType.R, "select_filter"),
            (ActionType.SELECT, "n1"), (ActionType.A, "count"),
        )
        nested.advance_pointer(ActionType.C)
        nested.advance_pointer(ActionType.T)
        for action_type, name in [
            (ActionType.FILTER, "and"), (ActionType.FILTER, "gt_v"),
            (ActionType.A, "none"),
        ]:
            nested.advance_grammar(
                GrammarAction(action_type, production_index(action_type, name))
            )
        assert nested.clone().expects_bare_filter_column()

    def test_star_allowed_under_count_in_a_filter(self):
        state = self._walk(
            (ActionType.Z, "single"), (ActionType.R, "select_filter"),
            (ActionType.SELECT, "n1"), (ActionType.A, "none"),
        )
        state.advance_pointer(ActionType.C)
        state.advance_pointer(ActionType.T)
        for action_type, name in [(ActionType.FILTER, "gt_v"), (ActionType.A, "count")]:
            state.advance_grammar(
                GrammarAction(action_type, production_index(action_type, name))
            )
        assert state.expected_type() is ActionType.C
        assert not state.expects_bare_filter_column()  # HAVING count(*) > ...

    def test_star_allowed_in_a_plain_projection(self):
        state = self._walk(
            (ActionType.Z, "single"), (ActionType.R, "select"),
            (ActionType.SELECT, "n1"), (ActionType.A, "none"),
        )
        assert state.expected_type() is ActionType.C
        assert not state.expects_bare_filter_column()  # SELECT * ...


class TestTreeSerialization:
    def _simple_tree(self, pets_schema):
        query = parse_sql("SELECT name FROM student WHERE age > 20", pets_schema)
        return query_to_semql(query, pets_schema)

    def test_actions_roundtrip(self, pets_schema):
        tree = self._simple_tree(pets_schema)
        actions = tree_to_actions(tree)
        rebuilt = actions_to_tree(actions)
        assert rebuilt.to_sexpr() == tree.to_sexpr()

    def test_validate_rejects_wrong_arity(self):
        node = SemQLNode(ActionType.Z, production_index(ActionType.Z, "single"))
        with pytest.raises(SemQLError):
            node.validate()

    def test_pointer_payload_required(self):
        node = SemQLNode(ActionType.V)
        with pytest.raises(SemQLError):
            node.validate()

    def test_empty_sequence_raises(self):
        with pytest.raises(SemQLError):
            actions_to_tree([])

    def test_trailing_actions_raise(self, pets_schema):
        tree = self._simple_tree(pets_schema)
        actions = tree_to_actions(tree)
        with pytest.raises(SemQLError):
            actions_to_tree(actions + [actions[-1]])

    def test_walk_preorder(self, pets_schema):
        tree = self._simple_tree(pets_schema)
        nodes = list(tree.walk())
        assert nodes[0].action_type is ActionType.Z
        assert nodes[1].action_type is ActionType.R

    def test_pointer_leaves(self, pets_schema):
        tree = self._simple_tree(pets_schema)
        values = tree.pointer_leaves(ActionType.V)
        assert len(values) == 1
        assert values[0].value == 20


ROUNDTRIP_QUERIES = [
    "SELECT count(*) FROM student",
    "SELECT name FROM student WHERE home_country = 'France' AND age > 20",
    "SELECT DISTINCT home_country FROM student",
    "SELECT name, age FROM student WHERE sex = 'F'",
    "SELECT avg(weight) FROM pet",
    "SELECT name FROM student ORDER BY age DESC",
    "SELECT name FROM student ORDER BY age ASC LIMIT 3",
    "SELECT home_country, count(*) FROM student GROUP BY home_country",
    "SELECT home_country FROM student GROUP BY home_country HAVING count(*) > 1",
    "SELECT name FROM student WHERE stuid IN (SELECT stuid FROM has_pet)",
    "SELECT name FROM student WHERE stuid NOT IN (SELECT stuid FROM has_pet)",
    "SELECT name FROM student WHERE age > (SELECT avg(age) FROM student)",
    "SELECT name FROM student WHERE age BETWEEN 18 AND 25",
    "SELECT name FROM student WHERE name LIKE '%a%'",
    "SELECT name FROM student WHERE sex = 'F' UNION SELECT name FROM student WHERE age > 24",
    "SELECT name FROM student WHERE sex = 'F' INTERSECT SELECT name FROM student WHERE age > 20",
    "SELECT name FROM student WHERE sex = 'F' EXCEPT SELECT name FROM student WHERE age > 20",
]


class TestSqlRoundTrips:
    @pytest.mark.parametrize("sql", ROUNDTRIP_QUERIES)
    def test_execution_equivalent_roundtrip(self, sql, pets_db, pets_graph):
        """SQL -> SemQL -> SQL must preserve execution results."""
        schema = pets_db.schema
        query = parse_sql(sql, schema)
        tree = query_to_semql(query, schema)
        tree.validate()
        rebuilt = semql_to_query(tree, schema)
        renderer = SqlRenderer(pets_graph)
        original_rows = sorted(map(tuple, pets_db.execute(sql)))
        rebuilt_rows = sorted(map(tuple, pets_db.execute(renderer.render(rebuilt))))
        assert rebuilt_rows == original_rows

    def test_group_by_reinferred(self, pets_schema):
        sql = "SELECT home_country, count(*) FROM student GROUP BY home_country"
        tree = query_to_semql(parse_sql(sql, pets_schema), pets_schema)
        rebuilt = semql_to_query(tree, pets_schema)
        assert rebuilt.body.group_by  # GROUP BY was dropped and re-inferred

    def test_superlative_maps_to_order_limit(self, pets_schema):
        sql = "SELECT name FROM student ORDER BY age DESC LIMIT 2"
        tree = query_to_semql(parse_sql(sql, pets_schema), pets_schema)
        names = [n.name for n in tree.walk()]
        assert "Superlative.most" in names
        rebuilt = semql_to_query(tree, pets_schema)
        assert rebuilt.body.limit == 2

    def test_limit_without_order_rejected(self, pets_schema):
        query = parse_sql("SELECT name FROM student LIMIT 3", pets_schema)
        with pytest.raises(SemQLError):
            query_to_semql(query, pets_schema)

    def test_where_having_merge_and_split(self, pets_schema):
        sql = (
            "SELECT home_country FROM student WHERE age > 18 "
            "GROUP BY home_country HAVING count(*) > 1"
        )
        tree = query_to_semql(parse_sql(sql, pets_schema), pets_schema)
        rebuilt = semql_to_query(tree, pets_schema)
        assert rebuilt.body.where is not None
        assert rebuilt.body.having is not None

    def test_bad_limit_value_raises(self, pets_schema):
        sql = "SELECT name FROM student ORDER BY age DESC LIMIT 2"
        tree = query_to_semql(parse_sql(sql, pets_schema), pets_schema)
        superlative = next(
            n for n in tree.walk() if n.action_type is ActionType.SUPERLATIVE
        )
        superlative.children[0].value = "not a number"
        with pytest.raises(TranslationError):
            semql_to_query(tree, pets_schema)

    def test_qualified_star_count_roundtrip(self, pets_db, pets_graph):
        """count(T2.*) (the paper's Fig. 1 form) round-trips to an
        executable COUNT(*) that still ranges over the join."""
        schema = pets_db.schema
        sql = (
            "SELECT count(T2.*) FROM student AS T1 JOIN has_pet AS T2 ON "
            "T1.stuid = T2.stuid WHERE T1.home_country = 'France'"
        )
        tree = query_to_semql(parse_sql(sql, schema), schema)
        rebuilt = semql_to_query(tree, schema)
        rendered = SqlRenderer(pets_graph).render(rebuilt)
        # Ann is the only French student with a pet -> count 1
        assert pets_db.execute(rendered) == [(1,)]

    def test_star_binds_unreferenced_table(self, pets_schema):
        """count(*) over a join keeps the join table in SemQL scope."""
        sql = (
            "SELECT count(*) FROM student JOIN has_pet "
            "ON student.stuid = has_pet.stuid WHERE student.age > 20"
        )
        tree = query_to_semql(parse_sql(sql, pets_schema), pets_schema)
        tables = {n.table for n in tree.pointer_leaves(ActionType.T)}
        assert "has_pet" in tables
