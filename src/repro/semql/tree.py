"""SemQL 2.0 trees and their action-sequence form.

A :class:`SemQLNode` is either

* a grammar node: ``action_type`` + ``production`` + children, or
* a pointer leaf (``C``/``T``/``V``) carrying its payload: a resolved
  :class:`~repro.schema.model.Column`, a table name, or a literal value.

Trees convert losslessly to and from pre-order action sequences; the
decoder consumes and produces such sequences under the grammar's dynamic
legal-action constraint (:class:`GrammarState`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GrammarError, SemQLError
from repro.schema.model import Column
from repro.semql.actions import (
    ActionType,
    GrammarAction,
    POINTER_TYPES,
    children_of,
    production_index,
    production_name,
)

_A_NONE = production_index(ActionType.A, "none")


@dataclass
class SemQLNode:
    """One node of a SemQL 2.0 tree."""

    action_type: ActionType
    production: int | None = None
    children: list["SemQLNode"] = field(default_factory=list)
    column: Column | None = None      # payload for C leaves
    table: str | None = None          # payload for T leaves
    value: object | None = None       # payload for V leaves

    def __post_init__(self) -> None:
        is_pointer = self.action_type in POINTER_TYPES
        if is_pointer and self.production is not None:
            raise SemQLError(
                f"pointer node {self.action_type.value} cannot have a production"
            )
        if not is_pointer and self.production is None:
            raise SemQLError(
                f"grammar node {self.action_type.value} requires a production"
            )

    # --------------------------------------------------------- conveniences

    @property
    def name(self) -> str:
        """Readable label (``Filter.eq_v``, ``C[student.age]`` ...)."""
        if self.action_type is ActionType.C:
            payload = self.column.qualified_name if self.column else "?"
            return f"C[{payload}]"
        if self.action_type is ActionType.T:
            return f"T[{self.table or '?'}]"
        if self.action_type is ActionType.V:
            return f"V[{self.value!r}]"
        assert self.production is not None
        return production_name(self.action_type, self.production)

    def is_pointer(self) -> bool:
        return self.action_type in POINTER_TYPES

    def validate(self) -> None:
        """Check the node and its subtree against the grammar.

        Raises:
            SemQLError: on arity or child-type violations, or when a
                pointer leaf is missing its payload.
        """
        if self.is_pointer():
            if self.children:
                raise SemQLError(f"pointer node {self.name} cannot have children")
            if self.action_type is ActionType.C and self.column is None:
                raise SemQLError("C leaf has no column payload")
            if self.action_type is ActionType.T and self.table is None:
                raise SemQLError("T leaf has no table payload")
            if self.action_type is ActionType.V and self.value is None:
                raise SemQLError("V leaf has no value payload")
            return
        assert self.production is not None
        expected = children_of(self.action_type, self.production)
        actual = tuple(child.action_type for child in self.children)
        if expected != actual:
            raise SemQLError(
                f"{self.name} expects children {[t.value for t in expected]}, "
                f"got {[t.value for t in actual]}"
            )
        for child in self.children:
            child.validate()

    def walk(self):
        """Yield every node of the subtree in pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def pointer_leaves(self, action_type: ActionType) -> list["SemQLNode"]:
        """All pointer leaves of the given type, in pre-order."""
        return [node for node in self.walk() if node.action_type is action_type]

    def to_sexpr(self) -> str:
        """Compact s-expression rendering, for logs and tests."""
        if self.is_pointer():
            return self.name
        inner = " ".join(child.to_sexpr() for child in self.children)
        return f"({self.name} {inner})" if inner else f"({self.name})"

    def __str__(self) -> str:
        return self.to_sexpr()


# --------------------------------------------------------------------------
# Pre-order action sequences


def tree_to_actions(tree: SemQLNode) -> list[SemQLNode]:
    """The pre-order node sequence (each node *is* its action)."""
    tree.validate()
    return list(tree.walk())


def actions_to_tree(actions: list[SemQLNode]) -> SemQLNode:
    """Rebuild a tree from a pre-order node sequence.

    The input nodes' ``children`` lists are replaced; pass copies if the
    originals must stay intact.

    Raises:
        SemQLError: if the sequence does not form exactly one valid tree.
    """
    if not actions:
        raise SemQLError("empty action sequence")

    iterator = iter(actions)

    def build(expected: ActionType) -> SemQLNode:
        try:
            node = next(iterator)
        except StopIteration as exc:
            raise SemQLError("action sequence ended before the tree was complete") from exc
        if node.action_type is not expected:
            raise SemQLError(
                f"expected a {expected.value} action, got {node.name}"
            )
        if node.is_pointer():
            node.children = []
            return node
        assert node.production is not None
        node.children = [
            build(child_type)
            for child_type in children_of(node.action_type, node.production)
        ]
        return node

    root = build(actions[0].action_type)
    leftover = next(iterator, None)
    if leftover is not None:
        raise SemQLError(f"trailing actions after complete tree: {leftover.name}")
    return root


class GrammarState:
    """Tracks which action types are legal while decoding in pre-order.

    The decoder asks :meth:`expected_type` before each step; for grammar
    types it must pick one of that type's productions, for pointer types it
    must emit a pointer.  :meth:`advance` pushes the chosen production's
    children.  This realizes the paper's "options dynamically change
    depending on the preceding node in the SemQL 2.0 tree".
    """

    def __init__(self, root: ActionType = ActionType.Z):
        # stack entries: (non-terminal, inside-a-sub-query flag, tag)
        # tag marks the left/right branches of a compound query so the
        # right branch's SELECT arity can be constrained to the left's,
        # and a filter's operand A ("operand") and that A's un-aggregated
        # column ("bare_operand").
        self._stack: list[tuple[ActionType, bool, str | None]] = [
            (root, False, None)
        ]
        self._left_arity: int | None = None

    @property
    def finished(self) -> bool:
        return not self._stack

    @property
    def pending(self) -> int:
        """Number of non-terminals still waiting for expansion."""
        return len(self._stack)

    def clone(self) -> "GrammarState":
        """An independent copy (used by beam search to fork hypotheses)."""
        copy = GrammarState.__new__(GrammarState)
        copy._stack = list(self._stack)
        copy._left_arity = self._left_arity
        return copy

    def expected_type(self) -> ActionType:
        if self.finished:
            raise GrammarError("decoding already finished")
        return self._stack[-1][0]

    def expected_in_subquery(self) -> bool:
        """Whether the expected non-terminal lives inside a sub-query.

        Sub-query SELECTs must stay scalar (one projection) for the
        generated SQL to be executable as a comparison operand.
        """
        if self.finished:
            raise GrammarError("decoding already finished")
        return self._stack[-1][1]

    def expected_in_compound_branch(self) -> bool:
        """Whether the expected non-terminal is a direct compound branch.

        SQLite forbids ORDER BY / LIMIT on the individual branches of a
        compound query, so those R productions must be masked there.
        """
        if self.finished:
            raise GrammarError("decoding already finished")
        return self._stack[-1][2] in ("left", "right")

    def required_select_arity(self) -> int | None:
        """Projection count the expected SELECT must have, if constrained.

        The right branch of a compound query (UNION/INTERSECT/EXCEPT) must
        project as many columns as the left branch did.
        """
        if self.finished:
            raise GrammarError("decoding already finished")
        _type, _sub, tag = self._stack[-1]
        if tag == "right":
            return self._left_arity
        return None

    def expects_bare_filter_column(self) -> bool:
        """Whether the expected C is a filter operand without aggregate.

        That is the C of ``Filter → A(none)``: a bare ``*`` there renders
        as ``WHERE * = ...``, which is not SQL, so the decoders never
        point at ``*`` in this position (``count(*)`` in a HAVING stays
        legal, as does ``*`` in a projection).
        """
        if self.finished:
            raise GrammarError("decoding already finished")
        return self._stack[-1][2] == "bare_operand"

    def advance_grammar(self, action: GrammarAction) -> None:
        """Consume a grammar action (must expand the expected type)."""
        if self.finished:
            raise GrammarError("decoding already finished")
        expected, in_subquery, tag = self._stack[-1]
        if action.action_type is not expected:
            raise GrammarError(
                f"expected a {expected.value} action, got {action.name}"
            )
        if action.action_type is ActionType.SELECT and tag == "left":
            self._left_arity = len(action.children)
        self._stack.pop()

        compound = (
            action.action_type is ActionType.Z and len(action.children) == 2
        )
        r_seen = 0
        for child in reversed(action.children):
            child_in_subquery = in_subquery or (
                action.action_type is ActionType.FILTER and child is ActionType.R
            )
            child_tag: str | None = None
            if compound and child is ActionType.R:
                # children are pushed reversed: the first pushed is 'right'
                child_tag = "right" if r_seen == 0 else "left"
                r_seen += 1
            elif (
                action.action_type is ActionType.R
                and child is ActionType.SELECT
                and tag in ("left", "right")
            ):
                child_tag = tag
            elif action.action_type is ActionType.FILTER and child is ActionType.A:
                child_tag = "operand"
            elif (
                tag == "operand"
                and action.production == _A_NONE
                and child is ActionType.C
            ):
                child_tag = "bare_operand"
            self._stack.append((child, child_in_subquery, child_tag))

    def advance_pointer(self, action_type: ActionType) -> None:
        """Consume a pointer step of the expected pointer type."""
        expected = self.expected_type()
        if action_type is not expected:
            raise GrammarError(
                f"expected a {expected.value} pointer, got {action_type.value}"
            )
        if action_type not in POINTER_TYPES:
            raise GrammarError(f"{action_type.value} is not a pointer type")
        self._stack.pop()
