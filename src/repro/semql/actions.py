"""SemQL 2.0 action inventory (paper Fig. 2).

SemQL 2.0 is IRNet's SemQL grammar extended with the value non-terminal
``V``.  A SemQL tree is produced action-by-action in pre-order: each
grammar action picks a *production* for the current non-terminal and pushes
its children; the leaf non-terminals ``C`` (column), ``T`` (table) and
``V`` (value) are filled by pointer networks instead of a production
choice.

The module defines the action types, the production tables (including each
production's child non-terminals), and a global enumeration of grammar
actions used as the decoder's output vocabulary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import GrammarError


class ActionType(enum.Enum):
    """The non-terminals of SemQL 2.0."""

    Z = "Z"              # root: compound operators
    R = "R"              # one SELECT block
    SELECT = "Select"    # projection list
    ORDER = "Order"      # ORDER BY without limit
    SUPERLATIVE = "Superlative"  # ORDER BY ... LIMIT n
    FILTER = "Filter"    # WHERE / HAVING predicates
    A = "A"              # aggregated column
    C = "C"              # column pointer (leaf)
    T = "T"              # table pointer (leaf)
    V = "V"              # value pointer (leaf)  -- the SemQL 2.0 extension


POINTER_TYPES = frozenset({ActionType.C, ActionType.T, ActionType.V})

# Maximum number of projections a Select production can carry.  Spider
# queries use at most 4-5; we allow 4 plus the distinct variants.
MAX_SELECT_ITEMS = 4

# (type, production) -> tuple of child ActionTypes, in left-to-right order.
_Z = ActionType.Z
_R = ActionType.R
_SEL = ActionType.SELECT
_ORD = ActionType.ORDER
_SUP = ActionType.SUPERLATIVE
_F = ActionType.FILTER
_A = ActionType.A
_C = ActionType.C
_T = ActionType.T
_V = ActionType.V

Z_PRODUCTIONS: list[tuple[str, tuple[ActionType, ...]]] = [
    ("intersect", (_R, _R)),
    ("union", (_R, _R)),
    ("except", (_R, _R)),
    ("single", (_R,)),
]

R_PRODUCTIONS: list[tuple[str, tuple[ActionType, ...]]] = [
    ("select", (_SEL,)),
    ("select_filter", (_SEL, _F)),
    ("select_order", (_SEL, _ORD)),
    ("select_superlative", (_SEL, _SUP)),
    ("select_order_filter", (_SEL, _ORD, _F)),
    ("select_superlative_filter", (_SEL, _SUP, _F)),
]

# Select productions: n projections, plain then distinct.
SELECT_PRODUCTIONS: list[tuple[str, tuple[ActionType, ...]]] = [
    (f"n{n}", tuple([_A] * n)) for n in range(1, MAX_SELECT_ITEMS + 1)
] + [
    (f"distinct_n{n}", tuple([_A] * n)) for n in range(1, MAX_SELECT_ITEMS + 1)
]

ORDER_PRODUCTIONS: list[tuple[str, tuple[ActionType, ...]]] = [
    ("asc", (_A,)),
    ("desc", (_A,)),
]

SUPERLATIVE_PRODUCTIONS: list[tuple[str, tuple[ActionType, ...]]] = [
    ("most", (_V, _A)),
    ("least", (_V, _A)),
]

FILTER_PRODUCTIONS: list[tuple[str, tuple[ActionType, ...]]] = [
    ("and", (_F, _F)),
    ("or", (_F, _F)),
    ("eq_v", (_A, _V)),
    ("eq_r", (_A, _R)),
    ("ne_v", (_A, _V)),
    ("ne_r", (_A, _R)),
    ("lt_v", (_A, _V)),
    ("lt_r", (_A, _R)),
    ("gt_v", (_A, _V)),
    ("gt_r", (_A, _R)),
    ("le_v", (_A, _V)),
    ("le_r", (_A, _R)),
    ("ge_v", (_A, _V)),
    ("ge_r", (_A, _R)),
    ("between_v", (_A, _V, _V)),
    ("between_r", (_A, _R)),
    ("like_v", (_A, _V)),
    ("not_like_v", (_A, _V)),
    ("in_r", (_A, _R)),
    ("not_in_r", (_A, _R)),
]

A_PRODUCTIONS: list[tuple[str, tuple[ActionType, ...]]] = [
    ("max", (_C, _T)),
    ("min", (_C, _T)),
    ("count", (_C, _T)),
    ("sum", (_C, _T)),
    ("avg", (_C, _T)),
    ("none", (_C, _T)),
]

PRODUCTIONS: dict[ActionType, list[tuple[str, tuple[ActionType, ...]]]] = {
    ActionType.Z: Z_PRODUCTIONS,
    ActionType.R: R_PRODUCTIONS,
    ActionType.SELECT: SELECT_PRODUCTIONS,
    ActionType.ORDER: ORDER_PRODUCTIONS,
    ActionType.SUPERLATIVE: SUPERLATIVE_PRODUCTIONS,
    ActionType.FILTER: FILTER_PRODUCTIONS,
    ActionType.A: A_PRODUCTIONS,
}


def production_name(action_type: ActionType, production: int) -> str:
    """Human-readable name of a production (``Filter.eq_v`` ...)."""
    return f"{action_type.value}.{PRODUCTIONS[action_type][production][0]}"


def production_index(action_type: ActionType, name: str) -> int:
    """Inverse of :func:`production_name` for one action type."""
    for i, (candidate, _children) in enumerate(PRODUCTIONS[action_type]):
        if candidate == name:
            return i
    raise GrammarError(f"{action_type.value} has no production {name!r}")


def children_of(action_type: ActionType, production: int) -> tuple[ActionType, ...]:
    """Child non-terminals of a production."""
    if action_type in POINTER_TYPES:
        return ()
    try:
        return PRODUCTIONS[action_type][production][1]
    except (KeyError, IndexError) as exc:
        raise GrammarError(
            f"no production {production} for {action_type.value}"
        ) from exc


def num_productions(action_type: ActionType) -> int:
    if action_type in POINTER_TYPES:
        return 0
    return len(PRODUCTIONS[action_type])


@dataclass(frozen=True)
class GrammarAction:
    """A grammar action: choose ``production`` for ``action_type``."""

    action_type: ActionType
    production: int

    def __post_init__(self) -> None:
        if self.action_type in POINTER_TYPES:
            raise GrammarError(
                f"{self.action_type.value} is a pointer type, not a grammar action"
            )
        if not 0 <= self.production < num_productions(self.action_type):
            raise GrammarError(
                f"production {self.production} out of range for "
                f"{self.action_type.value}"
            )

    @property
    def name(self) -> str:
        return production_name(self.action_type, self.production)

    @property
    def children(self) -> tuple[ActionType, ...]:
        return children_of(self.action_type, self.production)

    def __str__(self) -> str:
        return self.name


# --------------------------------------------------------------------------
# Global grammar-action vocabulary (the decoder's softmax space for sketch
# actions).  Stable ordering: the types in declaration order, productions in
# table order.

GRAMMAR_ACTION_LIST: list[GrammarAction] = [
    GrammarAction(action_type, production)
    for action_type in (
        ActionType.Z, ActionType.R, ActionType.SELECT, ActionType.ORDER,
        ActionType.SUPERLATIVE, ActionType.FILTER, ActionType.A,
    )
    for production in range(num_productions(action_type))
]

GRAMMAR_ACTION_INDEX: dict[GrammarAction, int] = {
    action: i for i, action in enumerate(GRAMMAR_ACTION_LIST)
}

NUM_GRAMMAR_ACTIONS = len(GRAMMAR_ACTION_LIST)


_ACTIONS_FOR_TYPE: dict[ActionType, tuple[int, ...]] = {
    action_type: tuple(
        GRAMMAR_ACTION_INDEX[GrammarAction(action_type, production)]
        for production in range(num_productions(action_type))
    )
    for action_type in ActionType
}


def actions_for_type(action_type: ActionType) -> tuple[int, ...]:
    """Global ids of all grammar actions expanding ``action_type``."""
    return _ACTIONS_FOR_TYPE[action_type]
