"""Value formatting (paper Sections III-C and IV-A).

"In the deterministic post-processing step we format the value given the
predicted data type of the column.  If the column is, for example, of the
type text, we add quotes to it.  If it is of the type integer, we make
sure a floating point is not provided.  In the case that the SQL sketch
predicts a Filter action of type like, we further extend the value with
the SQL wildcard character %."

Quoting itself happens in the SQL renderer; this module normalizes the V
payloads in a predicted SemQL tree so the renderer emits the right
literal form.
"""

from __future__ import annotations

from repro.schema.model import Column, ColumnType, Schema
from repro.semql.actions import ActionType, PRODUCTIONS
from repro.semql.tree import SemQLNode

# Aggregates whose result is a number whatever the column's type.
_NUMERIC_AGGREGATES = ("count", "sum", "avg")


def _production_name(node: SemQLNode) -> str:
    assert node.production is not None
    return PRODUCTIONS[node.action_type][node.production][0]


def coerce_for_column(value: object, column: Column) -> object:
    """Normalize a candidate payload for the column it is compared with."""
    if column.column_type in (ColumnType.NUMBER, ColumnType.BOOLEAN):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            if isinstance(value, float) and value.is_integer():
                return int(value)
            return value
        text = str(value).strip()
        try:
            number = float(text)
        except ValueError:
            return str(value)  # not numeric after all; keep the text
        return int(number) if number.is_integer() else number
    return str(value)


def add_like_wildcards(value: object) -> str:
    """Ensure a LIKE operand carries wildcards ('Ha' -> '%Ha%')."""
    text = str(value)
    if "%" in text:
        return text
    return f"%{text}%"


def format_values(tree: SemQLNode, schema: Schema) -> SemQLNode:
    """Format every V payload in ``tree`` in place (returns the tree).

    Filter values are coerced to the type of the column in the sibling A
    node, or to a number when that node aggregates with ``count``,
    ``sum`` or ``avg`` (``HAVING COUNT(*) > 4``, not ``> '4'``: SQLite
    orders every number below every text value); LIKE filters get
    wildcards; Superlative limits become ints.
    """
    for node in tree.walk():
        if node.action_type is ActionType.FILTER:
            name = _production_name(node)
            if name in ("and", "or") or name.endswith("_r"):
                continue
            a_node = node.children[0]
            column_node = a_node.children[0]
            assert column_node.column is not None
            if _production_name(a_node) in _NUMERIC_AGGREGATES:
                column = _number_column()
            else:
                column = column_node.column
            for value_node in node.children[1:]:
                if value_node.action_type is not ActionType.V:
                    continue
                if name in ("like_v", "not_like_v"):
                    value_node.value = add_like_wildcards(value_node.value)
                else:
                    value_node.value = coerce_for_column(value_node.value, column)
        elif node.action_type is ActionType.SUPERLATIVE:
            value_node = node.children[0]
            value_node.value = coerce_for_column(value_node.value, _number_column())
    return tree


def _number_column() -> Column:
    """A synthetic NUMBER column used to coerce LIMIT payloads and the
    operands of numeric aggregates."""
    return Column("limit", "", ColumnType.NUMBER, natural_name="limit")
