"""JSONiq comparison semantics and the paper's sort-key encodings.

Three distinct notions coexist:

* **Value comparison** (``eq``, ``lt``, ...) between two atomic items.
  Numbers compare across numeric types; ``null`` is smaller than every other
  atomic; the empty sequence is smaller still (handled by the callers).
  Comparing incompatible types (a string with a number) raises ``XPTY0004``.

* **Grouping/ordering keys** — the three-column encoding of Section 4.7:
  an integer type code, a string column and a double column, designed so
  that Spark SQL grouping/sorting on those native columns reproduces the
  JSONiq semantics without ever seeing an ``Item``.

* **The raw verdict** — :func:`raw_verdict`, the same comparison over
  raw decoded JSON values, three-valued: it decides only what the value
  comparison above is guaranteed to decide and leaves the rest (errors
  included) to the evaluator.  Every fast form of a comparison — pushed
  scan predicate, column mask, where predicate, generated guard — is
  derived from it.
"""

from __future__ import annotations

import operator
from typing import Optional, Tuple

from repro.items.atomics import promote_pair
from repro.items.base import Item, make_type_error

#: Type codes of the paper's Section 4.7.  ``EMPTY_LEAST`` is the default
#: (empty sequence smaller than everything); ``EMPTY_GREATEST`` replaces it
#: when an order-by clause says ``empty greatest``.
EMPTY_LEAST = 1
CODE_NULL = 2
CODE_TRUE = 3
CODE_FALSE = 4
CODE_STRING = 5
CODE_NUMBER = 6
EMPTY_GREATEST = 7

#: The comparison op tables, shared by every form a comparison takes (the
#: row evaluator, the pushed scan predicates, the column masks, the code
#: emitter): value-comparison spelling -> (Python operator, its source
#: text), and the general spellings that quantify over the same six.
VALUE_OPS = {
    "eq": (operator.eq, "=="), "ne": (operator.ne, "!="),
    "lt": (operator.lt, "<"), "le": (operator.le, "<="),
    "gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
}
GENERAL_TO_VALUE = {
    "=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}

#: Sentinel for an absent key (JSONiq's empty sequence), distinct from a
#: JSON null.  Readers compare by identity.
ABSENT = object()

_RAW_FAMILIES = {
    str: "string", int: "number", float: "number", bool: "boolean",
    type(None): "null",
}
#: The value operators Python's own operator decides within a family,
#: exactly as :func:`value_compare` would: strings and numbers order,
#: booleans are only tested for equality, and a null's outcome is the
#: reference evaluator's to give.
_DECIDED_OPS = {
    "string": frozenset(VALUE_OPS), "number": frozenset(VALUE_OPS),
    "boolean": frozenset(("eq", "ne")),
}
#: Source text testing that ``{0}`` holds a raw value of a family, for
#: the code emitter's guards (``type(x) is int`` deliberately excludes
#: bool, as :func:`raw_family` does).
FAMILY_GUARDS = {
    "number": "(type({0}) is int or type({0}) is float)",
    "string": "type({0}) is str",
    None: "(type({0}) is list or type({0}) is dict)",
}


def raw_family(value) -> Optional[str]:
    """The comparison family of one raw decoded JSON value: ``string``,
    ``number``, ``boolean``, ``null``, ``absent`` — or None for an array,
    an object or anything else that is not a raw JSON scalar."""
    if value is ABSENT:
        return "absent"
    return _RAW_FAMILIES.get(type(value))


def family_decides(family: Optional[str], value_op: str) -> bool:
    """Whether two present values of ``family`` compare under
    ``value_op`` by Python's operator alone."""
    return value_op in _DECIDED_OPS.get(family, ())


def raw_verdict(mine, theirs, value_op: str) -> Optional[bool]:
    """The three-valued outcome of ``mine <value_op> theirs`` over raw
    decoded JSON values, in the reference evaluator's order.

    True / False are what the where clause's effective boolean value is
    guaranteed to be, for the value and the general spelling alike; None
    means only the reference evaluator can say — it may raise.  Every
    fast form of a comparison (pushed row predicate, column mask, where
    and recheck predicate, emitted guard) is this function or defers to
    that evaluator.
    """
    left, right = type(mine), type(theirs)
    if left is str:
        if right is str:
            return VALUE_OPS[value_op][0](mine, theirs)
    elif (left is int or left is float) and (right is int or right is float):
        return VALUE_OPS[value_op][0](mine, theirs)
    family, other = raw_family(mine), raw_family(theirs)
    # The reference atomizes both operands before its empty check, and a
    # general comparison raises on a present non-atomic: unknown, even
    # against an absent operand.
    if family is None or other is None:
        return None
    # The empty sequence: a value comparison is empty, a general one
    # finds no pair — false either way.
    if family == "absent" or other == "absent":
        return False
    if family == other and family_decides(family, value_op):
        return VALUE_OPS[value_op][0](mine, theirs)
    return None


def value_compare(left: Item, right: Item) -> int:
    """Three-way comparison of two atomic items (-1, 0 or 1).

    Raises a type error when the items are not comparable, mirroring the
    JSONiq requirement quoted in Section 4.8 of the paper.
    """
    if not left.is_atomic or not right.is_atomic:
        raise make_type_error(
            "XPTY0004",
            "cannot compare {} with {}".format(left.type_name, right.type_name),
        )
    if left.is_null or right.is_null:
        if left.is_null and right.is_null:
            return 0
        return -1 if left.is_null else 1
    if left.is_numeric and right.is_numeric:
        lhs, rhs, _ = promote_pair(left, right)
        return (lhs > rhs) - (lhs < rhs)
    if left.is_string and right.is_string:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_boolean and right.is_boolean:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_date and right.is_date:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_datetime and right.is_datetime:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_time and right.is_time:
        return (left.value > right.value) - (left.value < right.value)
    if left.is_day_time_duration and right.is_day_time_duration:
        return (left.seconds > right.seconds) - (left.seconds < right.seconds)
    if left.is_year_month_duration and right.is_year_month_duration:
        return (left.months > right.months) - (left.months < right.months)
    # date vs string comparisons happen on datasets where dates are kept
    # as strings; JSONiq proper would reject this, and so do we.
    raise make_type_error(
        "XPTY0004",
        "cannot compare {} with {}".format(left.type_name, right.type_name),
    )


def values_equal(left: Item, right: Item) -> bool:
    """Equality with cross-numeric-type promotion, no error on mismatch.

    Used by ``distinct-values`` and ``group by``, which treat items of
    incomparable types as simply *different* rather than erroneous.
    """
    if left.is_numeric and right.is_numeric:
        lhs, rhs, _ = promote_pair(left, right)
        return lhs == rhs
    return left == right


def encode_sort_key(
    item: Optional[Item], empty_greatest: bool = False
) -> Tuple[int, str, float]:
    """Encode one atomic item (or ``None`` for the empty sequence) into the
    paper's three native columns ``(type_code, string_col, double_col)``.

    Sorting or grouping rows lexicographically by these columns reproduces
    the JSONiq ordering: empty < null < false < true is achieved by the
    type codes alone, strings sort within code 5, numbers within code 6.
    """
    if item is None:
        return (EMPTY_GREATEST if empty_greatest else EMPTY_LEAST, "", 0.0)
    if item.is_null:
        return (CODE_NULL, "", 0.0)
    if item.is_boolean:
        # false < true: give false the smaller code.  The paper lists true=3,
        # false=4; we keep the codes but order via the double column so that
        # the documented code assignment is preserved verbatim.
        code = CODE_TRUE if item.value else CODE_FALSE
        return (code, "", 1.0 if item.value else 0.0)
    if item.is_string:
        return (CODE_STRING, item.value, 0.0)
    if item.is_numeric:
        return (CODE_NUMBER, "", float(item.value))
    if item.is_date:
        return (CODE_NUMBER, "", float(item.value.toordinal()))
    if item.is_datetime or item.is_time or item.is_duration:
        return (CODE_NUMBER, "", float(item.sort_key()))
    raise make_type_error(
        "XPTY0004", "cannot use {} as an ordering key".format(item.type_name)
    )


#: Orders booleans correctly despite the paper's true=3 < false=4 codes:
#: grouping only needs distinctness, ordering uses this corrected code.
_ORDER_CODE = {CODE_TRUE: 3.5, CODE_FALSE: 3.0}


def ordering_tuple(
    item: Optional[Item], empty_greatest: bool = False
) -> Tuple[float, str, float]:
    """A tuple that sorts exactly as JSONiq order-by requires."""
    code, text, number = encode_sort_key(item, empty_greatest)
    return (_ORDER_CODE.get(code, float(code)), text, number)


def grouping_key(item: Optional[Item]) -> Tuple[int, str, float]:
    """The hashable grouping key for one atomic grouping value.

    Unlike ordering, grouping never raises on heterogeneous keys: items of
    different types land in different groups (paper, Section 4.7).
    """
    if item is None:
        return (EMPTY_LEAST, "", 0.0)
    if item.is_null:
        return (CODE_NULL, "", 0.0)
    if item.is_boolean:
        return (CODE_TRUE if item.value else CODE_FALSE, "", 0.0)
    if item.is_string:
        return (CODE_STRING, item.value, 0.0)
    if item.is_numeric:
        return (CODE_NUMBER, "", float(item.value))
    if item.is_date:
        return (CODE_NUMBER, "", float(item.value.toordinal()))
    if item.is_datetime or item.is_time or item.is_duration:
        return (CODE_NUMBER, "", float(item.sort_key()))
    raise make_type_error(
        "XPTY0004", "cannot group by {}".format(item.type_name)
    )


def check_sortable(first_seen: Optional[str], item: Item) -> str:
    """Type-compatibility check for order-by (paper, Section 4.8).

    Returns the sort family of ``item`` and raises when it conflicts with
    the family already observed in the first pass over the tuple stream.
    """
    if not item.is_atomic:
        raise make_type_error(
            "XPTY0004",
            "order-by keys must be atomic, got " + item.type_name,
        )
    if item.is_null:
        return first_seen or "null"
    if item.is_numeric:
        family = "number"
    elif item.is_string:
        family = "string"
    elif item.is_boolean:
        family = "boolean"
    elif item.is_date:
        family = "date"
    elif item.is_datetime:
        family = "dateTime"
    elif item.is_time:
        family = "time"
    elif item.is_day_time_duration:
        family = "dayTimeDuration"
    elif item.is_year_month_duration:
        family = "yearMonthDuration"
    else:  # pragma: no cover - all atomics covered above
        raise make_type_error("XPTY0004", "unsortable " + item.type_name)
    if first_seen in (None, "null"):
        return family
    if first_seen != family:
        raise make_type_error(
            "XPTY0004",
            "incompatible order-by key types: {} and {}".format(
                first_seen, family
            ),
        )
    return family
