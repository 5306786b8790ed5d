"""JSONiq comparison semantics and the paper's sort-key encodings.

Three distinct notions coexist:

* **Value comparison** (``eq``, ``lt``, ...) between two atomic items.
  Numbers compare across numeric types; ``null`` is smaller than every other
  atomic; the empty sequence is smaller still (handled by the callers).
  Comparing incompatible types (a string with a number) raises ``XPTY0004``.

* **Grouping/ordering keys** — defined once for every clause form: the
  "at most one atomic" check, the Section 4.7 encoding into three native
  columns (type code, string, double) the engine groups and sorts on
  without seeing an ``Item``, and the Section 4.8 type-family discovery.

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


def raw_sort_key(
    value, empty_greatest: bool = False
) -> Optional[Tuple[int, str, float]]:
    """The one Section 4.7 encoder: the three native columns
    ``(type_code, string_col, double_col)`` of a decoded JSON scalar or
    ``ABSENT``, which group and (with :func:`ordering_tuple`'s boolean
    correction) sort as JSONiq does.  None for an array, an object or
    anything else that is not a raw JSON scalar: ask the reference."""
    family = raw_family(value)
    if family == "string":
        return (CODE_STRING, value, 0.0)
    if family == "number":
        return (CODE_NUMBER, "", float(value))
    if family == "boolean":
        return (CODE_TRUE if value else CODE_FALSE, "", 0.0)
    if family == "null":
        return (CODE_NULL, "", 0.0)
    if family == "absent":
        return (EMPTY_GREATEST if empty_greatest else EMPTY_LEAST, "", 0.0)
    return None


def encode_sort_key(
    item: Optional[Item], empty_greatest: bool = False
) -> Tuple[int, str, float]:
    """The item reader of :func:`raw_sort_key`: one atomic item, or
    ``None`` for the empty sequence, encoded as the raw scalar it sorts
    like (dates, times and durations as numbers)."""
    if item is None:
        value = ABSENT
    elif item.is_null:
        value = None
    elif item.is_atomic:
        value = item.sort_key()
    else:
        raise make_type_error(
            "XPTY0004", "cannot group or order by " + item.type_name
        )
    return raw_sort_key(value, empty_greatest)


def grouping_key(item: Optional[Item]) -> Tuple[int, str, float]:
    """The hashable grouping key for one atomic grouping value.  Unlike
    ordering, grouping never raises on heterogeneous keys: items of
    different types land in different groups (paper, Section 4.7)."""
    return encode_sort_key(item)


#: The paper lists true=3 < false=4, which groups correctly (grouping
#: only needs distinctness) but sorts true first: ordering corrects the
#: two codes so that empty < null < false < true.
_ORDER_CODE = {CODE_TRUE: 3.5, CODE_FALSE: 3.0}


def ordering_tuple(
    item: Optional[Item], empty_greatest: bool = False
) -> Tuple[float, str, float]:
    """A tuple that sorts exactly as JSONiq order-by requires."""
    code, text, number = encode_sort_key(item, empty_greatest)
    return (_ORDER_CODE.get(code, float(code)), text, number)


def single_atomic_key(
    items, grouping_variable: Optional[str] = None
) -> Optional[Item]:
    """The "at most one atomic item" check both clauses put on a key:
    the item, or None for the empty sequence.  Worded for ``group by
    $grouping_variable`` or, without one, for an order-by key."""
    if not items:
        return None
    item = items[0]
    if len(items) == 1 and item.is_atomic:
        return item
    if grouping_variable is None:
        subject, verb = "order-by key", "evaluated to"
    else:
        subject, verb = "grouping variable $" + grouping_variable, "has"
    if len(items) > 1:
        raise make_type_error(
            "XPTY0004", "{} {} more than one item".format(subject, verb)
        )
    raise make_type_error(
        "XPTY0004", "{} is not atomic ({})".format(subject, item.type_name)
    )


def compatible_family(
    earlier: Optional[str], later: Optional[str]
) -> Optional[str]:
    """The Section 4.8 rule on two sort families in row order: ``None``
    (nothing seen) and ``"null"`` are compatible with every family, two
    different real families are not."""
    if later in (None, "null"):
        return earlier or later
    if earlier in (None, "null") or earlier == later:
        return later
    raise make_type_error(
        "XPTY0004",
        "incompatible order-by key types: {} and {}".format(earlier, later),
    )


def check_sortable(first_seen: Optional[str], item: Item) -> str:
    """Type-compatibility check for order-by (paper, Section 4.8).

    Returns the sort family of ``item`` — its type, the numeric types
    being one family — and raises when it conflicts with the family
    already observed in the first pass over the tuple stream.
    """
    if not item.is_atomic:
        raise make_type_error(
            "XPTY0004",
            "order-by keys must be atomic, got " + item.type_name,
        )
    return compatible_family(
        first_seen, "number" if item.is_numeric else item.type_name
    )


class KeyFamilies:
    """What a run of rows contributes to order-by's type discovery: per
    ordering key, the first real family seen and the first one that
    differs from it, if any — all the row-by-row fold of
    :func:`check_sortable` can depend on.  A partition returns its
    summary instead of raising, so that a conflict is worded as over the
    whole stream (the family of the earlier row first), whatever the
    block layout."""

    def __init__(self, width: int):
        self.seen = [[] for _ in range(width)]

    def add(self, values) -> None:
        """Record one row's checked key values (``None`` = empty)."""
        for seen, value in zip(self.seen, values):
            if value is not None:
                family = check_sortable(None, value)
                if family != "null" and family not in seen and len(seen) < 2:
                    seen.append(family)

    @staticmethod
    def merge(summaries) -> None:
        """Fold consecutive runs' summaries, in row order, raising where
        :func:`check_sortable` would have on the rows themselves."""
        merged = {}
        for summary in summaries:
            for index, seen in enumerate(summary.seen):
                for family in seen:
                    merged[index] = compatible_family(
                        merged.get(index), family
                    )
