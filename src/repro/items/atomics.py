"""Atomic items of the JSONiq Data Model.

The core JSON atomics are implemented — string, integer, decimal, double,
boolean, null — plus ``date``, which the paper's confusion dataset uses.
Cross-type numeric comparison and arithmetic follow the JSONiq specification:
integer and decimal promote to decimal, anything involving a double promotes
to double.
"""

from __future__ import annotations

import datetime
import math
from decimal import Decimal
from typing import Any

from repro.items.base import Item, make_type_error


class AtomicItem(Item):
    """Common behaviour of all atomic items."""

    __slots__ = ()
    is_atomic = True

    def sort_key(self):
        """A Python-sortable key; only comparable within the same family."""
        raise NotImplementedError


class NullItem(AtomicItem):
    """The JSON ``null`` value.  Smaller than every other atomic."""

    __slots__ = ()
    is_null = True

    @property
    def type_name(self) -> str:
        return "null"

    def effective_boolean_value(self) -> bool:
        return False

    def to_python(self) -> None:
        return None

    def serialize(self) -> str:
        return "null"

    def sort_key(self):
        return ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullItem)

    def __hash__(self) -> int:
        return hash(None)


#: Shared singleton — null carries no state.
NULL = NullItem()


class BooleanItem(AtomicItem):
    """A JSON boolean."""

    __slots__ = ("value",)
    is_boolean = True

    def __init__(self, value: bool):
        self.value = bool(value)

    @property
    def type_name(self) -> str:
        return "boolean"

    def effective_boolean_value(self) -> bool:
        return self.value

    def to_python(self) -> bool:
        return self.value

    def serialize(self) -> str:
        return "true" if self.value else "false"

    def sort_key(self):
        return self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BooleanItem) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)


TRUE = BooleanItem(True)
FALSE = BooleanItem(False)


class StringItem(AtomicItem):
    """A JSON string."""

    __slots__ = ("value",)
    is_string = True

    def __init__(self, value: str):
        self.value = value

    @property
    def type_name(self) -> str:
        return "string"

    def effective_boolean_value(self) -> bool:
        return len(self.value) > 0

    def string_value(self) -> str:
        return self.value

    def to_python(self) -> str:
        return self.value

    def serialize(self) -> str:
        return _serialize_string(self.value)

    def sort_key(self):
        return self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StringItem) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)


class NumericItem(AtomicItem):
    """Common behaviour of the three numeric types."""

    __slots__ = ("value",)
    is_numeric = True

    def effective_boolean_value(self) -> bool:
        return self.value != 0 and self.value == self.value  # NaN is false

    def to_python(self):
        return self.value

    def sort_key(self):
        return float(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumericItem) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)


class IntegerItem(NumericItem):
    """A JSON integer (arbitrary precision, as in JSONiq)."""

    __slots__ = ()
    is_integer = True

    def __init__(self, value: int):
        self.value = int(value)

    @property
    def type_name(self) -> str:
        return "integer"

    def serialize(self) -> str:
        return str(self.value)


class DecimalItem(NumericItem):
    """An exact decimal number."""

    __slots__ = ()
    is_decimal = True

    def __init__(self, value):
        self.value = value if isinstance(value, Decimal) else Decimal(str(value))

    @property
    def type_name(self) -> str:
        return "decimal"

    def serialize(self) -> str:
        text = format(self.value, "f")
        return text


class DoubleItem(NumericItem):
    """An IEEE-754 double."""

    __slots__ = ()
    is_double = True

    def __init__(self, value: float):
        self.value = float(value)

    @property
    def type_name(self) -> str:
        return "double"

    def serialize(self) -> str:
        if math.isnan(self.value):
            return "NaN"
        if math.isinf(self.value):
            return "Infinity" if self.value > 0 else "-Infinity"
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return "{:.1f}".format(self.value)
        return repr(self.value)


class DateItem(AtomicItem):
    """An ``xs:date`` value, compared chronologically."""

    __slots__ = ("value",)
    is_date = True

    def __init__(self, value: datetime.date):
        if isinstance(value, str):
            value = datetime.date.fromisoformat(value)
        self.value = value

    @property
    def type_name(self) -> str:
        return "date"

    def string_value(self) -> str:
        return self.value.isoformat()

    def to_python(self) -> datetime.date:
        return self.value

    def serialize(self) -> str:
        return _serialize_string(self.value.isoformat())

    def sort_key(self):
        return self.value.toordinal()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DateItem) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\b": "\\b",
    "\f": "\\f",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _serialize_string(text: str) -> str:
    """Serialize a string with JSON escaping."""
    pieces = ['"']
    for char in text:
        escaped = _ESCAPES.get(char)
        if escaped is not None:
            pieces.append(escaped)
        elif ord(char) < 0x20:
            pieces.append("\\u{:04x}".format(ord(char)))
        else:
            pieces.append(char)
    pieces.append('"')
    return "".join(pieces)


def promote_pair(left: NumericItem, right: NumericItem):
    """Return the two numeric values promoted to a common Python type."""
    if left.is_double or right.is_double:
        return float(left.value), float(right.value), "double"
    if left.is_decimal or right.is_decimal:
        return (
            Decimal(left.value) if not left.is_decimal else left.value,
            Decimal(right.value) if not right.is_decimal else right.value,
            "decimal",
        )
    return left.value, right.value, "integer"


def make_numeric(value: Any) -> NumericItem:
    """Wrap a plain Python number in the matching numeric item."""
    if isinstance(value, bool):
        raise make_type_error("XPTY0004", "boolean is not numeric")
    if isinstance(value, int):
        return IntegerItem(value)
    if isinstance(value, Decimal):
        return DecimalItem(value)
    if isinstance(value, float):
        return DoubleItem(value)
    raise make_type_error("XPTY0004", "not a number: {!r}".format(value))
