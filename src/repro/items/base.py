"""Base classes of the JSONiq Data Model (JDM).

Every value flowing through the engine is a *sequence of items*.  An item is
an atomic value, an object, or an array (paper, Section 2.3).  This module
defines the abstract :class:`Item` root of the hierarchy plus the dynamic
error type raised when an operation receives items of an unsupported kind.

The concrete classes live in :mod:`repro.items.atomics` (strings, numbers,
booleans, null, dates) and :mod:`repro.items.structured` (objects, arrays).
"""

from __future__ import annotations

from typing import Any, Iterator


class Item:
    """Abstract super class of every JSONiq item.

    Arranging all item kinds under one root is what lets an RDD of items
    carry heterogeneous data (paper, Section 4.1.1).  Subclasses override
    the ``is_*`` flags and the conversion hooks they support.
    """

    __slots__ = ()

    #: Kind flags, overridden by subclasses.
    is_atomic = False
    is_object = False
    is_array = False
    is_numeric = False
    is_string = False
    is_boolean = False
    is_null = False
    is_integer = False
    is_decimal = False
    is_double = False
    is_date = False
    is_datetime = False
    is_time = False
    is_duration = False
    is_day_time_duration = False
    is_year_month_duration = False

    @property
    def type_name(self) -> str:
        """The JSONiq type name used in error messages, e.g. ``integer``."""
        raise NotImplementedError

    def effective_boolean_value(self) -> bool:
        """The truth value used by ``where``, ``if`` and logic expressions."""
        raise make_type_error(
            "FORG0006",
            "effective boolean value not defined for " + self.type_name,
        )

    def to_python(self) -> Any:
        """A plain-Python rendering of the item (dict/list/str/int/...)."""
        raise NotImplementedError

    def serialize(self) -> str:
        """The canonical JSONiq textual serialization of the item."""
        raise NotImplementedError

    # -- Navigation ---------------------------------------------------------
    def lookup(self, key: str) -> Iterator["Item"]:
        """Object lookup (``$o.key``): empty on non-objects, never an error."""
        return iter(())

    def array_lookup(self, index: int) -> Iterator["Item"]:
        """Array lookup (``$a[[i]]``, 1-based): empty on non-arrays."""
        return iter(())

    def unbox(self) -> Iterator["Item"]:
        """Array unboxing (``$a[]``): members for arrays, empty otherwise."""
        return iter(())

    # -- Typed value access (raise on wrong kind) ---------------------------
    def string_value(self) -> str:
        raise make_type_error(
            "XPTY0004", "cannot take string value of " + self.type_name
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({})".format(type(self).__name__, self.serialize())


def make_type_error(code: str, message: str) -> Exception:
    """Build the engine's dynamic type error without a circular import."""
    from repro.jsoniq.errors import TypeException

    return TypeException(message, code=code)
