"""Streaming JSON-Lines decoding straight into items.

The paper's Section 5.7 uses the JSONiter streaming parser to build items
directly, skipping an intermediate generic-JSON representation.  This
module plays that role: a small recursive-descent JSON parser whose
terminal productions construct :mod:`repro.items` instances directly.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.items import (
    FALSE,
    NULL,
    TRUE,
    ArrayItem,
    DoubleItem,
    IntegerItem,
    Item,
    ObjectItem,
    StringItem,
)
from repro.items.compare import ABSENT
from repro.jsoniq.errors import DynamicException

_WHITESPACE = " \t\r\n"
_ESCAPES = {
    '"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
    "n": "\n", "r": "\r", "t": "\t",
}


class JsonSyntaxError(DynamicException):
    default_code = "SENR0002"


def parse_json_line_pure(text: str) -> Item:
    """Parse one JSON value into an item with the pure streaming parser,
    requiring full consumption.  This is the faithful port of the
    JSONiter design; :func:`parse_json_line` is the production fast path."""
    item, position = _parse_value(text, _skip_ws(text, 0))
    position = _skip_ws(text, position)
    if position != len(text):
        raise JsonSyntaxError(
            "trailing characters after JSON value at offset {}".format(position)
        )
    return item


def parse_json_line(text: str) -> Item:
    """Parse one JSON value into an item.

    CPython inverts the paper's JSONiter trade-off: the C-accelerated
    ``json`` decoder plus a single wrapping walk is far faster than any
    pure-Python streaming parser, so that is the production path.  The
    streaming decoder above stays as the reference implementation; the
    test suite checks both produce identical items.
    """
    import json

    try:
        return _wrap_fast(json.loads(text))
    except ValueError as error:
        raise JsonSyntaxError(str(error)) from error


_new_string = StringItem.__new__
_new_integer = IntegerItem.__new__
_new_double = DoubleItem.__new__
_new_array = ArrayItem.__new__


class LazyObjectItem(ObjectItem):
    """An object item whose values wrap on first access.

    The C JSON decoder hands back a plain dict, and most records are
    only ever probed for a handful of keys (a where predicate, a
    grouping key, a sort key) before being counted or discarded —
    wrapping every value eagerly is the single biggest allocation cost
    of a scan.  Single-key probes (``lookup``/``get_item``) wrap just
    the requested value; any structural access through ``pairs``
    materializes the full mapping once and caches it.
    """

    __slots__ = ("_raw",)
    #: The parent's slot descriptor, kept reachable after the property
    #: below shadows its name.
    _pairs_slot = ObjectItem.pairs

    def __init__(self, raw):
        self._raw = raw

    @property
    def pairs(self):
        slot = LazyObjectItem._pairs_slot
        try:
            return slot.__get__(self, LazyObjectItem)
        except AttributeError:
            pairs = {
                key: _wrap_fast(value)
                for key, value in self._raw.items()
            }
            slot.__set__(self, pairs)
            return pairs

    def keys(self):
        return list(self._raw.keys())

    def get_item(self, key):
        value = self._raw.get(key, ABSENT)
        if value is ABSENT:
            return None
        return _wrap_fast(value)

    def lookup(self, key):
        value = self._raw.get(key, ABSENT)
        if value is not ABSENT:
            yield _wrap_fast(value)

    def __reduce__(self):
        # The default slot-based pickling would setattr ``pairs`` on
        # load, which the property above has no setter for; rebuild from
        # the raw dict instead (the wrapped values re-derive lazily).
        # Needed by the memory manager's disk tier, which round-trips
        # spilled partitions through pickle.
        return (LazyObjectItem, (self._raw,))


def _wrap_fast(value) -> Item:
    """Wrap a decoded JSON value, minimal dispatch (hot path).

    Items are built through ``__new__`` with direct slot assignment —
    the values coming out of the C JSON decoder are already of the right
    Python types, so the constructors' normalization is skipped.
    Objects wrap lazily (:class:`LazyObjectItem`).
    """
    kind = type(value)
    if kind is str:
        item = _new_string(StringItem)
        item.value = value
        return item
    if kind is bool:
        return TRUE if value else FALSE
    if kind is int:
        item = _new_integer(IntegerItem)
        item.value = value
        return item
    if kind is dict:
        return LazyObjectItem(value)
    if kind is list:
        wrapped = _new_array(ArrayItem)
        wrapped.members = [_wrap_fast(v) for v in value]
        return wrapped
    if kind is float:
        item = _new_double(DoubleItem)
        item.value = value
        return item
    if value is None:
        return NULL
    raise JsonSyntaxError("unsupported JSON value {!r}".format(value))


#: Spark-style parse modes for messy JSON-Lines input.
PARSE_MODES = ("failfast", "permissive", "dropmalformed")

#: The field a ``permissive`` read stores an unparseable line under,
#: mirroring Spark's ``columnNameOfCorruptRecord``.
CORRUPT_RECORD_FIELD = "_corrupt_record"


class _CorruptLine:
    """A line a ``permissive`` read could not decode."""

    __slots__ = ("line",)

    def __init__(self, line: str):
        self.line = line


def _decode_lines(lines, mode: str, on_malformed):
    """The one JSON-Lines decode loop: yield each non-blank line's
    decoded value through the C ``json`` decoder.  A malformed line
    raises :class:`JsonSyntaxError` (``failfast``), is yielded as a
    :class:`_CorruptLine` (``permissive``) or is skipped
    (``dropmalformed``); ``on_malformed(line, error)`` is called for
    every tolerated one."""
    import json

    if mode not in PARSE_MODES:
        raise ValueError(
            "unknown parse mode {!r} (expected one of {})".format(
                mode, ", ".join(PARSE_MODES)
            )
        )
    loads = json.loads
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield loads(stripped)
        except ValueError as error:
            wrapped = JsonSyntaxError(str(error))
            if mode == "failfast":
                raise wrapped from error
            if on_malformed is not None:
                on_malformed(stripped, wrapped)
            if mode == "permissive":
                yield _CorruptLine(stripped)


def iter_json_lines(
    lines,
    mode: str = "failfast",
    corrupt_field: str = CORRUPT_RECORD_FIELD,
    on_malformed=None,
) -> Iterator[Item]:
    """Decode an iterable of JSON-Lines text lines into items.

    ``mode`` decides what one malformed line does to the read (the
    paper's premise is *messy* data sets, so this must be a choice, not
    a crash):

    * ``failfast`` — raise :class:`JsonSyntaxError` (the default);
    * ``permissive`` — yield an object holding the raw line under
      ``corrupt_field`` instead, so downstream queries can inspect it;
    * ``dropmalformed`` — skip the line.

    ``on_malformed(line, error)`` is called for every tolerated bad line
    (the hook the fault ledger uses to count dropped/captured records).
    """
    for record in _decode_lines(lines, mode, on_malformed):
        if type(record) is _CorruptLine:
            yield ObjectItem({corrupt_field: StringItem(record.line)})
        else:
            yield _wrap_fast(record)


def iter_json_lines_pushed(
    lines,
    predicates=(),
    mode: str = "failfast",
    corrupt_field: str = CORRUPT_RECORD_FIELD,
    on_malformed=None,
    on_pruned=None,
    recheck=None,
) -> Iterator[Item]:
    """Decode JSON lines with scan-level predicate pushdown applied.

    ``predicates`` are three-valued callables over the *decoded* dict
    (see :mod:`repro.jsoniq.runtime.flwor.pushdown`), in clause order;
    a record's first verdict that is not a definite ``True`` decides
    it.  ``False`` prunes the record before any item is built; ``None``
    (unknown) boxes it and keeps it only if ``recheck(item)`` — the
    where conditions themselves, errors included — says so (with no
    ``recheck``, unconditionally).  Pruning only ever *skips work* the
    reference path proves redundant — outcomes are identical with it
    off.  (Key projection needs no scan support:
    :class:`LazyObjectItem` already defers value wrapping to the keys a
    query actually touches.)

    Non-object records have no top-level keys and a permissive corrupt
    record has only the corrupt field, so any pushed predicate rejects
    them definitively (an object lookup on them is the empty sequence);
    with no predicates they pass through unchanged.  ``on_pruned()`` is
    called once per record skipped here.
    """
    predicates = tuple(predicates)
    for record in _decode_lines(lines, mode, on_malformed):
        if type(record) is dict:
            verdict = True
            for predicate in predicates:
                verdict = predicate(record)
                if verdict is not True:
                    break
            if verdict is False:
                if on_pruned is not None:
                    on_pruned()
                continue
            item = LazyObjectItem(record)
            # All definite True: the where clauses the predicates came
            # from cannot reject (or error on) this record.
            if verdict is True or recheck is None or recheck(item):
                yield item
        elif predicates:
            # Every pushed predicate reads a missing key: the where
            # clause is guaranteed to reject this record.
            if on_pruned is not None:
                on_pruned()
        elif type(record) is _CorruptLine:
            yield ObjectItem({corrupt_field: StringItem(record.line)})
        else:
            yield _wrap_fast(record)


def shred_json_lines(
    lines,
    mode: str = "failfast",
    corrupt_field: str = CORRUPT_RECORD_FIELD,
    on_malformed=None,
):
    """Decode JSON lines and shred them into one ``ColumnBatch``.

    The columnar twin of :func:`iter_json_lines_pushed` up to (but not
    including) predicate evaluation, over the same decode loop: a
    permissive corrupt line becomes a corrupt-record placeholder whose
    row index lands in ``batch.corrupt_rows``, so a pushed scan can
    prune it unconditionally, exactly like the row path.  Predicate
    masks are applied later, per query, over the shared batch.
    """
    from repro.items.columnar import shred_records

    records = []
    corrupt_rows = set()
    for record in _decode_lines(lines, mode, on_malformed):
        if type(record) is _CorruptLine:
            corrupt_rows.add(len(records))
            record = {corrupt_field: record.line}
        records.append(record)
    batch = shred_records(records)
    if corrupt_rows:
        batch.corrupt_rows = frozenset(corrupt_rows)
    return batch


def _skip_ws(text: str, position: int) -> int:
    while position < len(text) and text[position] in _WHITESPACE:
        position += 1
    return position


def _parse_value(text: str, position: int) -> Tuple[Item, int]:
    if position >= len(text):
        raise JsonSyntaxError("unexpected end of JSON input")
    char = text[position]
    if char == "{":
        return _parse_object(text, position)
    if char == "[":
        return _parse_array(text, position)
    if char == '"':
        value, position = _parse_string(text, position)
        return StringItem(value), position
    if char == "t":
        if text.startswith("true", position):
            return TRUE, position + 4
    elif char == "f":
        if text.startswith("false", position):
            return FALSE, position + 5
    elif char == "n":
        if text.startswith("null", position):
            return NULL, position + 4
    elif char == "-" or char.isdigit():
        return _parse_number(text, position)
    raise JsonSyntaxError(
        "unexpected character {!r} at offset {}".format(char, position)
    )


def _parse_object(text: str, position: int) -> Tuple[Item, int]:
    position = _skip_ws(text, position + 1)
    pairs = {}
    if position < len(text) and text[position] == "}":
        return ObjectItem(pairs), position + 1
    while True:
        if position >= len(text) or text[position] != '"':
            raise JsonSyntaxError(
                "expected an object key at offset {}".format(position)
            )
        key, position = _parse_string(text, position)
        position = _skip_ws(text, position)
        if position >= len(text) or text[position] != ":":
            raise JsonSyntaxError(
                "expected ':' at offset {}".format(position)
            )
        value, position = _parse_value(text, _skip_ws(text, position + 1))
        pairs[key] = value
        position = _skip_ws(text, position)
        if position < len(text) and text[position] == ",":
            position = _skip_ws(text, position + 1)
            continue
        if position < len(text) and text[position] == "}":
            return ObjectItem(pairs), position + 1
        raise JsonSyntaxError(
            "expected ',' or '}}' at offset {}".format(position)
        )


def _parse_array(text: str, position: int) -> Tuple[Item, int]:
    position = _skip_ws(text, position + 1)
    members = []
    if position < len(text) and text[position] == "]":
        return ArrayItem(members), position + 1
    while True:
        value, position = _parse_value(text, position)
        members.append(value)
        position = _skip_ws(text, position)
        if position < len(text) and text[position] == ",":
            position = _skip_ws(text, position + 1)
            continue
        if position < len(text) and text[position] == "]":
            return ArrayItem(members), position + 1
        raise JsonSyntaxError(
            "expected ',' or ']' at offset {}".format(position)
        )


def _parse_string(text: str, position: int) -> Tuple[str, int]:
    position += 1  # opening quote
    pieces = []
    plain_start = position
    while position < len(text):
        char = text[position]
        if char == '"':
            pieces.append(text[plain_start:position])
            return "".join(pieces), position + 1
        if char == "\\":
            pieces.append(text[plain_start:position])
            escape = text[position + 1] if position + 1 < len(text) else ""
            if escape == "u":
                digits = text[position + 2:position + 6]
                try:
                    code = int(digits, 16)
                except ValueError:
                    raise JsonSyntaxError(
                        "bad unicode escape at offset {}".format(position)
                    ) from None
                position += 6
                if 0xD800 <= code <= 0xDBFF and text.startswith(
                    "\\u", position
                ):
                    # Combine a UTF-16 surrogate pair into one code point.
                    low_digits = text[position + 2:position + 6]
                    try:
                        low = int(low_digits, 16)
                    except ValueError:
                        low = -1
                    if 0xDC00 <= low <= 0xDFFF:
                        code = 0x10000 + ((code - 0xD800) << 10) + (
                            low - 0xDC00
                        )
                        position += 6
                pieces.append(chr(code))
            elif escape in _ESCAPES:
                pieces.append(_ESCAPES[escape])
                position += 2
            else:
                raise JsonSyntaxError(
                    "bad escape at offset {}".format(position)
                )
            plain_start = position
        else:
            position += 1
    raise JsonSyntaxError("unterminated string")


def _parse_number(text: str, position: int) -> Tuple[Item, int]:
    start = position
    if text[position] == "-":
        position += 1
    while position < len(text) and text[position].isdigit():
        position += 1
    is_double = False
    if position < len(text) and text[position] == ".":
        is_double = True
        position += 1
        while position < len(text) and text[position].isdigit():
            position += 1
    if position < len(text) and text[position] in "eE":
        is_double = True
        position += 1
        if position < len(text) and text[position] in "+-":
            position += 1
        while position < len(text) and text[position].isdigit():
            position += 1
    literal = text[start:position]
    if not literal or literal == "-":
        raise JsonSyntaxError("bad number at offset {}".format(start))
    if is_double:
        return DoubleItem(float(literal)), position
    return IntegerItem(int(literal)), position
