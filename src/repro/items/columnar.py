"""The columnar substrate: shred decoded JSON records into typed batches.

The paper's premise is *mostly-regular* messy JSON: most records in a
block share one shape, a few do not.  This module exploits that
regularity the way *Scalable Querying of Nested Data* shreds nested
collections — per-key typed column vectors with validity codes
(present / null / missing), nested lists as offset arrays over one flat
member vector, and a **per-row escape hatch**: a record that does not
fit the block's inferred schema (non-object, unknown or re-ordered
keys, conflicting value types) is kept whole and boxed back into
ordinary :class:`~repro.items.Item` objects on demand, without
poisoning the sibling columns of the regular rows.

Batch consumers (see :mod:`repro.jsoniq.runtime.flwor.columnar`) run
tight per-column loops — three-valued predicate masks for pushdown and
count / group-by kernels over raw column values — and *unshredding*
rebuilds, per surviving row, the exact record dict the
row-at-a-time scan would have handed to ``LazyObjectItem``, so boxing at
the boundary is result-identical by construction.

A process-wide :class:`ColumnBatchCache` keeps shredded blocks keyed by
the file block's byte range and stat fingerprint (failfast reads only:
the tolerant parse modes report malformed lines to the fault ledger on
every scan, which a cache hit would silence).  Its lock is named in the
sanitizer hierarchy (``items.columnar.batch_cache``).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import compress
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.items.compare import (
    ABSENT,
    VALUE_OPS,
    family_decides,
    raw_family,
    raw_verdict,
)
from repro.sanitizer import san_lock, shared_state

#: Per-row, per-column validity codes.
PRESENT = 0
NULL = 1
MISSING = 2

#: Per-row predicate verdicts over a batch (see :meth:`apply_predicates`):
#: ``PRUNED`` rows are definitively rejected, ``VERIFIED`` rows proved
#: every pushed predicate true, ``RETAINED`` rows need the reference
#: re-check.  The last two never leave this module: a scan's consumers
#: see only the rows :meth:`MaskedBatch.survivors` resolved.
PRUNED = 0
RETAINED = 1
VERIFIED = 2

#: One predicate's three-valued verdict on a row -> the status it alone
#: would give the row.
_VERDICT_STATUS = {True: VERIFIED, False: PRUNED, None: RETAINED}

#: Column kinds.  ``number`` unifies integer and double columns;
#: ``mixed`` is the per-column escape (raw values, boxed on demand).
KIND_STRING = "string"
KIND_INTEGER = "integer"
KIND_DOUBLE = "double"
KIND_NUMBER = "number"
KIND_BOOLEAN = "boolean"
KIND_LIST = "list"
KIND_MIXED = "mixed"

#: Column kind -> the comparison family (``items.compare.raw_family``) of
#: every present value in such a column.
_KIND_FAMILY = {
    KIND_STRING: "string", KIND_INTEGER: "number", KIND_DOUBLE: "number",
    KIND_NUMBER: "number", KIND_BOOLEAN: "boolean",
}

#: How many leading records of a block the schema inference samples.
SCHEMA_SAMPLE = 64


def _kind_of_value(value) -> Optional[str]:
    """The column kind one decoded JSON value votes for (None = null,
    which is compatible with every kind)."""
    family = raw_family(value)
    if family == "number":
        return KIND_INTEGER if type(value) is int else KIND_DOUBLE
    if family is None:  # dicts and anything exotic are mixed
        return KIND_LIST if type(value) is list else KIND_MIXED
    # The string and boolean kinds are named after their family.
    return None if family == "null" else family


def _union_kinds(seen: Optional[str], kind: Optional[str]) -> Optional[str]:
    if kind is None:
        return seen
    if seen is None or seen == kind:
        return kind
    if {seen, kind} <= {KIND_INTEGER, KIND_DOUBLE, KIND_NUMBER}:
        return KIND_NUMBER
    return KIND_MIXED


def _value_fits(kind: str, value) -> bool:
    """Whether ``value`` can live in a column of ``kind`` without
    widening it (nulls fit everywhere)."""
    if value is None or kind == KIND_MIXED:
        return True
    t = type(value)
    if kind == KIND_STRING:
        return t is str
    if kind == KIND_BOOLEAN:
        return t is bool
    if kind == KIND_INTEGER:
        return t is int and not isinstance(value, bool)
    if kind == KIND_DOUBLE:
        return t is float
    if kind == KIND_NUMBER:
        return (t is int or t is float) and not isinstance(value, bool)
    if kind == KIND_LIST:
        return t is list
    return False


class BlockSchema:
    """The per-block shredding schema: an ordered key list plus a column
    kind per key, inferred from a sample and unioned across it."""

    __slots__ = ("keys", "kinds", "index")

    def __init__(self, keys: Sequence[str], kinds: Dict[str, str]):
        self.keys = tuple(keys)
        self.kinds = kinds
        self.index = {key: position for position, key in enumerate(keys)}

    def describe(self) -> str:
        return ", ".join(
            "{}:{}".format(key, self.kinds[key]) for key in self.keys
        )


def infer_schema(records: Sequence[object],
                 sample: int = SCHEMA_SAMPLE) -> Optional[BlockSchema]:
    """Infer a :class:`BlockSchema` from the first ``sample`` records.

    Returns None when the sample holds no objects at all (a fully
    heterogeneous block: every row escapes).
    """
    keys: List[str] = []
    kinds: Dict[str, Optional[str]] = {}
    saw_object = False
    for record in records[:sample]:
        if type(record) is not dict:
            continue
        saw_object = True
        for key, value in record.items():
            if key not in kinds:
                keys.append(key)
                kinds[key] = _kind_of_value(value)
            else:
                kinds[key] = _union_kinds(kinds[key], _kind_of_value(value))
    if not saw_object:
        return None
    return BlockSchema(
        keys, {key: kind or KIND_MIXED for key, kind in kinds.items()}
    )


class Column:
    """One typed column: a raw value vector plus a validity vector."""

    __slots__ = ("kind", "values", "validity")

    def __init__(self, kind: str):
        self.kind = kind
        self.values: List[object] = []
        self.validity: List[int] = []

    def append(self, value, flag: int) -> None:
        self.values.append(value)
        self.validity.append(flag)

    def read(self, row: int):
        """The raw value at ``row``: :data:`ABSENT`, None (JSON null) or
        the stored scalar."""
        flag = self.validity[row]
        if flag == PRESENT:
            return self.values[row]
        return None if flag == NULL else ABSENT

    def value_at(self, row: int):
        return self.values[row]


class ListColumn(Column):
    """Nested lists as an offset array over one flat member vector."""

    __slots__ = ("offsets", "flat")

    def __init__(self):
        super().__init__(KIND_LIST)
        self.offsets: List[int] = [0]
        self.flat: List[object] = []

    def append(self, value, flag: int) -> None:
        if flag == PRESENT:
            self.flat.extend(value)
        self.offsets.append(len(self.flat))
        self.values.append(None)  # scalar slot unused; offsets rule
        self.validity.append(flag)

    def read(self, row: int):
        flag = self.validity[row]
        if flag == PRESENT:
            return self.value_at(row)
        return None if flag == NULL else ABSENT

    def value_at(self, row: int):
        return self.flat[self.offsets[row]:self.offsets[row + 1]]


class ColumnBatch:
    """A shredded block: columns per schema key plus the escape hatch.

    Immutable after :func:`shred_records` builds it — cached batches are
    shared across queries and threads, so per-query state (predicate
    statuses) lives in :class:`MaskedBatch`, never here.
    """

    __slots__ = ("schema", "columns", "row_count", "escaped", "corrupt_rows")

    def __init__(self, schema: Optional[BlockSchema],
                 columns: Dict[str, Column], row_count: int,
                 escaped: Dict[int, object]):
        self.schema = schema
        self.columns = columns
        self.row_count = row_count
        #: row index -> raw decoded record for rows the shredder gave up
        #: on (non-objects, unknown/re-ordered keys, type conflicts).
        self.escaped = escaped
        #: rows holding a permissive-mode corrupt-record placeholder; a
        #: pushed scan prunes these unconditionally, matching the row
        #: path (set by ``shred_json_lines``).
        self.corrupt_rows: frozenset = frozenset()

    @property
    def shredded_count(self) -> int:
        return self.row_count - len(self.escaped)

    # -- Unshredding (the boxing boundary) --------------------------------------
    def rebuild_record(self, row: int):
        """The exact decoded record of a shredded row, in its original
        key order (shredding only admits rows whose key sequence is an
        in-order subsequence of the schema's)."""
        escaped = self.escaped.get(row, ABSENT)
        if escaped is not ABSENT:
            return escaped
        record = {}
        columns = self.columns
        for key in self.schema.keys:
            column = columns[key]
            flag = column.validity[row]
            if flag == MISSING:
                continue
            record[key] = None if flag == NULL else column.value_at(row)
        return record

    def unshred_row(self, row: int):
        """Box one row back into an Item — byte-identical to what the
        row-at-a-time scan builds for the same record."""
        from repro.jsoniq.jsonlines import _wrap_fast

        return _wrap_fast(self.rebuild_record(row))

    def iter_items(self) -> Iterator[object]:
        """Every row boxed, in row order (the plain boundary, no mask)."""
        for row in range(self.row_count):
            yield self.unshred_row(row)

    # -- Predicate masks ---------------------------------------------------------
    def apply_predicates(self, predicates: Sequence[object]) -> List[int]:
        """Evaluate pushed predicates over the batch, one vectorized mask
        per predicate, and combine them into per-row statuses.

        ``predicates`` are :class:`PushedPredicate`-shaped objects (a
        ``spec`` triple for the column kernels plus the ``raw`` closure
        used for escaped rows), in clause order.  Verdict combination
        matches ``iter_json_lines_pushed`` exactly: a row's first verdict
        that is not a definite True decides it — False prunes, unknown
        retains the row for the reference re-check (a *later* False must
        not prune it: the earlier where may raise on it) — and a row no
        predicate decides against is verified.
        """
        if not predicates:
            # No pushed predicates: nothing proves a row, nothing prunes
            # it — the row path would box everything unverified.
            return [RETAINED] * self.row_count
        statuses = None
        for predicate in predicates:
            decided = map(_VERDICT_STATUS.__getitem__, self._mask(predicate))
            statuses = list(decided) if statuses is None else [
                status if status != VERIFIED else verdict
                for status, verdict in zip(statuses, decided)
            ]
        # A permissive-mode corrupt record is pruned unconditionally by
        # the pushed row path (it holds only the corrupt field), even if
        # a predicate were to target that field — replicate exactly.
        for row in self.corrupt_rows:
            statuses[row] = PRUNED
        return statuses

    def _mask(self, predicate) -> List[Optional[bool]]:
        raw = predicate.raw
        mask = self._vector_mask(*predicate.spec)
        for row, record in self.escaped.items():
            mask[row] = raw(record) if type(record) is dict else False
        return mask

    def _vector_mask(self, left, right, value_op: str
                     ) -> List[Optional[bool]]:
        # Key-vs-literal over a homogeneous typed column: the tight loop.
        if left[0] == "key" and right[0] == "lit":
            fast = self._typed_compare(left[1], right[1], value_op,
                                       flipped=False)
            if fast is not None:
                return fast
        elif left[0] == "lit" and right[0] == "key":
            fast = self._typed_compare(right[1], left[1], value_op,
                                       flipped=True)
            if fast is not None:
                return fast
        # Generic path (key-vs-key, mixed columns): per-row verdicts
        # over raw column reads — still no boxing.
        read_left = self._operand_reader(left)
        read_right = self._operand_reader(right)
        return [
            raw_verdict(read_left(row), read_right(row), value_op)
            for row in range(self.row_count)
        ]

    def _typed_compare(self, key: str, literal, value_op: str,
                       flipped: bool) -> Optional[List[Optional[bool]]]:
        """The vectorized kernel for one typed column against a literal
        of the column's family — ``raw_verdict`` with the family test
        hoisted out of the loop — or None when the shapes don't line up."""
        column = self.columns.get(key)
        if column is None:
            # Key outside the schema: every shredded row misses it.
            return [False] * self.row_count
        family = _KIND_FAMILY.get(column.kind)
        if family != raw_family(literal) or not family_decides(
            family, value_op
        ):
            return None
        py_op = VALUE_OPS[value_op][0]
        values = column.values
        validity = column.validity
        if flipped:
            return [
                (py_op(literal, value) if flag == PRESENT
                 else None if flag == NULL else False)
                for value, flag in zip(values, validity)
            ]
        return [
            (py_op(value, literal) if flag == PRESENT
             else None if flag == NULL else False)
            for value, flag in zip(values, validity)
        ]

    def _operand_reader(self, spec) -> Callable[[int], object]:
        if spec[0] == "lit":
            literal = spec[1]
            return lambda row: literal
        column = self.columns.get(spec[1])
        if column is None:
            return lambda row: ABSENT
        return column.read


class MaskedBatch:
    """A batch plus this query's per-row predicate statuses.

    The batch itself may be shared through the cache; the statuses are
    private to one scan.
    """

    __slots__ = ("batch", "statuses")

    def __init__(self, batch: ColumnBatch, statuses: List[int]):
        self.batch = batch
        self.statuses = statuses

    @property
    def row_count(self) -> int:
        return self.batch.row_count

    def pruned_count(self) -> int:
        return self.statuses.count(PRUNED)

    def selected_count(self) -> int:
        return self.row_count - self.pruned_count()

    def survivors(self, recheck=None, boxed: bool = False):
        """The rows that pass, in row order — the one place a verdict is
        resolved.  A pruned row is skipped and a verified row passes; a
        row the masks could not decide is boxed and passes when
        ``recheck(item)`` (:meth:`PushdownPlan.recheck`: the covered
        where conditions, reference semantics and errors) says so, or
        unconditionally when there is nothing to re-check.  Yields row
        indices, or with ``boxed`` the rows' items (a re-checked row is
        boxed once)."""
        unshred = self.batch.unshred_row
        statuses = self.statuses
        # PRUNED is 0, so compress() skips the pruned rows at C speed.
        for row in compress(range(len(statuses)), statuses):
            item = None
            if recheck is not None and statuses[row] != VERIFIED:
                item = unshred(row)
                if not recheck(item):
                    continue
            if not boxed:
                yield row
            else:
                yield unshred(row) if item is None else item

    def iter_boxed(self, recheck=None):
        """Box every surviving row in row order — the automatic boundary
        to operators that still pull one Item at a time."""
        return self.survivors(recheck, boxed=True)


def shred_records(records: Sequence[object],
                  sample: int = SCHEMA_SAMPLE) -> ColumnBatch:
    """Shred decoded records into a :class:`ColumnBatch`.

    A row shreds only when it is an object whose key sequence is an
    in-order subsequence of the schema keys (so unshredding reproduces
    the original key order exactly) and whose values fit their columns'
    kinds; every other row takes the escape hatch.
    """
    schema = infer_schema(records, sample)
    escaped: Dict[int, object] = {}
    if schema is None:
        return ColumnBatch(
            None, {}, len(records),
            {row: record for row, record in enumerate(records)},
        )
    columns: Dict[str, Column] = {
        key: (ListColumn() if schema.kinds[key] == KIND_LIST
              else Column(schema.kinds[key]))
        for key in schema.keys
    }
    index = schema.index
    kinds = schema.kinds
    ordered = list(columns.items())
    for row, record in enumerate(records):
        fits = type(record) is dict
        if fits:
            previous = -1
            for key, value in record.items():
                position = index.get(key)
                if position is None or position <= previous or not _value_fits(
                    kinds[key], value
                ):
                    fits = False
                    break
                previous = position
        if not fits:
            escaped[row] = record
            for _, column in ordered:
                column.append(None, MISSING)
            continue
        for key, column in ordered:
            value = record.get(key, ABSENT)
            if value is ABSENT:
                column.append(None, MISSING)
            elif value is None:
                column.append(None, NULL)
            else:
                column.append(value, PRESENT)
    return ColumnBatch(schema, columns, len(records), escaped)


# ---------------------------------------------------------------------------
# The process-wide shredded-block cache
# ---------------------------------------------------------------------------

@shared_state
class ColumnBatchCache:
    """LRU cache of shredded blocks, keyed by block fingerprint.

    Process-wide like :class:`repro.spark.storage.FileSystemRegistry`:
    concurrent scans (serving threads, the thread executor mode) hit it
    from many threads, so every access runs under the hierarchy lock
    ``items.columnar.batch_cache``.  Entries are immutable batches; the
    fingerprint (path, byte range, size, mtime_ns) invalidates on any
    rewrite.
    """

    def __init__(self, capacity: int = 64):
        self._capacity = capacity
        self._entries: "OrderedDict[Tuple, ColumnBatch]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = san_lock("items.columnar.batch_cache")

    def get(self, key: Tuple) -> Optional[ColumnBatch]:
        with self._lock:
            batch = self._entries.get(key)
            if batch is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return batch

    def put(self, key: Tuple, batch: ColumnBatch) -> None:
        with self._lock:
            self._entries[key] = batch
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide instance the columnar scan consults.
BATCH_CACHE = ColumnBatchCache()
