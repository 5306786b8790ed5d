"""The lineage-invalidated result cache.

Caches the *materialized result* of a query keyed on (normalized query,
literal values) and, crucially, on the fingerprints of every input the
plan reads.  The cache never answers from data that has changed:

* file-backed inputs (``json-file``, ``structured-json-file``,
  ``text-file``, ``csv-file``, ``json-doc``, URI-backed collections)
  are fingerprinted through :func:`repro.spark.storage.fingerprint_uri`
  — the expanded file list with per-file (size, mtime_ns), so appends,
  rotations, truncations and in-place edits all invalidate;
* in-memory collections are fingerprinted by the runtime's monotonic
  :attr:`~repro.core.engine.RumbleRuntime.collection_versions` counter,
  bumped by every ``register_collection``/``invalidate_collection``.

A plan is *uncacheable* — executed normally, never stored — when its
input set cannot be proven stable: a data-source path that is not a
compile-time constant (or plan-cache parameter), a call to a
nondeterministic builtin (``current-date`` and friends), external
variable bindings, or a result larger than ``max_items``.

Fingerprints are taken *before* execution, so a file mutated while the
query was running yields a stale fingerprint and the entry self-
invalidates on its next lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.core.results import SequenceOfItems
from repro.jsoniq.functions.io import (
    CollectionIterator,
    CsvFileIterator,
    JsonFileIterator,
    ParallelizeIterator,
    StructuredJsonFileIterator,
    TextFileIterator,
)
from repro.jsoniq.functions.registry import SimpleFunctionIterator
from repro.jsoniq.runtime.base import RuntimeIterator
from repro.jsoniq.runtime.primary import LiteralIterator, ParameterIterator
from repro.spark import storage
from repro.sanitizer import san_lock, shared_state

#: Builtins whose value depends on when they run, not on their inputs.
NONDETERMINISTIC_BUILTINS = frozenset(
    ("current-date", "current-dateTime", "current-time")
)

#: Simple functions that read a file their first argument names.
_FILE_SIMPLE_BUILTINS = frozenset(("json-doc",))


class Uncacheable(Exception):
    """Internal signal: this plan's inputs cannot be proven stable."""


class _MaterializedIterator(RuntimeIterator):
    """A cached result replayed as a local sequence."""

    def __init__(self, items):
        super().__init__()
        self._items = list(items)

    def _generate(self, context):
        return iter(self._items)


def _constant_string(operand: RuntimeIterator, context) -> str:
    """The value of a path/name argument, when it is plan-constant.

    Literal and parameter-slot operands are the only accepted shapes: a
    parameter's value is part of the cache key, so evaluating it against
    the prepared context is as stable as a literal.
    """
    if not isinstance(operand, (LiteralIterator, ParameterIterator)):
        raise Uncacheable()
    item = operand.evaluate_atomic(context, "cached source")
    if item is None or not item.is_string:
        raise Uncacheable()
    return item.value


def analyze_sources(iterator: RuntimeIterator, context) -> List[Tuple]:
    """The data sources a compiled plan reads, as fingerprintable specs.

    Walks the whole iterator tree (including UDF bodies reachable as
    children) and returns ``("uri", <uri>)`` / ``("collection", <name>)``
    specs.  Raises :class:`Uncacheable` on non-constant paths or
    nondeterministic builtins.
    """
    from repro.core.engine import _walk_iterators

    sources: List[Tuple] = []
    for node in _walk_iterators(iterator):
        if isinstance(node, (
            JsonFileIterator, StructuredJsonFileIterator,
            TextFileIterator, CsvFileIterator,
        )):
            sources.append(("uri", _constant_string(node.argument, context)))
        elif isinstance(node, CollectionIterator):
            sources.append(
                ("collection", _constant_string(node.argument, context))
            )
        elif isinstance(node, SimpleFunctionIterator):
            if node.name in NONDETERMINISTIC_BUILTINS:
                raise Uncacheable()
            if node.name in _FILE_SIMPLE_BUILTINS:
                sources.append(
                    ("uri", _constant_string(node.children[0], context))
                )
        elif isinstance(node, ParallelizeIterator):
            # Its input subtree is walked like any other child; nothing
            # extra to fingerprint at this node.
            pass
    # Deterministic order so fingerprint comparison is positional.
    return sorted(set(sources))


def fingerprint_sources(sources: List[Tuple], runtime) -> Tuple:
    """Current fingerprints of a source list, positionally aligned."""
    prints = []
    for kind, name in sources:
        if kind == "uri":
            prints.append(storage.fingerprint_uri(name))
        else:
            binding = runtime.collections.get(name)
            if isinstance(binding, str):
                # URI-backed collection: fingerprint the files AND the
                # registration version (re-register retargets the name).
                prints.append((
                    storage.fingerprint_uri(binding),
                    runtime.collection_versions.get(name, 0),
                ))
            else:
                prints.append(
                    ("memory", runtime.collection_versions.get(name, 0))
                )
    return tuple(prints)


class _Entry:
    __slots__ = ("sources", "fingerprints", "items")

    def __init__(self, sources, fingerprints, items):
        self.sources = sources
        self.fingerprints = fingerprints
        self.items = items


@shared_state
class ResultCache:
    """LRU cache of materialized query results with lineage validation.

    ``max_items`` bounds how large a result may be stored (larger results
    run uncached); it defaults to the engine's materialization cap scaled
    up so streaming consumers are not penalized by the cache's own
    materialization.
    """

    def __init__(self, capacity: int = 64, max_items: int = 10_000):
        if capacity < 1:
            raise ValueError("result cache capacity must be >= 1")
        self.capacity = capacity
        self.max_items = max_items
        self._lock = san_lock("server.result_cache")
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.uncacheable = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> int:
        """Drop every entry (memory-pressure eviction); returns how many.

        Counted as evictions: the entries were valid, the server just
        needed the memory back (see docs/robustness.md, degraded modes).
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.evictions += dropped
        return dropped

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "uncacheable": self.uncacheable,
            "entries": len(self._entries),
        }

    def _count(self, engine, outcome: str) -> None:
        obs = getattr(engine.runtime, "obs", None)
        if obs is not None and obs.enabled:
            obs.metrics.counter("rumble.resultcache." + outcome).inc()

    def lookup(self, engine, key) -> Optional[SequenceOfItems]:
        """A replayed result if a fresh entry exists, else None.

        Validation recomputes every source fingerprint under the current
        filesystem/collection state; a mismatch drops the entry.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            return None
        current = fingerprint_sources(entry.sources, engine.runtime)
        if current != entry.fingerprints:
            with self._lock:
                # Guard against a concurrent refresh having replaced it.
                if self._entries.get(key) is entry:
                    del self._entries[key]
                self.invalidations += 1
            self._count(engine, "invalidations")
            return None
        with self._lock:
            self.hits += 1
        self._count(engine, "hits")
        return self._wrap(engine, entry.items)

    def _wrap(self, engine, items) -> SequenceOfItems:
        return SequenceOfItems(
            _MaterializedIterator(items), engine.fresh_context(),
            engine.config,
        )

    def execute(self, engine, key, iterator, context,
                result: SequenceOfItems) -> SequenceOfItems:
        """Run ``result`` once, storing it when the plan is cacheable.

        Called on a lookup miss with the not-yet-consumed result handle.
        Returns either a materialized replayable handle (stored) or the
        original lazy handle (uncacheable / oversized).
        """
        try:
            sources = analyze_sources(iterator, context)
        except Uncacheable:
            with self._lock:
                self.uncacheable += 1
            self._count(engine, "uncacheable")
            return result
        # Snapshot lineage BEFORE the read (see module docstring).
        fingerprints = fingerprint_sources(sources, engine.runtime)
        items = result.take(self.max_items + 1)
        if len(items) > self.max_items:
            with self._lock:
                self.uncacheable += 1
            self._count(engine, "uncacheable")
            return result
        entry = _Entry(sources, fingerprints, items)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.misses += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        self._count(engine, "misses")
        return self._wrap(engine, items)
