"""Base class of expression runtime iterators.

The local API follows the established pull pattern of the paper's Section
5.5 — ``open()``, ``has_next()``, ``next()``, ``reset()``, ``close()`` —
and the Spark API is the pair ``is_rdd()`` / ``get_rdd()`` of Section 5.6.
Subclasses implement ``_generate`` (a generator over items, which backs
the pull API) and optionally the RDD hooks.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List, Optional

from repro.items import Item
from repro.jsoniq.errors import DynamicException, TypeException
from repro.jsoniq.runtime.dynamic_context import DynamicContext


#: Items per driver-side pull of :meth:`RuntimeIterator.iterate_batches`.
BATCH_SIZE = 256


def _obs_of(context: DynamicContext):
    """The enabled observability bundle of this run, or None.

    The guard is two attribute loads and a branch — the price every
    instrumented call site pays when profiling is off.
    """
    runtime = context.runtime
    if runtime is None:
        return None
    obs = getattr(runtime, "obs", None)
    if obs is None or not obs.enabled:
        return None
    return obs


def _cancel_of(context: DynamicContext):
    """The active request's cancel token, or None (library use).

    Same guard shape as :func:`_obs_of`: the un-cancellable path pays
    two attribute loads, so boundary checks stay free when no request
    lifecycle is attached.
    """
    runtime = context.runtime
    if runtime is None:
        return None
    return getattr(runtime, "cancel", None)


class RuntimeIterator:
    """An executable expression returning a sequence of items."""

    def __init__(self, children: Optional[List["RuntimeIterator"]] = None):
        self.children = children or []
        self._context: Optional[DynamicContext] = None
        self._generator: Optional[Iterator[Item]] = None
        self._lookahead: Optional[Item] = None
        self._exhausted = False
        self._is_open = False

    # -- Local API ---------------------------------------------------------------
    def open(self, context: DynamicContext) -> None:
        if self._is_open:
            raise DynamicException("iterator opened twice")
        self._is_open = True
        self._context = context
        self._generator = self._generate(context)
        self._lookahead = None
        self._exhausted = False

    def has_next(self) -> bool:
        self._require_open()
        if self._lookahead is not None:
            return True
        if self._exhausted:
            return False
        try:
            self._lookahead = next(self._generator)
            return True
        except StopIteration:
            self._exhausted = True
            return False

    def next(self) -> Item:
        if not self.has_next():
            raise DynamicException("next() called on exhausted iterator")
        item = self._lookahead
        self._lookahead = None
        return item

    def reset(self, context: DynamicContext) -> None:
        self._require_open()
        self._context = context
        self._generator = self._generate(context)
        self._lookahead = None
        self._exhausted = False

    def close(self) -> None:
        self._is_open = False
        self._generator = None
        self._lookahead = None

    def _require_open(self) -> None:
        if not self._is_open:
            raise DynamicException("iterator used before open()")

    # -- Convenience -----------------------------------------------------------------
    def iterate(self, context: DynamicContext) -> Iterator[Item]:
        """Stream the items of this expression in a fresh evaluation."""
        return self._generate(context)

    def materialize(self, context: DynamicContext) -> List[Item]:
        """Fully evaluate into a list, preferring the RDD path if available
        (seamless switching, paper Section 5.5)."""
        if self.is_rdd(context):
            obs = _obs_of(context)
            if obs is not None:
                obs.metrics.counter(
                    "rumble.execution.switches", via="materialize"
                ).inc()
            return self.get_rdd(context).collect()
        return list(self._generate(context))

    def evaluate_atomic(self, context: DynamicContext, what: str) -> Optional[Item]:
        """Evaluate to zero-or-one atomic item (None for empty)."""
        items = self.materialize_local(context, limit=2)
        if not items:
            return None
        if len(items) > 1:
            raise TypeException(
                "{} must be a single item, got a longer sequence".format(what)
            )
        item = items[0]
        if not item.is_atomic:
            raise TypeException(
                "{} must be atomic, got {}".format(what, item.type_name)
            )
        return item

    def evaluate_single(self, context: DynamicContext) -> Optional[Item]:
        """The first item of this expression, or None for empty.

        Fast path for call sites where *static inference already proved*
        the result is a single atomic of the right kind — it skips the
        two-item materialization, the singleton check and the atomicity
        check of :meth:`evaluate_atomic`.
        """
        for item in self._generate(context):
            return item
        return None

    def materialize_local(
        self, context: DynamicContext, limit: Optional[int] = None
    ) -> List[Item]:
        """Evaluate via the local API only (no Spark job), optionally
        stopping after ``limit`` items.

        Drains through ``list()``/``islice`` in C rather than an
        append-per-item Python loop — this is the per-row hot path of
        every EVALUATE_EXPRESSION call in the DataFrame mapping.
        """
        if limit is None:
            return list(self._generate(context))
        return list(islice(self._generate(context), limit))

    def iterate_batches(
        self, context: DynamicContext
    ) -> Iterator[List[Item]]:
        """Stream the result in chunks of up to :data:`BATCH_SIZE` items.

        The chunked consumption pattern of the driver-side paths
        (:class:`repro.core.results.SequenceOfItems`): one generator
        resumption per batch instead of per item.
        """
        cancel = _cancel_of(context)
        iterator = self.iterate(context)
        while True:
            if cancel is not None:
                # Driver-side consumption boundary: one check per batch
                # covers expressions that never cross a clause or
                # partition boundary (pure local pipelines).
                cancel.check()
            batch = list(islice(iterator, BATCH_SIZE))
            if not batch:
                return
            yield batch

    def effective_boolean_value(self, context: DynamicContext) -> bool:
        """The EBV of this expression's result (empty = false; a first
        non-atomic item in a longer sequence is a type error)."""
        generator = self._generate(context)
        try:
            first = next(generator)
        except StopIteration:
            return False
        try:
            next(generator)
        except StopIteration:
            return first.effective_boolean_value()
        # Sequence of length > 1: EBV defined only if first item is a node
        # in XQuery; in JSONiq this is an error.
        raise TypeException(
            "effective boolean value of a sequence of more than one item"
        )

    # -- Generation hook -----------------------------------------------------------------
    def _generate(self, context: DynamicContext) -> Iterator[Item]:
        """Yield the items of this expression under ``context``."""
        raise NotImplementedError

    # -- Spark API ------------------------------------------------------------------------
    def is_rdd(self, context: DynamicContext) -> bool:
        """Whether this expression can return its result as an RDD here."""
        return False

    def get_rdd(self, context: DynamicContext):
        """The result as an RDD of items; only valid when ``is_rdd``."""
        raise DynamicException(
            "{} cannot produce an RDD".format(type(self).__name__)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{}({} children)".format(type(self).__name__, len(self.children))


class TransformingIterator(RuntimeIterator):
    """An iterator whose semantics is a per-item transformation of one
    source child — the family that parallelizes as a flatMap (paper,
    Section 4.1.2).

    Subclasses implement ``_transform(item, context)`` returning an
    iterable of output items for one input item.  The local API streams;
    the RDD API applies the same transformation as a flatMap.
    """

    def __init__(self, source: RuntimeIterator,
                 extra_children: Optional[List[RuntimeIterator]] = None):
        super().__init__([source] + list(extra_children or []))
        self.source = source

    def _transform(self, item: Item, context: DynamicContext):
        raise NotImplementedError

    def _generate(self, context: DynamicContext) -> Iterator[Item]:
        for item in self.source.iterate(context):
            yield from self._transform(item, context)

    def is_rdd(self, context: DynamicContext) -> bool:
        return self.source.is_rdd(context)

    def get_rdd(self, context: DynamicContext):
        rdd = self.source.get_rdd(context)
        transform = self._transform
        return rdd.flat_map(lambda item: list(transform(item, context)))
