"""FLWOR tuples: assignments of variables to materialized sequences.

A tuple (in the FLWOR sense — *not* a database tuple, see the paper's
footnote in Section 4.2) maps variable names to sequences of items.  The
sequences inside a tuple are always local materializations, as they are
typically small.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.items import NULL, Item
from repro.jsoniq.runtime.dynamic_context import DynamicContext


class CountedSequence:
    """A sequence known only by its length.

    Produced by the group-by clause for non-grouping variables that the
    static analysis proved are only ever counted (paper, Section 4.7:
    "COUNT() is invoked in Spark SQL instead of materializing").  Iterating
    yields placeholder nulls, so ``count($v)`` is exact while memory stays
    O(1); any other use would be a bug in the usage analysis.
    """

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Item]:
        return iter([NULL] * self.count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CountedSequence({})".format(self.count)


class RddSequence:
    """A tuple binding backed by an RDD of items.

    Produced by a leading ``let`` whose expression is RDD-capable: the
    sequence stays distributed, so consumers like ``count($xs)`` run as
    Spark actions (paper, Section 5.5) instead of materializing.  Iterating
    streams through the driver; ``materialize()`` collects once.
    """

    __slots__ = ("rdd", "_materialized")

    def __init__(self, rdd):
        self.rdd = rdd
        self._materialized = None

    def materialize(self) -> List[Item]:
        if self._materialized is None:
            self._materialized = self.rdd.collect()
        return self._materialized

    def __iter__(self) -> Iterator[Item]:
        if self._materialized is not None:
            return iter(self._materialized)
        return self.rdd.to_local_iterator()

    def __len__(self) -> int:
        return len(self.materialize())


class FlworTuple:
    """One tuple of the stream flowing between FLWOR clauses."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Dict[str, object] | None = None):
        self.bindings = bindings or {}

    def extend(self, name: str, items) -> "FlworTuple":
        """A new tuple with one more (or re-declared) variable."""
        bindings = dict(self.bindings)
        bindings[name] = items
        return FlworTuple(bindings)

    def get(self, name: str) -> List[Item]:
        value = self.bindings[name]
        if isinstance(value, CountedSequence):
            return list(value)
        if isinstance(value, RddSequence):
            return value.materialize()
        return value

    def has(self, name: str) -> bool:
        return name in self.bindings

    def variables(self) -> List[str]:
        return list(self.bindings.keys())

    def to_context(self, parent: DynamicContext) -> DynamicContext:
        """Expose the tuple's bindings as a dynamic context.

        Bindings are shared, not copied: tuples are immutable once built,
        so the context can alias their sequences."""
        context = parent.child()
        for name, value in self.bindings.items():
            if isinstance(value, CountedSequence):
                context.bind_counted(name, value)
            elif isinstance(value, RddSequence):
                context.bind_rdd(name, value.rdd)
            else:
                context.bind_shared(name, value)
        return context

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FlworTuple({})".format(
            {k: len(v) if hasattr(v, "__len__") else v
             for k, v in self.bindings.items()}
        )
