"""The SequenceOfItems result API.

A query's result is logically a sequence of items; physically it may be an
RDD or a local stream — the user does not need to know (paper, Section
4.1.2).  This class exposes both: streaming/materializing accessors with
the configured cap, and parallel write-back when the root iterator
supports the RDD API (Section 5.4).
"""

from __future__ import annotations

import warnings
from typing import Iterator, List, Optional, Tuple

from repro.items import Item
from repro.jsoniq.errors import DynamicException
from repro.jsoniq.runtime.base import RuntimeIterator, _obs_of
from repro.jsoniq.runtime.dynamic_context import DynamicContext


class MaterializationCapExceeded(UserWarning):
    """More items were available than the configured materialization cap."""


class SequenceOfItems:
    """Handle on the (lazy) result of one query."""

    def __init__(self, iterator: RuntimeIterator, context: DynamicContext,
                 config):
        self._iterator = iterator
        self._context = context
        self._config = config

    # -- Physical layout ----------------------------------------------------------
    def is_rdd(self) -> bool:
        """Whether the result is physically available as an RDD."""
        return self._iterator.is_rdd(self._context)

    def rdd(self):
        """The result as an RDD of items (only when :meth:`is_rdd`)."""
        return self._iterator.get_rdd(self._context)

    # -- Local access ----------------------------------------------------------------
    def items(self) -> Iterator[Item]:
        """Stream every item (no cap — streaming does not materialize)."""
        if self.is_rdd():
            return self.rdd().to_local_iterator()
        return self._iterator.iterate(self._context)

    def take(self, count: int) -> List[Item]:
        if self.is_rdd():
            return self.rdd().take(count)
        return self._iterator.materialize_local(self._context, limit=count)

    def mode(self) -> str:
        """``"distributed"`` when the root iterator runs on the RDD /
        DataFrame path, ``"local"`` when it streams through the pull API."""
        return "distributed" if self.is_rdd() else "local"

    def first(self) -> Optional[Item]:
        taken = self.take(1)
        return taken[0] if taken else None

    def count(self) -> int:
        if self.is_rdd():
            return self.rdd().count()
        # Batched pulls: one generator resumption per chunk, not per item.
        return sum(
            len(batch)
            for batch in self._iterator.iterate_batches(self._context)
        )

    def collect_capped(
        self, cap: Optional[int] = None
    ) -> Tuple[List[Item], bool]:
        """Materialize on the driver: at most ``cap`` items (default: the
        configured cap) and whether more were available.  The one
        materializing core — it neither warns nor raises, so callers that
        print or ship a capped result (CLI, shell, server, profiler) need
        no warning filter."""
        limit = cap if cap is not None else self._config.materialization_cap
        taken = self.take(limit + 1)
        more = len(taken) > limit
        del taken[limit:]
        obs = _obs_of(self._context)
        if obs is not None:
            obs.metrics.counter("rumble.result.items").inc(len(taken))
        return taken, more

    def collect(self, cap: Optional[int] = None) -> List[Item]:
        """:meth:`collect_capped`, warning (or, with ``warn_on_cap`` off,
        raising) when the cap truncated the result."""
        items, more = self.collect_capped(cap)
        if more:
            message = (
                "result has more than {} items; truncating (raise the "
                "materialization cap or use items()/write_json_lines())"
                .format(len(items))
            )
            if not self._config.warn_on_cap:
                raise DynamicException(message, code="SENR0004")
            warnings.warn(message, MaterializationCapExceeded)
        return items

    def to_python(self, cap: Optional[int] = None) -> List[object]:
        return [item.to_python() for item in self.collect(cap)]

    def serialize(self, cap: Optional[int] = None) -> str:
        return "\n".join(item.serialize() for item in self.collect(cap))

    # -- DataFrame interop ---------------------------------------------------------------
    def to_dataframe(self, session=None):
        """Expose the result as a substrate DataFrame.

        Object items become rows (schema inferred, heterogeneity degrading
        exactly as ``spark.read.json`` would — the Figure 6 trade-off is
        explicit at this boundary); non-object items raise.  This is the
        bridge from JSONiq back into Spark SQL that newer Rumble releases
        offer as "getting a DataFrame out of a query".
        """
        from repro.jsoniq.errors import TypeException
        from repro.spark.dataframe import dataframe_from_rows

        if session is None:
            session = self._context.runtime.spark

        def rows():
            for item in self.items():
                if not item.is_object:
                    raise TypeException(
                        "to_dataframe() requires object items, got "
                        + item.type_name
                    )
                yield item.to_python()

        return dataframe_from_rows(session, rows())

    def create_or_replace_temp_view(self, name: str, session=None):
        """Register the result as a SQL temp view and return the frame."""
        frame = self.to_dataframe(session)
        frame.create_or_replace_temp_view(name)
        return frame

    # -- Parallel write-back ----------------------------------------------------------------
    def write_json_lines(self, uri: str) -> List[str]:
        """Write the result back to storage.

        When the root iterator is RDD-backed this happens in parallel with
        no driver materialization; otherwise a single partition is written.
        """
        if self.is_rdd():
            return self.rdd().map(lambda item: item.serialize()).save_as_text_file(uri)
        from repro.spark import storage

        lines = [item.serialize() for item in self.items()]
        return storage.write_partitioned_text(uri, [lines])

    def __iter__(self) -> Iterator[Item]:
        return self.items()
