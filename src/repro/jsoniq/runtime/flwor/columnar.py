"""Columnar consumers of the scan plan: the batch kernels.

A :class:`~repro.jsoniq.runtime.flwor.pushdown.PushdownPlan` hands its
:class:`~repro.items.columnar.MaskedBatch` RDD to one of these sinks
(``pushdown.annotate`` decides at compile time which ones the chain's
shape admits; ``plan.batches`` decides at run time whether the flags
allow it):

* **count kernel** — ``count(for $v in json-file(...) where ... return
  $v)`` counts each batch's survivors without boxing a single decided
  row (:func:`rdd_count`, from ``ReturnClauseIterator.rdd_count``);
* **group-by count kernel** — a group-by on ``$v.key`` keys whose
  non-grouping variable is only counted pre-aggregates each batch into
  one partial row per (partition, key), feeding the existing
  shuffle/aggregation machinery with per-key counts instead of per-row
  tuples (:class:`GroupByCountKernel`, from
  ``GroupByClauseIterator.get_dataframe``).

(The default sink — boxing surviving rows for the clause iterators — is
``PushdownPlan.items``; the generated loop is jsoniq/codegen/.)  Every
sink takes its rows from ``MaskedBatch.survivors(plan.recheck(...))``:
a row the masks could not decide is boxed and re-checked through the
*original* where conditions there, so semantics — errors included —
match the reference row path exactly and no sink sees a verdict.
"""

from __future__ import annotations

from typing import Optional

from repro.items.compare import (
    ABSENT,
    grouping_key,
    raw_sort_key,
    single_atomic_key,
)


class GroupByCountKernel:
    """Pre-aggregate masked batches into partial group rows.

    Eligible shape: the group-by's whole upstream is the head scan plus
    covered wheres, every grouping key is ``$k := $v.key``, and the scan
    variable is only counted (or unused) downstream.  The kernel's
    partial rows carry the same columns the reference ``encode`` emits —
    boxed key items, the three native key columns, a
    ``CountedSequence`` for the scan variable — so the existing
    group/aggregate/order machinery merges them unchanged.
    """

    def __init__(self, plan, keys, usage: str):
        #: The chain's :class:`PushdownPlan`.
        self.plan = plan
        #: [(grouping-variable name, raw record key)] in clause order.
        self.keys = keys
        self.usage = usage

    @classmethod
    def for_clause(cls, plan, groupby) -> Optional["GroupByCountKernel"]:
        """The kernel for ``groupby`` (the first clause after the plan's
        covered where prefix), or None when its shape is not eligible."""
        from repro.jsoniq.runtime.flwor.clauses import (
            USAGE_COUNT_ONLY,
            USAGE_MATERIALIZE,
            USAGE_UNUSED,
            _constant_lookup,
        )

        keys = []
        for name, expression in groupby.keys:
            lookup = (
                _constant_lookup(expression)
                if expression is not None else None
            )
            if (
                lookup is None or lookup[0] != plan.variable
                or name == plan.variable
            ):
                return None
            keys.append((name, lookup[1]))
        usage = groupby.variable_usage.get(plan.variable, USAGE_MATERIALIZE)
        if usage not in (USAGE_COUNT_ONLY, USAGE_UNUSED):
            return None
        return cls(plan, keys, usage)

    def partial_rows(self, context):
        """The RDD of partial rows, or None when the runtime's flags rule
        the kernel out (caller falls back to the reference path)."""
        from repro.jsoniq.jsonlines import _wrap_fast
        from repro.jsoniq.runtime.base import _obs_of
        from repro.jsoniq.runtime.flwor.clauses import (
            USAGE_COUNT_ONLY,
            native_columns,
        )
        from repro.jsoniq.runtime.flwor.pushdown import SINK_GROUP
        from repro.jsoniq.runtime.flwor.tuples import CountedSequence

        plan = self.plan
        rdd = plan.batches(context, SINK_GROUP)
        if rdd is None:
            return None
        recheck = plan.recheck(context)
        variable = plan.variable
        count_only = self.usage == USAGE_COUNT_ONLY
        key_specs = tuple(self.keys)
        native_names = [
            column for name, _ in key_specs for column in native_columns(name)
        ]
        obs = _obs_of(context)
        if obs is not None:
            obs.metrics.counter("rumble.columnar.group_kernel").inc()

        def reference_key(name, value):
            """The reference: the clause's own check words the error."""
            return grouping_key(single_atomic_key([_wrap_fast(value)], name))

        def partials(batches):
            # flat native cells (three per key; one tuple per group keeps
            # the collector's work down) -> [key raw values, count]
            groups = {}
            for masked in batches:
                batch = masked.batch
                escaped = batch.escaped
                columns = batch.columns
                readers = [
                    (name, key, columns.get(key)) for name, key in key_specs
                ]
                for row in masked.survivors(recheck):
                    native = []
                    raw_values = []
                    record = escaped.get(row, ABSENT)
                    for name, key, column in readers:
                        if record is ABSENT:
                            value = (
                                column.read(row) if column is not None
                                else ABSENT
                            )
                        elif type(record) is dict:
                            value = record.get(key, ABSENT)
                        else:
                            value = ABSENT
                        raw_values.append(value)
                        native.extend(
                            raw_sort_key(value) or reference_key(name, value)
                        )
                    native = tuple(native)
                    entry = groups.get(native)
                    if entry is None:
                        groups[native] = [raw_values, 1]
                    else:
                        entry[1] += 1
            # First-encounter order; the downstream ORDER BY on the
            # native columns makes the final order deterministic anyway.
            for native, (raw_values, count) in groups.items():
                out = {}
                for (name, _key), value in zip(key_specs, raw_values):
                    out[name] = (
                        [] if value is ABSENT else [_wrap_fast(value)]
                    )
                out.update(zip(native_names, native))
                if count_only:
                    out[variable] = CountedSequence(count)
                yield out

        return rdd.map_partitions(partials)


def rdd_count(plan, context) -> Optional[int]:
    """The count kernel: sum per-batch surviving-row counts.

    Rows the masks decided are counted without boxing; undecided rows
    box and re-check the covered wheres.  Returns None when the
    runtime's flags resolve ``plan`` to another sink — the caller
    (``CountIterator``) falls back to the reference
    ``get_rdd().count()``.
    """
    from repro.jsoniq.runtime.base import _obs_of
    from repro.jsoniq.runtime.flwor.pushdown import SINK_COUNT

    rdd = plan.batches(context, SINK_COUNT)
    if rdd is None:
        return None
    recheck = plan.recheck(context)
    obs = _obs_of(context)
    if obs is not None:
        obs.metrics.counter("rumble.columnar.count_kernel").inc()

    def count_partition(batches):
        total = 0
        for masked in batches:
            if recheck is None:
                total += masked.selected_count()
            else:
                total += sum(1 for _ in masked.survivors(recheck))
        yield total

    return sum(rdd.map_partitions(count_partition).collect())
