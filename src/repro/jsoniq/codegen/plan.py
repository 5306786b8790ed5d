"""The generated stage's runtime entry point.

The compile-time half lives with the scan plan: ``pushdown.annotate``
runs the emitter over every chain that fits the whole-stage shape and
records the :class:`~repro.jsoniq.codegen.emitter.EmittedStage` (or the
declined reason) on the chain's
:class:`~repro.jsoniq.runtime.flwor.pushdown.PushdownPlan`.

``stage_rdd`` is the runtime half: ``ReturnClauseIterator.get_rdd``
offers it the plan first; when the runtime's flags resolve the plan to
the generated sink it compiles the emitted source (once per plan — the
server PlanCache keeps the compiled function warm across executions)
and maps it over the masked batch RDD.  Otherwise it returns None and
the interpreter runs unchanged.
"""

from __future__ import annotations


class _RuntimeBundle:
    """Everything the generated loop borrows from the interpreter."""

    __slots__ = (
        "wrap", "ref_emit", "recheck", "fallback_rows", "params",
        "absent", "list_column",
    )

    def __init__(self, wrap, ref_emit, recheck, fallback_rows, params,
                 absent, list_column):
        self.wrap = wrap
        self.ref_emit = ref_emit
        self.recheck = recheck
        self.fallback_rows = fallback_rows
        self.params = params
        self.absent = absent
        self.list_column = list_column


def _stage_function(plan, obs=None):
    """The compiled stage function, memoized on the plan: under the
    server PlanCache the plan object itself is what gets reused, so a
    warm query shape skips emission *and* ``compile()``."""
    if plan.stage_function is None:
        namespace = {}
        code = compile(
            plan.stage.source,
            "<codegen:${}>".format(plan.variable),
            "exec",
        )
        exec(code, namespace)
        plan.stage_function = namespace["_codegen_stage"]
        if obs is not None:
            obs.metrics.counter("rumble.codegen.compiled").inc()
    elif obs is not None:
        obs.metrics.counter("rumble.codegen.cache_hits").inc()
    return plan.stage_function


def stage_rdd(plan, expression, context):
    """The generated stage's RDD over ``plan``'s batches (``expression``
    is the return expression the stage was emitted for), or None to run
    the interpreter."""
    from repro.items.columnar import ListColumn
    from repro.items.compare import ABSENT
    from repro.jsoniq.jsonlines import _wrap_fast
    from repro.jsoniq.runtime.base import _obs_of
    from repro.jsoniq.runtime.flwor.clauses import _row_context
    from repro.jsoniq.runtime.flwor.pushdown import SINK_GENERATED

    batches = plan.batches(context, SINK_GENERATED)
    if batches is None:
        return None
    variable = plan.variable
    obs = _obs_of(context)
    function = _stage_function(plan, obs)
    if obs is not None:
        obs.metrics.counter("rumble.codegen.taken").inc()
        fallback_rows = obs.metrics.counter("rumble.codegen.fallback_rows")
    else:
        fallback_rows = None

    def ref_emit(item):
        return expression.materialize_local(
            _row_context(context, {variable: [item]})
        )

    bundle = _RuntimeBundle(
        wrap=_wrap_fast,
        ref_emit=ref_emit,
        recheck=plan.recheck(context),
        fallback_rows=fallback_rows,
        params=tuple(
            node.materialize_local(context)[0].to_python()
            for node in plan.stage.params
        ),
        absent=ABSENT,
        list_column=ListColumn,
    )

    def run(parts):
        return function(parts, bundle)

    return batches.map_partitions(run)
