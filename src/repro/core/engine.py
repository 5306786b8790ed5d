"""The Rumble engine façade.

Compile pipeline (paper, Figure 10): query text → lexer/parser → AST →
expression & clause tree with static contexts → runtime iterators →
execution (local or on the Spark substrate), all behind one class::

    rumble = Rumble()
    result = rumble.query('for $x in 1 to 3 return $x * 2')
    result.to_python()   # [2, 4, 6]
"""

from __future__ import annotations

import dataclasses
import warnings
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import OptimizerFlags, RumbleConfig
from repro.core.results import SequenceOfItems
from repro.items import Item, item_from_python
from repro.jsoniq import parser as jsoniq_parser
from repro.jsoniq import static_analysis
from repro.jsoniq.compiler import compile_main_module
from repro.jsoniq.runtime.base import RuntimeIterator
from repro.jsoniq.runtime.dynamic_context import DynamicContext
from repro.obs import NOOP, Observability, ProfileReport
from repro.spark import SparkConf, SparkSession


class RumbleRuntime:
    """What dynamic contexts carry: the Spark session, config, collections."""

    def __init__(self, spark: SparkSession, config: RumbleConfig):
        self.spark = spark
        self.config = config
        #: The scan optimizer switches, resolved once per engine from its
        #: config.  Every "is this optimization on" question reads this
        #: object; the shell's ``:codegen`` toggle swaps it.
        self.flags = OptimizerFlags.resolve(config)
        self.collections: Dict[str, object] = dict(config.collections)
        #: The observability bundle instrumentation sites consult.  The
        #: default is the shared disabled bundle, so per-row guards reduce
        #: to one attribute load and a falsy ``enabled`` check.
        self.obs = NOOP
        #: The active request's :class:`repro.cancellation.CancelToken`
        #: (None outside a request lifecycle).  Runtime iterators reach
        #: it as ``context.runtime.cancel`` for their clause-boundary
        #: checks; installed/restored by :meth:`Rumble.cancel_scope`.
        self.cancel = None
        #: Memoized collection RDDs: nested FLWOR closures re-evaluate
        #: ``collection(...)`` per tuple, so the RDD (and its cached
        #: partitions) is built once per name — the broadcast-variable
        #: role in real Spark.
        self.collection_rdds: Dict[str, object] = {}
        #: Monotonic version per registered collection — the lineage
        #: fingerprint of *in-memory* collections (file-backed ones are
        #: fingerprinted through the storage layer; docs/serving.md).
        self.collection_versions: Dict[str, int] = {}

    def invalidate_collection(self, name: str) -> None:
        self.collection_rdds.pop(name, None)
        self.collection_versions[name] = (
            self.collection_versions.get(name, 0) + 1
        )


class CompiledQuery:
    """A parsed, analysed and code-generated query, ready to run."""

    def __init__(self, engine: "Rumble", module, iterator: RuntimeIterator,
                 globals_: List[Tuple[str, RuntimeIterator]]):
        self._engine = engine
        self.module = module
        self.iterator = iterator
        self.globals = globals_

    def run(self, bindings: Optional[Dict[str, object]] = None,
            context: Optional[DynamicContext] = None,
            cancel=None) -> SequenceOfItems:
        """Execute, optionally binding external variables to Python values.

        ``context`` lets callers (the plan cache) supply a root context
        that already carries parameter-slot bindings.  ``cancel``
        installs a :class:`repro.cancellation.CancelToken` on the engine
        for this query; because execution is lazy it stays installed
        until replaced — callers that interleave queries should prefer
        :meth:`Rumble.cancel_scope`.
        """
        if cancel is not None:
            self._engine.install_cancel(cancel)
        if context is None:
            context = self._engine.fresh_context()
        if bindings:
            for name, value in bindings.items():
                context.bind(name, _to_items(value))
        for name, initializer in self.globals:
            context.bind(name, initializer.materialize(context))
        return SequenceOfItems(self.iterator, context, self._engine.config)

    def explain(self) -> str:
        """Human-readable AST, for debugging and the architecture tests."""
        return self.module.expression.describe()

    def physical_explain(self) -> str:
        """The physical plan: execution mode plus, for FLWOR roots, the
        Figure-9 mapping of each clause in the chain."""
        from repro.jsoniq.runtime.flwor.clauses import ReturnClauseIterator

        context = self._engine.fresh_context()
        lines = []
        iterator = self.iterator
        if isinstance(iterator, ReturnClauseIterator):
            mode = "dataframe/rdd" if iterator.is_rdd(context) else "local"
            lines.append("FLWOR [{} execution]".format(mode))
            chain = []
            clause = iterator
            while clause is not None:
                chain.append(clause)
                clause = getattr(clause, "input_clause", None)
            for clause in reversed(chain):
                lines.append("  {:<28} -> {}".format(
                    type(clause).__name__, clause.spark_mapping()
                ))
        else:
            mode = "rdd" if iterator.is_rdd(context) else "local"
            lines.append("{} [{} execution]".format(
                type(iterator).__name__, mode
            ))
        return "\n".join(lines)


def _walk_iterators(root):
    """DFS over a compiled iterator tree, following both expression
    children and clause chains (yields every reachable iterator once)."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(getattr(node, "children", ()) or ())
        for attribute in ("input_clause", "expression", "condition",
                          "fallback", "order_clause"):
            child = getattr(node, attribute, None)
            if child is not None:
                stack.append(child)
        # UDF call sites: the body hangs off the shared UserFunction, not
        # the children list (the seen-set makes recursive bodies safe).
        function = getattr(node, "function", None)
        body = getattr(function, "body", None)
        if body is not None:
            stack.append(body)


def _to_items(value: object) -> List[Item]:
    if isinstance(value, Item):
        return [value]
    if isinstance(value, (list, tuple)) and not isinstance(value, str):
        return [
            v if isinstance(v, Item) else item_from_python(v) for v in value
        ]
    return [item_from_python(value)]


class Rumble:
    """A JSONiq engine on top of the Spark substrate."""

    def __init__(self, spark: Optional[SparkSession] = None,
                 config: Optional[RumbleConfig] = None):
        self.spark = spark or SparkSession()
        self.config = config or RumbleConfig()
        context = self.spark.spark_context
        if self.config.adaptive is not None:
            context.adaptive.enabled = self.config.adaptive
        if self.config.memory_budget is not None:
            context.memory.set_budget(self.config.memory_budget)
        self.runtime = RumbleRuntime(self.spark, self.config)
        #: Normalized-AST plan cache (None when disabled): repeated query
        #: shapes skip the whole compile front-end.  See docs/serving.md.
        self.plan_cache = None
        if self.config.plan_cache_size:
            from repro.server.plan_cache import PlanCache

            self.plan_cache = PlanCache(self.config.plan_cache_size)
        #: Lineage-invalidated result cache (None when disabled): repeated
        #: identical queries over unchanged inputs replay materialized
        #: results.  See docs/serving.md.
        self.result_cache = None
        if self.config.result_cache_size:
            from repro.server.result_cache import ResultCache

            self.result_cache = ResultCache(self.config.result_cache_size)

    # -- Compilation ---------------------------------------------------------------
    def compile(self, query_text: str,
                external_variables: Optional[Iterable[str]] = None
                ) -> CompiledQuery:
        """Compile a query; ``external_variables`` names bindings the
        caller will supply to :meth:`CompiledQuery.run`."""
        module = jsoniq_parser.parse(query_text)
        static_analysis.analyse(module, external=external_variables or ())
        iterator, globals_ = compile_main_module(module)
        return CompiledQuery(self, module, iterator, globals_)

    # -- Request lifecycle -----------------------------------------------------------
    def install_cancel(self, token) -> None:
        """Install ``token`` as the engine's active cancel token.

        Three consumers read it: runtime iterators (FLWOR clause
        boundaries, via ``context.runtime.cancel``), the executor pool
        (partition-task boundaries) and driver-side RDD iteration.  One
        engine runs one query at a time (the serving layer serializes
        per session), so a single installed token is the whole protocol.
        """
        context = self.spark.spark_context
        self.runtime.cancel = token
        context.cancel = token
        context.executors.cancel = token

    @contextmanager
    def cancel_scope(self, token):
        """Install ``token`` for a ``with`` block, then restore.

        The scope must cover *consumption* of the result, not just
        :meth:`query` — execution is lazy, so the cooperative checks run
        while the sequence is being collected.
        """
        context = self.spark.spark_context
        previous = (
            self.runtime.cancel, context.cancel, context.executors.cancel
        )
        self.install_cancel(token)
        try:
            yield token
        finally:
            (self.runtime.cancel, context.cancel,
             context.executors.cancel) = previous

    # -- One-shot execution ----------------------------------------------------------
    def query(self, query_text: str,
              bindings: Optional[Dict[str, object]] = None,
              cancel=None) -> SequenceOfItems:
        # External bindings are host values outside the cache key: a
        # bound query always bypasses the result cache (the *plan* cache
        # still applies — binding names are part of its key).
        if cancel is not None:
            self.install_cancel(cancel)
        cache_results = self.result_cache is not None and not bindings
        if cache_results:
            cached = self.result_cache.lookup(self, query_text)
            if cached is not None:
                return cached
        if self.plan_cache is not None:
            plan, literals, _ = self.plan_cache.fetch(
                self, query_text,
                external=tuple(sorted(bindings or ())),
            )
            context = plan.prepare_context(literals)
            result = plan.run_with(literals, bindings, context=context)
            if cache_results:
                return self.result_cache.execute(
                    self, query_text, plan.iterator, context, result
                )
            return result
        compiled = self.compile(
            query_text, external_variables=bindings or ()
        )
        context = self.fresh_context()
        result = compiled.run(bindings, context=context)
        if cache_results:
            return self.result_cache.execute(
                self, query_text, compiled.iterator, context, result
            )
        return result

    # -- Static tooling ----------------------------------------------------------------
    def explain(self, query_text: str,
                external_variables: Optional[Iterable[str]] = None) -> str:
        """The statically annotated plan of a query, without running it.

        Every line shows a node with its inferred sequence type and
        planned execution mode (``local``/``rdd``/``dataframe``); an
        optimizer section follows with the engine toggles and what the
        pushdown planner decided for each FLWOR (projection, pushed
        predicates, top-k rewrites).
        """
        from repro.jsoniq.analysis.explain import render_module

        module = jsoniq_parser.parse(query_text)
        static_analysis.analyse(module, external=external_variables or ())
        lines = [render_module(module)]
        iterator, _ = compile_main_module(module)
        notes = self._optimizer_notes(iterator)
        if notes:
            lines.append("")
            lines.extend(notes)
        replan = self._adaptive_replan_notes()
        if replan:
            lines.append("")
            lines.extend(replan)
        shreds = self._columnar_scan_notes()
        if shreds:
            lines.append("")
            lines.extend(shreds)
        return "\n".join(lines)

    def _optimizer_notes(self, iterator: RuntimeIterator) -> List[str]:
        """The optimizer section of :meth:`explain`: global toggles plus
        each compiled FLWOR's pushdown decisions."""
        from repro.jsoniq.runtime.flwor.clauses import ReturnClauseIterator
        from repro.jsoniq.runtime.flwor.pushdown import SINK_GENERATED

        context = self.spark.spark_context
        memory = context.memory
        flags = self.runtime.flags

        def switch(on: bool) -> str:
            return "on" if on else "off"

        lines = [
            "Optimizer",
            "  fusion: " + switch(context.fusion_enabled),
            "  pushdown: " + switch(flags.pushdown),
            "  adaptive: " + switch(context.adaptive.enabled),
            "  memory budget: {}".format(
                "{} bytes".format(memory.budget)
                if memory.limited else "unbounded"
            ),
            "  columnar: " + switch(flags.columnar),
            "  codegen: " + switch(flags.codegen),
        ]
        decisions: List[str] = []
        sources: List[str] = []
        for root in _walk_iterators(iterator):
            if not isinstance(root, ReturnClauseIterator):
                continue
            plan = root.pushdown_plan
            if plan is not None:
                decisions.extend(
                    "    " + line for line in plan.describe(flags)
                )
                if plan.sink(flags) == SINK_GENERATED:
                    sources.append(plan.stage.source)
            if root.topk is not None:
                decisions.append(
                    "    top-k rewrite: heap keeps {} row(s), "
                    "full sort elided".format(root.topk.limit)
                )
        if decisions:
            lines.append("  scan/order decisions:")
            lines.extend(decisions)
        for index, source in enumerate(sources):
            lines.append("")
            lines.append("Generated stage {}".format(index + 1))
            lines.extend(
                "  " + line for line in source.rstrip("\n").split("\n")
            )
        return lines

    def _columnar_scan_notes(self) -> List[str]:
        """The post-run columnar section of :meth:`explain`: per-block
        shred statistics of the most recent execution's columnar scans.
        Empty until a columnar scan has run."""
        ledger = self.spark.spark_context.columnar
        entries = ledger.snapshot()
        if not entries:
            return []
        lines = ["Columnar (last run)"]
        for entry in entries:
            start, length = entry.get("block", (0, 0))
            lines.append(
                "  {}[{}:{}]: rows={} shredded={} escaped={} pruned={}"
                " cache={} schema=({})".format(
                    entry.get("path", "?"), start, start + length,
                    entry.get("rows", 0), entry.get("shredded", 0),
                    entry.get("escaped", 0), entry.get("pruned", 0),
                    "hit" if entry.get("cache_hit") else "miss",
                    entry.get("schema", ""),
                )
            )
        if ledger.truncated:
            lines.append(
                "  ... {} more block(s) not recorded".format(
                    ledger.truncated
                )
            )
        return lines

    def _adaptive_replan_notes(self) -> List[str]:
        """The post-run adaptive section of :meth:`explain`: what the
        runtime re-planned during the most recent execution, with the
        measured statistics that triggered each decision.  Empty until a
        query has run (or when nothing was adapted)."""
        entries = self.spark.spark_context.adaptive.entries
        if not entries:
            return []
        lines = ["Adaptive re-plan (last run)"]
        for entry in entries:
            if entry.get("kind") == "join":
                lines.append(
                    "  join: {} -> {} (measured rows: left={}, right={},"
                    " broadcast threshold={})".format(
                        entry["initial"], entry["final"],
                        entry["left_rows"], entry["right_rows"],
                        entry["threshold"],
                    )
                )
                continue
            unit = "bytes" if entry.get("weighed") else "records"
            if entry.get("coalesced", 0) > 0:
                lines.append(
                    "  {}: {} buckets -> {} partitions "
                    "({} coalesced; target {} {})".format(
                        entry.get("name", "shuffle"), entry["buckets"],
                        entry["partitions"], entry["coalesced"],
                        entry["target"], unit,
                    )
                )
            for split in entry.get("splits", ()):
                lines.append(
                    "  {}: skewed bucket {} split into {} sub-tasks "
                    "({} {} vs. median {})".format(
                        entry.get("name", "shuffle"), split["bucket"],
                        split["subtasks"], split["weight"], unit,
                        split["median"],
                    )
                )
        return lines

    def lint(self, query_text: str):
        """Diagnostics for a query (see docs/static_typing.md)."""
        from repro.jsoniq.analysis.linter import lint_query

        return lint_query(query_text)

    # -- Profiled execution ------------------------------------------------------------
    def profile(self, query_text: str,
                bindings: Optional[Dict[str, object]] = None,
                cap: Optional[int] = None) -> ProfileReport:
        """Run a query under full observability and return the report.

        The compile pipeline runs phase by phase under tracing spans
        (lex, parse, static-analysis, compile, optimize, execute), the
        substrate emits stage/task/shuffle events, and every instrumented
        row path counts into the metrics registry.  The report carries
        the query result, so profiling never means running twice.
        """
        from repro.jsoniq.lexer import tokenize
        from repro.obs.events import QUERY_END, QUERY_START

        obs = Observability(enabled=True)
        previous = self.runtime.obs
        self.runtime.obs = obs
        obs.attach(self.spark.spark_context)
        obs.events.emit(QUERY_START, query=query_text)
        mode = "local"
        try:
            with obs.tracer.span("query", query=query_text) as root:
                with obs.tracer.span("lex") as lex_span:
                    tokens = tokenize(query_text)
                    lex_span.attributes["tokens"] = len(tokens)
                with obs.tracer.span("parse"):
                    module = jsoniq_parser.parse(query_text)
                with obs.tracer.span("static-analysis"):
                    static_analysis.analyse(
                        module, external=tuple(bindings or ()), obs=obs
                    )
                with obs.tracer.span("compile"):
                    from repro.jsoniq.compiler import Compiler

                    compiler = Compiler()
                    iterator, globals_ = compiler.compile_module(module)
                    for kind, fired in compiler.stats.items():
                        if not fired:
                            continue
                        if kind.startswith("codegen_"):
                            # The emitter's specialization tally; only
                            # meaningful (and only reported) when the
                            # generated stage can actually run.
                            if self.runtime.flags.codegen:
                                obs.metrics.counter(
                                    "rumble.codegen.specialized",
                                    kind=kind[len("codegen_"):],
                                ).inc(fired)
                            continue
                        obs.metrics.counter(
                            "rumble.static.fastpath", kind=kind
                        ).inc(fired)
                    compiled = CompiledQuery(self, module, iterator, globals_)
                with obs.tracer.span("optimize") as opt_span:
                    # Physical planning: choose the execution mode per
                    # clause chain (the Figure-9 mapping).
                    opt_span.attributes["plan"] = compiled.physical_explain()
                with obs.tracer.span("execute") as exec_span:
                    result = compiled.run(bindings)
                    mode = "distributed" if result.is_rdd() else "local"
                    exec_span.attributes["mode"] = mode
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        items = result.collect(cap)
            obs.events.emit(
                QUERY_END, query=query_text, mode=mode, items=len(items)
            )
        finally:
            self.runtime.obs = previous
            obs.detach(self.spark.spark_context)
        return ProfileReport(
            query=query_text,
            root_span=root,
            metrics=obs.metrics.snapshot(),
            events=obs.events.events,
            items=items,
            mode=mode,
        )

    # -- Environment -------------------------------------------------------------------
    def fresh_context(self) -> DynamicContext:
        return DynamicContext(runtime=self.runtime)

    def register_collection(self, name: str, source: object) -> None:
        """Make ``collection(name)`` resolve to a storage URI (str) or an
        in-memory iterable of items / plain Python values."""
        if not isinstance(source, str):
            source = list(source)
        self.runtime.collections[name] = source
        self.runtime.invalidate_collection(name)

    def mount(self, scheme: str, root: str) -> None:
        """Serve ``scheme://`` URIs (hdfs, s3) from a local directory."""
        from repro.spark import storage

        storage.REGISTRY.mount(scheme, root)


def make_engine(
    executors: int = 4,
    parallelism: int = 8,
    block_size: Optional[int] = None,
    config: Optional[RumbleConfig] = None,
    fault_plan: Optional[object] = None,
    max_retries: Optional[int] = None,
    speculation: Optional[bool] = None,
    blacklist_threshold: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retry_backoff: Optional[float] = None,
    fusion: Optional[bool] = None,
    pushdown: Optional[bool] = None,
    adaptive: Optional[bool] = None,
    memory_budget: Optional[int] = None,
    columnar: Optional[bool] = None,
    codegen: Optional[bool] = None,
) -> Rumble:
    """Build an engine with an explicitly sized substrate cluster.

    ``block_size`` controls the storage layer's input-split size, hence
    how many partitions (tasks) a ``json-file()`` read produces — the knob
    the cluster benchmarks use to get realistic task counts.

    ``fault_plan`` installs a :class:`repro.spark.FaultPlan` (the chaos
    harness); the remaining keyword arguments override the fault-
    tolerance defaults documented in docs/fault_tolerance.md.

    ``fusion`` toggles narrow-transformation fusion in the substrate and
    ``pushdown`` the engine's scan/order optimizations — the ablation
    pair the benchmark regression suite measures (docs/performance.md).

    ``adaptive`` toggles adaptive query execution (runtime partition
    coalescing, skew splitting, join re-planning) and ``memory_budget``
    bounds the unified memory pool in bytes, enabling LRU eviction of
    cached partitions and shuffle-bucket spill (docs/performance.md).

    ``columnar`` toggles the vectorized columnar scan (shredded typed
    batches + predicate masks + batch kernels; docs/performance.md,
    "Columnar execution").

    ``codegen`` toggles whole-stage code generation (eligible pipelines
    compile into one generated Python loop over the columnar batches;
    docs/performance.md, "Whole-stage code generation").
    """
    conf = SparkConf()
    conf.set("spark.executor.instances", executors)
    conf.set("spark.default.parallelism", parallelism)
    if block_size is not None:
        conf.set("spark.storage.blockSize", block_size)
    if fault_plan is not None:
        conf.set("spark.chaos.plan", fault_plan)
    if max_retries is not None:
        conf.set("spark.task.maxRetries", max_retries)
    if speculation is not None:
        conf.set("spark.speculation", speculation)
    if blacklist_threshold is not None:
        conf.set("spark.blacklist.threshold", blacklist_threshold)
    if task_timeout is not None:
        conf.set("spark.task.timeoutSeconds", task_timeout)
    if retry_backoff is not None:
        conf.set("spark.task.retryBackoffSeconds", retry_backoff)
    if fusion is not None:
        conf.set("spark.fusion.enabled", fusion)
    if adaptive is not None:
        conf.set("spark.adaptive.enabled", adaptive)
    if memory_budget is not None:
        conf.set("spark.memory.budgetBytes", memory_budget)
    overrides = {
        name: value
        for name, value in {
            "pushdown": pushdown, "columnar": columnar, "codegen": codegen,
        }.items()
        if value is not None
    }
    if overrides:
        # A copy: the caller's config may build other engines.
        config = dataclasses.replace(config or RumbleConfig(), **overrides)
    from repro.spark import SparkContext

    return Rumble(SparkSession(SparkContext(conf)), config)
