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
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import OptimizerFlags, RumbleConfig
from repro.core.results import SequenceOfItems
from repro.items import Item, item_from_python
from repro.jsoniq import static_analysis
from repro.jsoniq.compiler import Compiler
from repro.jsoniq.lexer import Token, tokenize
from repro.jsoniq.parser import Parser
from repro.jsoniq.runtime.base import RuntimeIterator
from repro.jsoniq.runtime.dynamic_context import DynamicContext
from repro.jsoniq.runtime.primary import LiteralIterator
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
                 globals_: List[Tuple[str, RuntimeIterator]],
                 slots: Tuple[int, ...] = ()):
        self._engine = engine
        self.module = module
        self.iterator = iterator
        self.globals = globals_
        #: Ordinals of the literal tokens this plan reads as parameters
        #: (``()`` unless compiled for :mod:`repro.server.plan_cache`).
        self.slots = slots

    def context(self, literals=()) -> DynamicContext:
        """A root context with one run's parameters bound: the
        :attr:`slots` of ``literals``, the text's literal tokens."""
        context = self._engine.fresh_context()
        for ordinal in self.slots:
            literal = literals[ordinal]
            context.bind_shared(
                "#{}".format(ordinal),
                [LiteralIterator(literal.kind, literal.value).item],
            )
        return context

    def run(self, bindings: Optional[Dict[str, object]] = None,
            context: Optional[DynamicContext] = None,
            cancel=None) -> SequenceOfItems:
        """Execute, optionally binding external variables to Python
        values.  ``context`` comes from :meth:`context` (a plan with
        slots needs one); ``cancel`` is installed as by
        :meth:`Rumble.install_cancel` and, execution being lazy, stays
        until replaced (see :meth:`Rumble.cancel_scope`)."""
        if cancel is not None:
            self._engine.install_cancel(cancel)
        if context is None:
            context = self.context()
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
    def lex(self, query_text: str) -> List[Token]:
        """Step one of :meth:`compile`, on its own so the plan cache can
        look a shape up between it and the rest."""
        with self.runtime.obs.tracer.span("lex") as span:
            tokens = tokenize(query_text)
            span.set_attribute("tokens", len(tokens))
        return tokens

    def compile(self, query_text: str,
                external_variables: Optional[Iterable[str]] = None,
                tokens: Optional[List[Token]] = None,
                literals=None) -> CompiledQuery:
        """The one front-end (paper, Figure 10): tokens → AST → static
        analysis → parameter slots → runtime iterators, each phase under
        its span.  ``external_variables`` names bindings the caller will
        supply to :meth:`CompiledQuery.run`; the plan cache passes the
        ``tokens`` it lexed and their ``literals`` (to become slots)."""
        obs = self.runtime.obs
        tracer = obs.tracer
        if tokens is None:
            tokens = self.lex(query_text)
        with tracer.span("parse"):
            module = Parser(tokens).parse_module()
        with tracer.span("static-analysis"):
            static_analysis.analyse(
                module, external=external_variables or (), obs=obs
            )
        slots = ()
        if literals is not None:
            from repro.server.plan_cache import assign_parameter_slots

            slots = assign_parameter_slots(module, literals)
        with tracer.span("compile"):
            compiler = Compiler()
            iterator, globals_ = compiler.compile_module(module)
            compiled = CompiledQuery(self, module, iterator, globals_, slots)
            if obs.enabled:
                compiler.count_into(obs.metrics, self.runtime.flags.codegen)
        with tracer.span("optimize") as span:
            # Physical planning (Figure 9), rendered only when kept.
            if tracer.enabled:
                span.set_attribute("plan", compiled.physical_explain())
        return compiled

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
        """The one text → items path: result-cache lookup, the compiled
        plan (from the plan cache or :meth:`compile`), one run."""
        if cancel is not None:
            self.install_cancel(cancel)
        # External bindings are host values outside the cache key: a
        # bound query bypasses the result cache (not the plan cache:
        # binding names are part of its key).
        cache_results = self.result_cache is not None and not bindings
        if cache_results:
            cached = self.result_cache.lookup(self, query_text)
            if cached is not None:
                return cached
        external = tuple(sorted(bindings or ()))
        literals = ()
        if self.plan_cache is not None:
            compiled, literals, _ = self.plan_cache.fetch(
                self, query_text, external
            )
        else:
            compiled = self.compile(query_text, external)
        context = compiled.context(literals)
        # ``execute`` opens wherever items are materialized: here (globals
        # and the result-cache fill, whose mode is the lazy handle's, not
        # the replay's) and in whoever collects the result.
        with self.runtime.obs.tracer.span("execute") as span:
            result = compiled.run(bindings, context=context)
            span.set_attribute("mode", result.mode())
            if cache_results:
                result = self.result_cache.execute(
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

        compiled = self.compile(query_text, external_variables)
        sections = (
            [render_module(compiled.module)],
            self._optimizer_notes(compiled.iterator),
            self._adaptive_replan_notes(),
            self._columnar_scan_notes(),
        )
        return "\n\n".join(
            "\n".join(section) for section in sections if section
        )

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
    @contextmanager
    def _observed(self, obs: Observability):
        """Install ``obs`` as the engine's bundle and attach it to the
        substrate for a ``with`` block, then restore both."""
        previous = self.runtime.obs
        self.runtime.obs = obs
        obs.attach(self.spark.spark_context)
        try:
            yield
        finally:
            self.runtime.obs = previous
            obs.detach(self.spark.spark_context)

    def profile(self, query_text: str,
                bindings: Optional[Dict[str, object]] = None,
                cap: Optional[int] = None) -> ProfileReport:
        """Run a query under full observability and return the report.

        A profile is the plain run — :meth:`query`, then the collect —
        under an attached bundle: the front-end reports its phases as far
        as it ran (a plan- or result-cache hit skips them and counts a
        hit), ``execute`` covers every materialization, the substrate
        emits stage/task/shuffle events and the instrumented row paths
        count.  The report carries the result: profiling never runs twice.
        """
        from repro.obs.events import QUERY_END, QUERY_START

        obs = Observability(enabled=True)
        with self._observed(obs):
            obs.events.emit(QUERY_START, query=query_text)
            with obs.tracer.span("query", query=query_text) as root:
                result = self.query(query_text, bindings)
                with obs.tracer.span("execute", mode=result.mode()):
                    items, _ = result.collect_capped(cap)
            # The first ``execute`` is the run; a cache hit leaves the replay.
            mode = root.find("execute").attributes["mode"]
            obs.events.emit(
                QUERY_END, query=query_text, mode=mode, items=len(items)
            )
        return ProfileReport(
            query_text, root, obs.metrics.snapshot(), obs.events.events,
            items=items, mode=mode,
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
    settings = {
        "spark.executor.instances": executors,
        "spark.default.parallelism": parallelism,
        "spark.storage.blockSize": block_size,
        "spark.chaos.plan": fault_plan,
        "spark.task.maxRetries": max_retries,
        "spark.speculation": speculation,
        "spark.blacklist.threshold": blacklist_threshold,
        "spark.task.timeoutSeconds": task_timeout,
        "spark.task.retryBackoffSeconds": retry_backoff,
        "spark.fusion.enabled": fusion,
        "spark.adaptive.enabled": adaptive,
        "spark.memory.budgetBytes": memory_budget,
    }
    for key, value in settings.items():
        if value is not None:
            conf.set(key, value)
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
