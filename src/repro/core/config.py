"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class RumbleConfig:
    """Tunables of the engine.

    ``materialization_cap`` bounds how many items an action materializes
    on the driver before warning (paper, Section 5.5: "a maximum number of
    items to materialize can be specified and a warning is issued").
    """

    materialization_cap: int = 200
    #: Warn (True) or raise (False) when the cap is exceeded.
    warn_on_cap: bool = True
    #: Named collections for the ``collection()`` function: name -> URI
    #: (str) or list of items/plain values.
    collections: Dict[str, object] = field(default_factory=dict)
    #: How ``json-file()``/``structured-json-file()`` react to a malformed
    #: input line: ``failfast`` (raise), ``permissive`` (capture the raw
    #: line under :attr:`corrupt_record_field`) or ``dropmalformed``
    #: (skip it).  See docs/fault_tolerance.md.
    parse_mode: str = "failfast"
    #: The field name a permissive read stores unparseable lines under.
    corrupt_record_field: str = "_corrupt_record"
    #: Scan-level optimizations: projection pruning (skip wrapping of
    #: unreferenced top-level keys), predicate pushdown into the JSON
    #: reader and the top-k rewrite.  Off = the reference
    #: clause-by-clause evaluation the differential tests compare
    #: against.  See docs/performance.md.
    pushdown: bool = True
    #: Adaptive query execution (runtime partition coalescing, skew
    #: splitting and join re-planning; see docs/performance.md).  None
    #: inherits the substrate default (``spark.adaptive.enabled``).
    adaptive: Optional[bool] = None
    #: Unified memory budget in bytes over cached partitions and shuffle
    #: buckets (``spark.memory.budgetBytes``).  None inherits the
    #: substrate default (unbounded unless ``RUMBLE_MEMORY_BUDGET`` set).
    memory_budget: Optional[int] = None
    #: Capacity (entries) of the normalized-AST plan cache; 0 disables
    #: it.  With a cache, repeated query shapes skip the whole
    #: lex→parse→analyse→compile→optimize front-end (docs/serving.md).
    plan_cache_size: int = 0
    #: Capacity (entries) of the per-session result cache; 0 disables
    #: it.  Cached results are keyed on (plan, collection fingerprints)
    #: and invalidated through storage lineage (docs/serving.md).
    result_cache_size: int = 0
    #: Turn the concurrency sanitizer on process-wide (lock-order
    #: analysis + lockset race detection; docs/concurrency.md).  False
    #: leaves it untouched — it may already be on via RUMBLE_SANITIZE.
    sanitize: bool = False
    #: Vectorized columnar execution: shred scanned JSON-lines blocks
    #: into typed column batches and run predicate masks / batch kernels
    #: over them, boxing items only at the boundary (docs/performance.md,
    #: "Columnar execution").  Requires :attr:`pushdown` (the columnar
    #: scan rides the pushdown plan; see :class:`OptimizerFlags`).
    columnar: bool = True
    #: Whole-stage code generation: compile a fused narrow-chain +
    #: pushdown pipeline into one generated Python function (a flat
    #: per-partition loop, specialized on static types) instead of the
    #: closure-chained interpreter (docs/performance.md, "Whole-stage
    #: code generation").  Requires :attr:`columnar` (generated loops
    #: consume the batch scan).
    codegen: bool = True

    def __post_init__(self) -> None:
        from repro.jsoniq.jsonlines import PARSE_MODES

        if self.parse_mode not in PARSE_MODES:
            raise ValueError(
                "unknown parse_mode {!r} (expected one of {})".format(
                    self.parse_mode, ", ".join(PARSE_MODES)
                )
            )
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        if self.plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        if self.sanitize:
            from repro import sanitizer

            sanitizer.enable()


@dataclass(frozen=True)
class OptimizerFlags:
    """The scan optimizer switches of one engine, resolved once.

    Each level rides the one below it — the generated loop consumes
    columnar batches, the batch scan is driven by the pushdown plan — so
    construction enforces codegen ⇒ columnar ⇒ pushdown: a flag whose
    prerequisite is off is off, whatever was asked for.
    """

    pushdown: bool = True
    columnar: bool = True
    codegen: bool = True

    def __post_init__(self) -> None:
        columnar = bool(self.pushdown and self.columnar)
        object.__setattr__(self, "pushdown", bool(self.pushdown))
        object.__setattr__(self, "columnar", columnar)
        object.__setattr__(self, "codegen", bool(columnar and self.codegen))

    @classmethod
    def resolve(cls, config: RumbleConfig) -> "OptimizerFlags":
        """The flags ``config`` asks for, prerequisites enforced."""
        return cls(
            pushdown=config.pushdown,
            columnar=config.columnar,
            codegen=config.codegen,
        )
