"""Whole-stage Python code generation for fused + columnar pipelines.

The interpreter pays per-item virtual dispatch on every operator hop —
the overhead Flare removes from Spark by collapsing a plan into one
generated loop, and that HyPer-style produce/consume compilation shows
compounds with a columnar substrate.  This package compiles an eligible
FLWOR chain (leading ``json-file`` scan + covered where prefix + return
expression) into **one generated Python function**: textual emission →
``compile()`` → closure, replacing the closure-chained per-partition
pipeline (unbox → bind → predicate → EVALUATE_EXPRESSION) with a single
flat, mask-aware loop straight over :class:`~repro.items.columnar.
ColumnBatch` vectors, boxing items only at the yield boundary.

Layering mirrors :mod:`repro.jsoniq.runtime.flwor.columnar`:

* at compile time ``pushdown.annotate`` runs :func:`emit_source` over
  every chain of that shape and records the emitted stage — or the
  reason it was declined — on the chain's one
  :class:`~repro.jsoniq.runtime.flwor.pushdown.PushdownPlan`;
* :func:`stage_rdd` is the runtime consumer ``ReturnClauseIterator.
  get_rdd`` asks first; it returns the generated stage's RDD, or None
  whenever the runtime's flags resolve the plan to another sink
  (``RumbleConfig.codegen``, which also requires pushdown + columnar)
  so the interpreter stays the untouched reference path.

Specialization is type-driven (PR 3): when static inference proved both
operands single-numeric (``BinaryArithmeticIterator.static_numeric``)
the emitter writes ``a + b`` with **no** atomization/singleton/
cardinality checks at all; unproven operands get one inlined raw-type
guard whose failure routes that row to the reference evaluator, so
errors and edge cases stay byte-identical by construction.
"""

from repro.jsoniq.codegen.emitter import Unsupported, emit_source
from repro.jsoniq.codegen.plan import stage_rdd

__all__ = [
    "Unsupported",
    "emit_source",
    "stage_rdd",
]
