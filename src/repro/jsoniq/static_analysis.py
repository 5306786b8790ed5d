"""Static analysis entry point: scoping, typing, mode planning.

Historically this module only chained static contexts (paper, Section
5.3).  The actual work now lives in :mod:`repro.jsoniq.analysis.inference`,
which additionally infers a static sequence type and plans an execution
mode for every node, and reports diagnostics; this module keeps the
stable ``analyse`` entry point (plus ``_analyse_flwor``, which
``tests/test_static_analysis.py`` drives directly).
"""

from __future__ import annotations

from repro.jsoniq import ast
from repro.jsoniq.analysis.inference import Analyzer
from repro.jsoniq.static_context import StaticContext


def analyse(module: ast.MainModule, external=(), sink=None,
            collect_type_errors: bool = False, obs=None) -> StaticContext:
    """Analyse a main module in place, returning the root context.

    ``external`` names variables that the host application will bind at
    run time (the engine passes the binding keys here), in addition to
    any ``declare variable $x external;`` declarations.  ``sink``
    optionally collects diagnostics (a fresh one is created otherwise);
    with ``collect_type_errors`` guaranteed type failures become error
    diagnostics instead of raised exceptions (linter mode).  ``obs`` is
    an optional :class:`repro.obs.Observability` bundle — when given,
    the analysis emits ``static.infer``/``static.verify`` spans and
    ``rumble.static.*`` metrics.
    """
    analyzer = Analyzer(sink=sink, collect_type_errors=collect_type_errors)
    return analyzer.analyse_module(module, external=external, obs=obs)


def _analyse_flwor(node: ast.FlworExpression,
                   context: StaticContext) -> None:
    """Legacy helper: analyse one FLWOR expression in a given context."""
    analyzer = Analyzer()
    analyzer.visit(node, context)
