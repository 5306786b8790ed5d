"""The benchmark regression gate for whole-stage code generation.

One workload, chosen to be **dispatch-bound**: the Section 6.1 filter
predicate (``$i.guess eq $i.target``) followed by a per-row object
construction over the confusion dataset.  The columnar layer already
serves the scan and the predicate mask on both sides, so the remaining
cost is exactly what PR 10 targets — per-row iterator dispatch, item
boxing and re-atomization in the return expression.  With codegen on,
the whole surviving chain runs as one generated Python loop over the
masked batches (column reads off raw arrays, a guarded comparison on
raw values, one dict + one ``ObjectItem`` per surviving row).

Both sides are measured interleaved best-of-N with the collector
disabled around the timed region and everything warm: engines, the
plan cache (so the on side reuses the *compiled stage function* — the
``cache_hits`` counter recorded next to the timings proves it) and the
process-wide batch cache.  The off side runs columnar-on/codegen-off,
so the figure isolates the generated loop, not the columnar substrate.

Results land in ``BENCH_pr10.json`` via the session recorder, next to
the ``rumble.codegen.*`` counters proving the stage compiled and ran.

Assertions:

* always: results are byte-identical on/off; the codegen counters
  (taken, compiled, specialized kinds) are non-zero with codegen on
  and absent with it off; the generated source is visible in
  ``Rumble.explain()``; the speedup reaches FLOOR;
* with ``RUMBLE_BENCH_GATE=1`` (the CI job): the speedup must reach
  TARGET (1.5x; observed ~3-4x at smoke and full scale).

Run it the way CI does::

    RUMBLE_BENCH_SMOKE=1 RUMBLE_BENCH_GATE=1 PYTHONPATH=src \
        python -m pytest benchmarks/test_codegen_gate.py -q
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict

import pytest

from repro.core import RumbleConfig, make_engine

GATE = os.environ.get("RUMBLE_BENCH_GATE", "") not in ("", "0")

EXECUTORS = 4
PARALLELISM = 8
ROUNDS = 5
#: The improvement every environment must show (observed: ~3-4x).
FLOOR = 1.2
#: The win CI enforces (ISSUE: >=1.5x on the dispatch-bound figure).
TARGET = 1.5

#: The dispatch-bound map pipeline: predicate + projection, no
#: aggregation, so every surviving row pays the return expression.
MAP_QUERY = (
    'for $i in json-file("{path}")\n'
    'where $i.guess eq $i.target\n'
    'return {{ "guess": $i.guess, "country": $i.country }}'
)


def _engine(codegen: bool):
    # The plan cache is on so the warm rounds measure steady-state
    # serving: the on side fetches the cached plan and reuses the
    # already-compiled stage function instead of re-emitting per query.
    return make_engine(
        executors=EXECUTORS,
        parallelism=PARALLELISM,
        config=RumbleConfig(
            materialization_cap=1_000_000, plan_cache_size=32
        ),
        columnar=True,
        codegen=codegen,
    )


def _engines() -> Dict[str, object]:
    return {"on": _engine(True), "off": _engine(False)}


def _timed(engine, query: str) -> Dict:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = engine.query(query).to_python()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return {"wall": wall, "result": result}


def _measure(engines, query: str, rounds: int = ROUNDS) -> Dict:
    """Interleaved best-of-N, both engines warm (plan cache + compiled
    stage function + shredded batches)."""
    best = {"on": None, "off": None}
    for side in ("on", "off"):
        engines[side].query(query).to_python()
    for _ in range(rounds):
        for side in ("on", "off"):
            run = _timed(engines[side], query)
            if best[side] is None or run["wall"] < best[side]["wall"]:
                best[side] = run
    return best


def _codegen_counters(engine, query: str) -> Dict[str, int]:
    counters = engine.profile(query).metrics["counters"]
    return {
        name: value for name, value in sorted(counters.items())
        if name.startswith("rumble.codegen.")
    }


def _warm_cache_hits(engine, query: str) -> int:
    """Run the query twice on a fresh counter set through the cached
    plan path and report ``rumble.codegen.cache_hits``: the second
    execution must reuse the compiled stage function, not re-emit."""
    from repro.obs import Observability

    previous = engine.runtime.obs
    obs = engine.runtime.obs = Observability(enabled=True)
    try:
        engine.query(query).to_python()
        engine.query(query).to_python()
        counters = obs.metrics.counters_with_prefix("rumble.codegen.")
    finally:
        engine.runtime.obs = previous
    return counters.get("rumble.codegen.cache_hits", 0)


@pytest.fixture(scope="module")
def codegen_figures(confusion_path, bench_record) -> Dict:
    engines = _engines()
    query = MAP_QUERY.format(path=confusion_path)
    best = _measure(engines, query)
    for _ in range(2):  # the established re-measure-on-noise pattern
        if best["off"]["wall"] / best["on"]["wall"] >= TARGET:
            break
        retry = _measure(engines, query, rounds=3)
        for side in ("on", "off"):
            if retry[side]["wall"] < best[side]["wall"]:
                best[side] = retry[side]
    figure = {
        "kind": "codegen-map",
        "seconds_on": round(best["on"]["wall"], 4),
        "seconds_off": round(best["off"]["wall"], 4),
        "speedup": round(best["off"]["wall"] / best["on"]["wall"], 3),
        "warm_cache_hits": _warm_cache_hits(engines["on"], query),
        # Fresh engines: a profile is the plain run, so on the warm ones
        # it would hit the plan cache and compile nothing.
        "counters_on": _codegen_counters(_engine(True), query),
        "counters_off": _codegen_counters(_engine(False), query),
    }
    bench_record["codegen-map"] = dict(figure)
    figure["_results"] = (best["on"]["result"], best["off"]["result"])
    figure["_engines"] = engines
    figure["_query"] = query
    return figure


def test_results_identical(codegen_figures):
    """The generated loop must be invisible in the answer."""
    on, off = codegen_figures["_results"]
    assert on == off
    assert on  # the workload actually produced something


def test_codegen_counters_fire(codegen_figures):
    """The stage really compiled and ran with codegen on — and the
    off engine never touched the generated path."""
    on = codegen_figures["counters_on"]
    assert on.get("rumble.codegen.taken", 0) >= 1
    assert on.get("rumble.codegen.compiled", 0) >= 1
    assert on.get(
        "rumble.codegen.specialized{kind=column_read}", 0
    ) >= 1
    assert on.get(
        "rumble.codegen.specialized{kind=object_construct}", 0
    ) >= 1
    assert codegen_figures["counters_off"] == {}
    assert codegen_figures["warm_cache_hits"] >= 1, (
        "the warm plan-cache path re-emitted instead of reusing the "
        "compiled stage function"
    )


def test_generated_source_in_explain(codegen_figures):
    """The exact loop being timed is auditable via explain()."""
    text = codegen_figures["_engines"]["on"].explain(
        codegen_figures["_query"]
    )
    assert "codegen: whole-stage loop" in text
    assert "def _codegen_stage(_batches, _rt):" in text


def test_warm_speedup(codegen_figures):
    """The gated headline: one generated loop must beat interpreted
    per-row dispatch on the same columnar substrate."""
    speedup = codegen_figures["speedup"]
    assert speedup >= FLOOR, codegen_figures
    if GATE:
        assert speedup >= TARGET, codegen_figures
