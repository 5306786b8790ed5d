"""The fresh-process body of one query-workload repetition.

``python child.py e2e SPEC`` is what "cold" means in this benchmark:
a new interpreter imports ``repro``, builds the default engine and runs
the query once, so no in-process cache of any layer — whatever it is
called — can have survived from an earlier repetition.  The OS page
cache *is* warm: the ``json.loads`` floor reads the same bytes first.

The end-to-end mode touches only the frozen entry points
(``repro.core.make_engine()`` without optimizer arguments and
``Rumble.query(...).to_python(cap=...)``); ``python child.py trace SPEC``
hands over to :mod:`probes`, which may import deeper.

Protocol: one ``ready`` line once the engine exists (the parent stops
its set-up clock there), then one JSON line with the measurements.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

from util import jsonloads_floor

#: After the cold execution the same query is re-issued on the same
#: engine at least WARM_MIN times, and on until WARM_SECONDS of warm
#: time or WARM_MAX executions, so cheap warm queries get enough samples
#: for a steady median without stretching the expensive ones.  Warm
#: times differ more between processes than within one, so an expensive
#: query is better served by another child than by another repetition.
WARM_MIN = 1
WARM_MAX = 12
WARM_SECONDS = 1.0


def run_e2e(spec: dict) -> dict:
    from repro.core import make_engine

    engine = make_engine()
    print("ready", flush=True)
    floor_s = jsonloads_floor(spec["paths"])
    seconds, results = [], []

    def execute() -> None:
        started = time.perf_counter()
        try:
            value = engine.query(spec["query"]).to_python(cap=spec["cap"])
        except Exception:  # an operation that raised is a failed operation
            traceback.print_exc()
            value = {"raised": traceback.format_exc(limit=1)}
        seconds.append(time.perf_counter() - started)
        results.append(value)

    execute()
    while len(seconds) - 1 < WARM_MIN or (
        len(seconds) - 1 < WARM_MAX and sum(seconds[1:]) < WARM_SECONDS
    ):
        execute()
    return {
        "floor_s": floor_s,
        "cold_s": seconds[0],
        "warm_s": seconds[1:],
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv) -> int:
    mode, spec_path = argv
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if mode == "e2e":
        payload = run_e2e(spec)
    elif mode == "trace":
        import probes

        print("ready", flush=True)
        payload = probes.trace_workload(spec)
    else:
        raise SystemExit("unknown mode {!r}".format(mode))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
