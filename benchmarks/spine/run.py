"""The measurement spine: one command, seven workloads, every metric by name.

    python benchmarks/spine/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]

Without ``--workload`` all seven run.  ``--trace 0`` (default) is the
end-to-end pass; it never runs under tracing.  ``--trace 1`` is the
separate traced pass that produces the per-layer numbers; ``--trace-out
FILE`` runs it as well and writes its spans to FILE.  ``--out FILE``
appends one JSON line per workload and pass (what ``compare.py`` reads).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong or
failed operation makes the exit code non-zero.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

from util import (
    ROOT, input_files, jsonloads_floor, load_catalog, percentile, quartiles,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import workloads
except ModuleNotFoundError as error:
    raise SystemExit(
        "spine: cannot import repro from {} ({}); run from a full "
        "checkout of the repository".format(SRC, error)
    )
import oracle
import serve
from child import WARM_MIN

#: Fresh child processes per query workload: at least CHILDREN_MIN, then
#: more while the next one still fits in ``--seconds``, up to
#: CHILDREN_MAX.
CHILDREN_MIN = 3
CHILDREN_MAX = 5
#: Fresh servers started for serve_mixed's set-up and cold-request
#: medians; the last one carries the load.
COLD_SERVERS = 5
CHILD_TIMEOUT_S = 150


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    return env


def run_child(mode: str, spec: dict, workdir: str,
              env: Dict[str, str]) -> Optional[dict]:
    """One fresh ``child.py`` process; None if it crashed or hung."""
    spec_path = os.path.join(workdir, "spec-{}.json".format(mode))
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), mode, spec_path],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        ready = process.stdout.readline()
        ready_s = time.perf_counter() - started
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return None
    if process.returncode != 0 or ready.strip() != "ready":
        return None
    payload = json.loads(output.strip().splitlines()[-1])
    payload["ready_s"] = ready_s
    payload["wall_s"] = time.perf_counter() - started
    return payload


def child_spec(workload: workloads.Workload) -> dict:
    return {
        "workload": workload.name,
        "query": workload.query,
        "cap": (workloads.SERVE_CAP
                if workload.name == workloads.SERVE_WORKLOAD
                else workloads.QUERY_CAP),
        "paths": workload.paths(),
        "objects": workload.objects,
        "scan_uri": workload.scan_uri,
        "scan_bytes": workload.inputs[0].bytes,
        "floor_kind": workload.floor_kind,
    }


def query_check(workload: workloads.Workload) -> Callable[[object], bool]:
    return oracle.for_workload(workload.name, {
        item.label: input_files(item.path) for item in workload.inputs
    })


class Outcome:
    """What one pass over one workload produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Optional[float]] = {}
        self.details: Dict[str, object] = {}
        self.notes: List[str] = []
        self.spans: List[dict] = []

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


# -- End-to-end pass --------------------------------------------------------------

def measure_queries(workload: workloads.Workload, seconds: float,
                    workdir: str) -> Outcome:
    """R fresh children × (1 cold + W warm) executions, each checked."""
    outcome = Outcome()
    check = query_check(workload)
    spec, env = child_spec(workload), child_env()
    children: List[dict] = []
    started = time.perf_counter()
    last_wall = 0.0
    for index in range(CHILDREN_MAX):
        elapsed = time.perf_counter() - started
        if index >= CHILDREN_MIN and elapsed + last_wall > seconds:
            break
        child_started = time.perf_counter()
        child = run_child("e2e", spec, workdir, env)
        last_wall = time.perf_counter() - child_started
        if child is None:
            # A crashed repetition failed its cold and its warm runs.
            outcome.attempted += 1 + WARM_MIN
            outcome.failed += 1 + WARM_MIN
            continue
        for result in child["results"]:
            outcome.count(check(result))
        children.append(child)
    if not children:
        raise SystemExit("spine: every child of {} crashed".format(
            workload.name
        ))
    cold = [child["cold_s"] for child in children]
    warm = [s for child in children for s in child["warm_s"]]
    floor = [child["floor_s"] for child in children]
    cold_s, warm_s = statistics.median(cold), statistics.median(warm)
    outcome.metrics = {
        "setup_s": workload.gen_s + statistics.median(
            child["ready_s"] for child in children
        ),
        "cold_objects_per_s": workload.objects / cold_s,
        "warm_objects_per_s": workload.objects / warm_s,
        "cold_vs_jsonloads": statistics.median(
            child["cold_s"] / child["floor_s"] for child in children
        ),
        "peak_rss_mb": max(c["maxrss_kb"] for c in children) / 1024.0,
        "qps": len(warm) / sum(warm),
        "latency_p50_ms": warm_s * 1e3,
        "latency_p95_ms": percentile(warm, 0.95) * 1e3,
    }
    outcome.details = {
        "children": len(children),
        "warm_samples": len(warm),
        "cold_s": quartiles(cold),
        "warm_s": quartiles(warm),
        "cold_mb_per_s": workload.bytes / 1e6 / cold_s,
        "warm_mb_per_s": workload.bytes / 1e6 / warm_s,
        "floor.jsonloads_s": statistics.median(floor),
        "gen_s": workload.gen_s,
        "samples": {"cold_s": cold, "warm_s": warm},
    }
    return outcome


def _serve_plan(workload: workloads.Workload, seed: int):
    path = workload.scan_uri
    schedules = {
        tenant: workloads.serve_schedule(
            path, seed, tenant, workload.extra["requests_per_tenant"]
        )
        for tenant in workloads.SERVE_TENANTS
    }
    checker = oracle.ServeOracle(
        oracle.load_records(workload.paths()), workloads.SERVE_CAP
    )
    return schedules, checker


def _run_load(server: serve.Server, workload: workloads.Workload,
              schedules, checker, outcome: Outcome):
    elapsed, samples = serve.closed_loop(
        server, schedules, workloads.repeat_requests(workload.scan_uri),
        checker,
    )
    scheduled = sum(len(schedule) for schedule in schedules.values())
    outcome.attempted += scheduled
    outcome.failed += scheduled - sum(1 for s in samples if s.ok)
    return elapsed, samples


def measure_serve(workload: workloads.Workload, seed: int) -> Outcome:
    """A cold first request on each of COLD_SERVERS fresh servers; the
    last server then carries the closed loop."""
    outcome = Outcome()
    schedules, checker = _serve_plan(workload, seed)
    env = child_env()
    floor_s = jsonloads_floor(workload.paths())
    first = workloads.cold_request(workload.scan_uri, seed)
    tenant = workloads.SERVE_TENANTS[0]
    ready, cold = [], []
    for index in range(COLD_SERVERS):
        server = serve.Server(env)
        try:
            ready.append(server.ready_s)
            sample = serve.first_request(server, tenant, first, checker)
            cold.append(sample.seconds)
            outcome.count(sample.ok)
            if index == COLD_SERVERS - 1:
                elapsed, samples = _run_load(
                    server, workload, schedules, checker, outcome
                )
                rss = server.peak_rss_mb()
        finally:
            server.stop()
    latencies = [s.seconds for s in samples]
    scans = [s.seconds for s in samples if s.kind == "param_scan"]
    cold_s = statistics.median(cold)
    outcome.metrics = {
        "setup_s": workload.gen_s + statistics.median(ready),
        "cold_objects_per_s": workload.objects / cold_s,
        "warm_objects_per_s": workload.objects / statistics.median(scans),
        "cold_vs_jsonloads": cold_s / floor_s,
        "peak_rss_mb": rss,
        "qps": len(samples) / elapsed,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
    }
    outcome.details = {
        "servers": len(ready),
        "requests": len(samples),
        "clients": len(schedules),
        "elapsed_s": elapsed,
        "cold_s": quartiles(cold),
        "floor.jsonloads_s": floor_s,
        "gen_s": workload.gen_s,
        "samples": {"cold_s": cold, "ready_s": ready},
    }
    return outcome


# -- Traced pass ---------------------------------------------------------------------

def _traced_child(workload: workloads.Workload, workdir: str,
                  outcome: Outcome,
                  check: Callable[[object], bool]) -> None:
    child = run_child("trace", child_spec(workload), workdir, child_env())
    if child is None:
        raise SystemExit("spine: the traced child of {} crashed".format(
            workload.name
        ))
    outcome.metrics.update(child["metrics"])
    outcome.notes += child["probe_missing"]
    outcome.spans = child["spans"]
    for result in child["results"]:
        outcome.count(check(result))
    for result in child["floor_results"].values():
        outcome.count(check(result))


def trace_queries(workload: workloads.Workload, workdir: str) -> Outcome:
    outcome = Outcome()
    _traced_child(workload, workdir, outcome, query_check(workload))
    return outcome


def _tenant_counter(snapshot: dict, name: str) -> int:
    return sum(
        tenant["counters"].get(name, 0)
        for tenant in snapshot["tenants"].values()
    )


def trace_serve(workload: workloads.Workload, seed: int,
                workdir: str) -> Outcome:
    """The same closed loop, read through ``/status`` and ``/metrics``,
    plus the staged replay over the file the requests scan."""
    outcome = Outcome()
    schedules, checker = _serve_plan(workload, seed)
    scan_spec = workload.extra["scan_spec"]
    _traced_child(
        workload, workdir, outcome,
        lambda got: got == checker.expected(scan_spec),
    )
    server = serve.Server(child_env())
    try:
        elapsed, samples = _run_load(
            server, workload, schedules, checker, outcome
        )
        status = server.get("/status")
        snapshot = server.get("/metrics")
    finally:
        server.stop()
    outcome.metrics.update(serve.latency_metrics(samples))
    outcome.metrics.update(serve.status_metrics(status, elapsed))
    # Over the whole mix the engine counters come from the server's own
    # per-tenant registries, not from the traced child's single query.
    for name in ("taken", "compiled", "cache_hits", "fallback_rows"):
        outcome.metrics["codegen." + name] = _tenant_counter(
            snapshot, "rumble.codegen." + name
        )
    batches = _tenant_counter(snapshot, "rumble.columnar.batches")
    outcome.metrics["columnar.cache_hit_ratio"] = (
        _tenant_counter(snapshot, "rumble.columnar.cache_hits") / batches
        if batches else 0.0
    )
    return outcome


# -- Reporting ------------------------------------------------------------------------

def check_pins(workload: workloads.Workload, seed: int, scale: float
               ) -> List[str]:
    """Seed 42's inputs are pinned: a silent generator change is caught."""
    if seed != 42 or scale != 1.0:
        return []
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)[workload.name]
    return [
        "input {} does not match pins.json: {} != {}".format(
            item.label, item.pin(), pinned.get(item.label)
        )
        for item in workload.inputs if item.pin() != pinned.get(item.label)
    ]


def report(workload: workloads.Workload, seed: int, scale: float,
           section: str, units: Dict[str, str], outcome: Outcome) -> dict:
    """Print one pass of one workload and return its record."""
    print("== {} [{}] seed={}{}".format(
        workload.name, section, seed,
        "" if scale == 1.0 else " scale={}".format(scale),
    ))
    print("   cold = first execution in a fresh process; "
          "OS page cache warm")
    for item in workload.inputs:
        print("   input {:<10} objects={} bytes={} sha256={}".format(
            item.label, item.objects, item.bytes, item.sha256
        ))
    metrics = {}
    for name, unit in units.items():
        value = outcome.metrics.get(name)
        metrics[name] = {"value": value, "unit": unit}
        print("   {:<32} {:>16} {}".format(
            name, "null" if value is None else "{:.6g}".format(value), unit
        ))
    for name, value in outcome.details.items():
        if name != "samples":
            print("   . {:<30} {}".format(name, json.dumps(value)))
    for note in outcome.notes:
        print("   probe_missing: " + note)
    print("   attempted={} failed={}".format(
        outcome.attempted, outcome.failed
    ))
    return {
        "workload": workload.name,
        "section": section,
        "seed": seed,
        "scale": scale,
        "inputs": {item.label: item.pin() for item in workload.inputs},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "details": outcome.details,
        "probe_missing": outcome.notes,
    }


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=12.0,
        help="time budget of one query workload's repetitions",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--trace-out", metavar="FILE")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every input (smoke test only; results at a scale "
             "other than 1 are not comparable)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    catalog = load_catalog()
    sections = ["per_layer"] if args.trace else ["end_to_end"]
    if args.trace_out and not args.trace:
        sections.append("per_layer")
    units = {
        section: {m["name"]: m["unit"] for m in catalog[section]}
        for section in sections
    }
    names = [args.workload] if args.workload else list(workloads.NAMES)
    os.makedirs(os.path.join(ROOT, ".spine_work"), exist_ok=True)
    records, spans, problems = [], [], []
    for name in names:
        # Inputs live for one invocation only, inside the checkout.
        workdir = tempfile.mkdtemp(
            prefix=name + "-", dir=os.path.join(ROOT, ".spine_work")
        )
        try:
            workload = workloads.build(name, args.seed, args.scale, workdir)
            problems += check_pins(workload, args.seed, args.scale)
            for section in sections:
                is_serve = name == workloads.SERVE_WORKLOAD
                if section == "end_to_end":
                    outcome = (
                        measure_serve(workload, args.seed) if is_serve
                        else measure_queries(workload, args.seconds, workdir)
                    )
                else:
                    outcome = (
                        trace_serve(workload, args.seed, workdir) if is_serve
                        else trace_queries(workload, workdir)
                    )
                    spans += outcome.spans
                records.append(report(
                    workload, args.seed, args.scale, section,
                    units[section], outcome,
                ))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.join(ROOT, ".spine_work"))
    except OSError:
        pass  # another invocation is still using it
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({
                "seed": args.seed,
                "records": [r for r in records if r["section"] == "per_layer"],
                "spans": spans,
            }, handle)
    for problem in problems:
        print("spine: " + problem, file=sys.stderr)
    print(json.dumps(summary(records, sections[0], bool(problems))))
    failed = sum(record["failed"] for record in records)
    return 1 if failed or problems else 0


def summary(records: List[dict], section: str, pin_mismatch: bool) -> dict:
    """The last line: the driver's view of this invocation.

    A per-layer metric that does not apply to the workload, or whose
    probe is missing, reads 0 here (the line carries numbers only); the
    printed table and ``--out`` record say ``null`` and why."""
    chosen = [r for r in records if r["section"] == section]
    metrics = {}
    for record in chosen:
        prefix = "" if len(chosen) == 1 else record["workload"] + "."
        for name, metric in record["metrics"].items():
            metrics[prefix + name] = {
                "value": metric["value"] if metric["value"] is not None
                else 0.0,
                "unit": metric["unit"],
            }
    failed = sum(record["failed"] for record in records)
    return {
        "correct": failed == 0 and not pin_mismatch,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
