"""The traced pass: per-layer numbers for one workload, in one child.

Two steps, both outside the end-to-end pass:

(a) ``Rumble.profile()`` cold, then plain warm executions, then
    ``profile()`` warm — front-end phases, fired counters, shuffle and
    stage/task events;
(b) a *staged replay* of the scan: each layer's public function is fed
    the materialized output of the previous stage, so every ``_s`` below
    is that layer's self time and nothing else.

Both run under the spine's own spans (name, start, end, parent,
workload id), held in memory and handed to the parent, which writes
them out at exit.  Spans inside the program are a later change
(ROADMAP item 4); these sit *around* the calls into each layer.

Probes import below the frozen end-to-end surface, and ROADMAP item 3
will rename what they import.  A probe whose entry point is gone (or
no longer takes these arguments) reports ``None`` plus a
``probe_missing`` note; it never fails the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import traceback
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

from util import input_files, jsonloads_floor

PLAIN_WARM_RUNS = 3


class Trace:
    """In-memory spans plus the by-name lookup of probed symbols."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._epoch,
            "end": None,
            "failed": False,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except Exception:
            record["failed"] = True
            raise
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._epoch

    @contextmanager
    def probe(self, name: str):
        """A span around one layer call that may not survive a refactor:
        whatever it raises becomes a ``probe_missing`` note."""
        try:
            with self.span(name):
                yield
        except Exception as error:
            traceback.print_exc()
            self.missing.append("{}: {!r}".format(name, error))

    def resolve(self, module: str, *attributes: str):
        """``module.attr[.attr]`` by name, or None plus a note."""
        target = ".".join((module,) + attributes)
        try:
            found = importlib.import_module(module)
            for attribute in attributes:
                found = getattr(found, attribute)
        except (ImportError, AttributeError):
            if target not in self.missing:
                self.missing.append(target)
            return None
        return found

    def _self_seconds(self, span: dict) -> float:
        """Duration minus the part of it the span's children cover."""
        return span["end"] - span["start"] - sum(
            child["end"] - child["start"] for child in self.spans
            if child["parent"] == span["id"]
        )

    def finished(self) -> List[dict]:
        """Every span, closed, with its self time."""
        for span in self.spans:
            span["self_s"] = self._self_seconds(span)
        return self.spans

    def self_time(self, name: str) -> Optional[float]:
        """Summed self time of the completed spans called ``name``."""
        matching = [
            span for span in self.spans
            if span["name"] == name and not span["failed"]
        ]
        if not matching:
            return None
        return sum(self._self_seconds(span) for span in matching)


def _ratio(numerator, denominator) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _first_flwor(node, flwor_type):
    if isinstance(node, flwor_type):
        return node
    for child in node.children():
        found = _first_flwor(child, flwor_type)
        if found is not None:
            return found
    return None


def pushed_predicates(trace: Trace, query: str) -> Optional[tuple]:
    """The predicates ``pushdown.analyse`` pushes into the query's first
    FLWOR scan (``()`` when it pushes none); None if a symbol is gone."""
    parse = trace.resolve("repro.jsoniq.parser", "parse")
    flwor_type = trace.resolve("repro.jsoniq.ast", "FlworExpression")
    analyse = trace.resolve("repro.jsoniq.runtime.flwor.pushdown", "analyse")
    if parse is None or flwor_type is None or analyse is None:
        return None
    predicates = None
    with trace.probe("pushdown.analyse"):
        flwor = _first_flwor(parse(query).expression, flwor_type)
        plan = analyse(flwor) if flwor is not None else None
        predicates = tuple(plan.predicates) if plan is not None else ()
    return predicates


def staged_replay(trace: Trace, uri: str, query: str
                  ) -> Dict[str, Optional[float]]:
    """Read → decode → shred → mask → box over ``uri``, one stage at a
    time, each consuming the previous stage's materialized output."""
    metrics: Dict[str, Optional[float]] = {}
    columnar = "repro.items.columnar"
    with trace.span("replay"):
        split_input = trace.resolve("repro.spark.storage", "split_input")
        read_lines = trace.resolve(
            "repro.spark.storage", "FileBlock", "read_lines"
        )
        lines_by_block = None
        if split_input is not None and read_lines is not None:
            with trace.probe("storage.read"):
                blocks = split_input(uri)
                lines_by_block = [list(read_lines(b)) for b in blocks]
                metrics["storage.blocks"] = len(blocks)
        if lines_by_block is None:
            # Later stages still get their input, outside any probe span.
            lines_by_block = []
            for path in input_files(uri):
                with open(path, "r", encoding="utf-8") as handle:
                    lines_by_block.append(handle.read().splitlines())
        rows = sum(len(lines) for lines in lines_by_block)

        decode = trace.resolve(
            "repro.jsoniq.jsonlines", "iter_json_lines_pushed"
        )
        if decode is not None:
            with trace.probe("jsonlines.decode"):
                for lines in lines_by_block:
                    for _ in decode(lines):
                        pass

        with trace.span("replay.predecode"):
            records_by_block = [
                [json.loads(line) for line in lines]
                for lines in lines_by_block
            ]
        del lines_by_block

        shred = trace.resolve(columnar, "shred_records")
        batches = None
        if shred is not None:
            with trace.probe("columnar.shred"):
                batches = [shred(records) for records in records_by_block]
                metrics["columnar.escaped_ratio"] = _ratio(
                    sum(len(batch.escaped) for batch in batches), rows
                )
        del records_by_block

        predicates = pushed_predicates(trace, query)
        apply = trace.resolve(columnar, "ColumnBatch", "apply_predicates")
        pruned = trace.resolve(columnar, "PRUNED")
        statuses = None
        if all(x is not None for x in (batches, predicates, apply, pruned)):
            with trace.probe("columnar.mask"):
                statuses = [apply(batch, predicates) for batch in batches]
                metrics["columnar.mask_selectivity"] = _ratio(
                    sum(len(s) - s.count(pruned) for s in statuses), rows
                )

        masked = trace.resolve(columnar, "MaskedBatch")
        iter_boxed = trace.resolve(columnar, "MaskedBatch", "iter_boxed")
        if all(x is not None for x in (statuses, masked, iter_boxed)):
            with trace.probe("columnar.box"):
                for batch, status in zip(batches, statuses):
                    for _ in iter_boxed(masked(batch, status)):
                        pass
    for name in ("storage.read", "jsonlines.decode", "columnar.shred",
                 "columnar.mask", "columnar.box"):
        metrics[name + "_s"] = trace.self_time(name)
    return metrics


def _profile_metrics(report) -> Dict[str, float]:
    """What one ``ProfileReport`` says about the layers above the scan."""
    phases = report.phases
    shuffle = report.shuffle()
    stages = report.stages()
    execute_s = phases.get("execute", 0.0)
    task_busy_s = sum(
        task.get("seconds") or 0.0
        for stage in stages for task in stage["tasks"]
    )
    counter = report.counter
    return {
        "lexer.lex_s": phases.get("lex", 0.0),
        "parser.parse_s": phases.get("parse", 0.0),
        "analysis.static_s": phases.get("static-analysis", 0.0),
        "compiler.compile_s": phases.get("compile", 0.0),
        "engine.execute_s": execute_s,
        "codegen.taken": counter("rumble.codegen.taken"),
        "codegen.compiled": counter("rumble.codegen.compiled"),
        "codegen.cache_hits": counter("rumble.codegen.cache_hits"),
        "codegen.fallback_rows": counter("rumble.codegen.fallback_rows"),
        "columnar.count_kernel": counter("rumble.columnar.count_kernel"),
        "columnar.group_kernel": counter("rumble.columnar.group_kernel"),
        "pushdown.records_pruned": counter("rumble.pushdown.records_pruned"),
        "pushdown.topk_rewrites": counter("rumble.pushdown.topk_rewrites"),
        # Tuples that reached a where clause: |L|·|R| on a nested-loop
        # join, the count a hash join collapses.
        "flwor.pairs_evaluated": counter(
            "rumble.clause.rows_in", clause="WhereClauseIterator"
        ),
        "shuffle.shuffles": shuffle["shuffles"],
        "shuffle.records": shuffle["records"],
        "shuffle.bytes": shuffle["bytes"],
        "cluster.stages": len(stages),
        "cluster.tasks": sum(len(stage["tasks"]) for stage in stages),
        "cluster.task_busy_s": task_busy_s,
        "cluster.driver_s": execute_s - task_busy_s,
    }


def profiled_runs(trace: Trace, spec: dict) -> Dict[str, object]:
    """Step (a): cold profile, plain warm runs, warm profile."""
    metrics: Dict[str, Optional[float]] = {}
    results: List[object] = []
    #: Whether the cold run took a columnar scan (None: no profile).
    outcome = {"metrics": metrics, "results": results, "columnar": None}
    make_engine = trace.resolve("repro.core", "make_engine")
    profile = trace.resolve("repro.core", "Rumble", "profile")
    if make_engine is None or profile is None:
        return outcome
    query, cap = spec["query"], spec["cap"]
    with trace.probe("profile"):
        engine = make_engine()
        with trace.span("profile.cold"):
            cold = profile(engine, query, cap=cap)
        results.append([item.to_python() for item in cold.items])
        plain = []
        for _ in range(PLAIN_WARM_RUNS):
            with trace.span("warm.plain") as span:
                results.append(engine.query(query).to_python(cap=cap))
            plain.append(span["end"] - span["start"])
        with trace.span("profile.warm"):
            warm = profile(engine, query, cap=cap)
        results.append([item.to_python() for item in warm.items])
        metrics.update(_profile_metrics(cold))
        outcome["columnar"] = bool(cold.counter("rumble.columnar.scans"))
        metrics["columnar.cache_hit_ratio"] = _ratio(
            warm.counter("rumble.columnar.cache_hits"),
            warm.counter("rumble.columnar.batches"),
        ) or 0.0
        metrics["engine.profile_overhead"] = _ratio(
            warm.total_seconds, statistics.median(plain)
        )
        metrics["flwor.rows_per_result"] = max(
            spec["objects"], metrics["flwor.pairs_evaluated"]
        ) / max(1, len(cold.items))
    return outcome


def _rows(pairs: Iterable) -> List[dict]:
    return [
        {"country": country, "target": target, "count": count}
        for (country, target), count in pairs
    ]


def floors(trace: Trace, spec: dict) -> Dict[str, object]:
    """The lean peers of every table: ``json.loads`` over the same
    bytes, the §6.3 hand-coded program, the raw-RDD pipeline.  Their
    answers go back to the parent's oracle like any other result."""
    metrics: Dict[str, Optional[float]] = {}
    results: Dict[str, object] = {}
    kind = spec["floor_kind"]
    uri = spec["scan_uri"]
    with trace.span("floors"):
        with trace.span("floor.jsonloads"):
            metrics["floor.jsonloads_s"] = jsonloads_floor(spec["paths"])
        handcoded = (
            trace.resolve("repro.baselines.handcoded", kind + "_query")
            if kind in ("filter", "group") else None
        )
        if handcoded is not None:
            with trace.probe("floor.handcoded"):
                parts = [handcoded(path) for path in input_files(uri)]
                if kind == "filter":
                    results["handcoded"] = [sum(parts)]
                else:
                    merged: Dict[tuple, int] = {}
                    for part in parts:
                        for key, count in part.items():
                            merged[key] = merged.get(key, 0) + count
                    results["handcoded"] = _rows(merged.items())
        raw = (
            trace.resolve("repro.baselines.raw_spark", kind + "_query")
            if kind is not None else None
        )
        session = trace.resolve("repro.spark", "SparkSession")
        if raw is not None and session is not None:
            with trace.probe("floor.raw_rdd"):
                value = raw(session(), uri)
                results["raw_rdd"] = (
                    [value] if kind == "filter"
                    else _rows(value) if kind == "group" else value
                )
    metrics["floor.handcoded_s"] = trace.self_time("floor.handcoded")
    metrics["floor.raw_rdd_s"] = trace.self_time("floor.raw_rdd")
    return {"metrics": metrics, "results": results}


def trace_workload(spec: dict) -> dict:
    """Everything the traced child measures for one workload."""
    trace = Trace(spec["workload"])
    with trace.span("trace"):
        profiled = profiled_runs(trace, spec)
        metrics = profiled["metrics"]
        metrics.update(staged_replay(trace, spec["scan_uri"], spec["query"]))
        floor = floors(trace, spec)
        metrics.update(floor["metrics"])

    read_s = metrics["storage.read_s"]
    decode_s = metrics["jsonlines.decode_s"]
    metrics["storage.read_mb_per_s"] = _ratio(spec["scan_bytes"] / 1e6, read_s)
    metrics["jsonlines.decode_vs_jsonloads"] = _ratio(
        decode_s, metrics["floor.jsonloads_s"]
    )
    metrics["columnar.shred_vs_decode"] = _ratio(
        metrics["columnar.shred_s"], decode_s
    )
    if profiled["columnar"] is not None:
        # The layers this query's scan went through, by what fired: a
        # columnar scan shreds and masks, and boxes unless a kernel
        # answered from the columns; otherwise it is the row path.
        path = [read_s, decode_s]
        if profiled["columnar"]:
            path += [metrics["columnar.shred_s"], metrics["columnar.mask_s"]]
            if not (metrics["columnar.count_kernel"]
                    or metrics["columnar.group_kernel"]):
                path.append(metrics["columnar.box_s"])
        metrics["engine.unattributed_s"] = metrics["engine.execute_s"] - sum(
            seconds or 0.0 for seconds in path
        )
    return {
        "metrics": metrics,
        "probe_missing": trace.missing,
        "spans": trace.finished(),
        "results": profiled["results"],
        "floor_results": floor["results"],
    }
