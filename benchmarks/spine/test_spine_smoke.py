"""Smoke test of the measurement spine (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/spine -q

Runs one 1/50-scale pass of every workload, end to end and traced, and
checks the contract the numbers are reported under — not the numbers.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import util  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def catalog():
    return util.load_catalog()


@pytest.fixture(scope="module")
def smoke_pass(tmp_path_factory):
    """One scaled-down invocation over all workloads, both passes."""
    out = tmp_path_factory.mktemp("spine")
    records, trace = out / "records.jsonl", out / "trace.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "0.02",
         "--seconds", "1", "--seed", "7",
         "--out", str(records), "--trace-out", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    with open(records, encoding="utf-8") as handle:
        parsed = [json.loads(line) for line in handle]
    with open(trace, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    return parsed, spans, json.loads(done.stdout.strip().splitlines()[-1])


def test_catalog_names_and_workloads(catalog):
    names = [m["name"] for s in ("end_to_end", "per_layer")
             for m in catalog[s]]
    names += [w["name"] for w in catalog["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in catalog["workloads"]] == list(workloads.NAMES)
    assert catalog["paths"] == ["benchmarks/spine"]


def test_every_metric_is_emitted_with_its_unit(catalog, smoke_pass):
    records, _, _ = smoke_pass
    seen = {(r["workload"], r["section"]) for r in records}
    assert seen == {
        (name, section) for name in workloads.NAMES
        for section in ("end_to_end", "per_layer")
    }
    for record in records:
        expected = {m["name"]: m["unit"] for m in catalog[record["section"]]}
        emitted = {n: m["unit"] for n, m in record["metrics"].items()}
        assert emitted == expected
        if record["section"] == "end_to_end":
            # Bounds are shares of the parent's median: never 0, never null.
            assert all(m["value"] for m in record["metrics"].values())


def test_oracles_pass_and_nothing_is_missing(smoke_pass):
    records, _, last_line = smoke_pass
    assert all(r["failed"] == 0 and r["attempted"] > 0 for r in records)
    assert all(r["probe_missing"] == [] for r in records)
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True and last_line["failed"] == 0


def test_spans_nest_and_carry_the_workload(smoke_pass):
    _, spans, _ = smoke_pass
    assert {s["workload"] for s in spans} == set(workloads.NAMES)
    for span in spans:
        assert span["end"] >= span["start"]
        assert -1e-9 <= span["self_s"] <= span["end"] - span["start"] + 1e-9
    assert {"storage.read", "jsonlines.decode", "columnar.shred",
            "columnar.mask", "columnar.box"} <= {s["name"] for s in spans}


def test_the_workloads_separate_the_layers(smoke_pass):
    records, _, _ = smoke_pass
    layer = {r["workload"]: {n: m["value"] for n, m in r["metrics"].items()}
             for r in records if r["section"] == "per_layer"}
    assert layer["filter_count"]["columnar.cache_hit_ratio"] == 1.0
    assert layer["filter_overflow"]["columnar.cache_hit_ratio"] == 0.0
    assert layer["filter_overflow"]["storage.blocks"] == 80
    for name in ("filter_count", "sort_topk"):
        assert layer[name]["shuffle.shuffles"] == 0
    for name in ("group_clean", "group_messy"):
        assert layer[name]["shuffle.shuffles"] > 0
    assert layer["group_messy"]["codegen.taken"] == 0
    assert layer["join_equi"]["flwor.pairs_evaluated"] == 10 * 10
    assert layer["serve_mixed"]["admission.rejected"] == 0


def test_a_removed_probe_symbol_degrades_to_null(tmp_path, monkeypatch):
    import repro.jsoniq.jsonlines as jsonlines

    workload = workloads.build("filter_count", 7, 0.002, str(tmp_path))
    # The columnar scan this query takes does not need the row reader,
    # so only the probe loses its entry point (as after a rename).
    monkeypatch.delattr(jsonlines, "iter_json_lines_pushed")
    traced = probes.trace_workload(run.child_spec(workload))
    assert traced["probe_missing"] == [
        "repro.jsoniq.jsonlines.iter_json_lines_pushed"
    ]
    metrics = traced["metrics"]
    for dependent in ("jsonlines.decode_s", "jsonlines.decode_vs_jsonloads",
                      "columnar.shred_vs_decode"):
        assert metrics[dependent] is None
    # The run goes on: the other stages and the profile still report.
    assert metrics["storage.read_s"] > 0
    assert metrics["columnar.shred_s"] > 0
    assert metrics["engine.execute_s"] > 0
    assert run.query_check(workload)(traced["results"][0])


def test_oracles_reject_wrong_answers(tmp_path):
    records = [
        {"guess": "a", "target": "a", "country": "X", "date": "1"},
        {"guess": "b", "target": "a", "country": "Y", "date": "2"},
        {"guess": "c", "target": "c", "country": "X", "date": "2"},
    ]
    assert oracle.filter_count(records)([2])
    assert not oracle.filter_count(records)([3])
    top = oracle.sort_topk(records, limit=1)
    assert top([records[0]]) and not top([records[2]])
    group = oracle.group_clean(records)
    rows = [{"country": "X", "target": "a", "count": 1},
            {"country": "Y", "target": "a", "count": 1},
            {"country": "X", "target": "c", "count": 1}]
    assert group(rows) and not group(rows[:2])
    # Figure 7: array -> first member, null stays null, absent -> "USA".
    messy = [{"target": "t", "country": ["A", "B"]},
             {"target": "t", "country": None}, {"target": "t"},
             {"target": "t", "country": "A"}]
    assert oracle.group_messy(messy)([
        {"country": "A", "target": "t", "count": 2},
        {"country": None, "target": "t", "count": 1},
        {"country": "USA", "target": "t", "count": 1},
    ])
    join = oracle.join_equi(
        [{"id": 0, "grp": "g"}], [{"ref": 0, "v": 1}, {"ref": None, "v": 2},
                                  {"v": 3}, {"ref": 0, "v": 1}],
    )
    assert join([{"g": "g", "v": 1}] * 2) and not join([{"g": "g", "v": 1}])
