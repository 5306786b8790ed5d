"""Compare two sets of spine runs, one row per (metric, workload).

    python benchmarks/spine/compare.py A.json B.json

A and B are files written by ``run.py --out`` (one JSON record per
line; run the same command several times with different ``--seed`` to
build a set — ten per side is the rule for a claim).  A is the parent,
B the change.  Each row shows both medians with their quartiles, the
spread of each side (quartile distance as a share of its median), the
change of the median in the metric's *worse* direction as a share of
A's median, the metric's bound, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than both sides' spreads
                 together, or every B run beats every A run;
* ``unresolved`` either side's spread is wider than the bound, so the
                 row cannot show "no regression" (and not every B run
                 beats every A run);
* ``same``       otherwise.

Per-layer metrics carry no bound; their rows show the delta only.
The exit code is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from util import load_catalog, quartiles

Key = Tuple[str, str]  # (workload, metric)


def load(path: str) -> Dict[Key, List[float]]:
    values: Dict[Key, List[float]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault(
                        (record["workload"], name), []
                    ).append(metric["value"])
    return values


def metrics_by_name() -> Dict[str, dict]:
    document = load_catalog()
    return {
        metric["name"]: metric
        for section in ("end_to_end", "per_layer")
        for metric in document[section]
    }


def verdict(a: List[float], b: List[float], better: str, bound) -> dict:
    """One row: both summaries, the signed worsening, the verdict."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    base = abs(qa["median"])
    worsening = (
        sign * (qb["median"] - qa["median"]) / base if base else 0.0
    )
    spread_a = (qa["q3"] - qa["q1"]) / base if base else 0.0
    base_b = abs(qb["median"])
    spread_b = (qb["q3"] - qb["q1"]) / base_b if base_b else 0.0
    if better == "lower":
        dominates = max(b) < min(a)
    else:
        dominates = min(b) > max(a)
    if bound is None:
        word = "-"
    elif dominates:
        word = "better"
    elif max(spread_a, spread_b) > bound:
        word = "unresolved"
    elif worsening > bound:
        word = "worse"
    elif -worsening > spread_a + spread_b:
        word = "better"
    else:
        word = "same"
    return {"a": qa, "b": qb, "worsening": worsening,
            "spread_a": spread_a, "spread_b": spread_b, "verdict": word}


def _summary(q: dict) -> str:
    return "{:.5g} [{:.5g}, {:.5g}]".format(q["median"], q["q1"], q["q3"])


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    metrics = metrics_by_name()
    print("{:<16} {:<30} {:>34} {:>34} {:>13} {:>9} {:>6}  {}".format(
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "spread A/B", "worse by", "bound", "verdict",
    ))
    worse = 0
    for key in sorted(set(a) & set(b)):
        workload, name = key
        metric = metrics.get(name, {})
        bound = metric.get("bound")
        row = verdict(a[key], b[key], metric.get("better", "lower"), bound)
        worse += row["verdict"] == "worse"
        print("{:<16} {:<30} {:>34} {:>34} {:>13} {:>+8.1%} {:>6}  {}".format(
            workload, name, _summary(row["a"]), _summary(row["b"]),
            "{:.1%}/{:.1%}".format(row["spread_a"], row["spread_b"]),
            row["worsening"],
            "-" if bound is None else "{:.0%}".format(bound),
            row["verdict"],
        ))
    for key in sorted(set(a) ^ set(b)):
        print("{:<16} {:<30} only in {}".format(
            key[0], key[1], argv[0] if key in a else argv[1]
        ))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
