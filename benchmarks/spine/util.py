"""Helpers shared by the spine's parent and child processes."""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from typing import Dict, List, Sequence

#: The checkout root: ``benchmarks/spine/`` sits two levels below it.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def load_catalog() -> dict:
    """``BENCHMARK.json``: the names, units and bounds of every metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def input_files(uri: str) -> List[str]:
    """The concrete files behind a workload input (a directory reads all
    of its part files in name order, as ``json-file()`` does)."""
    if os.path.isdir(uri):
        return [os.path.join(uri, name) for name in sorted(os.listdir(uri))]
    return [uri]


def jsonloads_pass(paths: Sequence[str]) -> float:
    """Seconds for one ``json.loads``-per-line pass over ``paths``: the
    decode floor every cold number is judged against."""
    started = time.perf_counter()
    for path in paths:
        with open(path, "rb") as handle:
            for line in handle:
                json.loads(line)
    return time.perf_counter() - started


def jsonloads_floor(paths: Sequence[str], passes: int = 3) -> float:
    return min(jsonloads_pass(paths) for _ in range(passes))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation, so every reported value
    is a latency that was actually observed)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as the driver computes them."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}
