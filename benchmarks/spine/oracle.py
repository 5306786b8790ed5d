"""Plain-Python oracles for the seven workloads.

Every expected result is computed from the generated records with
``json`` and builtins only — never through ``repro`` — so a wrong
answer from any layer of the engine cannot agree with its own check.
"""

from __future__ import annotations

import json
from collections import Counter
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

Check = Callable[[object], bool]


def load_records(paths: Iterable[str]) -> Iterator[dict]:
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                yield json.loads(line)


def filter_count(records: Iterable[dict]) -> Check:
    expected = [sum(1 for r in records if r["guess"] == r["target"])]
    return lambda got: got == expected


def _sort_key(record: dict) -> Tuple[str, str, str]:
    return record["target"], record["country"], record["date"]


def sort_topk(records: Iterable[dict], limit: int = 10) -> Check:
    """Ordered top-``limit`` of the matching records by (target asc,
    country desc, date desc).

    ``order by`` without ``stable`` leaves the order of tied rows to the
    implementation, so the check pins the *key* sequence and accepts any
    distinct records that carry those keys."""
    matched = [r for r in records if r["guess"] == r["target"]]
    matched.sort(key=itemgetter("date"), reverse=True)
    matched.sort(key=itemgetter("country"), reverse=True)
    matched.sort(key=itemgetter("target"))
    keys = [_sort_key(r) for r in matched[:limit]]
    wanted = set(keys)
    candidates: Dict[Tuple, List[dict]] = {}
    for record in matched:
        key = _sort_key(record)
        if key in wanted:
            candidates.setdefault(key, []).append(record)

    def check(got) -> bool:
        if not isinstance(got, list) or not all(
            isinstance(r, dict) and {"target", "country", "date"} <= r.keys()
            for r in got
        ):
            return False
        if [_sort_key(r) for r in got] != keys:
            return False
        seen: List[dict] = []
        for record in got:
            if record in seen or record not in candidates[_sort_key(record)]:
                return False
            seen.append(record)
        return True

    return check


def _group_check(expected: Counter) -> Check:
    def check(got) -> bool:
        if not isinstance(got, list) or len(got) != len(expected):
            return False
        rows = {}
        for row in got:
            if not isinstance(row, dict) or set(row) != {
                "country", "target", "count"
            }:
                return False
            rows[(row["country"], row["target"])] = row["count"]
        return rows == expected

    return check


def group_clean(records: Iterable[dict]) -> Check:
    return _group_check(Counter(
        (r["country"], r["target"]) for r in records
    ))


def figure7_country(record: dict):
    """``($o.country[], $o.country, "USA")[1]``: an array contributes its
    first member, a string or null itself (null is a grouping key of its
    own), and only an *absent* country falls through to "USA".  The
    generator never writes an empty array."""
    if "country" not in record:
        return "USA"
    country = record["country"]
    if isinstance(country, list):
        return country[0]
    return country


def group_messy(records: Iterable[dict]) -> Check:
    return _group_check(Counter(
        (figure7_country(r), r["target"]) for r in records
    ))


def join_equi(left: Iterable[dict], right: Iterable[dict]) -> Check:
    """The multiset of {g, v} over ``$l.id eq $r.ref``; an absent or
    null ``ref`` matches nothing."""
    groups = {record["id"]: record["grp"] for record in left}
    expected = Counter(
        (groups[r["ref"]], r["v"]) for r in right
        if r.get("ref") is not None and r["ref"] in groups
    )

    def check(got) -> bool:
        if not isinstance(got, list) or not all(
            isinstance(row, dict) and set(row) == {"g", "v"} for row in got
        ):
            return False
        return Counter((row["g"], row["v"]) for row in got) == expected

    return check


def for_workload(name: str, paths_by_label: Dict[str, List[str]]) -> Check:
    """The result check of one query workload, from its input files."""
    if name == "join_equi":
        return join_equi(
            load_records(paths_by_label["left"]),
            load_records(paths_by_label["right"]),
        )
    (paths,) = paths_by_label.values()
    build = {
        "filter_count": filter_count,
        "filter_overflow": filter_count,
        "sort_topk": sort_topk,
        "group_clean": group_clean,
        "group_messy": group_messy,
    }[name]
    return build(load_records(paths))


class ServeOracle:
    """Expected ``items`` payloads of every ``serve_mixed`` request class,
    from one pass over the confusion records."""

    def __init__(self, records: Iterable[dict], cap: int):
        self.cap = cap
        self.counts: Counter = Counter()
        self.pairs: Dict[Tuple[str, str], List[dict]] = {}
        for record in records:
            self.counts[("country", record["country"])] += 1
            self.counts[("target", record["target"])] += 1
            self.pairs.setdefault(
                (record["country"], record["target"]), []
            ).append({"g": record["guess"], "d": record["date"]})

    def expected(self, spec: Tuple) -> List[object]:
        kind = spec[0]
        if kind == "count_by":
            return [self.counts[(spec[1], spec[2])]]
        if kind == "param_scan":
            # A FLWOR without ``order by`` keeps input order.
            return self.pairs.get((spec[1], spec[2]), [])[:self.cap]
        if kind == "compute":
            return [2 * x for x in range(1, min(spec[1], self.cap) + 1)]
        if kind == "adhoc":
            value = spec[1]
            for op, constant in spec[2]:
                value = value + constant if op == "+" else value * constant
            return [value]
        raise ValueError("unknown request spec {!r}".format(spec))
