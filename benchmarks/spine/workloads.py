"""The seven workloads: seeded inputs, query texts and the serving mix.

``--seed`` is the only workload argument.  Sizes are fixed here (and
recorded in ``pins.json`` for seed 42); changing one is a workload
change, not a result.  ``scale`` exists for the smoke test only.

Why each workload exists (which layer works, which idles) is recorded
in ``BENCHMARK.json`` and README.md; the notes below say only what the
*generator* must guarantee for that to hold.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.datasets import write_confusion, write_heterogeneous
from repro.datasets.language_game import COUNTRIES, LANGUAGES

from util import input_files

CONFUSION_OBJECTS = 100_000
MESSY_OBJECTS = 30_000
#: 80 single-block part files against a 64-entry batch cache: a
#: sequential scan under LRU never hits.  The part count is not scaled,
#: so the smoke test still overflows the cache.
OVERFLOW_PARTS = 80
OVERFLOW_PART_OBJECTS = 1_000
JOIN_SIDE_OBJECTS = 500
SERVE_OBJECTS = 20_000
SERVE_REQUESTS_PER_TENANT = 1_500
SERVE_TENANTS = ("tenant-a", "tenant-b")
#: ``python -m repro serve`` default ``--cap``: results are truncated here.
SERVE_CAP = 200
#: Large enough that no query workload result is truncated.
QUERY_CAP = 1_000_000

QUERY_WORKLOADS = (
    "filter_count", "sort_topk", "group_clean", "group_messy",
    "filter_overflow", "join_equi",
)
SERVE_WORKLOAD = "serve_mixed"
NAMES = QUERY_WORKLOADS + (SERVE_WORKLOAD,)

_FILTER = (
    'count(\n'
    '  for $i in json-file("{path}")\n'
    '  where $i.guess eq $i.target\n'
    '  return $i\n'
    ')'
)
_SORT = (
    'for $i in json-file("{path}")\n'
    'where $i.guess = $i.target\n'
    'order by $i.target ascending,\n'
    '         $i.country descending,\n'
    '         $i.date descending\n'
    'count $c\n'
    'where $c le 10\n'
    'return $i'
)
_GROUP = (
    'for $i in json-file("{path}")\n'
    'group by $c := $i.country, $t := $i.target\n'
    'return {{ "country": $c, "target": $t, "count": count($i) }}'
)
#: The paper's Figure 7 grouping key over a messy ``country`` field.
_GROUP_MESSY = (
    'for $o in json-file("{path}")\n'
    'group by $c := ($o.country[], $o.country, "USA")[1], $t := $o.target\n'
    'return {{ "country": $c, "target": $t, "count": count($o) }}'
)
_JOIN = (
    'for $l in json-file("{left}"), $r in json-file("{right}")\n'
    'where $l.id eq $r.ref\n'
    'return {{ "g": $l.grp, "v": $r.v }}'
)
_COUNT_BY = (
    'count(for $i in json-file("{path}") '
    'where $i.{key} eq "{value}" return $i)'
)
_PARAM_SCAN = (
    'for $i in json-file("{path}") '
    'where $i.country eq "{country}" where $i.target eq "{target}" '
    'return {{"g": $i.guess, "d": $i.date}}'
)
_COMPUTE = 'for $x in 1 to {n} return $x * 2'
ADHOC_STEPS = 24


@dataclass
class InputFile:
    label: str
    path: str
    objects: int
    bytes: int
    sha256: str

    def pin(self) -> Dict[str, object]:
        return {"objects": self.objects, "bytes": self.bytes,
                "sha256": self.sha256}


@dataclass
class Workload:
    name: str
    inputs: List[InputFile]
    #: Objects the rate metrics divide by (all inputs together).
    objects: int
    bytes: int
    gen_s: float
    #: The JSONiq text (query workloads) or the representative
    #: ``param_scan`` text (serve_mixed; what the traced replay analyses).
    query: str
    #: What the traced replay scans: the (first) ``json-file()`` input.
    scan_uri: str
    #: Which §6.3 / raw-RDD floor applies, if any.
    floor_kind: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def paths(self) -> List[str]:
        return [path for item in self.inputs
                for path in input_files(item.path)]


def _describe(label: str, path: str) -> InputFile:
    digest = hashlib.sha256()
    objects = size = 0
    for name in input_files(path):
        with open(name, "rb") as handle:
            for line in handle:
                digest.update(line)
                objects += 1
                size += len(line)
    return InputFile(label, path, objects, size, digest.hexdigest())


def _scaled(count: int, scale: float) -> int:
    return max(1, int(count * scale))


def _write_join_sides(left: str, right: str, count: int, seed: int) -> None:
    """``left`` = {id, grp} with unique ids; ``right`` = {ref, v} whose
    ``ref`` is uniform over the ids, 5% absent and 5% null, never
    type-mixed: the messy keys a hash-join rewrite has to keep right."""
    rng = random.Random(seed)
    with open(left, "w", encoding="utf-8") as handle:
        for index in range(count):
            record = {"id": index, "grp": "g{}".format(rng.randrange(10))}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    with open(right, "w", encoding="utf-8") as handle:
        for _ in range(count):
            record: Dict[str, object] = {}
            roll = rng.random()
            if roll >= 0.10:
                record["ref"] = rng.randrange(count)
            elif roll >= 0.05:
                record["ref"] = None
            record["v"] = rng.randrange(1000)
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def build(name: str, seed: int, scale: float, workdir: str) -> Workload:
    """Generate ``name``'s inputs under ``workdir`` and describe them."""
    started = time.perf_counter()
    floor_kind = None
    extra: Dict[str, object] = {}
    if name in ("filter_count", "sort_topk", "group_clean"):
        path = os.path.join(workdir, "confusion.json")
        write_confusion(path, _scaled(CONFUSION_OBJECTS, scale), seed)
        labelled = [("confusion", path)]
        template, floor_kind = {
            "filter_count": (_FILTER, "filter"),
            "sort_topk": (_SORT, "sort"),
            "group_clean": (_GROUP, "group"),
        }[name]
        query = template.format(path=path)
    elif name == "group_messy":
        path = os.path.join(workdir, "messy.json")
        write_heterogeneous(path, _scaled(MESSY_OBJECTS, scale), seed)
        labelled = [("messy", path)]
        query = _GROUP_MESSY.format(path=path)
    elif name == "filter_overflow":
        path = os.path.join(workdir, "parts")
        os.mkdir(path)
        per_part = _scaled(OVERFLOW_PART_OBJECTS, scale)
        for part in range(OVERFLOW_PARTS):
            write_confusion(
                os.path.join(path, "part-{:05d}.json".format(part)),
                per_part, seed * 1000 + part,
            )
        labelled = [("parts", path)]
        query = _FILTER.format(path=path)
        floor_kind = "filter"
    elif name == "join_equi":
        left = os.path.join(workdir, "left.json")
        right = os.path.join(workdir, "right.json")
        _write_join_sides(
            left, right, _scaled(JOIN_SIDE_OBJECTS, scale), seed
        )
        labelled = [("left", left), ("right", right)]
        query = _JOIN.format(left=left, right=right)
    elif name == SERVE_WORKLOAD:
        path = os.path.join(workdir, "confusion.json")
        write_confusion(path, _scaled(SERVE_OBJECTS, scale), seed)
        labelled = [("confusion", path)]
        query = _PARAM_SCAN.format(
            path=path, country=COUNTRIES[0], target=LANGUAGES[0]
        )
        extra["scan_spec"] = ("param_scan", COUNTRIES[0], LANGUAGES[0])
        extra["requests_per_tenant"] = _scaled(
            SERVE_REQUESTS_PER_TENANT, scale
        )
    else:
        raise ValueError("unknown workload {!r}".format(name))
    gen_s = time.perf_counter() - started
    inputs = [_describe(label, path) for label, path in labelled]
    return Workload(
        name=name,
        inputs=inputs,
        objects=sum(item.objects for item in inputs),
        bytes=sum(item.bytes for item in inputs),
        gen_s=gen_s,
        query=query,
        scan_uri=inputs[0].path,
        floor_kind=floor_kind,
        extra=extra,
    )


# -- The serving mix ------------------------------------------------------------

@dataclass
class Request:
    kind: str  # repeat | param_scan | compute | adhoc
    query: str
    #: What the oracle needs to compute the expected items.
    spec: Tuple


def repeat_requests(path: str) -> List[Request]:
    """The 8 fixed texts of the ``repeat`` class (two shapes)."""
    requests = []
    for key, values in (("country", COUNTRIES[:4]), ("target", LANGUAGES[:4])):
        for value in values:
            requests.append(Request(
                "repeat",
                _COUNT_BY.format(path=path, key=key, value=value),
                ("count_by", key, value),
            ))
    return requests


def _adhoc(rng: random.Random, seen: set) -> Request:
    """A never-repeated *shape*: the +/* pattern of a 24-step let-chain
    inside a UDF body.  Literals there are structural for the plan
    cache, so every request is a miss and a full compile."""
    while True:
        steps = tuple(
            (rng.choice("+*"), rng.randint(1, 3)) for _ in range(ADHOC_STEPS)
        )
        pattern = tuple(op for op, _ in steps)
        if pattern not in seen:
            seen.add(pattern)
            break
    start = rng.randint(1, 9)
    lets, previous = [], "$x"
    for index, (op, constant) in enumerate(steps):
        lets.append("let $a{} := {} {} {}".format(
            index, previous, op, constant
        ))
        previous = "$a{}".format(index)
    query = "declare function local:f($x) {{ {} return {} }}; local:f({})".format(
        " ".join(lets), previous, start
    )
    return Request("adhoc", query, ("adhoc", start, steps))


def serve_schedule(path: str, seed: int, tenant: str, count: int
                   ) -> List[Request]:
    """One tenant's request sequence: 20% repeat, 50% param_scan, 20%
    compute, 10% adhoc, in an order fixed by (seed, tenant).

    One connection per tenant replays this in order, so the tenant's
    plan- and result-cache hit/eviction sequence repeats exactly."""
    rng = random.Random("{}:{}".format(seed, tenant))
    repeats = repeat_requests(path)
    # "Fresh n": distinct within the tenant, so the result cache never
    # answers a compute request.  Above the serve cap on purpose: the
    # payload is the truncated first 200 items.
    fresh = rng.sample(range(SERVE_CAP + 1, SERVE_CAP + 1 + 2 * count), count)
    shapes: set = set()
    schedule = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.2:
            schedule.append(rng.choice(repeats))
        elif roll < 0.7:
            country, target = rng.choice(COUNTRIES), rng.choice(LANGUAGES)
            schedule.append(Request(
                "param_scan",
                _PARAM_SCAN.format(path=path, country=country, target=target),
                ("param_scan", country, target),
            ))
        elif roll < 0.9:
            schedule.append(Request(
                "compute", _COMPUTE.format(n=fresh[index]),
                ("compute", fresh[index]),
            ))
        else:
            schedule.append(_adhoc(rng, shapes))
    return schedule


def cold_request(path: str, seed: int) -> Request:
    """The first request a fresh server sees: one seeded ``param_scan``."""
    rng = random.Random("{}:cold".format(seed))
    country, target = rng.choice(COUNTRIES), rng.choice(LANGUAGES)
    return Request(
        "param_scan",
        _PARAM_SCAN.format(path=path, country=country, target=target),
        ("param_scan", country, target),
    )
