"""Golden snapshots of ``Rumble.explain()``.

Each representative query's explain text — static plan, execution
modes, and the optimizer section (pushed predicates, projections, top-k
rewrites) — is pinned under ``tests/golden/``.  Any change to plan
shape or optimizer decisions shows up as a readable diff; refresh the
snapshots deliberately with ``pytest --update-golden``.
"""

import os

import pytest

from repro.core import make_engine

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

#: Query name -> JSONiq text; ``{path}`` is replaced with the data file.
GOLDEN_QUERIES = {
    "filter_count": (
        'count(\n'
        '  for $o in json-file("{path}")\n'
        '  where $o.tag eq "a"\n'
        '  return $o\n'
        ')'
    ),
    "topk": (
        'for $o in json-file("{path}")\n'
        'where $o.v ge 10\n'
        'order by $o.v descending\n'
        'count $c\n'
        'where $c le 3\n'
        'return $o'
    ),
    "full_sort": (
        'for $o in json-file("{path}")\n'
        'order by $o.v ascending\n'
        'count $c\n'
        'where $c ge 3\n'
        'return $o'
    ),
    "group_by": (
        'for $o in json-file("{path}")\n'
        'group by $t := $o.tag\n'
        'return {{ "tag": $t, "count": count($o) }}'
    ),
    "projection": (
        'for $o in json-file("{path}")\n'
        'return {{ "v": $o.v }}'
    ),
    "bare_return_no_projection": (
        'for $o in json-file("{path}")\n'
        'where $o.v gt 5\n'
        'return $o'
    ),
    "position_variable_disables_pushdown": (
        'for $o at $p in json-file("{path}")\n'
        'where $o.v ge 10\n'
        'return $p'
    ),
    "let_pipeline": (
        'for $o in json-file("{path}")\n'
        'let $double := $o.v * 2\n'
        'where $double ge 20\n'
        'return $double'
    ),
    "local_flwor": (
        'for $x in 1 to 10\n'
        'let $square := $x * $x\n'
        'where $square gt 20\n'
        'order by $square descending\n'
        'return $square'
    ),
    "heterogeneous_group": (
        'for $i in parallelize((\n'
        '  {{ "key": "foo" }}, {{ "key": 1 }}, {{ "key": true }}\n'
        '))\n'
        'group by $key := $i.key\n'
        'return {{ "key": $key, "count": count($i) }}'
    ),
    # Pins the columnar planner's *declined* decision: with no pushed
    # predicate to build a mask from, the scan stays on the row path
    # (contrast with bare_return_no_projection, where the masked batch
    # scan is taken).
    "columnar_declined_no_predicates": (
        'for $o in json-file("{path}")\n'
        'return $o'
    ),
    # Pins the emitted whole-stage source itself: a map pipeline with a
    # guarded arithmetic, a column projection and an object constructor
    # (the "Generated stage" section shows the exact generated loop).
    "codegen_specialized_map": (
        'for $o in json-file("{path}")\n'
        'where $o.v ge 10\n'
        'return {{ "double": $o.v * 2, "tag": $o.tag }}'
    ),
}


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    import json

    path = tmp_path_factory.mktemp("golden") / "data.json"
    with open(str(path), "w", encoding="utf-8") as handle:
        for i in range(20):
            handle.write(json.dumps(
                {"v": i, "tag": "a" if i % 2 else "b"}
            ) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def engine():
    built = make_engine(
        executors=2, parallelism=4, columnar=True, codegen=True
    )
    # The snapshots pin exact text, so the memory line must not follow
    # RUMBLE_MEMORY_BUDGET from the environment (the memory-pressure CI
    # job runs the whole suite with that knob turned).
    built.spark.spark_context.memory.set_budget(None)
    return built


@pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
def test_explain_matches_golden(name, engine, data_path, update_golden):
    query = GOLDEN_QUERIES[name].format(path=data_path)
    # The tmp data path is the one run-dependent string in the output.
    actual = engine.explain(query).replace(data_path, "DATA") + "\n"
    golden_file = os.path.join(GOLDEN_DIR, name + ".txt")
    if update_golden:
        with open(golden_file, "w", encoding="utf-8") as handle:
            handle.write(actual)
        return
    assert os.path.exists(golden_file), (
        "missing golden snapshot {}; run pytest --update-golden"
        .format(golden_file)
    )
    with open(golden_file, encoding="utf-8") as handle:
        expected = handle.read()
    assert actual == expected, (
        "explain output for {!r} drifted from tests/golden/{}.txt; if "
        "the change is intended, refresh with pytest --update-golden"
        .format(name, name)
    )
