"""The config-lattice oracle: every optimizer configuration must agree
with the all-off engine.

One corpus — every query in ``examples/queries/``, the executable paper
suite, the canonical Section 6.1 workloads, the error cases of the
columnar differential suite and a messy ``write_heterogeneous`` file
(with corrupt lines) read under all three parse modes — runs on the 16
valid points of

    {fusion} x {adaptive} x {pushdown off; pushdown only; +columnar; +codegen}

at two storage block sizes (block-size invariance).  The reference is
the all-off engine at the default block size; a point agrees when every
query yields identical items, or raises the same exception type with the
same message.  This is the safety net a scan/plan refactor runs under:
the pairwise on/off differential suites are lattice edges.
"""

import itertools
import json
import os

import pytest

from repro.bench.workloads import rumble_query
from repro.core import RumbleConfig, make_engine
from repro.jsoniq.errors import JsoniqException
from repro.jsoniq.jsonlines import PARSE_MODES
from tests.test_differential import EXAMPLE_QUERIES, QUERY_DIR
from tests.test_paper_queries import PAPER_QUERIES

CAP = 100_000

#: name -> (pushdown, columnar, codegen): each level needs the one below.
SCAN_LEVELS = {
    "rowscan": (False, False, False),
    "pushdown": (True, False, False),
    "columnar": (True, True, False),
    "codegen": (True, True, True),
}

#: None is the substrate default (one block per small file); the small
#: size splits every corpus file into several partitions.
BLOCK_SIZES = (None, 4096)

POINTS = [
    pytest.param(
        fusion, adaptive, level, block_size,
        id="{}-{}-{}-{}".format(
            "fused" if fusion else "unfused",
            "adaptive" if adaptive else "static",
            level,
            "blocks{}".format(block_size or "default"),
        ),
    )
    for fusion, adaptive, level, block_size in itertools.product(
        (False, True), (False, True), SCAN_LEVELS, BLOCK_SIZES
    )
]

COLLECTIONS = {
    "orders": [
        {"customer": 1, "from": "USA", "date": "2020-01-01",
         "items": [{"pid": "p1"}]},
        {"customer": 2, "from": "USA", "date": "2020-01-02",
         "items": [{"pid": "p1"}, {"pid": "p2"}]},
        {"customer": 3, "from": "FR", "date": "2020-01-01",
         "items": [{"pid": "p1"}]},
    ],
    "customers": [{"cid": 1}, {"cid": 2}, {"cid": 3}],
    "products": [
        {"pid": "p1", "id": "p1", "name": "Widget"},
        {"pid": "p2", "id": "p2", "name": "Gadget"},
    ],
}


def _engine(fusion, adaptive, level, block_size, parse_mode):
    pushdown, columnar, codegen = SCAN_LEVELS[level]
    engine = make_engine(
        executors=2,
        parallelism=4,
        block_size=block_size,
        config=RumbleConfig(
            materialization_cap=CAP, parse_mode=parse_mode
        ),
        fusion=fusion,
        adaptive=adaptive,
        pushdown=pushdown,
        columnar=columnar,
        codegen=codegen,
    )
    for name, records in COLLECTIONS.items():
        engine.register_collection(name, records)
    return engine


def _outcome(engine, query):
    """("items", [...]) or ("error", exception type, message)."""
    try:
        return ("items", engine.query(query).to_python(cap=CAP))
    except JsoniqException as error:
        return ("error", type(error).__name__, str(error))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return path


def _write_records(path, records):
    return _write_lines(path, [json.dumps(record) for record in records])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """[(case name, parse mode, query text)] over files written once."""
    from repro.datasets import write_confusion
    from repro.datasets.heterogeneous import generate_heterogeneous

    root = str(tmp_path_factory.mktemp("lattice"))

    def path(name):
        return os.path.join(root, name)

    cases = []

    def case(name, query, modes=("failfast",)):
        for mode in modes:
            cases.append(("{}[{}]".format(name, mode), mode, query))

    # -- examples/queries/ ---------------------------------------------------
    services = ["api", "db", "cache"]
    events = _write_records(path("events.jsonl"), [
        {
            "service": services[i % 3],
            "status": "error" if i % 4 == 0 else "ok",
            "timestamp": 1000 + i,
        }
        for i in range(60)
    ])
    for name in EXAMPLE_QUERIES:
        with open(os.path.join(QUERY_DIR, name), encoding="utf-8") as f:
            case(name, f.read().replace("events.jsonl", events))

    # -- the executable paper queries ---------------------------------------
    confusion = write_confusion(path("confusion.json"), 300, seed=7)
    people = _write_records(path("people.json"), [
        {"age": 30, "position": "dev"},
        {"age": 70, "position": "dev"},
        {"age": 41, "position": "ops"},
    ])
    figure_7 = _write_records(path("figure7.json"), [
        {"country": "AU", "target": "French"},
        {"country": ["FR", "BE"], "target": "French"},
        {"target": "French"},
        {"country": "AU", "target": "Danish"},
    ])
    pipeline = _write_records(path("pipeline.json"), [
        {"foo": [{"bar": {"foobar": "a"}}, {"bar": {"foobar": "b"}}]},
        {"foo": [{"bar": {"foobar": "a"}}]},
    ])
    figure_4 = (
        PAPER_QUERIES["figure_4_sort"]
        .replace("hdfs:///dataset.json", confusion)
        .replace("$i.language", "$i.target")
    )
    case("section_2.3_flwor",
         PAPER_QUERIES["section_2.3_flwor"].replace("people.json", people))
    case("figure_4_sort", figure_4)
    case("figure_4_topk",
         figure_4.replace("where $c ge 10", "where $c le 10"))
    case("figure_7_grouping",
         PAPER_QUERIES["figure_7_grouping"].replace(
             "hdfs:///dataset.json", figure_7))
    case("section_4.7_heterogeneous_group",
         PAPER_QUERIES["section_4.7_heterogeneous_group"])
    case("section_5.7_pipeline",
         PAPER_QUERIES["section_5.7_pipeline"].replace(
             "input.json", pipeline))
    # The same executability corrections test_paper_queries.py makes.
    case("figure_8_complex",
         PAPER_QUERIES["figure_8_complex"].replace(
             "every $item in $order.items\n",
             "every $item in $order.items[]\n",
         ).replace(
             "where $product.pid eq $$.id",
             "where $product.pid eq $item.pid",
         ))

    # -- the canonical Section 6.1 workloads --------------------------------
    for kind in ("filter", "group", "sort"):
        case("canonical_" + kind, rumble_query(kind, confusion))

    # -- the columnar differential suite's error cases ----------------------
    broken = _write_lines(path("broken.json"), [
        '{"v": 1}', "{not json at all", '{"v": 3}',
    ])
    case("error_malformed_failfast",
         'for $o in json-file("%s")\nwhere $o.v gt 0\nreturn $o' % broken)
    array_key = _write_records(path("arraykey.json"), [
        {"country": "AU", "v": 1}, {"country": ["FR", "BE"], "v": 2},
    ])
    case("error_non_atomic_grouping_key",
         'for $o in json-file("%s")\n'
         'group by $c := $o.country\n'
         'return { "country": $c, "count": count($o) }' % array_key)
    mixed = _write_records(path("mixed.json"), [{"v": 10}, {"v": "ten"}])
    case("error_incomparable_predicate",
         'for $o in json-file("%s")\nwhere $o.v gt 5\nreturn $o' % mixed)

    # -- a messy file, every parse mode --------------------------------------
    # Figure 5's shape (type-drifting, absent and null fields) plus two
    # corrupt lines and two non-object records: failfast raises,
    # permissive captures the corrupt lines, dropmalformed skips them.
    # The first corrupt line leads the file: a batch scan decodes a whole
    # block before it evaluates any row, so *which* of two competing
    # errors surfaces is only configuration-invariant when the syntax
    # error precedes every row-level type error.
    lines = [
        json.dumps(record, separators=(",", ":"))
        for record in generate_heterogeneous(240, seed=13, mess_ratio=0.1)
    ]
    lines[0:0] = ['{"foo": "1", "target": ']
    lines[120:120] = ["[1, 2, 3]", '"a bare string"']
    lines[200:200] = ['{"foo": "1", "target": ']
    messy = _write_lines(path("messy.json"), lines)
    messy_queries = {
        "messy_projection":
            'for $o in json-file("%s")\n'
            'return { "t": $o.target, "bad": $o._corrupt_record }',
        "messy_filter_count":
            'count(for $o in json-file("%s")\n'
            'where $o.foo eq "3"\nreturn $o)',
        "messy_filter_map":
            'for $o in json-file("%s")\n'
            'where $o.target eq "French"\n'
            'return { "c": $o.country, "b": $o.bar, "n": $o.foo }',
        "messy_group_clean_key":
            'for $o in json-file("%s")\n'
            'group by $t := $o.target\n'
            'return { "t": $t, "n": count($o) }',
        "messy_group_figure_7":
            'for $o in json-file("%s")\n'
            'group by $c := ($o.country[], $o.country, "USA")[1],\n'
            '         $t := $o.target\n'
            'return { "c": $c, "t": $t, "n": count($o) }',
        "messy_group_non_atomic_key":
            'for $o in json-file("%s")\n'
            'group by $c := $o.country\n'
            'return { "c": $c, "n": count($o) }',
        "messy_incomparable_predicate":
            'for $o in json-file("%s")\n'
            'where $o.bar ge 50\nreturn $o.foo',
        "messy_topk":
            'for $o in json-file("%s")\n'
            'where $o.foo eq "1"\n'
            'order by $o.target ascending, $o.foo descending\n'
            'count $c\nwhere $c le 5\nreturn $o',
    }
    for name, template in messy_queries.items():
        case(name, template % messy, modes=PARSE_MODES)
    return cases


@pytest.fixture(scope="module")
def reference(corpus):
    """Every case's outcome on the all-off engine."""
    engines = {
        mode: _engine(False, False, "rowscan", None, mode)
        for mode in PARSE_MODES
    }
    return {
        name: _outcome(engines[mode], query)
        for name, mode, query in corpus
    }


@pytest.mark.parametrize("fusion,adaptive,level,block_size", POINTS)
def test_point_agrees_with_reference(
    fusion, adaptive, level, block_size, corpus, reference
):
    engines = {
        mode: _engine(fusion, adaptive, level, block_size, mode)
        for mode in PARSE_MODES
    }
    for name, mode, query in corpus:
        assert _outcome(engines[mode], query) == reference[name], (
            "{} diverged from the all-off reference".format(name)
        )


def test_reference_is_not_vacuous(reference):
    """The corpus must exercise both verdicts: items and errors, with
    the parse modes actually changing what the messy file yields."""
    kinds = {name: outcome[0] for name, outcome in reference.items()}
    assert kinds["canonical_filter[failfast]"] == "items"
    assert kinds["error_incomparable_predicate[failfast]"] == "error"
    assert reference["messy_projection[failfast]"][1] == "JsonSyntaxError"
    permissive = reference["messy_projection[permissive]"][1]
    dropped = reference["messy_projection[dropmalformed]"][1]
    assert len(permissive) == len(dropped) + 2
    assert sum(1 for row in permissive if row["bad"] is not None) == 2
    for name, outcome in reference.items():
        if outcome[0] == "items":
            assert outcome[1], name + " must produce output"
