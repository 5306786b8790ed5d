"""The config-lattice oracle: every optimizer configuration must agree
with the all-off engine.

One corpus — every query in ``examples/queries/``, the executable paper
suite, the canonical Section 6.1 workloads, the error cases of the
columnar differential suite and a messy ``write_heterogeneous`` file
(with corrupt lines) read under all three parse modes, plus the
where-chain cases that pin *where* a scan plan may resolve a row's
verdict (an uncovered ``where`` ahead of a covered one, covered wheres
that must be re-checked in clause order, escaped / null / mixed rows
under every sink) — runs on the 16 valid points of

    {fusion} x {adaptive} x {pushdown off; pushdown only; +columnar; +codegen}

at two storage block sizes (block-size invariance).  The reference is
the all-off engine at the default block size; a point agrees when every
query yields identical items, or raises the same exception type with the
same message.  This is the safety net a scan/plan refactor runs under:
the pairwise on/off differential suites are lattice edges.

The second half is the **comparison matrix**: ``$o.l <op> ($o.r |
literal)`` for all twelve comparison operators over every pairing of
operand shapes, each condition in the four places a scan plan can
consume it.  Its reference is not the all-off engine but the *local
iterators* (the same FLWOR with a positional variable, which the
DataFrame mapping declines): the all-off DataFrame path shares the
where clause's compiled predicate with every other point, so only the
local path can see that predicate disagree with ``ComparisonIterator``.
"""

import collections
import itertools
import json
import os

import pytest

from repro.bench.workloads import rumble_query
from repro.core import RumbleConfig, make_engine
from repro.core.engine import CompiledQuery
from repro.items.compare import GENERAL_TO_VALUE, VALUE_OPS
from repro.jsoniq.errors import JsoniqException
from repro.jsoniq.jsonlines import PARSE_MODES
from repro.obs import Observability
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


#: The four sinks a scan plan can feed, over one where-chain: boxed items,
#: the count kernel, the direct-key group-by count kernel and an
#: object-constructor return (the generated loop).
SINKS = {
    "items":
        'for $o in json-file("{path}")\n{wheres}\nreturn $o',
    "count":
        'count(for $o in json-file("{path}")\n{wheres}\nreturn $o)',
    "group":
        'for $o in json-file("{path}")\n{wheres}\n'
        'group by $g := $o.g\nreturn {{ "g": $g, "n": count($o) }}',
    "object":
        'for $o in json-file("{path}")\n{wheres}\n'
        'return {{ "a": $o.a, "b": $o.b, "m": $o.m }}',
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

    # -- where chains: where the verdict may be resolved ---------------------
    def where_chain(name, file, wheres, modes=("failfast",)):
        for sink, template in SINKS.items():
            case("{}/{}".format(name, sink),
                 template.format(path=file, wheres="\n".join(wheres)),
                 modes=modes)

    # (a) The first where is not a pushable shape and raises on the row
    # the second, pushable one rejects: pushing the second would prune
    # the row the reference raises on.
    where_chain(
        "uncovered_raising_where_first",
        _write_records(path("prefix_raise.json"), [
            {"a": 1, "b": 1, "g": "x"}, {"a": "x", "b": 2, "g": "y"},
        ]),
        ["where $o.a + 1 gt 1", "where $o.b eq 1"],
    )
    # (b) The same chain where the first where merely rejects rows.
    where_chain(
        "uncovered_rejecting_where_first",
        _write_records(path("prefix_reject.json"), [
            {"a": 1, "b": 1, "g": "x"}, {"a": 0, "b": 1, "g": "x"},
            {"a": 5, "b": 2, "g": "y"}, {"a": -3, "b": 1, "g": "y"},
            {"b": 1, "g": "z"}, {"a": 7, "b": 1, "g": "z"},
        ]),
        ["where $o.a + 1 gt 1", "where $o.b eq 1"],
    )
    # (c) Two covered wheres, re-checked in clause order.  The second
    # raises on rows the first rejects — one by the mask (a = 2), one
    # only by the re-check (a = null): no error may surface.
    where_chain(
        "covered_first_rejects_second_raises",
        _write_records(path("order_reject.json"), [
            {"a": 1, "b": 1, "g": "x"}, {"a": 2, "b": "x", "g": "y"},
            {"a": None, "b": "x", "g": "y"}, {"a": 1, "b": 3, "g": "z"},
        ]),
        ["where $o.a eq 1", "where $o.b gt 0"],
    )
    # The mirror: the first raises on a row the second rejects — by the
    # mask (b = 2), or only by the re-check (b = null).  The error must
    # surface either way.
    where_chain(
        "covered_first_raises_second_prunes",
        _write_records(path("order_raise_pruned.json"), [
            {"a": 1, "b": 1, "g": "x"}, {"a": "x", "b": 2, "g": "y"},
        ]),
        ["where $o.a gt 0", "where $o.b eq 1"],
    )
    where_chain(
        "covered_first_raises_second_undecided",
        _write_records(path("order_raise_null.json"), [
            {"a": 1, "b": 1, "g": "x"}, {"a": "x", "b": None, "g": "y"},
        ]),
        ["where $o.a gt 0", "where $o.b eq 1"],
    )

    # (d) Covered wheres over blocks with escaped rows and null / absent
    # / mixed keys, every parse mode, every sink.  The regular shape is
    # {a, b, g, m}; rows past the 64-record schema sample escape it.
    def escapes_record(i):
        record = {
            "a": "ab"[i % 2], "b": i, "g": "xyz"[i % 3],
            "m": i if i % 5 else "m{}".format(i),
        }
        if i % 7 == 0:
            record["a"] = None
        elif i % 11 == 0:
            del record["a"]
        if i % 13 == 0:
            record["g"] = None
        elif i % 17 == 0:
            del record["g"]
        if i % 19 == 0:
            record["m"] = [i, {"n": i}]
        elif i % 23 == 0:
            record["m"] = {"n": i}
        if i > 64:
            if i % 8 == 2:   # re-ordered keys
                record = dict(reversed(list(record.items())))
            elif i % 8 == 4:  # a key outside the schema
                record["extra"] = i
            elif i % 8 == 6:  # a type conflict with the integer column
                record["b"] = float(i) + 0.5
        return record

    escape_lines = [
        json.dumps(escapes_record(i), separators=(",", ":"))
        for i in range(140)
    ]
    escape_lines[70:70] = ["[1, 2, 3]", '"a bare string"', "42", "null"]
    escapes = _write_lines(path("escapes.json"), escape_lines)
    corrupt_lines = list(escape_lines)
    corrupt_lines[0:0] = ['{"a": "a", "b": ']
    corrupt_lines[100:100] = ['{"a": "a", "b": 100, "g": "x", "m"']
    escapes_corrupt = _write_lines(path("escapes_corrupt.json"), corrupt_lines)
    for name, file in (("escapes", escapes),
                       ("escapes_corrupt", escapes_corrupt)):
        where_chain(name, file,
                    ['where $o.a eq "a"', "where $o.b ge 3"],
                    modes=PARSE_MODES)
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


@pytest.mark.parametrize(
    "block_size", BLOCK_SIZES,
    ids=["blocks{}".format(size or "default") for size in BLOCK_SIZES],
)
def test_probes_change_nothing(block_size, corpus, reference):
    """An enabled observability bundle — what every ``Session`` installs
    — is a second reading of the same run, never a second code path: at
    the default optimizer point every case keeps its items and its
    error type + message (the reference is the ``NOOP`` all-off engine,
    which the same point under ``NOOP`` agrees with, above)."""
    engines = {}
    for mode in PARSE_MODES:
        engines[mode] = _engine(True, True, "codegen", block_size, mode)
        engines[mode].runtime.obs = Observability(enabled=True)
    for name, mode, query in corpus:
        assert _outcome(engines[mode], query) == reference[name], (
            "{} changed under an enabled bundle".format(name)
        )
    for engine in engines.values():
        counters = engine.runtime.obs.metrics.snapshot()["counters"]
        assert any(
            name.startswith("rumble.clause.rows_out") and value
            for name, value in counters.items()
        ), "the bundle must actually have counted rows"


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
    # The where chains: an error where an earlier where raises, items
    # where it only rejects, and escaped rows among the survivors.
    for sink in SINKS:
        for name, kind in (
            ("uncovered_raising_where_first", "error"),
            ("uncovered_rejecting_where_first", "items"),
            ("covered_first_rejects_second_raises", "items"),
            ("covered_first_raises_second_prunes", "error"),
            ("covered_first_raises_second_undecided", "error"),
        ):
            assert kinds["{}/{}[failfast]".format(name, sink)] == kind
        assert kinds["escapes_corrupt/{}[failfast]".format(sink)] == "error"
        for mode in PARSE_MODES:
            assert reference["escapes/{}[{}]".format(sink, mode)] \
                == reference["escapes_corrupt/{}[dropmalformed]".format(sink)]
    survivors = reference["escapes/items[failfast]"][1]
    assert reference["escapes/count[failfast]"][1] == [len(survivors)]
    assert any("extra" in row for row in survivors)
    assert any(list(row) == ["m", "g", "b", "a"] for row in survivors)
    assert any(type(row["b"]) is float for row in survivors)


# ---------------------------------------------------------------------------
# The comparison matrix, against the local iterators
# ---------------------------------------------------------------------------

_NO_KEY = object()

#: Operand shapes a record key can take (``absent`` = the key is missing).
SHAPES = {
    "absent": _NO_KEY, "null": None, "true": True, "1": 1, "1.5": 1.5,
    '"s"': "s", "[1]": [1], '{"a":1}': {"a": 1},
}
#: The scalar literals, as JSONiq source (``1.5`` is a decimal literal).
LITERALS = ("null", "true", "1", "1.5", '"s"')
OPERATORS = tuple(VALUE_OPS) + tuple(GENERAL_TO_VALUE)

#: The four consumers of a condition: a where ahead of a return, the
#: count kernel, the group-by count kernel, and the generated loop's
#: return expression.  ``{at}`` takes the positional variable that keeps
#: a chain on the local iterators.
CONSUMERS = {
    "where":
        'for $o{at} in json-file("{path}"){let}\n'
        'where {condition}\nreturn $o.a',
    "count":
        'count(for $o{at} in json-file("{path}"){let}\n'
        'where {condition}\nreturn $o)',
    "group":
        'for $o{at} in json-file("{path}"){let}\n'
        'where {condition}\ngroup by $g := $o.g\n'
        'return {{ "g": $g, "n": count($o) }}',
    "return":
        'for $o{at} in json-file("{path}"){let}\nreturn {condition}',
}

MatrixCase = collections.namedtuple(
    "MatrixCase", "name local distributed one_block"
)

#: query text -> CompiledQuery.  The compiled tree is engine-independent
#: (every optimization stays dormant until a runtime's flags enable it),
#: so the ~4k matrix queries compile once, not once per lattice point.
_COMPILED = {}


def _matrix_outcome(engine, text):
    try:
        compiled = _COMPILED.get(text)
        if compiled is None:
            compiled = _COMPILED[text] = engine.compile(text)
        return ("items", CompiledQuery(
            engine, compiled.module, compiled.iterator, compiled.globals
        ).run().to_python(cap=CAP))
    except JsoniqException as error:
        return ("error", type(error).__name__, str(error))


def _matrix_record(row, left, right=None):
    record = {"a": row, "g": row % 3}
    for key, shape in (("l", left), ("r", right)):
        if shape is not None and SHAPES[shape] is not _NO_KEY:
            record[key] = SHAPES[shape]
    return record


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """([MatrixCase], {case name: outcome on the local iterators}).

    A row the reference raises on sits alone in a one-record file — an
    error aborts the query, so two such rows in one file would hide each
    other.  All rows it answers sit together in one file per condition.
    A key-vs-key file is padded past the small block size, so the
    block-size axis splits it and its columns are mixed-kind; the rows a
    key-vs-literal condition answers share the literal's family, so
    their column stays typed and the file stays one block.
    """
    root = str(tmp_path_factory.mktemp("matrix"))
    local = _engine(False, False, "rowscan", None, "failfast")
    cases = []

    def write(name, records, pad=0):
        filler = {"pad": "x" * pad} if pad else {}
        return _write_records(
            os.path.join(root, name),
            [dict(record, **filler) for record in records],
        )

    def add(name, path, condition, one_block, let="",
            consumers=tuple(CONSUMERS)):
        for consumer in consumers:
            local_text, distributed = (
                CONSUMERS[consumer].format(
                    at=at, path=path, let=let, condition=condition
                )
                for at in (" at $p", "")
            )
            cases.append(MatrixCase(
                "{} / {}".format(name, consumer), local_text, distributed,
                one_block,
            ))

    def raises(path, condition):
        return _matrix_outcome(local, CONSUMERS["return"].format(
            at=" at $p", path=path, let="", condition=condition
        ))[0] == "error"

    rows = {}
    pairs = [(left, right) for left in SHAPES for right in SHAPES]
    pairs += [(left, None) for left in SHAPES]
    for row, (left, right) in enumerate(pairs):
        record = _matrix_record(row, left, right)
        rows[left, right] = (
            record, write("row{}.json".format(row), [record])
        )
    together = {}
    for op in OPERATORS:
        conditions = [("$o.l {} $o.r".format(op), True)] + [
            ("$o.l {} {}".format(op, literal), False)
            for literal in LITERALS
        ]
        for condition, key_vs_key in conditions:
            answered = []
            for (left, right), (record, path) in rows.items():
                if (right is not None) != key_vs_key:
                    continue
                if raises(path, condition):
                    add(
                        "{} over {}".format(
                            condition, json.dumps(record)
                        ),
                        path, condition, one_block=True,
                    )
                else:
                    answered.append(record)
            key = json.dumps(answered)
            if key not in together:
                together[key] = write(
                    "together{}.json".format(len(together)), answered,
                    pad=4608 // len(answered) if key_vs_key else 0,
                )
            add(condition + " over the rows it answers", together[key],
                condition, one_block=not key_vs_key)

    # The generated loop's arithmetic: a non-atomic operand raises, even
    # against an empty one.
    for op, left, right in itertools.product(
        "+-*", ("[1]", '{"a":1}'), ("absent", "1")
    ):
        record, path = rows[left, right]
        condition = "$o.l {} $o.r".format(op)
        add("{} over {}".format(condition, json.dumps(record)), path,
            condition, one_block=True, consumers=("return",))

    # Bindings that are not one scanned object: a fast form must hand
    # them to the reference evaluator, whose wording they then share.
    bindings = write("bindings.json", [{"a": 1, "g": 1, "l": 1}])
    for name, let, condition in (
        ("two-item binding, value", "let $p := ($o, $o)", "$p.l eq 1"),
        ("two-item binding, general", "let $p := ($o, $o)", "$p.l = 1"),
        ("constructed binding", 'let $p := { "l": $o.l }', "$p.l eq 1"),
        ("empty binding", "let $p := ()", "$p.l eq 1"),
    ):
        add(name, bindings, condition, one_block=True, let="\n" + let)

    reference = {
        case.name: _matrix_outcome(local, case.local) for case in cases
    }
    return cases, reference


@pytest.mark.parametrize("fusion,adaptive,level,block_size", POINTS)
def test_comparison_matrix_agrees_with_local_iterators(
    fusion, adaptive, level, block_size, matrix
):
    cases, reference = matrix
    engine = _engine(fusion, adaptive, level, block_size, "failfast")
    disagreements = []
    for case in cases:
        if case.one_block and block_size is not None:
            continue  # the same single partition at either size
        outcome = _matrix_outcome(engine, case.distributed)
        if outcome != reference[case.name]:
            disagreements.append(
                (case.name, reference[case.name], outcome)
            )
    assert not disagreements, "{} of the matrix diverged, e.g. {}".format(
        len(disagreements), disagreements[:3]
    )


def test_comparison_matrix_is_not_vacuous(matrix):
    cases, reference = matrix
    kinds = collections.Counter(
        reference[case.name][0] for case in cases
    )
    # One answered case per condition (12 operators x (key + 5 literals))
    # and consumer, plus the three bindings that answer; every other
    # cell of 12 x (64 pairs + 8 shapes x 5 literals) x 4 raises alone.
    assert kinds["items"] == (len(OPERATORS) * 6 + 3) * len(CONSUMERS)
    assert kinds["error"] > 2000
    assert sum(not case.one_block for case in cases) \
        == len(OPERATORS) * len(CONSUMERS)
    messages = {
        outcome[2] for outcome in reference.values()
        if outcome[0] == "error"
    }
    assert "[XPTY0004] comparison operand must be atomic, got array" \
        in messages
    assert "[XPTY0004] cannot compare object" in messages
    assert "[XPTY0004] operand of + must be atomic, got object" in messages
    assert "[XPTY0004] operand of * must be atomic, got array" in messages
    assert any("single item" in message for message in messages)


# ---------------------------------------------------------------------------
# The key matrix: ordering and grouping keys, against the local iterators
# ---------------------------------------------------------------------------

#: Four padded records fill one 4096-byte block: consecutive runs of
#: four key values land in consecutive partitions at the small block
#: size, and the default size cuts the file into ``parallelism`` pieces
#: — so the lattice's block-size axis is this matrix's layout axis.  The
#: third layout, one block, is ``json-file(path, 1)`` at the default size
#: (under the first and the last modifier only, for tier-1's budget).
RUN = 4
_PAD = "x" * 1100

#: Ordering-key populations: name -> (key expression, runs of key values).
#: A raising one holds exactly one offending row — an error aborts the
#: query — placed after its block's first row, as the first row of a
#: later block, or (for a family conflict) as a whole earlier block.
ORDER_POPULATIONS = {
    "number": ("$o.a", [[3, 1, 2.5, -1], [2, 10, 0, 1.5]]),
    "string": ("$o.a", [["b", "a", "d", "c"], ["ab", "", "z", "B"]]),
    "boolean": ("$o.a", [[True, False, True, False],
                         [False, True, True, False]]),
    "null only": ("$o.a", [[None] * RUN] * 2),
    "absent only": ("$o.a", [[_NO_KEY] * RUN] * 2),
    "null + number": ("$o.a", [[None] * RUN, [3, 1, 2, 0]]),
    "number + null": ("$o.a", [[3, 1, 2, 0], [None] * RUN]),
    "null + string": ("$o.a", [[None] * RUN, ["b", "a", "d", "c"]]),
    "null + boolean": ("$o.a", [[None] * RUN, [True, False, True, False]]),
    "absent + null + number": (
        "$o.a", [[_NO_KEY] * RUN, [None] * RUN, [3, 1, 2, 0]]),
    "null among numbers": (
        "$o.a", [[None, 3, None, 1], [2, _NO_KEY, None, 0]]),
    "number via $o.a[]": (
        "$o.a[]", [[[3], [1], [2], [0]], [[5], [], [7], [6]]]),
    "number + string, string opens a later block": (
        "$o.a", [[1, 2, 3, 4], ["s", 5, 6, 7]]),
    "number + string, string inside the first block": (
        "$o.a", [[1, "s", 3, 4], [5, 6, 7, 8]]),
    "number + string, strings fill an earlier block": (
        "$o.a", [["s", "t", "u", "v"], [1, 2, 3, 4]]),
    "array among numbers, in a later block": (
        "$o.a", [[1, 2, 3, 4], [5, [6], 7, 8]]),
    "array among numbers, in the first block": (
        "$o.a", [[1, [2], 3, 4], [5, 6, 7, 8]]),
    "two-item key, in a later block": (
        "$o.a[]", [[[1], [2], [3], [4]], [[5], [6, 7], [8], [9]]]),
    "two-item key, in the first block": (
        "$o.a[]", [[[1], [2, 3], [4], [5]], [[6], [7], [8], [9]]]),
}
ORDER_MODIFIERS = (
    "ascending", "descending", "empty greatest",
    "descending empty greatest",
)
#: Every key list ends in the unique ``$o.i``, so results are totally
#: ordered — except under ``stable``, where ties keep the input order.
ORDER_CONSUMERS = {
    "sort":
        'for $o{at} in json-file("{path}"{blocks})\n'
        'order by {key} {modifier}, $o.i\nreturn $o.i',
    "sort on the second key":
        'for $o{at} in json-file("{path}"{blocks})\n'
        'order by $o.t, {key} {modifier}, $o.i\nreturn $o.i',
    "top-k":
        'for $o{at} in json-file("{path}"{blocks})\n'
        'order by {key} {modifier}, $o.i\n'
        'count $c\nwhere $c le 3\nreturn $o.i',
    "top-0":
        'for $o{at} in json-file("{path}"{blocks})\n'
        'order by {key} {modifier}, $o.i\n'
        'count $c\nwhere $c lt 1\nreturn $o.i',
    "count":
        'count(for $o{at} in json-file("{path}"{blocks})\n'
        'order by {key} {modifier}, $o.i\nreturn $o.i)',
    "stable sort":
        'for $o{at} in json-file("{path}"{blocks})\n'
        'stable order by {key} {modifier}\nreturn $o.i',
    "stable top-k":
        'for $o{at} in json-file("{path}"{blocks})\n'
        'stable order by {key} {modifier}\n'
        'count $c\nwhere $c le 5\nreturn $o.i',
}

#: Grouping-key values that group (``1`` and ``1.0`` into one group) and
#: the ones that raise, each among string keys in a later block.
GROUP_VALUES = ("s", 1, 1.0, True, False, None, _NO_KEY)
GROUP_RAISING = {"array": ["a", "b"], "object": {"n": 1}}
#: The kernel (``count($o)`` on a direct key) and the ``encode``
#: projection's three key forms: the scan variable materialised on a
#: direct key, a let-bound key, an expression key.
GROUP_CONSUMERS = {
    "kernel":
        'for $o{at} in json-file("{path}"{blocks})\ngroup by $k := $o.k\n'
        'return {{ "k": $k, "n": count($o) }}',
    "materialised":
        'for $o{at} in json-file("{path}"{blocks})\ngroup by $k := $o.k\n'
        'return {{ "k": $k, "b": $o[1].i }}',
    "let-bound":
        'for $o{at} in json-file("{path}"{blocks})\n'
        'let $k := $o.k\ngroup by $k\n'
        'return {{ "k": $k, "n": count($o) }}',
    "expression":
        'for $o{at} in json-file("{path}"{blocks})\n'
        'group by $k := ($o.k[], $o.k, "x")[1]\n'
        'return {{ "k": $k, "n": count($o) }}',
    "unboxed":
        'for $o{at} in json-file("{path}"{blocks})\ngroup by $k := $o.k[]\n'
        'return {{ "k": $k, "n": count($o) }}',
}


def _key_outcome(engine, text):
    """Type-strict: ``1`` and ``1.0`` are equal to Python, not to a
    group's representative key."""
    outcome = _matrix_outcome(engine, text)
    return ("items", repr(outcome[1])) if outcome[0] == "items" else outcome


@pytest.fixture(scope="module")
def key_matrix(tmp_path_factory):
    """([MatrixCase], {case name: outcome on the local iterators})."""
    root = str(tmp_path_factory.mktemp("keys"))
    local = _engine(False, False, "rowscan", None, "failfast")
    cases = []

    def write(name, key, values):
        records = []
        for index, value in enumerate(values):
            record = {"i": index, "t": index % 2, "pad": _PAD}
            if value is not _NO_KEY:
                record[key] = value
            records.append(record)
        return _write_records(os.path.join(root, name), records)

    def add(name, template, modifier="ascending", **parts):
        layouts = [("", "")]
        if modifier in ("ascending", "descending empty greatest"):
            layouts.append((", one block", ", 1"))
        for layout, blocks in layouts:
            local_text, distributed = (
                template.format(
                    at=at, blocks=blocks, modifier=modifier, **parts
                )
                for at in (" at $p", "")
            )
            cases.append(MatrixCase(
                name + layout, local_text, distributed, bool(blocks)
            ))

    for number, (population, (key, runs)) in enumerate(
        ORDER_POPULATIONS.items()
    ):
        path = write("order{}.json".format(number), "a",
                     [value for run in runs for value in run])
        for modifier, consumer in itertools.product(
            ORDER_MODIFIERS,
            ("sort", "sort on the second key", "top-k", "top-0", "count"),
        ):
            if consumer == "top-0" and modifier != "ascending":
                continue  # nothing is kept: only the discovery matters
            add("order by {} {} over {} / {}".format(
                    key, modifier, population, consumer),
                ORDER_CONSUMERS[consumer],
                path=path, key=key, modifier=modifier)
    # Ties and no tiebreaker: ``$o.t`` alternates, across two blocks.
    ties = write("ties.json", "a", [0] * (2 * RUN))
    for modifier, consumer in itertools.product(
        ORDER_MODIFIERS, ("stable sort", "stable top-k")
    ):
        add("order by $o.t {} over ties / {}".format(modifier, consumer),
            ORDER_CONSUMERS[consumer],
            path=ties, key="$o.t", modifier=modifier)

    groups = {"values": write("group.json", "k", GROUP_VALUES * 3)}
    for shape, value in GROUP_RAISING.items():
        groups[shape] = write(
            "group_{}.json".format(shape), "k",
            ["s", "t", "s", "t", "s", value, "t", "s"],
        )
    for (shape, path), consumer in itertools.product(
        groups.items(), ("kernel", "materialised", "let-bound", "expression")
    ):
        add("group by over {} / {}".format(shape, consumer),
            GROUP_CONSUMERS[consumer], path=path)
    add("group by over a two-item key / unboxed", GROUP_CONSUMERS["unboxed"],
        path=write("group_two.json", "k",
                   [[1], [2], [1], [2], [1], [1, 2], [2], [1]]))

    reference = {
        case.name: _key_outcome(local, case.local) for case in cases
    }
    return cases, reference


@pytest.mark.parametrize("fusion,adaptive,level,block_size", POINTS)
def test_key_matrix_agrees_with_local_iterators(
    fusion, adaptive, level, block_size, key_matrix
):
    cases, reference = key_matrix
    engine = _engine(fusion, adaptive, level, block_size, "failfast")
    disagreements = []
    for case in cases:
        if case.one_block and block_size is not None:
            continue  # the small block size splits the file regardless
        texts = [case.distributed]
        if "top-" in case.name:
            # Under a pushdown level the local text's top-k tail is the
            # rewritten clause's tuple stream, not the reference's.
            texts.append(case.local)
        for text in texts:
            outcome = _key_outcome(engine, text)
            if outcome != reference[case.name]:
                disagreements.append(
                    (case.name, reference[case.name], outcome)
                )
    assert not disagreements, "{} of the key matrix diverged, e.g. {}".format(
        len(disagreements), disagreements[:3]
    )


def test_key_matrix_is_not_vacuous(key_matrix):
    cases, outcomes = key_matrix
    messages = collections.Counter(
        outcome[2] for outcome in outcomes.values() if outcome[0] == "error"
    )
    # Per population: four consumers under four modifiers, two of them
    # in the one-block layout as well, and ``top-0`` under one, in both
    # layouts; per grouping consumer, both layouts.
    cells = 4 * (len(ORDER_MODIFIERS) + 2) + 2
    assert messages == {
        "[XPTY0004] incompatible order-by key types: number and string":
            2 * cells,
        "[XPTY0004] incompatible order-by key types: string and number":
            cells,
        "[XPTY0004] order-by key is not atomic (array)": 2 * cells,
        "[XPTY0004] order-by key evaluated to more than one item": 2 * cells,
        "[XPTY0004] grouping variable $k is not atomic (array)": 3 * 2,
        "[XPTY0004] grouping variable $k is not atomic (object)": 4 * 2,
        "[XPTY0004] grouping variable $k has more than one item": 2,
    }
    # A null run sorts, in either direction and wherever the empty
    # sequence goes; ties keep the input order under ``stable``.
    assert outcomes["order by $o.a descending over null + number / sort"] \
        == ("items", "[4, 6, 5, 7, 0, 1, 2, 3]")
    assert outcomes[
        "order by $o.a empty greatest over absent + null + number / top-k"
    ] == ("items", "[4, 5, 6]")
    assert outcomes["order by $o.t descending over ties / stable sort"] \
        == ("items", "[1, 3, 5, 7, 0, 2, 4, 6]")
    # ``1`` and ``1.0`` share a group, whose key is its first member's.
    grouped = outcomes["group by over values / kernel"][1]
    assert grouped.count("'n': 3") == 5 and "{'k': 1, 'n': 6}" in grouped
    # The layouts are what the populations' names say they are.
    engine = _engine(False, False, "rowscan", 4096, "failfast")
    blocks = engine.runtime.spark.spark_context.text_file(
        cases[0].local.split('"')[1]
    ).glom().collect()
    assert [len(block) for block in blocks] == [RUN, RUN, 0]
