"""Plan cache correctness: the cache must be semantically invisible.

Two layers of evidence:

* a differential sweep — the corpus of ``tests/test_differential.py``
  (example queries, executable paper queries, canonical workloads) runs
  cold and warm through a cached engine and must match an uncached
  engine exactly, with the warm run actually hitting the cache;
* a non-conflation suite — adversarial query pairs that share a token
  shape but differ in a literal the planner consumes (comparison
  bounds, lookup keys, constructor keys, UDF-body constants, literal
  kinds), plus a hypothesis property generating random literal vectors
  through a deliberately tiny cache.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Rumble, RumbleConfig, make_engine
from repro.server.plan_cache import PlanCache, fingerprint
from tests.test_paper_queries import PAPER_QUERIES

QUERY_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "queries",
)
EXAMPLE_QUERIES = sorted(
    name for name in os.listdir(QUERY_DIR) if name.endswith(".jq")
)


def _cached_engine(capacity=256):
    return make_engine(
        executors=2, parallelism=4,
        config=RumbleConfig(
            materialization_cap=100_000, plan_cache_size=capacity
        ),
    )


def _uncached_engine():
    return make_engine(
        executors=2, parallelism=4,
        config=RumbleConfig(materialization_cap=100_000),
    )


@pytest.fixture(scope="module")
def engines():
    return {"cached": _cached_engine(), "uncached": _uncached_engine()}


@pytest.fixture(scope="module")
def events_file(tmp_path_factory):
    import json

    path = tmp_path_factory.mktemp("plancache") / "events.jsonl"
    services = ["api", "db", "cache"]
    with open(str(path), "w", encoding="utf-8") as handle:
        for i in range(60):
            handle.write(json.dumps({
                "service": services[i % 3],
                "status": "error" if i % 4 == 0 else "ok",
                "timestamp": 1000 + i,
            }))
            handle.write("\n")
    return str(path)


def run_cold_warm(engines, query, cap=100_000):
    """Uncached reference vs. a cold fill and a warm hit on the cache."""
    reference = engines["uncached"].query(query).to_python(cap=cap)
    cache = engines["cached"].plan_cache
    hits_before = cache.hits
    cold = engines["cached"].query(query).to_python(cap=cap)
    warm = engines["cached"].query(query).to_python(cap=cap)
    assert cold == reference, "cold cached run diverged from uncached"
    assert warm == reference, "warm cached run diverged from uncached"
    assert cache.hits > hits_before, \
        "the second run of an identical query must hit the plan cache"
    return reference


class TestDifferentialColdWarm:
    """The differential corpus, cold and warm through the cache."""

    @pytest.mark.parametrize("name", EXAMPLE_QUERIES)
    def test_example_agrees(self, name, engines, events_file):
        with open(os.path.join(QUERY_DIR, name), encoding="utf-8") as f:
            query = f.read()
        if "events.jsonl" in query:
            query = query.replace("events.jsonl", events_file)
        out = run_cold_warm(engines, query)
        assert out, "example {} must produce output".format(name)

    def test_paper_flwor(self, engines, jsonl_file):
        path = jsonl_file([
            {"age": 30, "position": "dev"},
            {"age": 70, "position": "dev"},
            {"age": 41, "position": "ops"},
        ])
        query = PAPER_QUERIES["section_2.3_flwor"].replace(
            "people.json", path
        )
        out = run_cold_warm(engines, query)
        assert {o["position"] for o in out} == {"dev", "ops"}

    def test_paper_heterogeneous_group(self, engines):
        out = run_cold_warm(
            engines, PAPER_QUERIES["section_4.7_heterogeneous_group"]
        )
        assert sorted(o["count"] for o in out) == [1, 2, 2]

    def test_canonical_workloads(self, engines, confusion_small):
        from repro.bench.workloads import rumble_query

        for kind in ("filter", "group", "sort"):
            run_cold_warm(engines, rumble_query(kind, confusion_small))


class TestNonConflation:
    """Same token shape, different semantics — never the same answer."""

    @pytest.fixture()
    def engine(self):
        return Rumble(config=RumbleConfig(plan_cache_size=64))

    def test_literal_kinds_never_conflate(self, engine):
        assert engine.query("1").to_python() == [1]
        assert str(engine.query("1.0").to_python()[0]) == "1.0"
        assert engine.query('"1"').to_python() == ["1"]
        assert engine.query("1").collect()[0].is_integer
        assert engine.query("1.0").collect()[0].is_decimal

    def test_comparison_bounds(self, engine):
        for bound in (1, 2, 3, 4, 5):
            out = engine.query(
                "for $x in 1 to 5 where $x lt {} return $x".format(bound)
            ).to_python()
            assert out == list(range(1, bound))

    def test_lookup_keys(self, engine):
        doc = '{"a": 1, "b": 2, "c": 3}'
        for key, expected in (("a", 1), ("b", 2), ("c", 3)):
            assert engine.query(doc + "." + key).to_python() == [expected]
        for key, expected in (("a", 1), ("b", 2)):
            out = engine.query(
                '{}."{}"'.format(doc, key)
            ).to_python()
            assert out == [expected]

    def test_constructor_keys(self, engine):
        assert engine.query('{"x": 1}').to_python() == [{"x": 1}]
        assert engine.query('{"y": 1}').to_python() == [{"y": 1}]

    def test_udf_body_literals(self, engine):
        template = (
            "declare function local:f($x) {{ $x * {} }}; local:f(10)"
        )
        assert engine.query(template.format(3)).to_python() == [30]
        assert engine.query(template.format(7)).to_python() == [70]

    def test_range_bounds_parameterize(self, engine):
        cache = engine.plan_cache
        assert engine.query("1 to 3").to_python() == [1, 2, 3]
        misses = cache.misses
        assert engine.query("2 to 5").to_python() == [2, 3, 4, 5]
        assert cache.misses == misses, \
            "range bounds should be parameters, not new plans"

    def test_topk_count_bound(self, engine, jsonl_file):
        path = jsonl_file([{"v": i} for i in (5, 3, 9, 1, 7)])
        template = (
            'for $r in json-file("{}") order by $r.v '
            "count $c where $c le {} return $r.v"
        ).format(path, "{}")
        assert engine.query(template.format(2)).to_python() == [1, 3]
        assert engine.query(template.format(4)).to_python() == [1, 3, 5, 7]

    def test_pushed_predicates_on_files(self, engine, jsonl_file):
        path = jsonl_file([{"v": i} for i in range(10)])
        template = (
            'for $r in json-file("{}") where $r.v ge {} return $r.v'
        ).format(path, "{}")
        for bound in (0, 3, 7, 10):
            out = engine.query(template.format(bound)).to_python()
            assert out == list(range(bound, 10))

    def test_external_binding_names_in_key(self, engine):
        assert engine.query("$a", bindings={"a": 1}).to_python() == [1]
        assert engine.query("$b", bindings={"b": 2}).to_python() == [2]

    def test_boolean_and_null_stay_structural(self, engine):
        shape_true, _ = fingerprint("true")
        shape_false, _ = fingerprint("false")
        assert shape_true != shape_false
        assert engine.query("true").to_python() == [True]
        assert engine.query("false").to_python() == [False]
        assert engine.query("null").to_python() == [None]


class TestCacheMechanics:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        engine = Rumble()
        cache.fetch(engine, "1 + 1")
        cache.fetch(engine, '"a" || "b"')
        cache.fetch(engine, "1 + 1")        # refresh
        cache.fetch(engine, "(1, 2, 3)")    # evicts the string concat
        assert len(cache) == 2
        assert cache.evictions == 1
        hits = cache.hits
        cache.fetch(engine, "1 + 1")
        assert cache.hits == hits + 1

    def test_fingerprint_is_shape_only(self):
        shape_a, literals_a = fingerprint("for $x in 1 to 3 return $x * 2")
        shape_b, literals_b = fingerprint("for $x in 5 to 9 return $x * 7")
        assert shape_a == shape_b
        assert [l.value for l in literals_a] == [1, 3, 2]
        assert [l.value for l in literals_b] == [5, 9, 7]

    def test_malformed_query_still_raises(self):
        from repro.jsoniq.errors import JsoniqException

        engine = Rumble(config=RumbleConfig(plan_cache_size=8))
        with pytest.raises(JsoniqException):
            engine.query("for $x in").to_python()

    def test_plancache_metrics_under_profiling(self):
        engine = Rumble(config=RumbleConfig(plan_cache_size=8))
        engine.query("1 + 1")
        report = engine.profile("2 + 2")
        # profile() is query() under a bundle of its own: it sees the
        # plan cache (a normalized hit here) and counts this run only.
        assert report.counter("rumble.plancache.hits") == 1
        assert "rumble.plancache.misses" not in report.metrics["counters"]


# -- Hypothesis: random literal vectors through a tiny cache ----------------

_SAFE_STRING = st.text(
    alphabet="abcdefgh XYZ_-", min_size=0, max_size=8
)
_SMALL_INT = st.integers(min_value=-50, max_value=50)
_POS_INT = st.integers(min_value=1, max_value=8)

_HYPO_ENGINE = Rumble(config=RumbleConfig(plan_cache_size=3))
_HYPO_REFERENCE = Rumble()


def _agree(query):
    cached = _HYPO_ENGINE.query(query).to_python(cap=10_000)
    fresh = _HYPO_REFERENCE.query(query).to_python(cap=10_000)
    assert cached == fresh, query


@settings(max_examples=40, deadline=None)
@given(a=_POS_INT, b=_POS_INT, c=_SMALL_INT, d=_SMALL_INT)
def test_hypothesis_arithmetic_never_conflates(a, b, c, d):
    _agree(
        "for $x in {} to {} return $x * {} + {}".format(a, a + b, c, d)
    )


@settings(max_examples=40, deadline=None)
@given(s1=_SAFE_STRING, s2=_SAFE_STRING)
def test_hypothesis_strings_never_conflate(s1, s2):
    _agree('"{}" || "{}"'.format(s1, s2))


@settings(max_examples=40, deadline=None)
@given(n=_POS_INT, k=_SMALL_INT)
def test_hypothesis_comparisons_never_conflate(n, k):
    _agree(
        "for $x in 1 to {} where $x le {} return $x".format(n, k)
    )


@settings(max_examples=30, deadline=None)
@given(
    key=st.sampled_from(["a", "b", "c"]),
    value=_SMALL_INT,
    lookup=st.sampled_from(["a", "b", "c"]),
)
def test_hypothesis_object_keys_never_conflate(key, value, lookup):
    _agree('{{"{}": {}}}.{}'.format(key, value, lookup))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["17", "17.5", "1.25e2", '"17"']),
    factor=_POS_INT,
)
def test_hypothesis_literal_kinds_never_conflate(kind, factor):
    if kind == '"17"':
        _agree('("{}", {})'.format("17", factor))
    else:
        _agree("({}, {})".format(kind, factor))
