"""One query lifecycle: every entry point compiles through one front-end
and runs through one ``query()``.

The engine is one pipeline (paper, Figure 10); these tests pin that the
entry points around it are callers of it, not copies:

* a profile is the plain run under an attached bundle, so it sees the
  plan cache and the result cache a ``query()`` on that engine sees;
* a query text is tokenized at most once, whichever path takes it;
* a ``Session`` counts but does not trace: nothing it runs retains a
  span, and its collect never touches the process-global warning filters.

(The fourth case — an enabled bundle changes no item and no error
message — lives next to its corpus in ``tests/test_config_lattice.py``.)
"""

import sys
import time
import warnings

import pytest

import repro.server.plan_cache  # noqa: F401  (imports ``tokenize`` by name)
from repro.core import Rumble, RumbleConfig, make_engine
from repro.jsoniq import lexer
from repro.jsoniq.errors import JsoniqException
from repro.obs import NOOP
from repro.obs.profile import PHASES
from repro.server.session import Session

CAP = 100_000

#: An RDD-backed, result-cacheable query that takes measurable time.
RDD_QUERY = (
    "for $x in parallelize(1 to 20000) where $x mod 7 eq 0 return $x"
)


def _assert_unprofiled(engine):
    context = engine.spark.spark_context
    assert engine.runtime.obs is NOOP
    assert context.obs is None
    assert context.executors.listeners == []
    assert context.shuffle_metrics.observer is None


# ---------------------------------------------------------------------------
# (a) profile() is query() under a bundle
# ---------------------------------------------------------------------------

class TestProfileIsQuery:
    def test_first_profile_on_a_plan_cache_engine_has_every_phase(self):
        engine = Rumble(config=RumbleConfig(plan_cache_size=8))
        report = engine.profile("1 + 1")
        assert list(report.phases) == list(PHASES)
        assert report.counter("rumble.plancache.hits") == 0
        assert [item.to_python() for item in report.items] == [2]
        _assert_unprofiled(engine)

    def test_second_profile_hits_the_plan_cache(self):
        engine = Rumble(config=RumbleConfig(plan_cache_size=8))
        engine.profile("1 + 1")
        report = engine.profile("1 + 1")
        assert report.counter("rumble.plancache.hits") == 1
        assert "parse" not in report.phases
        assert "execute" in report.phases
        assert [item.to_python() for item in report.items] == [2]

    def test_second_profile_hits_the_result_cache(self):
        engine = Rumble(config=RumbleConfig(result_cache_size=8))
        first = engine.profile(RDD_QUERY, cap=CAP)
        report = engine.profile(RDD_QUERY, cap=CAP)
        assert report.counter("rumble.resultcache.hits") == 1
        assert "parse" not in report.phases
        assert report.items == first.items

    def test_first_profile_on_a_result_cache_engine_times_the_real_run(self):
        plain_engine = make_engine()
        plain_engine.query(RDD_QUERY).collect(CAP)  # warm the imports
        started = time.perf_counter()
        expected = plain_engine.query(RDD_QUERY).collect(CAP)
        plain_seconds = time.perf_counter() - started

        engine = make_engine(config=RumbleConfig(result_cache_size=8))
        report = engine.profile(RDD_QUERY, cap=CAP)
        assert report.items == expected
        # The run that filled the cache was distributed; the replay the
        # caller collects from is local and takes no time.
        assert report.mode == "distributed"
        assert report.phases["execute"] >= plain_seconds / 2

    @pytest.mark.parametrize("config", [
        RumbleConfig(plan_cache_size=8),
        RumbleConfig(result_cache_size=8),
    ], ids=["plan-cache", "result-cache"])
    def test_parse_error_restores_noop(self, config):
        engine = Rumble(config=config)
        with pytest.raises(JsoniqException):
            engine.profile("for $x in")
        _assert_unprofiled(engine)
        assert engine.query("1 + 1").to_python() == [2]


# ---------------------------------------------------------------------------
# (b) lexed once
# ---------------------------------------------------------------------------

@pytest.fixture()
def lexed(monkeypatch):
    """The texts handed to the lexer's ``tokenize``, through whichever
    module imported the name."""
    original = lexer.tokenize
    texts = []

    def counting(text):
        texts.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("repro.")
            and getattr(module, "tokenize", None) is original
        ):
            monkeypatch.setattr(module, "tokenize", counting)
    return texts


class TestLexedOnce:
    def test_plan_cache_miss_lexes_once(self, lexed):
        engine = Rumble(config=RumbleConfig(plan_cache_size=8))
        assert engine.query("1 + 2").to_python() == [3]
        assert lexed == ["1 + 2"]

    def test_plan_cache_hits_lex_at_most_once(self, lexed):
        engine = Rumble(config=RumbleConfig(plan_cache_size=8))
        engine.query("1 + 2").to_python()
        del lexed[:]
        # A normalized hit: same shape, another literal.
        assert engine.query("1 + 40").to_python() == [41]
        assert lexed == ["1 + 40"]
        # An exact-text memo hit skips the lexer altogether.
        del lexed[:]
        assert engine.query("1 + 40").to_python() == [41]
        assert lexed == []
        assert engine.plan_cache.stats()["hits"] == 2

    def test_no_plan_cache_lexes_once(self, lexed):
        engine = Rumble()
        assert engine.query("1 + 2").to_python() == [3]
        assert lexed == ["1 + 2"]

    def test_profile_lexes_once(self, lexed):
        engine = Rumble()
        report = engine.profile("1 + 2")
        assert [item.to_python() for item in report.items] == [3]
        assert lexed == ["1 + 2"]
        assert report.root_span.find("lex").attributes["tokens"] == 4


# ---------------------------------------------------------------------------
# (d) a session counts, it does not trace
# ---------------------------------------------------------------------------

class TestSessionRetainsNoSpans:
    def test_distinct_literal_requests_leave_no_recorded_root(self):
        session = Session("tenant")
        for index in range(300):
            # A comparison literal is structural: every request is a
            # plan-cache miss and runs the whole front-end.
            payload = session.query(
                "for $x in (1, 2, 3) where $x eq {} return $x".format(index)
            )
            assert payload["items"] == ([index] if 1 <= index <= 3 else [])
        assert session.engine.plan_cache.stats()["misses"] == 300
        tracer = session.obs.tracer
        assert list(tracer.roots) == []
        assert list(tracer.all_spans()) == []
        assert tracer.open_spans() == []
        # ... while the counters it exists for keep counting.
        assert session.obs.metrics.counter_value(
            "rumble.plancache.misses"
        ) == 300

    def test_capped_collect_leaves_the_warning_filters_alone(self):
        session = Session("tenant")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            payload = session.query("1 to 50", cap=5)
            assert warnings.filters == filters
        assert payload == {"items": [1, 2, 3, 4, 5], "count": 5}
        assert caught == []
