"""Regression tests for hidden global state under concurrency.

The serving layer runs many engines in one process, so state that used
to be effectively single-threaded — metric registries, the NOOP
observability singleton, the filesystem mount table, cache bookkeeping —
must be session-scoped or locked.  Each test here pins one of those
fixes by hammering it from threads.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core import Rumble, RumbleConfig
from repro.obs import NOOP, Observability
from repro.obs.metrics import MetricsRegistry


class TestProfilingIsolation:
    def test_two_engines_profile_concurrently_without_bleed(self):
        """Per-run registries: concurrent profiles never mix counters."""
        engine_a = Rumble()
        engine_b = Rumble()
        results = {}

        def profile(name, engine, query, rounds):
            rows = []
            for _ in range(rounds):
                report = engine.profile(query)
                rows.append(sum(report.operator_rows().values()))
            results[name] = rows

        thread_a = threading.Thread(target=profile, args=(
            "a", engine_a, "for $x in 1 to 10 where $x gt 0 return $x", 8,
        ))
        thread_b = threading.Thread(target=profile, args=(
            "b", engine_b, "for $x in 1 to 100 where $x gt 0 return $x", 8,
        ))
        thread_a.start()
        thread_b.start()
        thread_a.join()
        thread_b.join()
        # Every run of the same query observes the same row counts: a
        # shared registry would have summed across engines.
        assert len(set(results["a"])) == 1
        assert len(set(results["b"])) == 1
        assert results["a"][0] != results["b"][0]

    def test_compiler_stats_are_per_instance(self):
        from repro.jsoniq.compiler import Compiler

        assert Compiler().stats is not Compiler().stats


class TestNoopInertness:
    def test_noop_metrics_never_accumulate(self):
        NOOP.metrics.counter("rumble.test.leak", tag="x").inc(1000)
        NOOP.metrics.gauge("rumble.test.leak.gauge").set(5)
        NOOP.metrics.histogram("rumble.test.leak.hist").observe(1.0)
        snapshot = NOOP.metrics.snapshot()
        assert not snapshot["counters"]
        assert not snapshot["gauges"]
        assert not snapshot["histograms"]

    def test_noop_events_discard(self):
        NOOP.events.emit("test.event", detail="dropped")
        assert not NOOP.events.events

    def test_noop_is_disabled(self):
        assert NOOP.enabled is False


class TestMetricsRegistryThreadSafety:
    def test_get_or_create_race_returns_one_instrument(self):
        registry = MetricsRegistry()
        seen = []

        def grab():
            seen.append(registry.counter("rumble.race", worker="w"))

        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(64):
                pool.submit(grab)
        assert len(set(id(c) for c in seen)) == 1

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("rumble.inc")
        gauge = registry.gauge("rumble.add")

        def bump():
            for _ in range(1000):
                counter.inc()
                gauge.add(1)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
        assert gauge.value == 8000

    def test_separate_observabilities_are_isolated(self):
        obs_a = Observability(enabled=True)
        obs_b = Observability(enabled=True)
        obs_a.metrics.counter("rumble.only.a").inc()
        assert "rumble.only.a" in str(obs_a.metrics.snapshot()["counters"])
        assert not obs_b.metrics.snapshot()["counters"]


class TestSharedEngineConcurrency:
    def test_cached_engine_is_correct_under_threads(self):
        """One engine, one plan cache, many threads, exact answers."""
        engine = Rumble(config=RumbleConfig(plan_cache_size=8))
        lock = threading.Lock()
        failures = []

        def work(index):
            bound = (index % 7) + 1
            query = "sum(for $x in 1 to {} return $x)".format(bound)
            expected = bound * (bound + 1) // 2
            # The simulated substrate is single-threaded per context:
            # serialize execution, as Session does in the server.
            with lock:
                out = engine.query(query).to_python()
            if out != [expected]:
                failures.append((query, out, expected))

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(work, range(60)))
        assert not failures
        stats = engine.plan_cache.stats()
        total = stats["hits"] + stats["misses"]
        assert total >= 7, stats

    def test_mount_registry_is_locked(self, tmp_path):
        from repro.spark import storage

        def churn(scheme):
            for _ in range(200):
                storage.REGISTRY.mount(scheme, str(tmp_path))
                storage.REGISTRY.unmount(scheme)

        threads = [
            threading.Thread(target=churn, args=("zz{}".format(i),))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i in range(4):
            assert "zz{}".format(i) not in storage.REGISTRY._mounts
