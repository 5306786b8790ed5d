"""The fault-tolerance subsystem: chaos harness, lineage recovery,
blacklisting, speculation, parse modes, and the acceptance property —
any below-budget seeded FaultPlan leaves query results byte-identical
to a fault-free run, with ``rumble.fault.*`` metrics reporting the
exact injected counts."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import RUMBLE_QUERIES
from repro.core import Rumble, RumbleConfig, make_engine
from repro.jsoniq.errors import DynamicException, TypeException
from repro.jsoniq.jsonlines import JsonSyntaxError
from repro.spark import SparkConf, SparkContext
from repro.spark.cluster import ExecutorPool, TaskFailure
from repro.spark.faults import (
    ExecutorLostError,
    FaultManager,
    FaultPlan,
    wrap_task_error,
)


def chaos_context(plan, executors=4, **conf_settings):
    conf = SparkConf(**conf_settings)
    conf.set("spark.chaos.plan", plan)
    conf.set("spark.executor.instances", executors)
    return SparkContext(conf)


class TestFaultPlanDeterminism:
    def test_same_seed_same_decisions(self):
        sites = [(s, p, a) for s in range(4) for p in range(8)
                 for a in (1, 2)]
        plans = [
            FaultPlan(seed=42, crash_rate=0.3, executor_death_rate=0.2,
                      slow_task_rate=0.3)
            for _ in range(2)
        ]
        for site in sites:
            assert (plans[0].should_crash(*site)
                    == plans[1].should_crash(*site))
            assert (plans[0].executor_dies(*site)
                    == plans[1].executor_dies(*site))
            assert (plans[0].slow_task_delay(*site)
                    == plans[1].slow_task_delay(*site))
        assert plans[0].injected == plans[1].injected

    def test_order_independence(self):
        sites = [(s, p, 1) for s in range(3) for p in range(10)]
        forward = FaultPlan(seed=9, crash_rate=0.4)
        backward = FaultPlan(seed=9, crash_rate=0.4)
        decisions = {site: forward.should_crash(*site) for site in sites}
        for site in reversed(sites):
            assert backward.should_crash(*site) == decisions[site]

    def test_different_seeds_differ(self):
        sites = [(0, p, 1) for p in range(200)]
        a = FaultPlan(seed=1, crash_rate=0.5)
        b = FaultPlan(seed=2, crash_rate=0.5)
        assert ([a.should_crash(*s) for s in sites]
                != [b.should_crash(*s) for s in sites])

    def test_budget_limits_rate_driven_faults(self):
        plan = FaultPlan(seed=3, crash_rate=1.0, max_failures_per_task=2)
        assert plan.should_crash(0, 0, 1)
        assert plan.should_crash(0, 0, 2)
        assert not plan.should_crash(0, 0, 3)

    def test_explicit_sites_ignore_budget(self):
        plan = FaultPlan(crashes={(0, 0, 5)})
        assert plan.should_crash(0, 0, 5)
        assert plan.injected == {"crashes": 1}

    def test_fetch_failure_lost_map_in_range(self):
        plan = FaultPlan(seed=5, fetch_failure_rate=1.0)
        lost = plan.fetch_failure(0, 0, 1, 4)
        assert lost is not None and 0 <= lost < 4


class TestRecoveryActions:
    def test_crash_retried_and_counted(self):
        pool = ExecutorPool(
            faults=FaultManager(FaultPlan(crashes={(0, 2, 1), (0, 2, 2)}))
        )
        assert pool.run_stage([lambda i=i: i for i in range(4)]) == [
            0, 1, 2, 3,
        ]
        assert pool.faults.count("crashes") == 2
        assert pool.faults.count("retries") == 2

    def test_executor_death_replaces_executor(self):
        pool = ExecutorPool(
            num_executors=3,
            faults=FaultManager(FaultPlan(executor_deaths={(0, 1, 1)})),
        )
        assert pool.run_stage([lambda i=i: i for i in range(3)]) == [0, 1, 2]
        assert pool.faults.count("executor_deaths") == 1
        assert len(pool.dead) == 1
        assert len(pool.executor_ids) == 3, "a replacement was provisioned"
        assert pool._next_executor_id == 4

    def test_blacklist_after_threshold(self):
        pool = ExecutorPool(
            num_executors=2,
            blacklist_threshold=1,
            faults=FaultManager(FaultPlan(crashes={(0, 0, 1)})),
        )
        pool.run_stage([lambda: 1])
        assert pool.faults.count("blacklisted_executors") == 1
        assert len(pool.blacklisted) == 1
        # Retries avoid the blacklisted executor from then on.
        assert pool._pick_executor(1, 0, 1) not in pool.blacklisted

    def test_below_threshold_not_blacklisted(self):
        pool = ExecutorPool(
            num_executors=4,
            blacklist_threshold=2,
            faults=FaultManager(FaultPlan(crashes={(0, 0, 1)})),
        )
        pool.run_stage([lambda: 1])
        assert pool.faults.count("blacklisted_executors") == 0
        assert pool.blacklisted == set()

    def test_never_blacklists_last_executor(self):
        pool = ExecutorPool(
            num_executors=1,
            blacklist_threshold=1,
            faults=FaultManager(
                FaultPlan(crashes={(0, 0, 1), (0, 1, 1), (0, 2, 1)})
            ),
        )
        assert pool.run_stage([lambda i=i: i for i in range(3)]) == [0, 1, 2]
        assert pool.blacklisted == set()

    def test_speculation_exact_counts(self):
        pool = ExecutorPool(
            faults=FaultManager(FaultPlan(slow_tasks={(0, 1, 1): 50.0}))
        )
        assert pool.run_stage([lambda i=i: i for i in range(3)]) == [0, 1, 2]
        faults = pool.faults
        assert faults.count("slow_tasks") == 1
        assert faults.count("speculative_launched") == 1
        assert faults.count("speculative_wins") == 1
        assert faults.count("speculative_losses") == 1
        # The straggler was cancelled: its 50s virtual delay must NOT
        # dominate the recorded occupancy.
        straggler = [
            t for t in pool.stages[0].tasks if t.partition == 1
        ][0]
        assert straggler.seconds < 50.0
        assert straggler.speculative_copies == 1
        assert len(straggler.attempt_seconds) == 2

    def test_speculation_disabled(self):
        pool = ExecutorPool(
            speculation=False,
            faults=FaultManager(FaultPlan(slow_tasks={(0, 1, 1): 5.0})),
        )
        pool.run_stage([lambda i=i: i for i in range(3)])
        assert pool.faults.count("speculative_launched") == 0
        straggler = [
            t for t in pool.stages[0].tasks if t.partition == 1
        ][0]
        assert straggler.seconds >= 5.0, "virtual delay recorded"

    def test_task_timeout_retries(self):
        pool = ExecutorPool(
            task_timeout=1.0,
            speculation=False,
            faults=FaultManager(FaultPlan(slow_tasks={(0, 0, 1): 30.0})),
        )
        assert pool.run_stage([lambda: "ok"]) == ["ok"]
        assert pool.faults.count("timeouts") == 1
        task = pool.stages[0].tasks[0]
        assert task.attempts == 2
        assert len(task.attempt_seconds) == 2

    def test_retry_backoff_waits(self):
        import time

        pool = ExecutorPool(
            retry_backoff=0.01,
            faults=FaultManager(FaultPlan(crashes={(0, 0, 1)})),
        )
        started = time.perf_counter()
        pool.run_stage([lambda: 1])
        assert time.perf_counter() - started >= 0.01


class TestFailedAttemptAccounting:
    """Satellite: failed attempts' wall-clock must reach the makespan."""

    def test_failed_attempts_recorded(self):
        pool = ExecutorPool(
            faults=FaultManager(FaultPlan(crashes={(0, 0, 1), (0, 0, 2)}))
        )
        pool.run_stage([lambda: 1])
        task = pool.stages[0].tasks[0]
        assert task.attempts == 3
        assert len(task.attempt_seconds) == 3
        assert task.seconds == pytest.approx(sum(task.attempt_seconds))

    def test_retry_occupancy_reaches_makespan(self):
        plan = FaultPlan(slow_tasks={(0, 0, 1): 10.0})
        pool = ExecutorPool(speculation=False, faults=FaultManager(plan))
        pool.run_stage([lambda: 1, lambda: 2])
        assert pool.simulated_wall_clock(2) >= 10.0

    def test_permanent_failure_still_recorded(self):
        pool = ExecutorPool(
            max_retries=1,
            faults=FaultManager(
                FaultPlan(crashes={(0, 0, 1), (0, 0, 2)})
            ),
        )
        with pytest.raises(TaskFailure):
            pool.run_stage([lambda: 1])
        task = pool.stages[0].tasks[0]
        assert len(task.attempt_seconds) == 2


class TestNonRetryableWrapping:
    """Satellite: non-retryable errors carry task context identically in
    inline and thread modes."""

    @pytest.mark.parametrize("mode", ["inline", "threads"])
    def test_wrapped_with_context(self, mode):
        def broken():
            raise TypeException("boom")

        pool = ExecutorPool(num_executors=2, mode=mode)
        events = []

        class Listener:
            def emit(self, event, **fields):
                events.append((event, fields))

        pool.add_listener(Listener())
        with pytest.raises(TypeException) as info:
            pool.run_stage([lambda: 1, broken])
        error = info.value
        assert isinstance(error, TaskFailure)
        assert error.partition == 1
        assert error.stage_id == 0
        assert error.attempt == 1
        assert error.code == "XPTY0004", "JSONiq error detail preserved"
        failed_ends = [
            f for e, f in events
            if e == "SparkListenerTaskEnd" and f.get("failed")
        ]
        assert len(failed_ends) == 1
        assert failed_ends[0]["partition"] == 1
        assert failed_ends[0]["reason"] == "TypeException"

    def test_wrapper_class_is_cached(self):
        first = wrap_task_error(DynamicException("a"), 0, 0, 1)
        second = wrap_task_error(DynamicException("b"), 1, 2, 3)
        assert type(first) is type(second)
        assert str(first) != str(second)


class TestShuffleFetchRecovery:
    def test_lost_map_output_recomputed(self):
        plan = FaultPlan(fetch_failures={(0, 1, 1): 2})
        sc = chaos_context(plan)
        data = [(i % 5, i) for i in range(40)]
        grouped = dict(
            sc.parallelize(data, 4).group_by_key(4).collect()
        )
        clean = dict(
            SparkContext().parallelize(data, 4).group_by_key(4).collect()
        )
        assert grouped == clean
        assert sc.faults.count("fetch_failures") == 1
        assert sc.faults.count("recomputed_partitions") == 1
        labels = [stage.label for stage in sc.executors.stages]
        assert any(label.startswith("recompute(") for label in labels), (
            "recovery must re-run the producing partition as its own "
            "stage, not the whole upstream stage"
        )

    def test_repeated_fetch_failures_within_budget(self):
        plan = FaultPlan(fetch_failures={
            (0, 0, 1): 0, (0, 0, 2): 1, (0, 0, 3): 2,
        })
        sc = chaos_context(plan)
        data = [(i % 3, i) for i in range(30)]
        out = sorted(sc.parallelize(data, 3).reduce_by_key(
            lambda a, b: a + b, 3
        ).collect())
        clean = sorted(SparkContext().parallelize(data, 3).reduce_by_key(
            lambda a, b: a + b, 3
        ).collect())
        assert out == clean
        assert sc.faults.count("fetch_failures") == 3
        assert sc.faults.count("recomputed_partitions") == 3

    def test_sort_by_key_survives_fetch_failures(self):
        plan = FaultPlan(seed=11, fetch_failure_rate=0.5)
        sc = chaos_context(plan)
        data = [((i * 37) % 100, i) for i in range(200)]
        out = sc.parallelize(data, 5).sort_by_key().collect()
        clean = SparkContext().parallelize(data, 5).sort_by_key().collect()
        assert out == clean


def _canonical(value):
    return json.dumps(value, sort_keys=True, default=str)


class TestChaosAcceptance:
    """The tentpole acceptance property over the benchmark workloads."""

    @pytest.mark.parametrize("kind", sorted(RUMBLE_QUERIES))
    @pytest.mark.parametrize("seed", [1, 17])
    def test_benchmark_queries_identical_under_chaos(
        self, kind, seed, confusion_small
    ):
        query = RUMBLE_QUERIES[kind].format(path=confusion_small)
        config = RumbleConfig(materialization_cap=1_000_000)
        baseline = make_engine(config=config).query(query).to_python()
        plan = FaultPlan(
            seed=seed, crash_rate=0.3, executor_death_rate=0.1,
            fetch_failure_rate=0.2, slow_task_rate=0.2,
            max_failures_per_task=2,
        )
        engine = make_engine(config=config, fault_plan=plan)
        chaotic = engine.query(query).to_python()
        assert _canonical(chaotic) == _canonical(baseline)
        observed = engine.spark.spark_context.faults.counts
        for fault_kind, injected in plan.injected.items():
            assert observed.get(fault_kind) == injected, (
                "metric {} must match the injected count".format(fault_kind)
            )

    def test_profile_reports_fault_metrics(self, jsonl_file):
        path = jsonl_file([{"v": i} for i in range(30)])
        plan = FaultPlan(crash_rate=1.0, max_failures_per_task=1)
        engine = make_engine(executors=2, fault_plan=plan)
        report = engine.profile(
            'count(json-file("{}"))'.format(path)
        )
        assert report.items[0].to_python() == 30
        counters = report.metrics["counters"]
        assert counters.get("rumble.fault.crashes", 0) > 0
        assert counters.get("rumble.fault.retries", 0) > 0
        events = [e["event"] for e in report.events]
        assert "FaultInjected" in events
        assert "TaskRetry" in events


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    crash_rate=st.floats(min_value=0.0, max_value=0.6),
    fetch_rate=st.floats(min_value=0.0, max_value=0.4),
    slow_rate=st.floats(min_value=0.0, max_value=0.3),
)
def test_property_rdd_results_identical_under_chaos(
    seed, crash_rate, fetch_rate, slow_rate
):
    """Any below-budget plan leaves collect/groupByKey/sortByKey
    results identical to the fault-free run."""
    plan = FaultPlan(
        seed=seed, crash_rate=crash_rate, executor_death_rate=crash_rate / 3,
        fetch_failure_rate=fetch_rate, slow_task_rate=slow_rate,
        max_failures_per_task=2,
    )
    chaotic = chaos_context(plan)
    clean = SparkContext()
    data = [((i * 13) % 7, i) for i in range(60)]
    assert (chaotic.parallelize(data, 4).map(lambda p: p[1] * 2).collect()
            == clean.parallelize(data, 4).map(lambda p: p[1] * 2).collect())
    assert (
        sorted(chaotic.parallelize(data, 4).group_by_key(3).collect())
        == sorted(clean.parallelize(data, 4).group_by_key(3).collect())
    )
    assert (chaotic.parallelize(data, 4).sort_by_key().collect()
            == clean.parallelize(data, 4).sort_by_key().collect())


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_flwor_identical_under_chaos(seed):
    query = (
        "for $x in parallelize(1 to 50, 5) "
        "where $x mod 2 eq 0 "
        "group by $k := $x mod 5 "
        "order by $k "
        'return {"k": $k, "sum": sum($x)}'
    )
    baseline = make_engine().query(query).to_python()
    plan = FaultPlan(
        seed=seed, crash_rate=0.4, executor_death_rate=0.1,
        fetch_failure_rate=0.3, slow_task_rate=0.2,
        max_failures_per_task=2,
    )
    engine = make_engine(fault_plan=plan)
    assert engine.query(query).to_python() == baseline


class TestParseModesApi:
    @pytest.fixture()
    def messy_file(self, tmp_path):
        path = tmp_path / "messy.json"
        path.write_text(
            '{"v": 1}\n'
            '{"v": 2\n'
            '{"v": 3}\n'
            'not json at all\n'
            '{"v": 4}\n'
        )
        return str(path)

    def test_failfast_raises(self, messy_file):
        engine = Rumble(config=RumbleConfig(parse_mode="failfast"))
        with pytest.raises(JsonSyntaxError):
            engine.query(
                'count(json-file("{}"))'.format(messy_file)
            ).to_python()

    def test_permissive_captures(self, messy_file):
        engine = Rumble(config=RumbleConfig(parse_mode="permissive"))
        out = engine.query(
            'for $o in json-file("{}") return $o'.format(messy_file)
        ).to_python()
        assert len(out) == 5
        corrupt = [o for o in out if "_corrupt_record" in o]
        assert [o["_corrupt_record"] for o in corrupt] == [
            '{"v": 2', "not json at all",
        ]
        faults = engine.spark.spark_context.faults
        assert faults.count("malformed_captured") == 2

    def test_dropmalformed_skips(self, messy_file):
        engine = Rumble(config=RumbleConfig(parse_mode="dropmalformed"))
        out = engine.query(
            'for $o in json-file("{}") return $o.v'.format(messy_file)
        ).to_python()
        assert out == [1, 3, 4]
        faults = engine.spark.spark_context.faults
        assert faults.count("malformed_dropped") == 2

    def test_custom_corrupt_field(self, messy_file):
        engine = Rumble(config=RumbleConfig(
            parse_mode="permissive", corrupt_record_field="bad",
        ))
        out = engine.query(
            'count(for $o in json-file("{}") where $o.bad return $o)'
            .format(messy_file)
        ).to_python()
        assert out == [2]

    def test_structured_json_file_permissive(self, messy_file):
        engine = Rumble(config=RumbleConfig(parse_mode="permissive"))
        out = engine.query(
            'for $o in structured-json-file("{}") return $o'
            .format(messy_file)
        ).to_python()
        assert len(out) == 5
        assert [o["v"] for o in out] == [1, None, 3, None, 4]
        assert sum(1 for o in out if o["_corrupt_record"]) == 2

    def test_structured_json_file_failfast(self, messy_file):
        engine = Rumble()
        with pytest.raises(JsonSyntaxError):
            engine.query(
                'count(structured-json-file("{}"))'.format(messy_file)
            ).to_python()

    def test_collection_honours_parse_mode(self, messy_file):
        engine = Rumble(config=RumbleConfig(parse_mode="dropmalformed"))
        engine.register_collection("messy", messy_file)
        out = engine.query('count(collection("messy"))').to_python()
        assert out == [3]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RumbleConfig(parse_mode="lenient")
        from repro.jsoniq.jsonlines import iter_json_lines

        with pytest.raises(ValueError):
            list(iter_json_lines(["1"], mode="lenient"))

    def test_undecodable_bytes_tolerated(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"v": 1}\n\xff\xfe broken \xff\n{"v": 2}\n')
        engine = Rumble(config=RumbleConfig(parse_mode="dropmalformed"))
        out = engine.query(
            'for $o in json-file("{}") return $o.v'.format(path)
        ).to_python()
        assert out == [1, 2]


class TestParseModesCli:
    @pytest.fixture()
    def messy_file(self, tmp_path):
        path = tmp_path / "messy.json"
        path.write_text('{"v": 1}\nnope\n{"v": 3}\n')
        return str(path)

    def test_cli_permissive(self, messy_file, capsys):
        from repro.__main__ import main

        assert main([
            'count(json-file("{}"))'.format(messy_file),
            "--parse-mode", "permissive",
        ]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_cli_dropmalformed(self, messy_file, capsys):
        from repro.__main__ import main

        assert main([
            'count(json-file("{}"))'.format(messy_file),
            "--parse-mode", "dropmalformed",
        ]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_cli_failfast_is_default_and_raises(self, messy_file, capsys):
        from repro.__main__ import main

        assert main([
            'count(json-file("{}"))'.format(messy_file),
        ]) == 1
        assert "SENR0002" in capsys.readouterr().err

    def test_cli_chaos_run(self, messy_file, capsys):
        from repro.__main__ import main

        assert main([
            'count(json-file("{}"))'.format(messy_file),
            "--parse-mode", "dropmalformed",
            "--chaos-seed", "3",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "2"
        assert "chaos[seed=3]" in captured.err
