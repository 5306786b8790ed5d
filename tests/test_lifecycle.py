"""The request lifecycle, end to end (docs/robustness.md).

Five layers:

* unit contracts — :class:`CancelToken`, the per-tenant
  :class:`CircuitBreaker` (fake clock), and the serving fault sites of
  the deterministic :class:`FaultPlan`;
* engine cooperation — a cancelled token stops partition scheduling
  within one boundary, releases shuffle spill files, and never leaves a
  partial result-cache entry;
* service lifecycle — 408/499/503 payloads, the occupancy gauge
  returning to zero after cancellation (the admission slot does not
  lie), drain-aware idempotent close, degraded modes;
* the HTTP surface — ``POST /cancel``, disconnect-driven cancellation,
  malformed-request 400s, ``Retry-After`` headers;
* chaos — worker deaths and cancel races injected through the server
  path are invisible to clients, and the injected-fault accounting is
  identical between sequential and concurrent request streams (the
  ``(seed, site)`` purity contract).
"""

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cancellation import CancelToken, QueryCancelledError
from repro.core.engine import make_engine
from repro.server import QueryService, RumbleServer
from repro.server.breaker import CircuitBreaker
from repro.spark.faults import FaultPlan

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A query slow enough to outlive short timeouts but cheap per check.
SLOW_QUERY = (
    "count(for $i in 1 to 100000 for $j in 1 to 1000 return $i * $j)"
)
#: A distributed query: runs through the executor pool partition loop.
DISTRIBUTED_QUERY = "for $x in parallelize(1 to 64, 8) return $x * $x"


class TripToken(CancelToken):
    """A token that cancels itself after a fixed number of checks —
    deterministic mid-run cancellation without wall-clock coupling."""

    def __init__(self, after: int):
        super().__init__()
        self.after = after

    def check(self) -> None:
        if self.checks + 1 >= self.after:
            self.cancel("cancelled")
        super().check()


# -- CancelToken unit contracts ----------------------------------------------

class TestCancelToken:
    def test_first_reason_wins(self):
        token = CancelToken()
        assert token.cancel("timeout") is True
        assert token.cancel("shutdown") is False
        assert token.reason == "timeout"
        with pytest.raises(QueryCancelledError) as info:
            token.check()
        assert info.value.reason == "timeout"
        assert info.value.retryable is False

    def test_deadline_expiry_sets_deadline_reason(self):
        token = CancelToken(timeout=0.0)
        with pytest.raises(QueryCancelledError) as info:
            token.check()
        assert info.value.reason == "deadline"
        assert token.expired()

    def test_remaining_tracks_deadline(self):
        token = CancelToken(timeout=60.0)
        remaining = token.remaining()
        assert remaining is not None and 0 < remaining <= 60.0
        assert CancelToken().remaining() is None

    def test_guard_checks_every_stride(self):
        token = CancelToken()
        assert list(token.guard(range(10), stride=3)) == list(range(10))
        assert token.checks >= 3

    def test_guard_stops_mid_stream(self):
        token = TripToken(after=2)
        consumed = []
        with pytest.raises(QueryCancelledError):
            for value in token.guard(range(1000), stride=1):
                consumed.append(value)
        assert len(consumed) < 1000

    def test_uncancelled_check_counts(self):
        token = CancelToken()
        token.check()
        token.check()
        assert token.checks == 2
        assert not token.is_set()

    def test_concurrent_cancel_has_exactly_one_winner(self):
        # The event-loop timeout racing the drain loop (or /cancel
        # racing a disconnect) must produce one winner whose reason
        # sticks — the 408/499/503 mapping depends on it.
        for _ in range(30):
            token = CancelToken()
            barrier = threading.Barrier(2)
            results = {}

            def attempt(reason):
                barrier.wait()
                results[reason] = token.cancel(reason)

            threads = [
                threading.Thread(target=attempt, args=(reason,))
                for reason in ("timeout", "disconnected")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            winners = [r for r, won in results.items() if won]
            assert len(winners) == 1
            assert token.reason == winners[0]


# -- CircuitBreaker (fake clock) ---------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def _breaker(self):
        clock = FakeClock()
        return CircuitBreaker(threshold=3, cooldown=10.0, clock=clock), clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record("a", False)
        assert breaker.check("a") is None
        breaker.record("a", False)
        wait = breaker.check("a")
        assert wait is not None and wait > 0
        assert breaker.snapshot()["a"]["state"] == "open"
        assert breaker.snapshot()["a"]["trips"] == 1

    def test_success_resets_the_count(self):
        breaker, _ = self._breaker()
        breaker.record("a", False)
        breaker.record("a", False)
        breaker.record("a", True)
        breaker.record("a", False)
        breaker.record("a", False)
        assert breaker.check("a") is None

    def test_half_open_probe_success_closes(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record("a", False)
        clock.now = 11.0
        assert breaker.check("a") is None  # the probe goes through
        assert breaker.check("a") == 10.0  # but only one probe at a time
        breaker.record("a", True)
        assert breaker.check("a") is None
        assert breaker.snapshot()["a"]["state"] == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record("a", False)
        clock.now = 11.0
        assert breaker.check("a") is None
        breaker.record("a", False)
        assert breaker.check("a") is not None
        assert breaker.snapshot()["a"]["trips"] == 2

    def test_tenants_are_isolated(self):
        breaker, _ = self._breaker()
        for _ in range(3):
            breaker.record("a", False)
        assert breaker.check("a") is not None
        assert breaker.check("b") is None

    def test_neutral_outcome_rearms_the_half_open_probe(self):
        # A probe that ends without an infrastructure verdict (shed,
        # cancelled, draining server) must give the slot back; before
        # release() existed the circuit stayed half-open forever and
        # the tenant was locked out until restart.
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record("a", False)
        clock.now = 11.0
        assert breaker.check("a") is None   # the probe goes through
        assert breaker.check("a") == 10.0   # the slot is held
        breaker.release("a")
        assert breaker.check("a") is None   # the next request probes
        breaker.record("a", True)
        assert breaker.snapshot()["a"]["state"] == "closed"

    def test_release_without_a_probe_is_a_no_op(self):
        breaker, _ = self._breaker()
        breaker.release("a")            # unknown tenant: fine
        breaker.record("a", False)
        breaker.release("a")            # closed circuit: no reset
        breaker.record("a", False)
        breaker.record("a", False)
        assert breaker.check("a") is not None  # still opened at 3


# -- FaultPlan serving sites --------------------------------------------------

class TestServingFaultSites:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=1, server_faults={"nope": [1]})

    def test_explicit_index_fires_once(self):
        plan = FaultPlan(seed=1, server_faults={"worker_death": [3]})
        assert plan.server_fault("worker_death", 3) is True
        assert plan.server_fault("worker_death", 2) is False
        # Second attempts never fault: one resubmission always recovers.
        assert plan.server_fault("worker_death", 3, attempt=2) is False

    def test_decisions_are_pure_in_seed_and_site(self):
        first = FaultPlan(seed=7, worker_death_rate=0.3,
                          cancel_race_rate=0.3, slow_client_rate=0.3)
        second = FaultPlan(seed=7, worker_death_rate=0.3,
                           cancel_race_rate=0.3, slow_client_rate=0.3)
        kinds = ("worker_death", "cancel_race", "slow_client_read",
                 "client_disconnect")
        forward = [
            (kind, i, first.server_fault(kind, i))
            for i in range(1, 40) for kind in kinds
        ]
        # A different evaluation order over the same sites must agree.
        backward = [
            (kind, i, second.server_fault(kind, i))
            for kind in kinds for i in reversed(range(1, 40))
        ]
        assert sorted(forward) == sorted(backward)

    def test_sites_are_independent_across_kinds(self):
        plan = FaultPlan(seed=11, worker_death_rate=1.0)
        assert plan.server_fault("worker_death", 1) is True
        assert plan.server_fault("cancel_race", 1) is False


# -- Engine-level cooperation -------------------------------------------------

class TestEngineCancellation:
    def test_pre_cancelled_token_runs_nothing(self):
        engine = make_engine(executors=2, parallelism=4)
        token = CancelToken()
        token.cancel("cancelled")
        with pytest.raises(QueryCancelledError):
            with engine.cancel_scope(token):
                engine.query(DISTRIBUTED_QUERY).collect()
        pool = engine.spark.spark_context.executors
        assert sum(len(stage.tasks) for stage in pool.stages) == 0

    def test_cancellation_stops_within_one_partition_boundary(self):
        engine = make_engine(executors=2, parallelism=8)
        token = TripToken(after=3)
        with pytest.raises(QueryCancelledError):
            with engine.cancel_scope(token):
                engine.query(
                    "for $x in parallelize(1 to 800, 8) return $x"
                ).collect()
        pool = engine.spark.spark_context.executors
        executed = sum(len(stage.tasks) for stage in pool.stages)
        # 8 partitions were scheduled; the trip fired within the first
        # few checks, so almost none of them may actually have run.
        assert executed < 8

    def test_engine_recovers_after_cancellation(self):
        engine = make_engine(executors=2, parallelism=4)
        token = CancelToken()
        token.cancel("cancelled")
        with pytest.raises(QueryCancelledError):
            with engine.cancel_scope(token):
                engine.query(DISTRIBUTED_QUERY).collect()
        items = engine.query("1 + 1").collect()
        assert [item.to_python() for item in items] == [2]

    def test_cancelled_shuffle_releases_spill_files(self):
        from repro.core.config import RumbleConfig

        engine = make_engine(
            executors=2, parallelism=4,
            config=RumbleConfig(memory_budget=1024),
        )
        grouping = (
            "for $x in parallelize(1 to 400, 4) "
            "group by $k := $x mod 7 return count($x)"
        )
        # Sanity: this workload spills under the tiny budget.
        engine.query(grouping).collect()
        memory = engine.spark.spark_context.memory
        assert memory.counts.get("bucket_spills", 0) > 0
        store = memory.store

        # The full query makes ~8 cooperative checks; tripping on the
        # 6th lands mid-shuffle, after map outputs (and spills) exist.
        token = TripToken(after=6)
        with pytest.raises(QueryCancelledError):
            with engine.cancel_scope(token):
                engine.query(grouping + " + 0").collect()
        assert token.is_set()
        gc.collect()
        directory = store._directory
        leftovers = os.listdir(directory) if (
            directory and os.path.isdir(directory)
        ) else []
        assert leftovers == []

    def test_no_partial_result_cache_entry_after_cancellation(self):
        from repro.core.config import RumbleConfig

        engine = make_engine(
            executors=2, parallelism=4,
            config=RumbleConfig(result_cache_size=8),
        )
        token = TripToken(after=3)
        with pytest.raises(QueryCancelledError):
            with engine.cancel_scope(token):
                engine.query(
                    "for $x in parallelize(1 to 800, 8) return $x"
                ).collect()
        assert len(engine.result_cache) == 0
        # And the same query completes (and caches) afterwards.
        engine.query(
            "for $x in parallelize(1 to 800, 8) return $x"
        ).collect()
        assert len(engine.result_cache) == 1


# -- Service lifecycle --------------------------------------------------------

def _service(**overrides):
    defaults = dict(max_concurrent=4, tenant_quota=2, queue_limit=32,
                    default_timeout=30.0, executors=2, parallelism=4)
    defaults.update(overrides)
    return QueryService(**defaults)


async def _drain_busy(service, timeout=10.0):
    """Wait for every worker thread to leave (the occupancy truth)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        busy = service.metrics.gauge("rumble.server.busy_workers").value
        if busy == 0 and not service._running:
            return
        await asyncio.sleep(0.02)
    raise AssertionError(
        "workers still busy: {}".format(service.status()["lifecycle"])
    )


def run_service(scenario, **overrides):
    async def wrapper():
        service = _service(**overrides)
        try:
            await scenario(service)
        finally:
            await service.close(drain_timeout=5.0)
    asyncio.run(wrapper())


class TestServiceLifecycle:
    def test_timeout_releases_the_worker_and_the_slot(self):
        async def scenario(service):
            payload = await service.execute("a", SLOW_QUERY, timeout=0.2)
            assert payload["status"] == 408
            assert payload["error"]["code"] == "timeout"
            # The tentpole claim: the 408 is not a lie about capacity.
            # The cancelled worker leaves and the admission slot frees.
            await _drain_busy(service)
            assert service.admission.running == 0
            counters = service.metrics.snapshot()["counters"]
            assert counters.get("rumble.server.timeouts{tenant=a}") == 1
            # Capacity is genuinely available again.
            payload = await service.execute("a", "1 + 1")
            assert payload["status"] == 200
        run_service(scenario)

    def test_timeouts_do_not_accumulate_occupancy(self):
        async def scenario(service):
            for _ in range(3):
                payload = await service.execute(
                    "a", SLOW_QUERY, timeout=0.15
                )
                assert payload["status"] == 408
            await _drain_busy(service)
            gauge = service.metrics.gauge("rumble.server.busy_workers")
            assert gauge.value == 0
        run_service(scenario, max_concurrent=2, tenant_quota=2)

    def test_explicit_cancel_returns_499_and_frees_the_slot(self):
        async def scenario(service):
            task = asyncio.ensure_future(service.execute(
                "a", SLOW_QUERY, timeout=30.0, query_id="q1"
            ))
            while ("a", "q1") not in service._inflight:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            assert service.cancel("q1", tenant="a") is True
            payload = await task
            assert payload["status"] == 499
            assert payload["error"]["code"] == "cancelled"
            await _drain_busy(service)
            assert service.admission.running == 0
            counters = service.metrics.snapshot()["counters"]
            assert counters.get("rumble.server.cancelled{tenant=a}") == 1
        run_service(scenario)

    def test_cancel_unknown_query_id(self):
        async def scenario(service):
            assert service.cancel("nope") is False
        run_service(scenario)

    def test_cancel_is_tenant_scoped(self):
        async def scenario(service):
            task = asyncio.ensure_future(service.execute(
                "a", SLOW_QUERY, timeout=30.0, query_id="q1"
            ))
            while ("a", "q1") not in service._inflight:
                await asyncio.sleep(0.01)
            # Another tenant naming the id hits nothing: no tenant can
            # kill another tenant's query.
            assert service.cancel("q1", tenant="b") is False
            assert service.cancel("q1", tenant="a") is True
            payload = await task
            assert payload["status"] == 499
            await _drain_busy(service)
        run_service(scenario)

    def test_duplicate_query_id_is_rejected(self):
        async def scenario(service):
            task = asyncio.ensure_future(service.execute(
                "a", SLOW_QUERY, timeout=30.0, query_id="dup"
            ))
            while ("a", "dup") not in service._inflight:
                await asyncio.sleep(0.01)
            # A second in-flight use of the id would make the first
            # uncancellable; it is refused up front instead.
            clash = await service.execute("a", "1 + 1", query_id="dup")
            assert clash["status"] == 400
            assert clash["error"]["code"] == "duplicate_query_id"
            # A different tenant may reuse the id freely.
            other = await service.execute("b", "1 + 1", query_id="dup")
            assert other["status"] == 200
            # The clash did not disturb the original registration.
            assert service.cancel("dup", tenant="a") is True
            payload = await task
            assert payload["status"] == 499
            await _drain_busy(service)
        run_service(scenario)

    def test_close_is_idempotent(self):
        async def scenario():
            service = _service()
            await service.execute("a", "1 + 1")
            first = await service.close(drain_timeout=2.0)
            second = await service.close(drain_timeout=2.0)
            assert first == second
            assert first["drained"] == 1
            payload = await service.execute("a", "1 + 1")
            assert payload["status"] == 503
            assert payload["error"]["code"] == "shutting_down"
            assert payload["error"]["retryable"] is True
        asyncio.run(scenario())

    def test_close_waits_for_inflight_queries(self):
        async def scenario():
            service = _service()
            task = asyncio.ensure_future(service.execute(
                "a", "count(for $i in 1 to 200000 return $i)"
            ))
            # Wait until the query is actually in flight (a fixed sleep
            # races admission under sanitizer/debug overhead).
            for _ in range(400):
                await asyncio.sleep(0.005)
                if service.status()["lifecycle"]["inflight"]:
                    break
            summary = await service.close(drain_timeout=10.0)
            payload = await task
            assert payload["status"] == 200
            assert summary["cancelled_at_deadline"] == 0
        asyncio.run(scenario())

    def test_close_cancels_stragglers_at_the_drain_deadline(self):
        async def scenario():
            service = _service()
            task = asyncio.ensure_future(service.execute(
                "a", SLOW_QUERY, timeout=60.0
            ))
            await asyncio.sleep(0.1)
            summary = await service.close(drain_timeout=0.2)
            assert summary["cancelled_at_deadline"] == 1
            payload = await task
            assert payload["status"] in (499, 503)
        asyncio.run(scenario())

    def test_close_is_bounded_with_a_stuck_worker(self):
        # A worker parked in a long stretch between cooperative
        # checkpoints cannot be joined; close() must abandon the pool at the grace
        # deadline instead of blocking the event loop until the
        # worker returns — the drain timeout is an upper bound, not a
        # suggestion.
        release = threading.Event()

        async def scenario():
            service = _service()
            service._pool.submit(release.wait)
            started = time.monotonic()
            await service.close(drain_timeout=0.1)
            assert time.monotonic() - started < 5.0

        try:
            asyncio.run(scenario())
        finally:
            release.set()

    def test_degraded_mode_sheds_heavy_queries(self):
        async def scenario(service):
            # Warm a result-cache entry, then force pressure on.
            payload = await service.execute("a", "1 + 1")
            assert payload["status"] == 200
            session = await service.session("a")
            cache = session.engine.result_cache
            assert cache is not None and len(cache) == 1
            service.pressure_queue_fraction = 0.0  # queued >= 0: always
            assert service.pressure() == "queue"
            heavy = await service.execute(
                "a", "count(parallelize(1 to 10))"
            )
            assert heavy["status"] == 503
            assert heavy["error"]["code"] == "degraded"
            assert heavy["error"]["retryable"] is True
            assert heavy["error"]["retry_after"] > 0
            # The relief valve fired: cached results were evicted.
            assert len(cache) == 0
            # Light queries still run.
            light = await service.execute("a", "2 + 2")
            assert light["status"] == 200
        run_service(scenario)

    def test_breaker_opens_after_repeated_timeouts(self):
        async def scenario(service):
            for _ in range(2):
                payload = await service.execute(
                    "a", SLOW_QUERY, timeout=0.1
                )
                assert payload["status"] == 408
            blocked = await service.execute("a", "1 + 1")
            assert blocked["status"] == 503
            assert blocked["error"]["code"] == "circuit_open"
            assert blocked["error"]["retry_after"] > 0
            # The breaker is per tenant: others are unaffected.
            other = await service.execute("b", "1 + 1")
            assert other["status"] == 200
            await _drain_busy(service)
        run_service(scenario, breaker_threshold=2, breaker_cooldown=60.0)

    def test_neutral_probe_outcome_does_not_lock_the_tenant_out(self):
        # The half-open probe ends in a client-side cancel (499): that
        # is no verdict on the tenant's workload, so the probe slot
        # must be re-armed.  Before the fix the circuit stayed
        # half-open forever and every later request got 503.
        async def scenario(service):
            payload = await service.execute("a", SLOW_QUERY, timeout=0.1)
            assert payload["status"] == 408  # trips at threshold 1
            await _drain_busy(service)
            await asyncio.sleep(0.35)  # the cooldown elapses
            task = asyncio.ensure_future(service.execute(
                "a", SLOW_QUERY, timeout=30.0, query_id="probe"
            ))
            while ("a", "probe") not in service._inflight:
                await asyncio.sleep(0.01)
            service.cancel("probe", tenant="a")
            probe = await task
            assert probe["status"] == 499
            await _drain_busy(service)
            # The next request becomes the new probe; its success
            # closes the circuit instead of bouncing off a stuck
            # half-open state.
            payload = await service.execute("a", "1 + 1")
            assert payload["status"] == 200
        run_service(scenario, breaker_threshold=1, breaker_cooldown=0.3)

    def test_query_errors_do_not_trip_the_breaker(self):
        async def scenario(service):
            for _ in range(5):
                payload = await service.execute("a", "for $x in")
                assert payload["status"] == 400
            payload = await service.execute("a", "1 + 1")
            assert payload["status"] == 200
        run_service(scenario, breaker_threshold=2)

    def test_status_exposes_lifecycle(self):
        async def scenario(service):
            await service.execute("a", "1 + 1")
            lifecycle = service.status()["lifecycle"]
            assert lifecycle["closing"] is False
            assert lifecycle["busy_workers"] == 0
            assert "breaker" in lifecycle
        run_service(scenario)

    def test_event_logs_flush_on_close(self, tmp_path):
        async def scenario():
            service = _service(event_log_dir=str(tmp_path))
            await service.execute("a", "1 + 1")
            summary = await service.close()
            assert "a" in summary["event_counts"]
            for tenant, count in summary["event_counts"].items():
                path = tmp_path / "events-{}.jsonl".format(tenant)
                if count:
                    assert path.exists()
        asyncio.run(scenario())


# -- The HTTP surface ---------------------------------------------------------

async def _raw_request(host, port, data):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(data)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        headers = {}
        for line in head.decode("latin-1").split("\r\n")[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(
            int(headers.get("content-length", 0))
        )
        return status, headers, json.loads(body) if body else None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _post(host, port, path, payload):
    body = json.dumps(payload).encode()
    head = (
        "POST {} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n"
        "Connection: close\r\n\r\n"
    ).format(path, host, len(body))
    return await _raw_request(host, port, head.encode() + body)


def run_server(scenario, **service_overrides):
    async def wrapper():
        service = _service(**service_overrides)
        server = RumbleServer(service, port=0)
        host, port = await server.start()
        try:
            await scenario(host, port, service)
        finally:
            await server.close(drain_timeout=5.0)
    asyncio.run(wrapper())


class TestHttpLifecycle:
    def test_cancel_endpoint(self):
        async def scenario(host, port, service):
            query = asyncio.ensure_future(_post(host, port, "/query", {
                "query": SLOW_QUERY, "tenant": "a",
                "query_id": "q-http", "timeout": 60,
            }))
            while ("a", "q-http") not in service._inflight:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            status, _, payload = await _post(
                host, port, "/cancel",
                {"query_id": "q-http", "tenant": "a"},
            )
            assert status == 200 and payload["cancelled"] is True
            status, _, payload = await query
            assert status == 499
            assert payload["error"]["code"] == "cancelled"
            await _drain_busy(service)
        run_server(scenario)

    def test_cancel_is_tenant_scoped_over_http(self):
        async def scenario(host, port, service):
            query = asyncio.ensure_future(_post(host, port, "/query", {
                "query": SLOW_QUERY, "tenant": "a",
                "query_id": "q-scope", "timeout": 60,
            }))
            while ("a", "q-scope") not in service._inflight:
                await asyncio.sleep(0.01)
            # Another tenant naming the id gets the same 404 as an
            # unknown id — no cross-tenant kill, no information leak.
            status, _, payload = await _post(
                host, port, "/cancel",
                {"query_id": "q-scope", "tenant": "b"},
            )
            assert status == 404
            assert payload["error"]["code"] == "unknown_query"
            # The owner can still cancel it.
            status, _, payload = await _post(
                host, port, "/cancel",
                {"query_id": "q-scope", "tenant": "a"},
            )
            assert status == 200 and payload["cancelled"] is True
            status, _, payload = await query
            assert status == 499
            await _drain_busy(service)
        run_server(scenario)

    def test_cancel_unknown_is_404(self):
        async def scenario(host, port, service):
            status, _, payload = await _post(
                host, port, "/cancel", {"query_id": "ghost"}
            )
            assert status == 404
            assert payload["error"]["code"] == "unknown_query"
        run_server(scenario)

    def test_cancel_requires_query_id(self):
        async def scenario(host, port, service):
            status, _, payload = await _post(host, port, "/cancel", {})
            assert status == 400
        run_server(scenario)

    def test_client_disconnect_cancels_the_query(self):
        async def scenario(host, port, service):
            body = json.dumps({
                "query": SLOW_QUERY, "tenant": "a", "timeout": 60,
            }).encode()
            head = (
                "POST /query HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: {}\r\n\r\n"
            ).format(len(body))
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(head.encode() + body)
            await writer.drain()
            # Wait until the query is actually running, then vanish.
            deadline = time.monotonic() + 5.0
            while service._busy == 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert service._busy > 0
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            await _drain_busy(service)
            counters = service.metrics.snapshot()["counters"]
            key = "rumble.server.cancel_requests{reason=disconnected}"
            assert counters.get(key) == 1
        run_server(scenario)

    def test_retry_after_header_on_429(self):
        # One slot, one queue position: hog-0 runs, hog-1 waits in the
        # queue, and the probe is shed at the door with a Retry-After.
        async def scenario(host, port, service):
            hogs = [
                asyncio.ensure_future(_post(host, port, "/query", {
                    "query": SLOW_QUERY, "tenant": "a", "timeout": 60,
                    "query_id": "hog-{}".format(i),
                }))
                for i in range(2)
            ]
            deadline = time.monotonic() + 5.0
            while (
                len(service._inflight) < 2
                and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.01)
            status, headers, payload = await _post(
                host, port, "/query", {"query": "1 + 1", "tenant": "a"}
            )
            assert status == 429
            assert payload["error"]["retryable"] is True
            assert payload["error"]["retry_after"] == 1.0
            assert headers.get("retry-after") == "1"
            for i in range(2):
                service.cancel("hog-{}".format(i), tenant="a")
            for hog in hogs:
                status, _, payload = await hog
                assert status == 499
            await _drain_busy(service)
        run_server(scenario, max_concurrent=1, tenant_quota=1,
                   queue_limit=1)

    def test_retry_after_header_on_503(self):
        async def scenario(host, port, service):
            service._closing = True
            status, headers, payload = await _post(
                host, port, "/query", {"query": "1 + 1"}
            )
            assert status == 503
            assert payload["error"]["code"] == "shutting_down"
            assert payload["error"]["retryable"] is True
            assert "retry-after" in headers
            service._closing = False
        run_server(scenario)

    def test_bad_content_length_is_400(self):
        async def scenario(host, port, service):
            for raw in (
                b"POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            ):
                status, headers, payload = await _raw_request(
                    host, port, raw
                )
                assert status == 400
                assert payload["error"]["code"] == "malformed"
                assert headers.get("connection") == "close"
        run_server(scenario)

    def test_oversized_header_block_is_400(self):
        async def scenario(host, port, service):
            raw = (
                b"POST /query HTTP/1.1\r\nX-Pad: " + b"y" * 70000
                + b"\r\n\r\n"
            )
            status, _, payload = await _raw_request(host, port, raw)
            assert status == 400
            assert "header" in payload["error"]["message"]
        run_server(scenario)

    def test_truncated_body_is_400(self):
        async def scenario(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{"
            )
            await writer.drain()
            writer.write_eof()
            data = await reader.read(65536)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            assert b" 400 " in data.split(b"\r\n", 1)[0]
            body = data.partition(b"\r\n\r\n")[2]
            payload = json.loads(body)
            assert "body" in payload["error"]["message"]
        run_server(scenario)

    def test_garbage_request_line_is_400(self):
        async def scenario(host, port, service):
            status, _, payload = await _raw_request(
                host, port, b"GARBAGE\r\n\r\n"
            )
            assert status == 400
            assert payload["error"]["code"] == "malformed"
        run_server(scenario)


# -- Chaos through the serving layer ------------------------------------------

class TestServingChaos:
    def test_worker_death_is_resubmitted_invisibly(self):
        async def scenario(service):
            payload = await service.execute("a", "1 + 1")
            assert payload["status"] == 200
            assert payload["items"] == [2]
            assert service.fault_plan.injected["worker_deaths"] == 1
            counters = service.metrics.snapshot()["counters"]
            key = "rumble.server.worker_deaths{tenant=a}"
            assert counters.get(key) == 1
        run_service(
            scenario,
            fault_plan=FaultPlan(seed=1, server_faults={
                "worker_death": [1],
            }),
        )

    def test_cancel_race_after_completion_is_a_no_op(self):
        async def scenario(service):
            payload = await service.execute("a", "1 + 1")
            assert payload["status"] == 200
            assert service.fault_plan.injected["cancel_races"] == 1
            # The raced token must not poison the next query.
            payload = await service.execute("a", "2 + 2")
            assert payload["status"] == 200
        run_service(
            scenario,
            fault_plan=FaultPlan(seed=1, server_faults={
                "cancel_race": [1],
            }),
        )

    def test_slow_client_read_delays_but_answers(self):
        async def scenario(host, port, service):
            status, _, payload = await _post(
                host, port, "/query", {"query": "1 + 1"}
            )
            assert status == 200 and payload["items"] == [2]
            assert service.fault_plan.injected["slow_client_reads"] >= 1
        run_server(
            scenario,
            fault_plan=FaultPlan(seed=1, server_faults={
                "slow_client_read": [1],
            }),
        )

    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=1, max_value=10_000))
    def test_chaos_identity_sequential_vs_concurrent(self, seed):
        """The injected-fault accounting over N requests is a pure
        function of (seed, request index): a concurrent client mix must
        produce exactly the totals the sequential run produced."""
        requests = 12

        def plan():
            return FaultPlan(seed=seed, worker_death_rate=0.3,
                             cancel_race_rate=0.3)

        async def drive(concurrent):
            service = _service(
                fault_plan=plan(), max_concurrent=4, tenant_quota=4,
            )
            try:
                tenants = ("alpha", "beta", "gamma")
                calls = [
                    service.execute(tenants[i % 3], "1 + 1")
                    for i in range(requests)
                ]
                if concurrent:
                    payloads = await asyncio.gather(*calls)
                else:
                    payloads = [await call for call in calls]
                assert all(p["status"] == 200 for p in payloads)
                return dict(service.fault_plan.injected)
            finally:
                await service.close(drain_timeout=5.0)

        sequential = asyncio.run(drive(concurrent=False))
        concurrent = asyncio.run(drive(concurrent=True))
        assert sequential == concurrent


# -- Graceful shutdown, from outside ------------------------------------------

class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env.pop("RUMBLE_SERVER_CHAOS_SEED", None)
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--port", "0", "--drain-timeout", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening on http://"), line
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained:" in err
