"""The multi-tenant query service: sessions + admission + execution.

:class:`QueryService` is the transport-independent core the HTTP layer
(:mod:`repro.server.http`), the CLI (``repro serve``) and the tests all
drive.  One call path::

    service = QueryService(max_concurrent=4, tenant_quota=2)
    payload = await service.execute("tenant-a", "1 + 1")

``execute`` admits the query through the fair-share controller, runs it
on the tenant's session in a worker thread (the engine is synchronous),
enforces the per-query timeout, and normalizes every outcome into a
JSON-able payload with an HTTP-style status:

========  =====================================================
status    meaning
========  =====================================================
200       success: ``{"items": [...], "count": n, ...}``
400       query error (parse/static/type/dynamic), with the
          W3C-style error code
408       the per-query timeout or deadline elapsed; the worker
          was cooperatively cancelled and has stopped
429       load shed by the admission controller (retryable)
499       the query was cancelled (``POST /cancel`` or client
          disconnect) before completing
500       unexpected engine failure
503       not executing right now (retryable): the server is
          draining, the tenant's circuit breaker is open, or
          the server is degraded under pressure and the query
          is statically heavy
========  =====================================================

Request lifecycle (the robustness contract, docs/robustness.md):

* every request gets a :class:`~repro.cancellation.CancelToken`
  carrying its deadline; the token rides into the engine, the executor
  pool and the FLWOR iterators, so a timeout/cancel actually *stops*
  the worker within one partition or clause boundary — the admission
  slot accounting never lies about free capacity;
* :meth:`close` is idempotent and drain-aware: it stops admitting
  (503), waits for in-flight queries up to the drain deadline, cancels
  stragglers, flushes event logs and only then shuts the pool down;
* a per-tenant :class:`~repro.server.breaker.CircuitBreaker` converts
  repeated infrastructure failures (408/500) into up-front 503s, and
  memory/queue pressure flips the service into a degraded mode that
  evicts result caches and rejects statically-heavy queries;
* a seeded :class:`~repro.spark.faults.FaultPlan` (or the
  ``RUMBLE_SERVER_CHAOS_SEED`` environment knob) extends the chaos
  harness to serving-layer fault sites: worker-thread deaths are
  retried on a fresh thread, and cancellation is raced against
  completion — both without changing any response.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.cancellation import CancelToken, QueryCancelledError
from repro.core.config import RumbleConfig
from repro.jsoniq.errors import JsoniqException
from repro.obs.metrics import MetricsRegistry
from repro.server.admission import AdmissionController, QueryRejected
from repro.server.breaker import CircuitBreaker
from repro.server.session import Session
from repro.spark.faults import FaultPlan, InjectedWorkerDeath
from repro.sanitizer import san_lock, shared_state

#: Source-scanning builtins whose presence marks a query *statically
#: heavy*: under pressure these are rejected with 503 + Retry-After
#: instead of queued (a cheap textual heuristic — false positives only
#: delay a query while the server is degraded anyway).
_HEAVY_MARKERS = (
    "json-file", "structured-json-file", "text-file", "csv-file",
    "json-doc", "parallelize", "collection(",
)


def _statically_heavy(query_text: str) -> bool:
    return any(marker in query_text for marker in _HEAVY_MARKERS)


def _env_chaos_plan() -> Optional[FaultPlan]:
    """The CI chaos-serving knob: a seeded plan from the environment.

    Only fault kinds every endpoint response survives are enabled —
    worker deaths (resubmitted), cancel races (post-completion no-ops)
    and slow client reads (delays).  Mid-body disconnects would eat
    responses, so they stay opt-in via an explicit plan.
    """
    raw = os.environ.get("RUMBLE_SERVER_CHAOS_SEED", "")
    if not raw:
        return None
    return FaultPlan(
        seed=int(raw),
        worker_death_rate=0.05,
        cancel_race_rate=0.05,
        slow_client_rate=0.05,
    )


@shared_state(async_confined=True)
class QueryService:
    """Sessions, admission, a worker pool, and service-wide metrics."""

    def __init__(self,
                 max_concurrent: int = 4,
                 tenant_quota: int = 2,
                 queue_limit: int = 32,
                 default_timeout: float = 30.0,
                 executors: int = 4,
                 parallelism: int = 8,
                 session_config: Optional[RumbleConfig] = None,
                 result_cap: Optional[int] = None,
                 drain_timeout: float = 5.0,
                 fault_plan: Optional[FaultPlan] = None,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 30.0,
                 pressure_queue_fraction: float = 0.75,
                 pressure_memory_fraction: float = 0.9,
                 event_log_dir: Optional[str] = None):
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            tenant_quota=tenant_quota,
            queue_limit=queue_limit,
            metrics=self.metrics,
        )
        self.default_timeout = default_timeout
        self.result_cap = result_cap
        self.drain_timeout = drain_timeout
        self.fault_plan = (
            fault_plan if fault_plan is not None else _env_chaos_plan()
        )
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        self.pressure_queue_fraction = pressure_queue_fraction
        self.pressure_memory_fraction = pressure_memory_fraction
        self.event_log_dir = event_log_dir
        self._executors = executors
        self._parallelism = parallelism
        self._session_config = session_config
        self._sessions: Dict[str, Session] = {}
        self._sessions_lock = asyncio.Lock()
        # Worker threads bound to the admission ceiling: admitted queries
        # never wait for a thread behind un-admitted work.
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrent,
            thread_name_prefix="rumble-query",
        )
        # -- Request lifecycle state ------------------------------------------
        #: In-flight futures -> their cancel tokens (drain + shutdown).
        self._running: Dict[asyncio.Future, CancelToken] = {}
        #: ``(tenant, query_id)`` -> token (``POST /cancel``).  Keyed by
        #: tenant so one tenant can never cancel another's query, and
        #: duplicate ids within a tenant are rejected up front.
        self._inflight: Dict[Tuple[str, str], CancelToken] = {}
        self._request_index = 0
        self._busy = 0
        self._busy_lock = san_lock("server.service.busy")
        self._closing = False
        self._closed = False
        self._close_lock = asyncio.Lock()
        self._drain_summary: Optional[dict] = None
        self.started_at = time.time()

    # -- Sessions ------------------------------------------------------------
    async def session(self, tenant: str) -> Session:
        existing = self._sessions.get(tenant)
        if existing is not None:
            return existing
        async with self._sessions_lock:
            existing = self._sessions.get(tenant)
            if existing is not None:
                return existing
            loop = asyncio.get_running_loop()
            # Engine construction touches the filesystem-free substrate
            # only, but still costs a few ms: keep it off the event loop.
            session = await loop.run_in_executor(
                self._pool, self._build_session, tenant
            )
            self._sessions[tenant] = session
            return session

    def _build_session(self, tenant: str) -> Session:
        config = self._session_config
        if config is not None:
            # Each tenant gets its own config copy: collections and other
            # mutable fields must not alias across sessions.
            from dataclasses import replace

            config = replace(config, collections=dict(config.collections))
        return Session(
            tenant,
            config=config,
            executors=self._executors,
            parallelism=self._parallelism,
        )

    # -- Worker occupancy (the truth admission control relies on) ------------
    def _worker_enter(self) -> None:
        with self._busy_lock:
            self._busy += 1
            busy = self._busy
        self.metrics.gauge("rumble.server.busy_workers").set(busy)

    def _worker_exit(self) -> None:
        with self._busy_lock:
            self._busy -= 1
            busy = self._busy
        self.metrics.gauge("rumble.server.busy_workers").set(busy)

    def next_request_index(self) -> int:
        """The monotonic per-service request counter — the fault-site
        coordinate of every serving-layer chaos decision."""
        self._request_index += 1
        return self._request_index

    # -- Degraded modes -------------------------------------------------------
    def pressure(self) -> Optional[str]:
        """The active pressure signal (``"queue"``/``"memory"``), or None.

        Driven by the existing load signals: the admission queue depth
        (``rumble.server.queued``) against its limit, and each session's
        unified memory manager against its budget.
        """
        limit = self.admission.queue_limit
        if limit and self.admission.queued >= (
            self.pressure_queue_fraction * limit
        ):
            return "queue"
        for session in self._sessions.values():
            memory = session.engine.spark.spark_context.memory
            if memory.limited and memory.used >= (
                self.pressure_memory_fraction * memory.budget
            ):
                return "memory"
        return None

    def _shed_pressure(self, reason: str) -> None:
        evicted = sum(
            session.evict_result_cache()
            for session in self._sessions.values()
        )
        if evicted:
            self.metrics.counter(
                "rumble.server.pressure_evictions", reason=reason
            ).inc(evicted)

    # -- Cancellation ---------------------------------------------------------
    def cancel(self, query_id: str, reason: str = "cancelled",
               tenant: str = "default") -> bool:
        """Cancel ``tenant``'s in-flight query registered as
        ``query_id``.  Cancellation is tenant-scoped: naming another
        tenant's id is indistinguishable from an unknown id."""
        token = self._inflight.get((tenant, query_id))
        if token is None:
            return False
        if token.cancel(reason):
            self.metrics.counter(
                "rumble.server.cancel_requests", reason=reason
            ).inc()
        return True

    def _track(self, future: asyncio.Future, token: CancelToken) -> None:
        self._running[future] = token

        def _done(f: asyncio.Future) -> None:
            self._running.pop(f, None)
            if not f.cancelled():
                # Consume the exception: a cancelled waiter (408 already
                # sent) must not leave an unretrieved-exception warning.
                f.exception()

        future.add_done_callback(_done)

    # -- Execution -----------------------------------------------------------
    async def execute(self, tenant: str, query_text: str,
                      bindings: Optional[Dict[str, object]] = None,
                      timeout: Optional[float] = None,
                      query_id: Optional[str] = None) -> dict:
        """Run one query for one tenant; always returns a payload dict."""
        started = time.perf_counter()
        if self._closing:
            return self._error(
                503, "shutting_down",
                "server is draining and no longer accepts queries",
                tenant, started, retryable=True,
                retry_after=self.drain_timeout,
            )
        inflight_key = (tenant, query_id) if query_id is not None else None
        if inflight_key is not None and inflight_key in self._inflight:
            # Rejected before the breaker check so no half-open probe
            # slot is consumed by a request that never runs.
            return self._error(
                400, "duplicate_query_id",
                "query id {!r} is already in flight for this "
                "tenant".format(query_id),
                tenant, started,
            )
        wait = self.breaker.check(tenant)
        if wait is not None:
            self.metrics.counter(
                "rumble.server.breaker_rejected", tenant=tenant
            ).inc()
            return self._error(
                503, "circuit_open",
                "tenant circuit breaker is open after repeated failures",
                tenant, started, retryable=True, retry_after=wait,
            )
        pressure = self.pressure()
        if pressure is not None:
            self._shed_pressure(pressure)
            if _statically_heavy(query_text):
                self.metrics.counter(
                    "rumble.server.degraded_rejected", tenant=tenant
                ).inc()
                # Shedding is no verdict on the tenant: re-arm the
                # half-open probe slot if this request consumed it.
                self.breaker.release(tenant)
                return self._error(
                    503, "degraded",
                    "server under {} pressure; heavy queries are shed "
                    "instead of queued".format(pressure),
                    tenant, started, retryable=True, retry_after=2.0,
                )
        effective = timeout if timeout is not None else self.default_timeout
        token = CancelToken(timeout=effective)
        if inflight_key is not None:
            self._inflight[inflight_key] = token
        try:
            async with self.admission.admit(tenant):
                payload = await self._run_admitted(
                    tenant, query_text, bindings, token
                )
        except QueryRejected as rejection:
            self.breaker.release(tenant)
            return self._error(
                429, "rejected", str(rejection), tenant, started,
                retryable=True, retry_after=1.0,
            )
        except QueryCancelledError as error:
            return self._cancelled_payload(error, tenant, started, effective)
        except JsoniqException as error:
            # A query error is the user's bug, not an outage: it resets
            # the tenant's breaker like a success.
            self.breaker.record(tenant, True)
            return self._error(
                400, error.code, str(error), tenant, started,
            )
        except Exception as error:  # pragma: no cover - defensive
            self.breaker.record(tenant, False)
            return self._error(
                500, "internal", "{}: {}".format(
                    type(error).__name__, error
                ), tenant, started,
            )
        finally:
            if inflight_key is not None:
                self._inflight.pop(inflight_key, None)
        if payload is None:
            # The per-query timeout elapsed; the worker was cancelled
            # cooperatively and unwinds on its own (freeing the slot's
            # *thread*, not just its accounting).
            return self._error(
                408, "timeout",
                "query exceeded the {}s timeout".format(effective),
                tenant, started,
            )
        payload["status"] = 200
        payload["tenant"] = tenant
        payload["seconds"] = round(time.perf_counter() - started, 6)
        self.breaker.record(tenant, True)
        self.metrics.counter("rumble.server.queries", tenant=tenant).inc()
        self.metrics.histogram("rumble.server.seconds").observe(
            payload["seconds"]
        )
        return payload

    async def _run_admitted(self, tenant: str, query_text: str,
                            bindings: Optional[Dict[str, object]],
                            token: CancelToken) -> Optional[dict]:
        """The admitted path: run on a worker, enforce the deadline.

        Returns the session payload, or None when the timeout elapsed
        (the caller maps it to 408).  Consults the chaos plan for the
        serving fault sites that live below admission.
        """
        session = await self.session(tenant)
        loop = asyncio.get_running_loop()
        plan = self.fault_plan
        index = self.next_request_index()
        for attempt in (1, 2):
            def run(attempt: int = attempt) -> dict:
                self._worker_enter()
                try:
                    if plan is not None and plan.server_fault(
                        "worker_death", index, attempt
                    ):
                        raise InjectedWorkerDeath(
                            "worker thread died before request {} "
                            "started".format(index)
                        )
                    return session.query(
                        query_text, bindings=bindings,
                        cap=self.result_cap, cancel=token,
                    )
                finally:
                    self._worker_exit()

            future = loop.run_in_executor(self._pool, run)
            self._track(future, token)
            remaining = token.remaining()
            try:
                payload = await asyncio.wait_for(
                    future,
                    max(0.0, remaining) if remaining is not None else None,
                )
            except asyncio.TimeoutError:
                # The token stops the worker at the next partition/clause
                # boundary: a 408 frees the thread, not just the slot.
                token.cancel("timeout")
                self.metrics.counter(
                    "rumble.server.timeouts", tenant=tenant
                ).inc()
                self.breaker.record(tenant, False)
                return None
            except InjectedWorkerDeath:
                # The serving analogue of an executor death: resubmit on
                # a fresh thread.  The plan never hits second attempts,
                # so a seeded death is always invisible to the client.
                self.metrics.counter(
                    "rumble.server.worker_deaths", tenant=tenant
                ).inc()
                continue
            if plan is not None and plan.server_fault("cancel_race", index):
                # Chaos site: cancellation racing completion.  The work
                # is done; the late cancel must not perturb the response
                # (or any later query on this session).
                token.cancel("race")
            return payload
        raise RuntimeError("worker death injected twice for one request")

    def _cancelled_payload(self, error: QueryCancelledError, tenant: str,
                           started: float, effective: float) -> dict:
        reason = getattr(error, "reason", "cancelled")
        if reason in ("timeout", "deadline"):
            # The worker noticed the deadline before the event-loop
            # timer fired: same outcome, same status.
            self.metrics.counter(
                "rumble.server.timeouts", tenant=tenant
            ).inc()
            self.breaker.record(tenant, False)
            return self._error(
                408, "timeout",
                "query exceeded the {}s timeout".format(effective),
                tenant, started,
            )
        # A client-side cancel or a server drain is no verdict on the
        # tenant's workload health: re-arm the breaker's half-open
        # probe slot (if this request held it) without closing or
        # re-opening the circuit.
        self.breaker.release(tenant)
        if reason == "shutdown":
            return self._error(
                503, "shutting_down",
                "query cancelled by server drain deadline",
                tenant, started, retryable=True,
                retry_after=self.drain_timeout,
            )
        self.metrics.counter(
            "rumble.server.cancelled", tenant=tenant
        ).inc()
        return self._error(
            499, "cancelled",
            "query cancelled ({})".format(reason), tenant, started,
        )

    def _error(self, status: int, code: str, message: str, tenant: str,
               started: float, retryable: bool = False,
               retry_after: Optional[float] = None) -> dict:
        self.metrics.counter(
            "rumble.server.errors", status=status
        ).inc()
        error = {
            "code": code,
            "message": message,
            "retryable": retryable,
        }
        if retry_after is not None:
            error["retry_after"] = round(retry_after, 3)
        return {
            "status": status,
            "tenant": tenant,
            "error": error,
            "seconds": round(time.perf_counter() - started, 6),
        }

    # -- Introspection -------------------------------------------------------
    def status(self) -> dict:
        return {
            "status": 200,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "admission": self.admission.snapshot(),
            "lifecycle": {
                "closing": self._closing,
                "closed": self._closed,
                "inflight": len(self._running),
                "busy_workers": self._busy,
                "breaker": self.breaker.snapshot(),
                "pressure": self.pressure(),
            },
            "sessions": {
                tenant: session.snapshot()
                for tenant, session in sorted(self._sessions.items())
            },
        }

    def metrics_snapshot(self) -> dict:
        return {
            "status": 200,
            "server": self.metrics.snapshot(),
            "tenants": {
                tenant: session.obs.metrics.snapshot()
                for tenant, session in sorted(self._sessions.items())
            },
        }

    def flush_event_logs(self) -> Dict[str, int]:
        """Write each session's event log (when a directory is set);
        returns per-tenant event counts either way."""
        counts = {
            tenant: len(session.obs.events)
            for tenant, session in sorted(self._sessions.items())
        }
        if self.event_log_dir:
            os.makedirs(self.event_log_dir, exist_ok=True)
            for session in self._sessions.values():
                session.flush_events(self.event_log_dir)
        return counts

    # -- Shutdown ------------------------------------------------------------
    async def close(self, drain_timeout: Optional[float] = None) -> dict:
        """Drain and shut down; idempotent.

        1. Stop admitting (new queries get 503 ``shutting_down``).
        2. Wait for in-flight queries up to the drain deadline.
        3. Cancel stragglers (their tokens raise at the next boundary)
           and give them a short grace period to unwind.
        4. Flush event logs, then shut the worker pool down.  The join
           runs off the event loop, and a worker that cannot be
           stopped — a long computation between cooperative
           checkpoints — is *abandoned* rather than waited for, so
           the drain deadline stays an upper bound on ``close()``
           instead of a suggestion.
        """
        async with self._close_lock:
            if self._closed:
                return dict(self._drain_summary or {})
            self._closing = True
            drain = (
                self.drain_timeout if drain_timeout is None
                else drain_timeout
            )
            deadline = time.monotonic() + max(0.0, drain)
            while (
                self._running or self.admission.running
                or self.admission.queued
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                pending = [f for f in self._running if not f.done()]
                if pending:
                    await asyncio.wait(
                        pending, timeout=min(remaining, 0.25)
                    )
                else:
                    await asyncio.sleep(0.01)
            cancelled = 0
            for token in list(self._running.values()):
                if token.cancel("shutdown"):
                    cancelled += 1
            pending = [f for f in self._running if not f.done()]
            if pending:
                await asyncio.wait(pending, timeout=2.0)
            events = self.flush_event_logs()
            stuck = [f for f in self._running if not f.done()]
            if stuck:
                # These workers survived cancellation *and* the grace
                # period (parked in a long compute):
                # joining them would block the event loop indefinitely.
                # Mark the pool shut down and abandon them.
                self._pool.shutdown(wait=False, cancel_futures=True)
                abandoned = len(stuck)
            else:
                abandoned = await self._join_pool()
            self._closed = True
            self._drain_summary = {
                "drained": self.admission.completed,
                "cancelled_at_deadline": cancelled,
                "abandoned_workers": abandoned,
                "event_counts": events,
            }
            return dict(self._drain_summary)

    async def _join_pool(self, grace: float = 2.0) -> int:
        """Join the worker pool without blocking the event loop.

        The blocking ``shutdown(wait=True)`` runs in a side thread;
        if it has not finished within ``grace`` seconds (a worker
        raced back into a long stretch between checkpoints), fall back
        to ``wait=False`` and report the abandoned workers instead of
        hanging the drain.
        """
        joined = threading.Event()

        def join() -> None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            joined.set()

        threading.Thread(
            target=join, name="rumble-pool-join", daemon=True
        ).start()
        deadline = time.monotonic() + grace
        while not joined.is_set():
            if time.monotonic() >= deadline:
                self._pool.shutdown(wait=False, cancel_futures=True)
                return sum(1 for f in self._running if not f.done())
            await asyncio.sleep(0.02)
        return 0
