"""Per-tenant sessions: an engine, its caches, and isolated metrics.

Each tenant gets its own :class:`~repro.core.engine.Rumble` engine —
its own simulated SparkContext, plan cache, result cache, collections
and observability bundle — so tenants can neither observe nor perturb
each other's state.  What they *share* is the nominal cluster capacity,
enforced above the sessions by the admission controller.

Engine execution is serialized per session with a lock: the simulated
substrate keeps per-context mutable state (shuffle metrics, the
adaptive ledger, fault accounting) that is not safe under concurrent
runs.  Cross-tenant parallelism is unaffected — different sessions run
concurrently in the service's thread pool.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import Dict, Optional

from repro.cancellation import QueryCancelledError
from repro.core.config import RumbleConfig
from repro.core.engine import Rumble, make_engine
from repro.obs import NOOP_TRACER, Observability
from repro.sanitizer import san_lock, shared_state


@shared_state
class Session:
    """One tenant's engine plus bookkeeping."""

    def __init__(self, tenant: str,
                 config: Optional[RumbleConfig] = None,
                 executors: int = 4,
                 parallelism: int = 8,
                 engine: Optional[Rumble] = None):
        self.tenant = tenant
        self.config = config or RumbleConfig(plan_cache_size=128,
                                             result_cache_size=64)
        self.engine = engine if engine is not None else make_engine(
            executors=executors, parallelism=parallelism, config=self.config
        )
        #: Per-session observability: cache and engine counters accumulate
        #: here, never in a shared registry (tenant isolation).  A session
        #: counts but does not trace: the spans of the shared query path
        #: would otherwise be retained per request.
        self.obs = Observability(enabled=True)
        self.obs.tracer = NOOP_TRACER
        self.engine.runtime.obs = self.obs
        self._lock = san_lock("server.session")
        self.queries = 0
        self.errors = 0
        self.cancelled = 0
        self.total_seconds = 0.0
        self.created_at = time.time()

    def query(self, query_text: str,
              bindings: Optional[Dict[str, object]] = None,
              cap: Optional[int] = None,
              cancel=None) -> dict:
        """Execute one query, returning a JSON-able payload.

        Runs in a worker thread of the service's pool; the lock keeps
        one session's engine single-writer (see module docstring).
        ``cancel`` is the request's :class:`~repro.cancellation
        .CancelToken`; the scope covers execution *and* collection
        (results are lazy), so cooperative checks fire until the last
        item is materialized.
        """
        started = time.perf_counter()
        with self._lock:
            scope = (
                self.engine.cancel_scope(cancel)
                if cancel is not None else nullcontext()
            )
            try:
                with scope:
                    result = self.engine.query(query_text, bindings=bindings)
                    items = [
                        item.to_python()
                        for item in result.collect_capped(cap)[0]
                    ]
            except QueryCancelledError:
                self.cancelled += 1
                raise
            except Exception:
                self.errors += 1
                raise
            finally:
                self.queries += 1
                self.total_seconds += time.perf_counter() - started
        return {"items": items, "count": len(items)}

    def register_collection(self, name: str, source: object) -> None:
        with self._lock:
            self.engine.register_collection(name, source)

    def cache_stats(self) -> dict:
        stats = {}
        if self.engine.plan_cache is not None:
            stats["plan_cache"] = self.engine.plan_cache.stats()
        if self.engine.result_cache is not None:
            stats["result_cache"] = self.engine.result_cache.stats()
        return stats

    def evict_result_cache(self) -> int:
        """Degraded-mode relief valve: drop cached answers, keep plans."""
        cache = self.engine.result_cache
        return cache.clear() if cache is not None else 0

    def flush_events(self, directory: str) -> int:
        """Write this session's event log as JSONL; returns the count.

        Part of graceful shutdown: the events accumulated over the
        session's lifetime (faults, recoveries, adaptive decisions)
        must survive the process.
        """
        events = self.obs.events
        count = len(events)
        if count:
            events.write(os.path.join(
                directory, "events-{}.jsonl".format(self.tenant)
            ))
        return count

    def snapshot(self) -> dict:
        payload = {
            "tenant": self.tenant,
            "queries": self.queries,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "total_seconds": round(self.total_seconds, 6),
        }
        payload.update(self.cache_stats())
        return payload
