"""``serve_mixed``: a real ``python -m repro serve`` child under a closed loop.

Socket to socket: the load generator speaks HTTP to the server process
over loopback and times each request from send to the last body byte.

*Closed loop, 2 clients.*  The callers of a query server are dashboards
and notebooks that wait for a reply before asking again, so each client
sends its next request only after the previous one completed.  One
keep-alive connection per tenant, one thread per connection: each
tenant's request order — hence every plan-/result-cache hit and
eviction of its session — is fixed by the seed and repeats exactly.

Only the frozen serving surface is used: the ``serve`` CLI with its
default flags plus ``--port 0``, ``POST /query``, ``GET /status`` and
``GET /metrics``.
"""

from __future__ import annotations

import http.client
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from oracle import ServeOracle
from util import percentile
from workloads import Request

READY_PREFIX = "listening on http://"
READY_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 60
CLASSES = ("repeat", "param_scan", "compute", "adhoc")


class Server:
    """One ``python -m repro serve --port 0`` child."""

    def __init__(self, env: Dict[str, str]):
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            self.port = self._await_ready()
        except Exception:
            self.stop()
            raise
        #: Spawn to "listening on": interpreter start, imports, bind.
        self.ready_s = time.perf_counter() - started

    def _await_ready(self) -> int:
        timer = threading.Timer(READY_TIMEOUT_S, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline()
        finally:
            timer.cancel()
        if not line.startswith(READY_PREFIX):
            raise RuntimeError(
                "server did not come up (first line {!r})".format(line)
            )
        return int(line.strip().rsplit(":", 1)[1])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )

    def get(self, path: str) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open("/proc/{}/status".format(self.process.pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait until it has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def post_query(connection: http.client.HTTPConnection, tenant: str,
               query: str) -> Tuple[float, int, dict]:
    """(client seconds, HTTP status, payload) of one ``POST /query``."""
    body = json.dumps({"query": query, "tenant": tenant})
    started = time.perf_counter()
    connection.request(
        "POST", "/query", body, {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    raw = response.read()
    seconds = time.perf_counter() - started
    return seconds, response.status, json.loads(raw)


class Sample(NamedTuple):
    kind: str
    seconds: float
    #: The payload's own ``seconds`` (None when there was no payload).
    server_seconds: Optional[float]
    ok: bool


def timed_request(connection, tenant: str, request: Request,
                  oracle: ServeOracle) -> Sample:
    """One request, checked against the oracle.  Anything that raises,
    answers non-200 or answers wrongly is a failed operation."""
    started = time.perf_counter()
    try:
        seconds, status, payload = post_query(
            connection, tenant, request.query
        )
    except (OSError, http.client.HTTPException, ValueError) as error:
        print("request failed: {!r}".format(error), file=sys.stderr)
        return Sample(
            request.kind, time.perf_counter() - started, None, False
        )
    ok = status == 200 and payload.get("items") == oracle.expected(
        request.spec
    )
    if not ok:
        print("wrong answer ({}) for {}".format(status, request.query),
              file=sys.stderr)
    return Sample(request.kind, seconds, payload.get("seconds"), ok)


def first_request(server: Server, tenant: str, request: Request,
                  oracle: ServeOracle) -> Sample:
    """The request a fresh server answers cold, on its own connection."""
    connection = server.connect()
    try:
        return timed_request(connection, tenant, request, oracle)
    finally:
        connection.close()


def closed_loop(server: Server, schedules: Dict[str, List[Request]],
                warmup: List[Request], oracle: ServeOracle
                ) -> Tuple[float, List[Sample]]:
    """Run every tenant's schedule on its own connection and thread.

    Warm-up (each distinct repeat query once per tenant) is untimed; the
    clock starts once every client is connected and warm.  A client that
    dies leaves its remaining requests without a sample, and the caller
    counts every scheduled request it has no good sample for as failed.
    """
    connections = {tenant: server.connect() for tenant in schedules}
    samples: Dict[str, List[Sample]] = {tenant: [] for tenant in schedules}

    def client(tenant: str) -> None:
        for request in schedules[tenant]:
            samples[tenant].append(timed_request(
                connections[tenant], tenant, request, oracle
            ))

    try:
        for tenant, connection in connections.items():
            for request in warmup:
                post_query(connection, tenant, request.query)
        threads = [
            threading.Thread(target=client, args=(tenant,), name=tenant)
            for tenant in schedules
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        for connection in connections.values():
            connection.close()
    return elapsed, [s for tenant in schedules for s in samples[tenant]]


def latency_metrics(samples: List[Sample]) -> Dict[str, float]:
    """Per-class p50/p95, overall p99 and the HTTP overhead (client
    latency minus the payload's own ``seconds``), all in ms."""
    metrics: Dict[str, float] = {}
    for kind in CLASSES:
        seconds = [s.seconds for s in samples if s.kind == kind]
        if seconds:
            metrics["serve.{}.p50_ms".format(kind)] = (
                statistics.median(seconds) * 1e3
            )
            metrics["serve.{}.p95_ms".format(kind)] = (
                percentile(seconds, 0.95) * 1e3
            )
    metrics["serve.p99_ms"] = percentile(
        [s.seconds for s in samples], 0.99
    ) * 1e3
    overheads = [
        s.seconds - s.server_seconds for s in samples
        if s.server_seconds is not None
    ]
    if overheads:
        metrics["http.overhead_ms_p50"] = statistics.median(overheads) * 1e3
    return metrics


def status_metrics(status: dict, elapsed: float) -> Dict[str, float]:
    """Admission, cache and session numbers from ``GET /status``."""
    sessions = status["sessions"].values()

    def cache(name: str, field: str) -> int:
        return sum(s.get(name, {}).get(field, 0) for s in sessions)

    def hit_ratio(name: str) -> float:
        lookups = cache(name, "hits") + cache(name, "misses")
        return cache(name, "hits") / lookups if lookups else 0.0

    return {
        "admission.admitted": status["admission"]["admitted"],
        "admission.rejected": status["admission"]["rejected"],
        "plan_cache.hit_ratio": hit_ratio("plan_cache"),
        "plan_cache.evictions": cache("plan_cache", "evictions"),
        "result_cache.hit_ratio": hit_ratio("result_cache"),
        "result_cache.evictions": cache("result_cache", "evictions"),
        # Share of the loop's wall time each session spent executing
        # (includes the untimed warm-up requests, a fixed handful).
        "session.busy_fraction": sum(
            s["total_seconds"] for s in sessions
        ) / (elapsed * len(sessions)),
    }
