"""Command-line interface: run JSONiq queries like the Rumble jar does.

Usage::

    python -m repro 'for $x in 1 to 3 return $x * $x'
    python -m repro --query-file query.jq --output out-dir
    python -m repro --shell
    echo 'count(json-file("data.json"));' | python -m repro --shell
    python -m repro serve --port 8090 --max-concurrent 8
"""

from __future__ import annotations

import argparse
import sys

from repro.core import Rumble, RumbleConfig
from repro.core.shell import RumbleShell
from repro.jsoniq.errors import JsoniqException


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run JSONiq queries on the Rumble reproduction engine.",
    )
    parser.add_argument(
        "query", nargs="?", help="JSONiq query text to execute"
    )
    parser.add_argument(
        "--query", "-q", dest="query_option", metavar="QUERY",
        help="JSONiq query text to execute (alternative to the "
             "positional argument)",
    )
    parser.add_argument(
        "--query-file", "-f", help="read the query from a file"
    )
    parser.add_argument(
        "--output", "-o",
        help="write results as JSON Lines to this directory "
             "(parallel part files) instead of printing",
    )
    parser.add_argument(
        "--cap", type=int, default=200,
        help="maximum number of items to print (default 200)",
    )
    parser.add_argument(
        "--mount", action="append", default=[], metavar="SCHEME=DIR",
        help="serve scheme:// URIs from a local directory "
             "(e.g. --mount hdfs=/data)",
    )
    parser.add_argument(
        "--shell", action="store_true",
        help="start the interactive shell (reads stdin)",
    )
    parser.add_argument(
        "--parse-mode", choices=("failfast", "permissive", "dropmalformed"),
        default="failfast",
        help="how json-file()/structured-json-file() treat malformed "
             "lines: failfast raises, permissive captures the raw line "
             "under _corrupt_record, dropmalformed skips it",
    )
    parser.add_argument(
        "--chaos-seed", type=int, metavar="SEED",
        help="run under the deterministic chaos harness with this seed "
             "(injects task crashes, executor deaths, shuffle-fetch "
             "failures and stragglers; recovery is reported on stderr)",
    )
    parser.add_argument(
        "--no-adaptive", dest="adaptive", action="store_false",
        default=None,
        help="turn adaptive query execution off (runtime partition "
             "coalescing, skew splitting, join re-planning)",
    )
    parser.add_argument(
        "--no-columnar", dest="columnar", action="store_false",
        help="turn vectorized columnar execution off (shredded typed "
             "batches, predicate masks, batch kernels) for the "
             "row-at-a-time reference scan",
    )
    parser.add_argument(
        "--no-codegen", dest="codegen", action="store_false",
        help="turn whole-stage code generation off (one generated "
             "Python loop per eligible pipeline) for the closure-chained "
             "interpreted pipeline",
    )
    parser.add_argument(
        "--memory-budget", type=int, metavar="BYTES",
        help="bound the unified memory pool (cached partitions + shuffle "
             "buckets) to this many bytes; overflow evicts LRU cached "
             "partitions and spills shuffle buckets to disk",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="statically analyse the query and print diagnostics instead "
             "of running it; exits 1 when any error-severity diagnostic "
             "is reported",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="with --lint, how to render the diagnostics (default text)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the query under the profiler and print the per-phase/"
             "per-operator breakdown after the results",
    )
    parser.add_argument(
        "--profile-events", metavar="FILE",
        help="with --profile, also write the Spark-UI-style event log "
             "as JSON Lines to FILE",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run under the concurrency sanitizer (lock-order analysis "
             "+ lockset race detection; findings print to stderr; "
             "equivalent to RUMBLE_SANITIZE=1)",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the multi-tenant JSONiq query server "
                    "(POST /query, GET /status, GET /metrics; "
                    "see docs/serving.md).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default "
        "127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8090,
        help="bind port (default 8090; 0 picks a free port)",
    )
    parser.add_argument(
        "--executors", type=int, default=4,
        help="simulated executors per tenant engine (default 4)",
    )
    parser.add_argument(
        "--parallelism", type=int, default=8,
        help="default RDD parallelism per tenant engine (default 8)",
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=4,
        help="queries executing at once, server-wide (default 4)",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=2,
        help="concurrent queries per tenant (default 2)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=32,
        help="waiting queries before load shedding with 429 (default 32)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-query timeout in seconds (default 30)",
    )
    parser.add_argument(
        "--plan-cache", type=int, default=128, metavar="ENTRIES",
        help="plan cache capacity per tenant; 0 disables (default 128)",
    )
    parser.add_argument(
        "--result-cache", type=int, default=64, metavar="ENTRIES",
        help="result cache capacity per tenant; 0 disables (default 64)",
    )
    parser.add_argument(
        "--cap", type=int, default=200,
        help="maximum items returned per query (default 200)",
    )
    parser.add_argument(
        "--mount", action="append", default=[], metavar="SCHEME=DIR",
        help="serve scheme:// URIs from a local directory",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, how long to wait for in-flight queries "
             "before cancelling them (default 5)",
    )
    parser.add_argument(
        "--event-log", metavar="DIR",
        help="flush per-tenant event logs to this directory as JSONL "
             "during graceful shutdown",
    )
    parser.add_argument(
        "--chaos-seed", type=int, metavar="SEED",
        help="inject deterministic serving-layer faults (slow client "
             "reads, worker deaths, cancellation races) with this seed; "
             "equivalent to RUMBLE_SERVER_CHAOS_SEED",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run the server under the concurrency sanitizer; findings "
             "print to stderr at shutdown (equivalent to "
             "RUMBLE_SANITIZE=1)",
    )
    return parser


def serve_main(argv) -> int:
    arguments = build_serve_parser().parse_args(argv)
    import asyncio
    import signal

    from repro.core.config import RumbleConfig
    from repro.server.http import serve
    from repro.server.service import QueryService
    from repro.spark import storage
    from repro.spark.faults import FaultPlan

    if arguments.sanitize:
        from repro import sanitizer

        sanitizer.enable()
    for mount in arguments.mount:
        scheme, _, root = mount.partition("=")
        if not root:
            print("bad --mount (expected SCHEME=DIR):", mount,
                  file=sys.stderr)
            return 2
        storage.REGISTRY.mount(scheme, root)
    fault_plan = None
    if arguments.chaos_seed is not None:
        fault_plan = FaultPlan(
            seed=arguments.chaos_seed,
            slow_client_rate=0.05,
            worker_death_rate=0.05,
            cancel_race_rate=0.05,
        )
    try:
        session_config = RumbleConfig(
            materialization_cap=arguments.cap,
            plan_cache_size=arguments.plan_cache,
            result_cache_size=arguments.result_cache,
        )
        service = QueryService(
            max_concurrent=arguments.max_concurrent,
            tenant_quota=arguments.tenant_quota,
            queue_limit=arguments.queue_limit,
            default_timeout=arguments.timeout,
            executors=arguments.executors,
            parallelism=arguments.parallelism,
            session_config=session_config,
            result_cap=arguments.cap,
            drain_timeout=arguments.drain_timeout,
            fault_plan=fault_plan,
            event_log_dir=arguments.event_log,
        )
    except ValueError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2

    def ready(host: str, port: int) -> None:
        # The exact line tests and tooling wait for before connecting.
        print("listening on http://{}:{}".format(host, port), flush=True)

    try:
        summary = asyncio.run(serve(
            service, host=arguments.host, port=arguments.port, ready=ready,
            drain_timeout=arguments.drain_timeout,
            shutdown_signals=(signal.SIGTERM, signal.SIGINT),
        ))
    except KeyboardInterrupt:
        # Signal handlers could not be installed on this platform and
        # Ctrl-C arrived the classic way: exit without a drain summary.
        return 0
    print(
        "drained: {} completed, {} cancelled at the drain deadline".format(
            summary.get("drained", 0),
            summary.get("cancelled_at_deadline", 0),
        ),
        file=sys.stderr,
    )
    _report_sanitizer()
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    arguments = build_parser().parse_args(argv)
    try:
        config = RumbleConfig(
            materialization_cap=arguments.cap, warn_on_cap=True,
            parse_mode=arguments.parse_mode,
            adaptive=arguments.adaptive,
            memory_budget=arguments.memory_budget,
            sanitize=arguments.sanitize,
            columnar=arguments.columnar,
            codegen=arguments.codegen,
        )
    except ValueError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    if arguments.chaos_seed is not None:
        from repro.core import make_engine
        from repro.spark import FaultPlan

        fault_plan = FaultPlan(
            seed=arguments.chaos_seed,
            crash_rate=0.1,
            executor_death_rate=0.025,
            fetch_failure_rate=0.05,
            slow_task_rate=0.05,
        )
        engine = make_engine(config=config, fault_plan=fault_plan)
    else:
        engine = Rumble(config=config)
    for mount in arguments.mount:
        scheme, _, root = mount.partition("=")
        if not root:
            print("bad --mount (expected SCHEME=DIR):", mount,
                  file=sys.stderr)
            return 2
        engine.mount(scheme, root)

    if arguments.shell:
        RumbleShell(engine).run(sys.stdin)
        return 0

    if arguments.query_file:
        with open(arguments.query_file, "r", encoding="utf-8") as handle:
            query_text = handle.read()
    elif arguments.query_option:
        query_text = arguments.query_option
    elif arguments.query:
        query_text = arguments.query
    else:
        build_parser().print_usage(sys.stderr)
        return 2

    if arguments.lint:
        return _lint(query_text, arguments.format)

    try:
        return _run(engine, query_text, arguments)
    except JsoniqException as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1
    finally:
        _report_sanitizer()


def _run(engine: Rumble, query_text: str, arguments) -> int:
    """Execute (or profile) one query; shared exit path for main()."""
    if arguments.profile:
        report = engine.profile(query_text, cap=arguments.cap)
        for item in report.items:
            print(item.serialize())
        print(report.render())
        if arguments.profile_events:
            from repro.obs import EventLog

            log = EventLog()
            log.events = list(report.events)
            try:
                log.write(arguments.profile_events)
            except OSError as error:
                print("cannot write --profile-events file: {}".format(
                    error
                ), file=sys.stderr)
                return 1
            print("wrote {} event(s) to {}".format(
                len(report.events), arguments.profile_events
            ))
        _report_chaos(engine, arguments)
        return 0
    result = engine.query(query_text)
    if arguments.output:
        files = result.write_json_lines(arguments.output)
        print("wrote {} part file(s) to {}".format(
            len(files), arguments.output
        ))
        _report_chaos(engine, arguments)
        return 0
    for item in result.collect_capped()[0]:
        print(item.serialize())
    _report_chaos(engine, arguments)
    return 0


def _lint(query_text: str, output_format: str) -> int:
    """Run the linter and render its findings; exit 1 on errors."""
    from repro.jsoniq.analysis.diagnostics import ERROR
    from repro.jsoniq.analysis.linter import lint_query

    diagnostics = lint_query(query_text)
    if output_format == "json":
        import json

        print(json.dumps([d.to_dict() for d in diagnostics], indent=2))
    elif diagnostics:
        for diagnostic in diagnostics:
            print(diagnostic.render())
    else:
        print("no issues found")
    return 1 if any(d.severity == ERROR for d in diagnostics) else 0


def _report_sanitizer() -> None:
    """Print any uncaptured sanitizer findings on stderr."""
    from repro import sanitizer

    if not sanitizer.enabled():
        return
    findings = sanitizer.drain_reports()
    for report in findings:
        print(report.render(), file=sys.stderr)
    print(
        "sanitizer: {} report(s)".format(len(findings)), file=sys.stderr
    )


def _report_chaos(engine: Rumble, arguments) -> None:
    """After a chaos run, summarize injections and recoveries on stderr."""
    if arguments.chaos_seed is None:
        return
    counts = engine.spark.spark_context.faults.counts
    summary = ", ".join(
        "{}={}".format(kind, count)
        for kind, count in sorted(counts.items())
    ) or "no faults fired"
    print(
        "chaos[seed={}]: {}".format(arguments.chaos_seed, summary),
        file=sys.stderr,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
