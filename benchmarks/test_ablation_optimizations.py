"""Ablations of the design choices DESIGN.md calls out.

Three switches, each isolating one optimization the engine relies on:

1. **group-by COUNT pushdown** — Section 4.7's count-only aggregation vs
   always materializing non-grouping variables;
2. **Catalyst-lite rules** — the mini Spark SQL with and without its
   optimizer (predicate pushdown, TopK fusion);
3. **whole-stage codegen** — the generated Python loop over masked
   batches vs the interpreted per-row iterator dispatch it replaces
   (both sides columnar, so only the code generation varies).
"""

from __future__ import annotations

import json

from repro.bench.harness import measure
from repro.bench.reporting import check_shape, render_engine_table
from repro.bench.workloads import make_rumble_engine, rumble_query
from repro.jsoniq.runtime.flwor import clauses
from repro.spark import SparkSession
from repro.spark.sql.executor import explain, run_sql


def test_ablation_group_count_pushdown(confusion_path):
    # The row group-by is what Section 4.7's COUNT pushdown is about: the
    # columnar group kernel pre-aggregates per batch and freezes its
    # usage at plan time, so it would ignore the switch flipped below.
    rumble = make_rumble_engine(columnar=False)
    compiled = rumble.compile(rumble_query("group", confusion_path))
    group_by = compiled.iterator.input_clause
    while not isinstance(group_by, clauses.GroupByClauseIterator):
        group_by = group_by.input_clause
    assert group_by.variable_usage == {"i": clauses.USAGE_COUNT_ONLY}

    metrics = rumble.spark.spark_context.shuffle_metrics

    with_pushdown = measure(lambda: compiled.run().count(), repeat=2)
    group_by.variable_usage = {"i": clauses.USAGE_MATERIALIZE}
    without = measure(lambda: compiled.run().count(), repeat=2)
    group_by.variable_usage = {"i": clauses.USAGE_COUNT_ONLY}

    # Weigh the shuffled payloads (Spark-UI-style data movement): the
    # same number of rows crosses the shuffle, but count-only rows carry
    # a length instead of the materialized items.
    metrics.measure_bytes = True
    try:
        metrics.reset()
        compiled.run().count()
        pushdown_bytes = metrics.bytes
        group_by.variable_usage = {"i": clauses.USAGE_MATERIALIZE}
        metrics.reset()
        compiled.run().count()
        materialize_bytes = metrics.bytes
    finally:
        metrics.measure_bytes = False
        group_by.variable_usage = {"i": clauses.USAGE_COUNT_ONLY}

    print(render_engine_table(
        "Ablation — group-by COUNT pushdown (Section 4.7)",
        {"group query": {
            "COUNT pushdown": with_pushdown.render(),
            "materialize": without.render(),
        },
         "shuffled bytes": {
            "COUNT pushdown": "{:,}".format(pushdown_bytes),
            "materialize": "{:,}".format(materialize_bytes),
        }},
    ))
    check_shape(
        "COUNT pushdown is not slower than materializing",
        with_pushdown.seconds <= without.seconds * 1.1,
    )
    check_shape(
        "COUNT pushdown shuffles fewer bytes",
        pushdown_bytes < materialize_bytes,
        strict=True,
    )


def test_ablation_sql_optimizer(confusion_path):
    spark = SparkSession()
    frame = spark.read.json(confusion_path)
    frame.create_or_replace_temp_view("dataset")
    query = (
        "SELECT guess, target, country FROM dataset "
        "WHERE guess = target ORDER BY date DESC LIMIT 10"
    )
    optimized_plan = explain(spark, query)
    raw_plan = explain(spark, query, rules=[])
    assert "TopK" in optimized_plan
    assert "TopK" not in raw_plan
    print("optimized plan:\n" + optimized_plan)
    print("unoptimized plan:\n" + raw_plan)

    optimized = measure(
        lambda: run_sql(spark, query).collect(), repeat=3
    )
    unoptimized = measure(
        lambda: run_sql(spark, query, rules=[]).collect(), repeat=3
    )
    print(render_engine_table(
        "Ablation — Catalyst-lite rules (TopK fusion + pushdown)",
        {"sort+limit": {
            "optimized": optimized.render(),
            "no rules": unoptimized.render(),
        }},
    ))
    check_shape(
        "TopK fusion beats full sort",
        optimized.seconds <= unoptimized.seconds,
    )
    # Same answers either way.
    left = [r.as_dict() for r in run_sql(spark, query).collect()]
    right = [r.as_dict() for r in run_sql(spark, query, rules=[]).collect()]
    assert json.dumps(left, sort_keys=True) == json.dumps(
        right, sort_keys=True
    )


def test_ablation_codegen(confusion_path):
    """Whole-stage codegen vs the interpreted columnar row loop on a
    dispatch-bound map pipeline (predicate + object construction)."""
    query = (
        'for $i in json-file("{path}")\n'
        'where $i.guess eq $i.target\n'
        'return {{ "guess": $i.guess, "country": $i.country }}'
    ).format(path=confusion_path)
    generated_engine = make_rumble_engine(columnar=True, codegen=True)
    interpreted_engine = make_rumble_engine(columnar=True, codegen=False)
    for engine in (generated_engine, interpreted_engine):
        engine.query(query).to_python()  # warm: plans + shredded batches
    generated = measure(
        lambda: generated_engine.query(query).to_python(), repeat=3
    )
    interpreted = measure(
        lambda: interpreted_engine.query(query).to_python(), repeat=3
    )
    print(render_engine_table(
        "Ablation — whole-stage code generation",
        {"map query": {
            "codegen on": generated.render(),
            "codegen off": interpreted.render(),
        }},
    ))
    check_shape(
        "the generated loop does not lose to interpreted dispatch",
        generated.seconds <= interpreted.seconds * 1.1,
    )
