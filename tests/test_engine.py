"""The Rumble engine façade, results API and shell."""

import io
import warnings

import pytest

from repro.core import (
    MaterializationCapExceeded,
    Rumble,
    RumbleConfig,
    make_engine,
)
from repro.core.shell import RumbleShell
from repro.jsoniq.errors import DynamicException, ParseException

#: level -> ((pushdown, columnar, codegen) asked for, what can take
#: effect): codegen needs columnar needs pushdown, so every level asks
#: for everything above its first "off" — which must then read off too.
SCAN_LEVELS = {
    "rowscan": ((False, True, True), (False, False, False)),
    "pushdown": ((True, False, True), (True, False, False)),
    "columnar": ((True, True, False), (True, True, False)),
    "codegen": ((True, True, True), (True, True, True)),
}


class TestEngineApi:
    def test_query_round_trip(self, rumble):
        assert rumble.query("1 + 1").to_python() == [2]

    def test_compile_then_run_repeatedly(self, rumble):
        compiled = rumble.compile("for $x in 1 to 3 return $x")
        assert compiled.run().to_python() == [1, 2, 3]
        assert compiled.run().to_python() == [1, 2, 3]

    def test_compile_with_external_variables(self, rumble):
        compiled = rumble.compile("$n * 2", external_variables=["n"])
        assert compiled.run({"n": 21}).to_python() == [42]

    def test_declare_external(self, rumble):
        compiled = rumble.compile(
            "declare variable $n external; $n + 1",
        )
        assert compiled.run({"n": 1}).to_python() == [2]

    def test_unbound_external_raises_at_runtime(self, rumble):
        compiled = rumble.compile("declare variable $n external; $n")
        with pytest.raises(DynamicException):
            compiled.run().to_python()

    def test_explain(self, rumble):
        text = rumble.compile("for $x in (1,2) return $x").explain()
        assert "FlworExpression" in text and "ForClause" in text

    def test_parse_error_carries_position(self, rumble):
        with pytest.raises(ParseException) as info:
            rumble.query("1 +")
        assert info.value.code == "XPST0003"

    def test_make_engine_configures_substrate(self):
        engine = make_engine(executors=2, parallelism=3)
        context = engine.spark.spark_context
        assert context.executors.num_executors == 2
        assert context.default_parallelism == 3

    def test_make_engine_leaves_the_callers_config_alone(self):
        import dataclasses

        config = RumbleConfig(materialization_cap=123)
        before = dataclasses.asdict(config)
        stripped = make_engine(
            executors=2, parallelism=4, config=config,
            pushdown=False, columnar=False, codegen=False,
        )
        plain = make_engine(executors=2, parallelism=4, config=config)
        assert dataclasses.asdict(config) == before
        assert "pushdown: off" in stripped.explain("1")
        assert "pushdown: on" in plain.explain("1")
        assert stripped.config.materialization_cap == 123

    @pytest.mark.parametrize("level", sorted(SCAN_LEVELS))
    def test_explain_shows_the_flags_that_take_effect(
        self, level, jsonl_file
    ):
        path = jsonl_file([{"v": i} for i in range(20)])
        (pushdown, columnar, codegen), effective = SCAN_LEVELS[level]
        engine = make_engine(
            executors=2, parallelism=4, pushdown=pushdown,
            columnar=columnar, codegen=codegen,
        )
        lines = engine.explain(
            'for $o in json-file("{}")\n'
            'where $o.v ge 10\n'
            'return {{ "v": $o.v }}'.format(path)
        ).splitlines()
        for name, on in zip(("pushdown", "columnar", "codegen"), effective):
            assert "  {}: {}".format(name, "on" if on else "off") in lines
        _, columnar_on, codegen_on = effective
        assert any(
            line.startswith("    columnar: masked batch scan")
            for line in lines
        ) == columnar_on
        assert any(
            line.startswith("    codegen: whole-stage loop")
            for line in lines
        ) == codegen_on
        assert ("Generated stage 1" in lines) == codegen_on


class TestResults:
    def test_items_stream(self, rumble):
        items = list(rumble.query("1 to 5").items())
        assert [item.to_python() for item in items] == [1, 2, 3, 4, 5]

    def test_take_and_first(self, rumble):
        result = rumble.query("1 to 100")
        assert [i.to_python() for i in result.take(3)] == [1, 2, 3]
        assert result.first().to_python() == 1

    def test_first_of_empty(self, rumble):
        assert rumble.query("()").first() is None

    def test_count(self, rumble):
        assert rumble.query("1 to 42").count() == 42
        assert rumble.query("parallelize(1 to 42)").count() == 42

    def test_serialize(self, rumble):
        assert rumble.query('{"a": 1}, 2').serialize() == \
            '{ "a" : 1 }\n2'

    def test_collect_cap_warns(self):
        engine = Rumble(config=RumbleConfig(materialization_cap=10))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            items = engine.query("1 to 100").collect()
        assert len(items) == 10
        assert any(
            issubclass(w.category, MaterializationCapExceeded)
            for w in caught
        )

    def test_collect_cap_strict_raises(self):
        engine = Rumble(config=RumbleConfig(
            materialization_cap=10, warn_on_cap=False
        ))
        with pytest.raises(DynamicException):
            engine.query("1 to 100").collect()

    def test_collect_explicit_cap(self, rumble):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            items = rumble.query("1 to 100").collect(cap=5)
        assert len(items) == 5

    def test_iteration_protocol(self, rumble):
        assert [i.to_python() for i in rumble.query("(1, 2)")] == [1, 2]


class TestShell:
    def _shell(self):
        output = io.StringIO()
        shell = RumbleShell(output=output)
        return shell, output

    def test_execute(self):
        shell, _ = self._shell()
        assert shell.execute("1 + 1") == ["2"]

    def test_run_script(self):
        shell, output = self._shell()
        shell.run([
            "for $x in 1 to 3",
            "return $x * $x;",
            ":quit",
        ])
        text = output.getvalue()
        assert "1\n4\n9" in text

    def test_error_reported_not_raised(self):
        shell, output = self._shell()
        shell.run(["1 div 0;", ":quit"])
        assert "FOAR0001" in output.getvalue()

    def test_cap_command(self):
        shell, output = self._shell()
        shell.run([":cap 3", "1 to 100;", ":quit"])
        lines = [
            line for line in output.getvalue().splitlines()
            if line.strip().isdigit()
        ]
        assert lines == ["1", "2", "3"]

    def test_help_and_unknown_command(self):
        shell, output = self._shell()
        shell.run([":help", ":banana", ":quit"])
        text = output.getvalue()
        assert "unknown command" in text

    def test_codegen_toggle_round_trip(self):
        output = io.StringIO()
        engine = make_engine(
            executors=2, parallelism=4, columnar=True, codegen=True
        )
        shell = RumbleShell(engine=engine, output=output)
        shell.handle_command(":codegen")
        assert "  codegen: off" in engine.explain("1").splitlines()
        shell.handle_command(":codegen")
        assert "  codegen: on" in engine.explain("1").splitlines()
        assert output.getvalue().splitlines() == [
            "codegen off", "codegen on",
        ]

    def test_codegen_toggle_cannot_outrun_columnar(self):
        output = io.StringIO()
        engine = make_engine(
            executors=2, parallelism=4, columnar=False, codegen=False
        )
        shell = RumbleShell(engine=engine, output=output)
        shell.handle_command(":codegen")
        assert "codegen on" not in output.getvalue()
        assert "requires pushdown and columnar" in output.getvalue()
        assert "  codegen: off" in engine.explain("1").splitlines()

    def test_results_capped_by_default(self):
        shell, output = self._shell()
        shell.run(["1 to 1000;", ":quit"])
        digits = [
            line for line in output.getvalue().splitlines()
            if line.strip().isdigit()
        ]
        assert len(digits) == 20


class TestDataFrameInterop:
    def test_to_dataframe(self, rumble):
        result = rumble.query(
            'for $x in 1 to 3 return {"x": $x, "sq": $x * $x}'
        )
        frame = result.to_dataframe()
        assert frame.count() == 3
        assert set(frame.columns) == {"x", "sq"}

    def test_sql_over_jsoniq_results(self, rumble):
        rumble.query(
            'for $x in parallelize(1 to 100) '
            'return {"x": $x, "bucket": $x mod 10}'
        ).create_or_replace_temp_view("numbers")
        rows = rumble.spark.sql(
            "SELECT bucket, count(*) AS n FROM numbers "
            "GROUP BY bucket ORDER BY bucket LIMIT 3"
        ).collect()
        assert [(r["bucket"], r["n"]) for r in rows] == [
            (0, 10), (1, 10), (2, 10),
        ]

    def test_heterogeneity_degrades_at_the_boundary(self, rumble):
        """The Figure 6 trade-off becomes explicit when leaving JSONiq."""
        from repro.spark.types import StringType

        frame = rumble.query(
            '({"v": 1}, {"v": "x"})'
        ).to_dataframe()
        assert frame.schema.field("v").data_type == StringType()

    def test_non_object_items_rejected(self, rumble):
        from repro.jsoniq.errors import TypeException

        with pytest.raises(TypeException):
            rumble.query("1 to 3").to_dataframe()


class TestMetricsAccuracy:
    """Exact metric counts for hand-computable queries.

    A 5-item collection parallelizes into 5 partitions (one per item at
    the default parallelism of 8), so per-partition cache behaviour is
    exact: first use materializes once and every partition read after
    that is a hit.
    """

    @pytest.fixture()
    def engine(self):
        engine = Rumble(config=RumbleConfig(materialization_cap=100_000))
        engine.register_collection("c", [{"a": i} for i in range(5)])
        return engine

    def test_first_run_materializes_once_then_hits_every_partition(
            self, engine):
        report = engine.profile('count(collection("c"))')
        assert [i.to_python() for i in report.items] == [5]
        assert report.counter("rumble.rdd.cache.materializations") == 1
        assert report.counter("rumble.rdd.cache.hits") == 5
        assert report.counter("rumble.rdd.action", action="count") == 1

    def test_second_run_serves_entirely_from_cache(self, engine):
        engine.profile('count(collection("c"))')
        report = engine.profile('count(collection("c"))')
        assert report.counter("rumble.rdd.cache.materializations") == 0
        assert report.counter("rumble.rdd.cache.hits") == 5

    def test_clause_row_counts_are_exact(self, engine):
        report = engine.profile(
            'for $x in collection("c") where $x.a ge 2 return $x.a'
        )
        assert [i.to_python() for i in report.items] == [2, 3, 4]
        assert report.counter(
            "rumble.clause.rows_out",
            clause="ForClauseIterator", source="CollectionIterator",
        ) == 5
        assert report.counter(
            "rumble.clause.rows_in", clause="WhereClauseIterator"
        ) == 5
        assert report.counter(
            "rumble.clause.rows_out", clause="WhereClauseIterator"
        ) == 3
        assert report.counter(
            "rumble.clause.rows_out", clause="ReturnClauseIterator"
        ) == 3

    def test_result_items_counted(self, engine):
        report = engine.profile('for $x in collection("c") return $x.a')
        assert report.counter("rumble.result.items") == 5

    def test_plain_query_touches_no_metrics(self, engine):
        from repro.obs import NOOP

        assert engine.query('count(collection("c"))').to_python() == [5]
        assert NOOP.metrics.snapshot()["counters"] == {}
