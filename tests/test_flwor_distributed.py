"""FLWOR on the DataFrame path: equivalence with local execution and the
physical behaviours of Section 4/5 (mode switching, usage analysis)."""

import pytest

from repro.jsoniq.errors import TypeException
from repro.jsoniq.runtime.flwor.clauses import GroupByClauseIterator


def chain_of(compiled):
    chain = [compiled.iterator]
    clause = compiled.iterator.input_clause
    while clause is not None:
        chain.append(clause)
        clause = clause.input_clause
    return chain


class TestModeDetection:
    def test_parallelize_source_is_rdd(self, rumble):
        result = rumble.query(
            "for $x in parallelize(1 to 100) return $x"
        )
        assert result.is_rdd()

    def test_local_source_stays_local(self, rumble):
        result = rumble.query("for $x in 1 to 100 return $x")
        assert not result.is_rdd()

    def test_leading_let_is_local(self, rumble):
        result = rumble.query(
            "let $xs := parallelize(1 to 10) return count($xs)"
        )
        assert not result.is_rdd()

    def test_position_variable_falls_back_to_local(self, rumble):
        result = rumble.query(
            "for $x at $i in parallelize(1 to 10) return $i"
        )
        assert not result.is_rdd()
        assert result.to_python() == list(range(1, 11))

    def test_json_file_query_is_rdd(self, rumble, jsonl_file):
        path = jsonl_file([{"v": i} for i in range(10)])
        result = rumble.query(
            'for $o in json-file("{}") where $o.v ge 5 return $o.v'
            .format(path)
        )
        assert result.is_rdd()


class TestLocalDistributedEquivalence:
    """The same query must agree between the pull and DataFrame paths."""

    QUERIES = [
        "for $x in {src} return $x * 2",
        "for $x in {src} where $x mod 3 eq 1 return $x",
        "for $x in {src} let $y := $x * $x where $y gt 50 return $y",
        "for $x in {src} group by $k := $x mod 4 "
        "order by $k return [$k, count($x), sum($x)]",
        "for $x in {src} order by $x descending return $x",
        "for $x in {src} count $c where $c le 7 return [$c, $x]",
        "for $x in {src} where $x gt 3 group by $k := $x mod 2 "
        "order by $k descending count $r return [$r, $k, count($x)]",
    ]

    @pytest.mark.parametrize("template", QUERIES)
    def test_equivalence(self, rumble, template):
        local = rumble.query(template.format(src="1 to 50")).to_python()
        distributed = rumble.query(
            template.format(src="parallelize(1 to 50, 7)")
        ).to_python()
        assert local == distributed

    def test_grouping_heterogeneous_equivalence(self, rumble):
        data = (
            '({"k": "a"}, {"k": 1}, {"k": null}, {"k": [9]}, {}, '
            '{"k": "a"}, {"k": 1.0})'
        )
        template = (
            "for $o in {src} group by $key := ($o.k[], $o.k)[1] "
            "return count($o)"
        )
        local = sorted(rumble.query(
            template.format(src=data)
        ).to_python())
        distributed = sorted(rumble.query(
            template.format(src="parallelize({})".format(data))
        ).to_python())
        assert local == distributed == [1, 1, 1, 2, 2]


class TestNullOrderingKeyAcrossPartitions:
    """The multi-partition twin of test_flwor_local's
    ``test_null_sorts_before_values``: a null key is compatible with
    every family wherever the partition boundary falls."""

    @pytest.mark.parametrize("tail", [
        "return string($o.v)",
        "count $c where $c le 2 return string($o.v)",
    ])
    def test_null_sorts_before_values(self, rumble, tail):
        out = rumble.query(
            'for $o in parallelize(({"v": 1}, {"v": null}), 2) '
            "order by $o.v " + tail
        ).to_python()
        assert out == ["null", "1"]


class TestDistributedErrors:
    def test_order_by_type_error_surfaces(self, rumble):
        with pytest.raises(TypeException):
            rumble.query(
                'for $o in parallelize(({"v": 1}, {"v": "x"})) '
                "order by $o.v return $o"
            ).to_python()

    def test_group_by_multi_item_key_errors(self, rumble):
        with pytest.raises(TypeException):
            rumble.query(
                "for $x in parallelize(1 to 10) "
                "group by $k := (1, 2) return $k"
            ).to_python()


class TestUsageAnalysis:
    def test_count_only(self, rumble):
        compiled = rumble.compile(
            "for $x in parallelize(1 to 10) group by $k := $x mod 2 "
            "return count($x)"
        )
        group = next(c for c in chain_of(compiled)
                     if isinstance(c, GroupByClauseIterator))
        assert group.variable_usage == {"x": "count"}

    def test_materialize_when_values_used(self, rumble):
        compiled = rumble.compile(
            "for $x in parallelize(1 to 10) group by $k := $x mod 2 "
            "return sum($x)"
        )
        group = next(c for c in chain_of(compiled)
                     if isinstance(c, GroupByClauseIterator))
        assert group.variable_usage == {"x": "materialize"}

    def test_mixed_usage_is_materialize(self, rumble):
        compiled = rumble.compile(
            "for $x in parallelize(1 to 10) group by $k := $x mod 2 "
            "return count($x) + sum($x)"
        )
        group = next(c for c in chain_of(compiled)
                     if isinstance(c, GroupByClauseIterator))
        assert group.variable_usage == {"x": "materialize"}

    def test_unused_dropped(self, rumble):
        compiled = rumble.compile(
            "for $x in parallelize(1 to 10) group by $k := $x mod 2 "
            "return $k"
        )
        group = next(c for c in chain_of(compiled)
                     if isinstance(c, GroupByClauseIterator))
        assert group.variable_usage == {"x": "unused"}

    def test_count_only_result_correct(self, rumble):
        out = rumble.query(
            "for $x in parallelize(1 to 100) group by $k := $x mod 5 "
            "order by $k return count($x)"
        ).to_python()
        assert out == [20] * 5

    def test_redeclaration_ends_usage(self, rumble):
        compiled = rumble.compile(
            "for $x in parallelize(1 to 10) group by $k := $x mod 2 "
            "for $x in (1, 2) return $x"
        )
        group = next(c for c in chain_of(compiled)
                     if isinstance(c, GroupByClauseIterator))
        assert group.variable_usage == {"x": "unused"}


class TestWriteBack:
    def test_rdd_results_written_in_parallel(self, rumble, jsonl_file,
                                             tmp_path):
        path = jsonl_file([{"v": i} for i in range(100)])
        result = rumble.query(
            'for $o in json-file("{}", 4) where $o.v ge 90 return $o'
            .format(path)
        )
        out_dir = str(tmp_path / "out")
        files = result.write_json_lines(out_dir)
        assert len(files) >= 1
        round_trip = rumble.query(
            'count(json-file("{}"))'.format(out_dir)
        ).to_python()
        assert round_trip == [10]
