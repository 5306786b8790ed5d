"""Input functions: json-file, parallelize, collection, json-doc."""

import json
import os

import pytest

from repro.jsoniq.errors import DynamicException, TypeException


class TestJsonFile:
    def test_reads_objects(self, run, jsonl_file):
        path = jsonl_file([{"a": 1}, {"a": 2}])
        assert run('json-file("{}")'.format(path)) == [
            {"a": 1}, {"a": 2},
        ]

    def test_result_is_rdd(self, rumble, jsonl_file):
        path = jsonl_file([{"a": 1}])
        assert rumble.query('json-file("{}")'.format(path)).is_rdd()

    def test_partition_argument(self, rumble, jsonl_file):
        path = jsonl_file([{"a": i} for i in range(200)])
        result = rumble.query('json-file("{}", 8)'.format(path))
        assert result.rdd().num_partitions >= 8
        assert result.count() == 200

    def test_json_lines_alias(self, run, jsonl_file):
        path = jsonl_file([{"a": 1}])
        assert run('json-lines("{}")'.format(path)) == [{"a": 1}]

    def test_missing_file_errors(self, run):
        with pytest.raises(IOError):
            run('json-file("/does/not/exist.json")')

    def test_heterogeneous_lines(self, run, jsonl_file):
        path = jsonl_file([{"a": 1}, {"a": [2]}, {"b": "x"}])
        assert run('json-file("{}").a'.format(path)) == [1, [2]]

    def test_uri_scheme_mount(self, rumble, jsonl_file, tmp_path):
        path = jsonl_file([{"a": 7}])
        rumble.mount("hdfs", os.path.dirname(path))
        query = 'json-file("hdfs:///{}")'.format(os.path.basename(path))
        assert rumble.query(query).to_python() == [{"a": 7}]

    def test_reads_directory_of_parts(self, rumble, tmp_path):
        directory = tmp_path / "collection"
        directory.mkdir()
        for part in range(3):
            with open(directory / "part-{:05d}".format(part), "w") as handle:
                handle.write(json.dumps({"part": part}) + "\n")
        open(directory / "_SUCCESS", "w").close()
        result = rumble.query('json-file("{}")'.format(directory))
        assert result.count() == 3


class TestParallelize:
    def test_round_trip(self, run):
        assert run("parallelize((1, 2, 3))") == [1, 2, 3]

    def test_is_rdd(self, rumble):
        assert rumble.query("parallelize(1 to 10)").is_rdd()

    def test_partition_count(self, rumble):
        result = rumble.query("parallelize(1 to 100, 7)")
        assert result.rdd().num_partitions == 7

    def test_triggers_spark_flwor(self, rumble):
        result = rumble.query(
            "for $x in parallelize(1 to 100) where $x gt 95 return $x"
        )
        assert result.is_rdd()
        assert result.to_python() == [96, 97, 98, 99, 100]

    def test_bad_partition_argument(self, run):
        with pytest.raises(TypeException):
            run('parallelize((1), "x")')


class TestCollection:
    def test_in_memory_collection(self, rumble):
        rumble.register_collection("people", [
            {"name": "ada"}, {"name": "grace"},
        ])
        assert rumble.query(
            'collection("people").name'
        ).to_python() == ["ada", "grace"]

    def test_uri_collection(self, rumble, jsonl_file):
        path = jsonl_file([{"v": 1}, {"v": 2}])
        rumble.register_collection("numbers", path)
        assert rumble.query(
            'sum(collection("numbers").v)'
        ).to_python() == [3]

    def test_unknown_collection(self, rumble):
        with pytest.raises(DynamicException) as info:
            rumble.query('collection("nope")').to_python()
        assert info.value.code == "FODC0002"

    def test_paper_figure8_style_join(self, rumble):
        """The Figure 8 pattern: quantifiers joining two collections."""
        rumble.register_collection("orders", [
            {"oid": 1, "items": [{"pid": "a"}, {"pid": "b"}]},
            {"oid": 2, "items": [{"pid": "z"}]},
        ])
        rumble.register_collection("products", [
            {"pid": "a"}, {"pid": "b"}, {"pid": "c"},
        ])
        result = rumble.query(
            """
            for $order in collection("orders")
            where every $item in $order.items[]
                  satisfies some $product in collection("products")
                  satisfies $product.pid eq $item.pid
            return $order.oid
            """
        ).to_python()
        assert result == [1]


class TestDocuments:
    def test_json_doc(self, run, tmp_path):
        path = str(tmp_path / "doc.json")
        with open(path, "w") as handle:
            json.dump({"nested": {"deep": [1, 2]}}, handle)
        assert run('json-doc("{}").nested.deep[]'.format(path)) == [1, 2]

    def test_parse_json(self, run):
        assert run('parse-json("[1, 2]")[]') == [1, 2]
        assert run('parse-json("{\\"a\\": 3}").a') == [3]


class TestCsvFile:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text(
            "name,age,member\n"
            "ada,36,true\n"
            "grace,45,false\n"
            "no-age,,true\n"
            '"quoted, name",7,false\n'
        )
        return str(path)

    def test_header_driven_objects(self, run, csv_path):
        out = run('csv-file("{}")'.format(csv_path))
        assert out[0] == {"name": "ada", "age": 36, "member": True}
        assert out[2]["age"] is None

    def test_quoted_fields(self, run, csv_path):
        out = run('csv-file("{}")[last()].name'.format(csv_path))
        assert out == ["quoted, name"]

    def test_numeric_coercion(self, run, csv_path):
        out = run(
            'avg(csv-file("{}").age[$$ instance of number])'
            .format(csv_path)
        )
        assert float(out[0]) == pytest.approx(88 / 3)

    def test_is_rdd(self, rumble, csv_path):
        assert rumble.query('csv-file("{}")'.format(csv_path)).is_rdd()

    def test_flwor_over_csv(self, run, csv_path):
        out = run(
            'for $p in csv-file("{}") where $p.member eq true '
            "return $p.name".format(csv_path)
        )
        assert out == ["ada", "no-age"]


class TestPartitionCountArgument:
    """The optional partition count of the five RDD-producing functions:
    one wording for every rejection, named after the function."""

    @pytest.mark.parametrize("function,first", [
        ("json-file", '"{jsonl}"'),
        ("structured-json-file", '"{jsonl}"'),
        ("parallelize", "(1, 2)"),
        ("text-file", '"{jsonl}"'),
        ("csv-file", '"{csv}"'),
    ])
    def test_rejections_name_the_function(
        self, function, first, run, jsonl_file, tmp_path
    ):
        csv = tmp_path / "t.csv"
        csv.write_text("a,b\n1,2\n")
        first = first.format(jsonl=jsonl_file([{"a": 1}]), csv=csv)

        def message(second):
            # Looked up at run time, so static typing cannot answer first.
            with pytest.raises(TypeException) as info:
                run('{}({}, {{"n": {}}}.n)'.format(function, first, second))
            return str(info.value)

        assert message('"x"') == (
            "[XPTY0004] {}() partition count must be a number"
            .format(function)
        )
        assert message("{}") == (
            "[XPTY0004] {} partitions must be atomic, got object"
            .format(function)
        )
        assert run(
            'count({}({}, {{"n": 2}}.n))'.format(function, first)
        ) == [2 if function == "parallelize" else 1]
