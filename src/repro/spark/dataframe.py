"""DataFrames: structured, schema-carrying, partitioned tables.

A DataFrame wraps an RDD of row dicts plus a :class:`StructType` schema.
Rumble maps FLWOR tuple streams onto these (paper, Section 4.3): each
FLWOR variable is a column whose values are materialized sequences of
items, and the clause semantics become the relational operators below.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.spark.column import (
    Column,
    ExplodeColumn,
    SortOrder,
    col,
)
from repro.spark.rdd import RDD
from repro.spark.types import (
    Row,
    StructField,
    StructType,
    coerce_record,
    infer_schema,
    infer_type,
)

ColumnLike = Union[str, Column]


def _as_column(value: ColumnLike) -> Column:
    return col(value) if isinstance(value, str) else value


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


class AggCall:
    """One aggregate in a ``groupBy(...).agg(...)`` call."""

    def __init__(
        self,
        name: str,
        column: Optional[Column],
        reducer: Callable[[List[Any]], Any],
        alias: Optional[str] = None,
    ):
        self.name = name
        self.column = column
        self.reducer = reducer
        self._alias = alias

    def alias(self, name: str) -> "AggCall":
        return AggCall(self.name, self.column, self.reducer, alias=name)

    @property
    def output_name(self) -> str:
        if self._alias:
            return self._alias
        inner = self.column.output_name() if self.column else "*"
        return "{}({})".format(self.name, inner)

    def compute(self, rows: List[Dict[str, Any]]) -> Any:
        if self.column is None:
            return self.reducer([None] * len(rows))
        return self.reducer([self.column.eval(row) for row in rows])


def _skip_nulls(values: List[Any]) -> List[Any]:
    return [v for v in values if v is not None]


def agg_count(column: Optional[ColumnLike] = None) -> AggCall:
    if column is None or column == "*":
        return AggCall("count", None, len)
    target = _as_column(column)
    return AggCall("count", target, lambda vs: len(_skip_nulls(vs)))


def agg_sum(column: ColumnLike) -> AggCall:
    return AggCall(
        "sum", _as_column(column),
        lambda vs: sum(_skip_nulls(vs)) if _skip_nulls(vs) else None,
    )


def agg_avg(column: ColumnLike) -> AggCall:
    def average(values: List[Any]) -> Any:
        values = _skip_nulls(values)
        return sum(values) / len(values) if values else None

    return AggCall("avg", _as_column(column), average)


def agg_min(column: ColumnLike) -> AggCall:
    return AggCall(
        "min", _as_column(column),
        lambda vs: min(_skip_nulls(vs)) if _skip_nulls(vs) else None,
    )


def agg_max(column: ColumnLike) -> AggCall:
    return AggCall(
        "max", _as_column(column),
        lambda vs: max(_skip_nulls(vs)) if _skip_nulls(vs) else None,
    )


def agg_collect_list(column: ColumnLike) -> AggCall:
    """The paper's SEQUENCE() UDF: materialize the group's values."""
    return AggCall("collect_list", _as_column(column), _skip_nulls)


def agg_first(column: ColumnLike) -> AggCall:
    """First value of the group — what ARRAY_DISTINCT over a constant
    grouping key reduces to (paper, Section 4.7)."""
    return AggCall(
        "first", _as_column(column),
        lambda vs: vs[0] if vs else None,
    )


class GroupedData:
    """The result of ``DataFrame.groupBy``: waiting for aggregates."""

    def __init__(self, frame: "DataFrame", keys: List[Column]):
        self._frame = frame
        self._keys = keys

    def agg(self, *aggregates: AggCall) -> "DataFrame":
        keys = self._keys
        key_names = [key.output_name() for key in keys]

        def to_pair(row: Dict[str, Any]):
            key = tuple(_hashable(key_col.eval(row)) for key_col in keys)
            return (key, row)

        grouped = self._frame.rdd.map(to_pair).group_by_key()

        def build_row(pair) -> Dict[str, Any]:
            _, rows = pair
            out = {
                name: key_col.eval(rows[0])
                for name, key_col in zip(key_names, keys)
            }
            for aggregate in aggregates:
                out[aggregate.output_name] = aggregate.compute(rows)
            return out

        result = grouped.map(build_row)
        fields = [StructField(name, infer_type(None)) for name in key_names]
        fields += [
            StructField(a.output_name, infer_type(None)) for a in aggregates
        ]
        return DataFrame(self._frame.session, result, StructType(fields))

    def count(self) -> "DataFrame":
        return self.agg(agg_count().alias("count"))


def _normalize_sort_value(value: Any) -> Any:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, default=str)
    return value


def _null_safe_key(value: Any, ascending: bool):
    """Sortable key with Spark null ordering: NULLs first when ascending,
    last when descending — the null tag sits outside any descending
    inversion of the value itself."""
    if value is None:
        return (0 if ascending else 2, 0)
    value = _normalize_sort_value(value)
    return (1, value if ascending else _Reversed(value))


class DataFrame:
    """A schema-carrying view over an RDD of row dicts."""

    def __init__(self, session, rdd: RDD, schema: StructType):
        self.session = session
        self.rdd = rdd
        self.schema = schema

    @property
    def columns(self) -> List[str]:
        return self.schema.field_names

    def _record_op(self, op: str) -> None:
        """Count one relational-operator application while profiling."""
        obs = self.session.spark_context.obs
        if obs is not None and obs.enabled:
            obs.metrics.counter("rumble.dataframe.ops", op=op).inc()

    # -- Relational operators --------------------------------------------------
    def select(self, *columns: ColumnLike) -> "DataFrame":
        """Projection; at most one EXPLODE column fans rows out."""
        self._record_op("select")
        exprs = [_as_column(c) for c in columns]
        names = [expr.output_name() for expr in exprs]
        explode_at = [
            index for index, expr in enumerate(exprs)
            if isinstance(expr, ExplodeColumn)
            or (hasattr(expr, "child") and isinstance(
                getattr(expr, "child", None), ExplodeColumn))
        ]
        if len(explode_at) > 1:
            raise ValueError("only one explode() per select is supported")

        if not explode_at:
            def project(row: Dict[str, Any]) -> Dict[str, Any]:
                return {
                    name: expr.eval(row)
                    for name, expr in zip(names, exprs)
                }

            rdd = self.rdd.map(project)
        else:
            fanout = explode_at[0]

            def project_explode(row: Dict[str, Any]) -> List[Dict[str, Any]]:
                base = {
                    name: expr.eval(row)
                    for index, (name, expr) in enumerate(zip(names, exprs))
                    if index != fanout
                }
                out = []
                for element in exprs[fanout].eval(row):
                    expanded = dict(base)
                    expanded[names[fanout]] = element
                    out.append(expanded)
                return out

            rdd = self.rdd.flat_map(project_explode)
        fields = [StructField(name, infer_type(None)) for name in names]
        return DataFrame(self.session, rdd, StructType(fields))

    def where(self, condition: ColumnLike) -> "DataFrame":
        self._record_op("where")
        predicate = _as_column(condition)
        rdd = self.rdd.filter(lambda row: predicate.eval(row) is True)
        return DataFrame(self.session, rdd, self.schema)

    filter = where

    def with_column(self, name: str, column: Column) -> "DataFrame":
        self._record_op("withColumn")

        def extend(row: Dict[str, Any]) -> Dict[str, Any]:
            out = dict(row)
            out[name] = column.eval(row)
            return out

        fields = [f for f in self.schema.fields if f.name != name]
        fields.append(StructField(name, infer_type(None)))
        return DataFrame(self.session, self.rdd.map(extend), StructType(fields))

    withColumn = with_column

    def drop(self, *names: str) -> "DataFrame":
        doomed = set(names)

        def strip(row: Dict[str, Any]) -> Dict[str, Any]:
            return {k: v for k, v in row.items() if k not in doomed}

        fields = [f for f in self.schema.fields if f.name not in doomed]
        return DataFrame(self.session, self.rdd.map(strip), StructType(fields))

    def with_column_renamed(self, old: str, new: str) -> "DataFrame":
        def rename(row: Dict[str, Any]) -> Dict[str, Any]:
            out = dict(row)
            if old in out:
                out[new] = out.pop(old)
            return out

        fields = [
            StructField(new if f.name == old else f.name, f.data_type)
            for f in self.schema.fields
        ]
        return DataFrame(self.session, self.rdd.map(rename), StructType(fields))

    withColumnRenamed = with_column_renamed

    def group_by(self, *keys: ColumnLike) -> GroupedData:
        self._record_op("groupBy")
        return GroupedData(self, [_as_column(key) for key in keys])

    groupBy = group_by

    def order_by(
        self,
        *orders: Union[ColumnLike, SortOrder],
        ascending: Union[bool, Sequence[bool], None] = None,
    ) -> "DataFrame":
        """Total order over the whole frame.

        Sorting pulls rows through a range-partitioned shuffle via
        ``RDD.sortBy``, so the physical behaviour matches Spark's.
        """
        self._record_op("orderBy")
        specs: List[SortOrder] = []
        for order in orders:
            if isinstance(order, SortOrder):
                specs.append(order)
            else:
                specs.append(SortOrder(_as_column(order), True))
        if ascending is not None:
            flags = (
                [ascending] * len(specs)
                if isinstance(ascending, bool)
                else list(ascending)
            )
            specs = [
                SortOrder(spec.column, flag)
                for spec, flag in zip(specs, flags)
            ]

        def key_func(row: Dict[str, Any]):
            return tuple(
                _null_safe_key(spec.column.eval(row), spec.ascending)
                for spec in specs
            )

        return DataFrame(
            self.session, self.rdd.sort_by(key_func), self.schema
        )

    orderBy = order_by
    sort = order_by

    def limit(self, count: int) -> "DataFrame":
        self._record_op("limit")
        rows = self.rdd.take(count)
        return DataFrame(
            self.session,
            self.session.spark_context.parallelize(rows, 1),
            self.schema,
        )

    def union(self, other: "DataFrame") -> "DataFrame":
        merged = StructType(self.schema.fields)
        return DataFrame(self.session, self.rdd.union(other.rdd), merged)

    def distinct(self) -> "DataFrame":
        seen_key = lambda row: tuple(sorted(
            (k, _hashable(v)) for k, v in row.items()
        ))
        paired = self.rdd.map(lambda row: (seen_key(row), row))
        rdd = paired.reduce_by_key(lambda first, _: first).values()
        return DataFrame(self.session, rdd, self.schema)

    def join(
        self, other: "DataFrame", on: Union[str, List[str]], how: str = "inner"
    ) -> "DataFrame":
        """Equi-join on shared key column(s); ``how`` is ``inner`` or
        ``left`` (unmatched left rows keep NULLs for right columns)."""
        if how not in ("inner", "left"):
            raise ValueError("unsupported join type: " + how)
        self._record_op("join")
        keys = [on] if isinstance(on, str) else list(on)

        def key_of(row: Dict[str, Any]):
            return tuple(_hashable(row.get(k)) for k in keys)

        def merge(pair):
            _, (lrow, rrow) = pair
            out = dict(rrow)
            out.update(lrow)
            return out

        left = self.rdd.map(lambda row: (key_of(row), row))
        if how == "inner":
            right = other.rdd.map(lambda row: (key_of(row), row))
            joined = left.join(right).map(merge)
        else:
            right_columns = [c for c in other.columns if c not in keys]
            null_right = {name: None for name in right_columns}

            def emit_left(pair):
                key, tagged = pair
                lefts = [value for tag, value in tagged if tag == "L"]
                rights = [value for tag, value in tagged if tag == "R"]
                if not rights:
                    rights = [null_right]
                return [
                    merge((key, (lrow, rrow)))
                    for lrow in lefts for rrow in rights
                ]

            tagged = left.map(
                lambda pair: (pair[0], ("L", pair[1]))
            ).union(other.rdd.map(
                lambda row: (key_of(row), ("R", row))
            ))
            joined = tagged.group_by_key().flat_map(emit_left)
        names = list(dict.fromkeys(self.columns + other.columns))
        fields = [StructField(name, infer_type(None)) for name in names]
        return DataFrame(self.session, joined, StructType(fields))

    def with_row_index(self, name: str = "row_index") -> "DataFrame":
        """Add a 0-based global row index column.

        This is the DataFrame-flavoured ``zipWithIndex`` the paper adopts
        for the FLWOR count clause (Section 4.9).
        """
        def attach(pair) -> Dict[str, Any]:
            row, index = pair
            out = dict(row)
            out[name] = index
            return out

        rdd = self.rdd.zip_with_index().map(attach)
        fields = list(self.schema.fields) + [StructField(name, infer_type(0))]
        return DataFrame(self.session, rdd, StructType(fields))

    # -- Actions -----------------------------------------------------------------
    def collect(self) -> List[Row]:
        return [Row.from_dict(row) for row in self.rdd.collect()]

    def take(self, count: int) -> List[Row]:
        return [Row.from_dict(row) for row in self.rdd.take(count)]

    def count(self) -> int:
        return self.rdd.count()

    def first(self) -> Row:
        return Row.from_dict(self.rdd.first())

    def show(self, count: int = 20) -> str:
        """Render the first rows as an aligned text table (and return it)."""
        rows = self.rdd.take(count)
        headers = self.columns or sorted(
            {key for row in rows for key in row}
        )
        cells = [
            [_render_cell(row.get(name)) for name in headers] for row in rows
        ]
        widths = [
            max([len(name)] + [len(line[i]) for line in cells])
            for i, name in enumerate(headers)
        ]
        divider = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [divider]
        lines.append(
            "|" + "|".join(
                " {} ".format(name.ljust(width))
                for name, width in zip(headers, widths)
            ) + "|"
        )
        lines.append(divider)
        for line in cells:
            lines.append(
                "|" + "|".join(
                    " {} ".format(cell.ljust(width))
                    for cell, width in zip(line, widths)
                ) + "|"
            )
        lines.append(divider)
        table = "\n".join(lines)
        print(table)
        return table

    def create_or_replace_temp_view(self, name: str) -> None:
        self.session.catalog.register(name, self)

    createOrReplaceTempView = create_or_replace_temp_view

    def sql(self, query: str) -> "DataFrame":
        """Run a SQL query; ``self`` is usable as the implicit view."""
        return self.session.sql(query)


class _Reversed:
    """Wrap a key so that its ordering is inverted inside a sort tuple.

    All six comparisons are defined: tuple comparison applies the outer
    operator (e.g. ``<=``) directly to the first differing element.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __le__(self, other: "_Reversed") -> bool:
        return other.key <= self.key

    def __gt__(self, other: "_Reversed") -> bool:
        return other.key > self.key

    def __ge__(self, other: "_Reversed") -> bool:
        return other.key >= self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)


def _render_cell(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"), default=str)
    return str(value)


class DataFrameReader:
    """``spark.read.json(...)`` — schema inference included.

    Inference requires a full extra pass over the data, which is exactly
    why the paper's Figure 11 shows Rumble beating Spark SQL on the filter
    query: Rumble skips this pass.
    """

    def __init__(self, session):
        self.session = session

    def json(self, uri: str, min_partitions: Optional[int] = None,
             mode: str = "failfast",
             corrupt_field: str = "_corrupt_record",
             faults=None) -> DataFrame:
        """Read JSON Lines with schema inference.

        ``mode`` is the Spark-style parse mode (``failfast``,
        ``permissive``, ``dropmalformed``); in ``permissive`` mode a
        corrupt line becomes a record carrying the raw text under
        ``corrupt_field``, which schema inference then surfaces as a
        string column.  ``faults`` is an optional
        :class:`repro.spark.faults.FaultManager` that counts every
        tolerated malformed line.
        """
        from repro.jsoniq.jsonlines import PARSE_MODES, JsonSyntaxError

        if mode not in PARSE_MODES:
            raise ValueError("unknown parse mode: " + mode)
        lines = self.session.spark_context.text_file(
            uri, min_partitions,
            decode_errors="strict" if mode == "failfast" else "replace",
        )

        def decode(text: str):
            try:
                return json.loads(text)
            except ValueError as error:
                if mode == "failfast":
                    raise JsonSyntaxError(str(error)) from error
                if faults is not None:
                    faults.record(
                        "malformed_dropped" if mode == "dropmalformed"
                        else "malformed_captured",
                        "MalformedRecord",
                        mode=mode, reason=str(error)[:120],
                    )
                if mode == "permissive":
                    return {corrupt_field: text}
                return None

        def decode_lines(part):
            for line in part:
                record = decode(line)
                if record is not None:
                    yield record

        raw = lines.map_partitions(decode_lines).cache()
        schema = infer_schema(raw.to_local_iterator())
        records = raw.map(lambda record: coerce_record(record, schema))
        return DataFrame(self.session, records, schema)


def dataframe_from_rows(
    session, rows: Iterable[Dict[str, Any]], schema: Optional[StructType] = None
) -> DataFrame:
    """Build a DataFrame from local dict records (with inference if needed)."""
    records = [
        row.as_dict() if isinstance(row, Row) else dict(row) for row in rows
    ]
    if schema is None:
        schema = infer_schema(records)
        records = [coerce_record(record, schema) for record in records]
    rdd = session.spark_context.parallelize(records)
    return DataFrame(session, rdd, schema)
