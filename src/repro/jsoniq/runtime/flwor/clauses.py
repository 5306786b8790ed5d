"""FLWOR clause iterators.

Each clause consumes a tuple stream from its input clause and produces a
new tuple stream, through two interchangeable APIs (paper, Section 5.8):

* a **local** pull API — ``tuple_stream(context)``;
* a **DataFrame** API — ``get_dataframe(context)`` — available when the
  whole upstream chain is DataFrame-capable, in which case each clause
  applies the relational mapping of the paper's Sections 4.4–4.10.

``sql_template()`` returns the Spark SQL shape from the paper, used by
the Figure 9 tests and benchmarks to assert the mapping.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.items import (
    Item,
    check_sortable,
    grouping_key,
    ordering_tuple,
)
from repro.items.compare import KeyFamilies, single_atomic_key
from repro.jsoniq.runtime.base import RuntimeIterator, _cancel_of, _obs_of
from repro.jsoniq.runtime.dynamic_context import DynamicContext
from repro.jsoniq.runtime.flwor.tuples import CountedSequence, FlworTuple
from repro.spark.column import col, explode, row_udf
from repro.spark.dataframe import AggCall, DataFrame
from repro.spark.types import StructField, StructType, infer_type


class ClauseIterator:
    """Base of all clause iterators (returns tuple streams)."""

    #: True when this clause can emit *more* tuples than it consumes
    #: (``for``, ``window``).  Cancellation guards sit on the consumer
    #: side of expanding producers only: a 1:1 clause (let/where/
    #: order/count) re-yields tuples that already crossed a guarded
    #: boundary upstream, so guarding it again would just re-check the
    #: same tuples while taxing every clause hop with a generator.
    expands = False

    def __init__(self, input_clause: Optional["ClauseIterator"]):
        self.input_clause = input_clause

    # -- Local API -------------------------------------------------------------
    def tuple_stream(self, context: DynamicContext) -> Iterator[FlworTuple]:
        raise NotImplementedError

    # -- DataFrame API ------------------------------------------------------------
    def supports_dataframe(self, context: DynamicContext) -> bool:
        """True when this clause can emit its tuple stream as a DataFrame."""
        if self.input_clause is None:
            return False
        return self.input_clause.supports_dataframe(context)

    def get_dataframe(self, context: DynamicContext) -> DataFrame:
        raise NotImplementedError

    def sql_template(self) -> str:
        """The paper's Spark SQL shape for this clause."""
        raise NotImplementedError

    def spark_mapping(self) -> str:
        """The RDD-level mapping of the paper's Figure 9."""
        raise NotImplementedError

    # -- Helpers ---------------------------------------------------------------------
    def _input_tuples(self, context: DynamicContext) -> Iterator[FlworTuple]:
        if self.input_clause is None:
            yield FlworTuple()
            return
        stream = self.input_clause.tuple_stream(context)
        obs = _obs_of(context)
        cancel = _cancel_of(context)
        if cancel is not None and self.input_clause.expands:
            # The FLWOR clause-boundary check, placed where tuple
            # counts can grow: any unbounded stream was emitted by an
            # expanding clause, so guarding expanders' consumers (plus
            # the return clause) stops a cancelled request within one
            # stride of tuples without taxing 1:1 clause hops.
            stream = cancel.guard(stream)
        if obs is None:
            yield from stream
            return
        # Profiled run: count the tuples flowing into this clause.
        counter = obs.metrics.counter(
            "rumble.clause.tuples_in", clause=type(self).__name__
        )
        for tuple_ in stream:
            counter.inc()
            yield tuple_

    @staticmethod
    def _frame(session, rdd, variables: List[str]) -> DataFrame:
        schema = StructType(
            [StructField(name, infer_type(None)) for name in variables]
        )
        return DataFrame(session, rdd, schema)


def _evaluate_in_tuple(
    expression: RuntimeIterator,
    tuple_: FlworTuple,
    context: DynamicContext,
) -> List[Item]:
    return expression.materialize_local(tuple_.to_context(context))


def _row_context(
    context: DynamicContext, row: Dict[str, object]
) -> DynamicContext:
    """Rebuild a dynamic context straight from a DataFrame row (the hot
    path of every EVALUATE_EXPRESSION call), skipping the FlworTuple
    intermediate: helper (``#``-prefixed) columns are not variables."""
    inner = context.child()
    for name, value in row.items():
        if name[0] != "#":
            if isinstance(value, CountedSequence):
                inner.bind_counted(name, value)
            else:
                inner.bind_shared(name, value)
    return inner


def _constant_lookup(expression: RuntimeIterator):
    """``(variable, key)`` when ``expression`` is ``$variable.key`` with
    a constant key — the operand shape the fast forms recognize at
    compile time — else None."""
    from repro.jsoniq.runtime.navigation import ObjectLookupIterator
    from repro.jsoniq.runtime.primary import VariableIterator

    if (
        isinstance(expression, ObjectLookupIterator)
        and expression._constant_key is not None
        and isinstance(expression.source, VariableIterator)
    ):
        return expression.source.name, expression._constant_key
    return None


def _make_fast_extractor(expression: RuntimeIterator):
    """A compiled fast path for ``$var.key`` expressions.

    Grouping and ordering keys are overwhelmingly single constant-key
    lookups on a clause variable; recognizing the shape at compile time
    lets the hot loops skip the dynamic-context / iterator machinery.
    Returns ``None`` when the expression is not of that shape.
    """
    lookup = _constant_lookup(expression)
    if lookup is None:
        return None
    variable, key = lookup

    def extract(row: Dict[str, object]) -> List[Item]:
        items = row.get(variable)
        if not items:
            return []
        out: List[Item] = []
        for item in items:
            if item.is_object:
                value = item.get_item(key)
                if value is not None:
                    out.append(value)
        return out

    return extract


def _make_fast_predicate(condition: RuntimeIterator,
                         context: DynamicContext):
    """The row predicate of a where condition: EVALUATE_EXPRESSION's
    effective boolean value, answered without the iterator machinery
    whenever ``items.compare.raw_verdict`` can.

    ``$var.key <cmp> ($var.key | literal)`` is the predicate shape of
    every selection in the paper's workloads.  Its operands are read raw
    (off the scanned record's decoded dict, or the literal's Python
    value) and compared by the one three-valued table; an unknown
    verdict — nulls, mixed families, non-atomics, a variable bound to
    anything but exactly one scanned object — asks the reference
    evaluator, which therefore words every error.
    """
    from repro.items.compare import (
        ABSENT,
        GENERAL_TO_VALUE,
        VALUE_OPS,
        raw_verdict,
    )
    from repro.jsoniq.jsonlines import LazyObjectItem
    from repro.jsoniq.runtime.comparison import ComparisonIterator
    from repro.jsoniq.runtime.primary import LiteralIterator

    def reference(row: Dict[str, object]) -> bool:
        return condition.effective_boolean_value(_row_context(context, row))

    def raw_reader(expression):
        if isinstance(expression, LiteralIterator):
            literal = getattr(expression.item, "value", None)
            return lambda row: literal
        lookup = _constant_lookup(expression)
        if lookup is None:
            return None
        variable, key = lookup

        def read(row: Dict[str, object]):
            items = row.get(variable)
            if (
                type(items) is list and len(items) == 1
                and type(items[0]) is LazyObjectItem
            ):
                return items[0]._raw.get(key, ABSENT)
            return ()  # not a raw JSON scalar: unknown

        return read

    if not isinstance(condition, ComparisonIterator):
        return reference
    left = raw_reader(condition.left)
    right = raw_reader(condition.right)
    if left is None or right is None:
        return reference
    op = condition.op
    value_op = op if op in VALUE_OPS else GENERAL_TO_VALUE[op]

    def predicate(row: Dict[str, object]) -> bool:
        verdict = raw_verdict(left(row), right(row), value_op)
        return reference(row) if verdict is None else verdict

    return predicate


def _row_evaluator(expression: RuntimeIterator, context: DynamicContext):
    """The EVALUATE_EXPRESSION(a, b, c, ...) UDF of the paper's Section 4:
    rebuild a dynamic context from the row's variable columns and evaluate
    the JSONiq expression with the iterator's local API."""

    def evaluate(row: Dict[str, object]) -> List[Item]:
        return expression.materialize_local(_row_context(context, row))

    return evaluate


def _counted(function, context: DynamicContext, clause: str, size=len,
             rows_in: bool = False, **labels):
    """``function``, counting into ``clause``'s ``rumble.clause.rows_out``
    (``size(result)`` per call; ``rows_in`` adds one per call) under an
    enabled bundle; ``function`` itself otherwise.  The one place a
    DataFrame clause's row function meets the probes: counting is per
    row and synchronous, so it is exact under ``take()``, an error, a
    cancel or a retried task."""
    obs = _obs_of(context)
    if obs is None:
        return function
    counter = obs.metrics.counter
    out = counter("rumble.clause.rows_out", clause=clause, **labels)
    into = counter("rumble.clause.rows_in", clause=clause) if rows_in else None

    def counted(row):
        if into is not None:
            into.inc()
        result = function(row)
        produced = size(result)
        if produced:
            out.inc(produced)
        return result

    return counted


class ForClauseIterator(ClauseIterator):
    """``for $v in expr`` — Section 4.4.

    As the first clause it creates the initial DataFrame (in parallel when
    the source expression is an RDD); chained, it is an extended projection
    followed by ``EXPLODE``.
    """

    expands = True

    #: The chain's scan plan, attached by
    #: :mod:`repro.jsoniq.runtime.flwor.pushdown` when this is the leading
    #: clause of a ``json-file()`` chain with anything to push.
    pushdown_plan = None

    def __init__(
        self,
        input_clause: Optional[ClauseIterator],
        variable: str,
        expression: RuntimeIterator,
        allowing_empty: bool = False,
        position_variable: Optional[str] = None,
    ):
        super().__init__(input_clause)
        self.variable = variable
        self.expression = expression
        self.allowing_empty = allowing_empty
        self.position_variable = position_variable

    def tuple_stream(self, context: DynamicContext) -> Iterator[FlworTuple]:
        for tuple_ in self._input_tuples(context):
            inner = tuple_.to_context(context)
            produced = False
            position = 0
            for item in self.expression.iterate(inner):
                produced = True
                position += 1
                out = tuple_.extend(self.variable, [item])
                if self.position_variable:
                    from repro.items import IntegerItem

                    out = out.extend(
                        self.position_variable, [IntegerItem(position)]
                    )
                yield out
            if not produced and self.allowing_empty:
                out = tuple_.extend(self.variable, [])
                if self.position_variable:
                    from repro.items import IntegerItem

                    out = out.extend(self.position_variable, [IntegerItem(0)])
                yield out

    def supports_dataframe(self, context: DynamicContext) -> bool:
        if self.position_variable:
            # The paper defers positional variables to the count clause.
            return False
        if self.input_clause is None:
            return self.expression.is_rdd(context)
        return self.input_clause.supports_dataframe(context)

    def get_dataframe(self, context: DynamicContext) -> DataFrame:
        if self.input_clause is None:
            plan = self.pushdown_plan
            if plan is not None:
                rdd = plan.items(context)
            else:
                rdd = self.expression.get_rdd(context)
            variable = self.variable
            bind = _counted(
                lambda item: {variable: [item]}, context,
                "ForClauseIterator", size=lambda row: 1,
                source=type(self.expression).__name__,
            )
            return self._frame(
                context.runtime.spark, rdd.map(bind), [variable]
            )
        frame = self.input_clause.get_dataframe(context)
        evaluator = _row_evaluator(self.expression, context)
        allowing_empty = self.allowing_empty

        def fan_out(row: Dict[str, object]) -> List[List[Item]]:
            items = evaluator(row)
            if not items and allowing_empty:
                return [[]]
            return [[item] for item in items]

        existing = [col(name) for name in frame.columns if name != self.variable]
        exploded = explode(row_udf(
            _counted(fan_out, context, "ForClauseIterator"),
            name="EVALUATE_EXPRESSION",
        ))
        return frame.select(*existing, exploded.alias(self.variable))

    def sql_template(self) -> str:
        if self.input_clause is None:
            return "CREATE DATAFRAME ({}) FROM RDD".format(self.variable)
        return (
            "SELECT *, EXPLODE(EVALUATE_EXPRESSION(*)) AS {} FROM input"
            .format(self.variable)
        )

    def spark_mapping(self) -> str:
        return "flatMap()"


class LetClauseIterator(ClauseIterator):
    """``let $v := expr`` — Section 4.5: the same extended projection
    without the EXPLODE call."""

    def __init__(
        self,
        input_clause: Optional[ClauseIterator],
        variable: str,
        expression: RuntimeIterator,
    ):
        super().__init__(input_clause)
        self.variable = variable
        self.expression = expression

    def tuple_stream(self, context: DynamicContext) -> Iterator[FlworTuple]:
        from repro.jsoniq.runtime.flwor.tuples import RddSequence

        if self.input_clause is None and self.expression.is_rdd(context):
            # A leading let stays local (paper, Section 4.5) but the
            # binding itself can remain an RDD, so downstream aggregates
            # still run as Spark actions (Section 5.5).
            yield FlworTuple().extend(
                self.variable, RddSequence(self.expression.get_rdd(context))
            )
            return
        for tuple_ in self._input_tuples(context):
            items = _evaluate_in_tuple(self.expression, tuple_, context)
            yield tuple_.extend(self.variable, items)

    def supports_dataframe(self, context: DynamicContext) -> bool:
        # A leading let stays local (paper, Section 4.5).
        if self.input_clause is None:
            return False
        return self.input_clause.supports_dataframe(context)

    def get_dataframe(self, context: DynamicContext) -> DataFrame:
        frame = self.input_clause.get_dataframe(context)
        evaluator = _row_evaluator(self.expression, context)
        return frame.with_column(
            self.variable, row_udf(evaluator, name="EVALUATE_EXPRESSION")
        )

    def sql_template(self) -> str:
        return "SELECT *, EVALUATE_EXPRESSION(*) AS {} FROM input".format(
            self.variable
        )

    def spark_mapping(self) -> str:
        return "map()"


class WindowClauseIterator(ClauseIterator):
    """``for tumbling|sliding window $w in expr start ... end ...`` —
    XQuery 3.0 window semantics (the paper's future-work item).

    Windows are computed locally (the paper defers distributed windows
    to streaming platforms), so a FLWOR containing a window clause runs
    on the pull-based path.
    """

    expands = True

    def __init__(
        self,
        input_clause: Optional[ClauseIterator],
        kind: str,
        variable: str,
        expression: RuntimeIterator,
        start_vars,          # ast.WindowVars
        start_when: RuntimeIterator,
        end_vars=None,       # ast.WindowVars | None
        end_when: Optional[RuntimeIterator] = None,
        end_only: bool = False,
    ):
        super().__init__(input_clause)
        self.kind = kind
        self.variable = variable
        self.expression = expression
        self.start_vars = start_vars
        self.start_when = start_when
        self.end_vars = end_vars
        self.end_when = end_when
        self.end_only = end_only

    def supports_dataframe(self, context: DynamicContext) -> bool:
        return False

    # -- Boundary conditions ---------------------------------------------------
    @staticmethod
    def _bind_boundary(context, variables, items, index: int):
        from repro.items import IntegerItem

        scope = context.child()
        if variables.current:
            scope.bind_shared(variables.current, [items[index]])
        if variables.position:
            scope.bind_shared(variables.position, [IntegerItem(index + 1)])
        if variables.previous:
            scope.bind_shared(
                variables.previous,
                [items[index - 1]] if index > 0 else [],
            )
        if variables.next:
            scope.bind_shared(
                variables.next,
                [items[index + 1]] if index + 1 < len(items) else [],
            )
        return scope

    def _start_scope(self, context, items, index: int):
        return self._bind_boundary(context, self.start_vars, items, index)

    def _starts(self, items, context) -> List[int]:
        return [
            index for index in range(len(items))
            if self.start_when.effective_boolean_value(
                self._start_scope(context, items, index)
            )
        ]

    def _find_end(self, items, start_scope, start: int) -> Optional[int]:
        """First end position >= start; the end condition's scope chains
        below the start condition's bindings, as the XQuery spec says."""
        for index in range(start, len(items)):
            if self.end_when.effective_boolean_value(
                self._bind_boundary(start_scope, self.end_vars, items, index)
            ):
                return index
        return None

    def _windows(self, items, context):
        """Yield (start, end) index pairs per the XQuery window rules."""
        starts = self._starts(items, context)
        if self.kind == "sliding":
            for start in starts:
                scope = self._start_scope(context, items, start)
                end = self._find_end(items, scope, start)
                if end is None:
                    if not self.end_only:
                        yield (start, len(items) - 1)
                else:
                    yield (start, end)
            return
        # Tumbling: windows never overlap; a start inside an open window
        # is ignored.
        position = 0
        start_set = set(starts)
        while position < len(items):
            if position not in start_set:
                position += 1
                continue
            if self.end_when is not None:
                scope = self._start_scope(context, items, position)
                end = self._find_end(items, scope, position)
                if end is None:
                    if not self.end_only:
                        yield (position, len(items) - 1)
                    return
                yield (position, end)
                position = end + 1
            else:
                # Ends right before the next start, or at the sequence end.
                next_start = next(
                    (s for s in starts if s > position), len(items)
                )
                yield (position, next_start - 1)
                position = next_start

    def tuple_stream(self, context: DynamicContext) -> Iterator[FlworTuple]:
        for tuple_ in self._input_tuples(context):
            inner = tuple_.to_context(context)
            items = self.expression.materialize(inner)
            for start, end in self._windows(items, inner):
                out = tuple_.extend(self.variable, items[start:end + 1])
                out = self._extend_boundary(
                    out, self.start_vars, items, start
                )
                if self.end_vars is not None:
                    out = self._extend_boundary(
                        out, self.end_vars, items, end
                    )
                yield out

    @staticmethod
    def _extend_boundary(tuple_, variables, items, index: int):
        from repro.items import IntegerItem

        if variables.current:
            tuple_ = tuple_.extend(variables.current, [items[index]])
        if variables.position:
            tuple_ = tuple_.extend(
                variables.position, [IntegerItem(index + 1)]
            )
        if variables.previous:
            tuple_ = tuple_.extend(
                variables.previous,
                [items[index - 1]] if index > 0 else [],
            )
        if variables.next:
            tuple_ = tuple_.extend(
                variables.next,
                [items[index + 1]] if index + 1 < len(items) else [],
            )
        return tuple_

    def sql_template(self) -> str:
        return "-- window clauses evaluate locally (streaming future work)"

    def spark_mapping(self) -> str:
        return "local evaluation"


class WhereClauseIterator(ClauseIterator):
    """``where expr`` — Section 4.6: a selection."""

    #: Attached by :mod:`repro.jsoniq.runtime.flwor.pushdown` when this
    #: clause is in the chain's covered where prefix: under an active
    #: plan the scan yields only rows that already passed the condition
    #: (``PushdownPlan.items``), so the DataFrame form is a pass-through.
    pushdown_plan = None

    def __init__(self, input_clause: ClauseIterator,
                 condition: RuntimeIterator):
        super().__init__(input_clause)
        self.condition = condition

    def tuple_stream(self, context: DynamicContext) -> Iterator[FlworTuple]:
        for tuple_ in self._input_tuples(context):
            if self.condition.effective_boolean_value(
                tuple_.to_context(context)
            ):
                yield tuple_

    def get_dataframe(self, context: DynamicContext) -> DataFrame:
        frame = self.input_clause.get_dataframe(context)
        if self.pushdown_plan is not None and context.runtime.flags.pushdown:
            return frame
        predicate = _counted(
            _make_fast_predicate(self.condition, context), context,
            "WhereClauseIterator", size=int, rows_in=True,
        )
        return frame.where(row_udf(predicate, name="EVALUATE_EXPRESSION"))

    def sql_template(self) -> str:
        return "SELECT * FROM input WHERE EVALUATE_EXPRESSION(*)"

    def spark_mapping(self) -> str:
        return "filter(condition)"


#: How a non-grouping variable is consumed downstream of a group-by.
USAGE_MATERIALIZE = "materialize"
USAGE_COUNT_ONLY = "count"
USAGE_UNUSED = "unused"


def native_columns(name: str) -> Tuple[str, str, str]:
    """The three native key columns of grouping variable ``name`` (type
    code, string, double): what :func:`~repro.items.compare.raw_sort_key`
    is written to and the engine groups and orders on."""
    return ("#" + name + "#t", "#" + name + "#s", "#" + name + "#n")


class GroupByClauseIterator(ClauseIterator):
    """``group by $k (:= expr)?, ...`` — Section 4.7.

    Grouping keys are encoded into three native columns each (type code,
    string, double) so the underlying engine groups without looking at
    items; non-grouping variables are materialized into concatenated
    sequences by the SEQUENCE() aggregation — or by COUNT()/nothing when
    the usage analysis allows (``variable_usage``).
    """

    #: Attached by :mod:`repro.jsoniq.runtime.flwor.pushdown` when this
    #: group-by can pre-aggregate masked batches into partial rows.
    columnar_kernel = None

    def __init__(
        self,
        input_clause: ClauseIterator,
        keys: List[Tuple[str, Optional[RuntimeIterator]]],
        variable_usage: Optional[Dict[str, str]] = None,
    ):
        super().__init__(input_clause)
        self.keys = keys
        #: non-grouping variable name -> USAGE_* (default: materialize)
        self.variable_usage = variable_usage or {}

    def _key_names(self) -> List[str]:
        return [name for name, _ in self.keys]

    def _bind_keys(self, tuple_: FlworTuple, context: DynamicContext):
        """Bind ``$k := expr`` keys; the tuple and its grouping key."""
        parts = []
        for name, expression in self.keys:
            if expression is not None:
                items = _evaluate_in_tuple(expression, tuple_, context)
                tuple_ = tuple_.extend(name, items)
            parts.append(
                grouping_key(single_atomic_key(tuple_.get(name), name))
            )
        return tuple_, tuple(parts)

    def _merge_group(self, members: List[FlworTuple]) -> FlworTuple:
        key_names = set(self._key_names())
        first = members[0]
        merged: Dict[str, object] = {}
        for name in first.variables():
            if name in key_names:
                merged[name] = first.get(name)
                continue
            usage = self.variable_usage.get(name, USAGE_MATERIALIZE)
            if usage == USAGE_UNUSED:
                continue
            if usage == USAGE_COUNT_ONLY:
                merged[name] = CountedSequence(
                    sum(len(member.get(name)) for member in members)
                )
            else:
                merged[name] = [
                    item
                    for member in members
                    for item in member.get(name)
                ]
        return FlworTuple(merged)

    def tuple_stream(self, context: DynamicContext) -> Iterator[FlworTuple]:
        groups: Dict[tuple, List[FlworTuple]] = {}
        for tuple_ in self._input_tuples(context):
            tuple_, key = self._bind_keys(tuple_, context)
            groups.setdefault(key, []).append(tuple_)
        # JSONiq leaves group order undefined; emitting groups in key
        # order makes local and distributed execution agree exactly.
        for _, members in sorted(groups.items(), key=lambda kv: kv[0]):
            yield self._merge_group(members)

    def get_dataframe(self, context: DynamicContext) -> DataFrame:
        key_names = self._key_names()
        kernel = self.columnar_kernel
        if kernel is not None:
            # The columnar group-by count kernel: partial rows straight
            # from masked batches (one per partition and key, counts
            # pre-aggregated), same columns the reference ``encode``
            # emits — the group/aggregate/order machinery below merges
            # them unchanged.  None = flags rule it out, take the row path.
            encoded = kernel.partial_rows(context)
            if encoded is not None:
                return self._aggregate_encoded(
                    context, encoded, [kernel.plan.variable], key_names
                )
        frame = self.input_clause.get_dataframe(context)

        # Extended projection: bind fresh keys, then the three native
        # columns per grouping variable (pure driver-side Python, as the
        # paper notes the column creation is done "in pure Java").
        keys = [
            (name, expression, _make_fast_extractor(expression)
             if expression is not None else None, native_columns(name))
            for name, expression in self.keys
        ]
        key_name_set = set(key_names)
        usage = self.variable_usage

        def encode(row: Dict[str, object]) -> List[Dict[str, object]]:
            inner = None
            out = {}
            # Map-side pruning and partial aggregation: unused variables
            # never enter the shuffle; count-only ones travel as lengths.
            for name, value in row.items():
                if name in key_name_set:
                    out[name] = value
                    continue
                kind = usage.get(name, USAGE_MATERIALIZE)
                if kind == USAGE_UNUSED:
                    continue
                if kind == USAGE_COUNT_ONLY:
                    out[name] = CountedSequence(len(value))
                else:
                    out[name] = value
            for name, expression, fast, columns in keys:
                if fast is not None:
                    items = fast(row)
                    out[name] = items
                elif expression is not None:
                    if inner is None:
                        inner = _row_context(context, row)
                    items = expression.materialize_local(inner)
                    out[name] = items
                    inner.bind_shared(name, items)
                else:
                    items = out.get(name, [])
                out[columns[0]], out[columns[1]], out[columns[2]] = (
                    grouping_key(single_atomic_key(items, name))
                )
            return [out]

        encoded = frame.rdd.flat_map(encode)
        return self._aggregate_encoded(
            context, encoded, list(frame.columns), key_names
        )

    def _aggregate_encoded(
        self, context, encoded, source_columns, key_names
    ) -> DataFrame:
        """Group, aggregate and order pre-encoded rows (shared by the
        reference encode path and the columnar kernel)."""
        variables = [
            name
            for name in set(
                list(source_columns) + key_names
            )
        ]
        native = [
            column for name in key_names for column in native_columns(name)
        ]
        working = self._frame(
            context.runtime.spark, encoded, variables + native
        )

        aggregates = []
        for name in key_names:
            aggregates.append(
                AggCall(
                    "ARRAY_DISTINCT", col(name),
                    lambda values: values[0], alias=name,
                )
            )
        for name in source_columns:
            if name in key_names:
                continue
            kind = self.variable_usage.get(name, USAGE_MATERIALIZE)
            if kind == USAGE_UNUSED:
                continue
            if kind == USAGE_COUNT_ONLY:
                aggregates.append(
                    AggCall(
                        "COUNT", col(name),
                        lambda values: CountedSequence(
                            sum(len(value) for value in values)
                        ),
                        alias=name,
                    )
                )
            else:
                aggregates.append(
                    AggCall(
                        "SEQUENCE", col(name),
                        lambda values: [
                            item for value in values for item in value
                        ],
                        alias=name,
                    )
                )
        grouped = working.group_by(*[col(name) for name in native]).agg(
            *aggregates
        )
        # Same deterministic group order as the local path (sorted by the
        # native key encoding) before the helper columns are dropped.
        ordered = grouped.order_by(*[col(name) for name in native])
        return ordered.drop(*native)

    def sql_template(self) -> str:
        key_names = self._key_names()
        native = ", ".join(
            "{0}1, {0}2, {0}3".format(name) for name in key_names
        )
        selected = []
        for name in key_names:
            selected.append("ARRAY_DISTINCT({})".format(name))
        for name, usage in sorted(self.variable_usage.items()):
            if usage == USAGE_COUNT_ONLY:
                selected.append("COUNT({})".format(name))
            elif usage == USAGE_MATERIALIZE:
                selected.append("SEQUENCE({})".format(name))
        if not selected:
            selected = ["SEQUENCE(*)"]
        return "SELECT {} GROUP BY {} FROM input".format(
            ", ".join(selected), native
        )

    def spark_mapping(self) -> str:
        return "mapToPair() groupByKey() map()"


class OrderByClauseIterator(ClauseIterator):
    """``order by spec, ...`` — Section 4.8.

    One pass evaluates each key once, checks it, records its type family
    (a conflict raises on the driver, worded as over the whole stream)
    and encodes its native sort column; the engine's ORDER BY does the
    rest.  ``stable`` needs no flag: every form keeps the input order
    among ties — Python's sort, ``heapq.nsmallest``, the engine's sort,
    the partition-ordered candidate merge (pinned by the key matrix).
    """

    def __init__(
        self,
        input_clause: ClauseIterator,
        specs: List[Tuple[RuntimeIterator, bool, bool]],
    ):
        super().__init__(input_clause)
        #: (expression, ascending, empty_greatest) per ordering key
        self.specs = specs

    def _key_of(
        self, tuple_: FlworTuple, context: DynamicContext
    ) -> List[Optional[Item]]:
        inner = tuple_.to_context(context)
        return [
            single_atomic_key(expression.materialize_local(inner))
            for expression, _, _ in self.specs
        ]

    def _row_key_reader(self, context: DynamicContext):
        """A per-row key evaluator: the fast extractor for ``$v.key``
        keys, the reference evaluator otherwise."""
        readers = [
            _make_fast_extractor(expression)
            or _row_evaluator(expression, context)
            for expression, _, _ in self.specs
        ]
        return lambda row: [single_atomic_key(read(row)) for read in readers]

    def _ordering_row(
        self, values: List[Optional[Item]]
    ) -> List[tuple]:
        return [
            ordering_tuple(value, empty_greatest)
            for value, (_, _, empty_greatest) in zip(values, self.specs)
        ]

    def decorated(self, rows, key_of, families: KeyFamilies):
        """The one decorate pass of every derived form: yield
        ``(ordering row, row)`` per row, each key evaluated once by
        ``key_of(row)``, its family recorded in ``families``."""
        for row in rows:
            values = key_of(row)
            families.add(values)
            yield self._ordering_row(values), row

    def tuple_stream(self, context: DynamicContext) -> Iterator[FlworTuple]:
        materialized: List[Tuple[List[tuple], FlworTuple]] = []
        families: List[Optional[str]] = [None] * len(self.specs)
        for tuple_ in self._input_tuples(context):
            values = self._key_of(tuple_, context)
            for index, value in enumerate(values):
                if value is not None:
                    families[index] = check_sortable(families[index], value)
            materialized.append((self._ordering_row(values), tuple_))
        for index, (_, ascending, _) in reversed(list(enumerate(self.specs))):
            materialized.sort(
                key=lambda pair: pair[0][index], reverse=not ascending
            )
        for _, tuple_ in materialized:
            yield tuple_

    def get_dataframe(self, context: DynamicContext) -> DataFrame:
        frame = self.input_clause.get_dataframe(context)
        key_of = self._row_key_reader(context)
        width = len(self.specs)
        native = ["#ord{}".format(index) for index in range(width)]

        def decorate(part):
            families = KeyFamilies(width)
            keyed = []
            for ordering_row, row in self.decorated(part, key_of, families):
                out = dict(row)
                out.update(zip(native, ordering_row))
                keyed.append(out)
            return [(families, keyed)]

        # Type discovery (Section 4.8 requires the error) and the sort
        # both read the decorated partitions: persisted, upstream lineage
        # and the keys run once (Spark SQL caches the exchange input).
        partitions = frame.rdd.map_partitions(decorate).cache()
        KeyFamilies.merge(partitions.map(lambda pair: pair[0]).collect())
        working = self._frame(
            context.runtime.spark,
            partitions.flat_map(lambda pair: pair[1]),
            list(frame.columns) + native,
        )
        ordered = working.order_by(
            *[col(name) for name in native],
            ascending=[ascending for _, ascending, _ in self.specs],
        )
        return ordered.drop(*native)

    def sql_template(self) -> str:
        native = ", ".join(
            "b{}1, b{}2".format(index, index)
            for index in range(len(self.specs))
        )
        return "SELECT * ORDER BY {} FROM input".format(native)

    def spark_mapping(self) -> str:
        return "mapToPair() sortByKey() map()"


class CountClauseIterator(ClauseIterator):
    """``count $v`` — Section 4.9: zipWithIndex on the tuple stream."""

    def __init__(self, input_clause: ClauseIterator, variable: str):
        super().__init__(input_clause)
        self.variable = variable

    def tuple_stream(self, context: DynamicContext) -> Iterator[FlworTuple]:
        from repro.items import IntegerItem

        for position, tuple_ in enumerate(self._input_tuples(context), 1):
            yield tuple_.extend(self.variable, [IntegerItem(position)])

    def get_dataframe(self, context: DynamicContext) -> DataFrame:
        from repro.items import IntegerItem

        frame = self.input_clause.get_dataframe(context)
        indexed = frame.with_row_index("#idx")
        variable = self.variable

        def attach(row: Dict[str, object]) -> Dict[str, object]:
            out = {
                name: value for name, value in row.items() if name != "#idx"
            }
            out[variable] = [IntegerItem(row["#idx"] + 1)]
            return out

        rows = indexed.rdd.map(attach)
        return self._frame(
            context.runtime.spark, rows, list(frame.columns) + [variable]
        )

    def sql_template(self) -> str:
        return "SELECT *, ZIP_WITH_INDEX() AS {} FROM input".format(
            self.variable
        )

    def spark_mapping(self) -> str:
        return "zipWithIndex() map()"


class ReturnClauseIterator(RuntimeIterator):
    """``return expr`` — Section 4.10: a flatMap from tuples to items.

    This is an *expression* iterator: the FLWOR as a whole returns a
    sequence of items, RDD-backed whenever the clause chain supports
    DataFrames.
    """

    #: Attached by :mod:`repro.jsoniq.runtime.flwor.pushdown`: the
    #: chain's scan plan and the top-k rewrite (at most one of the count,
    #: generated and top-k paths applies — a rewritten chain has clauses
    #: between the covered wheres and this return).
    pushdown_plan = None
    topk = None

    def __init__(self, input_clause: ClauseIterator,
                 expression: RuntimeIterator):
        super().__init__([expression])
        self.input_clause = input_clause
        self.expression = expression

    def _generate(self, context: DynamicContext) -> Iterator[Item]:
        obs = _obs_of(context)
        if self.is_rdd(context):
            if obs is not None:
                obs.metrics.counter(
                    "rumble.execution.switches", via="flwor-distributed"
                ).inc()
            yield from self.get_rdd(context).to_local_iterator()
            return
        if obs is not None:
            obs.metrics.counter(
                "rumble.execution.switches", via="flwor-local"
            ).inc()
        stream = self.input_clause.tuple_stream(context)
        cancel = _cancel_of(context)
        if cancel is not None:
            # The return clause is the last boundary a tuple crosses;
            # guarding it covers single-clause FLWORs whose input never
            # transits another clause's _input_tuples.
            stream = cancel.guard(stream)
        for tuple_ in stream:
            yield from _evaluate_in_tuple(self.expression, tuple_, context)

    def is_rdd(self, context: DynamicContext) -> bool:
        return (
            context.runtime is not None
            and self.input_clause.supports_dataframe(context)
        )

    def rdd_count(self, context: DynamicContext):
        """The columnar count kernel, or None to fall back to the
        reference ``get_rdd().count()`` (see flwor/columnar.py)."""
        from repro.jsoniq.runtime.flwor.columnar import rdd_count

        plan = self.pushdown_plan
        return rdd_count(plan, context) if plan is not None else None

    def get_rdd(self, context: DynamicContext):
        from repro.jsoniq.codegen import stage_rdd

        # Whole-stage codegen first: one generated loop straight over
        # the masked batches replaces the unbox → bind → evaluate
        # pipeline below.  None means the plan resolved to another sink
        # — the interpreted path stays the untouched reference.
        plan = self.pushdown_plan
        if plan is not None:
            staged = stage_rdd(plan, self.expression, context)
            if staged is not None:
                return staged
        frame = self.input_clause.get_dataframe(context)
        emit = _counted(
            _row_evaluator(self.expression, context), context,
            "ReturnClauseIterator",
        )
        return frame.rdd.flat_map(emit)

    def sql_template(self) -> str:
        return "FLATMAP(EVALUATE_EXPRESSION(*)) OVER input"

    def spark_mapping(self) -> str:
        return "map() + collect()/take()"
