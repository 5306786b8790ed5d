"""The physical scan plan and top-k planning for FLWOR chains.

The compiler calls :func:`annotate` on every FLWOR it lowers.  When the
chain starts with ``for $v in json-file(...)`` the analysis derives, from
the AST alone, one :class:`PushdownPlan` — the single description of how
that file is scanned and what consumes the scan:

* **projection pruning** — the set of top-level keys the rest of the
  chain can ever observe ($v.key lookups).  When the bound item itself
  never escapes, the scan wraps only those keys into items and skips the
  rest of each decoded record (*Scalable Querying of Nested Data*'s
  motivation: push projection into the nested-JSON scan);
* **predicate pushdown** — the leading run of ``where`` conditions of
  the shape ``$v.key <cmp> ($v.key | literal)`` (the *covered prefix*:
  it ends at the first where of any other shape, which may raise on a
  row a later predicate would prune) becomes three-valued *raw*
  predicates evaluated on the decoded dict before any item is built (or
  as per-column masks over a shredded batch).  Only a definite **False**
  prunes a record; an Unknown one (nulls, mixed types, non-scalars) is
  re-checked at the scan boundary through the where conditions
  themselves (:meth:`PushdownPlan.recheck`), reproducing the exact
  reference semantics, type errors included — so every row the scan
  yields has passed the covered wheres;
* **the sink** — what the scanned batches feed: boxed item rows, the
  count kernel, the group-by count kernel (flwor/columnar.py) or the
  generated whole-stage loop (jsoniq/codegen/);
* **top-k rewrite** — an ``order by ... count $c where $c le k`` tail
  becomes a :class:`TopKClauseIterator` (per-partition heaps plus a
  driver merge) instead of a full sort.

Which of these run is decided by the runtime's resolved
:class:`~repro.core.config.OptimizerFlags` and by nothing else: the
clause iterators ask the plan for :meth:`PushdownPlan.items` or
:meth:`PushdownPlan.batches` and carry no gates of their own.  With
every flag off, execution takes the untouched reference path — what the
differential and lattice tests compare against.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from repro.items.atomics import IntegerItem
from repro.items.compare import (
    ABSENT,
    GENERAL_TO_VALUE,
    VALUE_OPS,
    KeyFamilies,
    family_decides,
    raw_family,
    raw_verdict,
)
from repro.jsoniq import ast
from repro.spark.dataframe import _Reversed

#: What a plan's scanned batches feed (:meth:`PushdownPlan.sink`).
SINK_BOX = "box"
SINK_COUNT = "count"
SINK_GROUP = "group-partial"
SINK_GENERATED = "generated"


class PushedPredicate:
    """One where-condition compiled to a raw three-valued predicate.

    ``raw(record)`` is evaluated on the decoded JSON dict: ``False``
    means the where clause is guaranteed to reject the record (prune),
    ``True``/``None`` means keep it and let the clause re-check.
    """

    __slots__ = ("keys", "raw", "description", "spec")

    def __init__(self, keys: Set[str], raw: Callable, description: str,
                 spec: Tuple = ()):
        self.keys = keys
        self.raw = raw
        self.description = description
        #: (left-operand, right-operand, value-op), for the column masks.
        self.spec = spec


class PushdownPlan:
    """The physical scan plan of one FLWOR chain, shared by every clause
    it touches (the head for-clause, the covered wheres, a kernel-fed
    group-by, the return clause).

    :func:`analyse` fills the AST-derived half (predicates, projection);
    :func:`annotate` wires the compiled chain in (head, source, covered
    where prefix, sink candidates).  ``count_only`` flips later still —
    the compiler sets it when ``count(<this flwor>)`` is the sole
    consumer — so :meth:`sink` and :meth:`describe` are evaluated
    lazily.
    """

    def __init__(self, variable: str):
        self.variable = variable
        self.predicates: List[PushedPredicate] = []
        #: Keys observed via ``$v.key`` anywhere downstream; ``None``
        #: when the whole item escapes regardless of the return clause.
        self.referenced_keys: Optional[Set[str]] = None
        #: The return expression is the bare variable — an escape unless
        #: the FLWOR's only consumer is ``count()``.
        self.bare_return = False
        #: Set by the compiler when ``count(<this flwor>)`` is the sole
        #: consumer, making the bare return cardinality-only.
        self.count_only = False
        #: The leading for-clause iterator and the file it scans.
        self.head = None
        self.source = None
        #: The covered where-clause prefix, forward order: ``wheres[i]``
        #: is the clause ``predicates[i]`` was compiled from, so they are
        #: exactly the conditions an undecided row is re-checked against.
        self.wheres: List[object] = []
        #: The clauses between that prefix and the return clause.
        self.rest: List[object] = []
        #: Set when ``rest`` opens with a kernel-eligible group-by.
        self.group_kernel = None
        #: The emitted whole-stage loop, or why emission was declined.
        self.stage = None
        self.declined: Optional[str] = None
        #: The compiled stage function, memoized here because the plan is
        #: what the server PlanCache reuses (see codegen/plan.py).
        self.stage_function = None

    def effective_projection(self) -> Optional[List[str]]:
        """The keys the scan must keep, or None for "keep everything"."""
        if self.referenced_keys is None:
            return None
        if self.bare_return and not self.count_only:
            return None
        keys = set(self.referenced_keys)
        for predicate in self.predicates:
            keys.update(predicate.keys)
        return sorted(keys)

    # -- The sink decision -------------------------------------------------------
    def sink(self, flags) -> str:
        """What this chain's batches feed under ``flags``.  Every sink
        but ``box`` needs the columnar scan; the generated loop needs
        codegen on top."""
        if not flags.columnar:
            return SINK_BOX
        if self.group_kernel is not None:
            return SINK_GROUP
        # count_only implies a bare `return $v` (the compiler only flips
        # it then); with nothing but covered wheres before it the masks'
        # verdict counts are the answer.
        if self.count_only and not self.rest:
            return SINK_COUNT
        if self.stage is not None and flags.codegen:
            return SINK_GENERATED
        return SINK_BOX

    # -- The scan ----------------------------------------------------------------
    def batches(self, context, sink: str):
        """The :class:`MaskedBatch` RDD feeding ``sink``, or None when
        the runtime's flags resolve this chain to a different sink (the
        caller then takes the reference path)."""
        if self.sink(context.runtime.flags) != sink:
            return None
        return self.source.scan(context, self, batches=True)

    def items(self, context):
        """The item RDD binding the head variable: the masked batch scan
        boxed at the boundary, the pushed row scan, or the plain scan."""
        flags = context.runtime.flags
        if not flags.pushdown:
            return self.source.scan(context)
        if not (self.predicates and flags.columnar):
            return self.source.scan(context, self)

        # Predicates run as per-column masks over shredded batches; only
        # surviving rows box here.
        recheck = self.recheck(context)

        def unbox(masked_batches):
            for masked in masked_batches:
                yield from masked.iter_boxed(recheck)

        return self.source.scan(
            context, self, batches=True
        ).map_partitions(unbox)

    def recheck(self, context):
        """``item -> bool``: the covered where conditions re-run in
        clause order on one scanned item — the reference semantics
        (errors included) for a row the pushed predicates could not
        decide.  None when there is nothing to re-check.  Every scan
        form resolves its undecided rows through this, so nothing
        downstream of the scan evaluates a covered where again."""
        from repro.jsoniq.runtime.flwor.clauses import _make_fast_predicate

        if not self.wheres:
            return None
        checks = [
            _make_fast_predicate(clause.condition, context)
            for clause in self.wheres
        ]
        variable = self.variable

        def recheck(item) -> bool:
            row = {variable: [item]}
            for check in checks:
                if not check(row):
                    return False
            return True

        return recheck

    # -- explain() ---------------------------------------------------------------
    def describe(self, flags) -> List[str]:
        lines = []
        projection = self.effective_projection()
        if projection is not None:
            lines.append("projection: {{{}}}".format(", ".join(projection)))
        for predicate in self.predicates:
            lines.append("pushed predicate: " + predicate.description)
        sink = self.sink(flags)
        if flags.columnar:
            lines.append("columnar: " + self._describe_columnar(sink))
        if flags.codegen:
            if self.declined is not None:
                text = "declined ({})".format(self.declined)
            elif sink == SINK_COUNT:
                text = "idle (count kernel serves this consumer)"
            else:
                text = "whole-stage loop ({} where mask{}; {})".format(
                    len(self.wheres),
                    "" if len(self.wheres) == 1 else "s",
                    self.stage.summary,
                )
            lines.append("codegen: " + text)
        return lines

    def _describe_columnar(self, sink: str) -> str:
        if sink == SINK_GROUP:
            return (
                "group-by count kernel over masked scan (keys: {})".format(
                    ", ".join(
                        "${} := ${}.{}".format(name, self.variable, key)
                        for name, key in self.group_kernel.keys
                    )
                )
            )
        if sink == SINK_COUNT:
            return "count kernel over masked scan"
        if self.predicates:
            return "masked batch scan ({} predicate mask{})".format(
                len(self.predicates),
                "" if len(self.predicates) == 1 else "s",
            )
        return "declined (no pushed predicate masks; row scan retained)"


def _operand(node: ast.AstNode, variable: str):
    """Classify a comparison operand: ("key", name) for ``$v.key``,
    ("lit", value) for a safe scalar literal, None otherwise."""
    if (
        isinstance(node, ast.ObjectLookup)
        and isinstance(node.source, ast.VariableReference)
        and node.source.name == variable
        and isinstance(node.key, ast.Literal)
        and isinstance(node.key.value, str)
    ):
        return ("key", node.key.value)
    if isinstance(node, ast.Literal) and _pushable(node.value):
        return ("lit", node.value)
    return None


def _pushable(literal) -> bool:
    """A literal is worth pushing when the comparison table can decide
    against it at all (strings, numbers, booleans)."""
    return family_decides(raw_family(literal), "eq")


def _make_raw(left, right, value_op: str) -> Callable:
    """Build the three-valued raw predicate over decoded dicts.

    The operand readers are specialized per shape (key/key, key/lit,
    lit/key) so the per-record path is two dict probes and one
    :func:`~repro.items.compare.raw_verdict` — this closure runs once
    per scanned record.
    """
    if left[0] == "key":
        left_key = left[1]
        read_left = lambda record: record.get(left_key, ABSENT)  # noqa: E731
    else:
        left_value = left[1]
        read_left = lambda record: left_value  # noqa: E731
    if right[0] == "key":
        right_key = right[1]
        read_right = lambda record: record.get(right_key, ABSENT)  # noqa: E731
    else:
        right_value = right[1]
        read_right = lambda record: right_value  # noqa: E731

    def raw(record: dict):
        return raw_verdict(read_left(record), read_right(record), value_op)

    return raw


def _compile_predicate(
    condition: ast.AstNode, variable: str
) -> Optional[PushedPredicate]:
    if not isinstance(condition, ast.ComparisonExpression):
        return None
    op = condition.op
    value_op = op if op in VALUE_OPS else GENERAL_TO_VALUE.get(op)
    if value_op is None:
        return None
    left = _operand(condition.left, variable)
    right = _operand(condition.right, variable)
    if left is None or right is None:
        return None
    if left[0] != "key" and right[0] != "key":
        return None  # literal-vs-literal: nothing to push
    keys = {spec[1] for spec in (left, right) if spec[0] == "key"}
    description = "{} {} {}".format(
        _describe_operand(left, variable), op,
        _describe_operand(right, variable),
    )
    return PushedPredicate(
        keys, _make_raw(left, right, value_op), description,
        spec=(left, right, value_op),
    )


def _describe_operand(spec, variable: str) -> str:
    if spec[0] == "key":
        return "${}.{}".format(variable, spec[1])
    return repr(spec[1])


def analyse(flwor: ast.FlworExpression) -> Optional[PushdownPlan]:
    """Derive a pushdown plan from a FLWOR's AST, or None when the
    chain's shape rules every pushdown out."""
    clauses = flwor.clauses
    if not clauses or not isinstance(clauses[0], ast.ForClause):
        return None
    first = clauses[0]
    variable = first.variable
    plan = PushdownPlan(variable)
    # Predicate pruning changes the bound sequence, which positional or
    # allowing-empty bindings would observe.
    predicates_allowed = (
        first.position_variable is None and not first.allowing_empty
    )

    refs: Set[str] = set()
    escaped = False

    def scan(node: ast.AstNode) -> None:
        nonlocal escaped
        if escaped:
            return
        if (
            isinstance(node, ast.ObjectLookup)
            and isinstance(node.source, ast.VariableReference)
            and node.source.name == variable
            and isinstance(node.key, ast.Literal)
            and isinstance(node.key.value, str)
        ):
            refs.add(node.key.value)
            return
        if (
            isinstance(node, ast.FunctionCall)
            and node.name == "count"
            and len(node.arguments) == 1
            and isinstance(node.arguments[0], ast.VariableReference)
            and node.arguments[0].name == variable
        ):
            return  # cardinality-only reference
        if isinstance(node, ast.VariableReference) and node.name == variable:
            escaped = True
            return
        for child in node.children():
            scan(child)

    in_where_prefix = True
    for clause in clauses[1:]:
        if isinstance(clause, ast.WhereClause):
            if in_where_prefix and predicates_allowed:
                predicate = _compile_predicate(clause.condition, variable)
                if predicate is not None:
                    plan.predicates.append(predicate)
                else:
                    # A where the scan cannot evaluate ends the covered
                    # prefix: it may raise on a row a later predicate
                    # would prune.
                    in_where_prefix = False
            scan(clause.condition)
            continue
        in_where_prefix = False
        if isinstance(clause, ast.ReturnClause):
            expression = clause.expression
            if (
                isinstance(expression, ast.VariableReference)
                and expression.name == variable
            ):
                plan.bare_return = True
            else:
                scan(expression)
            break
        if isinstance(clause, ast.WindowClause):
            # Window boundary conditions see neighbouring items through
            # extra bindings; stay conservative.
            escaped = True
            break
        if isinstance(clause, (ast.ForClause, ast.LetClause)):
            scan(clause.expression)
            shadowed = clause.variable == variable or (
                isinstance(clause, ast.ForClause)
                and clause.position_variable == variable
            )
            if shadowed:
                break
        elif isinstance(clause, ast.GroupByClause):
            rebound = False
            for key in clause.keys:
                if key.expression is not None:
                    scan(key.expression)
                elif key.variable == variable:
                    escaped = True  # grouping directly on the item
                if key.variable == variable:
                    rebound = True
            if rebound:
                break
        elif isinstance(clause, ast.OrderByClause):
            for spec in clause.specs:
                scan(spec.expression)
        elif isinstance(clause, ast.CountClause):
            if clause.variable == variable:
                break
        else:
            # A clause kind this analysis does not know: be conservative.
            escaped = True
            break
        if escaped:
            break

    plan.referenced_keys = None if escaped else refs
    if plan.referenced_keys is None and not plan.predicates:
        return None
    return plan


# ---------------------------------------------------------------------------
# Compile-time wiring
# ---------------------------------------------------------------------------

def annotate(flwor: ast.FlworExpression, return_iterator) -> None:
    """Attach the scan plan and apply the top-k rewrite to a freshly
    compiled FLWOR chain.  Called by the compiler; everything stays
    dormant until a runtime's flags enable it.
    """
    from repro.jsoniq.functions.io import JsonFileIterator
    from repro.jsoniq.runtime.flwor.clauses import ForClauseIterator

    chain = []
    clause = return_iterator.input_clause
    while clause is not None:
        chain.append(clause)
        clause = clause.input_clause
    head = chain.pop()
    chain.reverse()
    # The scan capability is decided here, by type: only a leading
    # json-file() read gets a plan.
    if isinstance(head, ForClauseIterator) and isinstance(
        head.expression, JsonFileIterator
    ):
        plan = analyse(flwor)
        if plan is not None:
            plan.head = head
            plan.source = head.expression
            head.pushdown_plan = plan
            return_iterator.pushdown_plan = plan
            _cover_wheres(plan, chain)
            _plan_sinks(plan, return_iterator)
    _rewrite_topk(return_iterator)


def _cover_wheres(plan: PushdownPlan, chain: List[object]) -> None:
    """Split ``chain`` (the clauses after the head, forward order) into
    the covered where prefix and the rest.  ``plan.predicates[i]`` was
    compiled from the i-th clause after the head and the compiler lowers
    clauses 1:1, so the pairing is positional.  A covered clause is
    tagged with the plan: under an active plan the scan has already
    proved every row it yields against the clause's condition."""
    covered = len(plan.predicates)
    plan.wheres, plan.rest = chain[:covered], chain[covered:]
    for clause in plan.wheres:
        clause.pushdown_plan = plan


def _plan_sinks(plan: PushdownPlan, return_iterator) -> None:
    """Record which batch sinks the chain's shape admits: the group-by
    count kernel when a kernel-eligible group-by follows the covered
    prefix, the generated whole-stage loop when nothing does and the
    emitter supports the return expression (declined otherwise, with
    the reason for explain()).  The count sink needs no preparation."""
    from repro.jsoniq.codegen.emitter import Unsupported, emit_source
    from repro.jsoniq.runtime.flwor.clauses import GroupByClauseIterator
    from repro.jsoniq.runtime.flwor.columnar import GroupByCountKernel

    head, rest = plan.head, plan.rest
    if rest and isinstance(rest[0], GroupByClauseIterator):
        kernel = GroupByCountKernel.for_clause(plan, rest[0])
        if kernel is not None:
            plan.group_kernel = kernel
            rest[0].columnar_kernel = kernel
    if head.position_variable is not None:
        plan.declined = "positional for-variable"
    elif head.allowing_empty:
        plan.declined = "allowing empty"
    elif rest:
        plan.declined = "{} between scan and return".format(
            type(rest[0]).__name__
        )
    else:
        try:
            plan.stage = emit_source(
                plan.variable, return_iterator.expression
            )
        except Unsupported as unsupported:
            plan.declined = str(unsupported)


def _rewrite_topk(return_iterator) -> None:
    """Recognize ``order by ... count $c where $c le k return ...`` and
    splice in a :class:`TopKClauseIterator`, keeping the original where
    clause as the reference fallback."""
    from repro.jsoniq.runtime.comparison import ComparisonIterator
    from repro.jsoniq.runtime.flwor.clauses import (
        CountClauseIterator,
        OrderByClauseIterator,
        WhereClauseIterator,
    )

    where = return_iterator.input_clause
    if not isinstance(where, WhereClauseIterator):
        return
    count = where.input_clause
    if not isinstance(count, CountClauseIterator):
        return
    order = count.input_clause
    if not isinstance(order, OrderByClauseIterator):
        return
    condition = where.condition
    if not isinstance(condition, ComparisonIterator):
        return
    limit = _bound_of(condition, count.variable)
    if limit is None or limit < 1:
        return  # nothing to keep: the reference chain answers (or raises)
    # No downstream-use check needed: the heap emits exactly the first k
    # tuples of the sorted stream with the count variable bound 1..k —
    # identical to what count + where would have produced.
    topk = TopKClauseIterator(order, count.variable, limit, fallback=where)
    return_iterator.input_clause = topk
    return_iterator.topk = topk


def _bound_of(condition, count_variable: str) -> Optional[int]:
    """The k of ``$c le k`` / ``$c lt k`` / ``k ge $c`` / ``k gt $c``."""
    from repro.jsoniq.runtime.primary import LiteralIterator, VariableIterator

    def integer_literal(node) -> Optional[int]:
        if isinstance(node, LiteralIterator):
            item = node.item
            value = getattr(item, "value", None)
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        return None

    left, right, op = condition.left, condition.right, condition.op
    if isinstance(left, VariableIterator) and left.name == count_variable:
        value = integer_literal(right)
        if value is None:
            return None
        if op in ("le", "<="):
            return value
        if op in ("lt", "<"):
            return value - 1
        return None
    if isinstance(right, VariableIterator) and right.name == count_variable:
        value = integer_literal(left)
        if value is None:
            return None
        if op in ("ge", ">="):
            return value
        if op in ("gt", ">"):
            return value - 1
        return None
    return None


# ---------------------------------------------------------------------------
# The top-k clause
# ---------------------------------------------------------------------------

def _composite_key(specs):
    """A single composite sort key equivalent to the reference's chain
    of per-key stable sorts (first spec is the primary key); a
    descending key is inverted by the wrapper the engine's own ORDER BY
    uses."""
    directions = [ascending for _, ascending, _ in specs]

    def key(ordering_row) -> tuple:
        return tuple(
            part if ascending else _Reversed(part)
            for part, ascending in zip(ordering_row, directions)
        )

    return key


class TopKClauseIterator:
    """``order by ... count $c where $c le k`` as one clause.

    Keeps only k candidates per partition in a heap (stable
    ``heapq.nsmallest``) and merges them on the driver — the classic
    TopK physical operator replacing full-sort + row-number + filter.
    Type-family discovery reads *every* row in that pass, so incompatible
    ordering keys raise exactly as the reference order-by does.
    """

    def __init__(self, order_clause, count_variable: str, limit: int,
                 fallback):
        #: The original order-by (reused for key readers) and its input.
        self.order_clause = order_clause
        self.input_clause = order_clause.input_clause
        self.count_variable = count_variable
        self.limit = limit
        #: The original where clause — the reference path when the
        #: pushdown flag is off.
        self.fallback = fallback

    # -- Shared helpers --------------------------------------------------------
    def _enabled(self, context) -> bool:
        runtime = context.runtime
        return runtime is not None and runtime.flags.pushdown

    def _smallest(self, decorated):
        """The first ``limit`` of ``(ordering row, row)`` pairs in the
        order-by's order (stable: ties keep the order they arrive in)."""
        composite = _composite_key(self.order_clause.specs)
        return heapq.nsmallest(
            self.limit, decorated, key=lambda pair: composite(pair[0])
        )

    def _best(self, rows, key_of):
        """One decorate pass over ``rows`` through a heap: their family
        summary and their first ``limit`` pairs."""
        order = self.order_clause
        families = KeyFamilies(len(order.specs))
        return families, self._smallest(
            order.decorated(rows, key_of, families)
        )

    # -- Local API ---------------------------------------------------------------
    def tuple_stream(self, context):
        if not self._enabled(context):
            yield from self.fallback.tuple_stream(context)
            return
        order = self.order_clause
        families, best = self._best(
            order._input_tuples(context),
            lambda tuple_: order._key_of(tuple_, context),
        )
        KeyFamilies.merge([families])
        for position, (_, tuple_) in enumerate(best, 1):
            yield tuple_.extend(
                self.count_variable, [IntegerItem(position)]
            )

    # -- DataFrame API ------------------------------------------------------------
    def supports_dataframe(self, context) -> bool:
        # The fallback's answer too: its clauses inherit their input's.
        return self.input_clause.supports_dataframe(context)

    def get_dataframe(self, context):
        from repro.jsoniq.runtime.base import _obs_of
        from repro.jsoniq.runtime.flwor.clauses import ClauseIterator

        if not self._enabled(context):
            return self.fallback.get_dataframe(context)
        order = self.order_clause
        frame = self.input_clause.get_dataframe(context)
        key_of = order._row_key_reader(context)
        # The driver merges the partitions' family summaries, then
        # their candidates, both in partition order.
        partitions = frame.rdd.map_partitions(
            lambda part: [self._best(part, key_of)]
        ).collect()
        KeyFamilies.merge(families for families, _ in partitions)
        candidates = [pair for _, best in partitions for pair in best]
        obs = _obs_of(context)
        if obs is not None:
            obs.metrics.counter("rumble.pushdown.topk_rewrites").inc()
        variable = self.count_variable
        rows = []
        for position, (_, row) in enumerate(self._smallest(candidates), 1):
            out = dict(row)
            out[variable] = [IntegerItem(position)]
            rows.append(out)
        runtime = context.runtime
        rdd = runtime.spark.spark_context.parallelize(rows, 1)
        return ClauseIterator._frame(
            runtime.spark, rdd, list(frame.columns) + [variable]
        )

    def sql_template(self) -> str:
        return "SELECT * ORDER BY ... LIMIT {} (top-k)".format(self.limit)

    def spark_mapping(self) -> str:
        return "mapPartitions(heap top-{}) + driver merge".format(self.limit)
