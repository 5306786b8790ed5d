"""Textual emission of the whole-stage loop.

The emitter walks the return expression (and only the return
expression — the scan and the covered where prefix are handled by the
surrounding loop protocol) and compiles each sub-expression into a
*fragment*: a Python expression string plus what is statically known
about it.  Fragments compute **raw** Python values (str/int/float/bool/
None, or the ``ABSENT`` sentinel for the empty sequence) — items are
built exactly once, at the yield boundary, with the same
``_wrap_fast`` the lazy row path uses, so results are identical by
construction.

Two invariants keep the generated code equivalent to the interpreter:

* **Fragments never raise and never yield.**  Whatever the reference
  evaluator would reject (non-numeric operand, cross-type comparison,
  heterogeneous value) is caught by an inlined raw-type guard whose
  failure branch re-evaluates the *whole row* through the reference
  expression — so error classes, messages and ordering stay exact.
* **Specialization only widens the fast lane.**  When PR 3's static
  inference proved a subtree (``static_numeric`` on arithmetic,
  literal operands on comparisons), the guard is omitted entirely and
  the emitted line is the bare Python operator; unproven subtrees keep
  the guard.  Either way the slow path is the interpreter itself.

Anything outside the supported shape raises :class:`Unsupported` at
planning time; the plan records the reason and the pipeline stays on
the interpreted (fused/columnar) path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.items.compare import (
    FAMILY_GUARDS,
    GENERAL_TO_VALUE,
    VALUE_OPS,
    family_decides,
    raw_family,
)


class Unsupported(Exception):
    """The chain contains a shape the emitter does not specialize.

    Raised (and caught) at planning time only — the reason becomes the
    plan's ``declined`` note in explain(), never a user-visible error.
    """


class Fragment:
    """A compiled sub-expression: Python source computing a raw value.

    ``kind`` is the statically proven family of the raw value —
    ``"number"``/``"string"``/``"boolean"`` or None for unknown (guards
    required).  ``maybe_absent`` marks fragments that can evaluate to
    the ``ABSENT`` sentinel (the empty sequence), which every consumer
    must short-circuit on before touching the value.
    """

    __slots__ = ("expr", "kind", "maybe_absent")

    def __init__(self, expr: str, kind: Optional[str] = None,
                 maybe_absent: bool = False):
        self.expr = expr
        self.kind = kind
        self.maybe_absent = maybe_absent


class _Emitter:
    """Stateful single-pass emitter for one pipeline's return expression."""

    def __init__(self, variable: str):
        self.variable = variable
        #: key -> (flags_name, vals_name), in first-use order; drives the
        #: per-batch column preludes.
        self.columns: Dict[str, Tuple[str, str]] = {}
        #: ParameterIterator nodes in slot order (plan-cache parameters
        #: are runtime inputs, never baked into the source).
        self.params: List[object] = []
        self.specializations: Dict[str, int] = {}
        self._temp = 0
        self._summary: List[str] = []

    # -- bookkeeping ----------------------------------------------------

    def temp(self) -> str:
        name = "_t{}".format(self._temp)
        self._temp += 1
        return name

    def count(self, kind: str) -> None:
        self.specializations[kind] = self.specializations.get(kind, 0) + 1

    def note(self, text: str) -> None:
        if text not in self._summary:
            self._summary.append(text)

    def fallback(self, body: List[str], indent: int) -> None:
        """Route this row through the reference evaluator and move on."""
        pad = " " * indent
        body.append(pad + "if _fb is not None:")
        body.append(pad + "    _fb.inc()")
        body.append(pad + "yield from _ref_emit(_unshred(_row))")
        body.append(pad + "continue")

    # -- fragment compilation -------------------------------------------

    def value(self, node, body: List[str], indent: int) -> Fragment:
        """Compile ``node`` into a fragment, appending statements to body."""
        from repro.jsoniq.runtime.arithmetic import BinaryArithmeticIterator
        from repro.jsoniq.runtime.comparison import ComparisonIterator
        from repro.jsoniq.runtime.navigation import ObjectLookupIterator
        from repro.jsoniq.runtime.primary import (
            FoldedConstantIterator,
            LiteralIterator,
            ParameterIterator,
        )

        if isinstance(node, LiteralIterator):
            return self._constant(node.item)
        if isinstance(node, FoldedConstantIterator):
            return self._constant(node.item)
        if isinstance(node, ParameterIterator):
            return self._parameter(node)
        if isinstance(node, ObjectLookupIterator):
            return self._column_read(node, body, indent)
        if isinstance(node, BinaryArithmeticIterator):
            return self._arithmetic(node, body, indent)
        if isinstance(node, ComparisonIterator):
            return self._comparison(node, body, indent)
        raise Unsupported(
            "expression " + type(node).__name__ + " stays interpreted"
        )

    def _constant(self, item) -> Fragment:
        from repro.items.atomics import (
            BooleanItem,
            DoubleItem,
            IntegerItem,
            NullItem,
            StringItem,
        )

        if type(item) in (StringItem, IntegerItem, DoubleItem, BooleanItem):
            return Fragment(repr(item.value), raw_family(item.value))
        if type(item) is NullItem:
            # Raw None: consumers guard on type, so null routes to the
            # reference evaluator (decimal/temporal literals likewise).
            return Fragment("None", None)
        raise Unsupported(
            item.type_name + " literals stay interpreted"
        )

    def _parameter(self, node) -> Fragment:
        # Plan-cache parameter: the value is bound per execution, so it
        # is read from the runtime bundle, never inlined into the
        # source.  The slot's token kind is part of the plan shape, so
        # the family proof holds across re-executions.
        kind = {
            "integer": "number", "double": "number",
            "string": "string", "boolean": "boolean",
        }.get(node.kind)
        if kind is None and node.kind != "null":
            raise Unsupported(
                node.kind + " parameters stay interpreted"
            )
        name = "_p{}".format(len(self.params))
        self.params.append(node)
        self.count("parameter")
        return Fragment(name, kind)

    def _column_read(self, node, body: List[str], indent: int) -> Fragment:
        from repro.jsoniq.runtime.primary import VariableIterator

        source = node.source
        if not (isinstance(source, VariableIterator)
                and source.name == self.variable):
            raise Unsupported(
                "lookup source is not the scan variable"
            )
        key = node._constant_key
        if key is None:
            raise Unsupported("computed object-lookup key")
        if key not in self.columns:
            index = len(self.columns)
            self.columns[key] = (
                "_flags{}".format(index), "_vals{}".format(index)
            )
        flags, vals = self.columns[key]
        var = self.temp()
        pad = " " * indent
        # PRESENT=0 -> the shredded value, NULL=1 -> raw None,
        # MISSING=2 (or key outside the batch schema) -> empty sequence.
        body.append(pad + "if {} is None:".format(flags))
        body.append(pad + "    {} = ABSENT".format(var))
        body.append(pad + "else:")
        body.append(pad + "    _f = {}[_row]".format(flags))
        body.append(
            pad + "    {} = {}[_row] if _f == 0 else"
            " (None if _f == 1 else ABSENT)".format(var, vals)
        )
        self.count("column_read")
        self.note("${}.{} read straight off the column".format(
            self.variable, key))
        return Fragment(var, None, True)

    def _arithmetic(self, node, body: List[str], indent: int) -> Fragment:
        if node.op not in ("+", "-", "*"):
            raise Unsupported(
                "operator " + node.op + " stays interpreted"
                " (decimal-typed result)"
            )
        left = self.value(node.left, body, indent)
        right = self.value(node.right, body, indent)
        for operand in (left, right):
            if operand.kind not in (None, "number"):
                raise Unsupported(
                    "statically non-numeric operand of " + node.op
                )
        pad = " " * indent
        var = self.temp()
        compute = "{} = {} {} {}".format(var, left.expr, node.op, right.expr)
        absent = [f.expr for f in (left, right) if f.maybe_absent]
        if node.static_numeric:
            # PR 3 proved both operands single-numeric at compile time:
            # no atomization, no singleton check, no type guard — the
            # emitted line IS the operator.
            self.count("static_arith")
            self.note("arithmetic specialized on static types")
            if absent:
                body.append(pad + "if {}:".format(" or ".join(
                    "{} is ABSENT".format(e) for e in absent)))
                body.append(pad + "    {} = ABSENT".format(var))
                body.append(pad + "else:")
                body.append(pad + "    " + compute)
            else:
                body.append(pad + compute)
            return Fragment(var, "number", bool(absent))
        guards = [f.expr for f in (left, right) if f.kind != "number"]
        self.count("static_arith" if not guards else "guarded_arith")
        if guards:
            self.note("arithmetic guarded on raw types")
            # The reference atomizes both operands before its empty
            # check, so a non-atomic (array or object) operand errors
            # even when the other side is empty — keep that ordering.
            body.append(pad + "if {}:".format(" or ".join(
                FAMILY_GUARDS[None].format(e) for e in guards)))
            self.fallback(body, indent + 4)
        prefix = "if"
        if absent:
            body.append(pad + "if {}:".format(" or ".join(
                "{} is ABSENT".format(e) for e in absent)))
            body.append(pad + "    {} = ABSENT".format(var))
            prefix = "elif"
        if guards:
            body.append(pad + "{} {}:".format(prefix, " and ".join(
                FAMILY_GUARDS["number"].format(e) for e in guards)))
            body.append(pad + "    " + compute)
            body.append(pad + "else:")
            self.fallback(body, indent + 4)
        elif absent:
            body.append(pad + "else:")
            body.append(pad + "    " + compute)
        else:
            body.append(pad + compute)
        return Fragment(var, "number", bool(absent))

    def _comparison(self, node, body: List[str], indent: int) -> Fragment:
        # General comparisons map onto the value operators but differ on
        # empty operands (empty compares FALSE instead of empty).
        general = node.op in GENERAL_TO_VALUE
        value_op = GENERAL_TO_VALUE.get(node.op, node.op)
        if value_op not in VALUE_OPS:
            raise Unsupported("operator " + node.op + " stays interpreted")
        pyop = VALUE_OPS[value_op][1]
        left = self.value(node.left, body, indent)
        right = self.value(node.right, body, indent)
        if "boolean" in (left.kind, right.kind):
            raise Unsupported("boolean comparison stays interpreted")
        if (left.kind and right.kind and left.kind != right.kind):
            raise Unsupported("cross-type comparison stays interpreted")
        pad = " " * indent
        var = self.temp()
        compute = "{} = {} {} {}".format(var, left.expr, pyop, right.expr)
        absent = [f.expr for f in (left, right) if f.maybe_absent]
        unknown = [f for f in (left, right) if f.kind is None]
        # The guard chain is items.compare.raw_verdict's order, spelled
        # as source.  One branch per family whose raw operator decides
        # (the statically proven one, or every candidate when both sides
        # are unknown) — the hot lane.  Then a non-atomic operand, ahead
        # of the empty test: the reference raises on it even against an
        # empty operand.  Then the empty sequence — empty for a value
        # comparison, False for a general one, which quantifies
        # existentially.  Whatever is left (bool/null/mixed) is the
        # reference evaluator's; with both families proven no guard can
        # fire and the comparison is the bare Python operator.
        chain = []  # (test, statement); None = the reference evaluator
        if unknown:
            proven = left.kind or right.kind
            families = [proven] if proven else [
                family for family in FAMILY_GUARDS
                if family_decides(family, value_op)
            ]
            chain = [
                (" and ".join(
                    FAMILY_GUARDS[family].format(f.expr) for f in unknown
                ), compute)
                for family in families
            ]
            chain.append((" or ".join(
                FAMILY_GUARDS[None].format(f.expr) for f in unknown), None))
            self.count("guarded_compare")
            self.note("comparison guarded on raw types")
        else:
            self.count("static_compare")
            self.note("comparison specialized on static types")
        if absent:
            chain.append((
                " or ".join("{} is ABSENT".format(e) for e in absent),
                "{} = {}".format(var, "False" if general else "ABSENT"),
            ))
        prefix = "if"
        for test, statement in chain:
            body.append(pad + "{} {}:".format(prefix, test))
            if statement is None:
                self.fallback(body, indent + 4)
            else:
                body.append(pad + "    " + statement)
            prefix = "elif"
        if not chain:
            body.append(pad + compute)
        elif unknown:
            body.append(pad + "else:")
            self.fallback(body, indent + 4)
        else:
            body.append(pad + "else:")
            body.append(pad + "    " + compute)
        return Fragment(var, "boolean", bool(absent) and not general)

    # -- return-expression shapes ---------------------------------------

    def emit_return(self, expression, body: List[str], indent: int) -> None:
        """Append the per-row emission statements for the return clause."""
        from repro.jsoniq.runtime.primary import (
            LiteralIterator,
            ObjectConstructorIterator,
            VariableIterator,
        )

        pad = " " * indent
        if (isinstance(expression, VariableIterator)
                and expression.name == self.variable):
            # Bare ``return $v``: the one shape that must box the full
            # record — reuse the batch's lazy unshredder.
            self.count("boxed_return")
            self.note("bare return boxes via the batch unshredder")
            body.append(pad + "yield _unshred(_row)")
            return
        if isinstance(expression, ObjectConstructorIterator):
            parts = []
            for key_iterator, value_iterator in expression.pairs:
                if not (isinstance(key_iterator, LiteralIterator)
                        and key_iterator.item.is_string):
                    raise Unsupported("computed object-constructor key")
                fragment = self.value(value_iterator, body, indent)
                value = fragment.expr
                if fragment.maybe_absent:
                    # The reference constructor turns an empty value
                    # sequence into null — exactly what raw None wraps to.
                    var = self.temp()
                    body.append(pad + "{} = None if {} is ABSENT else {}"
                                .format(var, value, value))
                    value = var
                parts.append("{!r}: {}".format(
                    key_iterator.item.value, value))
            self.count("object_construct")
            self.note("object built as a dict, wrapped once")
            body.append(pad + "yield _wrap({{{}}})".format(", ".join(parts)))
            return
        # Scalar return: 0-or-1 raw values wrapped at the boundary.
        fragment = self.value(expression, body, indent)
        if fragment.maybe_absent:
            body.append(pad + "if {} is not ABSENT:".format(fragment.expr))
            body.append(pad + "    yield _wrap({})".format(fragment.expr))
        else:
            body.append(pad + "yield _wrap({})".format(fragment.expr))


class EmittedStage:
    """The emitter's product: source text plus what the plan reports."""

    __slots__ = ("source", "summary", "keys", "specializations", "params")

    def __init__(self, source, summary, keys, specializations, params):
        self.source = source
        self.summary = summary
        self.keys = keys
        self.specializations = specializations
        self.params = params


def emit_source(variable: str, expression) -> EmittedStage:
    """Emit the full ``_codegen_stage`` source for one pipeline: the
    return expression's fragments inside the batch loop protocol (the
    covered where prefix is the scan's: ``survivors`` yields only rows
    that passed it).  Raises :class:`Unsupported` when the expression
    falls outside the specialized shapes.
    """
    emitter = _Emitter(variable)
    rows: List[str] = []
    emitter.emit_return(expression, rows, 12)

    lines = ["def _codegen_stage(_batches, _rt):"]
    lines.append("    _wrap = _rt.wrap")
    lines.append("    _ref_emit = _rt.ref_emit")
    lines.append("    _fb = _rt.fallback_rows")
    lines.append("    ABSENT = _rt.absent")
    lines.append("    _recheck = _rt.recheck")
    if emitter.columns:
        lines.append("    _ListColumn = _rt.list_column")
    for index, node in enumerate(emitter.params):
        lines.append("    _p{0} = _rt.params[{0}]".format(index))
    lines.append("    for _masked in _batches:")
    lines.append("        _batch = _masked.batch")
    lines.append("        _escaped = _batch.escaped")
    lines.append("        _unshred = _batch.unshred_row")
    if emitter.columns:
        lines.append("        _cols = _batch.columns")
        for key, (flags, vals) in emitter.columns.items():
            lines.append("        _col = _cols.get({!r})".format(key))
            lines.append("        if _col is None:")
            lines.append("            {} = {} = None".format(flags, vals))
            lines.append("        elif type(_col) is _ListColumn:")
            # List columns store their data in offset/flat arrays, not
            # ``values`` — pre-materialize so the row loop stays flat.
            lines.append("            {} = _col.validity".format(flags))
            lines.append(
                "            {} = [_col.value_at(_i) if {}[_i] == 0"
                " else None for _i in range(_batch.row_count)]"
                .format(vals, flags)
            )
            lines.append("        else:")
            lines.append("            {} = _col.validity".format(flags))
            lines.append("            {} = _col.values".format(vals))
    lines.append("        for _row in _masked.survivors(_recheck):")
    lines.append("            if _row in _escaped:")
    lines.append("                yield from _ref_emit(_unshred(_row))")
    lines.append("                continue")
    lines.extend(rows)
    source = "\n".join(lines) + "\n"
    summary = "; ".join(emitter._summary) or "straight-through loop"
    return EmittedStage(
        source=source,
        summary=summary,
        keys=list(emitter.columns),
        specializations=dict(emitter.specializations),
        params=list(emitter.params),
    )
