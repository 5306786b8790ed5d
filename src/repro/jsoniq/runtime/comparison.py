"""Comparison and logic iterators.

JSONiq distinguishes *value comparisons* (``eq ne lt le gt ge`` — both
operands must be zero-or-one atomics, an empty operand yields the empty
sequence) from *general comparisons* (``= != < <= > >=`` — existentially
quantified over both operand sequences).  Logic is two-valued (JSONiq has
no NULL-logic: the effective boolean value decides).
"""

from __future__ import annotations

from typing import Iterator

from repro.items import FALSE, TRUE, Item, value_compare
from repro.items.compare import GENERAL_TO_VALUE, VALUE_OPS
from repro.jsoniq.errors import TypeException
from repro.jsoniq.runtime.base import RuntimeIterator
from repro.jsoniq.runtime.dynamic_context import DynamicContext


def _apply(op: str, left: Item, right: Item) -> bool:
    return VALUE_OPS[op][0](value_compare(left, right), 0)


class ComparisonIterator(RuntimeIterator):
    """Both comparison families, selected by the operator's spelling."""

    def __init__(self, op: str, left: RuntimeIterator, right: RuntimeIterator,
                 static_atomic: bool = False):
        super().__init__([left, right])
        self.op = op
        self.left = left
        self.right = right
        #: Set by the compiler when static inference proved both operands
        #: are single comparable atomics — enables the checkless path.
        self.static_atomic = static_atomic

    def _generate(self, context: DynamicContext) -> Iterator[Item]:
        if self.op in VALUE_OPS:
            yield from self._value_comparison(context)
        else:
            yield from self._general_comparison(context)

    def _value_comparison(self, context: DynamicContext) -> Iterator[Item]:
        if self.static_atomic:
            left = self.left.evaluate_single(context)
            right = self.right.evaluate_single(context)
            if left is None or right is None:
                return
            yield TRUE if _apply(self.op, left, right) else FALSE
            return
        left = self.left.evaluate_atomic(context, "comparison operand")
        right = self.right.evaluate_atomic(context, "comparison operand")
        if left is None or right is None:
            return
        yield TRUE if _apply(self.op, left, right) else FALSE

    def _general_comparison(self, context: DynamicContext) -> Iterator[Item]:
        value_op = GENERAL_TO_VALUE[self.op]
        left_items = self.left.materialize(context)
        right_items = self.right.materialize(context)
        for left in left_items:
            if not left.is_atomic:
                raise TypeException(
                    "cannot compare " + left.type_name
                )
            for right in right_items:
                if not right.is_atomic:
                    raise TypeException(
                        "cannot compare " + right.type_name
                    )
                if _apply(value_op, left, right):
                    yield TRUE
                    return
        yield FALSE


class AndIterator(RuntimeIterator):
    def __init__(self, left: RuntimeIterator, right: RuntimeIterator):
        super().__init__([left, right])
        self.left = left
        self.right = right

    def _generate(self, context: DynamicContext) -> Iterator[Item]:
        if not self.left.effective_boolean_value(context):
            yield FALSE
            return
        yield TRUE if self.right.effective_boolean_value(context) else FALSE


class OrIterator(RuntimeIterator):
    def __init__(self, left: RuntimeIterator, right: RuntimeIterator):
        super().__init__([left, right])
        self.left = left
        self.right = right

    def _generate(self, context: DynamicContext) -> Iterator[Item]:
        if self.left.effective_boolean_value(context):
            yield TRUE
            return
        yield TRUE if self.right.effective_boolean_value(context) else FALSE


class NotIterator(RuntimeIterator):
    def __init__(self, operand: RuntimeIterator):
        super().__init__([operand])
        self.operand = operand

    def _generate(self, context: DynamicContext) -> Iterator[Item]:
        yield FALSE if self.operand.effective_boolean_value(context) else TRUE
