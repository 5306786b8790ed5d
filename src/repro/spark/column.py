"""Column expressions for the DataFrame API and the mini Spark SQL.

A :class:`Column` is a small expression tree evaluated against a row dict.
Both the programmatic DataFrame API (``col("age") > lit(65)``) and the SQL
front end compile to these nodes, so the optimizer and executor share one
representation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class Column:
    """An expression over the columns of a row."""

    def eval(self, row: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def references(self) -> List[str]:
        """Names of the columns this expression reads."""
        return []

    def output_name(self) -> str:
        """The column name this expression produces when selected."""
        return "col"

    # -- Operator sugar ------------------------------------------------------
    def alias(self, name: str) -> "Column":
        return Alias(self, name)

    def _binary(self, other: Any, op: str) -> "Column":
        return BinaryOp(self, _wrap(other), op)

    def __eq__(self, other: Any) -> "Column":  # type: ignore[override]
        return self._binary(other, "=")

    def __ne__(self, other: Any) -> "Column":  # type: ignore[override]
        return self._binary(other, "<>")

    def __lt__(self, other: Any) -> "Column":
        return self._binary(other, "<")

    def __le__(self, other: Any) -> "Column":
        return self._binary(other, "<=")

    def __gt__(self, other: Any) -> "Column":
        return self._binary(other, ">")

    def __ge__(self, other: Any) -> "Column":
        return self._binary(other, ">=")

    def __add__(self, other: Any) -> "Column":
        return self._binary(other, "+")

    def __sub__(self, other: Any) -> "Column":
        return self._binary(other, "-")

    def __mul__(self, other: Any) -> "Column":
        return self._binary(other, "*")

    def __truediv__(self, other: Any) -> "Column":
        return self._binary(other, "/")

    def __and__(self, other: Any) -> "Column":
        return self._binary(other, "AND")

    def __or__(self, other: Any) -> "Column":
        return self._binary(other, "OR")

    def __invert__(self) -> "Column":
        return UnaryOp(self, "NOT")

    def is_null(self) -> "Column":
        return UnaryOp(self, "ISNULL")

    def asc(self) -> "SortOrder":
        return SortOrder(self, ascending=True)

    def desc(self) -> "SortOrder":
        return SortOrder(self, ascending=False)

    def __hash__(self) -> int:  # Columns land in sets during analysis.
        return id(self)


class ColumnRef(Column):
    """A reference to a named column, with optional ``a.b.c`` struct path."""

    def __init__(self, name: str):
        self.name = name
        self.path = name.split(".")

    def eval(self, row: Dict[str, Any]) -> Any:
        if self.name in row:
            return row[self.name]
        value: Any = row
        for step in self.path:
            if isinstance(value, dict) and step in value:
                value = value[step]
            else:
                return None
        return value

    def references(self) -> List[str]:
        return [self.path[0]]

    def output_name(self) -> str:
        return self.path[-1]

    def __repr__(self) -> str:
        return "col({})".format(self.name)


class Literal(Column):
    def __init__(self, value: Any):
        self.value = value

    def eval(self, row: Dict[str, Any]) -> Any:
        return self.value

    def output_name(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return "lit({!r})".format(self.value)


class BinaryOp(Column):
    """SQL three-valued-logic binary operators."""

    def __init__(self, left: Column, right: Column, op: str):
        self.left = left
        self.right = right
        self.op = op

    def eval(self, row: Dict[str, Any]) -> Any:
        op = self.op
        if op == "AND":
            lhs = self.left.eval(row)
            if lhs is False:
                return False
            rhs = self.right.eval(row)
            if rhs is False:
                return False
            return None if lhs is None or rhs is None else True
        if op == "OR":
            lhs = self.left.eval(row)
            if lhs is True:
                return True
            rhs = self.right.eval(row)
            if rhs is True:
                return True
            return None if lhs is None or rhs is None else False
        lhs = self.left.eval(row)
        rhs = self.right.eval(row)
        if lhs is None or rhs is None:
            return None
        if op == "=":
            return lhs == rhs
        if op == "<>":
            return lhs != rhs
        try:
            if op == "<":
                return lhs < rhs
            if op == "<=":
                return lhs <= rhs
            if op == ">":
                return lhs > rhs
            if op == ">=":
                return lhs >= rhs
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                return lhs / rhs if rhs != 0 else None
            if op == "%":
                return lhs % rhs if rhs != 0 else None
        except TypeError:
            return None
        raise ValueError("unknown operator " + op)

    def references(self) -> List[str]:
        return self.left.references() + self.right.references()

    def output_name(self) -> str:
        return "({} {} {})".format(
            self.left.output_name(), self.op, self.right.output_name()
        )

    def __repr__(self) -> str:
        return "({!r} {} {!r})".format(self.left, self.op, self.right)


class UnaryOp(Column):
    def __init__(self, operand: Column, op: str):
        self.operand = operand
        self.op = op

    def eval(self, row: Dict[str, Any]) -> Any:
        value = self.operand.eval(row)
        if self.op == "NOT":
            return None if value is None else not value
        if self.op == "NEG":
            return None if value is None else -value
        if self.op == "ISNULL":
            return value is None
        if self.op == "ISNOTNULL":
            return value is not None
        raise ValueError("unknown unary operator " + self.op)

    def references(self) -> List[str]:
        return self.operand.references()

    def output_name(self) -> str:
        return "{}({})".format(self.op, self.operand.output_name())


class Alias(Column):
    def __init__(self, child: Column, name: str):
        self.child = child
        self.name = name

    def eval(self, row: Dict[str, Any]) -> Any:
        return self.child.eval(row)

    def references(self) -> List[str]:
        return self.child.references()

    def output_name(self) -> str:
        return self.name


class UdfColumn(Column):
    """A scalar user-defined function over whole rows or argument columns.

    This is the ``EVALUATE_EXPRESSION(a, b, c)`` of the paper's Section 4:
    Rumble's FLWOR clauses install Python callables here that rebuild a
    dynamic context from the row and evaluate a JSONiq expression.
    """

    def __init__(
        self,
        func: Callable[..., Any],
        args: Optional[List[Column]] = None,
        name: str = "udf",
        row_udf: bool = False,
    ):
        self.func = func
        self.args = args or []
        self.name = name
        #: When True the callable receives the whole row dict.
        self.row_udf = row_udf

    def eval(self, row: Dict[str, Any]) -> Any:
        if self.row_udf:
            return self.func(row)
        return self.func(*[arg.eval(row) for arg in self.args])

    def references(self) -> List[str]:
        if self.row_udf:
            return ["*"]
        return [ref for arg in self.args for ref in arg.references()]

    def output_name(self) -> str:
        return self.name


class CaseWhen(Column):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    def __init__(self, branches: List[tuple], default: Optional[Column]):
        #: list of (condition, value) pairs, evaluated in order
        self.branches = branches
        self.default = default

    def eval(self, row: Dict[str, Any]) -> Any:
        for condition, value in self.branches:
            if condition.eval(row) is True:
                return value.eval(row)
        return self.default.eval(row) if self.default is not None else None

    def references(self) -> List[str]:
        refs: List[str] = []
        for condition, value in self.branches:
            refs += condition.references() + value.references()
        if self.default is not None:
            refs += self.default.references()
        return refs

    def output_name(self) -> str:
        return "CASE"


class LikeColumn(Column):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (one char) wildcards."""

    def __init__(self, operand: Column, pattern: str, negated: bool = False):
        import re

        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        pieces = []
        for char in pattern:
            if char == "%":
                pieces.append(".*")
            elif char == "_":
                pieces.append(".")
            else:
                pieces.append(re.escape(char))
        self._regex = re.compile("^" + "".join(pieces) + "$", re.DOTALL)

    def eval(self, row: Dict[str, Any]) -> Any:
        value = self.operand.eval(row)
        if value is None:
            return None
        matched = bool(self._regex.match(str(value)))
        return (not matched) if self.negated else matched

    def references(self) -> List[str]:
        return self.operand.references()

    def output_name(self) -> str:
        return "({} LIKE {!r})".format(self.operand.output_name(),
                                       self.pattern)


class ExplodeColumn(Column):
    """Marker for ``EXPLODE(expr)``: one output row per element.

    Evaluation returns the list; the projection operator in the DataFrame
    recognizes the marker and fans rows out (paper, Section 4.4).
    """

    def __init__(self, child: Column):
        self.child = child

    def eval(self, row: Dict[str, Any]) -> Any:
        value = self.child.eval(row)
        if value is None:
            return []
        if not isinstance(value, list):
            return [value]
        return value

    def references(self) -> List[str]:
        return self.child.references()

    def output_name(self) -> str:
        return "explode({})".format(self.child.output_name())


class SortOrder:
    """A sort specification: column plus direction."""

    def __init__(self, column: Column, ascending: bool = True):
        self.column = column
        self.ascending = ascending


def _wrap(value: Any) -> Column:
    return value if isinstance(value, Column) else Literal(value)


def col(name: str) -> ColumnRef:
    """Reference a column by name (PySpark's ``col``)."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """A literal column (PySpark's ``lit``)."""
    return Literal(value)


def explode(column: Column) -> ExplodeColumn:
    """Fan an array column out into one row per element."""
    return ExplodeColumn(_wrap(column))


def udf(func: Callable[..., Any], name: str = "udf") -> Callable[..., UdfColumn]:
    """Wrap a Python callable as a scalar UDF factory."""

    def build(*args: Any) -> UdfColumn:
        return UdfColumn(func, [_wrap(a) for a in args], name=name)

    return build


def row_udf(func: Callable[[Dict[str, Any]], Any], name: str = "udf") -> UdfColumn:
    """A UDF that sees the entire row, for Rumble's EVALUATE_EXPRESSION."""
    return UdfColumn(func, name=name, row_udf=True)
