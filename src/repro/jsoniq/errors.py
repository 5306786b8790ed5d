"""JSONiq error taxonomy.

JSONiq distinguishes *static* errors (raised at compile time, e.g. an
undeclared variable), *dynamic* errors (raised while evaluating, e.g. a
division by zero) and *type* errors (a value of the wrong type reaches an
operation).  Every error carries a W3C-style error code such as ``XPST0008``
so tests can assert on the precise failure.
"""

from __future__ import annotations


class JsoniqException(Exception):
    """Root of all errors raised by the JSONiq stack."""

    default_code = "XPDY0002"
    #: Query errors are deterministic: the executor pool must not retry
    #: the task, Spark-style, because the outcome cannot change.
    retryable = False

    def __init__(self, message: str, code: str | None = None,
                 line: int | None = None, column: int | None = None):
        self.code = code or self.default_code
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = " at line {}, column {}".format(line, column)
        super().__init__("[{}]{} {}".format(self.code, location, message))
        self.message = message


class StaticException(JsoniqException):
    """Compile-time error: unknown variable, unknown function, bad arity."""

    default_code = "XPST0008"


class ParseException(StaticException):
    """Syntax error from the lexer or parser."""

    default_code = "XPST0003"


class DynamicException(JsoniqException):
    """Runtime error raised during evaluation."""

    default_code = "XPDY0002"


class TypeException(DynamicException):
    """A value of an unexpected type reached an operation."""

    default_code = "XPTY0004"


class StaticTypeException(StaticException, TypeException):
    """A type error provable at compile time.

    Inherits from both :class:`StaticException` (it is raised before any
    data is read) and :class:`TypeException` (it is the same ``XPTY0004``
    failure that would otherwise surface at run time), so callers
    catching either taxonomy keep working when an error moves from the
    dynamic phase to the static phase.
    """

    default_code = "XPTY0004"


class CastException(DynamicException):
    """A cast or constructor function received an uncastable value."""

    default_code = "FORG0001"


class StaticCastException(StaticException, CastException):
    """A cast provably failing at compile time (same dual-taxonomy
    rationale as :class:`StaticTypeException`, for callers catching
    :class:`CastException`)."""

    default_code = "FORG0001"


class OutOfMemorySimulated(DynamicException):
    """Raised by materializing engines whose memory budget is exceeded.

    Used by the Zorba/Xidel-like baselines to reproduce the out-of-memory
    failures reported in the paper's Figure 12.
    """

    default_code = "SENR0001"
