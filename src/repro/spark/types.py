"""DataFrame schema types, rows, and schema inference.

Schema inference deliberately reproduces the behaviour the paper criticizes
in Figure 6: when a column holds values of incompatible types across rows
(heterogeneity), the column degrades to ``StringType`` and the original type
information is lost; absent values become NULLs.  Rumble's whole pitch is
that its Item-based model does *not* do this.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional


class DataType:
    """Base class of DataFrame column types."""

    name = "data"

    def simple_string(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return self.simple_string()


class NullType(DataType):
    name = "null"


class BooleanType(DataType):
    name = "boolean"


class LongType(DataType):
    name = "bigint"


class DoubleType(DataType):
    name = "double"


class StringType(DataType):
    name = "string"


class ArrayType(DataType):
    name = "array"

    def __init__(self, element_type: DataType):
        self.element_type = element_type

    def simple_string(self) -> str:
        return "array<{}>".format(self.element_type.simple_string())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.element_type == self.element_type
        )

    def __hash__(self) -> int:
        return hash(("array", self.element_type))


class StructField:
    """One named, typed column of a struct."""

    def __init__(self, name: str, data_type: DataType, nullable: bool = True):
        self.name = name
        self.data_type = data_type
        self.nullable = nullable

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StructField)
            and other.name == self.name
            and other.data_type == self.data_type
        )

    def __repr__(self) -> str:
        return "StructField({}, {})".format(self.name, self.data_type)


class StructType(DataType):
    name = "struct"

    def __init__(self, fields: Optional[List[StructField]] = None):
        self.fields = fields or []

    @property
    def field_names(self) -> List[str]:
        return [field.name for field in self.fields]

    def field(self, name: str) -> StructField:
        for field in self.fields:
            if field.name == name:
                return field
        raise KeyError("no field named {!r}".format(name))

    def simple_string(self) -> str:
        inner = ", ".join(
            "{}:{}".format(f.name, f.data_type.simple_string())
            for f in self.fields
        )
        return "struct<{}>".format(inner)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.fields == self.fields

    def __hash__(self) -> int:
        return hash(tuple((f.name, f.data_type) for f in self.fields))


class Row:
    """An ordered, named record — dictionary access plus attribute access."""

    __slots__ = ("_values",)

    def __init__(self, **values: Any):
        object.__setattr__(self, "_values", values)

    @classmethod
    def from_dict(cls, values: Dict[str, Any]) -> "Row":
        row = cls.__new__(cls)
        object.__setattr__(row, "_values", dict(values))
        return row

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def __getattr__(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError as error:
            raise AttributeError(key) from error

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __iter__(self):
        return iter(self._values.values())

    def keys(self):
        return self._values.keys()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Row) and other._values == self._values

    def __hash__(self) -> int:
        return hash(tuple(sorted(
            (k, _hashable(v)) for k, v in self._values.items()
        )))

    def __repr__(self) -> str:
        inner = ", ".join(
            "{}={!r}".format(k, v) for k, v in self._values.items()
        )
        return "Row({})".format(inner)


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


# -- Schema inference ---------------------------------------------------------

def infer_type(value: Any) -> DataType:
    """The narrowest DataFrame type of one Python value."""
    if value is None:
        return NullType()
    if isinstance(value, bool):
        return BooleanType()
    if isinstance(value, int):
        return LongType()
    if isinstance(value, float):
        return DoubleType()
    if isinstance(value, str):
        return StringType()
    if isinstance(value, list):
        element: DataType = NullType()
        for member in value:
            element = merge_types(element, infer_type(member))
        return ArrayType(element)
    if isinstance(value, dict):
        return StructType(
            [StructField(str(k), infer_type(v)) for k, v in value.items()]
        )
    return StringType()


def merge_types(left: DataType, right: DataType) -> DataType:
    """Widen two observed types into a common column type.

    Compatible numerics widen (long + double -> double); anything
    genuinely incompatible collapses to string — the Figure 6 behaviour.
    """
    if left == right:
        return left
    if isinstance(left, NullType):
        return right
    if isinstance(right, NullType):
        return left
    numeric = (LongType, DoubleType)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return DoubleType()
    if isinstance(left, ArrayType) and isinstance(right, ArrayType):
        return ArrayType(merge_types(left.element_type, right.element_type))
    if isinstance(left, StructType) and isinstance(right, StructType):
        merged: Dict[str, DataType] = {}
        for field in left.fields + right.fields:
            if field.name in merged:
                merged[field.name] = merge_types(
                    merged[field.name], field.data_type
                )
            else:
                merged[field.name] = field.data_type
        return StructType(
            [StructField(name, dtype) for name, dtype in merged.items()]
        )
    return StringType()


def infer_schema(records: Iterable[Dict[str, Any]]) -> StructType:
    """Infer a struct schema over a collection of dict records."""
    columns: Dict[str, DataType] = {}
    for record in records:
        for key, value in record.items():
            key = str(key)
            observed = infer_type(value)
            if key in columns:
                columns[key] = merge_types(columns[key], observed)
            else:
                columns[key] = observed
    return StructType(
        [StructField(name, dtype) for name, dtype in sorted(columns.items())]
    )


def coerce_value(value: Any, data_type: DataType) -> Any:
    """Force a raw value into a column's type, as DataFrame import does.

    This is where heterogeneity loses information: a list serialized into
    a string column becomes its JSON text, a boolean becomes ``"true"``,
    an absent value becomes ``None`` (Figure 6).
    """
    if value is None:
        return None
    if isinstance(data_type, StringType):
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (dict, list)):
            return json.dumps(value, separators=(",", ":"))
        return str(value)
    if isinstance(data_type, DoubleType):
        return float(value) if isinstance(value, (int, float)) else None
    if isinstance(data_type, LongType):
        return int(value) if isinstance(value, int) else None
    if isinstance(data_type, BooleanType):
        return bool(value) if isinstance(value, bool) else None
    if isinstance(data_type, ArrayType):
        if isinstance(value, list):
            return [coerce_value(v, data_type.element_type) for v in value]
        return None
    if isinstance(data_type, StructType):
        if isinstance(value, dict):
            return {
                field.name: coerce_value(value.get(field.name), field.data_type)
                for field in data_type.fields
            }
        return None
    return value


def coerce_record(record: Dict[str, Any], schema: StructType) -> Dict[str, Any]:
    """Project one raw record onto a schema (missing columns become NULL)."""
    return {
        field.name: coerce_value(record.get(field.name), field.data_type)
        for field in schema.fields
    }
