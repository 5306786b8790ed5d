"""Whole-pipeline fusion of narrow RDD transformations.

Chains of narrow transformations (``map``, ``filter``, ``flatMap``) on
the substrate used to evaluate as a tower of nested generators — one
Python frame per operator per record.  Following Flare's whole-stage
code generation, this module collapses a chain into **one** compiled
generator function per partition: element-wise operators become inlined
statements of a single loop body, so a record flows through the whole
chain without ever crossing a generator frame boundary, and no
intermediate list is materialized.

The fused pipeline is recomposed *fresh on every partition evaluation*
(see :func:`run_pipeline`), so re-running a task — lineage recovery or a
speculative backup attempt — never shares iterator state with a
previous attempt.

Generated code is cached by the *shape* of the chain (the tuple of
operator kinds); the user functions are passed as arguments, so two
different ``map().filter()`` chains share one compiled code object.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: Element-wise operator kinds — fusable into one loop body.
KIND_MAP = "map"
KIND_FILTER = "filter"
KIND_FLATMAP = "flatmap"
#: Partition-level operator kinds — pipeline breakers inside a chain
#: (the whole partition iterator is handed to the function), but still
#: part of the fused per-partition pipeline: no intermediate list.
KIND_PARTITION = "partition"
KIND_PARTITION_INDEX = "partition_index"

_ELEMENT_KINDS = frozenset((KIND_MAP, KIND_FILTER, KIND_FLATMAP))


class NarrowOp:
    """One narrow transformation in a fusable chain."""

    __slots__ = ("kind", "func")

    def __init__(self, kind: str, func: Callable):
        self.kind = kind
        self.func = func

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NarrowOp({})".format(self.kind)


#: Compiled pipeline code objects, keyed by the chain's kind tuple.
_SEGMENT_CACHE: Dict[Tuple[str, ...], Callable] = {}


def _compile_segment(kinds: Tuple[str, ...]) -> Callable:
    """Generate one Python generator function fusing ``kinds``.

    ``map`` becomes an assignment, ``filter`` a ``continue`` guard and
    ``flatMap`` a nested ``for`` — all in a single loop body, exactly
    the loop a developer would hand-write for the chain.
    """
    cached = _SEGMENT_CACHE.get(kinds)
    if cached is not None:
        return cached
    names = ["_f{}".format(index) for index in range(len(kinds))]
    lines = ["def _fused(_source, {}):".format(", ".join(names))]
    indent = "    "
    lines.append(indent + "for _v0 in _source:")
    indent += "    "
    var = "_v0"
    for index, kind in enumerate(kinds):
        out = "_v{}".format(index + 1)
        if kind == KIND_MAP:
            lines.append("{}{} = _f{}({})".format(indent, out, index, var))
            var = out
        elif kind == KIND_FILTER:
            lines.append("{}if not _f{}({}):".format(indent, index, var))
            lines.append(indent + "    continue")
        else:  # flatmap
            lines.append("{}for {} in _f{}({}):".format(
                indent, out, index, var
            ))
            indent += "    "
            var = out
    lines.append(indent + "yield " + var)
    source = "\n".join(lines)
    namespace: Dict[str, Any] = {}
    exec(compile(source, "<fused:{}>".format("+".join(kinds)), "exec"),
         namespace)
    fused = namespace["_fused"]
    fused._fusion_source = source
    _SEGMENT_CACHE[kinds] = fused
    return fused


def run_pipeline(
    ops: Sequence[NarrowOp], split: int, source: Iterator[Any]
) -> Iterator[Any]:
    """Compose ``ops`` over ``source`` for partition ``split``.

    Consecutive element-wise operators run as one generated loop;
    partition-level operators (``mapPartitions`` and friends) break the
    stream into segments but stay inside the same per-partition
    pipeline.  Every call builds fresh generators, so concurrent or
    repeated attempts at the same task never share state.
    """
    stream = source
    index = 0
    total = len(ops)
    while index < total:
        op = ops[index]
        if op.kind in _ELEMENT_KINDS:
            end = index
            while end < total and ops[end].kind in _ELEMENT_KINDS:
                end += 1
            segment = ops[index:end]
            fused = _compile_segment(tuple(op.kind for op in segment))
            stream = fused(stream, *[op.func for op in segment])
            index = end
        elif op.kind == KIND_PARTITION:
            stream = iter(op.func(stream))
            index += 1
        else:  # KIND_PARTITION_INDEX
            stream = iter(op.func(split, stream))
            index += 1
    return stream


def legacy_transform(
    kind: str, func: Callable
) -> Callable[[int, Iterator[Any]], Iterator[Any]]:
    """The unfused (one generator frame per operator) transform for
    ``kind`` — the pre-fusion evaluation path, kept as the reference
    semantics the property tests compare against."""
    if kind == KIND_MAP:
        return lambda _, part: (func(record) for record in part)
    if kind == KIND_FILTER:
        return lambda _, part: (r for r in part if func(r))
    if kind == KIND_FLATMAP:
        return lambda _, part: (
            out for record in part for out in func(record)
        )
    if kind == KIND_PARTITION:
        return lambda _, part: iter(func(part))
    if kind == KIND_PARTITION_INDEX:
        return lambda split, part: iter(func(split, part))
    raise ValueError("unknown narrow-op kind: {}".format(kind))


def fused_chain(rdd) -> List[NarrowOp]:
    """The operators this RDD fuses with, outermost parent first.

    Stops at the first ancestor that is not a fusable narrow child or
    that has materialized (cached) partitions — that ancestor is the
    pipeline's source.  Used by :meth:`RDD._compute_fused`, the explain
    output and the fusion tests.
    """
    ops: List[NarrowOp] = []
    node = rdd
    while node._fuse_op is not None and node._cache is None:
        ops.append(node._fuse_op)
        node = node._fuse_parent
    ops.reverse()
    return ops


def fusion_source(rdd):
    """The ancestor RDD a fused chain reads from (see :func:`fused_chain`)."""
    node = rdd
    while node._fuse_op is not None and node._cache is None:
        node = node._fuse_parent
    return node
