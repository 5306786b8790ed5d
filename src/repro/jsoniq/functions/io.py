"""Input functions: json-file, parallelize, collection, json-doc.

These are the two RDD-producing function iterators of the paper's Section
5.7 (plus convenience aliases).  They reach the Spark substrate through
``context.runtime`` — the engine configuration installed by
:class:`repro.core.engine.Rumble`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.items import Item, item_from_python
from repro.jsoniq.errors import DynamicException, TypeException
from repro.jsoniq.functions.registry import iterator_function, simple_function
from repro.jsoniq.jsonlines import iter_json_lines, parse_json_line
from repro.jsoniq.runtime.base import RuntimeIterator
from repro.jsoniq.runtime.dynamic_context import DynamicContext


def _runtime(context: DynamicContext):
    runtime = context.runtime
    if runtime is None:
        raise DynamicException(
            "no engine runtime is attached to this dynamic context"
        )
    return runtime


def _one_string_argument(
    iterator: RuntimeIterator, context: DynamicContext, name: str
) -> str:
    item = iterator.evaluate_atomic(context, name + " argument")
    if item is None or not item.is_string:
        raise TypeException(name + "() requires one string argument")
    return item.value


def _partition_count(
    argument: Optional[RuntimeIterator], context: DynamicContext, name: str
) -> Optional[int]:
    """The optional partition-count argument of ``name()``, or None when
    the call has none."""
    if argument is None:
        return None
    item = argument.evaluate_atomic(context, name + " partitions")
    if item is None or not item.is_numeric:
        raise TypeException(name + "() partition count must be a number")
    return int(item.value)


class _RddFunctionIterator(RuntimeIterator):
    """A function that produces an RDD (``get_rdd``) from its first
    argument and an optional partition count; the local API streams the
    RDD back partition by partition."""

    def __init__(self, arguments: List[RuntimeIterator]):
        super().__init__(arguments)
        self.argument = arguments[0]
        self.partitions = arguments[1] if len(arguments) > 1 else None

    def _generate(self, context: DynamicContext) -> Iterator[Item]:
        return self.get_rdd(context).to_local_iterator()

    def is_rdd(self, context: DynamicContext) -> bool:
        return True


def _parse_settings(runtime):
    """The engine's parse mode and corrupt-record field name."""
    config = runtime.config
    return config.parse_mode, config.corrupt_record_field


def _malformed_hook(faults, mode: str):
    """The ``on_malformed`` callback reporting every tolerated malformed
    line to the fault ledger (None under ``failfast``: nothing is
    tolerated)."""
    if mode == "failfast":
        return None
    kind = (
        "malformed_dropped" if mode == "dropmalformed"
        else "malformed_captured"
    )

    def on_malformed(line: str, error: Exception) -> None:
        faults.record(
            kind, "MalformedRecord", mode=mode, reason=str(error)[:120]
        )

    return on_malformed


def _json_lines_reader(on_malformed, mode: str, corrupt_field: str):
    """A partition-mapper decoding JSON lines under ``mode``, reporting
    tolerated malformed lines to ``on_malformed``."""
    if mode == "failfast":
        return iter_json_lines

    def read(lines) -> Iterator[Item]:
        return iter_json_lines(
            lines,
            mode=mode,
            corrupt_field=corrupt_field,
            on_malformed=on_malformed,
        )

    return read


@iterator_function("json-file", [1, 2])
class JsonFileIterator(_RddFunctionIterator):
    """``json-file($path[, $partitions])`` — a partitioned read of a
    JSON-Lines file, mapping text lines straight to items."""

    def get_rdd(self, context: DynamicContext):
        return self.scan(context)

    def _resolve(self, context: DynamicContext):
        """(runtime, path, min_partitions) of this read."""
        runtime = _runtime(context)
        path = _one_string_argument(self.argument, context, "json-file")
        min_partitions = _partition_count(
            self.partitions, context, "json-file"
        )
        return runtime, path, min_partitions

    def scan(self, context: DynamicContext, plan=None, batches: bool = False):
        """The one physical scan of the file, under ``plan`` (a
        :class:`~repro.jsoniq.runtime.flwor.pushdown.PushdownPlan`; None
        reads everything and prunes nothing).

        The item form decodes each block's lines straight to items,
        pruning records a pushed predicate definitely rejects before any
        item is built and re-checking the ones it cannot decide
        (``plan.recheck``).  With ``batches`` each block instead becomes
        one :class:`~repro.items.columnar.MaskedBatch` — same decode,
        same three-valued predicate semantics (vectorized into
        per-column masks) — whose consumers resolve and box surviving
        rows at the boundary (:meth:`MaskedBatch.iter_boxed`) or run
        batch kernels over ``survivors`` directly.  Both forms report
        the same ``rumble.pushdown.*`` counters; the batch form adds the
        ``rumble.columnar.*`` family.
        """
        from repro.jsoniq.runtime.base import _obs_of
        from repro.spark import storage
        from repro.spark.rdd import RDD

        runtime, path, min_partitions = self._resolve(context)
        mode, corrupt_field = _parse_settings(runtime)
        context_ = runtime.spark.spark_context
        blocks = storage.split_input(
            path,
            min_partitions=min_partitions,
            block_size=int(context_.conf.get("spark.storage.blockSize")),
        )
        predicates = tuple(plan.predicates) if plan is not None else ()
        obs = _obs_of(context)
        metrics = obs.metrics if obs is not None and plan is not None else None
        records_pruned = None
        if metrics is not None:
            metrics.counter("rumble.pushdown.scans").inc()
            # The projection is logged, not applied: lazy item wrapping
            # already defers unreferenced keys.
            if plan.effective_projection() is not None:
                metrics.counter("rumble.pushdown.projections").inc()
            if predicates:
                metrics.counter(
                    "rumble.pushdown.predicates"
                ).inc(len(predicates))
            records_pruned = metrics.counter("rumble.pushdown.records_pruned")
        if not blocks:
            return context_.empty_rdd()
        decode_errors = "strict" if mode == "failfast" else "replace"
        on_malformed = _malformed_hook(context_.faults, mode)

        def read_block(split: int):
            return blocks[split].read_lines(decode_errors=decode_errors)

        if not batches:
            lines = RDD(
                context_, read_block, len(blocks),
                name="textFile({})".format(path),
            )
            if plan is None:
                return lines.map_partitions(
                    _json_lines_reader(on_malformed, mode, corrupt_field)
                )
            from repro.jsoniq.jsonlines import iter_json_lines_pushed

            raw_predicates = tuple(
                predicate.raw for predicate in predicates
            )
            on_pruned = (
                records_pruned.inc if records_pruned is not None else None
            )
            recheck = plan.recheck(context)

            def read(lines_iter) -> Iterator[Item]:
                return iter_json_lines_pushed(
                    lines_iter,
                    predicates=raw_predicates,
                    mode=mode,
                    corrupt_field=corrupt_field,
                    on_malformed=on_malformed,
                    on_pruned=on_pruned,
                    recheck=recheck,
                )

            return lines.map_partitions(read)

        # The batch reader.  Shredded batches are cached process-wide by
        # block fingerprint, but only under ``failfast`` parsing: the
        # tolerant modes report every malformed line to the fault ledger
        # per scan, which a cache hit would silence.
        from repro.items.columnar import BATCH_CACHE, MaskedBatch
        from repro.jsoniq.jsonlines import shred_json_lines

        counters = None
        if metrics is not None:
            metrics.counter("rumble.columnar.scans").inc()
            counters = {
                "batches": metrics.counter("rumble.columnar.batches"),
                "shredded": metrics.counter("rumble.columnar.shredded_rows"),
                "escaped": metrics.counter("rumble.columnar.escaped_rows"),
                "pruned": metrics.counter("rumble.columnar.pruned_rows"),
                "mask_rows": metrics.counter("rumble.columnar.mask_rows"),
                "mask_selected": metrics.counter(
                    "rumble.columnar.mask_selected"
                ),
                "cache_hits": metrics.counter("rumble.columnar.cache_hits"),
                "records_pruned": records_pruned,
            }
        cacheable = mode == "failfast"
        ledger = getattr(context_, "columnar", None)

        def compute(split: int):
            block = blocks[split]
            batch = None
            key = None
            if cacheable:
                try:
                    key = block.fingerprint()
                except OSError:
                    key = None
                if key is not None:
                    batch = BATCH_CACHE.get(key)
            hit = batch is not None
            if batch is None:
                batch = shred_json_lines(
                    read_block(split),
                    mode=mode,
                    corrupt_field=corrupt_field,
                    on_malformed=on_malformed,
                )
                if key is not None:
                    BATCH_CACHE.put(key, batch)
            masked = MaskedBatch(batch, batch.apply_predicates(predicates))
            pruned = masked.pruned_count()
            if counters is not None:
                counters["batches"].inc()
                counters["shredded"].inc(batch.shredded_count)
                counters["escaped"].inc(len(batch.escaped))
                if hit:
                    counters["cache_hits"].inc()
                if predicates:
                    counters["records_pruned"].inc(pruned)
                    counters["pruned"].inc(pruned)
                    counters["mask_rows"].inc(batch.row_count)
                    counters["mask_selected"].inc(batch.row_count - pruned)
            if ledger is not None:
                ledger.record(
                    path=path,
                    block=(block.start, block.length),
                    rows=batch.row_count,
                    shredded=batch.shredded_count,
                    escaped=len(batch.escaped),
                    pruned=pruned,
                    cache_hit=hit,
                    schema=(
                        batch.schema.describe() if batch.schema is not None
                        else "(no objects sampled)"
                    ),
                )
            yield masked

        return RDD(
            context_, compute, len(blocks),
            name="columnarScan({})".format(path),
        )


@iterator_function("json-lines", [1, 2])
class JsonLinesIterator(JsonFileIterator):
    """Rumble's newer alias for ``json-file``."""


@iterator_function("structured-json-file", [1, 2])
class StructuredJsonFileIterator(_RddFunctionIterator):
    """``structured-json-file($path[, $partitions])`` — the DataFrame
    read path: schema inference plus record coercion, honouring the same
    parse modes as ``json-file`` (a corrupt line becomes a row whose
    fields are null except the corrupt-record column)."""

    def get_rdd(self, context: DynamicContext):
        from repro.jsoniq.jsonlines import _wrap_fast

        runtime = _runtime(context)
        path = _one_string_argument(
            self.argument, context, "structured-json-file"
        )
        min_partitions = _partition_count(
            self.partitions, context, "structured-json-file"
        )
        mode, corrupt_field = _parse_settings(runtime)
        frame = runtime.spark.read.json(
            path, min_partitions, mode=mode, corrupt_field=corrupt_field,
            faults=runtime.spark.spark_context.faults,
        )
        return frame.rdd.map(_wrap_fast)


@iterator_function("parallelize", [1, 2])
class ParallelizeIterator(_RddFunctionIterator):
    """``parallelize($seq[, $partitions])`` — force a local sequence onto
    the cluster, triggering Spark-enabled behaviour downstream."""

    def get_rdd(self, context: DynamicContext):
        runtime = _runtime(context)
        slices = _partition_count(self.partitions, context, "parallelize")
        items = self.argument.materialize(context)
        return runtime.spark.spark_context.parallelize(items, slices)


@iterator_function("collection", [1])
class CollectionIterator(_RddFunctionIterator):
    """``collection($name)`` — a named collection registered with the
    engine, resolving either to a storage URI or to in-memory items."""

    def _resolve(self, context: DynamicContext):
        runtime = _runtime(context)
        name = _one_string_argument(self.argument, context, "collection")
        try:
            return runtime.collections[name]
        except KeyError:
            raise DynamicException(
                "unknown collection {!r}".format(name), code="FODC0002"
            ) from None

    def get_rdd(self, context: DynamicContext):
        runtime = _runtime(context)
        name = _one_string_argument(self.argument, context, "collection")
        cached = runtime.collection_rdds.get(name)
        if cached is not None:
            return cached
        binding = self._resolve(context)
        if isinstance(binding, str):
            mode, corrupt_field = _parse_settings(runtime)
            lines = runtime.spark.spark_context.text_file(
                binding,
                decode_errors="strict" if mode == "failfast" else "replace",
            )
            on_malformed = _malformed_hook(
                runtime.spark.spark_context.faults, mode
            )
            rdd = lines.map_partitions(
                _json_lines_reader(on_malformed, mode, corrupt_field)
            )
        else:
            items = [
                item if isinstance(item, Item) else item_from_python(item)
                for item in binding
            ]
            rdd = runtime.spark.spark_context.parallelize(items)
        # Cache the materialized partitions: collections are typically the
        # small, repeatedly-joined side (the broadcast pattern).
        rdd.cache()
        runtime.collection_rdds[name] = rdd
        return rdd


@iterator_function("text-file", [1, 2])
class TextFileIterator(_RddFunctionIterator):
    """``text-file($path[, $partitions])`` — each line as a string item,
    read through the same partitioned storage layer as json-file."""

    def get_rdd(self, context: DynamicContext):
        from repro.items import StringItem

        runtime = _runtime(context)
        path = _one_string_argument(self.argument, context, "text-file")
        min_partitions = _partition_count(
            self.partitions, context, "text-file"
        )
        lines = runtime.spark.spark_context.text_file(path, min_partitions)
        return lines.map(StringItem)


@iterator_function("csv-file", [1, 2])
class CsvFileIterator(_RddFunctionIterator):
    """``csv-file($path[, $partitions])`` — CSV with a header row, each
    record becoming an object; numeric-looking fields become numbers.

    The header is read once on the driver; partitions then parse their
    own lines, skipping the header line in the first block.
    """

    def get_rdd(self, context: DynamicContext):
        import csv as csv_module

        from repro.spark import storage
        from repro.jsoniq.jsonlines import _wrap_fast

        runtime = _runtime(context)
        path = _one_string_argument(self.argument, context, "csv-file")
        min_partitions = _partition_count(
            self.partitions, context, "csv-file"
        )
        local = storage.REGISTRY.resolve(path)
        with open(local, "r", encoding="utf-8", newline="") as handle:
            header_line = handle.readline()
        header = next(csv_module.reader([header_line]))

        def parse_lines(lines) -> Iterator[Item]:
            for row in csv_module.reader(lines):
                if row == header:
                    continue  # the header line itself
                record = {}
                for name, raw in zip(header, row):
                    record[name] = _coerce_csv_value(raw)
                yield _wrap_fast(record)

        lines = runtime.spark.spark_context.text_file(path, min_partitions)
        return lines.map_partitions(parse_lines)


def _coerce_csv_value(raw: str):
    """CSV cells are text; recognize integers, floats and booleans."""
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw in ("true", "false"):
        return raw == "true"
    return raw


@simple_function("json-doc", [1])
def _json_doc(context, path_argument):
    """Read one whole JSON document (not JSON-Lines) as a single item."""
    if len(path_argument) != 1 or not path_argument[0].is_string:
        raise TypeException("json-doc() requires one string argument")
    from repro.spark import storage

    local = storage.REGISTRY.resolve(path_argument[0].value)
    with open(local, "r", encoding="utf-8") as handle:
        return [parse_json_line(handle.read().strip())]


@simple_function("parse-json", [1])
def _parse_json(context, text_argument):
    if len(text_argument) != 1 or not text_argument[0].is_string:
        raise TypeException("parse-json() requires one string argument")
    return [parse_json_line(text_argument[0].value)]
