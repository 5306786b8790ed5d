"""SparkConf, SparkContext and the session entry point of the substrate."""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional

from repro.sanitizer import san_lock, shared_state
from repro.spark.cluster import ExecutorPool
from repro.spark.faults import FaultManager
from repro.spark.memory import MemoryManager
from repro.spark.shuffle import AdaptiveRuntime, ShuffleMetrics
from repro.spark import storage


def _env_memory_budget() -> Optional[int]:
    """Default memory budget from ``RUMBLE_MEMORY_BUDGET`` (bytes): lets
    CI force eviction and spill onto an unmodified test suite."""
    raw = os.environ.get("RUMBLE_MEMORY_BUDGET", "").strip()
    if not raw:
        return None
    return int(raw)


@shared_state
class ColumnarLedger:
    """Per-context shred statistics of the last run's columnar scans.

    One entry per scanned block (capped: only the most recent
    :attr:`CAP` survive), appended by the batch scan and rendered
    by ``explain()``'s "Columnar (last run)" section.  Thread executors
    append concurrently, hence the hierarchy lock
    (``spark.columnar.ledger`` — acquired *after* the scan released the
    batch-cache lock, never inside it).
    """

    CAP = 16

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []
        #: Blocks dropped once ``entries`` hit :attr:`CAP`.
        self.truncated = 0
        self._lock = san_lock("spark.columnar.ledger")

    def record(self, **fields: Any) -> None:
        with self._lock:
            if len(self.entries) >= self.CAP:
                self.truncated += 1
                return
            self.entries.append(fields)

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self.entries)

    def reset(self) -> None:
        with self._lock:
            self.entries.clear()
            self.truncated = 0


class SparkConf:
    """A tiny key-value configuration, mirroring Spark's SparkConf."""

    def __init__(self, **settings: Any):
        self._settings: Dict[str, Any] = {
            "spark.default.parallelism": 8,
            "spark.executor.instances": 4,
            "spark.executor.mode": "inline",
            "spark.storage.blockSize": storage.DEFAULT_BLOCK_SIZE,
            # -- Fault tolerance (see docs/fault_tolerance.md) --------------
            "spark.task.maxRetries": 3,
            "spark.task.timeoutSeconds": None,
            "spark.task.retryBackoffSeconds": 0.0,
            "spark.speculation": True,
            "spark.blacklist.threshold": 2,
            #: A :class:`repro.spark.faults.FaultPlan` instance, or None.
            "spark.chaos.plan": None,
            #: Whole-pipeline fusion of narrow transformations (see
            #: :mod:`repro.spark.fusion` and docs/performance.md).
            "spark.fusion.enabled": True,
            # -- Adaptive execution (see docs/performance.md) ---------------
            "spark.adaptive.enabled": True,
            "spark.adaptive.targetPartitionBytes": 1 << 20,
            "spark.adaptive.targetPartitionRecords": 4096,
            "spark.adaptive.skewFactor": 4.0,
            # -- Unified memory manager (None = unbounded, zero overhead) ---
            "spark.memory.budgetBytes": _env_memory_budget(),
        }
        self._settings.update(settings)

    def set(self, key: str, value: Any) -> "SparkConf":
        self._settings[key] = value
        return self

    def get(self, key: str, default: Any = None) -> Any:
        return self._settings.get(key, default)


class SparkContext:
    """The driver-side handle: creates RDDs and owns the executor pool."""

    def __init__(self, conf: Optional[SparkConf] = None):
        self.conf = conf or SparkConf()
        self.default_parallelism = int(
            self.conf.get("spark.default.parallelism")
        )
        #: Recovery ledger (and optional chaos plan) shared by the
        #: executor pool, the shuffle read path and the parse modes.
        self.faults = FaultManager(self.conf.get("spark.chaos.plan"))
        timeout = self.conf.get("spark.task.timeoutSeconds")
        self.executors = ExecutorPool(
            num_executors=int(self.conf.get("spark.executor.instances")),
            mode=self.conf.get("spark.executor.mode"),
            max_retries=int(self.conf.get("spark.task.maxRetries", 3)),
            faults=self.faults,
            speculation=bool(self.conf.get("spark.speculation", True)),
            blacklist_threshold=int(
                self.conf.get("spark.blacklist.threshold", 2)
            ),
            task_timeout=float(timeout) if timeout is not None else None,
            retry_backoff=float(
                self.conf.get("spark.task.retryBackoffSeconds", 0.0)
            ),
        )
        self.shuffle_metrics = ShuffleMetrics()
        #: Consulted by every narrow derivation (see RDD._derive_narrow).
        self.fusion_enabled = bool(
            self.conf.get("spark.fusion.enabled", True)
        )
        #: Adaptive-execution knobs + re-plan ledger, consulted by every
        #: default-count wide transformation (see RDD._shuffled).
        self.adaptive = AdaptiveRuntime(
            enabled=bool(self.conf.get("spark.adaptive.enabled", True)),
            target_bytes=int(
                self.conf.get("spark.adaptive.targetPartitionBytes", 1 << 20)
            ),
            skew_factor=float(
                self.conf.get("spark.adaptive.skewFactor", 4.0)
            ),
            target_records=int(
                self.conf.get("spark.adaptive.targetPartitionRecords", 4096)
            ),
        )
        #: The unified memory budget over cached partitions and shuffle
        #: buckets; inert (no weighing, no spill) when the budget is None.
        self.memory = MemoryManager(
            budget=self.conf.get("spark.memory.budgetBytes")
        )
        #: Shred statistics of the last run's columnar scans, rendered
        #: by explain() (see flwor/columnar.py and items/columnar.py).
        self.columnar = ColumnarLedger()
        #: The active observability bundle (None when not profiling);
        #: installed/removed by :meth:`repro.obs.Observability.attach`.
        self.obs = None
        #: The active request's cancel token (None outside a request
        #: lifecycle); installed by ``Rumble.cancel_scope`` alongside the
        #: executor pool's copy, consulted by driver-side iteration.
        self.cancel = None
        self._next_rdd_id = 0
        self._next_shuffle_id = 0

    # -- RDD creation --------------------------------------------------------
    def parallelize(self, data: Iterable[Any], num_slices: Optional[int] = None):
        """Distribute a local collection into an RDD."""
        from repro.spark.rdd import RDD

        records: List[Any] = list(data)
        slices = num_slices or min(self.default_parallelism, max(1, len(records)))
        slices = max(1, slices)
        chunk = -(-len(records) // slices) if records else 1
        partitions = [
            records[i * chunk:(i + 1) * chunk] for i in range(slices)
        ]

        def compute(split: int):
            return iter(partitions[split])

        return RDD(self, compute, len(partitions), name="parallelize")

    def empty_rdd(self):
        return self.parallelize([], 1)

    def text_file(self, uri: str, min_partitions: Optional[int] = None,
                  decode_errors: str = "strict"):
        """Read a text file (or directory) as an RDD of lines.

        The file is split into HDFS-style blocks; each block becomes one
        partition, so partition count tracks input size exactly as in Spark.
        ``decode_errors`` is handed to the UTF-8 decoder — the tolerant
        parse modes pass ``"replace"`` so undecodable bytes surface as
        malformed records instead of aborting the whole read.
        """
        from repro.spark.rdd import RDD

        blocks = storage.split_input(
            uri,
            min_partitions=min_partitions,
            block_size=int(self.conf.get("spark.storage.blockSize")),
        )

        def compute(split: int):
            return blocks[split].read_lines(decode_errors=decode_errors)

        return RDD(self, compute, len(blocks), name="textFile({})".format(uri))

    # PySpark-style aliases, so baseline code reads like the paper's Figure 2.
    textFile = text_file

    # -- Bookkeeping ---------------------------------------------------------
    def next_rdd_id(self) -> int:
        self._next_rdd_id += 1
        return self._next_rdd_id

    def next_shuffle_id(self) -> int:
        shuffle_id = self._next_shuffle_id
        self._next_shuffle_id += 1
        return shuffle_id

    def reset_metrics(self) -> None:
        self.executors.reset_metrics()
        self.shuffle_metrics.reset()
        self.faults.reset()
        self.adaptive.reset()
        self.memory.reset_counters()
        self.columnar.reset()


class SparkSession:
    """The unified entry point (``SparkSession.builder...``-style)."""

    def __init__(self, context: Optional[SparkContext] = None):
        self.spark_context = context or SparkContext()
        from repro.spark.sql.catalog import Catalog

        self.catalog = Catalog()

    @property
    def sparkContext(self) -> SparkContext:  # noqa: N802 - PySpark spelling
        return self.spark_context

    @property
    def read(self):
        from repro.spark.dataframe import DataFrameReader

        return DataFrameReader(self)

    def create_dataframe(self, rows, schema=None):
        from repro.spark.dataframe import DataFrame, dataframe_from_rows

        return dataframe_from_rows(self, rows, schema)

    createDataFrame = create_dataframe

    def sql(self, query: str):
        """Run a Spark SQL query against the registered temp views."""
        from repro.spark.sql.executor import run_sql

        return run_sql(self, query)
