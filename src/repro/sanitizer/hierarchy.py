"""The documented lock hierarchy of the serving stack.

``LOCK_ORDER`` lists every named lock in the repository from outermost
to innermost: a thread holding lock *i* may acquire lock *j* only when
``j`` appears **after** ``i`` in this list.  The ordering is derived
from the real nesting in the code (see ``docs/concurrency.md``):

* a serving worker holds its ``Session`` lock for the whole query, so
  everything the engine touches — caches, the executor pool, fault
  ledgers, the memory manager, storage, cancel tokens, metrics, the
  event log — nests inside it;
* the memory manager calls out to observability (counters + events)
  while shrinking, so ``spark.memory`` ranks before all ``obs.*``;
* metric instruments (``Counter``/``Gauge``) are leaves: nothing is
  ever acquired while holding one.

The runtime detector reports any acquisition edge that contradicts
this order (``hierarchy-violation``) and, independently, any cycle in
the observed edge graph (``potential-deadlock``) — so an undocumented
lock can still be caught by the cycle check.  The static ``RSL004``
rule enforces the same table over lexically nested ``with`` blocks,
using ``SITE_ATTRS`` to map ``self._lock``-style sites to lock names.
"""

from __future__ import annotations

from typing import Dict, Tuple

LOCK_ORDER: Tuple[str, ...] = (
    "server.session",
    "server.service.busy",
    "server.plan_cache",
    "server.result_cache",
    "spark.cluster.pool",
    "spark.faults.plan",
    "spark.faults.manager",
    "spark.memory",
    "spark.shuffle.stats",
    "spark.storage.registry",
    "spark.columnar.ledger",
    "items.columnar.batch_cache",
    "cancel.token",
    "obs.metrics.registry",
    "obs.events",
    "obs.metrics.instrument",
)

RANK: Dict[str, int] = {name: rank for rank, name in enumerate(LOCK_ORDER)}

#: ``(class name, attribute name) -> lock name`` for the static lint:
#: inside class ``C``, ``with self.<attr>:`` acquires the named lock.
SITE_ATTRS: Dict[Tuple[str, str], str] = {
    ("Session", "_lock"): "server.session",
    ("QueryService", "_busy_lock"): "server.service.busy",
    ("PlanCache", "_lock"): "server.plan_cache",
    ("ResultCache", "_lock"): "server.result_cache",
    ("ExecutorPool", "_lock"): "spark.cluster.pool",
    ("FaultPlan", "_lock"): "spark.faults.plan",
    ("FaultManager", "_lock"): "spark.faults.manager",
    ("MemoryManager", "_lock"): "spark.memory",
    ("ShuffleStats", "_lock"): "spark.shuffle.stats",
    ("FileSystemRegistry", "_lock"): "spark.storage.registry",
    ("ColumnarLedger", "_lock"): "spark.columnar.ledger",
    ("ColumnBatchCache", "_lock"): "items.columnar.batch_cache",
    ("CancelToken", "_lock"): "cancel.token",
    ("MetricsRegistry", "_lock"): "obs.metrics.registry",
    ("EventLog", "_lock"): "obs.events",
    ("Counter", "_lock"): "obs.metrics.instrument",
    ("Gauge", "_lock"): "obs.metrics.instrument",
}
