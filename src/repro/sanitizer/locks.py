"""Instrumented locks and the global lock-order graph.

``san_lock(name)`` is the drop-in replacement for ``threading.Lock()``
used at every lock site in the repository.  With the sanitizer off it
returns a *plain* ``threading.Lock`` — the decision is taken once, at
lock construction, so the steady state pays nothing (no wrapper, no
branch, no extra attribute).  With the sanitizer on it returns a
:class:`SanLock` that, around the real lock, maintains:

* a per-thread stack of currently held locks (with cheap acquisition
  stacks captured by walking ``sys._getframe`` — ``traceback`` is an
  order of magnitude slower and would blow the 2x wall-clock budget);
* a process-wide *lock-order graph*: an edge ``A -> B`` whenever a
  thread acquires ``B`` while holding ``A``.  Locks are identified by
  their site **name** (lockdep's "lock class"), so two code paths that
  nest *instances* of the same two classes in opposite orders collide
  on the same pair of nodes even if no deadlock fires at runtime.

On each **new** edge the graph runs a depth-first reachability check;
a path ``B -> ... -> A`` closes a cycle and produces one
``potential-deadlock`` report carrying both acquisition stacks.  Each
edge is also checked against the documented hierarchy
(:mod:`repro.sanitizer.hierarchy`): an edge from a higher-ranked to a
lower-ranked name is a ``hierarchy-violation`` even when no cycle
exists yet.  Edges are recorded at acquisition *attempt* time, before
blocking on the real lock, so the report fires even for an acquisition
that would actually deadlock.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.sanitizer import reports as _reports
from repro.sanitizer.hierarchy import RANK
from repro.sanitizer.state import STATE, suppressed

Frame = Tuple[str, int, str]


def stack_from(frame, limit: int = 10) -> Tuple[Frame, ...]:
    """Walk an already-fetched frame into a cheap partial stack."""
    out: List[Frame] = []
    while frame is not None and len(out) < limit:
        code = frame.f_code
        out.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return tuple(out)


def capture_stack(skip: int = 2, limit: int = 10) -> Tuple[Frame, ...]:
    """A cheap partial stack: ``limit`` frames above ``skip`` callers."""
    try:
        frame = sys._getframe(skip)
    except ValueError:  # shallower than skip
        return ()
    return stack_from(frame, limit)


class _Held:
    __slots__ = ("lock", "name", "stack")

    def __init__(self, lock, name: str, stack: Tuple[Frame, ...]):
        self.lock = lock
        self.name = name
        self.stack = stack


_tls = threading.local()

#: Bumped on :func:`reset` to invalidate every thread's seen-context
#: cache (thread-locals cannot be cleared from the resetting thread).
_epoch = 0


def _held_stack() -> List[_Held]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _seen_contexts() -> set:
    """(held names, acquired name) tuples this thread fully analysed.

    Membership means every ``held -> name`` edge was already offered to
    the graph with a real acquisition stack, so the hot path can skip
    ``capture_stack`` — the dominant cost for per-item lock traffic
    like metrics increments."""
    if getattr(_tls, "seen_epoch", None) != _epoch:
        _tls.seen_epoch = _epoch
        _tls.seen = set()
    return _tls.seen


def held_lock_ids() -> FrozenSet[int]:
    """Identities of the locks the current thread holds (for locksets).

    Memoized against a push/pop version counter: tracked writes are far
    more frequent than lock transitions, so most calls hit the cache."""
    version = getattr(_tls, "version", 0)
    cached = getattr(_tls, "ids_cache", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    ids = frozenset(id(entry.lock) for entry in _held_stack())
    _tls.ids_cache = (version, ids)
    return ids


def held_any() -> bool:
    """Whether the current thread holds any sanitized lock."""
    return bool(getattr(_tls, "stack", None))


def _push(entry: _Held) -> None:
    _held_stack().append(entry)
    _tls.version = getattr(_tls, "version", 0) + 1


def _pop(lock, flush: bool = True) -> None:
    stack = _held_stack()
    for index in range(len(stack) - 1, -1, -1):
        if stack[index].lock is lock:
            del stack[index]
            _tls.version = getattr(_tls, "version", 0) + 1
            if flush and not stack:
                # Outermost release: now safe to mirror any reports
                # recorded while this thread was inside a lock (the
                # mirror itself takes observability locks).  Callers
                # must have physically released the inner lock first —
                # the mirror may need that very lock.  Condition waits
                # pass ``flush=False`` because the condition's lock is
                # still held at pop time.
                _reports.flush_mirror()
            return
    # Tolerate an unmatched release: the lock may have been acquired
    # before enable() or the entry dropped by a capture-window reset.


# -- The lock-order graph ----------------------------------------------------

_graph_lock = threading.Lock()  # plain on purpose
_edges: Dict[Tuple[str, str], Tuple[Tuple[Frame, ...], Tuple[Frame, ...]]] = {}
_succ: Dict[str, Set[str]] = {}
_reported_cycles: Set[FrozenSet[str]] = set()
_reported_ranks: Set[Tuple[str, str]] = set()


def _find_path(start: str, goal: str) -> Optional[List[str]]:
    """DFS in ``_succ`` (caller holds ``_graph_lock``)."""
    seen = {start}
    trail: List[str] = [start]

    def walk(node: str) -> bool:
        if node == goal:
            return True
        for nxt in _succ.get(node, ()):
            if nxt in seen:
                continue
            seen.add(nxt)
            trail.append(nxt)
            if walk(nxt):
                return True
            trail.pop()
        return False

    return trail if walk(start) else None


def _record_edge(held: _Held, name: str, stack: Tuple[Frame, ...]) -> None:
    key = (held.name, name)
    cycle_path: Optional[List[str]] = None
    rank_violation = False
    with _graph_lock:
        is_new = key not in _edges
        if is_new:
            _edges[key] = (held.stack, stack)
            _succ.setdefault(held.name, set()).add(name)
            path = _find_path(name, held.name)
            if path is not None:
                nodes = frozenset(path)
                if nodes not in _reported_cycles:
                    _reported_cycles.add(nodes)
                    cycle_path = path
        rank_from = RANK.get(held.name)
        rank_to = RANK.get(name)
        if (rank_from is not None and rank_to is not None
                and rank_from > rank_to and key not in _reported_ranks):
            _reported_ranks.add(key)
            rank_violation = True
    if rank_violation:
        _reports.record(
            "hierarchy-violation",
            "acquired {!r} (rank {}) while holding {!r} (rank {}); the "
            "documented order is {!r} before {!r}".format(
                name, rank_to, held.name, rank_from, name, held.name
            ),
            stacks=[
                ("holding " + held.name, held.stack),
                ("acquiring " + name, stack),
            ],
            edge=[held.name, name],
        )
    if cycle_path is not None:
        stacks = [("new edge: {} -> {}".format(held.name, name), stack)]
        with _graph_lock:
            for a, b in zip(cycle_path, cycle_path[1:]):
                recorded = _edges.get((a, b))
                if recorded is not None:
                    stacks.append(
                        ("prior edge: {} -> {}".format(a, b), recorded[1])
                    )
        _reports.record(
            "potential-deadlock",
            "lock-order cycle: {} (locks {} and {} are taken in both "
            "orders)".format(
                " -> ".join([held.name, name] + cycle_path[1:]),
                held.name, name,
            ),
            stacks=stacks,
            cycle=[held.name] + cycle_path,
        )


#: Representative first-acquisition stack per lock name, reused by the
#: seen-context fast path (reports triggered from a fast-path entry show
#: a representative earlier site instead of the literal one).
_name_stacks: Dict[str, Tuple[Frame, ...]] = {}


def _note_acquire(lock, reentrant: bool = False) -> Optional[_Held]:
    """Analysis run at acquisition-attempt time; returns the held-stack
    entry to push once the real acquire succeeds."""
    if not STATE.active:
        return None
    if suppressed():
        return _Held(lock, lock.name, ())
    held_stack = _held_stack()
    context = (tuple(entry.name for entry in held_stack), lock.name)
    seen = _seen_contexts()
    analysed = context in seen
    if analysed:
        # Every edge this acquisition can contribute was already offered
        # to the graph; skip the (dominant) stack capture.
        stack = _name_stacks.get(lock.name, ())
    else:
        stack = capture_stack(3)
        _name_stacks.setdefault(lock.name, stack)
    entry = _Held(lock, lock.name, stack)
    for held in held_stack:
        if held.lock is lock:
            if not reentrant:
                _reports.record(
                    "recursive-lock",
                    "non-reentrant lock {!r} re-acquired by the thread "
                    "already holding it (guaranteed deadlock)".format(
                        lock.name
                    ),
                    stacks=[
                        ("first acquisition", held.stack),
                        ("re-acquisition",
                         stack if stack else capture_stack(3)),
                    ],
                )
            continue
        if held.name == lock.name:
            # Two sibling instances of one lock class: no ordering
            # information (the graph is keyed by class name).
            continue
        if not analysed:
            _record_edge(held, lock.name, stack)
    if not analysed:
        seen.add(context)
    return entry


class SanLock:
    """An instrumented non-reentrant mutex (``threading.Lock`` shape)."""

    __slots__ = ("name", "_inner")

    def __init__(self, name: str = "lock"):
        self.name = name
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        entry = _note_acquire(self)
        ok = self._inner.acquire(blocking, timeout)
        if ok and entry is not None:
            _push(entry)
        return ok

    def release(self) -> None:
        # Physical release first: _pop may flush deferred report
        # mirroring, which acquires observability locks — if this lock
        # *is* one of those, popping first would self-deadlock.  The
        # held stack is thread-local, so the reorder is safe.
        self._inner.release()
        _pop(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "SanLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class SanRLock:
    """An instrumented reentrant mutex (``threading.RLock`` shape).

    Only the outermost acquisition records graph edges and held-stack
    state; nested re-acquisitions by the owning thread are free.
    """

    __slots__ = ("name", "_inner", "_local")

    def __init__(self, name: str = "rlock"):
        self.name = name
        self._inner = threading.RLock()
        self._local = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        depth = getattr(self._local, "depth", 0)
        entry = _note_acquire(self, reentrant=True) if depth == 0 else None
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._local.depth = depth + 1
            if entry is not None:
                _push(entry)
        return ok

    def release(self) -> None:
        depth = getattr(self._local, "depth", 1) - 1
        self._local.depth = depth
        # Physical release before _pop, as in SanLock.release: the
        # deferred-mirror flush must never run while this lock is held.
        self._inner.release()
        if depth == 0:
            _pop(self)

    def __enter__(self) -> "SanRLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class SanCondition:
    """An instrumented condition variable over a :class:`SanLock`.

    ``wait()`` releases the underlying lock inside the real condition,
    so the held-stack entry is popped for the duration and re-pushed
    (with a fresh stack) on wakeup — otherwise every lock acquired by
    the *woken* thread would appear nested inside the condition's lock.
    """

    __slots__ = ("name", "_san", "_inner")

    def __init__(self, lock: Optional[SanLock] = None,
                 name: str = "condition"):
        self._san = lock if lock is not None else SanLock(name)
        self.name = self._san.name
        self._inner = threading.Condition(self._san._inner)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._san.acquire(blocking, timeout)

    def release(self) -> None:
        self._san.release()

    def __enter__(self) -> "SanCondition":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        # flush=False: the condition's lock is still physically held
        # here (the inner wait() releases it); flushing the deferred
        # report mirror now could re-acquire that very lock.  Pending
        # reports flush on the eventual plain release.
        _pop(self._san, flush=False)
        try:
            return self._inner.wait(timeout)
        finally:
            if STATE.active:
                _push(_Held(self._san, self.name, capture_stack(2)))

    def wait_for(self, predicate, timeout: Optional[float] = None):
        _pop(self._san, flush=False)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            if STATE.active:
                _push(_Held(self._san, self.name, capture_stack(2)))

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


# -- Factories: the only API the rest of the repository uses -----------------

def san_lock(name: str = "lock"):
    """A mutex for site ``name``: plain when the sanitizer is off."""
    if not STATE.active:
        return threading.Lock()
    return SanLock(name)


def san_rlock(name: str = "rlock"):
    if not STATE.active:
        return threading.RLock()
    return SanRLock(name)


def san_condition(name: str = "condition", lock=None):
    if not STATE.active:
        return threading.Condition(lock)
    if lock is not None and not isinstance(lock, SanLock):
        # Silently substituting a fresh lock would let enabling the
        # sanitizer change synchronization semantics: callers
        # coordinating via the original mutex would lose mutual
        # exclusion with the condition's waiters.
        raise TypeError(
            "san_condition(lock=...) needs a SanLock under the "
            "sanitizer (got {}); build the lock with "
            "san_lock()".format(type(lock).__name__)
        )
    return SanCondition(lock=lock, name=name)


def edges() -> Dict[Tuple[str, str], tuple]:
    with _graph_lock:
        return dict(_edges)


def reset() -> None:
    """Forget the observed graph (tests; enable/disable transitions)."""
    global _epoch
    with _graph_lock:
        _edges.clear()
        _succ.clear()
        _reported_cycles.clear()
        _reported_ranks.clear()
        _name_stacks.clear()
        _epoch += 1
