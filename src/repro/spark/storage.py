"""Storage layer standing in for HDFS and S3.

Rumble reads JSON-Lines files "in place" from HDFS or S3 (paper, Section 2
and 5.7).  This module provides the equivalent substrate: a URI-schemed
filesystem abstraction where ``hdfs://`` and ``s3://`` paths are mapped to
directories on the local disk, and text files are split into *blocks* the
same way HDFS blocks determine Spark's input partitions.

A process-wide :class:`FileSystemRegistry` lets tests and benchmarks mount
scheme roots (e.g. mount ``hdfs://`` onto a temp dir) without monkeypatching.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sanitizer import san_lock, shared_state

#: Default block size used to split files into partitions (bytes).  Real
#: HDFS uses 128 MB; we default far smaller so laptop-scale files still
#: produce multi-partition RDDs.
DEFAULT_BLOCK_SIZE = 4 * 1024 * 1024


class StorageError(IOError):
    """A path could not be resolved or read."""


@dataclass(frozen=True)
class FileBlock:
    """One block of a text file: a byte range of ``path``.

    Reading a block yields every line that *starts* inside the range, which
    is how Hadoop input splits avoid duplicating lines across blocks.
    """

    path: str
    start: int
    length: int

    def fingerprint(self) -> Tuple:
        """The block's cache identity: its byte range plus the file's
        stat fingerprint, so the shredded-batch cache invalidates on any
        rewrite (same signal as :func:`fingerprint_uri`).  Raises
        ``OSError`` if the file vanished — callers skip caching then."""
        stat = os.stat(self.path)
        return (self.path, self.start, self.length,
                stat.st_size, stat.st_mtime_ns)

    def read_lines(self, decode_errors: str = "strict") -> Iterator[str]:
        """Yield the block's lines.  ``decode_errors`` follows the codec
        convention (``"strict"``, ``"replace"``, ...): the tolerant parse
        modes read with ``"replace"`` so one undecodable byte becomes a
        malformed *record* rather than aborting the whole partition."""
        end = self.start + self.length
        with open(self.path, "rb") as handle:
            if self.start > 0:
                # Hadoop's LineRecordReader rule: back up one byte and
                # discard a line, so a line *starting exactly at* the
                # boundary belongs to this block while a straddling line
                # belongs to the previous one.
                handle.seek(self.start - 1)
                handle.readline()
            else:
                handle.seek(0)
            while handle.tell() < end:
                line = handle.readline()
                if not line:
                    return
                text = line.decode(
                    "utf-8", errors=decode_errors
                ).rstrip("\n").rstrip("\r")
                if text:
                    yield text


@shared_state
class FileSystemRegistry:
    """Maps URI schemes (``hdfs``, ``s3``, ``file``) to local roots."""

    def __init__(self) -> None:
        self._mounts: Dict[str, str] = {}
        # The registry is process-wide shared state; concurrently serving
        # engines (repro.server) mount and resolve from many threads.
        self._lock = san_lock("spark.storage.registry")

    def mount(self, scheme: str, root: str) -> None:
        """Serve ``scheme://...`` paths from the local directory ``root``."""
        with self._lock:
            self._mounts[scheme] = os.path.abspath(root)

    def unmount(self, scheme: str) -> None:
        with self._lock:
            self._mounts.pop(scheme, None)

    def resolve(self, uri: str) -> str:
        """Translate a URI into a local filesystem path."""
        scheme, rest = split_uri(uri)
        if scheme in (None, "file"):
            return rest
        with self._lock:
            root = self._mounts.get(scheme)
        if root is None:
            raise StorageError(
                "no filesystem mounted for scheme {!r} (uri {!r})".format(
                    scheme, uri
                )
            )
        return os.path.join(root, rest.lstrip("/"))


def split_uri(uri: str) -> Tuple[Optional[str], str]:
    """Split ``scheme://path`` into its scheme and path parts."""
    if "://" in uri:
        scheme, _, rest = uri.partition("://")
        return scheme, "/" + rest.lstrip("/")
    return None, uri


#: The process-wide registry used by SparkContext.textFile and json-file().
REGISTRY = FileSystemRegistry()


def split_file(
    local_path: str,
    min_partitions: Optional[int] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[FileBlock]:
    """Split one file into blocks, honouring a minimum partition count."""
    if not os.path.exists(local_path):
        raise StorageError("no such file: " + local_path)
    size = os.path.getsize(local_path)
    if size == 0:
        return [FileBlock(local_path, 0, 0)]
    if min_partitions:
        block_size = min(block_size, max(1, -(-size // min_partitions)))
    blocks = []
    offset = 0
    while offset < size:
        length = min(block_size, size - offset)
        blocks.append(FileBlock(local_path, offset, length))
        offset += length
    return blocks


def list_input_files(local_path: str) -> List[str]:
    """Expand a path into concrete files (a directory reads all its files,
    skipping Hadoop-style ``_SUCCESS`` markers and dotfiles)."""
    if os.path.isdir(local_path):
        names = sorted(
            name
            for name in os.listdir(local_path)
            if not name.startswith((".", "_"))
        )
        return [os.path.join(local_path, name) for name in names]
    return [local_path]


def fingerprint_uri(uri: str) -> Tuple:
    """The lineage fingerprint of the input behind a URI.

    A tuple of ``(path, size, mtime_ns)`` per concrete file the URI
    expands to — the result cache's invalidation signal: any append,
    rewrite, rotation, or even a same-size in-place edit (mtime moves)
    changes the fingerprint.  An unresolvable or missing input yields a
    distinct ``("missing", uri)`` marker so a cached error state never
    masks a file that has since appeared.
    """
    try:
        local = REGISTRY.resolve(uri)
        files = list_input_files(local)
        return tuple(
            (path, stat.st_size, stat.st_mtime_ns)
            for path, stat in (
                (path, os.stat(path)) for path in sorted(files)
            )
        )
    except (StorageError, OSError):
        return ("missing", uri)


def split_input(
    uri: str,
    min_partitions: Optional[int] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[FileBlock]:
    """Resolve a URI and split the file(s) behind it into blocks."""
    local = REGISTRY.resolve(uri)
    blocks: List[FileBlock] = []
    for path in list_input_files(local):
        blocks.extend(split_file(path, min_partitions, block_size))
    if min_partitions and len(blocks) < min_partitions:
        blocks = _resplit(blocks, min_partitions)
    return blocks


def _resplit(blocks: List[FileBlock], want: int) -> List[FileBlock]:
    """Split existing blocks further until at least ``want`` exist."""
    blocks = list(blocks)
    while len(blocks) < want:
        blocks.sort(key=lambda b: b.length, reverse=True)
        big = blocks.pop(0)
        if big.length <= 1:
            blocks.append(big)
            break
        half = big.length // 2
        blocks.append(FileBlock(big.path, big.start, half))
        blocks.append(FileBlock(big.path, big.start + half, big.length - half))
    return sorted(blocks, key=lambda b: (b.path, b.start))


def write_partitioned_text(
    uri: str, partitions: List[List[str]]
) -> List[str]:
    """Write lines as Hadoop-style ``part-NNNNN`` files plus ``_SUCCESS``.

    This is the parallel write-back path of the paper's Section 5.4: when
    the root iterator supports the RDD API, results go straight back to
    storage without materializing on the driver.
    """
    local = REGISTRY.resolve(uri)
    os.makedirs(local, exist_ok=True)
    written = []
    for index, lines in enumerate(partitions):
        path = os.path.join(local, "part-{:05d}".format(index))
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
        written.append(path)
    open(os.path.join(local, "_SUCCESS"), "w").close()
    return written


# ---------------------------------------------------------------------------
# Disk tier for the memory manager: spilled partitions and shuffle buckets.
# ---------------------------------------------------------------------------

#: Storage levels for ``RDD.persist(level)``.  ``MEMORY_ONLY`` (the
#: ``cache()`` default) drops evicted partitions and recomputes them from
#: lineage; ``MEMORY_AND_DISK`` writes them to a :class:`SpillStore`
#: block instead, so eviction costs a disk read rather than a recompute.
MEMORY_ONLY = "MEMORY_ONLY"
MEMORY_AND_DISK = "MEMORY_AND_DISK"
STORAGE_LEVELS = (MEMORY_ONLY, MEMORY_AND_DISK)


class SpillHandle:
    """A lazily-read pickled block written by :class:`SpillStore`.

    Iterating the handle re-reads the block from disk each time, so a
    spilled shuffle bucket or cached partition can be consumed by
    retried and speculative task attempts exactly like its in-memory
    form (the data is immutable once written — exactly-once semantics
    reduce to reading the same bytes again).
    """

    __slots__ = ("store", "path", "records", "bytes", "released")

    def __init__(self, store: "SpillStore", path: str, records: int,
                 size: int):
        self.store = store
        self.path = path
        self.records = records
        self.bytes = size
        self.released = False

    def read(self) -> list:
        return self.store.read(self)

    def __iter__(self):
        return iter(self.read())

    def release(self) -> None:
        self.store.release(self)


class SpillStore:
    """The disk tier: one temp directory of pickled blocks.

    Created lazily on first spill so unbounded-memory runs never touch
    the filesystem.  Blocks are immutable after :meth:`put`; they are
    removed by :meth:`release` (unpersist / shuffle-state invalidation)
    or wholesale by :meth:`clear`.
    """

    def __init__(self, directory: Optional[str] = None):
        self._directory = directory
        self._sequence = 0
        self.spilled_blocks = 0
        self.spilled_bytes = 0

    @property
    def directory(self) -> str:
        if self._directory is None:
            import tempfile

            self._directory = tempfile.mkdtemp(prefix="rumble-spill-")
        return self._directory

    def put(self, records: list) -> SpillHandle:
        import pickle

        payload = pickle.dumps(list(records), protocol=4)
        self._sequence += 1
        path = os.path.join(
            self.directory, "block-{:06d}.bin".format(self._sequence)
        )
        with open(path, "wb") as handle:
            handle.write(payload)
        self.spilled_blocks += 1
        self.spilled_bytes += len(payload)
        return SpillHandle(self, path, len(records), len(payload))

    def read(self, handle: SpillHandle) -> list:
        import pickle

        if handle.released:
            raise StorageError("spill block already released: " + handle.path)
        with open(handle.path, "rb") as stream:
            return pickle.loads(stream.read())

    def release(self, handle: SpillHandle) -> None:
        if handle.released:
            return
        handle.released = True
        try:
            os.remove(handle.path)
        except OSError:
            pass

    def clear(self) -> None:
        if self._directory is None:
            return
        import shutil

        shutil.rmtree(self._directory, ignore_errors=True)
        self._directory = None
