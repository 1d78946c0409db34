"""Zero-copy chunk transport over POSIX shared memory.

The supervised runner ships every completed chunk from a worker process
back to the supervisor as a dict of NumPy arrays.  By default that trip
is a pickle: the worker serialises each array into the result pipe and
the parent deserialises it — two full copies plus framing for payloads
that are nothing but raw ``float64`` buffers.  For a large payload (a
30,000-draw Fig. 6 chunk) this serialisation tax is pure overhead.

This module provides the alternative: the worker packs the chunk's
arrays into one :class:`multiprocessing.shared_memory.SharedMemory`
segment and returns a tiny :class:`ShmChunk` descriptor (segment name
plus per-array dtype/shape/offset specs).  The parent attaches the
segment, materialises the arrays straight out of the mapped buffer,
then closes and unlinks it.  Only the descriptor crosses the pickle
boundary.  The supervised runner encodes the result of every pooled
chunk attempt, whoever opened the pool; in-process attempts never
encode.

Fallback rules — the transport **never** changes results, it only
changes how bytes move, so every fallback silently returns the plain
dict for ordinary pickling:

* the chunk is small (``total nbytes <`` :data:`MIN_SHM_BYTES`) —
  pickling small results is faster than a segment round-trip;
* a value is not an ``ndarray``, or its dtype is ``object`` (pointer
  arrays cannot live in shared memory);
* the segment cannot be created: ``multiprocessing.shared_memory``
  does not import (``ImportError``, a platform without it), or
  allocation fails (``OSError`` — ``/dev/shm`` absent or full).

Leak discipline: segments are created in workers and unlinked by
exactly one parent-side consumer (:func:`decode_chunk`), or by
:func:`release_chunk` when a supervisor abandons a completed-but-
unconsumed future (pool rebuild, watchdog cancellation, interrupt).
Both are idempotent — a second unlink of the same segment is a no-op —
and every segment name carries :data:`SHM_NAME_PREFIX` so tests can
assert nothing is left behind by scanning ``/dev/shm``.

The parent must start the ``multiprocessing`` resource tracker *before*
the worker pool forks (:func:`ensure_resource_tracker`); otherwise each
forked worker lazily spawns its own tracker, the parent's ``unlink``
never reaches it, and interpreter shutdown prints spurious
leaked-segment warnings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from threading import Lock
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

ChunkResult = Dict[str, np.ndarray]

#: Every segment this module creates starts with this name prefix, so a
#: test (or an operator) can find orphans with ``ls /dev/shm``.
SHM_NAME_PREFIX = "repro_shm_"

#: Below this payload size a pickle round-trip beats a segment
#: create/attach/unlink cycle; measured crossover is tens of KiB.
MIN_SHM_BYTES = 1 << 16


@dataclass(frozen=True)
class _ArraySpec:
    """Where one named array lives inside a segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int


@dataclass(frozen=True)
class ShmChunk:
    """Descriptor of one chunk result parked in a shared-memory segment."""

    segment: str
    specs: Tuple[_ArraySpec, ...]
    total_bytes: int


class TransportStats:
    """Thread-safe parent-side counters of how chunk bytes travelled.

    Lives on the supervisor side only (it holds a lock, so it must
    never ride into a worker); the suite summary reads it to report
    transport bytes per run.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self.shm_chunks = 0
        self.shm_bytes = 0
        self.pickled_chunks = 0
        self.pickled_bytes = 0

    def record_shm(self, nbytes: int) -> None:
        with self._lock:
            self.shm_chunks += 1
            self.shm_bytes += nbytes

    def record_pickled(self, nbytes: int) -> None:
        with self._lock:
            self.pickled_chunks += 1
            self.pickled_bytes += nbytes

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {"shm_chunks": self.shm_chunks,
                    "shm_bytes": self.shm_bytes,
                    "pickled_chunks": self.pickled_chunks,
                    "pickled_bytes": self.pickled_bytes}


def ensure_resource_tracker() -> None:
    """Start the parent's resource tracker before any pool forks.

    Workers inherit the running tracker, so a segment registered at
    worker-side creation is unregistered by the parent-side unlink in
    the *same* tracker — no spurious "leaked shared_memory" warnings at
    shutdown.  Best-effort: the tracker is a private API, so failures
    degrade to pickled transport semantics rather than erroring.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
    except Exception:
        pass


# ---------------------------------------------------------------------------
# Worker side: encode
# ---------------------------------------------------------------------------

_SEQUENCE = 0


def _segment_name() -> str:
    """A collision-resistant, prefix-tagged segment name."""
    global _SEQUENCE
    _SEQUENCE += 1
    # OS entropy names an IPC segment; it never feeds a result stream.
    token = os.urandom(4).hex()  # repro-lint: disable=RPR302
    return f"{SHM_NAME_PREFIX}{os.getpid()}_{_SEQUENCE}_{token}"


def _eligible(result: ChunkResult) -> Optional[List[Tuple[str, np.ndarray]]]:
    """The arrays to pack, or ``None`` when the chunk must pickle."""
    arrays: List[Tuple[str, np.ndarray]] = []
    total = 0
    for name, value in result.items():
        if not isinstance(value, np.ndarray) or value.dtype.hasobject:
            return None
        arrays.append((name, value))
        total += value.nbytes
    if total < MIN_SHM_BYTES:
        return None
    return arrays


def encode_chunk(result: ChunkResult) -> Union[ChunkResult, ShmChunk]:
    """Pack a chunk result into shared memory (worker side).

    Returns the original dict whenever any fallback rule applies; the
    caller pickles whatever comes back, so the function can never fail
    a chunk — at worst it declines the optimisation.
    """
    arrays = _eligible(result)
    if arrays is None:
        return result

    specs: List[_ArraySpec] = []
    offset = 0
    packed: List[Tuple[int, np.ndarray]] = []
    for name, value in arrays:
        contiguous = np.ascontiguousarray(value)
        specs.append(_ArraySpec(name=name, dtype=contiguous.dtype.str,
                                shape=tuple(contiguous.shape),
                                offset=offset, nbytes=contiguous.nbytes))
        packed.append((offset, contiguous))
        offset += contiguous.nbytes
    try:
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(create=True, size=offset,
                                             name=_segment_name())
    except (ImportError, OSError):
        return result
    try:
        for start, contiguous in packed:
            if contiguous.nbytes == 0:
                continue
            view = np.frombuffer(segment.buf, dtype=np.uint8,
                                 count=contiguous.nbytes, offset=start)
            view[:] = contiguous.view(np.uint8).reshape(-1)
            del view  # drop the exported pointer before close()
        name = segment.name
    finally:
        segment.close()
    return ShmChunk(segment=name, specs=tuple(specs), total_bytes=offset)


# ---------------------------------------------------------------------------
# Parent side: decode / release
# ---------------------------------------------------------------------------

def decode_chunk(raw: Union[ChunkResult, ShmChunk],
                 stats: Optional[TransportStats] = None) -> ChunkResult:
    """Materialise a worker's chunk result (parent side).

    Shared-memory descriptors are expanded back into named arrays and
    the segment is unlinked; plain dicts pass through untouched.  With
    ``stats`` given, the travelled bytes are recorded either way.
    """
    if not isinstance(raw, ShmChunk):
        if stats is not None:
            stats.record_pickled(sum(
                value.nbytes for value in raw.values()
                if isinstance(value, np.ndarray)))
        return raw

    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=raw.segment)
    try:
        result: ChunkResult = {}
        for spec in raw.specs:
            dtype = np.dtype(spec.dtype)
            if spec.nbytes == 0:
                result[spec.name] = np.empty(spec.shape, dtype=dtype)
                continue
            view = np.frombuffer(segment.buf, dtype=np.uint8,
                                 count=spec.nbytes, offset=spec.offset)
            result[spec.name] = (view.view(dtype).reshape(spec.shape)
                                 .copy())
            del view
    finally:
        segment.close()
        _unlink_quiet(segment)
    if stats is not None:
        stats.record_shm(raw.total_bytes)
    return result


def release_chunk(raw: object) -> None:
    """Unlink an abandoned transported chunk without decoding it.

    Supervisors call this for every completed future whose result was
    never consumed (cancelled rounds, rebuilt pools, interrupts), so a
    recovery path can never strand a segment.  Idempotent: releasing a
    chunk that was already decoded or released is a no-op, and plain
    dict results are ignored.
    """
    if not isinstance(raw, ShmChunk):
        return
    try:
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(name=raw.segment)
    except (FileNotFoundError, OSError, ImportError):
        return
    segment.close()
    _unlink_quiet(segment)


def _unlink_quiet(segment) -> None:
    try:
        segment.unlink()
    except FileNotFoundError:  # lost a release/decode race: already gone
        pass


def active_segments() -> List[str]:
    """Names of live transport segments on this host (POSIX only).

    The leak-check tests snapshot this before and after a run; on
    platforms without ``/dev/shm`` it degrades to an empty list.
    """
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith(SHM_NAME_PREFIX))
    except OSError:
        return []


__all__ = [
    "ChunkResult",
    "MIN_SHM_BYTES",
    "SHM_NAME_PREFIX",
    "ShmChunk",
    "TransportStats",
    "active_segments",
    "decode_chunk",
    "encode_chunk",
    "ensure_resource_tracker",
    "release_chunk",
]
