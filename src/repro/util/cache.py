"""Deterministic on-disk cache for Monte-Carlo results.

The batched Monte-Carlo engines are pure functions of
``(engine name, config, seed, code version)``: running one twice with
the same key always yields bit-identical arrays.  That makes their
results safe to memoise on disk — figure modules and benchmarks can
reuse the 10 000-draw sample sets instead of recomputing them.

Keys are built from a canonical JSON rendering of the key parts and
hashed with SHA-256; each entry is one ``<hash>.npz`` file (the arrays)
plus one ``<hash>.json`` sidecar (the human-readable key and the
entry's content digest).  Invalidation is by construction: any change
to the config, the seed, or the engine's ``code_version`` constant
changes the hash, so stale entries are simply never read again.

Integrity: every ``put`` stores a SHA-256 digest of the array
*contents* (:func:`array_digest`) in the sidecar, and every ``get``
verifies it after loading.  An entry that fails to load or fails
verification is **quarantined** — moved (never deleted) into a
``corrupt/`` subdirectory for post-mortem inspection — counted on
:attr:`ResultCache.quarantined`, and reported as a miss so callers
recompute.  Quarantined files are renamed with a short digest of their
content, so quarantining the same entry name twice (e.g. across two
resumed runs) preserves both generations instead of clobbering.
Orphaned halves are corrupt too: a payload whose sidecar file vanished,
or a sidecar whose payload vanished, is quarantined and recomputed — a
sidecar that exists but predates content digests still loads
unverified, so old caches never hit a flag day.  Both the payload and
the sidecar are written via tmp-file + ``os.replace``, so a crash
mid-write can never leave a half-written entry that later reads as
valid.

Every durable write and publish runs through a named **I/O site**
(``cache.payload.write``, ``cache.payload.replace``, ...) intercepted
by :mod:`repro.util.iofaults`, which is how the crash-point matrix
(:mod:`repro.util.crashmatrix`) simulates torn writes, ``ENOSPC`` and
process death at every one of these boundaries.

The cache root resolves in this order:

1. an explicit ``root`` argument;
2. the ``REPRO_CACHE_DIR`` environment variable;
3. disabled (``ResultCache.from_env()`` returns an inert cache), so
   nothing is written unless the user opted in.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.util import iofaults

#: Environment variable naming the cache directory (enables caching).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory (of a cache/checkpoint root) holding quarantined entries.
QUARANTINE_DIRNAME = "corrupt"

#: Exceptions ``np.load`` raises on truncated or non-npz payloads.
_LOAD_ERRORS = (OSError, ValueError, EOFError, zipfile.BadZipFile, KeyError)


def _canonical(value):
    """Reduce a key part to JSON-serialisable canonical form."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.random.SeedSequence):
        return {"entropy": _canonical(value.entropy),
                "spawn_key": list(value.spawn_key)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"unhashable cache key part: {value!r}")


def stable_hash(key_parts: Mapping[str, object]) -> str:
    """SHA-256 of the canonical JSON rendering of ``key_parts``."""
    payload = json.dumps(_canonical(key_parts), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def array_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over the *contents* of named arrays.

    Hashes ``(name, dtype, shape, raw bytes)`` in name order, so the
    digest is independent of container metadata (npz timestamps,
    compression level) — two writes of the same arrays always agree,
    which keeps concurrent writers of one key digest-consistent.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(data.dtype.str.encode("ascii"))
        digest.update(repr(data.shape).encode("ascii"))
        digest.update(data.tobytes())
    return digest.hexdigest()


def atomic_write_bytes(path: Path, payload: bytes,
                       site: str = "io") -> None:
    """Write ``payload`` to ``path`` via tmp file + atomic ``os.replace``.

    ``site`` names the I/O boundary for fault injection: the tmp write
    runs through ``<site>.write`` and the publish through
    ``<site>.replace`` (see :mod:`repro.util.iofaults`).
    """
    tmp_path = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        iofaults.trip_write(f"{site}.write", tmp_path)
        # The atomic-write helper is the one legitimate raw write site.
        tmp_path.write_bytes(payload)  # repro-lint: disable=RPR306
        iofaults.checked_replace(f"{site}.replace", tmp_path, path)
    finally:
        _unlink_quietly(tmp_path)


def atomic_write_text(path: Path, text: str, site: str = "io") -> None:
    """Text flavour of :func:`atomic_write_bytes` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"), site=site)


def atomic_write_npz(path: Path, arrays: Mapping[str, np.ndarray],
                     site: str = "io") -> None:
    """Write named arrays as one npz via tmp file + atomic ``os.replace``.

    Shared by the result cache and the checkpoint store so both expose
    the same ``<site>.write`` / ``<site>.replace`` fault-injection
    boundaries around their payloads.

    Members are stored, not deflated (``np.savez``): deflating float
    arrays took over ten times as long as storing them, for files about
    a third the size (see ``docs/resilience.md``).  ``np.load`` reads
    stored and deflated members alike, so deflated entries written by
    earlier versions still load.

    An error raised while an interrupt (``KeyboardInterrupt``,
    ``ResumableInterrupt``) unwinds gives way to the interrupt, so
    callers flush and exit resumable rather than fatal.  The case that
    occurs: an interrupt landing while ``np.savez`` has a zip entry
    open makes numpy's cleanup ``ZipFile.close()`` raise ``ValueError``
    over it.
    """
    tmp_path = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        iofaults.trip_write(f"{site}.write", tmp_path)
        # Streaming into the tmp half of an atomic publish.
        with open(tmp_path, "wb") as handle:  # repro-lint: disable=RPR306
            np.savez(handle, **dict(arrays))
        iofaults.checked_replace(f"{site}.replace", tmp_path, path)
    except Exception as exc:
        if exc.__context__ is not None \
                and not isinstance(exc.__context__, Exception):
            raise exc.__context__ from None
        raise
    finally:
        _unlink_quietly(tmp_path)


def _quarantine_name(path: Path) -> str:
    """Collision-proof quarantine filename: tag with a content digest.

    ``chunk_000001.npz`` quarantined twice across two resumed runs must
    not clobber the first post-mortem copy, so the destination carries
    the first 12 hex digits of the file's SHA-256.  Identical content
    maps to an identical name (overwriting a byte-identical copy is
    harmless); unreadable files fall back to a stable tag and are
    disambiguated by :func:`quarantine_paths` if needed.
    """
    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
    except OSError:
        digest = "unreadable"
    return f"{path.stem}.{digest}{path.suffix}"


def quarantine_paths(root: Path, *paths: Path,
                     site: str = "quarantine") -> int:
    """Move ``paths`` into ``root/corrupt/`` (never delete); count moves.

    Destination names carry a content-digest tag
    (:func:`_quarantine_name`), so repeat quarantines of the same entry
    name preserve every distinct generation.  Concurrent quarantines of
    the same entry tolerate each other: a path that vanished mid-move
    is simply skipped.  The move publishes through the ``<site>.replace``
    fault-injection boundary.
    """
    quarantine_dir = root / QUARANTINE_DIRNAME
    moved = 0
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return 0
    for path in paths:
        destination = quarantine_dir / _quarantine_name(path)
        if destination.exists() and ".unreadable" in destination.name:
            serial = 2
            while destination.exists():
                destination = quarantine_dir / (
                    f"{path.stem}.unreadable{serial}{path.suffix}")
                serial += 1
        try:
            iofaults.checked_replace(f"{site}.replace", path, destination)
            moved += 1
        except OSError:
            continue
    return moved


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


@dataclass(frozen=True)
class ClearResult:
    """Counts from :meth:`ResultCache.clear`, quarantine kept separate."""

    removed: int
    quarantined: int


class ResultCache:
    """Content-addressed store of named float arrays.

    ``root=None`` builds an *inert* cache: ``get`` always misses and
    ``put`` is a no-op, so callers can thread one object through
    unconditionally.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else None
        #: Entries this instance moved to ``corrupt/`` (digest mismatch
        #: or unreadable payload).
        self.quarantined = 0

    @classmethod
    def from_env(cls) -> "ResultCache":
        """Cache rooted at ``$REPRO_CACHE_DIR``; inert when unset."""
        configured = os.environ.get(CACHE_DIR_ENV, "").strip()
        return cls(configured or None)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _paths(self, key_parts: Mapping[str, object]) -> Tuple[Path, Path]:
        digest = stable_hash(key_parts)
        assert self.root is not None
        return (self.root / f"{digest}.npz", self.root / f"{digest}.json")

    def _expected_digest(self, meta_path: Path) -> Optional[str]:
        """The content digest recorded in the sidecar, if any.

        Entries whose sidecar predates content digests (present and
        readable, no ``sha256`` field) return ``None`` and are loaded
        unverified — integrity is opt-in per entry, never a flag-day
        for existing caches.  A *missing or unreadable* sidecar is the
        orphaned-payload case and is handled as corrupt by ``get``.
        """
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        digest = meta.get("sha256") if isinstance(meta, dict) else None
        return digest if isinstance(digest, str) else None

    def _quarantine(self, *paths: Path) -> None:
        assert self.root is not None
        if quarantine_paths(self.root, *paths, site="cache.quarantine"):
            self.quarantined += 1

    def get(self, key_parts: Mapping[str, object]
            ) -> Optional[Dict[str, np.ndarray]]:
        """The stored arrays for this key, or ``None`` on a miss.

        A corrupt entry is quarantined and reported as a miss.  Corrupt
        means: unreadable npz, content digest differing from the
        sidecar's, or an orphaned half — payload without its sidecar
        *file* (a crash between the two publishes), or sidecar without
        its payload.  Both halves are quarantined together so no stale
        remnant can pair up with a later write.
        """
        if not self.enabled:
            return None
        data_path, meta_path = self._paths(key_parts)
        if not data_path.exists():
            if meta_path.exists():  # orphaned sidecar: quarantine, miss
                self._quarantine(meta_path)
            return None
        if not meta_path.exists():  # orphaned payload: quarantine, miss
            self._quarantine(data_path)
            return None
        try:
            with np.load(data_path) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except _LOAD_ERRORS:
            self._quarantine(data_path, meta_path)
            return None
        expected = self._expected_digest(meta_path)
        if expected is not None and array_digest(arrays) != expected:
            self._quarantine(data_path, meta_path)
            return None
        return arrays

    def put(self, key_parts: Mapping[str, object],
            arrays: Mapping[str, np.ndarray]) -> None:
        """Store ``arrays`` under the key (payload *and* sidecar atomic).

        Filesystem failures (unwritable root, disk full, ...) are
        swallowed: the cache is an optimisation, and a failed write
        must never destroy the freshly computed result.
        """
        if not self.enabled:
            return
        assert self.root is not None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            data_path, meta_path = self._paths(key_parts)
            atomic_write_npz(data_path, arrays, site="cache.payload")
            meta = dict(_canonical(key_parts))
            meta["sha256"] = array_digest(arrays)
            atomic_write_text(meta_path,
                              json.dumps(meta, sort_keys=True, indent=1),
                              site="cache.sidecar")
        except OSError:
            return

    def clear(self) -> ClearResult:
        """Delete every entry; quarantined entries counted separately.

        Skips subdirectories and foreign files, and tolerates entries
        deleted concurrently by another process.
        """
        if not self.enabled or not self.root.exists():
            return ClearResult(0, 0)
        removed = _clear_entries(self.root)
        quarantined = _clear_entries(self.root / QUARANTINE_DIRNAME)
        return ClearResult(removed, quarantined)


def _clear_entries(directory: Path) -> int:
    """Unlink the ``.npz``/``.json`` files of ``directory``; count them."""
    try:
        entries = sorted(directory.iterdir())
    except OSError:  # missing or unreadable directory
        return 0
    removed = 0
    for path in entries:
        if path.suffix not in (".npz", ".json") or not path.is_file():
            continue
        try:
            path.unlink()
        except FileNotFoundError:  # lost a race with a concurrent clear
            continue
        removed += 1
    return removed
