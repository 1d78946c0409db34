"""Deterministic on-disk cache for Monte-Carlo results, and the entry
format it shares with the checkpoint store.

The batched Monte-Carlo engines are pure functions of
``(engine name, config, seed, code version)``: running one twice with
the same key always yields bit-identical arrays.  That makes their
results safe to memoise on disk — figure modules and benchmarks can
reuse the 10 000-draw sample sets instead of recomputing them.

Keys are built from a canonical JSON rendering of the key parts and
hashed with SHA-256; each entry is one ``<hash>.npz`` payload (the
arrays) plus one ``<hash>.json`` sidecar (the human-readable key and
the payload's content digest).  Invalidation is by construction: any
change to the config, the seed, or the engine's ``code_version``
constant changes the hash, so stale entries are simply never read
again.

One entry format serves this cache and :mod:`repro.util.checkpoint`.
:func:`write_entry` publishes the payload, then a sidecar holding the
caller's metadata plus the :func:`array_digest` of the arrays.
:func:`read_entry` returns the arrays only when the sidecar parses as
a JSON object whose ``sha256`` equals the digest of the payload it
loads.  Anything else present is corrupt: an unreadable payload; a
sidecar that is missing, does not parse, is not an object or lacks the
digest; a digest mismatch; or a sidecar without its payload.  A
corrupt entry is **quarantined** — moved (never deleted) into a
``corrupt/`` subdirectory for post-mortem inspection — counted on the
store's ``quarantined`` attribute, and read as a miss so callers
recompute.  Quarantined files are renamed with a short digest of their
content, so quarantining the same entry name twice (e.g. across two
resumed runs) preserves both generations instead of clobbering.

Every durable file of the package publishes through
:func:`atomic_open`: it streams into a tmp file and publishes with
``os.replace``, so a crash mid-write never leaves a half-written file
under the final name.  Its ``<site>.write`` and ``<site>.replace`` I/O
sites (``cache.payload.write``, ``cache.payload.replace``, ...) are
intercepted by :mod:`repro.util.iofaults`, which is how the crash-point
matrix (:mod:`repro.util.crashmatrix`) simulates torn writes,
``ENOSPC`` and process death at every one of these boundaries.

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
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.util import iofaults

#: Environment variable naming the cache directory (enables caching).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory (of a cache/checkpoint root) holding quarantined entries.
QUARANTINE_DIRNAME = "corrupt"

#: Exceptions reading an entry raises on torn, foreign or missing files.
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


@contextmanager
def atomic_open(path: Path, site: str) -> Iterator[BinaryIO]:
    """Stream bytes into ``path`` via tmp file + atomic ``os.replace``.

    Readers see the previous file or the complete new one, never a torn
    one.  ``site`` names the I/O boundary for fault injection: the tmp
    write runs through ``<site>.write`` and the publish through
    ``<site>.replace`` (see :mod:`repro.util.iofaults`).  The tmp file
    is gone afterwards, published or not.

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
        # The tmp half of the atomic publish is the one raw write.
        with open(tmp_path, "wb") as handle:  # repro-lint: disable=RPR306
            yield handle
        iofaults.checked_replace(f"{site}.replace", tmp_path, path)
    except Exception as exc:
        if exc.__context__ is not None \
                and not isinstance(exc.__context__, Exception):
            raise exc.__context__ from None
        raise
    finally:
        _unlink_quietly(tmp_path)


def atomic_write_text(path: Path, text: str, site: str = "io") -> None:
    """Publish ``text`` (UTF-8) at ``path`` through :func:`atomic_open`."""
    with atomic_open(path, site) as handle:
        handle.write(text.encode("utf-8"))


def write_entry(data_path: Path, meta_path: Path,
                arrays: Mapping[str, np.ndarray],
                meta: Mapping[str, object], site: str) -> None:
    """Publish one entry: the ``.npz`` payload, then its sidecar.

    The sidecar is ``meta`` plus ``sha256``, the :func:`array_digest`
    of ``arrays``.  A crash between the two publishes leaves a payload
    without its sidecar, which :func:`read_entry` quarantines.  The
    writes run through the ``<site>.payload`` and ``<site>.sidecar``
    I/O sites; filesystem errors propagate.

    Members are stored, not deflated (``np.savez``): deflating float
    arrays took over ten times as long as storing them, for files about
    a third the size (see ``docs/resilience.md``).  ``np.load`` reads
    stored and deflated members alike, so deflated entries written by
    earlier versions still load.
    """
    with atomic_open(data_path, f"{site}.payload") as handle:
        np.savez(handle, **dict(arrays))
    sidecar = {**meta, "sha256": array_digest(arrays)}
    atomic_write_text(meta_path, json.dumps(sidecar, sort_keys=True, indent=1),
                      site=f"{site}.sidecar")


def read_entry(data_path: Path, meta_path: Path,
               quarantine: Callable[..., None]
               ) -> Optional[Dict[str, np.ndarray]]:
    """The arrays of one verified entry, or ``None`` on a miss.

    Verified means the sidecar parses as a JSON object whose ``sha256``
    equals the :func:`array_digest` of the payload's arrays.  With
    neither file present the entry is a plain miss; any other
    unverified entry is a miss whose present files go to
    ``quarantine(*paths)`` together, so no stale half can pair up with
    a later write.
    """
    present = [path for path in (data_path, meta_path) if path.exists()]
    if not present:
        return None
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        archive = np.load(data_path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError(f"{data_path} holds a bare array, not an .npz")
        with archive:
            arrays = {name: archive[name] for name in archive.files}
        verified = (isinstance(meta, dict)
                    and meta.get("sha256") == array_digest(arrays))
    except _LOAD_ERRORS:
        verified = False
    if not verified:
        quarantine(*present)
        return None
    return arrays


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


class ResultCache:
    """Content-addressed store of named float arrays.

    ``root=None`` builds an *inert* cache: ``get`` always misses and
    ``put`` is a no-op, so callers can thread one object through
    unconditionally.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else None
        #: Entries this instance moved to ``corrupt/``.
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

    def _quarantine(self, *paths: Path) -> None:
        assert self.root is not None
        if quarantine_paths(self.root, *paths, site="cache.quarantine"):
            self.quarantined += 1

    def get(self, key_parts: Mapping[str, object]
            ) -> Optional[Dict[str, np.ndarray]]:
        """The verified arrays for this key, or ``None`` on a miss.

        A corrupt entry is quarantined and read as a miss
        (:func:`read_entry`).
        """
        if not self.enabled:
            return None
        return read_entry(*self._paths(key_parts), self._quarantine)

    def put(self, key_parts: Mapping[str, object],
            arrays: Mapping[str, np.ndarray]) -> None:
        """Store ``arrays`` under the key; the sidecar holds the key.

        Filesystem failures (unwritable root, disk full, ...) are
        swallowed: the cache is an optimisation, and a failed write
        must never destroy the freshly computed result.
        """
        if not self.enabled:
            return
        assert self.root is not None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            write_entry(*self._paths(key_parts), arrays,
                        _canonical(key_parts), site="cache")
        except OSError:
            return
