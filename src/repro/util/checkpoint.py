"""Per-chunk checkpointing for interrupted Monte-Carlo sweeps.

A production-size sweep should survive its process dying at 90 %.  The
supervised executor (:mod:`repro.experiments.runner`) persists every
completed chunk into a **run directory** keyed by
``(engine, config, seed, chunking, code version)``; an interrupted
sweep resumed with the same key reloads the finished chunks and
recomputes only the missing ones.  Because chunk results are pure
functions of ``(config, chunk seed, chunk size)``, a resumed run is
bit-identical to an uninterrupted one — resume-vs-fresh never changes
results.

Layout under the checkpoint root (``REPRO_CHECKPOINT_DIR`` or an
explicit argument)::

    <root>/<run-hash>/manifest.json      # canonical run key + chunk count
    <root>/<run-hash>/chunk_000007.npz   # arrays of chunk 7
    <root>/<run-hash>/chunk_000007.json  # sidecar: index + content digest
    <root>/<run-hash>/corrupt/           # quarantined entries (never deleted)

A chunk is one entry of the format the result cache uses
(:func:`repro.util.cache.write_entry` / :func:`~repro.util.cache.read_entry`):
payloads and sidecars publish atomically, and a chunk is reloaded only
when its sidecar's SHA-256 matches the payload's content digest.
Anything else present is quarantined into ``corrupt/`` and recomputed.
The manifest publishes through :func:`repro.util.cache.atomic_write_text`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.util.cache import (
    _canonical,
    atomic_write_text,
    quarantine_paths,
    read_entry,
    stable_hash,
    write_entry,
)

#: Environment variable naming the checkpoint root (enables resume).
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_FORMAT = 1


def checkpoint_dir_from_env() -> Optional[Path]:
    """The configured checkpoint root, or ``None`` when unset."""
    configured = os.environ.get(CHECKPOINT_DIR_ENV, "").strip()
    return Path(configured) if configured else None


class CheckpointStore:
    """One sweep's chunk checkpoints under ``root/<run-hash>/``.

    ``run_key`` is the same mapping the result cache hashes, so a run
    is resumable exactly when it is cacheable (integer or
    ``SeedSequence`` seeds; never OS entropy).  All filesystem errors
    on ``put`` are swallowed — checkpointing is an optimisation and
    must never take the computation down with it.
    """

    def __init__(self, root: os.PathLike,
                 run_key: Mapping[str, object], n_chunks: int) -> None:
        if n_chunks < 1:
            raise ValueError("a run has at least one chunk")
        self.root = Path(root)
        self.run_key = run_key
        self.n_chunks = n_chunks
        self.run_dir = self.root / stable_hash(run_key)
        #: Chunks this instance moved to ``corrupt/``.
        self.quarantined = 0
        self._write_manifest()

    # -- layout -----------------------------------------------------------

    def _chunk_paths(self, chunk_index: int) -> Tuple[Path, Path]:
        stem = f"chunk_{chunk_index:06d}"
        return (self.run_dir / f"{stem}.npz", self.run_dir / f"{stem}.json")

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.json"

    def _write_manifest(self) -> None:
        try:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            if self.manifest_path.exists() and not self._manifest_usable():
                # A torn or foreign manifest must not shadow the run
                # metadata forever: set it aside and write a fresh one.
                self._quarantine(self.manifest_path)
            if not self.manifest_path.exists():
                manifest = {"format": MANIFEST_FORMAT,
                            "n_chunks": self.n_chunks,
                            "key": _canonical(self.run_key)}
                atomic_write_text(
                    self.manifest_path,
                    json.dumps(manifest, sort_keys=True, indent=1),
                    site="checkpoint.manifest")
        except OSError:
            pass

    def _manifest_usable(self) -> bool:
        """Whether the on-disk manifest parses and matches this run."""
        try:
            manifest = json.loads(
                self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return False
        return (isinstance(manifest, dict)
                and manifest.get("format") == MANIFEST_FORMAT
                and manifest.get("n_chunks") == self.n_chunks)

    # -- chunk persistence ------------------------------------------------

    def put_chunk(self, chunk_index: int,
                  arrays: Mapping[str, np.ndarray]) -> None:
        """Persist one completed chunk atomically (payload + sidecar)."""
        self._check_index(chunk_index)
        try:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            write_entry(*self._chunk_paths(chunk_index), arrays,
                        {"chunk_index": chunk_index}, site="checkpoint")
        except OSError:
            return

    def get_chunk(self, chunk_index: int
                  ) -> Optional[Dict[str, np.ndarray]]:
        """Reload one verified chunk, or ``None`` when absent or corrupt.

        A corrupt chunk is quarantined and reported missing
        (:func:`repro.util.cache.read_entry`), so the supervisor
        recomputes it instead of poisoning the merged sweep.
        """
        self._check_index(chunk_index)
        return read_entry(*self._chunk_paths(chunk_index), self._quarantine)

    def completed_chunks(self) -> List[int]:
        """Indices whose payload file exists (unverified fast path)."""
        present = []
        for index in range(self.n_chunks):
            data_path, _ = self._chunk_paths(index)
            if data_path.exists():
                present.append(index)
        return present

    # -- helpers ----------------------------------------------------------

    def _check_index(self, chunk_index: int) -> None:
        if not 0 <= chunk_index < self.n_chunks:
            raise IndexError(
                f"chunk {chunk_index} outside run of {self.n_chunks} chunks")

    def _quarantine(self, *paths: Path) -> None:
        if quarantine_paths(self.run_dir, *paths,
                            site="checkpoint.quarantine"):
            self.quarantined += 1
