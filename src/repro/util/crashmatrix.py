"""Crash-point matrix: kill the process at every durable-write site.

The persistence layer claims that a process may die at *any* I/O
boundary — mid tmp-write, between publish and sidecar, during a
quarantine move — and a restarted run still converges to bit-identical
results with nothing deleted.  This module turns that claim into an
enumerable, machine-checked matrix:

* **rows** — every named I/O site in :class:`repro.util.cache.ResultCache`
  and :class:`repro.util.checkpoint.CheckpointStore` (tmp writes,
  atomic publishes, quarantine moves);
* **columns** — every fault kind valid at that site
  (:data:`~repro.util.iofaults.WRITE_KINDS` for ``.write`` sites,
  :data:`~repro.util.iofaults.REPLACE_KINDS` for ``.replace`` sites,
  including the torn-publish kind that defeats naive atomicity);
* **cell** — run a small deterministic workload with exactly that one
  fault injected, then "restart" (fresh store objects, no injector,
  stale tmp litter planted on disk) and verify three invariants:

  1. *bit-identity*: the recovered run's arrays equal the fault-free
     reference exactly — resume-vs-fresh never changes results;
  2. *no poisoning*: partial state left by the death is either served
     intact or quarantined and recomputed, never merged wrong;
  3. *quarantine monotonicity*: files under ``corrupt/`` only ever
     accumulate — recovery must not delete post-mortem evidence.

Enumeration is **verified, not trusted**: a fault-free probe workload
runs under a recording injector and the set of sites it observes must
equal the matrix's enumerated rows exactly.  Adding a durable write
without a site (or renaming one) fails the matrix before it can hide;
the RPR306 lint rule independently rejects raw writes that bypass the
site machinery altogether.

Checkpoint cells target the *second* chunk (``call_index=1``) so every
recovery exercises the mixed case: one chunk resumed from disk, the
rest recomputed, merged bit-identically.

Run ``python -m repro.util.crashmatrix --out CRASH_MATRIX.json`` for
the operator/CI entry point; the ``chaos`` test subset asserts the
matrix passes.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro.util import iofaults
from repro.util.cache import (
    QUARANTINE_DIRNAME,
    ResultCache,
    atomic_write_text,
    stable_hash,
)
from repro.util.checkpoint import CheckpointStore
from repro.util.errors import EXIT_FATAL, EXIT_OK, run_cli
from repro.util.iofaults import (
    REPLACE_KINDS,
    WRITE_KINDS,
    IoFaultInjector,
    SimulatedCrash,
)

#: Every named I/O site of the result cache, with its site type.
CACHE_SITES: Dict[str, str] = {
    "cache.payload.write": "write",
    "cache.payload.replace": "replace",
    "cache.sidecar.write": "write",
    "cache.sidecar.replace": "replace",
    "cache.quarantine.replace": "replace",
}

#: Every named I/O site of the checkpoint store, with its site type.
CHECKPOINT_SITES: Dict[str, str] = {
    "checkpoint.manifest.write": "write",
    "checkpoint.manifest.replace": "replace",
    "checkpoint.payload.write": "write",
    "checkpoint.payload.replace": "replace",
    "checkpoint.sidecar.write": "write",
    "checkpoint.sidecar.replace": "replace",
    "checkpoint.quarantine.replace": "replace",
}

ALL_SITES: Dict[str, str] = {**CACHE_SITES, **CHECKPOINT_SITES}


def kinds_for(site_type: str) -> Tuple[str, ...]:
    """The fault kinds injectable at a site of this type."""
    return WRITE_KINDS if site_type == "write" else REPLACE_KINDS


# ---------------------------------------------------------------------------
# The deterministic workloads
# ---------------------------------------------------------------------------

_KEY = {"engine": "crashmatrix", "seed": 7, "config": {"n": 32}}
_RUN_KEY = {"engine": "crashmatrix", "seed": 7, "chunks": 3}
_N_CHUNKS = 3


def _reference_arrays(seed: int = 2010) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"gains": rng.standard_normal(32),
            "hits": (np.arange(32) % 3 == 0)}


def _chunk_arrays(index: int, seed: int = 900) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed + index)
    return {"x": rng.standard_normal(16)}


def _merged(chunks: List[Mapping[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    return {"x": np.concatenate([chunk["x"] for chunk in chunks])}


def _arrays_equal(left: Mapping[str, np.ndarray],
                  right: Mapping[str, np.ndarray]) -> bool:
    if set(left) != set(right):
        return False
    return all(left[name].dtype == right[name].dtype
               and np.array_equal(left[name], right[name])
               for name in left)


def _corrupt_names(root: Path) -> FrozenSet[str]:
    quarantine_dir = root / QUARANTINE_DIRNAME
    if not quarantine_dir.is_dir():
        return frozenset()
    return frozenset(p.name for p in quarantine_dir.iterdir())


def _plant_tmp_litter(directory: Path) -> None:
    """Drop stale tmp files a real death would have left behind.

    In-process fault simulation is kinder than a SIGKILL: ``finally``
    blocks still unlink tmp files.  Recovery must tolerate the litter a
    real crash leaves, so every cell plants some before restarting.
    """
    directory.mkdir(parents=True, exist_ok=True)
    # Deliberately raw: this *is* the simulated wreckage of a dead writer.
    (directory / "deadbeef.npz.tmp4242").write_bytes(  # repro-lint: disable=RPR306
        b"\x00partial")
    (directory / "chunk_000001.json.tmp4242").write_text(  # repro-lint: disable=RPR306
        "{\"chunk_index\": 1")


def _corrupt_file(path: Path) -> None:
    # Simulating on-disk damage, not performing a durable write.
    path.write_bytes(b"crashmatrix garbage")  # repro-lint: disable=RPR306


# ---------------------------------------------------------------------------
# Cell results and the report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    """One ``(site, kind)`` cell of the matrix and its three verdicts."""

    store: str
    site: str
    kind: str
    call_index: int
    fault_fired: bool
    crashed: bool
    recovered_identical: bool
    quarantine_monotone: bool

    @property
    def ok(self) -> bool:
        return (self.fault_fired and self.recovered_identical
                and self.quarantine_monotone)

    def as_dict(self) -> Dict[str, object]:
        return {"store": self.store, "site": self.site, "kind": self.kind,
                "call_index": self.call_index,
                "fault_fired": self.fault_fired, "crashed": self.crashed,
                "recovered_identical": self.recovered_identical,
                "quarantine_monotone": self.quarantine_monotone,
                "ok": self.ok}


@dataclass(frozen=True)
class MatrixReport:
    """The full matrix run: every cell plus the enumeration check."""

    cells: Tuple[CellResult, ...]
    enumerated_sites: FrozenSet[str]
    observed_sites: FrozenSet[str]

    @property
    def enumeration_complete(self) -> bool:
        return self.enumerated_sites == self.observed_sites

    @property
    def passed(self) -> bool:
        return self.enumeration_complete and all(c.ok for c in self.cells)

    def failures(self) -> List[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    def as_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "n_cells": len(self.cells),
            "n_failed": len(self.failures()),
            "enumeration_complete": self.enumeration_complete,
            "enumerated_sites": sorted(self.enumerated_sites),
            "observed_sites": sorted(self.observed_sites),
            "unenumerated": sorted(self.observed_sites
                                   - self.enumerated_sites),
            "unobserved": sorted(self.enumerated_sites
                                 - self.observed_sites),
            "cells": [cell.as_dict() for cell in self.cells],
        }


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------

def _run_cache_cell(root: Path, site: str, kind: str) -> CellResult:
    """One cache cell: die at ``site`` during put (or quarantine), recover."""
    reference = _reference_arrays()
    cache = ResultCache(root)
    via_quarantine = site == "cache.quarantine.replace"
    if via_quarantine:
        # Seed a healthy entry fault-free, then damage its payload so
        # the workload's get() walks into the quarantine move.
        cache.put(_KEY, reference)
        (entry,) = root.glob("*.npz")
        _corrupt_file(entry)
    injector = iofaults.single_fault(site, kind)
    crashed = False
    try:
        with iofaults.inject(injector):
            if via_quarantine:
                cache.get(_KEY)
            else:
                cache.put(_KEY, reference)
    except SimulatedCrash:
        crashed = True
    except OSError:
        pass
    corrupt_before = _corrupt_names(root)
    _plant_tmp_litter(root)

    # "Restart": fresh objects, no injector — the post-mortem process.
    recovered = ResultCache(root)
    loaded = recovered.get(_KEY)
    if loaded is None:  # damaged or absent: recompute, as a caller would
        recovered.put(_KEY, reference)
        loaded = recovered.get(_KEY)
    identical = loaded is not None and _arrays_equal(loaded, reference)
    monotone = corrupt_before <= _corrupt_names(root)
    return CellResult("cache", site, kind, 0, bool(injector.fired()),
                      crashed, identical, monotone)


def _run_checkpoint_cell(root: Path, site: str, kind: str) -> CellResult:
    """One checkpoint cell: die mid-sweep at ``site``, resume, re-merge."""
    reference = _merged([_chunk_arrays(i) for i in range(_N_CHUNKS)])
    run_dir = root / stable_hash(_RUN_KEY)
    via_quarantine = site == "checkpoint.quarantine.replace"
    # Manifest sites fire once per store build; chunk sites fire once per
    # chunk — target call 1 there so recovery mixes resumed + recomputed.
    call_index = 1 if (".payload." in site or ".sidecar." in site) else 0
    if via_quarantine:
        seeded = CheckpointStore(root, _RUN_KEY, _N_CHUNKS)
        for index in range(_N_CHUNKS):
            seeded.put_chunk(index, _chunk_arrays(index))
        _corrupt_file(run_dir / "chunk_000001.npz")
    injector = iofaults.single_fault(site, kind, call_index)
    crashed = False
    try:
        with iofaults.inject(injector):
            store = CheckpointStore(root, _RUN_KEY, _N_CHUNKS)
            for index in range(_N_CHUNKS):
                if store.get_chunk(index) is None:
                    store.put_chunk(index, _chunk_arrays(index))
    except SimulatedCrash:
        crashed = True
    except OSError:
        pass
    corrupt_before = _corrupt_names(run_dir)
    _plant_tmp_litter(run_dir)

    # "Restart": resume loop — reload what survived, recompute the rest.
    store = CheckpointStore(root, _RUN_KEY, _N_CHUNKS)
    chunks: List[Mapping[str, np.ndarray]] = []
    for index in range(_N_CHUNKS):
        arrays = store.get_chunk(index)
        if arrays is None:
            arrays = _chunk_arrays(index)
            store.put_chunk(index, arrays)
        chunks.append(arrays)
    identical = _arrays_equal(_merged(chunks), reference)
    monotone = corrupt_before <= _corrupt_names(run_dir)
    return CellResult("checkpoint", site, kind, call_index,
                      bool(injector.fired()), crashed, identical, monotone)


def _probe_sites(workdir: Path) -> FrozenSet[str]:
    """Record every site a full healthy-plus-quarantine workload touches."""
    recorder = IoFaultInjector()
    with iofaults.inject(recorder):
        cache_root = workdir / "probe_cache"
        cache = ResultCache(cache_root)
        cache.put(_KEY, _reference_arrays())
        (entry,) = cache_root.glob("*.npz")
        _corrupt_file(entry)
        cache.get(_KEY)

        store = CheckpointStore(workdir / "probe_ckpt", _RUN_KEY, _N_CHUNKS)
        store.put_chunk(0, _chunk_arrays(0))
        _corrupt_file(store.run_dir / "chunk_000000.npz")
        store.get_chunk(0)
    return recorder.observed_sites()


def run_matrix(workdir: Optional[Path] = None) -> MatrixReport:
    """Execute every matrix cell plus the enumeration check.

    ``workdir`` (a scratch directory) is created when omitted; each
    cell runs in its own subdirectory, so cells never share state.
    """
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="crashmatrix.") as scratch:
            return run_matrix(Path(scratch))
    cells: List[CellResult] = []
    for site, site_type in ALL_SITES.items():
        runner = (_run_cache_cell if site in CACHE_SITES
                  else _run_checkpoint_cell)
        for kind in kinds_for(site_type):
            cell_dir = workdir / f"{site.replace('.', '_')}__{kind}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            cells.append(runner(cell_dir, site, kind))
    observed = _probe_sites(workdir / "probe")
    return MatrixReport(tuple(cells), frozenset(ALL_SITES), observed)


# ---------------------------------------------------------------------------
# CLI — the CI artifact producer
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-crashmatrix",
        description="Simulate process death at every durable-write site "
                    "and verify recovery is bit-identical.")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="write the full JSON report here (atomic)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every cell, not only failures")
    args = parser.parse_args(argv)

    report = run_matrix()
    for cell in report.cells:
        if args.verbose or not cell.ok:
            status = "ok" if cell.ok else "FAIL"
            print(f"{status:4s} {cell.store:10s} {cell.site:28s} "
                  f"{cell.kind:7s} call={cell.call_index} "
                  f"fired={cell.fault_fired} crash={cell.crashed} "
                  f"identical={cell.recovered_identical} "
                  f"monotone={cell.quarantine_monotone}")
    if not report.enumeration_complete:
        print("enumeration mismatch:", file=sys.stderr)
        print(f"  unenumerated: {sorted(report.observed_sites - report.enumerated_sites)}",
              file=sys.stderr)
        print(f"  unobserved:   {sorted(report.enumerated_sites - report.observed_sites)}",
              file=sys.stderr)
    print(f"crash matrix: {len(report.cells)} cells, "
          f"{len(report.failures())} failed, enumeration "
          f"{'complete' if report.enumeration_complete else 'INCOMPLETE'}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(args.out,
                          json.dumps(report.as_dict(), indent=1,
                                     sort_keys=True))
        print(f"report written to {args.out}")
    return EXIT_OK if report.passed else EXIT_FATAL


def entry() -> int:
    """Console-script entry: :func:`main` under the operator taxonomy."""
    return run_cli("repro-crashmatrix", main)


if __name__ == "__main__":
    sys.exit(entry())
