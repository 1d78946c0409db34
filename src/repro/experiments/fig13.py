"""Fig. 13 — trace-based upload evaluation of SIC-aware link pairing.

The paper runs its pairing algorithm over topology snapshots parsed
from two weeks of Duke-building RSSI traces and reports the CDF of the
achievable gain, with and without power control / multirate
packetization.  Claims to reproduce: real-life association sets do
offer pairing gains, the gains grow when power control or multirate is
added, and "the trends are similar to the results shown in Fig. 11a".

We run the identical pipeline over the synthetic building trace (see
DESIGN.md for the substitution argument).

Fast path (``docs/trace_performance.md``): the trace comes from the
vectorised generator (under a ``max_snapshots`` cap, only the blocks
holding the snapshots it keeps), the busy snapshots run as chunks of the
supervised indexed runner (retry/backoff, checkpoint/resume, the
``REPRO_CACHE_DIR`` result cache, and worker processes when the
``policy`` carries a pool), and each snapshot's backlog is costed once
and shared by all three technique sets.  :func:`compute_scalar`
freezes the historical serial pipeline as the golden reference and
the benchmark baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.runner import (
    ExecutionPolicy,
    run_indexed,
    seed_cache_token,
)
from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel
from repro.scheduling.scheduler import BacklogCosts, SicScheduler, UploadClient
from repro.techniques.pairing import (
    TechniqueSet,
    pair_airtime_batch,
    solo_airtime_batch,
)
from repro.traces.records import UploadTrace
from repro.traces.synthetic import UploadTraceConfig, UploadTraceGenerator
from repro.util.cache import ResultCache
from repro.util.cdf import gain_cdf_summary
from repro.util.rng import SeedLike
from repro.util.timing import PhaseTimer, maybe_phase
from repro.util.units import dbm_to_watts

DEFAULT_BANDWIDTH_HZ = 20e6

#: The three curves of Fig. 13.
TECHNIQUE_SETS = {
    "pairing": TechniqueSet.NONE,
    "pairing+power_control": TechniqueSet.POWER_CONTROL,
    "pairing+multirate": TechniqueSet.MULTIRATE,
}

#: Snapshots per chunk — fixed (not derived from the pool's size) so
#: the chunk layout, and with it every cache and checkpoint key, is
#: identical for serial and parallel runs of the same evaluation.
SNAPSHOT_CHUNK = 64


def snapshot_clients(snapshot) -> List[UploadClient]:
    """The backlog of one association snapshot, built once per snapshot
    and shared across technique sets (it used to be rebuilt per
    scheduler)."""
    return [UploadClient(obs.client, obs.rss_w)
            for obs in snapshot.clients]


def snapshot_gain(scheduler: SicScheduler, snapshot) -> float:
    """Upload gain of one association snapshot (serial / scheduled)."""
    schedule = scheduler.schedule(snapshot_clients(snapshot))
    return schedule.gain


def _technique_schedulers(bandwidth_hz: float,
                          packet_bits: float) -> Dict[str, SicScheduler]:
    channel = Channel(bandwidth_hz=bandwidth_hz,
                      noise_w=thermal_noise_watts(bandwidth_hz))
    return {label: SicScheduler(channel=channel, packet_bits=packet_bits,
                                techniques=techniques)
            for label, techniques in TECHNIQUE_SETS.items()}


@dataclass(frozen=True)
class _SnapshotBatch:
    """Picklable chunk config: the busy snapshots' backlogs."""

    #: Per snapshot: ``((client_name, rss_w), ...)`` in snapshot order.
    backlogs: Tuple[Tuple[Tuple[str, float], ...], ...]
    bandwidth_hz: float
    packet_bits: float


def _fig13_chunk(batch: _SnapshotBatch, start: int,
                 n: int) -> Dict[str, np.ndarray]:
    """Evaluate snapshots ``[start, start + n)`` for all three curves.

    Work sharing, per the fast-path design: solo airtimes and the
    triangular pair-airtime arrays of *all* snapshots in the chunk are
    computed in one ``solo_airtime_batch`` call plus one
    ``pair_airtime_batch`` call per technique set (both pinned
    element-identical to their scalar counterparts, and elementwise, so
    slicing the concatenation equals the per-snapshot calls); each
    snapshot's backlog and :class:`BacklogCosts` are then built once
    and shared by the three schedulers through
    :meth:`~repro.scheduling.scheduler.SicScheduler.schedule_gain`.
    """
    schedulers = _technique_schedulers(batch.bandwidth_hz,
                                       batch.packet_bits)
    shared = next(iter(schedulers.values()))
    channel, packet_bits = shared.channel, shared.packet_bits
    backlogs = batch.backlogs[start:start + n]
    rss_arrays = [np.fromiter((rss for _, rss in backlog), dtype=float,
                              count=len(backlog)) for backlog in backlogs]

    # One batched costing over the whole chunk, sliced per snapshot.
    pair_keys_of: Dict[int, List[Tuple[int, int]]] = {}
    triu_of: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    a_parts: List[np.ndarray] = []
    b_parts: List[np.ndarray] = []
    for rss in rss_arrays:
        m = len(rss)
        if m not in triu_of:
            ii, jj = np.triu_indices(m, k=1)
            triu_of[m] = (ii, jj)
            pair_keys_of[m] = list(zip(ii.tolist(), jj.tolist()))
        ii, jj = triu_of[m]
        a_parts.append(rss[ii])
        b_parts.append(rss[jj])
    all_a = np.concatenate(a_parts) if a_parts else np.empty(0)
    all_b = np.concatenate(b_parts) if b_parts else np.empty(0)
    all_rss = np.concatenate(rss_arrays) if rss_arrays else np.empty(0)
    all_solos = solo_airtime_batch(channel, packet_bits, all_rss)
    all_airtimes = {
        label: pair_airtime_batch(channel, packet_bits, all_a, all_b,
                                  techniques=scheduler.techniques,
                                  sic_enabled=scheduler.sic_enabled)
        for label, scheduler in schedulers.items()
    }

    out = {label: np.empty(n) for label in schedulers}
    client_at = pair_at = 0
    for k, backlog in enumerate(backlogs):
        m = len(backlog)
        n_pairs = len(pair_keys_of[m])
        clients = [UploadClient(name, rss) for name, rss in backlog]
        solos = all_solos[client_at:client_at + m]
        precomputed = BacklogCosts(
            names=tuple(name for name, _ in backlog),
            rss_w=rss_arrays[k],
            solo_airtime_s=solos,
            serial_time_s=float(sum(solos.tolist())))
        dummy = m if m % 2 == 1 else None
        for label, scheduler in schedulers.items():
            # Same (costs, dummy) layout as ``build_cost_graph``.
            airtimes = all_airtimes[label][pair_at:pair_at + n_pairs]
            costs = dict(zip(pair_keys_of[m], airtimes.tolist()))
            if dummy is not None:
                for i, t in enumerate(solos.tolist()):
                    costs[(i, dummy)] = t
            out[label][k] = scheduler.schedule_gain(
                clients, precomputed=precomputed,
                cost_graph=(costs, dummy))
        client_at += m
        pair_at += n_pairs
    return out


def compute(trace: Optional[UploadTrace] = None,
            trace_config: Optional[UploadTraceConfig] = None,
            seed: SeedLike = 2010,
            packet_bits: float = 12_000.0,
            max_snapshots: Optional[int] = None,
            *,
            chunk_size: Optional[int] = None,
            cache: Optional[ResultCache] = None,
            policy: Optional[ExecutionPolicy] = None,
            timer: Optional[PhaseTimer] = None,
            ) -> Dict[str, Dict[str, object]]:
    """Per-technique gain distributions over the trace's busy snapshots.

    Pass a ``trace`` (e.g. read from JSONL) to evaluate existing data;
    otherwise a synthetic trace is generated from ``trace_config``.

    ``max_snapshots`` keeps the first that many busy snapshots (at
    least 1; ``None`` keeps all); a trace generated from an int or
    ``SeedSequence`` seed is then resolved only up to the block holding
    the last of them, while ``meta["trace_duration_s"]`` stays the full
    trace's.  Snapshot scheduling runs through
    :func:`~repro.experiments.runner.run_indexed`: ``policy`` fault
    handling and pool, checkpoint/resume, and the result cache
    (generated traces with cacheable seeds only) — with results
    bit-identical to the serial path for any pool.  ``timer`` splits
    wall-clock into ``trace_gen`` / ``scheduling`` / ``assembly``.
    """
    if max_snapshots is not None and max_snapshots < 1:
        raise ValueError(
            f"max_snapshots must be at least 1 (or None), got {max_snapshots}")
    generated = trace is None
    config = token = None
    if generated:
        config = trace_config or UploadTraceConfig()
        token = seed_cache_token(seed)
        with maybe_phase(timer, "trace_gen"):
            generator = UploadTraceGenerator(config)
            # Under a cap, with a seed that replays, resolve only the
            # blocks holding the first busy snapshots; the full trace's
            # span then comes from a second pass over the draws.  A
            # trace with fewer busy snapshots than the cap came back
            # whole and holds its own span.
            prefix = max_snapshots is not None and token is not None
            trace = generator.generate(
                seed, until_busy=max_snapshots if prefix else None)
            cut = prefix and len(trace.busy_snapshots(2)) >= max_snapshots
            duration_s = (generator.duration_s(seed) if cut
                          else trace.duration_s)
    else:
        duration_s = trace.duration_s
    snapshots = trace.busy_snapshots(min_clients=2)
    if max_snapshots is not None:
        snapshots = snapshots[:max_snapshots]
    if not snapshots:
        raise ValueError("trace has no snapshots with >= 2 clients")

    with maybe_phase(timer, "scheduling"):
        # One array dBm -> W conversion for every client of the run:
        # each scalar ``obs.rss_w`` pays numpy's per-call overhead.
        rss_w = iter(np.asarray(dbm_to_watts(
            [obs.rssi_dbm for snap in snapshots for obs in snap.clients]),
            dtype=float).tolist())
        batch = _SnapshotBatch(
            backlogs=tuple(
                tuple((obs.client, next(rss_w)) for obs in snap.clients)
                for snap in snapshots),
            bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
            packet_bits=packet_bits)
        cache_key = None
        if token is not None:
            cache_key = {"trace_config": asdict(config),
                         "seed": token,
                         "packet_bits": packet_bits,
                         "max_snapshots": max_snapshots}
        merged = run_indexed(
            "fig13", _fig13_chunk, batch, len(snapshots),
            code_version=1, cache_key=cache_key,
            chunk_size=chunk_size if chunk_size is not None
            else SNAPSHOT_CHUNK,
            cache=cache, policy=policy)

    with maybe_phase(timer, "assembly"):
        results: Dict[str, Dict[str, object]] = {
            label: {"gains": merged[label],
                    "summary": gain_cdf_summary(merged[label])}
            for label in TECHNIQUE_SETS
        }
        results["meta"] = {
            "n_snapshots": len(snapshots),
            "building": trace.building,
            "trace_duration_s": duration_s,
        }
    return results


def compute_scalar(trace: Optional[UploadTrace] = None,
                   trace_config: Optional[UploadTraceConfig] = None,
                   seed: SeedLike = 2010,
                   packet_bits: float = 12_000.0,
                   max_snapshots: Optional[int] = None,
                   ) -> Dict[str, Dict[str, object]]:
    """The historical serial pipeline, behaviourally frozen (PR-1
    convention): scalar trace generation, then one pass per technique
    set rebuilding every snapshot's backlog from scratch.  Golden
    reference and benchmark baseline for :func:`compute`."""
    if trace is None:
        config = trace_config or UploadTraceConfig()
        trace = UploadTraceGenerator(config).generate_scalar(seed)
    snapshots = trace.busy_snapshots(min_clients=2)
    if max_snapshots is not None:
        snapshots = snapshots[:max_snapshots]
    if not snapshots:
        raise ValueError("trace has no snapshots with >= 2 clients")

    channel = Channel(bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
                      noise_w=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ))
    results: Dict[str, Dict[str, object]] = {}
    for label, techniques in TECHNIQUE_SETS.items():
        scheduler = SicScheduler(channel=channel, packet_bits=packet_bits,
                                 techniques=techniques)
        gains = np.array([snapshot_gain(scheduler, snap)
                          for snap in snapshots])
        results[label] = {
            "gains": gains,
            "summary": gain_cdf_summary(gains),
        }
    results["meta"] = {
        "n_snapshots": len(snapshots),
        "building": trace.building,
        "trace_duration_s": trace.duration_s,
    }
    return results
