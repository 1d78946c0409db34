"""Fig. 12 / Section 6 — the scheduling-to-matching reduction itself.

Fig. 12 is a schematic, not a data plot; what is checkable is the
reduction's *behaviour*: the blossom-based scheduler finds the optimal
pairing (equal to brute force for small n), beats greedy and random
pairing, and handles odd client counts through the dummy node.  This
module produces those numbers.

:func:`compute` runs each size's policy comparison as the items of one
supervised indexed map (:func:`~repro.experiments.runner.run_indexed`):
under the suite engine they run on the shared worker pool, elsewhere
in-process, in order.  Every item reseeds from ``seed`` (a live
``Generator`` keeps them in-process), so results are the same either
way.  The result holds no wall-clock values, so it is the same on every
run; the polynomial-runtime claim is timed by
``benchmarks/test_bench_scheduler.py`` instead (and
:func:`runtime_scaling` times one schedule per size for other callers).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.runner import (
    ExecutionPolicy,
    run_indexed,
    seed_cache_token,
)
from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel
from repro.scheduling.baselines import (
    brute_force_schedule,
    greedy_schedule,
    random_schedule,
    serial_schedule,
)
from repro.scheduling.scheduler import SicScheduler, UploadClient
from repro.techniques.pairing import TechniqueSet
from repro.util.rng import SeedLike, make_rng
from repro.util.timing import PhaseTimer
from repro.util.units import db_to_linear

DEFAULT_BANDWIDTH_HZ = 20e6

#: Every policy :func:`compare_policies` can run, in its key order.
POLICIES = ("blossom", "greedy", "random", "serial", "brute_force")


def random_clients(n: int, rng: np.random.Generator, snr_db_low: float = 3.0,
                   snr_db_high: float = 45.0,
                   noise_w: Optional[float] = None) -> List[UploadClient]:
    """Clients with log-uniform SNRs, the scheduler's natural workload."""
    if noise_w is None:
        noise_w = thermal_noise_watts(DEFAULT_BANDWIDTH_HZ)
    snrs_db = rng.uniform(snr_db_low, snr_db_high, size=n)
    return [UploadClient(f"C{i + 1}", float(db_to_linear(snr)) * noise_w)
            for i, snr in enumerate(snrs_db)]


@dataclass(frozen=True)
class SchedulerComparison:
    """Mean completion times of every scheduling policy, per n."""

    n_clients: int
    mean_times: Dict[str, float]
    mean_gains: Dict[str, float]


def compare_policies(n_clients: int, n_trials: int = 50,
                     techniques: TechniqueSet = TechniqueSet.ALL,
                     seed: SeedLike = 2010,
                     include_brute_force: Optional[bool] = None
                     ) -> SchedulerComparison:
    """Blossom vs greedy vs random vs serial (vs brute force if small)."""
    if include_brute_force is None:
        include_brute_force = n_clients <= 8
    rng = make_rng(seed)
    channel = Channel(bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
                      noise_w=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ))
    scheduler = SicScheduler(channel=channel, techniques=techniques)
    policies = {
        "blossom": lambda clients: scheduler.schedule(clients),
        "greedy": lambda clients: greedy_schedule(scheduler, clients),
        "random": lambda clients: random_schedule(scheduler, clients, rng),
        "serial": lambda clients: serial_schedule(scheduler, clients),
    }
    if include_brute_force:
        policies["brute_force"] = (
            lambda clients: brute_force_schedule(scheduler, clients))

    times = {name: [] for name in policies}
    gains = {name: [] for name in policies}
    for _ in range(n_trials):
        clients = random_clients(n_clients, rng, noise_w=channel.noise_w)
        serial_time = scheduler.serial_time(clients)
        for name, policy in policies.items():
            schedule = policy(clients)
            times[name].append(schedule.total_time_s)
            gains[name].append(serial_time / schedule.total_time_s)
    return SchedulerComparison(
        n_clients=n_clients,
        mean_times={k: float(np.mean(v)) for k, v in times.items()},
        mean_gains={k: float(np.mean(v)) for k, v in gains.items()},
    )


def runtime_scaling(sizes: Sequence[int] = (4, 8, 16, 32, 64),
                    seed: SeedLike = 2010
                    ) -> Dict[int, Dict[str, float]]:
    """Wall-clock seconds to schedule one instance of each size.

    Each entry holds the total plus the per-phase attribution from a
    :class:`~repro.util.timing.PhaseTimer` threaded through
    :meth:`~repro.scheduling.scheduler.SicScheduler.schedule` —
    ``cost_build`` (vectorised t_ij matrix), ``matching`` (blossom) and
    ``assembly`` (re-costing the chosen slots), so runtime regressions
    point at the phase that caused them.
    """
    rng = make_rng(seed)
    channel = Channel(bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
                      noise_w=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ))
    scheduler = SicScheduler(channel=channel, techniques=TechniqueSet.ALL)
    out: Dict[int, Dict[str, float]] = {}
    for n in sizes:
        clients = random_clients(n, rng, noise_w=channel.noise_w)
        timer = PhaseTimer()
        start = time.perf_counter()
        scheduler.schedule(clients, timer=timer)
        total = time.perf_counter() - start
        entry = {"total_s": total}
        for phase, seconds in timer.phases.items():
            entry[f"{phase}_s"] = seconds
        out[n] = entry
    return out


@dataclass(frozen=True)
class _Study:
    """Picklable chunk config: what every Fig. 12 item reads."""

    sizes: Tuple[int, ...]
    n_trials: int
    seed: SeedLike


def _fig12_chunk(study: _Study, start: int, n: int) -> Dict[str, np.ndarray]:
    """Evaluate items ``[start, start + n)`` of the study.

    Item ``k`` is the policy comparison at ``sizes[k]``: one row of
    ``time``/``gain``, columns in :data:`POLICIES` order, NaN where a
    policy does not run.
    """
    out = {"time": np.full((n, len(POLICIES)), np.nan),
           "gain": np.full((n, len(POLICIES)), np.nan)}
    for row, item in enumerate(range(start, start + n)):
        comparison = compare_policies(study.sizes[item],
                                      n_trials=study.n_trials,
                                      seed=study.seed)
        out["time"][row] = [comparison.mean_times.get(name, np.nan)
                            for name in POLICIES]
        out["gain"][row] = [comparison.mean_gains.get(name, np.nan)
                            for name in POLICIES]
    return out


def _policy_means(row: np.ndarray) -> Dict[str, float]:
    """One ``time``/``gain`` row back into a per-policy dict."""
    return {name: float(value) for name, value in zip(POLICIES, row)
            if not np.isnan(value)}


def compute(sizes: Sequence[int] = (3, 5, 8, 12, 20),
            n_trials: int = 30,
            seed: SeedLike = 2010,
            *,
            policy: Optional[ExecutionPolicy] = None) -> Dict[str, object]:
    """The full Fig. 12 behavioural study.

    One :func:`compare_policies` per size, as ``len(sizes)``
    single-item chunks of one
    :func:`~repro.experiments.runner.run_indexed` map.  ``policy``
    carries the suite's shared pool when there is one.  The map is
    never cached or checkpointed.

    A seed the runner cannot replay (a live ``Generator``, OS entropy)
    keeps every item in-process, in order: each worker would otherwise
    draw from its own pickled copy of one shared stream.
    """
    sizes = tuple(sizes)
    for n in sizes:
        if n < 1:
            raise ValueError(f"fig12 sizes must be >= 1, got {n}")
    if n_trials < 1:
        raise ValueError(f"fig12 n_trials must be >= 1, got {n_trials}")
    if policy is not None and seed_cache_token(seed) is None:
        policy = replace(policy, pool=None)

    merged = run_indexed(
        "fig12", _fig12_chunk, _Study(sizes, n_trials, seed),
        len(sizes), code_version=1, chunk_size=1, cache_key=None,
        policy=policy)

    comparisons = [
        SchedulerComparison(n_clients=n,
                            mean_times=_policy_means(merged["time"][k]),
                            mean_gains=_policy_means(merged["gain"][k]))
        for k, n in enumerate(sizes)]
    return {"comparisons": comparisons}
