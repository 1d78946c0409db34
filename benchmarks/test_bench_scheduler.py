"""Bench: Fig. 12 / Section 6 — the SIC-aware scheduler.

Covers both halves of the scheduling claim: the blossom matching finds
the optimal pairing (ties brute force, beats greedy/random/serial) and
runs in polynomial time on realistic WLAN sizes — plus the fast-path
claim: the vectorised cost graph + array blossom pipeline beats the
scalar reference pipeline by >= 5x on a 64-client backlog while
returning bit-identical schedules.

Speedup and phase attributions land in each benchmark's
``extra_info``, so a ``--benchmark-json`` report carries them.
"""

import pytest

from conftest import best_of, emit, run_once

from repro.experiments import fig12
from repro.scheduling.scheduler import SicScheduler
from repro.techniques.pairing import TechniqueSet
from repro.util.rng import make_rng
from repro.util.timing import PhaseTimer


def test_fig12_policy_comparison(benchmark):
    result = run_once(benchmark, fig12.compute,
                      sizes=(3, 5, 8, 12, 20), n_trials=30, seed=2010)

    for comparison in result["comparisons"]:
        times = comparison.mean_times
        if "brute_force" in times:
            assert times["blossom"] == pytest.approx(
                times["brute_force"], rel=1e-9)
        assert times["blossom"] <= times["greedy"] + 1e-12
        assert times["greedy"] <= times["serial"] + 1e-12

    lines = ["Fig. 12 / Section 6 — scheduler vs baselines "
             "(mean gain over serial, 30 trials per size)"]
    for comparison in result["comparisons"]:
        parts = ", ".join(f"{name} {gain:.3f}x"
                          for name, gain in comparison.mean_gains.items())
        lines.append(f"  n={comparison.n_clients:>3}: {parts}")
    lines.append("  runtime: " + ", ".join(
        f"n={n}: {entry['total_s'] * 1e3:.1f} ms"
        for n, entry in result["runtime"].items()))
    emit(lines)


@pytest.mark.parametrize("n_clients", [8, 16, 32, 64, 128, 256])
def test_scheduler_runtime_scaling(benchmark, n_clients):
    """Raw scheduling latency per backlog size (the O(n^3) claim).

    One round per size — this is a scaling probe, not a microbench —
    with the cost-build/matching/assembly phase split recorded in
    ``extra_info`` so the benchmark JSON shows where the time goes.
    """
    rng = make_rng(2010)
    scheduler = SicScheduler(techniques=TechniqueSet.ALL)
    clients = fig12.random_clients(n_clients, rng,
                                   noise_w=scheduler.channel.noise_w)
    timer = PhaseTimer()
    schedule = benchmark.pedantic(
        lambda: scheduler.schedule(clients, timer=timer),
        rounds=1, iterations=1)
    assert sorted(schedule.client_names) == sorted(
        c.name for c in clients)
    for phase, seconds in timer.phases.items():
        benchmark.extra_info[f"{phase}_s"] = seconds


def test_scheduler_fast_path_speedup(benchmark):
    """The PR's headline number: fast pipeline vs the frozen scalar
    pipeline on a 64-client backlog, bit-identical outputs required.

    Best-of timing on both sides keeps the ratio robust to scheduler
    jitter; the measured ratio is recorded in ``extra_info``.
    """
    rng = make_rng(2010)
    scheduler = SicScheduler(techniques=TechniqueSet.ALL)
    clients = fig12.random_clients(64, rng,
                                   noise_w=scheduler.channel.noise_w)

    fast = scheduler.schedule(clients)
    scalar = scheduler.schedule_scalar(clients)
    assert fast.to_dict() == scalar.to_dict()

    fast_s = best_of(lambda: scheduler.schedule(clients), 4)
    scalar_s = best_of(lambda: scheduler.schedule_scalar(clients), 2)
    speedup = scalar_s / fast_s

    benchmark.extra_info["fast_s"] = fast_s
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup"] = speedup
    run_once(benchmark, lambda: scheduler.schedule(clients))

    emit([f"Scheduler fast path (n=64): {fast_s * 1e3:.1f} ms "
          f"vs scalar {scalar_s * 1e3:.1f} ms -> {speedup:.2f}x"])
    assert speedup >= 5.0
