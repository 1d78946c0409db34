"""Bench: the suite execution engine vs the sequential baseline.

The headline claim: running the five supervised figures through one
shared :class:`~repro.experiments.suite.SuitePool` (cross-figure work
interleaving) beats the pre-suite ``all`` path — figures strictly one
after another, each ``compute()`` inline on a single worker — by >= 2x
end to end at benchmark scale on a multi-core host, while staying
bit-identical figure by figure.  The floor needs cross-figure overlap,
so it applies on hosts with at least four CPU cores; smaller hosts
assert only that the shared pool is not pathologically slower.
"""

import os
import time

import numpy as np

from conftest import emit, run_once

from repro.experiments import fig6, fig7, fig11, fig13, fig14
from repro.experiments.suite import run_suite
from repro.experiments.transport import active_segments

SEED = 2010


def _suite_kwargs():
    """Per-figure kwargs at the bench's 4 000-draw evaluation scale.

    Identical kwargs drive the sequential baseline and the suite run,
    so the bit-identity comparison is exact (chunk layouts and seeds
    never differ between the two sides).
    """
    return {
        "fig6": {"n_samples": 4000, "seed": SEED, "chunk_size": 250},
        "fig7": {"n_ewlan_grids": 100, "n_residential_rows": 300,
                 "seed": SEED},
        "fig11": {"n_samples": 4000, "seed": SEED, "chunk_size": 250},
        "fig13": {"max_snapshots": 400, "seed": SEED},
        "fig14": {"n_scenarios": 2000, "seed": SEED},
    }


def _sequential_baseline(kwargs):
    """The pre-suite ``all`` path: one figure after another, inline."""
    return {
        "fig6": fig6.compute(**kwargs["fig6"]),
        "fig7": fig7.compute(**kwargs["fig7"]),
        "fig11": fig11.compute(**kwargs["fig11"]),
        "fig13": fig13.compute(**kwargs["fig13"]),
        "fig14": fig14.compute(**kwargs["fig14"]),
    }


def _assert_gain_map_equal(actual, expected, context):
    for label in expected:
        if label == "meta":
            assert actual[label] == expected[label], (context, label)
            continue
        assert np.array_equal(actual[label]["gains"],
                              expected[label]["gains"]), (context, label)


def test_suite_speedup_over_sequential_baseline(benchmark):
    """The PR's headline number: shared-pool suite vs sequential
    supervised baseline, bit-identical per-figure outputs required."""
    kwargs = _suite_kwargs()
    figures = list(kwargs)
    workers = min(4, os.cpu_count() or 1)
    segments_before = active_segments()

    start = time.perf_counter()
    baseline = _sequential_baseline(kwargs)
    baseline_s = time.perf_counter() - start

    suite = run_once(
        benchmark,
        lambda: run_suite(figures, kwargs, n_workers=workers))
    suite_s = suite.wall_s
    speedup = baseline_s / suite_s
    runs = suite.runs()

    # Identity: the suite only moves where chunks execute.
    _assert_gain_map_equal(runs["fig6"].result, baseline["fig6"], "fig6")
    for panel in baseline["fig11"]:
        _assert_gain_map_equal(runs["fig11"].result[panel],
                               baseline["fig11"][panel], f"fig11/{panel}")
    _assert_gain_map_equal(runs["fig13"].result, baseline["fig13"], "fig13")
    _assert_gain_map_equal(runs["fig14"].result, baseline["fig14"], "fig14")
    assert runs["fig7"].result["ewlan"] == baseline["fig7"]["ewlan"]
    assert runs["fig7"].result["residential"] \
        == baseline["fig7"]["residential"]

    # Every pooled chunk came back through the transport (no chunk at
    # this scale reaches its 64 KiB shared-memory threshold), and no
    # segment was left behind.
    stats = suite.pool_stats
    transported = suite.transport["shm_chunks"] \
        + suite.transport["pickled_chunks"]
    assert transported == stats["tasks_done"] > 0
    assert active_segments() == segments_before

    benchmark.extra_info["baseline_s"] = baseline_s
    benchmark.extra_info["suite_s"] = suite_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["pool_utilization"] = stats["utilization"]
    benchmark.extra_info["pool_chunks"] = stats["tasks_done"]
    benchmark.extra_info["shm_chunks"] = suite.transport["shm_chunks"]
    benchmark.extra_info["shm_bytes"] = suite.transport["shm_bytes"]
    benchmark.extra_info["pickled_chunks"] = \
        suite.transport["pickled_chunks"]

    emit([f"suite ({len(figures)} figures, {workers} workers): "
          f"{suite_s:.2f} s vs sequential {baseline_s:.2f} s "
          f"-> {speedup:.2f}x",
          f"  pool: {stats['tasks_done']} chunks, utilization "
          f"{stats['utilization']:.1%}",
          f"  transport: {suite.transport['shm_chunks']} shm chunks / "
          f"{suite.transport['shm_bytes'] / 1024:.0f} KiB, "
          f"{suite.transport['pickled_chunks']} pickled"])

    # >= 2x needs enough cores for cross-figure overlap to pay.  Below
    # that, assert only that the shared pool is not pathologically
    # slower.
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0
    else:
        assert speedup >= 0.3
