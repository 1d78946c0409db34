"""Bench: fast-path trace evaluation — vectorised generation + gain-only
scheduling for the Fig. 13/14 pipelines.

The headline claim: end-to-end ``fig13.compute`` (trace generation +
three technique sets over every busy snapshot) beats the frozen scalar
reference ``fig13.compute_scalar`` by >= 10x at the full 600-snapshot
evaluation scale, while returning bit-identical gain arrays.  The
supporting claims: the vectorised trace generators reproduce their
scalar references bit for bit at a large multiple of the speed, and the
phase split (trace_gen / scheduling / assembly) lands in each
benchmark's ``extra_info``.
"""

import numpy as np

from conftest import best_of, emit, run_once

from repro.experiments import fig13
from repro.traces.downlink import DownlinkTraceConfig, DownlinkTraceGenerator
from repro.traces.synthetic import UploadTraceConfig, UploadTraceGenerator
from repro.util.cache import ResultCache
from repro.util.timing import PhaseTimer

N_SNAPSHOTS = 600


def test_fig13_fast_path_speedup(benchmark):
    """The PR's headline number: vectorised generation + gain-only
    scheduling vs the frozen scalar pipeline, end to end at default
    config, bit-identical gains required."""
    kw = dict(trace_config=UploadTraceConfig(duration_days=14.0),
              seed=2010, max_snapshots=N_SNAPSHOTS,
              cache=ResultCache(None))  # timing runs must never cache-hit

    fast = fig13.compute(**kw)
    scalar = fig13.compute_scalar(
        trace_config=kw["trace_config"], seed=2010,
        max_snapshots=kw["max_snapshots"])
    for label in ("pairing", "pairing+power_control", "pairing+multirate"):
        assert np.array_equal(fast[label]["gains"],
                              scalar[label]["gains"]), label
        assert fast[label]["summary"] == scalar[label]["summary"]
    assert fast["meta"] == scalar["meta"]

    fast_s = best_of(lambda: fig13.compute(**kw), 3)
    scalar_s = best_of(
        lambda: fig13.compute_scalar(
            trace_config=kw["trace_config"], seed=2010,
            max_snapshots=kw["max_snapshots"]), 1)
    speedup = scalar_s / fast_s

    timer = PhaseTimer()
    result = run_once(benchmark, lambda: fig13.compute(**kw, timer=timer))
    benchmark.extra_info["fast_s"] = fast_s
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["n_snapshots"] = result["meta"]["n_snapshots"]
    for phase, seconds in timer.phases.items():
        benchmark.extra_info[f"{phase}_s"] = seconds

    emit([f"Fig. 13 fast path ({result['meta']['n_snapshots']} snapshots): "
          f"{fast_s * 1e3:.0f} ms vs scalar {scalar_s * 1e3:.0f} ms "
          f"-> {speedup:.1f}x",
          "  phases: " + ", ".join(f"{p} {s * 1e3:.0f} ms"
                                   for p, s in timer.phases.items())])
    assert speedup >= 10.0


def test_upload_trace_generation_speedup(benchmark):
    """Block-batched ``generate`` vs frozen ``generate_scalar`` on the
    full two-week trace, bit-identical output required.  The floor pins
    the per-block resolution: 38-58x on a 2-vCPU host, where resolving
    each snapshot on its own read 28x."""
    generator = UploadTraceGenerator(UploadTraceConfig(duration_days=14.0))

    assert generator.generate(2010) == generator.generate_scalar(2010)

    fast_s = best_of(lambda: generator.generate(2010), 3)
    scalar_s = best_of(lambda: generator.generate_scalar(2010), 1)
    speedup = scalar_s / fast_s

    run_once(benchmark, lambda: generator.generate(2010))
    benchmark.extra_info["fast_s"] = fast_s
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup"] = speedup

    emit([f"Upload trace generation (14 days): {fast_s * 1e3:.0f} ms vs "
          f"scalar {scalar_s * 1e3:.0f} ms -> {speedup:.1f}x"])
    assert speedup >= 10.0


def test_downlink_campaign_generation_speedup(benchmark):
    """Vectorised downlink campaign vs its scalar reference.  The floor
    pins the one batched rate search: 25-27x on a 2-vCPU host, where a
    scalar search per link read 1.3x."""
    generator = DownlinkTraceGenerator(DownlinkTraceConfig(n_locations=100))

    assert generator.generate(2010) == generator.generate_scalar(2010)

    fast_s = best_of(lambda: generator.generate(2010), 3)
    scalar_s = best_of(lambda: generator.generate_scalar(2010), 1)
    speedup = scalar_s / fast_s

    run_once(benchmark, lambda: generator.generate(2010))
    benchmark.extra_info["fast_s"] = fast_s
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup"] = speedup

    emit([f"Downlink campaign (100 locations): {fast_s * 1e3:.0f} ms vs "
          f"scalar {scalar_s * 1e3:.0f} ms -> {speedup:.1f}x"])
    assert speedup >= 5.0
