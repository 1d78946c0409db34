"""Bench: vectorised Monte-Carlo engines vs the scalar reference.

The batched engines are the whole point of the vectorisation work: at
the paper's 10 000-draw evaluation scale they must beat the scalar
per-draw loop by at least an order of magnitude while producing the
same numbers draw for draw (equivalence is asserted by the unit tests;
here we only time the two paths and assert the speedup floor).
"""

import time

from conftest import emit, run_once

from repro.experiments.montecarlo import (
    MonteCarloConfig,
    two_receiver_scenarios,
    two_receiver_scenarios_scalar,
)

N_SAMPLES = 10_000
MIN_SPEEDUP = 10.0


def test_two_receiver_scenarios_speedup(benchmark):
    config = MonteCarloConfig(n_samples=N_SAMPLES)

    start = time.perf_counter()
    gains_ref, _ = two_receiver_scenarios_scalar(config, seed=2010)
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    gains, _ = two_receiver_scenarios(config, seed=2010)
    batched_s = time.perf_counter() - start
    run_once(benchmark, two_receiver_scenarios, config=config, seed=2010)

    assert len(gains) == len(gains_ref) == config.n_samples
    speedup = scalar_s / batched_s
    assert speedup >= MIN_SPEEDUP, (
        f"batched engine only {speedup:.1f}x faster than scalar "
        f"(scalar {scalar_s:.3f}s, batched {batched_s:.3f}s); "
        f"required >= {MIN_SPEEDUP:.0f}x")

    emit([f"Monte-Carlo engine — {config.n_samples} draws, "
          f"two_receiver_scenarios",
          f"  scalar reference: {scalar_s * 1e3:9.1f} ms",
          f"  batched engine:   {batched_s * 1e3:9.1f} ms",
          f"  speedup:          {speedup:9.1f}x (floor {MIN_SPEEDUP:.0f}x)"])
