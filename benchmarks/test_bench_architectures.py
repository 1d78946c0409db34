"""Bench: batched architecture sweeps — the Section 4 / Fig. 7 engines.

The headline claim: end-to-end ``fig7.compute`` (EWLAN grids +
residential rows + mesh geometry sweep, all through the batched
pair-scenario engine and the supervised runner) beats the frozen
scalar reference ``fig7.compute_scalar`` by >= 10x at the default
Fig. 7 sweep size, while returning bit-identical reports.
"""

from conftest import best_of, emit, run_once

from repro.experiments import fig7
from repro.util.cache import ResultCache
from repro.util.timing import PhaseTimer

N_GRIDS = 100
#: fig7.compute's timer phases, one per study.
PHASES = ("ewlan", "residential", "mesh")


def test_fig7_architecture_sweep_speedup(benchmark):
    """The PR's headline number: batched EWLAN/residential/mesh sweeps
    vs the frozen scalar pipeline, end to end, bit-identical reports
    required."""
    kw = dict(n_ewlan_grids=N_GRIDS, n_residential_rows=3 * N_GRIDS,
              seed=2010)
    no_cache = ResultCache(None)  # timing runs must never cache-hit

    fast = fig7.compute(**kw, cache=no_cache)
    scalar = fig7.compute_scalar(**kw)
    assert fast["ewlan"] == scalar["ewlan"]
    assert fast["residential"] == scalar["residential"]
    assert fast["mesh"] == scalar["mesh"]
    assert fast["mesh_frontier"] == scalar["mesh_frontier"]

    fast_s = best_of(lambda: fig7.compute(**kw, cache=no_cache), 3)
    scalar_s = best_of(lambda: fig7.compute_scalar(**kw), 1)
    speedup = scalar_s / fast_s

    timer = PhaseTimer()
    result = run_once(benchmark,
                      lambda: fig7.compute(**kw, cache=no_cache,
                                           timer=timer))
    benchmark.extra_info["fast_s"] = fast_s
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["n_ewlan_pairs"] = result["ewlan"].n_pairs
    benchmark.extra_info["n_residential_pairs"] = \
        result["residential"].n_pairs
    assert list(timer.phases) == list(PHASES)
    for phase in PHASES:
        benchmark.extra_info[f"{phase}_s"] = timer.total_s(phase)

    emit([f"Fig. 7 architecture sweeps ({result['ewlan'].n_pairs} EWLAN + "
          f"{result['residential'].n_pairs} residential pairs): "
          f"{fast_s * 1e3:.0f} ms vs scalar {scalar_s * 1e3:.0f} ms "
          f"-> {speedup:.1f}x",
          "  phases: " + ", ".join(f"{p} {s * 1e3:.0f} ms"
                                   for p, s in timer.phases.items())])
    assert speedup >= 10.0

