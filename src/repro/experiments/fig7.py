"""Fig. 7 / Section 4 — SIC across wireless architectures.

Fig. 7 itself is a topology illustration; the checkable content is the
three per-architecture arguments of Section 4, computed by
:mod:`repro.architectures`:

* **7a (enterprise WLAN)** — nearest-AP association puts cross-AP
  pairs in the capture case, so SIC is not needed there;
* **7b (residential WLAN)** — the home-AP lock creates a minority of
  SIC opportunities that are worth almost nothing under ideal rates;
* **7c (mesh)** — long-short-long chains enable SIC at the middle
  node; equalised chains break it, and even the feasible overlaps are
  capped by the slow long hops.

:func:`compute` runs the batched architecture engines under the
supervised runner (workers, checkpoint/resume, result cache);
:func:`compute_scalar` freezes the original scalar pipeline as the
golden reference — bit-identical output for any seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.architectures.ewlan import (
    evaluate_ewlan_cross_pairs,
    evaluate_ewlan_cross_pairs_scalar,
)
from repro.architectures.mesh import (
    feasibility_frontier,
    sweep_chain_geometries,
    sweep_chain_geometries_scalar,
)
from repro.architectures.residential import (
    evaluate_residential_rows,
    evaluate_residential_rows_scalar,
)
from repro.experiments.runner import ExecutionPolicy
from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel
from repro.util.cache import ResultCache
from repro.util.rng import SeedLike, spawn_rngs, spawn_seed_sequences
from repro.util.timing import PhaseTimer, maybe_phase

DEFAULT_BANDWIDTH_HZ = 20e6


def compute_scalar(n_ewlan_grids: int = 100,
                   n_residential_rows: int = 300,
                   seed: SeedLike = 2010) -> Dict[str, object]:
    """Frozen scalar reference: the original per-pair pipeline.

    Golden reference and benchmark baseline for the batched
    :func:`compute` (PR-1 convention).
    """
    channel = Channel(bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
                      noise_w=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ))
    rng_ewlan, rng_res = spawn_rngs(seed, 2)
    ewlan = evaluate_ewlan_cross_pairs_scalar(n_grids=n_ewlan_grids,
                                              channel=channel,
                                              seed=rng_ewlan)
    residential = evaluate_residential_rows_scalar(
        n_rows=n_residential_rows, channel=channel, seed=rng_res)
    mesh = sweep_chain_geometries_scalar(channel)
    return {
        "ewlan": ewlan,
        "residential": residential,
        "mesh": mesh,
        "mesh_frontier": feasibility_frontier(mesh),
    }


def compute(n_ewlan_grids: int = 100,
            n_residential_rows: int = 300,
            seed: SeedLike = 2010,
            *,
            chunk_size: Optional[int] = None,
            cache: Optional[ResultCache] = None,
            policy: Optional[ExecutionPolicy] = None,
            timer: Optional[PhaseTimer] = None) -> Dict[str, object]:
    """All three architecture studies with a shared channel and seed.

    Batched fast path, bit-identical to :func:`compute_scalar`.  The
    seed is split with ``spawn_seed_sequences`` (stream-identical to
    the scalar path's ``spawn_rngs``) so the children stay picklable
    and cache-tokenizable for the supervised runner.  ``timer``
    charges one phase per study: ``ewlan``, ``residential`` and
    ``mesh`` (the frontier included).
    """
    channel = Channel(bandwidth_hz=DEFAULT_BANDWIDTH_HZ,
                      noise_w=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ))
    seed_ewlan, seed_res = spawn_seed_sequences(seed, 2)
    with maybe_phase(timer, "ewlan"):
        ewlan = evaluate_ewlan_cross_pairs(n_grids=n_ewlan_grids,
                                           channel=channel, seed=seed_ewlan,
                                           chunk_size=chunk_size,
                                           cache=cache, policy=policy)
    with maybe_phase(timer, "residential"):
        residential = evaluate_residential_rows(n_rows=n_residential_rows,
                                                channel=channel,
                                                seed=seed_res,
                                                chunk_size=chunk_size,
                                                cache=cache, policy=policy)
    with maybe_phase(timer, "mesh"):
        mesh = sweep_chain_geometries(channel)
        frontier = feasibility_frontier(mesh)
    return {
        "ewlan": ewlan,
        "residential": residential,
        "mesh": mesh,
        "mesh_frontier": frontier,
    }


def render(result: Dict[str, object]) -> List[str]:
    """Printable report for the registry/CLI."""
    ewlan = result["ewlan"]
    residential = result["residential"]
    mesh = result["mesh"]
    frontier = result["mesh_frontier"]

    lines = ["[7a enterprise] cross-AP uplink pairs "
             f"({ewlan.n_pairs} sampled):",
             f"  capture (SIC not needed): {ewlan.capture_fraction:.1%}, "
             f"SIC feasible: {ewlan.sic_feasible_fraction:.1%}, "
             f"mean gain: {ewlan.mean_gain:.4f}x",
             "  case mix: " + ", ".join(
                 f"{case.value}={fraction:.1%}"
                 for case, fraction in ewlan.case_fractions.items())]
    lines.append(f"[7b residential] cross-home downlink pairs "
                 f"({residential.n_pairs} sampled):")
    summary = residential.gain_summary
    lines.append(
        f"  SIC feasible: {residential.sic_feasible_fraction:.1%}, "
        f"no-gain: {summary['frac_no_gain']:.1%}, "
        f"max gain: {summary['max']:.3f}x")
    feasible = [a for a in mesh if a.sic_feasible]
    lines.append(f"[7c mesh] chain geometries: {len(feasible)}/"
                 f"{len(mesh)} admit SIC at the middle node")
    if feasible:
        best = max(feasible, key=lambda a: a.gain)
        lines.append(f"  best overlap gain: {best.gain:.2f}x at "
                     f"(long {best.long_hop_m:.0f} m, short "
                     f"{best.short_hop_m:.0f} m)")
    lines.append("  feasibility frontier: " + ", ".join(
        f"long {long_m:.0f} m -> short <= "
        + (f"{limit:.0f} m" if limit is not None else "never")
        for long_m, limit in sorted(frontier.items())))
    return lines
