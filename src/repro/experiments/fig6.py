"""Fig. 6 — Monte-Carlo CDF of SIC gain, two pairs, different receivers.

The paper fixes the transmitters one *range* apart, drops each receiver
uniformly within range of its transmitter, computes RSS with path-loss
exponent 4, and repeats 10 000+ times per range.  Headline claim: **no
gain from SIC in ~90 % of the cases** ("gains from lower path-loss
exponents and other ranges ... are even lower").

Runs on the batched Monte-Carlo engine: per-range seeds are spawned as
``SeedSequence`` children (stable content for the result cache), and
``chunk_size``/``cache``/``policy`` pass straight through to
:func:`repro.experiments.montecarlo.two_receiver_scenarios` (the
``policy`` knob is the supervised executor's fault-tolerance bundle,
and its ``pool`` runs the chunks in worker processes; see
``docs/resilience.md``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.montecarlo import (
    CacheLike,
    MonteCarloConfig,
    PolicyLike,
    two_receiver_scenarios,
)
from repro.util.cdf import gain_cdf_summary
from repro.util.rng import SeedLike, spawn_seed_sequences
from repro.util.timing import PhaseTimer, maybe_phase

DEFAULT_RANGES_M = (10.0, 20.0, 40.0)


def compute(ranges_m: Sequence[float] = DEFAULT_RANGES_M,
            n_samples: int = 10_000,
            pathloss_exponent: float = 4.0,
            seed: SeedLike = 2010,
            chunk_size: Optional[int] = None,
            cache: CacheLike = None,
            policy: PolicyLike = None,
            timer: Optional[PhaseTimer] = None
            ) -> Dict[str, Dict[str, object]]:
    """Gain samples and summaries, one entry per transmitter range.

    Returns ``{range_label: {"gains": ndarray, "summary": {...}}}``.
    ``timer`` charges one ``range=...`` phase per sweep entry.
    """
    seeds = spawn_seed_sequences(seed, len(ranges_m))
    results: Dict[str, Dict[str, object]] = {}
    for range_m, range_seed in zip(ranges_m, seeds):
        config = MonteCarloConfig(n_samples=n_samples, range_m=range_m,
                                  pathloss_exponent=pathloss_exponent)
        with maybe_phase(timer, f"range={range_m:g}m"):
            gains, case_fractions = two_receiver_scenarios(
                config, range_seed, chunk_size=chunk_size, cache=cache,
                policy=policy)
        results[f"range={range_m:g}m"] = {
            "gains": gains,
            "summary": gain_cdf_summary(gains),
            "case_fractions": case_fractions,
        }
    return results


def fraction_no_gain(result: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """The paper's headline number per range: fraction with gain == 1."""
    return {label: entry["summary"]["frac_no_gain"]
            for label, entry in result.items()}
