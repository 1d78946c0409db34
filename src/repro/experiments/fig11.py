"""Fig. 11 — CDFs of SIC gain with the Section-5 techniques.

(a) two transmitters to one receiver: plain SIC is modest (the paper
reads roughly "20 % of cases gain over 20 %"), but power control /
multirate / packing lift it to "over 20 % gain in 40 % of topologies";
(b) two transmitters to two receivers: SIC alone has almost no gain and
very little even with the optimizations.

Runs on the batched Monte-Carlo engines; the two panels get spawned
``SeedSequence`` children (stable content for the result cache), and
``chunk_size``/``cache``/``policy`` pass straight through (``policy``
carries the supervised executor's fault-tolerance knobs and the pool
that runs chunks in worker processes; see ``docs/resilience.md``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.montecarlo import (
    CacheLike,
    MonteCarloConfig,
    PolicyLike,
    one_receiver_technique_gains,
    two_receiver_technique_gains,
)
from repro.util.cdf import gain_cdf_summary
from repro.util.rng import SeedLike, spawn_seed_sequences
from repro.util.timing import PhaseTimer, maybe_phase


def compute(n_samples: int = 10_000,
            range_m: float = 20.0,
            pathloss_exponent: float = 4.0,
            seed: SeedLike = 2010,
            chunk_size: Optional[int] = None,
            cache: CacheLike = None,
            policy: PolicyLike = None,
            timer: Optional[PhaseTimer] = None
            ) -> Dict[str, Dict[str, object]]:
    """Both panels: per-technique gain samples plus summaries.

    Returns ``{"one_receiver": {technique: {...}},
    "two_receivers": {technique: {...}}}`` where each technique entry
    holds ``gains`` (ndarray) and ``summary`` (dict).  ``timer``
    charges one phase per panel.
    """
    config = MonteCarloConfig(n_samples=n_samples, range_m=range_m,
                              pathloss_exponent=pathloss_exponent)
    seed_one, seed_two = spawn_seed_sequences(seed, 2)

    result: Dict[str, Dict[str, object]] = {}
    with maybe_phase(timer, "one_receiver"):
        one = one_receiver_technique_gains(
            config, seed_one, chunk_size=chunk_size, cache=cache,
            policy=policy)
    result["one_receiver"] = {
        technique: {"gains": gains, "summary": gain_cdf_summary(gains)}
        for technique, gains in one.items()
    }
    with maybe_phase(timer, "two_receivers"):
        two = two_receiver_technique_gains(
            config, seed_two, chunk_size=chunk_size, cache=cache,
            policy=policy)
    result["two_receivers"] = {
        technique: {"gains": gains, "summary": gain_cdf_summary(gains)}
        for technique, gains in two.items()
    }
    return result


def headline_fractions(result: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """The fractions the paper's prose quotes (gain over 20 %)."""
    out = {}
    for panel, techniques in result.items():
        for technique, entry in techniques.items():
            out[f"{panel}/{technique}"] = (
                entry["summary"]["frac_gain_over_20pct"])
    return out
