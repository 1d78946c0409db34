"""Fig. 14 — trace-based evaluation of two AP-client pairs.

Panel (a): arbitrary (Shannon-ideal) bitrates from the recorded SNRs —
"even with packing SIC offers limited gains", similar to Fig. 11b.
Panel (b): only the discrete 802.11g bitrates measured at the 90 %
packet-success criterion — "the performance of SIC improves under
discrete bitrates ... with packet packing, SIC offers more than 20 %
gain in 40 % scenarios".

Each scenario draws two client locations and two distinct APs from the
(synthetic) measurement campaign; AP_a serves location 1 while AP_b
serves location 2 concurrently.

Fast path (``docs/trace_performance.md``): the campaign comes from the
vectorised downlink generator and the scenario index table is drawn
up-front from the unchanged RNG stream, so the (deterministic) scenario
evaluations can run as chunks of the supervised indexed runner, in
worker processes when the ``policy`` carries a pool.  Each chunk
converts its scenarios' four SNRs from dB in one ``db_to_linear`` call
and computes the ``arbitrary+packing`` curve in one
:func:`~repro.experiments.montecarlo.two_receiver_packing_gain_batch`
call over the chunk.  Between the two, each scenario still runs the
scalar :func:`~repro.sic.scenarios.evaluate_pair_scenario` (its case,
feasibility and completion times feed the batched packing step) and
the discrete-rate half.  The scenario evaluation stays scalar on
purpose: the repository benchmark's span checks expect the scalar
function on its trace-figure workload, where this figure is its only
caller (Layer 4 of ``docs/trace_performance.md``).
:func:`compute_scalar` freezes the historical serial pipeline as the
golden reference.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.montecarlo import (
    two_receiver_packing_gain,
    two_receiver_packing_gain_batch,
)
from repro.experiments.runner import (
    ExecutionPolicy,
    run_indexed,
    seed_cache_token,
)
from repro.phy.shannon import Channel
from repro.sic.discrete import (
    DiscretePairRates,
    discrete_packing_gain,
    evaluate_discrete_pair,
)
from repro.sic.scenarios import (
    CASE_ORDER,
    PairRss,
    PairScenarioBatch,
    evaluate_pair_scenario,
)
from repro.traces.downlink import DownlinkTraceConfig, DownlinkTraceGenerator
from repro.traces.records import DownlinkMeasurement
from repro.util.cache import ResultCache
from repro.util.cdf import gain_cdf_summary
from repro.util.rng import SeedLike, make_rng
from repro.util.timing import PhaseTimer, maybe_phase
from repro.util.units import db_to_linear

DEFAULT_BANDWIDTH_HZ = 20e6
DEFAULT_PACKET_BITS = 12_000.0

#: The four curves of Fig. 14 (panels a and b).
GAIN_LABELS = ("arbitrary", "arbitrary+packing",
               "discrete", "discrete+packing")

#: Scenarios per chunk — fixed (not derived from the pool's size) so
#: the chunk layout and every cache/checkpoint key match across worker
#: counts.
SCENARIO_CHUNK = 250


def _scenario_rss(loc1: DownlinkMeasurement, loc2: DownlinkMeasurement,
                  ap_a: str, ap_b: str) -> PairRss:
    """S_j^i values in noise-normalised units (N0 == 1)."""
    return PairRss(
        s11=float(db_to_linear(loc1.snr_db[ap_a])),
        s12=float(db_to_linear(loc1.snr_db[ap_b])),
        s21=float(db_to_linear(loc2.snr_db[ap_a])),
        s22=float(db_to_linear(loc2.snr_db[ap_b])),
    )


def _scenario_discrete_rates(loc1: DownlinkMeasurement,
                             loc2: DownlinkMeasurement,
                             ap_a: str, ap_b: str) -> DiscretePairRates:
    return DiscretePairRates(
        clean_1=loc1.clean_rate_bps[ap_a],
        clean_2=loc2.clean_rate_bps[ap_b],
        interfered_11=loc1.interfered_rate_bps[(ap_a, ap_b)],
        interfered_21=loc2.interfered_rate_bps[(ap_a, ap_b)],
        interfered_22=loc2.interfered_rate_bps[(ap_b, ap_a)],
        interfered_12=loc1.interfered_rate_bps[(ap_b, ap_a)],
    )


@dataclass(frozen=True)
class _ScenarioBatch:
    """Picklable chunk config: campaign + pre-drawn scenario table."""

    measurements: Tuple[DownlinkMeasurement, ...]
    ap_names: Tuple[str, ...]
    #: Per scenario: ``(loc_i, loc_j, ap_a_idx, ap_b_idx)``.
    scenario_idx: Tuple[Tuple[int, int, int, int], ...]
    bandwidth_hz: float
    packet_bits: float


def _fig14_chunk(batch: _ScenarioBatch, start: int,
                 n: int) -> Dict[str, np.ndarray]:
    """Evaluate scenarios ``[start, start + n)`` for all four curves.

    Deterministic given the batch — the randomness lives entirely in
    the pre-drawn ``scenario_idx`` table — so chunking and worker count
    cannot change results.
    """
    channel = Channel(bandwidth_hz=batch.bandwidth_hz, noise_w=1.0)
    packet_bits = batch.packet_bits
    pairs = []
    snr_db = []
    for i, j, a_idx, b_idx in batch.scenario_idx[start:start + n]:
        loc1, loc2 = batch.measurements[i], batch.measurements[j]
        ap_a, ap_b = batch.ap_names[a_idx], batch.ap_names[b_idx]
        pairs.append((loc1, loc2, ap_a, ap_b))
        snr_db.append((loc1.snr_db[ap_a], loc1.snr_db[ap_b],
                       loc2.snr_db[ap_a], loc2.snr_db[ap_b]))
    # S_j^i in noise-normalised units (N0 == 1), one row per scenario.
    snr = db_to_linear(np.array(snr_db, dtype=float).reshape(n, 4))

    out = {label: np.empty(n) for label in GAIN_LABELS}
    codes: List[int] = []
    feasible: List[bool] = []
    z_serial: List[float] = []
    z_sic: List[float] = []
    for k, ((loc1, loc2, ap_a, ap_b), row) in enumerate(
            zip(pairs, snr.tolist())):
        rss = PairRss(*row)
        scenario = evaluate_pair_scenario(channel, packet_bits, rss)
        out["arbitrary"][k] = scenario.gain
        codes.append(CASE_ORDER.index(scenario.case))
        feasible.append(scenario.sic_feasible)
        z_serial.append(scenario.z_serial_s)
        z_sic.append(scenario.z_sic_s)

        rates = _scenario_discrete_rates(loc1, loc2, ap_a, ap_b)
        discrete = evaluate_discrete_pair(packet_bits, rss, rates)
        out["discrete"][k] = discrete.gain
        out["discrete+packing"][k] = discrete_packing_gain(
            packet_bits, discrete, rates)

    scenarios = PairScenarioBatch(
        case_codes=np.array(codes, dtype=np.uint8),
        sic_feasible=np.array(feasible, dtype=bool),
        z_serial_s=np.array(z_serial, dtype=float),
        z_sic_s=np.array(z_sic, dtype=float))
    out["arbitrary+packing"] = two_receiver_packing_gain_batch(
        channel, packet_bits, *snr.T, scenarios, max_fast_packets=8)
    return out


def compute(measurements: Optional[Sequence[DownlinkMeasurement]] = None,
            n_scenarios: int = 2_000,
            seed: SeedLike = 2010,
            bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
            packet_bits: float = DEFAULT_PACKET_BITS,
            trace_config: Optional[DownlinkTraceConfig] = None,
            *,
            chunk_size: Optional[int] = None,
            cache: Optional[ResultCache] = None,
            policy: Optional[ExecutionPolicy] = None,
            timer: Optional[PhaseTimer] = None,
            ) -> Dict[str, Dict[str, object]]:
    """Both panels over random two-pair scenarios from the campaign.

    Returns ``{"arbitrary": {...}, "arbitrary+packing": {...},
    "discrete": {...}, "discrete+packing": {...}}`` with gain arrays
    and summaries, plus a ``meta`` entry.

    ``n_scenarios`` must be at least 1.  The campaign generation and
    scenario draws replay the scalar RNG stream exactly; the scenario
    evaluations run through
    :func:`~repro.experiments.runner.run_indexed` (``policy`` fault
    handling and pool, checkpoint/resume, result cache for generated
    campaigns with cacheable seeds) with results bit-identical to
    :func:`compute_scalar` for any pool.  ``timer`` phases:
    ``trace_gen`` / ``draw`` / ``evaluate`` / ``assembly``.
    """
    if n_scenarios < 1:
        raise ValueError(f"n_scenarios must be at least 1, got {n_scenarios}")
    rng = make_rng(seed)
    generated = measurements is None
    config = None
    if generated:
        config = trace_config or DownlinkTraceConfig()
        with maybe_phase(timer, "trace_gen"):
            measurements = DownlinkTraceGenerator(config).generate(rng)
    if len(measurements) < 2:
        raise ValueError("need at least two client locations")
    ap_names = measurements[0].ap_names
    if len(ap_names) < 2:
        raise ValueError("need at least two APs")

    with maybe_phase(timer, "draw"):
        scenario_idx: List[Tuple[int, int, int, int]] = []
        for _ in range(n_scenarios):
            # Per-scenario draws are the frozen stream: compute_scalar
            # draws locations-then-APs per scenario, and choice(...,
            # replace=False) consumes a data-dependent number of values,
            # so the two draws cannot be blocked without desyncing.
            i, j = rng.choice(len(measurements), size=2, replace=False)  # repro-lint: disable=RPR403
            a_idx, b_idx = rng.choice(len(ap_names), size=2, replace=False)  # repro-lint: disable=RPR403
            scenario_idx.append((int(i), int(j), int(a_idx), int(b_idx)))

    with maybe_phase(timer, "evaluate"):
        batch = _ScenarioBatch(
            measurements=tuple(measurements),
            ap_names=tuple(ap_names),
            scenario_idx=tuple(scenario_idx),
            bandwidth_hz=bandwidth_hz,
            packet_bits=packet_bits)
        cache_key = None
        if generated:
            token = seed_cache_token(seed)
            if token is not None:
                cache_key = {"trace_config": asdict(config),
                             "seed": token,
                             "n_scenarios": n_scenarios,
                             "bandwidth_hz": bandwidth_hz,
                             "packet_bits": packet_bits}
        merged = run_indexed(
            "fig14", _fig14_chunk, batch, n_scenarios,
            code_version=1, cache_key=cache_key,
            chunk_size=chunk_size if chunk_size is not None
            else SCENARIO_CHUNK,
            cache=cache, policy=policy)

    with maybe_phase(timer, "assembly"):
        result: Dict[str, Dict[str, object]] = {
            label: {"gains": merged[label],
                    "summary": gain_cdf_summary(merged[label])}
            for label in GAIN_LABELS
        }
        result["meta"] = {
            "n_scenarios": n_scenarios,
            "n_locations": len(measurements),
            "ap_names": ap_names,
        }
    return result


def compute_scalar(
        measurements: Optional[Sequence[DownlinkMeasurement]] = None,
        n_scenarios: int = 2_000,
        seed: SeedLike = 2010,
        bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
        packet_bits: float = DEFAULT_PACKET_BITS,
        trace_config: Optional[DownlinkTraceConfig] = None,
        ) -> Dict[str, Dict[str, object]]:
    """The historical serial pipeline, behaviourally frozen (PR-1
    convention): scalar campaign generation and one interleaved
    draw-and-evaluate loop.  Golden reference for :func:`compute`."""
    rng = make_rng(seed)
    if measurements is None:
        config = trace_config or DownlinkTraceConfig()
        measurements = DownlinkTraceGenerator(config).generate_scalar(rng)
    if len(measurements) < 2:
        raise ValueError("need at least two client locations")
    ap_names = measurements[0].ap_names
    if len(ap_names) < 2:
        raise ValueError("need at least two APs")

    # Noise-normalised channel: RSS values are linear SNRs.
    channel = Channel(bandwidth_hz=bandwidth_hz, noise_w=1.0)

    gains: Dict[str, List[float]] = {label: [] for label in GAIN_LABELS}
    for _ in range(n_scenarios):
        i, j = rng.choice(len(measurements), size=2, replace=False)
        loc1, loc2 = measurements[int(i)], measurements[int(j)]
        a_idx, b_idx = rng.choice(len(ap_names), size=2, replace=False)
        ap_a, ap_b = ap_names[int(a_idx)], ap_names[int(b_idx)]

        rss = _scenario_rss(loc1, loc2, ap_a, ap_b)
        scenario = evaluate_pair_scenario(channel, packet_bits, rss)
        gains["arbitrary"].append(scenario.gain)
        gains["arbitrary+packing"].append(
            two_receiver_packing_gain(channel, packet_bits, rss, scenario,
                                      max_fast_packets=8))

        rates = _scenario_discrete_rates(loc1, loc2, ap_a, ap_b)
        discrete = evaluate_discrete_pair(packet_bits, rss, rates)
        gains["discrete"].append(discrete.gain)
        gains["discrete+packing"].append(
            discrete_packing_gain(packet_bits, discrete, rates))

    result: Dict[str, Dict[str, object]] = {
        label: {"gains": np.asarray(values),
                "summary": gain_cdf_summary(values)}
        for label, values in gains.items()
    }
    result["meta"] = {
        "n_scenarios": n_scenarios,
        "n_locations": len(measurements),
        "ap_names": ap_names,
    }
    return result
