"""Monte-Carlo engines behind Figs. 6 and 11.

Each engine draws random building-block topologies, evaluates the gain
metric per draw, and returns the raw gain samples (the figure modules
turn those into CDFs and summary rows).

The placement recipe follows Section 3.2: transmitters a fixed *range*
apart, receivers uniform within range of their transmitter, RSS from
log-distance path loss with exponent alpha (default 4), gain computed
as ``Z_{-SIC} / Z_{+SIC}`` over 10 000 draws.

Two implementations coexist:

* the **scalar reference** (``*_scalar`` functions) evaluates one draw
  at a time through the scalar building blocks
  (:func:`repro.topology.generators.random_pair_topology`,
  :func:`repro.sic.scenarios.evaluate_pair_scenario`, ...); it is the
  executable specification the tests compare against;
* the **batched engines** (the public names) sample whole chunks of
  topologies as NumPy arrays and push them through the vectorised
  building blocks — 10-100x faster at paper scale, same draws.

Batched engines run the sweep in chunks.  With the default
``chunk_size=None`` the whole run is one chunk drawn straight from the
caller's seed, so results match the scalar reference draw for draw.
With an explicit ``chunk_size`` each chunk gets its own child seed
spawned deterministically from the caller's seed
(`SeedSequence.spawn`), and a :class:`~repro.experiments.runner.SuitePool`
in the ``policy`` evaluates chunks in its worker processes.  Chunking —
and therefore every result — depends only on
``(seed, n_samples, chunk_size)``, never on the pool, so a parallel run
is bit-identical to a serial one.

Results are memoised through :class:`repro.util.cache.ResultCache`
(set ``REPRO_CACHE_DIR`` or pass an explicit cache) keyed by
``(engine, config, seed, chunking, code version)``.  Bump
:data:`MONTECARLO_CODE_VERSION` whenever the sampled distributions or
the gain arithmetic change.

Chunked runs execute under the *supervised executor*
(:mod:`repro.experiments.runner`): failed chunks are retried, broken
process pools are rebuilt (and eventually degraded to in-process
execution with a warning), and — when ``REPRO_CHECKPOINT_DIR`` or an
explicit :class:`~repro.experiments.runner.ExecutionPolicy` names a
checkpoint directory — completed chunks persist so interrupted sweeps
resume by recomputing only what is missing.  None of this changes
results; see ``docs/resilience.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.phy.noise import thermal_noise_watts
from repro.phy.pathloss import LogDistancePathLoss, rss_from_distances
from repro.phy.shannon import Channel, airtime, shannon_rate
from repro.sic.scenarios import (
    CASE_ORDER,
    PairCase,
    PairRss,
    PairScenario,
    PairScenarioBatch,
    evaluate_pair_scenario,
    evaluate_pair_scenarios_batch,
)
from repro.techniques.multirate import (
    multirate_pair_airtime,
    multirate_pair_airtime_batch,
)
from repro.techniques.packing import pack_pair_gain_batch, pack_pair_links
from repro.techniques.power_control import (
    power_controlled_pair_airtime,
    power_controlled_pair_airtime_batch,
)
from repro.experiments.runner import (
    ExecutionPolicy,
    chunk_seeds,
    chunk_sizes,
    run_chunked,
)
from repro.sic.airtime import z_serial_same_receiver, z_sic_same_receiver
from repro.topology.generators import (
    PairTopology,
    PairTopologyBatch,
    random_pair_topologies,
    random_pair_topology,
    random_uplink_client_batch,
    random_uplink_clients,
)
from repro.topology.nodes import DEFAULT_TX_POWER_W
from repro.util.cache import ResultCache
from repro.util.rng import SeedLike, make_rng

#: Cache-invalidation tag for the batched engines: bump on any change
#: to the sampling recipe or the gain arithmetic.
MONTECARLO_CODE_VERSION = 1

CacheLike = Optional[ResultCache]
PolicyLike = Optional[ExecutionPolicy]

__all__ = [
    "CacheLike",
    "ExecutionPolicy",
    "MONTECARLO_CODE_VERSION",
    "MonteCarloConfig",
    "PolicyLike",
    "chunk_seeds",
    "chunk_sizes",
    "one_receiver_packing_gain",
    "one_receiver_technique_gains",
    "one_receiver_technique_gains_scalar",
    "two_receiver_gains",
    "two_receiver_packing_gain",
    "two_receiver_packing_gain_batch",
    "two_receiver_scenarios",
    "two_receiver_scenarios_scalar",
    "two_receiver_technique_gains",
    "two_receiver_technique_gains_scalar",
]


@dataclass(frozen=True)
class MonteCarloConfig:
    """Shared Monte-Carlo parameters (paper defaults)."""

    n_samples: int = 10_000
    range_m: float = 20.0
    pathloss_exponent: float = 4.0
    tx_power_w: float = DEFAULT_TX_POWER_W
    bandwidth_hz: float = 20e6
    packet_bits: float = 12_000.0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("need at least one sample")

    def channel(self) -> Channel:
        return Channel(bandwidth_hz=self.bandwidth_hz,
                       noise_w=thermal_noise_watts(self.bandwidth_hz))

    def propagation(self) -> LogDistancePathLoss:
        return LogDistancePathLoss(exponent=self.pathloss_exponent)


# ---------------------------------------------------------------------------
# Fig. 6 — two transmitter-receiver pairs
# ---------------------------------------------------------------------------

def two_receiver_gains(config: MonteCarloConfig,
                       seed: SeedLike = None, *,
                       chunk_size: Optional[int] = None,
                       cache: CacheLike = None,
                       policy: PolicyLike = None) -> np.ndarray:
    """Fig. 6: SIC gain samples for random two-pair topologies."""
    gains, _ = two_receiver_scenarios(config, seed, chunk_size=chunk_size,
                                      cache=cache, policy=policy)
    return gains


def _two_receiver_scenarios_chunk(config: MonteCarloConfig, seed: SeedLike,
                                  n: int) -> Dict[str, np.ndarray]:
    """One chunk of the batched Fig. 6 sweep."""
    batch = _sample_pair_scenarios(config, seed, n)
    return {"gains": batch.gains,
            "case_codes": batch.case_codes,
            "sic_feasible": batch.sic_feasible}


def _sample_pair_scenarios(config: MonteCarloConfig, seed: SeedLike,
                           n: int) -> PairScenarioBatch:
    topologies = random_pair_topologies(n, config.range_m, make_rng(seed))
    s11, s12, s21, s22 = _pair_rss_batch(topologies, config)
    return evaluate_pair_scenarios_batch(config.channel(),
                                         config.packet_bits,
                                         s11, s12, s21, s22)


def _pair_rss_batch(topologies: PairTopologyBatch, config: MonteCarloConfig
                    ) -> Tuple[np.ndarray, np.ndarray,
                               np.ndarray, np.ndarray]:
    """The four S_j^k arrays of a pair-topology batch."""
    model = config.propagation()
    d11, d12, d21, d22 = topologies.link_distances()
    s11, s12, s21, s22 = (rss_from_distances(model, config.tx_power_w, d)
                          for d in (d11, d12, d21, d22))
    return s11, s12, s21, s22


def two_receiver_scenarios(config: MonteCarloConfig,
                           seed: SeedLike = None, *,
                           chunk_size: Optional[int] = None,
                           cache: CacheLike = None,
                           policy: PolicyLike = None
                           ) -> Tuple[np.ndarray, Dict[str, float]]:
    """Gain samples plus the Fig. 5 case mix of the sampled topologies.

    Returns ``(gains, case_fractions)`` where the fractions are keyed
    by the case letter ('a'..'d') plus ``'feasible'`` for the share of
    topologies where SIC was actually usable.

    Vectorised engine; see the module docstring for the chunking,
    ``cache`` and ``policy`` semantics.  The per-draw reference is
    :func:`two_receiver_scenarios_scalar`.
    """
    raw = run_chunked("two_receiver_scenarios",
                      _two_receiver_scenarios_chunk, config, seed,
                      code_version=MONTECARLO_CODE_VERSION,
                      chunk_size=chunk_size, cache=cache, policy=policy)
    codes = raw["case_codes"].astype(np.uint8)
    feasible = raw["sic_feasible"].astype(bool)
    counts = np.bincount(codes, minlength=len(CASE_ORDER))
    fractions = {case.value: int(count) / config.n_samples
                 for case, count in zip(CASE_ORDER, counts)}
    fractions["feasible"] = (int(np.count_nonzero(feasible))
                             / config.n_samples)
    return raw["gains"], fractions


def two_receiver_scenarios_scalar(config: MonteCarloConfig,
                                  seed: SeedLike = None
                                  ) -> Tuple[np.ndarray, Dict[str, float]]:
    """Scalar reference implementation of :func:`two_receiver_scenarios`.

    One topology per loop iteration through the scalar building blocks;
    kept as the executable specification for the equivalence tests and
    the speedup benchmark.
    """
    rng = make_rng(seed)
    channel = config.channel()
    model = config.propagation()
    gains = np.empty(config.n_samples)
    counts: Dict[str, int] = {"a": 0, "b": 0, "c": 0, "d": 0,
                              "feasible": 0}
    for k in range(config.n_samples):
        topo = random_pair_topology(config.range_m, rng)
        rss = _pair_rss(topo, model, config.tx_power_w)
        scenario = evaluate_pair_scenario(channel, config.packet_bits, rss)
        gains[k] = scenario.gain
        counts[scenario.case.value] += 1
        counts["feasible"] += scenario.sic_feasible
    fractions = {key: value / config.n_samples
                 for key, value in counts.items()}
    return gains, fractions


def _pair_rss(topo: PairTopology, model: LogDistancePathLoss,
              tx_power_w: float) -> PairRss:
    """The four S_j^i values of a two-pair topology."""
    def rss(tx, rx) -> float:
        return float(model.received_power(tx_power_w, tx.distance_to(rx)))
    return PairRss(
        s11=rss(topo.t1, topo.r1),
        s12=rss(topo.t2, topo.r1),
        s21=rss(topo.t1, topo.r2),
        s22=rss(topo.t2, topo.r2),
    )


# ---------------------------------------------------------------------------
# Fig. 11a — two clients to one AP, per-technique gains
# ---------------------------------------------------------------------------

def _one_receiver_chunk(config: MonteCarloConfig, seed: SeedLike, n: int,
                        max_fast_packets: int) -> Dict[str, np.ndarray]:
    """One chunk of the batched Fig. 11a sweep."""
    channel = config.channel()
    model = config.propagation()
    clients = random_uplink_client_batch(n, 2, config.range_m,
                                         make_rng(seed))
    rss = rss_from_distances(model, config.tx_power_w,
                             clients.ap_distances())
    s1, s2 = rss[:, 0], rss[:, 1]
    serial = np.asarray(z_serial_same_receiver(channel, config.packet_bits,
                                               s1, s2), dtype=float)
    sic = np.asarray(z_sic_same_receiver(channel, config.packet_bits,
                                         s1, s2), dtype=float)
    pc = power_controlled_pair_airtime_batch(channel, config.packet_bits,
                                             s1, s2)
    mr = multirate_pair_airtime_batch(channel, config.packet_bits, s1, s2)
    return {
        "sic": np.maximum(1.0, serial / sic),
        "power_control": np.maximum(1.0, serial / pc),
        "multirate": np.maximum(1.0, serial / mr),
        "packing": _one_receiver_packing_gain_batch(
            channel, config.packet_bits, s1, s2, max_fast_packets),
    }


def _one_receiver_packing_gain_batch(channel: Channel, packet_bits: float,
                                     s1: np.ndarray, s2: np.ndarray,
                                     max_fast_packets: int) -> np.ndarray:
    """Vectorised :func:`one_receiver_packing_gain`."""
    strong = np.maximum(s1, s2)
    weak = np.minimum(s1, s2)
    b, n0 = channel.bandwidth_hz, channel.noise_w
    t_strong = np.asarray(
        airtime(packet_bits, shannon_rate(b, strong, weak, n0)), dtype=float)
    t_weak = np.asarray(
        airtime(packet_bits, shannon_rate(b, weak, 0.0, n0)), dtype=float)
    strong_is_slow = t_strong >= t_weak
    return pack_pair_gain_batch(
        channel, packet_bits,
        slow_rss_w=np.where(strong_is_slow, strong, weak),
        slow_interference_w=np.where(strong_is_slow, weak, 0.0),
        fast_rss_w=np.where(strong_is_slow, weak, strong),
        fast_interference_w=np.where(strong_is_slow, 0.0, weak),
        max_fast_packets=max_fast_packets)


def one_receiver_technique_gains(config: MonteCarloConfig,
                                 seed: SeedLike = None,
                                 max_fast_packets: int = 8, *,
                                 chunk_size: Optional[int] = None,
                                 cache: CacheLike = None,
                                 policy: PolicyLike = None,
                                 ) -> Dict[str, np.ndarray]:
    """Fig. 11a: per-technique gain samples, two clients to one AP.

    Returns gain arrays keyed by technique: plain ``sic``,
    ``power_control``, ``multirate``, ``packing``.  Every gain is
    clipped below at 1 (the MAC never uses a losing strategy).

    Vectorised engine; the per-draw reference is
    :func:`one_receiver_technique_gains_scalar`.
    """
    return run_chunked("one_receiver_technique_gains",
                       _one_receiver_chunk, config, seed,
                       code_version=MONTECARLO_CODE_VERSION,
                       chunk_size=chunk_size, cache=cache,
                       kwargs={"max_fast_packets": max_fast_packets},
                       policy=policy)


def one_receiver_technique_gains_scalar(config: MonteCarloConfig,
                                        seed: SeedLike = None,
                                        max_fast_packets: int = 8,
                                        ) -> Dict[str, np.ndarray]:
    """Scalar reference implementation of
    :func:`one_receiver_technique_gains`."""
    rng = make_rng(seed)
    channel = config.channel()
    model = config.propagation()
    out = {name: np.empty(config.n_samples)
           for name in ("sic", "power_control", "multirate", "packing")}
    for k in range(config.n_samples):
        topo = random_uplink_clients(2, config.range_m, rng)
        s1, s2 = (
            float(model.received_power(config.tx_power_w,
                                       c.distance_to(topo.ap)))
            for c in topo.clients
        )
        serial = float(z_serial_same_receiver(channel, config.packet_bits,
                                              s1, s2))
        sic = float(z_sic_same_receiver(channel, config.packet_bits, s1, s2))
        out["sic"][k] = max(1.0, serial / sic)
        pc = power_controlled_pair_airtime(channel, config.packet_bits,
                                           s1, s2)
        out["power_control"][k] = max(1.0, serial / pc.airtime_s)
        mr = multirate_pair_airtime(channel, config.packet_bits, s1, s2)
        out["multirate"][k] = max(1.0, serial / mr.airtime_s)
        out["packing"][k] = one_receiver_packing_gain(
            channel, config.packet_bits, s1, s2, max_fast_packets)
    return out


def one_receiver_packing_gain(channel: Channel, packet_bits: float,
                               s1: float, s2: float,
                               max_fast_packets: int) -> float:
    """Packing gain at a common SIC receiver.

    During the overlap the stronger signal runs interference-limited and
    the weaker rides clean; whichever transmission is slower becomes the
    "slow" link and the other packs extra packets underneath it.
    """
    strong, weak = max(s1, s2), min(s1, s2)
    b, n0 = channel.bandwidth_hz, channel.noise_w
    t_strong = float(airtime(packet_bits, shannon_rate(b, strong, weak, n0)))
    t_weak = float(airtime(packet_bits, shannon_rate(b, weak, 0.0, n0)))
    if t_strong >= t_weak:
        packed = pack_pair_links(channel, packet_bits,
                                 slow_rss_w=strong, slow_interference_w=weak,
                                 fast_rss_w=weak, fast_interference_w=0.0,
                                 sic_feasible=True,
                                 max_fast_packets=max_fast_packets)
    else:
        packed = pack_pair_links(channel, packet_bits,
                                 slow_rss_w=weak, slow_interference_w=0.0,
                                 fast_rss_w=strong, fast_interference_w=weak,
                                 sic_feasible=True,
                                 max_fast_packets=max_fast_packets)
    return packed.gain


# ---------------------------------------------------------------------------
# Fig. 11b — two transmitter-receiver pairs, per-technique gains
# ---------------------------------------------------------------------------

def _two_receiver_technique_chunk(config: MonteCarloConfig, seed: SeedLike,
                                  n: int, max_fast_packets: int
                                  ) -> Dict[str, np.ndarray]:
    """One chunk of the batched Fig. 11b sweep."""
    topologies = random_pair_topologies(n, config.range_m, make_rng(seed))
    s11, s12, s21, s22 = _pair_rss_batch(topologies, config)
    channel = config.channel()
    scenarios = evaluate_pair_scenarios_batch(channel, config.packet_bits,
                                              s11, s12, s21, s22)
    return {
        "sic": scenarios.gains,
        "packing": two_receiver_packing_gain_batch(
            channel, config.packet_bits, s11, s12, s21, s22, scenarios,
            max_fast_packets),
    }


def two_receiver_technique_gains(config: MonteCarloConfig,
                                 seed: SeedLike = None,
                                 max_fast_packets: int = 8, *,
                                 chunk_size: Optional[int] = None,
                                 cache: CacheLike = None,
                                 policy: PolicyLike = None,
                                 ) -> Dict[str, np.ndarray]:
    """Fig. 11b: gain samples for two transmitter-receiver pairs.

    Only plain SIC and SIC + packet packing apply here — the paper
    notes multirate packetization "is not possible in a two transmitter,
    two receiver scenario", and power control across independent links
    is not considered.

    Vectorised engine; the per-draw reference is
    :func:`two_receiver_technique_gains_scalar`.
    """
    return run_chunked("two_receiver_technique_gains",
                       _two_receiver_technique_chunk, config, seed,
                       code_version=MONTECARLO_CODE_VERSION,
                       chunk_size=chunk_size, cache=cache,
                       kwargs={"max_fast_packets": max_fast_packets},
                       policy=policy)


def two_receiver_technique_gains_scalar(config: MonteCarloConfig,
                                        seed: SeedLike = None,
                                        max_fast_packets: int = 8,
                                        ) -> Dict[str, np.ndarray]:
    """Scalar reference implementation of
    :func:`two_receiver_technique_gains`."""
    rng = make_rng(seed)
    channel = config.channel()
    model = config.propagation()
    out = {name: np.empty(config.n_samples) for name in ("sic", "packing")}
    for k in range(config.n_samples):
        topo = random_pair_topology(config.range_m, rng)
        rss = _pair_rss(topo, model, config.tx_power_w)
        scenario = evaluate_pair_scenario(channel, config.packet_bits, rss)
        out["sic"][k] = scenario.gain
        out["packing"][k] = two_receiver_packing_gain(
            channel, config.packet_bits, rss, scenario, max_fast_packets)
    return out


def two_receiver_packing_gain(channel: Channel, packet_bits: float,
                              rss: PairRss, scenario: PairScenario,
                              max_fast_packets: int = 8) -> float:
    """Packing gain for a two-pair scenario (ideal continuous rates).

    Mirrors :func:`repro.sic.discrete.discrete_packing_gain`: the
    transmitter whose signal the SIC receiver must cancel may lower its
    rate to whatever *both* receivers can decode, and its partner packs
    several packets under the resulting long airtime.  Clipped below at
    the plain-SIC gain (the MAC never packs when it loses).
    """
    b, n0 = channel.bandwidth_hz, channel.noise_w
    if scenario.case is PairCase.SIC_AT_R2:
        # T1's rate must be decodable at R1 (capture through T2's
        # interference) and at R2 (before cancellation).
        sinr_1 = min(rss.s11 / (rss.s12 + n0), rss.s21 / (rss.s22 + n0))
        rate_1 = shannon_rate(b, sinr_1 * n0, 0.0, n0)
        rate_2 = shannon_rate(b, rss.s22, 0.0, n0)
    elif scenario.case is PairCase.SIC_AT_R1:
        sinr_2 = min(rss.s22 / (rss.s21 + n0), rss.s12 / (rss.s11 + n0))
        rate_2 = shannon_rate(b, sinr_2 * n0, 0.0, n0)
        rate_1 = shannon_rate(b, rss.s11, 0.0, n0)
    elif scenario.case is PairCase.SIC_AT_BOTH:
        sinr_1 = min(rss.s11 / n0, rss.s21 / (rss.s22 + n0))
        sinr_2 = min(rss.s22 / n0, rss.s12 / (rss.s11 + n0))
        rate_1 = shannon_rate(b, sinr_1 * n0, 0.0, n0)
        rate_2 = shannon_rate(b, sinr_2 * n0, 0.0, n0)
    else:
        return scenario.gain  # both capture: no SIC involved
    if rate_1 <= 0.0 or rate_2 <= 0.0:
        return scenario.gain
    t1 = float(airtime(packet_bits, rate_1))
    t2 = float(airtime(packet_bits, rate_2))
    t1_clean = float(airtime(packet_bits, shannon_rate(b, rss.s11, 0.0, n0)))
    t2_clean = float(airtime(packet_bits, shannon_rate(b, rss.s22, 0.0, n0)))
    (t_slow, slow_clean), (t_fast, fast_clean) = sorted(
        [(t1, t1_clean), (t2, t2_clean)], reverse=True)
    k = max(1, min(max_fast_packets, int(t_slow // t_fast)))
    packed_time = max(t_slow, k * t_fast)
    serial = slow_clean + k * fast_clean
    if packed_time <= 0.0:
        return scenario.gain
    return max(scenario.gain, 1.0, serial / packed_time)


def two_receiver_packing_gain_batch(channel: Channel, packet_bits: float,
                                    s11: np.ndarray, s12: np.ndarray,
                                    s21: np.ndarray, s22: np.ndarray,
                                    scenarios: PairScenarioBatch,
                                    max_fast_packets: int = 8) -> np.ndarray:
    """Vectorised :func:`two_receiver_packing_gain` over an RSS batch.

    Element ``k`` equals the scalar function on
    ``PairRss(s11[k], s12[k], s21[k], s22[k])`` with the matching
    scenario.
    """
    b, n0 = channel.bandwidth_hz, channel.noise_w
    codes = scenarios.case_codes
    sic_gain = scenarios.gains

    # Constrained rate of the cancelled transmitter, per case (the min
    # over both receivers' decodable SINRs), expressed through the same
    # ``shannon_rate(b, sinr * n0, 0, n0)`` round-trip as the scalar.
    sinr_1_b = np.minimum(s11 / (s12 + n0), s21 / (s22 + n0))
    sinr_2_c = np.minimum(s22 / (s21 + n0), s12 / (s11 + n0))
    sinr_1_d = np.minimum(s11 / n0, s21 / (s22 + n0))
    sinr_2_d = np.minimum(s22 / n0, s12 / (s11 + n0))
    rate_1_clean = np.asarray(shannon_rate(b, s11, 0.0, n0), dtype=float)
    rate_2_clean = np.asarray(shannon_rate(b, s22, 0.0, n0), dtype=float)
    rate_1 = np.select(
        [codes == 1, codes == 2],
        [np.asarray(shannon_rate(b, sinr_1_b * n0, 0.0, n0), dtype=float),
         rate_1_clean],
        default=np.asarray(shannon_rate(b, sinr_1_d * n0, 0.0, n0),
                           dtype=float))
    rate_2 = np.select(
        [codes == 1, codes == 2],
        [rate_2_clean,
         np.asarray(shannon_rate(b, sinr_2_c * n0, 0.0, n0), dtype=float)],
        default=np.asarray(shannon_rate(b, sinr_2_d * n0, 0.0, n0),
                           dtype=float))

    t1 = np.asarray(airtime(packet_bits, rate_1), dtype=float)
    t2 = np.asarray(airtime(packet_bits, rate_2), dtype=float)
    t1_clean = np.asarray(airtime(packet_bits, rate_1_clean), dtype=float)
    t2_clean = np.asarray(airtime(packet_bits, rate_2_clean), dtype=float)

    # Slow/fast assignment matches the scalar's lexicographic sort of
    # (airtime, clean airtime) pairs.
    one_is_slow = (t1 > t2) | ((t1 == t2) & (t1_clean >= t2_clean))
    t_slow = np.where(one_is_slow, t1, t2)
    slow_clean = np.where(one_is_slow, t1_clean, t2_clean)
    t_fast = np.where(one_is_slow, t2, t1)
    fast_clean = np.where(one_is_slow, t2_clean, t1_clean)

    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.clip(np.floor_divide(t_slow, t_fast), 1, max_fast_packets)
    k = np.where(np.isfinite(k), k, 1.0)
    packed_time = np.maximum(t_slow, k * t_fast)
    serial = slow_clean + k * fast_clean
    safe_packed = np.where(packed_time > 0.0, packed_time, 1.0)
    packed_gain = np.maximum(sic_gain,
                             np.maximum(1.0, serial / safe_packed))

    not_applicable = ((codes == 0) | (rate_1 <= 0.0) | (rate_2 <= 0.0)
                      | (packed_time <= 0.0))
    return np.where(not_applicable, sic_gain, packed_gain)
