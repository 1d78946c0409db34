"""Multihop mesh-chain analysis (paper Section 4.3).

Routing A -> C -> D -> E over a long-short-long chain is "a perfect
recipe for SIC at C": the A->C and D->E transmissions can overlap
because C hears D strongly (short C-D hop) and can cancel it.  The
flip side: the long hops force low bitrates, so SIC buys pipeline
*overlap*, not a faster bottleneck — and shortening the long hops to
raise their rate breaks the decode condition at C.

:func:`analyse_chain` computes both operating modes for one geometry;
:func:`sweep_chain_geometries` maps where the SIC region lives — the
grid sweep runs as one array pass over all (long, short) combinations,
bit-identical to the frozen per-combination reference
:func:`sweep_chain_geometries_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.pathloss import LogDistancePathLoss, PropagationModel
from repro.phy.shannon import Channel, shannon_rate
from repro.topology.generators import MIN_LINK_DISTANCE_M, mesh_chain
from repro.topology.nodes import DEFAULT_TX_POWER_W
from repro.util.validation import check_in_range, check_positive


@dataclass(frozen=True)
class ChainAnalysis:
    """One long-short-long chain's throughput with and without SIC."""

    long_hop_m: float
    short_hop_m: float
    sic_feasible: bool
    throughput_serial_bps: float
    throughput_sic_bps: float
    bottleneck_rate_bps: float

    @property
    def gain(self) -> float:
        if self.throughput_serial_bps <= 0.0:
            return 1.0
        return self.throughput_sic_bps / self.throughput_serial_bps


def analyse_chain(channel: Channel,
                  long_hop_m: float,
                  short_hop_m: float,
                  propagation: Optional[PropagationModel] = None,
                  packet_bits: float = 12_000.0,
                  tx_power_w: float = DEFAULT_TX_POWER_W) -> ChainAnalysis:
    """Throughput of one packet over A -> C -> D -> E, ± SIC at C.

    Without SIC the three hops run serially at clean rates.  With SIC,
    D->E (at D's clean rate to E) overlaps A->C: C must decode D's
    transmission at that rate despite A's interference, cancel it, and
    then recover A's packet at the post-cancellation clean rate.
    """
    check_positive("long_hop_m", long_hop_m)
    check_positive("short_hop_m", short_hop_m)
    check_positive("packet_bits", packet_bits)
    propagation = propagation or LogDistancePathLoss(exponent=3.5)
    chain = mesh_chain([long_hop_m, short_hop_m, long_hop_m])
    a, c, d, e = chain.nodes

    def rss(tx, rx) -> float:
        return float(propagation.received_power(
            tx_power_w, max(tx.distance_to(rx), 1.0)))

    b, n0 = channel.bandwidth_hz, channel.noise_w
    s_ac = rss(a, c)   # signal of interest at C
    s_dc = rss(d, c)   # D's transmission heard at C (short hop: strong)
    s_de = rss(d, e)
    s_cd = rss(c, d)

    r_ac = shannon_rate(b, s_ac, 0.0, n0)
    r_cd = shannon_rate(b, s_cd, 0.0, n0)
    r_de = shannon_rate(b, s_de, 0.0, n0)
    serial_time = sum(packet_bits / r for r in (r_ac, r_cd, r_de))

    # D transmits to E at r_de; C can decode that same stream only if
    # its SINR for D's signal (with A interfering) supports r_de, and
    # only a *stronger* interferer can be peeled first.
    r_dc_limit = shannon_rate(b, s_dc, s_ac, n0)
    sic_feasible = s_dc > s_ac and r_de <= r_dc_limit
    if sic_feasible:
        overlapped = max(packet_bits / r_ac, packet_bits / r_de)
        sic_time = overlapped + packet_bits / r_cd
    else:
        sic_time = serial_time

    return ChainAnalysis(
        long_hop_m=long_hop_m,
        short_hop_m=short_hop_m,
        sic_feasible=sic_feasible,
        throughput_serial_bps=packet_bits / serial_time,
        throughput_sic_bps=packet_bits / sic_time,
        bottleneck_rate_bps=min(r_ac, r_cd, r_de),
    )


def sweep_chain_geometries_scalar(channel: Channel,
                                  long_hops_m: Sequence[float] = (20.0, 30.0,
                                                                  40.0, 60.0),
                                  short_hops_m: Sequence[float] = (2.0, 5.0,
                                                                   10.0, 20.0),
                                  propagation: Optional[PropagationModel] = None,
                                  ) -> List[ChainAnalysis]:
    """Frozen scalar reference: analyse combinations one at a time.

    The historical per-geometry loop, behaviourally frozen (PR-1
    convention): golden reference for the batched
    :func:`sweep_chain_geometries`.
    """
    propagation = propagation or LogDistancePathLoss(exponent=3.5)
    return [
        analyse_chain(channel, long_m, short_m, propagation)
        for long_m in long_hops_m
        for short_m in short_hops_m
    ]


def sweep_chain_geometries(channel: Channel,
                           long_hops_m: Sequence[float] = (20.0, 30.0,
                                                           40.0, 60.0),
                           short_hops_m: Sequence[float] = (2.0, 5.0,
                                                            10.0, 20.0),
                           propagation: Optional[PropagationModel] = None,
                           ) -> List[ChainAnalysis]:
    """Analyse every (long, short) combination in one array pass.

    Bit-identical to :func:`sweep_chain_geometries_scalar` — link
    distances come from the same accumulated node positions, RSS from
    the per-element exact ``received_power_batch``, and the serial
    airtime keeps the scalar left-to-right summation order.  Neither
    passes an rng, so a shadowed model raises ``ValueError`` in both.
    """
    propagation = propagation or LogDistancePathLoss(exponent=3.5)
    combos: List[Tuple[float, float]] = [
        (long_m, short_m)
        for long_m in long_hops_m
        for short_m in short_hops_m
    ]
    if not combos:
        return []

    # Same validation sequence analyse_chain + mesh_chain apply,
    # in the scalar visiting order.
    for long_m, short_m in combos:
        check_positive("long_hop_m", long_m)
        check_positive("short_hop_m", short_m)
        for length in (long_m, short_m, long_m):
            check_in_range("hop length", length,
                           low=MIN_LINK_DISTANCE_M)
    long_v = np.array([c[0] for c in combos], dtype=float)
    short_v = np.array([c[1] for c in combos], dtype=float)
    # Node positions accumulate exactly as mesh_chain lays them
    # out; hop distances are position differences (x_c + short - x_c
    # need not round back to short, so diff like the scalar does).
    x_c = 0.0 + long_v
    x_d = x_c + short_v
    x_e = x_d + long_v
    d_ac = np.maximum(np.abs(0.0 - x_c), 1.0)
    d_dc = np.maximum(np.abs(x_d - x_c), 1.0)
    d_de = np.maximum(np.abs(x_d - x_e), 1.0)
    d_cd = np.maximum(np.abs(x_c - x_d), 1.0)

    b, n0 = channel.bandwidth_hz, channel.noise_w
    packet_bits = 12_000.0
    s_ac = propagation.received_power_batch(DEFAULT_TX_POWER_W, d_ac)
    s_dc = propagation.received_power_batch(DEFAULT_TX_POWER_W, d_dc)
    s_de = propagation.received_power_batch(DEFAULT_TX_POWER_W, d_de)
    s_cd = propagation.received_power_batch(DEFAULT_TX_POWER_W, d_cd)

    r_ac = shannon_rate(b, s_ac, 0.0, n0)
    r_cd = shannon_rate(b, s_cd, 0.0, n0)
    r_de = shannon_rate(b, s_de, 0.0, n0)
    # sum(t for t in (t_ac, t_cd, t_de)) associates left to right.
    serial_time = (packet_bits / r_ac + packet_bits / r_cd) \
        + packet_bits / r_de

    r_dc_limit = shannon_rate(b, s_dc, s_ac, n0)
    sic_feasible = (s_dc > s_ac) & (r_de <= r_dc_limit)
    overlapped = np.maximum(packet_bits / r_ac, packet_bits / r_de)
    sic_time = np.where(sic_feasible,
                        overlapped + packet_bits / r_cd, serial_time)

    serial_bps = (packet_bits / serial_time).tolist()
    sic_bps = (packet_bits / sic_time).tolist()
    bottleneck = np.minimum(np.minimum(r_ac, r_cd), r_de).tolist()
    feasible = sic_feasible.tolist()
    results = [
        ChainAnalysis(
            long_hop_m=long_m,
            short_hop_m=short_m,
            sic_feasible=bool(feasible[k]),
            throughput_serial_bps=float(serial_bps[k]),
            throughput_sic_bps=float(sic_bps[k]),
            bottleneck_rate_bps=float(bottleneck[k]),
        )
        for k, (long_m, short_m) in enumerate(combos)
    ]
    return results


def feasibility_frontier(results: Sequence[ChainAnalysis]
                         ) -> Dict[float, Optional[float]]:
    """Per long-hop length, the largest short hop that still admits SIC.

    Captures the paper's "if long-hops are made shorter ... C may not
    be able to decode" observation as a crossover curve.
    """
    frontier: Dict[float, Optional[float]] = {}
    for analysis in results:
        current = frontier.get(analysis.long_hop_m)
        if analysis.sic_feasible and (current is None
                                      or analysis.short_hop_m > current):
            frontier[analysis.long_hop_m] = analysis.short_hop_m
        else:
            frontier.setdefault(analysis.long_hop_m, current)
    return frontier
