"""Residential WLAN analysis (paper Section 4.2).

In an apartment row each client is WPA-locked to its own home's AP even
when a neighbour's AP is closer.  "Strangely, this restriction provides
some opportunities for SIC": a client whose own AP is *farther* than
the neighbour's can decode the neighbour's stronger downlink packet,
cancel it, and extract its own — letting both homes' downlinks run
concurrently.

This module samples cross-home downlink pairs from random apartment
rows, classifies each against the Fig. 5 taxonomy, and summarises how
often the lock creates a usable opportunity and what it is worth.  The
paper's own bottom line — opportunities exist but two-receiver gains
stay negligible under ideal rate adaptation — is exactly what the
numbers show.

Fast path (``docs/architecture_performance.md``): this module's
sampler replays the scalar sampling stream draw for draw — block
uniforms for each row's AP / client placements, per-pair index draws
and shadowing normals — and
:func:`repro.architectures.pairsweep.run_pair_sweep` fans the
pre-sampled pairs out through the supervised indexed runner,
classifies each chunk in one array pass and returns the case mix.  The
engine adds its own field, ``gain_summary``.
:func:`evaluate_residential_rows_scalar` freezes the historical
per-pair loop as the golden reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.architectures.pairsweep import run_pair_sweep
from repro.experiments.runner import ExecutionPolicy
from repro.phy.pathloss import LogDistancePathLoss, PropagationModel
from repro.phy.shannon import Channel
from repro.sic.scenarios import (
    CASE_ORDER,
    PairCase,
    PairRss,
    evaluate_pair_scenario,
)
from repro.topology.generators import WlanTopology, residential_row
from repro.topology.nodes import DEFAULT_TX_POWER_W
from repro.util.cache import ResultCache
from repro.util.cdf import gain_cdf_summary
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ResidentialReport:
    """Summary of cross-home downlink SIC opportunities."""

    n_pairs: int
    case_fractions: Dict[PairCase, float]
    sic_feasible_fraction: float
    gain_summary: Dict[str, float]

    @property
    def opportunity_fraction(self) -> float:
        """Pairs where someone needs SIC *and* the interferer decodes."""
        return self.sic_feasible_fraction

    def rows(self) -> List[Tuple[str, float]]:
        """Report rows in deterministic Fig. 5 case order."""
        rows: List[Tuple[str, float]] = [
            (f"case_{case.value}", self.case_fractions[case])
            for case in CASE_ORDER if case in self.case_fractions]
        rows.append(("sic_feasible", self.sic_feasible_fraction))
        rows.append(("median_gain", self.gain_summary["median"]))
        return rows


def residential_downlink_pairs(topology: WlanTopology,
                               propagation: PropagationModel,
                               rng,
                               tx_power_w: float = DEFAULT_TX_POWER_W,
                               ) -> Iterator[PairRss]:
    """Yield PairRss for concurrent downlinks of adjacent homes.

    Transmitter 1 is the left home's AP serving one of its own clients
    (receiver 1); transmitter 2 the right home's AP serving one of its
    clients — the residential lock in action.
    """
    needs_rng = getattr(propagation, "shadowing_sigma_db", 0.0) > 0.0

    def rss(tx_node, rx_node) -> float:
        distance = max(tx_node.distance_to(rx_node), 1.0)
        return float(propagation.received_power(
            tx_power_w, distance, rng if needs_rng else None))

    for left, right in zip(topology.aps, topology.aps[1:]):
        left_clients = topology.clients_of(left.name)
        right_clients = topology.clients_of(right.name)
        if not left_clients or not right_clients:
            continue
        r1 = left_clients[int(rng.integers(len(left_clients)))]
        r2 = right_clients[int(rng.integers(len(right_clients)))]
        yield PairRss(
            s11=rss(left, r1), s12=rss(right, r1),
            s21=rss(left, r2), s22=rss(right, r2))


def evaluate_residential_rows_scalar(
        n_rows: int = 400,
        n_homes: int = 4,
        home_width_m: float = 10.0,
        clients_per_home: int = 2,
        packet_bits: float = 12_000.0,
        channel: Optional[Channel] = None,
        propagation: Optional[PropagationModel] = None,
        seed: SeedLike = None) -> ResidentialReport:
    """Frozen scalar reference: Monte-Carlo rows, pair by pair.

    The historical per-pair loop, behaviourally frozen (PR-1
    convention): golden reference and benchmark baseline for the
    batched :func:`evaluate_residential_rows`.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    check_positive("packet_bits", packet_bits)
    channel = channel or Channel()
    # Indoor shadowing creates the RSS inversions (own AP weaker than
    # the neighbour's) that the paper's §4.2 scenario relies on.
    propagation = propagation or LogDistancePathLoss(
        exponent=3.5, shadowing_sigma_db=6.0)
    rng = make_rng(seed)

    cases: Counter = Counter()
    feasible = 0
    gains: List[float] = []
    for _ in range(n_rows):
        topology = residential_row(n_homes, home_width_m,
                                   clients_per_home, rng)
        for rss in residential_downlink_pairs(topology, propagation, rng):
            scenario = evaluate_pair_scenario(channel, packet_bits, rss)
            cases[scenario.case] += 1
            feasible += scenario.sic_feasible
            gains.append(scenario.gain)

    if not gains:
        raise RuntimeError("no cross-home pairs sampled")
    n_pairs = len(gains)
    return ResidentialReport(
        n_pairs=n_pairs,
        case_fractions={case: cases[case] / n_pairs
                        for case in CASE_ORDER if case in cases},
        sic_feasible_fraction=feasible / n_pairs,
        gain_summary=gain_cdf_summary(gains),
    )


def _sample_cross_home_distances(
        n_rows: int, n_homes: int, home_width_m: float,
        clients_per_home: int, rng, shadowing_sigma_db: float,
        ) -> Tuple[List[Tuple[float, ...]], List[np.ndarray]]:
    """Replay the scalar sampling stream; return per-pair link rows.

    Consumes ``rng`` exactly as ``residential_row`` plus the scalar
    pair generator do.  The row's 2 + 2·clients scalar ``uniform``
    draws per home are replayed from one block of raw doubles using
    the pinned ``low + (high - low) * u`` identity, then each adjacent
    home pair draws two client indices and (under shadowing) one block
    of four normals in ``(s11, s12, s21, s22)`` order.  AP-to-client
    distances use ``math.hypot`` with the scalar argument order so the
    clamped link lengths match the scalar topology bit for bit.
    """
    if n_homes < 1:
        raise ValueError("need at least one home")
    if clients_per_home < 0:
        raise ValueError("clients_per_home must be non-negative")
    check_positive("home_width_m", home_width_m)
    per_home = 2 + 2 * clients_per_home

    distance_rows: List[Tuple[float, ...]] = []
    shadow_rows: List[np.ndarray] = []
    for _ in range(n_rows):
        # One block of raw doubles per row == the row's sequential
        # scalar uniform() calls (each consumes one double).
        u = rng.random(size=n_homes * per_home)
        ap_x: List[float] = []
        ap_y: List[float] = []
        cx: List[List[float]] = []
        cy: List[List[float]] = []
        for h in range(n_homes):
            left = h * home_width_m
            at = h * per_home
            # uniform(0.2, 0.8) == 0.2 + (0.8 - 0.2) * u — keep the
            # subtraction so rounding matches the scalar draw exactly.
            ap_x.append(left + (0.2 + (0.8 - 0.2) * float(u[at]))
                        * home_width_m)
            ap_y.append(2.0 + (8.0 - 2.0) * float(u[at + 1]))
            xs: List[float] = []
            ys: List[float] = []
            for j in range(clients_per_home):
                xs.append(left + home_width_m * float(u[at + 2 + 2 * j]))
                ys.append(10.0 * float(u[at + 3 + 2 * j]))
            cx.append(xs)
            cy.append(ys)
        if clients_per_home < 1:
            continue
        for h in range(n_homes - 1):
            r1 = int(rng.integers(clients_per_home))
            r2 = int(rng.integers(clients_per_home))
            x1, y1 = cx[h][r1], cy[h][r1]
            x2, y2 = cx[h + 1][r2], cy[h + 1][r2]
            distance_rows.append(
                (max(math.hypot(ap_x[h] - x1, ap_y[h] - y1), 1.0),
                 max(math.hypot(ap_x[h + 1] - x1, ap_y[h + 1] - y1), 1.0),
                 max(math.hypot(ap_x[h] - x2, ap_y[h] - y2), 1.0),
                 max(math.hypot(ap_x[h + 1] - x2, ap_y[h + 1] - y2), 1.0)))
            if shadowing_sigma_db > 0.0:
                shadow_rows.append(
                    rng.normal(0.0, shadowing_sigma_db, size=4))
    return distance_rows, shadow_rows


def evaluate_residential_rows(n_rows: int = 400,
                              n_homes: int = 4,
                              home_width_m: float = 10.0,
                              clients_per_home: int = 2,
                              packet_bits: float = 12_000.0,
                              channel: Optional[Channel] = None,
                              propagation: Optional[PropagationModel] = None,
                              seed: SeedLike = None,
                              *,
                              chunk_size: Optional[int] = None,
                              cache: Optional[ResultCache] = None,
                              policy: Optional[ExecutionPolicy] = None,
                              ) -> ResidentialReport:
    """Monte-Carlo over apartment rows; returns the §4.2 summary.

    Batched fast path: bit-identical to
    :func:`evaluate_residential_rows_scalar` for any seed, chunk size
    and ``policy.pool``.  Of the shadowed propagation models it replays
    only :class:`LogDistancePathLoss`; any other raises ``ValueError``
    before a draw.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    check_positive("packet_bits", packet_bits)
    sweep = run_pair_sweep(
        "residential",
        {"n_rows": n_rows, "n_homes": n_homes,
         "home_width_m": home_width_m,
         "clients_per_home": clients_per_home,
         "packet_bits": packet_bits},
        partial(_sample_cross_home_distances, n_rows, n_homes,
                home_width_m, clients_per_home),
        "no cross-home pairs sampled",
        channel or Channel(),
        # Indoor shadowing creates the RSS inversions (own AP weaker
        # than the neighbour's) that the paper's §4.2 scenario relies on.
        propagation or LogDistancePathLoss(exponent=3.5,
                                           shadowing_sigma_db=6.0),
        seed, chunk_size=chunk_size, cache=cache, policy=policy)
    return ResidentialReport(
        n_pairs=sweep.n_pairs,
        case_fractions=sweep.case_fractions,
        sic_feasible_fraction=sweep.sic_feasible_fraction,
        gain_summary=gain_cdf_summary(sweep.gains),
    )
