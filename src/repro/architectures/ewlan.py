"""Enterprise WLAN analysis (paper Section 4.1).

Two of the four EWLAN traffic cases reduce directly to earlier
analysis: *upload, two clients to one AP* is Section 3.1
(:func:`repro.sic.airtime.sic_gain_same_receiver`), and *download, two
APs to one client* is Eq. 10
(:func:`repro.sic.airtime.download_gain_two_aps_one_client`).

What remains architectural is the *cross-AP* pair of cases: two
clients to two APs (upload) or two APs to two clients (download).  The
paper's argument is that enterprise association freedom — "transmission
to the closest AP is obviously a better alternative" — pushes these
into the capture case (each receiver's own signal strongest), where SIC
is simply not needed.  This module quantifies that argument on random
EWLAN grids.

Fast path (``docs/architecture_performance.md``): the driver replays
the scalar sampling stream draw for draw (client placements, pair
index draws, shadowing normals), then the pre-sampled pairs fan out
across the supervised indexed runner — retries, checkpoint/resume and
the result cache included — and the Fig. 5 classification runs as one
array pass per chunk.  :func:`evaluate_ewlan_cross_pairs_scalar`
freezes the historical per-pair loop as the golden reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.architectures.pairsweep import (
    PAIR_CHUNK,
    PairDistanceBatch,
    pair_scenario_chunk,
    pair_sweep_cache_key,
    sequential_sum,
    sorted_case_fractions,
)
from repro.experiments.runner import (
    ExecutionPolicy,
    run_indexed,
    seed_cache_token,
)
from repro.phy.pathloss import LogDistancePathLoss, PropagationModel
from repro.phy.shannon import Channel
from repro.sic.scenarios import (
    CASE_ORDER,
    PairCase,
    PairRss,
    evaluate_pair_scenario,
)
from repro.topology.generators import WlanTopology, ewlan_grid
from repro.topology.nodes import DEFAULT_TX_POWER_W
from repro.util.cache import ResultCache
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class EwlanCrossPairReport:
    """Outcome of sampling cross-AP uplink pairs in EWLAN grids."""

    n_pairs: int
    case_fractions: Dict[PairCase, float]
    sic_feasible_fraction: float
    mean_gain: float

    @property
    def capture_fraction(self) -> float:
        """Fraction of pairs where SIC is not needed (Fig. 5 case a)."""
        return self.case_fractions.get(PairCase.BOTH_CAPTURE, 0.0)

    def rows(self) -> List[Tuple[str, float]]:
        """Report rows in deterministic Fig. 5 case order."""
        rows: List[Tuple[str, float]] = [
            (f"case_{case.value}", self.case_fractions[case])
            for case in CASE_ORDER if case in self.case_fractions]
        rows.append(("sic_feasible", self.sic_feasible_fraction))
        rows.append(("mean_gain", self.mean_gain))
        return rows


def _uplink_pair_rss(topology: WlanTopology, ap_a, ap_b, client_a,
                     client_b, propagation: PropagationModel,
                     tx_power_w: float,
                     rng: Optional[object]) -> PairRss:
    """S_j^i values for two concurrent uplinks to different APs.

    Receiver 1 is ``ap_a`` (serving ``client_a``); receiver 2 is
    ``ap_b`` (serving ``client_b``).
    """
    def rss(tx, rx) -> float:
        distance = max(tx.distance_to(rx), 1.0)
        return float(propagation.received_power(tx_power_w, distance, rng))

    return PairRss(
        s11=rss(client_a, ap_a),
        s12=rss(client_b, ap_a),
        s21=rss(client_a, ap_b),
        s22=rss(client_b, ap_b),
    )


def evaluate_ewlan_cross_pairs_scalar(
        n_grids: int = 100,
        ap_rows: int = 2,
        ap_cols: int = 2,
        ap_spacing_m: float = 40.0,
        clients_per_ap: int = 4,
        packet_bits: float = 12_000.0,
        channel: Optional[Channel] = None,
        propagation: Optional[PropagationModel] = None,
        seed: SeedLike = None,
        ) -> EwlanCrossPairReport:
    """Frozen scalar reference: sample and classify pair by pair.

    The historical per-pair loop, behaviourally frozen (PR-1
    convention): golden reference and benchmark baseline for the
    batched :func:`evaluate_ewlan_cross_pairs`.
    """
    if n_grids < 1:
        raise ValueError("need at least one grid")
    check_positive("packet_bits", packet_bits)
    channel = channel or Channel()
    propagation = propagation or LogDistancePathLoss(exponent=3.5)
    rng = make_rng(seed)
    needs_rng = getattr(propagation, "shadowing_sigma_db", 0.0) > 0.0

    cases: Counter = Counter()
    feasible = 0
    gain_total = 0.0
    pairs = 0
    for _ in range(n_grids):
        topology = ewlan_grid(ap_rows, ap_cols, ap_spacing_m,
                              clients_per_ap, rng)
        aps = list(topology.aps)
        for ap_a, ap_b in zip(aps, aps[1:]):
            clients_a = topology.clients_of(ap_a.name)
            clients_b = topology.clients_of(ap_b.name)
            if not clients_a or not clients_b:
                continue
            client_a = clients_a[int(rng.integers(len(clients_a)))]
            client_b = clients_b[int(rng.integers(len(clients_b)))]
            rss = _uplink_pair_rss(topology, ap_a, ap_b, client_a,
                                   client_b, propagation,
                                   DEFAULT_TX_POWER_W,
                                   rng if needs_rng else None)
            scenario = evaluate_pair_scenario(channel, packet_bits, rss)
            cases[scenario.case] += 1
            feasible += scenario.sic_feasible
            gain_total += scenario.gain
            pairs += 1

    if pairs == 0:
        raise RuntimeError("no cross-AP pairs sampled; grid too sparse")
    return EwlanCrossPairReport(
        n_pairs=pairs,
        case_fractions={case: cases[case] / pairs
                        for case in CASE_ORDER if case in cases},
        sic_feasible_fraction=feasible / pairs,
        mean_gain=gain_total / pairs,
    )


def _sample_cross_pair_distances(
        n_grids: int, ap_rows: int, ap_cols: int, ap_spacing_m: float,
        clients_per_ap: int, rng, shadowing_sigma_db: float,
        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Replay the scalar sampling stream; return link geometry arrays.

    Consumes ``rng`` exactly as ``ewlan_grid`` plus the scalar pair
    loop do — per grid two block uniform draws for the client
    placements, then per adjacent-AP pair two index draws and (under
    shadowing) one block of four normals in ``(s11, s12, s21, s22)``
    order.  Association distances are computed with ``math.hypot`` in
    the scalar argument order so the nearest-AP tie-break and the
    recorded link distances match the scalar topology bit for bit.
    """
    if ap_rows < 1 or ap_cols < 1:
        raise ValueError("need at least one AP")
    if clients_per_ap < 0:
        raise ValueError("clients_per_ap must be non-negative")
    check_positive("ap_spacing_m", ap_spacing_m)
    ap_xy = [(c * ap_spacing_m, r * ap_spacing_m)
             for r in range(ap_rows) for c in range(ap_cols)]
    n_aps = len(ap_xy)
    width = max(ap_cols - 1, 1) * ap_spacing_m
    height = max(ap_rows - 1, 1) * ap_spacing_m
    n_clients = clients_per_ap * n_aps

    distance_rows: List[Tuple[float, float, float, float]] = []
    shadow_rows: List[np.ndarray] = []
    for _ in range(n_grids):
        # The same two block draws random_points_in_rect makes; the
        # stream is defined per grid (pair draws interleave below).
        xs = rng.uniform(0.0, width, size=n_clients)
        ys = rng.uniform(0.0, height, size=n_clients)
        members: List[List[int]] = [[] for _ in range(n_aps)]
        dist: List[List[float]] = []
        for x, y in zip(xs.tolist(), ys.tolist()):
            row = [math.hypot(ax - x, ay - y) for ax, ay in ap_xy]
            dist.append(row)
            members[min(range(n_aps), key=row.__getitem__)].append(len(dist) - 1)
        for a in range(n_aps - 1):
            members_a, members_b = members[a], members[a + 1]
            if not members_a or not members_b:
                continue
            ca = members_a[int(rng.integers(len(members_a)))]
            cb = members_b[int(rng.integers(len(members_b)))]
            distance_rows.append((max(dist[ca][a], 1.0),
                                  max(dist[cb][a], 1.0),
                                  max(dist[ca][a + 1], 1.0),
                                  max(dist[cb][a + 1], 1.0)))
            if shadowing_sigma_db > 0.0:
                shadow_rows.append(
                    rng.normal(0.0, shadowing_sigma_db, size=4))

    distances = np.array(distance_rows, dtype=float).reshape(-1, 4)
    shadow = np.array(shadow_rows, dtype=float).reshape(-1, 4) \
        if shadowing_sigma_db > 0.0 else None
    return distances, shadow


def evaluate_ewlan_cross_pairs(n_grids: int = 100,
                               ap_rows: int = 2,
                               ap_cols: int = 2,
                               ap_spacing_m: float = 40.0,
                               clients_per_ap: int = 4,
                               packet_bits: float = 12_000.0,
                               channel: Optional[Channel] = None,
                               propagation: Optional[PropagationModel] = None,
                               seed: SeedLike = None,
                               *,
                               chunk_size: Optional[int] = None,
                               cache: Optional[ResultCache] = None,
                               policy: Optional[ExecutionPolicy] = None,
                               ) -> EwlanCrossPairReport:
    """Sample concurrent cross-AP uplink pairs and classify them.

    In each random grid, one client of AP_a transmits while one client
    of AP_b does; nearest-AP association (built into
    :func:`repro.topology.generators.ewlan_grid`) means each client's
    own AP usually hears it loudest — the paper's case-a prediction.

    Batched fast path: bit-identical to
    :func:`evaluate_ewlan_cross_pairs_scalar` for any seed, chunk size
    and ``policy.pool``.  Of the shadowed propagation models it replays
    only :class:`LogDistancePathLoss`; any other raises ``ValueError``
    before a draw.
    """
    if n_grids < 1:
        raise ValueError("need at least one grid")
    check_positive("packet_bits", packet_bits)
    channel = channel or Channel()
    propagation = propagation or LogDistancePathLoss(exponent=3.5)
    sigma_db = getattr(propagation, "shadowing_sigma_db", 0.0)
    if sigma_db > 0.0 and not isinstance(propagation, LogDistancePathLoss):
        # Only the log-distance model's fading recipe is replayed in
        # the chunk function.
        raise ValueError(
            f"shadowed {type(propagation).__name__} is not supported; "
            "only LogDistancePathLoss shadowing is replayed")
    token = seed_cache_token(seed)
    rng = make_rng(seed)

    distances, shadow_db = _sample_cross_pair_distances(
        n_grids, ap_rows, ap_cols, ap_spacing_m, clients_per_ap,
        rng, sigma_db)
    if distances.shape[0] == 0:
        raise RuntimeError("no cross-AP pairs sampled; grid too sparse")

    batch = PairDistanceBatch(
        distances_m=distances, shadow_db=shadow_db,
        tx_power_w=DEFAULT_TX_POWER_W, packet_bits=packet_bits,
        channel=channel, propagation=propagation)
    cache_key = pair_sweep_cache_key(
        "ewlan",
        {"n_grids": n_grids, "ap_rows": ap_rows, "ap_cols": ap_cols,
         "ap_spacing_m": ap_spacing_m,
         "clients_per_ap": clients_per_ap,
         "packet_bits": packet_bits},
        channel, propagation, token)
    merged = run_indexed(
        "ewlan", pair_scenario_chunk, batch, distances.shape[0],
        code_version=1, cache_key=cache_key,
        chunk_size=chunk_size if chunk_size is not None else PAIR_CHUNK,
        cache=cache, policy=policy)

    n_pairs = int(merged["gains"].shape[0])
    report = EwlanCrossPairReport(
        n_pairs=n_pairs,
        case_fractions=sorted_case_fractions(merged["case_codes"],
                                             n_pairs),
        sic_feasible_fraction=(
            int(np.count_nonzero(merged["sic_feasible"])) / n_pairs),
        mean_gain=sequential_sum(merged["gains"]) / n_pairs,
    )
    return report


def nearest_ap_capture_fraction(report: EwlanCrossPairReport) -> float:
    """Alias for the paper's headline EWLAN quantity."""
    return report.capture_fraction
