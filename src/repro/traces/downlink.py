"""Synthetic downlink measurement trace (the Fig. 14 substitution).

The paper: "we co-located 5 Soekris boxes with existing APs in our
department building.  We randomly chose 100 locations in adjacent
classrooms and offices as client locations.  For each client we
recorded the SNR from all the 5 APs.  We also experimentally found the
best bitrate supported by the channel from each AP to this client — the
highest 802.11g bitrate at which 90 % of packets are received
successfully.  Similarly, we also found the bitrate supported to a
client from an AP under interference from other APs."

This generator reproduces that dataset: APs along a corridor, random
client locations, SNRs from the propagation substrate, and the two
discrete-rate measurements emulated through the packet-error model with
the same 90 % criterion.

The fast path batches each location's per-AP shadowing draws and RSS
row (:meth:`~repro.phy.pathloss.PropagationModel.received_power_batch`,
bit-identical to the scalar per-link calls) and measures every clean
and interfered rate of the campaign in one batched search
(:func:`~repro.phy.rates.best_discrete_rate_batch`);
:meth:`DownlinkTraceGenerator.generate_scalar` is the frozen scalar
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.phy.error import PacketErrorModel
from repro.phy.noise import thermal_noise_watts
from repro.phy.pathloss import LogDistancePathLoss
from repro.phy.rates import (
    DOT11G,
    RateTable,
    best_discrete_rate,
    best_discrete_rate_batch,
)
from repro.topology.geometry import Point
from repro.topology.nodes import DEFAULT_TX_POWER_W
from repro.traces.records import DownlinkMeasurement
from repro.util.rng import SeedLike, make_rng
from repro.util.timing import PhaseTimer, maybe_phase
from repro.util.units import db_to_linear, linear_to_db
from repro.util.validation import check_positive

#: ``progress(done, total)`` callback — e.g. the CLI's stderr meter.
ProgressFn = Callable[[int, int], None]


@dataclass(frozen=True)
class DownlinkTraceConfig:
    """Knobs of the synthetic downlink measurement campaign."""

    n_aps: int = 5
    n_locations: int = 100
    corridor_length_m: float = 100.0
    corridor_depth_m: float = 30.0
    tx_power_w: float = DEFAULT_TX_POWER_W
    pathloss_exponent: float = 3.5
    shadowing_sigma_db: float = 5.0
    bandwidth_hz: float = 20e6
    target_success: float = 0.9
    packet_bits: float = 12000.0

    def __post_init__(self) -> None:
        if self.n_aps < 2:
            raise ValueError("need at least two APs for interference pairs")
        if self.n_locations < 1:
            raise ValueError("need at least one location")
        check_positive("corridor_length_m", self.corridor_length_m)
        check_positive("corridor_depth_m", self.corridor_depth_m)
        check_positive("bandwidth_hz", self.bandwidth_hz)
        if not 0.0 < self.target_success < 1.0:
            raise ValueError("target_success must be in (0, 1)")


def _interference_pairs(
        ap_names: Tuple[str, ...]) -> List[Tuple[str, str]]:
    """(serving, interferer) keys in the measurement's serving-major
    order — the iteration order of the scalar ``_measure_rates`` loop."""
    return [(serving, interferer)
            for serving in ap_names
            for interferer in ap_names
            if serving != interferer]


def measure_rates(snr_db: Dict[str, float], rate_table: RateTable,
                  error_model: PacketErrorModel, packet_bits: float,
                  target_success: float) -> Tuple[
                      Dict[str, float], Dict[Tuple[str, str], float]]:
    """Emulate the 90 %-success bitrate measurements for one location.

    One scalar rate search per link: the frozen reference's measurement.
    :meth:`DownlinkTraceGenerator.generate` measures the whole campaign
    in one batched search instead.
    """
    clean: Dict[str, float] = {}
    for ap, snr in snr_db.items():
        clean[ap] = best_discrete_rate(
            rate_table, float(db_to_linear(snr)),
            error_model=error_model,
            packet_bits=packet_bits,
            target_success=target_success)
    interfered: Dict[Tuple[str, str], float] = {}
    for serving, serving_snr in snr_db.items():
        for interferer, interferer_snr in snr_db.items():
            if serving == interferer:
                continue
            # SINR of the serving AP while the interferer transmits:
            # both SNRs share the same noise floor, so the linear
            # SINR is s / (i + 1) in noise-normalised units.
            s = float(db_to_linear(serving_snr))
            i = float(db_to_linear(interferer_snr))
            sinr = s / (i + 1.0)
            interfered[(serving, interferer)] = best_discrete_rate(
                rate_table, sinr,
                error_model=error_model,
                packet_bits=packet_bits,
                target_success=target_success)
    return clean, interfered


class DownlinkTraceGenerator:
    """Generates per-location :class:`DownlinkMeasurement` records."""

    def __init__(self, config: Optional[DownlinkTraceConfig] = None,
                 rate_table: RateTable = DOT11G,
                 error_model: Optional[PacketErrorModel] = None):
        # DOT11G is a shared module-level constant (immutable table), so
        # it may stay a default; the config and error model are
        # constructed inside (never default arguments — lint RPR305).
        self.config = config = (config if config is not None
                                else DownlinkTraceConfig())
        self.rate_table = rate_table
        self.error_model = (error_model if error_model is not None
                            else PacketErrorModel())
        self.noise_w = thermal_noise_watts(config.bandwidth_hz)
        spacing = config.corridor_length_m / (config.n_aps + 1)
        self.ap_positions: List[Tuple[str, Point]] = [
            (f"AP{i + 1}", Point((i + 1) * spacing, config.corridor_depth_m / 2))
            for i in range(config.n_aps)
        ]
        self.propagation = LogDistancePathLoss(
            exponent=config.pathloss_exponent,
            shadowing_sigma_db=config.shadowing_sigma_db,
        )

    # ------------------------------------------------------------------

    def _measure_rates(self, snr_db: Dict[str, float]) -> Tuple[
            Dict[str, float], Dict[Tuple[str, str], float]]:
        """Emulate the 90 %-success bitrate measurements."""
        cfg = self.config
        return measure_rates(snr_db, self.rate_table, self.error_model,
                             cfg.packet_bits, cfg.target_success)

    def generate(self, seed: SeedLike = None, *,
                 timer: Optional[PhaseTimer] = None,
                 progress: Optional[ProgressFn] = None) -> List[DownlinkMeasurement]:
        """Generate the full measurement campaign (fast path).

        The SNR rows replay the scalar RNG stream draw for draw (two
        scalar position draws, then one block shadowing draw per
        location).  Every clean SNR and every interfered SINR of the
        campaign then goes through one batched 90 %-success rate
        search.  Results are bit-identical to :meth:`generate_scalar`
        for any seed (pinned in ``tests/traces/test_downlink.py``).

        ``timer`` phases: ``draw`` / ``measure`` / ``assemble``;
        ``progress(done, total)`` is invoked once per location after
        the campaign's rates are measured.
        """
        rng = make_rng(seed)
        cfg = self.config
        ap_names = tuple(name for name, _ in self.ap_positions)
        ap_xy = [(pos.x, pos.y) for _, pos in self.ap_positions]
        n_aps = len(ap_names)
        with maybe_phase(timer, "draw"):
            snr_rows = np.empty((cfg.n_locations, n_aps))
            for loc_idx in range(cfg.n_locations):
                # Per-location draws are the frozen stream: the scalar
                # reference draws x-then-y per location before its block
                # shadowing draw, so the fast path replays that order.
                x = float(rng.uniform(0.0, cfg.corridor_length_m))  # repro-lint: disable=RPR403
                y = float(rng.uniform(0.0, cfg.corridor_depth_m))  # repro-lint: disable=RPR403
                distances = np.array(
                    [max(math.hypot(x - ap_x, y - ap_y), 1.0)
                     for ap_x, ap_y in ap_xy], dtype=float)
                rss = self.propagation.received_power_batch(
                    cfg.tx_power_w, distances, rng)
                snr_rows[loc_idx] = np.asarray(
                    linear_to_db(rss / self.noise_w), dtype=float)
        pair_keys = _interference_pairs(ap_names)
        with maybe_phase(timer, "measure"):
            # measure_rates' SINRs: the SNRs in linear noise-normalised
            # units, then s / (i + 1) for each (serving, interferer).
            snr_linear = np.asarray(db_to_linear(snr_rows), dtype=float)
            serving = [ap_names.index(s) for s, _ in pair_keys]
            interferer = [ap_names.index(i) for _, i in pair_keys]
            sinr = np.concatenate(
                [snr_linear,
                 snr_linear[:, serving] / (snr_linear[:, interferer] + 1.0)],
                axis=1)
            rates = best_discrete_rate_batch(
                self.rate_table, sinr, self.error_model,
                packet_bits=cfg.packet_bits,
                target_success=cfg.target_success)
        with maybe_phase(timer, "assemble"):
            measurements: List[DownlinkMeasurement] = []
            for loc_idx in range(cfg.n_locations):
                row = rates[loc_idx].tolist()
                measurements.append(DownlinkMeasurement(
                    location=f"L{loc_idx + 1}",
                    snr_db=dict(zip(ap_names, snr_rows[loc_idx].tolist())),
                    clean_rate_bps=dict(zip(ap_names, row[:n_aps])),
                    interfered_rate_bps=dict(zip(pair_keys, row[n_aps:])),
                ))
        if progress is not None:
            for loc_idx in range(cfg.n_locations):
                progress(loc_idx + 1, cfg.n_locations)
        return measurements

    def generate_scalar(self, seed: SeedLike = None) -> List[DownlinkMeasurement]:
        """The historical one-link-at-a-time campaign generator,
        behaviourally frozen (PR-1 convention) as the golden reference
        for :meth:`generate`."""
        rng = make_rng(seed)
        cfg = self.config
        measurements: List[DownlinkMeasurement] = []
        for loc_idx in range(cfg.n_locations):
            pos = Point(float(rng.uniform(0.0, cfg.corridor_length_m)),
                        float(rng.uniform(0.0, cfg.corridor_depth_m)))
            snr_db: Dict[str, float] = {}
            for ap_name, ap_pos in self.ap_positions:
                d = max(pos.distance_to(ap_pos), 1.0)
                rss = float(self.propagation.received_power(
                    cfg.tx_power_w, d, rng))
                snr_db[ap_name] = float(linear_to_db(rss / self.noise_w))
            clean, interfered = self._measure_rates(snr_db)
            measurements.append(DownlinkMeasurement(
                location=f"L{loc_idx + 1}",
                snr_db=snr_db,
                clean_rate_bps=clean,
                interfered_rate_bps=interfered,
            ))
        return measurements
