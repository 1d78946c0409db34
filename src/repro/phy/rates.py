"""Discrete 802.11 bitrate tables and rate selection.

The paper's central argument is that *ideal* (continuous) rate
adaptation squeezes out SIC's slack, and that the slack "is fast
disappearing with more fine-grain bitrates (4 in 802.11b vs 8 in 802.11g
vs 32 in 802.11n)".  This module provides those three discrete rate
tables plus the selection rules the trace evaluation uses:

* :meth:`RateTable.best_rate` — highest rate whose SINR threshold is met
  (the idealised discrete selection);
* :func:`best_discrete_rate` — highest rate achieving a target packet
  success probability under a :class:`~repro.phy.error.PacketErrorModel`
  (the paper's "highest 802.11g bitrate at which 90 % of packets are
  received successfully").

The SINR thresholds are approximations derived from standard receiver
sensitivity specifications (e.g. -82 dBm for 6 Mbps OFDM down to
-65 dBm for 54 Mbps over a ~-95 dBm noise floor); absolute values do not
matter for the reproduction, only the *spacing* between rate steps,
which controls how much slack discrete adaptation leaves for SIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.units import db_to_linear, linear_to_db
from repro.util.validation import check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.phy.error import PacketErrorModel


@dataclass(frozen=True)
class RateStep:
    """One modulation/coding step: a bitrate and its minimum SINR."""

    rate_bps: float
    min_sinr_db: float

    def __post_init__(self) -> None:
        check_positive("rate_bps", self.rate_bps)

    @property
    def min_sinr_linear(self) -> float:
        return float(db_to_linear(self.min_sinr_db))


@dataclass(frozen=True)
class RateTable:
    """An ordered set of discrete bitrate steps for one PHY standard."""

    name: str
    steps: Tuple[RateStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a rate table needs at least one step")
        rates = [s.rate_bps for s in self.steps]
        thresholds = [s.min_sinr_db for s in self.steps]
        if sorted(rates) != rates or len(set(rates)) != len(rates):
            raise ValueError(f"{self.name}: rates must be strictly increasing")
        if sorted(thresholds) != thresholds:
            raise ValueError(f"{self.name}: SINR thresholds must be non-decreasing")

    @classmethod
    def from_pairs(cls, name: str,
                   pairs: Sequence[Tuple[float, float]]) -> "RateTable":
        """Build from ``(rate_bps, min_sinr_db)`` pairs."""
        return cls(name=name, steps=tuple(RateStep(r, t) for r, t in pairs))

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def rates_bps(self) -> List[float]:
        return [s.rate_bps for s in self.steps]

    @property
    def max_rate_bps(self) -> float:
        return self.steps[-1].rate_bps

    def best_rate(self, sinr_linear: float) -> float:
        """Highest bitrate whose SINR threshold is met; 0.0 if none.

        A return of 0.0 means the link cannot carry packets at all at
        this SINR (the paper's infeasible case).
        """
        if sinr_linear < 0.0:
            raise ValueError("SINR must be non-negative")
        if sinr_linear == 0.0:
            return 0.0
        sinr_db = float(linear_to_db(sinr_linear))
        best = 0.0
        for step in self.steps:
            if sinr_db >= step.min_sinr_db:
                best = step.rate_bps
            else:
                break
        return best

    def best_rate_db(self, sinr_db: float) -> float:
        """Highest bitrate for an SINR given in dB; 0.0 if none."""
        best = 0.0
        for step in self.steps:
            if sinr_db >= step.min_sinr_db:
                best = step.rate_bps
            else:
                break
        return best

    def quantize(self, shannon_rate_bps: float) -> float:
        """Largest table rate <= a continuous rate; 0.0 if below all steps.

        Models a rate-adaptation algorithm that knows the ideal rate but
        can only pick from the standard's discrete set.
        """
        if shannon_rate_bps < 0.0:
            raise ValueError("rate must be non-negative")
        best = 0.0
        for step in self.steps:
            if step.rate_bps <= shannon_rate_bps:
                best = step.rate_bps
            else:
                break
        return best

    def threshold_for_rate(self, rate_bps: float) -> float:
        """The SINR threshold (dB) of an exact table rate."""
        for step in self.steps:
            if step.rate_bps == rate_bps:
                return step.min_sinr_db
        raise KeyError(f"{rate_bps} bps is not a rate of table {self.name}")


def _mbps(value: float) -> float:
    return value * 1e6


#: 802.11b DSSS/CCK: 4 rates.  Thresholds from typical sensitivity specs.
DOT11B = RateTable.from_pairs("802.11b", [
    (_mbps(1.0), 2.0),
    (_mbps(2.0), 4.0),
    (_mbps(5.5), 7.0),
    (_mbps(11.0), 10.0),
])

#: 802.11g OFDM: 8 rates.
DOT11G = RateTable.from_pairs("802.11g", [
    (_mbps(6.0), 5.0),
    (_mbps(9.0), 6.0),
    (_mbps(12.0), 8.0),
    (_mbps(18.0), 11.0),
    (_mbps(24.0), 14.0),
    (_mbps(36.0), 18.0),
    (_mbps(48.0), 22.0),
    (_mbps(54.0), 24.0),
])

#: Per-stream 802.11n 20 MHz (800 ns GI) MCS 0-7 rates in Mbps with
#: approximate per-stream SINR thresholds.
_DOT11N_BASE = [
    (6.5, 5.0),
    (13.0, 8.0),
    (19.5, 11.0),
    (26.0, 14.0),
    (39.0, 18.0),
    (52.0, 22.0),
    (58.5, 24.0),
    (65.0, 26.0),
]


def _build_dot11n(streams: int = 4) -> RateTable:
    """Build the 32-entry 802.11n table (MCS 0-31, up to 4 streams).

    Rates scale linearly with the stream count; the required SINR grows
    by roughly 3 dB per added stream (power is split across streams).
    Ties in rate between stream configurations keep the lowest-threshold
    variant.  This is a simplified MIMO model — the paper only uses the
    table's *granularity* ("32 in 802.11n"), not its MIMO physics.
    """
    candidates = {}
    for n in range(1, streams + 1):
        for rate_mbps, thr_db in _DOT11N_BASE:
            rate = _mbps(rate_mbps * n)
            threshold = thr_db + 3.0 * (n - 1)
            if rate not in candidates or threshold < candidates[rate]:
                candidates[rate] = threshold
    pairs = sorted(candidates.items())
    # Enforce monotone thresholds (a faster rate never needs less SINR).
    monotone = []
    floor = -np.inf
    for rate, thr in pairs:
        floor = max(floor, thr)
        monotone.append((rate, floor))
    return RateTable.from_pairs("802.11n-20MHz", monotone)


DOT11N_20MHZ = _build_dot11n()

#: The paper counts "32 in 802.11n" — MCS 0 through 31.  Several MCS
#: indices share a rate value (e.g. MCS 1 at 13 Mbps equals two-stream
#: MCS 8), so the 32 MCS entries collapse to the distinct rate steps of
#: :data:`DOT11N_20MHZ`; this constant records the MCS count itself.
DOT11N_MCS_COUNT = 32

#: All standard tables keyed by name, for CLI/experiment lookup.
STANDARD_TABLES = {
    DOT11B.name: DOT11B,
    DOT11G.name: DOT11G,
    DOT11N_20MHZ.name: DOT11N_20MHZ,
}


def best_discrete_rate(table: RateTable, sinr_linear: float,
                       error_model: Optional["PacketErrorModel"] = None,
                       packet_bits: float = 12000.0,
                       target_success: float = 0.9) -> float:
    """Highest table rate meeting a packet-success target at this SINR.

    With ``error_model=None`` this reduces to the hard-threshold rule of
    :meth:`RateTable.best_rate`.  With a model it reproduces the paper's
    trace methodology: "the highest 802.11g bitrate at which 90 % of
    packets are received successfully".
    """
    check_probability("target_success", target_success)
    if error_model is None:
        return table.best_rate(sinr_linear)
    best = 0.0
    for step in table.steps:
        success = error_model.packet_success(sinr_linear, step, packet_bits)
        if success >= target_success:
            best = step.rate_bps
    return best


def best_discrete_rate_batch(table: RateTable, sinr_linear: np.ndarray,
                             error_model: "PacketErrorModel",
                             packet_bits: float = 12000.0,
                             target_success: float = 0.9) -> np.ndarray:
    """:func:`best_discrete_rate` under ``error_model``, over an SINR array.

    Walks the table once for all elements, in the scalar search's step
    order, and returns the same rate as the scalar call element for
    element (pinned in ``tests/phy/test_rates.py``).  A negative SINR
    raises the same ``ValueError`` as
    :meth:`~repro.phy.error.PacketErrorModel.packet_success`.
    """
    check_probability("target_success", target_success)
    sinr = np.asarray(sinr_linear, dtype=float)
    best = np.zeros(sinr.shape)
    for step in table.steps:
        success = error_model.packet_success_batch(sinr, step, packet_bits)
        best[success >= target_success] = step.rate_bps
    return best
