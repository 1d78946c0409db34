"""Multirate packetization (paper Section 5.3, after [15]).

Under SIC the stronger client runs at its interference-limited rate
*only while its partner is still on the air*.  With multirate
packetization, different parts of a packet carry different bitrates:
once the weaker (faster-finishing) client completes, the stronger
client's remaining bits switch to the clean rate the channel now
supports.  Fig. 10f: the 11.5-unit pairing drops to about 10.4 units.

This helps exactly when the stronger client is the bottleneck — when
the weaker client is the slow one, its bits already flow at the clean
(post-cancellation) rate throughout and there is nothing to switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.shannon import Channel, airtime, shannon_rate
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MultiratePair:
    """Joint airtime with multirate packetization for the bottleneck."""

    airtime_s: float
    #: Seconds the stronger client spent at the interference-limited rate.
    overlap_s: float
    #: Seconds the stronger client spent at its clean rate afterwards.
    boost_s: float

    @property
    def used_rate_switch(self) -> bool:
        return self.boost_s > 0.0


def multirate_pair_airtime(channel: Channel, packet_bits: float,
                           rss_a_w: float, rss_b_w: float) -> MultiratePair:
    """Joint SIC airtime when the stronger packet may switch rates.

    Phase 1 (both on air, duration = the weaker packet's clean-rate
    airtime): the stronger client sends at Eq. 1's interference-limited
    rate.  Phase 2: any remaining bits of the stronger packet go at the
    clean Eq. 2-style rate ``B log2(1 + S_strong / N0)``.
    """
    check_positive("packet_bits", packet_bits)
    check_positive("rss_a_w", rss_a_w)
    check_positive("rss_b_w", rss_b_w)
    strong, weak = max(rss_a_w, rss_b_w), min(rss_a_w, rss_b_w)
    b, n0 = channel.bandwidth_hz, channel.noise_w

    rate_strong_interfered = shannon_rate(b, strong, weak, n0)
    rate_strong_clean = shannon_rate(b, strong, 0.0, n0)
    rate_weak_clean = shannon_rate(b, weak, 0.0, n0)

    t_weak = float(airtime(packet_bits, rate_weak_clean))
    t_strong_interfered = float(airtime(packet_bits, rate_strong_interfered))

    if t_strong_interfered <= t_weak:
        # The weaker client is the bottleneck; the stronger packet fits
        # entirely inside the overlap and no rate switch happens.
        return MultiratePair(airtime_s=t_weak,
                             overlap_s=t_strong_interfered,
                             boost_s=0.0)

    bits_in_overlap = rate_strong_interfered * t_weak
    remaining_bits = packet_bits - bits_in_overlap
    boost = remaining_bits / rate_strong_clean
    return MultiratePair(airtime_s=t_weak + boost,
                         overlap_s=t_weak,
                         boost_s=boost)


def multirate_pair_airtime_batch(channel: Channel, packet_bits: float,
                                 rss_a_w: np.ndarray,
                                 rss_b_w: np.ndarray) -> np.ndarray:
    """Vectorised :func:`multirate_pair_airtime` (airtimes only).

    Element ``k`` equals
    ``multirate_pair_airtime(channel, packet_bits, a[k], b[k]).airtime_s``.
    """
    check_positive("packet_bits", packet_bits)
    rss_a = np.asarray(rss_a_w, dtype=float)
    rss_b = np.asarray(rss_b_w, dtype=float)
    if np.any(rss_a <= 0.0) or np.any(rss_b <= 0.0):
        raise ValueError("RSS values must be positive")
    strong = np.maximum(rss_a, rss_b)
    weak = np.minimum(rss_a, rss_b)
    b, n0 = channel.bandwidth_hz, channel.noise_w

    rate_strong_interfered = np.asarray(
        shannon_rate(b, strong, weak, n0), dtype=float)
    rate_strong_clean = np.asarray(
        shannon_rate(b, strong, 0.0, n0), dtype=float)
    rate_weak_clean = np.asarray(
        shannon_rate(b, weak, 0.0, n0), dtype=float)

    t_weak = np.asarray(airtime(packet_bits, rate_weak_clean), dtype=float)
    t_strong_interfered = np.asarray(
        airtime(packet_bits, rate_strong_interfered), dtype=float)

    # A lane whose weak client has a zero clean rate (t_weak == inf)
    # computes inf - inf here; np.where keeps t_weak for it.
    with np.errstate(invalid="ignore", divide="ignore"):
        bits_in_overlap = rate_strong_interfered * t_weak
        boost = (packet_bits - bits_in_overlap) / rate_strong_clean
        return np.where(t_strong_interfered <= t_weak, t_weak,
                        t_weak + boost)
