"""Fig. 3 — heatmap of the relative capacity gain with SIC.

``C_{+SIC} / C_{-SIC}`` over a grid of the two received SNRs, built by
:func:`repro.util.containers.snr_grid`.  The paper's observations to
reproduce: the gain is always >= 1, it is "not high in general", and
it is largest when the RSSs are *smaller and similar* (the bright
region hugs the diagonal near the origin).
"""

from __future__ import annotations

from functools import partial

from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel
from repro.sic.capacity import capacity_gain
from repro.util.containers import GridResult, snr_grid

DEFAULT_BANDWIDTH_HZ = 20e6


def compute(snr_db_min: float = 0.5,
            snr_db_max: float = 50.0,
            n_points: int = 101,
            bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ) -> GridResult:
    """Capacity-gain grid over (SNR1, SNR2) in dB."""
    channel = Channel(bandwidth_hz=bandwidth_hz,
                      noise_w=thermal_noise_watts(bandwidth_hz))
    return snr_grid("fig3-capacity-gain", channel.noise_w,
                    partial(capacity_gain, channel),
                    snr_db_min, snr_db_max, n_points,
                    meta={"bandwidth_hz": bandwidth_hz})
