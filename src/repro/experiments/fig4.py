"""Fig. 4 — heatmap of the same-receiver completion-time gain.

``Z_{-SIC} / Z_{+SIC}`` (Eq. 5 over Eq. 6) for two transmitters to one
receiver, over the grid :func:`repro.util.containers.snr_grid` builds.
The claims to reproduce: moving away from the diagonal the gain rises
to a ridge and then falls again, and the ridge sits where the resulting
bitrates are equal — the stronger SNR (in dB) about twice the weaker
(``S1 ~= S2^2`` in linear terms).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel
from repro.sic.airtime import sic_gain_same_receiver
from repro.util.containers import GridResult, snr_grid

DEFAULT_BANDWIDTH_HZ = 20e6
DEFAULT_PACKET_BITS = 12_000.0


def compute(snr_db_min: float = 0.5,
            snr_db_max: float = 50.0,
            n_points: int = 101,
            bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
            packet_bits: float = DEFAULT_PACKET_BITS) -> GridResult:
    """Completion-time gain grid over (SNR1, SNR2) in dB."""
    channel = Channel(bandwidth_hz=bandwidth_hz,
                      noise_w=thermal_noise_watts(bandwidth_hz))
    return snr_grid("fig4-same-receiver-gain", channel.noise_w,
                    partial(sic_gain_same_receiver, channel, packet_bits),
                    snr_db_min, snr_db_max, n_points,
                    meta={"bandwidth_hz": bandwidth_hz,
                          "packet_bits": packet_bits})


def ridge_snr_ratio(grid: GridResult, min_snr_db: float = 6.0,
                    max_snr_db: float = 24.0) -> float:
    """Mean stronger/weaker dB ratio along the gain ridge (close to 2).

    The grid is symmetric in (SNR1, SNR2), so along a row the maximum
    may sit at ``x = 2y`` or at ``x = y/2`` (both are "stronger twice
    the weaker in dB"); we therefore report ``max(x/y, y/x)``.  Rows
    are restricted to a window where the ridge fits inside the grid.
    """
    ratios = []
    ridge_x = grid.ridge_along_y()
    for y_val, x_val in zip(grid.y, ridge_x):
        if min_snr_db <= y_val <= max_snr_db and x_val > 0 and y_val > 0:
            ratios.append(max(x_val / y_val, y_val / x_val))
    if not ratios:
        raise ValueError("no ridge rows inside the requested SNR window")
    return float(np.mean(ratios))
