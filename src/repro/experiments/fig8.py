"""Fig. 8 — download from two APs to one client: heatmap of Eq.10/Eq.6.

With a wired backbone both packets can simply be sent serially by the
*stronger* AP, so the no-SIC baseline is much stronger than in the
upload case.  Claims to reproduce, on the grid
:func:`repro.util.containers.snr_grid` builds: modest gains only where
one RSS is roughly the square of the other, and "overall gains with SIC
are quite limited in this download scenario" (max well below the
Fig. 4 peak).
"""

from __future__ import annotations

import numpy as np

from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel
from repro.sic.airtime import download_gain_two_aps_one_client
from repro.util.containers import GridResult, snr_grid

DEFAULT_BANDWIDTH_HZ = 20e6
DEFAULT_PACKET_BITS = 12_000.0


def compute(snr_db_min: float = 0.5,
            snr_db_max: float = 50.0,
            n_points: int = 101,
            bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
            packet_bits: float = DEFAULT_PACKET_BITS) -> GridResult:
    """Download-gain grid over the two AP SNRs at the client (dB)."""
    channel = Channel(bandwidth_hz=bandwidth_hz,
                      noise_w=thermal_noise_watts(bandwidth_hz))
    # The MAC would never use SIC where it loses to the stronger AP
    # sending both packets; clip at 1 like the paper's shading.
    return snr_grid("fig8-download-gain", channel.noise_w,
                    lambda s1, s2: np.maximum(
                        download_gain_two_aps_one_client(
                            channel, packet_bits, s1, s2), 1.0),
                    snr_db_min, snr_db_max, n_points,
                    meta={"bandwidth_hz": bandwidth_hz,
                          "packet_bits": packet_bits})
