"""SINR -> packet-success-probability model.

The paper's download-trace methodology picks "the highest 802.11g
bitrate at which 90 % of packets are received successfully".  To emulate
that measurement without the testbed we need a mapping from SINR to
packet success probability per rate step.  We use the standard logistic
(sigmoid-in-dB) approximation of a coded-PHY waterfall curve: success is
~0.5 exactly at the step's SINR threshold and transitions over a couple
of dB, with longer packets shifting the curve slightly right (more bits,
more chances to fail).

The exact curve shape is not load-bearing for the reproduction — only
that it is monotone in SINR and produces a well-defined "90 % rate" a
fraction of a dB above the hard threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.phy.rates import RateStep
from repro.util.units import linear_to_db
from repro.util.validation import check_positive


def packet_success_probability(sinr_db: float, threshold_db: float,
                               steepness_per_db: float = 1.5,
                               packet_bits: float = 12000.0,
                               reference_bits: float = 12000.0) -> float:
    """Logistic packet-success curve.

    ``P = sigmoid(k * (sinr_db - threshold_db - shift))`` where the shift
    grows logarithmically with packet length relative to a 1500-byte
    reference packet.

    >>> packet_success_probability(10.0, 10.0)
    0.5
    >>> packet_success_probability(30.0, 10.0) > 0.999
    True
    """
    check_positive("steepness_per_db", steepness_per_db)
    check_positive("packet_bits", packet_bits)
    check_positive("reference_bits", reference_bits)
    length_shift_db = math.log2(packet_bits / reference_bits) * 0.5
    x = steepness_per_db * (sinr_db - threshold_db - length_shift_db)
    # Clamp to avoid overflow in exp for extreme SINRs.
    if x > 40.0:
        return 1.0
    if x < -40.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


@dataclass(frozen=True)
class PacketErrorModel:
    """A configured success-probability model for a rate table.

    ``steepness_per_db`` controls how sharp the waterfall is; 1.5/dB
    puts the 10 %..90 % transition inside ~3 dB, typical of coded OFDM.
    """

    steepness_per_db: float = 1.5
    reference_bits: float = 12000.0

    def __post_init__(self) -> None:
        check_positive("steepness_per_db", self.steepness_per_db)
        check_positive("reference_bits", self.reference_bits)

    def packet_success(self, sinr_linear: float, step: RateStep,
                       packet_bits: float = 12000.0) -> float:
        """Success probability of one packet at ``step`` under ``sinr``."""
        if sinr_linear < 0.0:
            raise ValueError("SINR must be non-negative")
        if sinr_linear == 0.0:
            return 0.0
        sinr_db = float(linear_to_db(sinr_linear))
        return packet_success_probability(
            sinr_db,
            step.min_sinr_db,
            steepness_per_db=self.steepness_per_db,
            packet_bits=packet_bits,
            reference_bits=self.reference_bits,
        )

    def packet_success_batch(self, sinr_linear: np.ndarray, step: RateStep,
                             packet_bits: float = 12000.0) -> np.ndarray:
        """:meth:`packet_success` over an SINR array, element for element.

        The dB conversion and the logistic's argument are array
        operations, which round as the scalar ones do.  The exponential
        runs through ``math.exp`` per element, as in the scalar curve:
        ``np.exp`` rounds differently on a few percent of arguments.
        """
        sinr = np.asarray(sinr_linear, dtype=float)
        if np.any(sinr < 0.0):
            raise ValueError("SINR must be non-negative")
        check_positive("packet_bits", packet_bits)
        length_shift_db = math.log2(packet_bits / self.reference_bits) * 0.5
        nonzero = sinr != 0.0
        x = self.steepness_per_db * (
            np.asarray(linear_to_db(sinr[nonzero]), dtype=float)
            - step.min_sinr_db - length_shift_db)
        # The scalar curve's clamps, in its order; NaN reaches the
        # logistic there too.
        success_nonzero = np.where(x > 40.0, 1.0, 0.0)
        logistic = ~((x > 40.0) | (x < -40.0))
        success_nonzero[logistic] = [1.0 / (1.0 + math.exp(-v))
                                     for v in x[logistic].tolist()]
        success = np.zeros(sinr.shape)
        success[nonzero] = success_nonzero
        return success

    def sinr_db_for_success(self, step: RateStep, target: float,
                            packet_bits: float = 12000.0) -> float:
        """Invert the curve: SINR (dB) needed to hit ``target`` success."""
        if not 0.0 < target < 1.0:
            raise ValueError("target must be strictly between 0 and 1")
        length_shift_db = math.log2(packet_bits / self.reference_bits) * 0.5
        logit = math.log(target / (1.0 - target))
        return step.min_sinr_db + length_shift_db + logit / self.steepness_per_db
