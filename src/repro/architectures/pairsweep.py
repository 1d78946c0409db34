"""The one batched pipeline behind the architecture pair sweeps.

The EWLAN and residential studies both reduce to the same shape of
work: sample thousands of cross-AP / cross-home transmitter pairs, turn
link distances into RSS, and classify each pair against the Fig. 5
taxonomy.  Each engine keeps only its sampler, its argument checks, its
empty-sample message and the one report field that differs;
:func:`run_pair_sweep` owns the rest:

* the replayable-shadowing guard;
* :class:`PairDistanceBatch` — the picklable chunk config carrying the
  pre-sampled link geometry (and pre-drawn shadowing) of N pairs;
* the worker-count-invariant cache key;
* the supervised indexed run of :func:`pair_scenario_chunk`, the pure
  chunk function fanned out to worker processes, in ``PAIR_CHUNK``
  chunks;
* the case mix and feasible share, rebuilt bit for bit from the merged
  arrays (:class:`PairSweep`).

The split keeps the generator stream entirely in the sampling phase
(distances and shadowing draws happen in the engine's sampler, in the
parent process, replaying the scalar stream draw for draw), so every
chunk is a pure function of ``(config, start, n)`` and the merged
result is independent of chunk size and worker count — the property
the golden tests pin.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

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
    evaluate_pair_scenario_batch,
)
from repro.topology.nodes import DEFAULT_TX_POWER_W
from repro.util.cache import ResultCache
from repro.util.rng import SeedLike, make_rng
from repro.util.units import db_to_linear

#: Sampled pairs per supervised chunk — fixed (not derived from the
#: worker count) so the chunk layout, and with it every cache and
#: checkpoint key, is identical for serial and parallel runs.
PAIR_CHUNK = 512


@dataclass(frozen=True)
class PairDistanceBatch:
    """Picklable chunk config: pre-sampled link geometry of N pairs.

    ``distances_m[k]`` holds the four near-field-clamped Tx-Rx
    distances of pair ``k`` in ``(s11, s12, s21, s22)`` order;
    ``shadow_db`` carries the pre-drawn log-normal shadowing
    realisations in the same layout (``None`` for deterministic
    propagation).  Pre-drawing keeps all generator state in the
    sampling phase, which is what makes the chunks pure.
    """

    distances_m: np.ndarray
    shadow_db: Optional[np.ndarray]
    tx_power_w: float
    packet_bits: float
    channel: Channel
    propagation: PropagationModel


@dataclass(frozen=True)
class PairSweep:
    """The report fields both engines share, plus every pair's gain."""

    n_pairs: int
    #: Observed-case mix in Fig. 5 letter order (unlike ``Counter``
    #: insertion order), value-identical to the scalar engines'
    #: ``count / n_pairs``; cases that never occurred are omitted.
    case_fractions: Dict[PairCase, float]
    sic_feasible_fraction: float
    gains: np.ndarray


def pair_scenario_chunk(batch: PairDistanceBatch, start: int,
                        n: int) -> Dict[str, np.ndarray]:
    """Evaluate pairs ``[start, start + n)`` of a pre-sampled batch.

    Replays the scalar RSS pipeline step for step — per-element path
    gain (:meth:`~repro.phy.pathloss.PropagationModel.path_gain_batch`),
    multiply by tx power, apply the pre-drawn shadowing through
    ``db_to_linear`` — each step pinned bit-identical to the scalar
    ``received_power`` call — then the batched Fig. 5 analysis.
    """
    distances = batch.distances_m[start:start + n]
    gain = batch.propagation.path_gain_batch(distances)
    power = batch.tx_power_w * np.asarray(gain, dtype=float)
    if batch.shadow_db is not None:
        linear = np.asarray(db_to_linear(batch.shadow_db[start:start + n]),
                            dtype=float)
        power = power * linear
    scenarios = evaluate_pair_scenario_batch(
        batch.channel, batch.packet_bits,
        power[:, 0], power[:, 1], power[:, 2], power[:, 3])
    return {"case_codes": scenarios.case_codes,
            "sic_feasible": scenarios.sic_feasible,
            "gains": scenarios.gains}


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right Python accumulation over ``values``.

    Matches the scalar engines' ``total += gain`` loop exactly;
    ``np.sum`` associates terms pairwise and rounds differently.
    """
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def run_pair_sweep(architecture: str, params: Mapping[str, float],
                   sample: Callable[..., Tuple[List[Tuple[float, ...]],
                                               List[np.ndarray]]],
                   empty_message: str,
                   channel: Channel, propagation: PropagationModel,
                   seed: SeedLike, *,
                   chunk_size: Optional[int],
                   cache: Optional[ResultCache],
                   policy: Optional[ExecutionPolicy]) -> PairSweep:
    """Sample, classify and summarise one architecture's pairs.

    ``sample(rng, shadowing_sigma_db)`` replays the engine's scalar
    stream and returns, per pair, the four clamped Tx-Rx distances and
    (under shadowing) four pre-drawn normals, both in ``(s11, s12, s21,
    s22)`` order.  ``params`` are the engine's arguments that shape the
    sample, ``packet_bits`` among them; they key the result cache and
    checkpoints together with the channel, the propagation model and
    the seed.  The run is uncacheable when the seed has no stable token
    (OS entropy, stateful generators) or the propagation model is not a
    dataclass the key can canonicalise.  ``empty_message`` is the
    ``RuntimeError`` raised when ``sample`` returns no pair.  Of the
    shadowed propagation models only :class:`LogDistancePathLoss` is
    replayed; any other raises ``ValueError`` before a draw.
    """
    sigma_db = getattr(propagation, "shadowing_sigma_db", 0.0)
    if sigma_db > 0.0 and not isinstance(propagation, LogDistancePathLoss):
        # Only the log-distance fading recipe is replayed in the chunk
        # function.
        raise ValueError(
            f"shadowed {type(propagation).__name__} is not supported; "
            "only LogDistancePathLoss shadowing is replayed")
    token = seed_cache_token(seed)
    distance_rows, shadow_rows = sample(make_rng(seed), sigma_db)
    if not distance_rows:
        raise RuntimeError(empty_message)

    batch = PairDistanceBatch(
        distances_m=np.array(distance_rows, dtype=float),
        shadow_db=(np.array(shadow_rows, dtype=float)
                   if sigma_db > 0.0 else None),
        tx_power_w=DEFAULT_TX_POWER_W, packet_bits=params["packet_bits"],
        channel=channel, propagation=propagation)
    cache_key = None
    if token is not None and dataclasses.is_dataclass(propagation):
        cache_key = {"architecture": architecture,
                     **params,
                     "channel": dataclasses.asdict(channel),
                     "propagation": {"model": type(propagation).__name__,
                                     **dataclasses.asdict(propagation)},
                     "seed": token}
    merged = run_indexed(
        architecture, pair_scenario_chunk, batch, len(distance_rows),
        code_version=1, cache_key=cache_key,
        chunk_size=chunk_size if chunk_size is not None else PAIR_CHUNK,
        cache=cache, policy=policy)

    n_pairs = int(merged["gains"].shape[0])
    counts = np.bincount(merged["case_codes"], minlength=len(CASE_ORDER))
    return PairSweep(
        n_pairs=n_pairs,
        case_fractions={case: int(count) / n_pairs
                        for case, count in zip(CASE_ORDER, counts) if count},
        sic_feasible_fraction=(
            int(np.count_nonzero(merged["sic_feasible"])) / n_pairs),
        gains=merged["gains"])
