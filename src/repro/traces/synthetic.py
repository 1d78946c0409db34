"""Synthetic upload trace generation (the Fig. 13 substitution).

The paper: "We collected real world 802.11g link RSSI traces from a
busy building in Duke University over 2 weeks ... we parsed out
topology snapshots (every 15 minutes) that provide sets of wireless
clients associated to each AP.  Using the per-client RSSI at the AP, we
quantified the achievable gains with SIC-aware link-pairing."

The scheduler evaluation therefore consumes only *sets of per-client
RSSI values at each AP, per snapshot*.  This generator reproduces that
input statistically:

* APs on a grid inside a building footprint;
* a client population that churns over time with a diurnal occupancy
  profile (busy around midday, quiet at night — it was "a busy
  building");
* RSSI from log-distance path loss (alpha configurable) plus
  log-normal shadowing, the standard indoor model, re-sampled per
  snapshot so links wobble the way real RSSI traces do;
* association to the strongest AP as observed through the shadowing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.phy.pathloss import LogDistancePathLoss
from repro.topology.geometry import Point, grid_points
from repro.topology.nodes import DEFAULT_TX_POWER_W
from repro.traces.records import ApSnapshot, ClientObservation, UploadTrace
from repro.util.rng import SeedLike, make_rng
from repro.util.timing import PhaseTimer, maybe_phase
from repro.util.units import db_to_linear, watts_to_dbm
from repro.util.validation import check_positive

#: ``progress(done, total)`` callback — e.g. the CLI's stderr meter.
ProgressFn = Callable[[int, int], None]

#: Snapshot steps resolved per pass of :meth:`UploadTraceGenerator.generate`.
#: Enough clients (a few hundred at peak) to amortise numpy's per-call
#: overhead; few enough that the pass's float lists stay small (resolving
#: the whole 14-day trace at once took a fresh process's peak RSS from 41
#: to 52 MiB).
RESOLVE_BLOCK_STEPS = 24


@dataclass(frozen=True)
class UploadTraceConfig:
    """Knobs of the synthetic building trace."""

    building: str = "synthetic-duke"
    width_m: float = 80.0
    height_m: float = 40.0
    ap_rows: int = 2
    ap_cols: int = 4
    duration_days: float = 14.0
    snapshot_interval_s: float = 15.0 * 60.0
    #: Mean number of active clients in the building at the busiest hour.
    peak_clients: float = 24.0
    #: Fraction of the peak present in the middle of the night.
    night_fraction: float = 0.15
    tx_power_w: float = DEFAULT_TX_POWER_W
    pathloss_exponent: float = 3.5
    shadowing_sigma_db: float = 6.0
    #: Clip RSSI below this (receiver sensitivity floor, dBm).
    sensitivity_dbm: float = -95.0

    def __post_init__(self) -> None:
        check_positive("width_m", self.width_m)
        check_positive("height_m", self.height_m)
        check_positive("duration_days", self.duration_days)
        check_positive("snapshot_interval_s", self.snapshot_interval_s)
        check_positive("peak_clients", self.peak_clients)
        check_positive("tx_power_w", self.tx_power_w)
        if not 0.0 <= self.night_fraction <= 1.0:
            raise ValueError("night_fraction must be in [0, 1]")
        if self.ap_rows < 1 or self.ap_cols < 1:
            raise ValueError("need at least one AP")

    @property
    def n_aps(self) -> int:
        return self.ap_rows * self.ap_cols

    @property
    def n_snapshots(self) -> int:
        return int(self.duration_days * 24 * 3600 / self.snapshot_interval_s)


def occupancy_factor(time_of_day_s: float, night_fraction: float) -> float:
    """Diurnal occupancy in [night_fraction, 1], peaking at 13:00."""
    hours = (time_of_day_s / 3600.0) % 24.0
    # Cosine bump centred on 13:00 local time.
    bump = 0.5 * (1.0 + math.cos((hours - 13.0) / 24.0 * 2.0 * math.pi))
    return night_fraction + (1.0 - night_fraction) * bump


class UploadTraceGenerator:
    """Generates :class:`UploadTrace` objects from a config and a seed."""

    def __init__(self, config: Optional[UploadTraceConfig] = None):
        # Constructed inside (never a default argument): a shared default
        # instance is the mutable-default trap lint rule RPR305 flags.
        self.config = config = (config if config is not None
                                else UploadTraceConfig())
        spacing_x = config.width_m / (config.ap_cols + 1)
        spacing_y = config.height_m / (config.ap_rows + 1)
        # A slightly irregular grid: regular placement plus nothing else
        # would create artificial RSS symmetry between APs.
        self.ap_positions: List[Tuple[str, Point]] = []
        base = grid_points(config.ap_rows, config.ap_cols,
                           spacing_m=1.0, origin=Point(0.0, 0.0))
        for idx, p in enumerate(base):
            pos = Point((p.x + 1.0) * spacing_x, (p.y + 1.0) * spacing_y)
            self.ap_positions.append((f"AP{idx + 1}", pos))
        self.propagation = LogDistancePathLoss(
            exponent=config.pathloss_exponent,
            shadowing_sigma_db=config.shadowing_sigma_db,
        )

    def generate(self, seed: SeedLike = None,
                 timer: Optional[PhaseTimer] = None,
                 progress: Optional[ProgressFn] = None,
                 until_busy: Optional[int] = None) -> UploadTrace:
        """Generate the multi-day trace, or its first blocks (fast path).

        The steps are drawn block by block (:meth:`_draw_blocks`); each
        block's clients are resolved in one pass — distances, path gain,
        shadowing, strongest-AP association, dBm conversion and
        sensitivity clipping — that assembles its snapshots.  The result
        — snapshot order, client names, every RSSI float — is
        **bit-identical** to :meth:`generate_scalar` for any seed
        (pinned in ``tests/traces/test_synthetic.py``).

        ``until_busy`` stops after the block in which the trace reaches
        that many snapshots with at least 2 clients: the result is then
        the first whole blocks of the full trace, unchanged (all of it
        when the trace never gets that busy).  Its ``duration_s`` is the
        prefix's; :meth:`duration_s` gives the full trace's.

        ``timer`` attributes wall-clock to the ``draw`` / ``rss`` /
        ``assemble`` phases; ``progress(done, total)`` is invoked once
        per snapshot step, after the block holding it is assembled.
        """
        rng = make_rng(seed)
        cfg = self.config
        snapshots: List[ApSnapshot] = []
        names_used = busy = 0
        n_steps = cfg.n_snapshots
        for steps, block in self._draw_blocks(rng, timer):
            if block:
                resolved = self._resolve_block(block, names_used, timer)
                snapshots += resolved
                # Clipped clients still consume a name, as in the scalar
                # loop.
                names_used += sum(xs.size for _, xs, _, _ in block)
                if until_busy is not None:
                    busy += sum(s.n_clients >= 2 for s in resolved)
            if progress is not None:
                for step in steps:
                    progress(step + 1, n_steps)
            if until_busy is not None and busy >= until_busy:
                break
        return UploadTrace(building=cfg.building,
                           snapshot_interval_s=cfg.snapshot_interval_s,
                           snapshots=tuple(snapshots))

    def duration_s(self, seed: SeedLike = None) -> float:
        """``generate(seed).duration_s``, resolving only the last block.

        The stream is still drawn to its end — the last snapshot can sit
        in any block — but only the last block that drew clients is
        resolved.  When it keeps none of them (all below the sensitivity
        floor), the answer lies in an earlier block, and the full trace
        is generated from a copy of the starting stream instead.
        """
        rng = make_rng(seed)
        start = copy.deepcopy(rng)
        last: list = []
        for _, block in self._draw_blocks(rng):
            if block:
                last = block
        if not last:
            return 0.0  # no step drew a client: the trace is empty
        # Client names do not matter here, so the block is resolved as
        # if it were the first.
        tail = self._resolve_block(last, 0, None)
        if not tail:
            return self.generate(start).duration_s
        return max(s.timestamp_s for s in tail)

    def _draw_blocks(self, rng: np.random.Generator,
                     timer: Optional[PhaseTimer] = None,
                     ) -> Iterator[Tuple[range, list]]:
        """Yield ``(steps, block)`` per :data:`RESOLVE_BLOCK_STEPS` steps.

        The loop over steps only draws: per step, the Poisson client
        count, the two position blocks and the clients x APs shadowing
        block, in the order the scalar loop consumes the stream.
        ``block`` holds ``(t, xs, ys, shadow_db)`` per step of ``steps``
        that drew clients.  One block is held at a time: callers resolve
        or drop it before drawing the next.
        """
        cfg = self.config
        n_steps = cfg.n_snapshots
        n_aps = len(self.ap_positions)
        for start in range(0, n_steps, RESOLVE_BLOCK_STEPS):
            steps = range(start, min(start + RESOLVE_BLOCK_STEPS, n_steps))
            with maybe_phase(timer, "draw"):
                block: list = []
                for step in steps:
                    # Per-snapshot draws are the frozen stream: the
                    # scalar reference draws count, positions, then one
                    # shadowing value per client x AP, once per step, so
                    # the fast path must too (only the per-client RSS
                    # work is blocked).
                    t = step * cfg.snapshot_interval_s
                    factor = occupancy_factor(t, cfg.night_fraction)
                    n_active = int(rng.poisson(cfg.peak_clients * factor))  # repro-lint: disable=RPR403
                    if n_active == 0:
                        continue
                    xs = rng.uniform(0.0, cfg.width_m, size=n_active)  # repro-lint: disable=RPR403
                    ys = rng.uniform(0.0, cfg.height_m, size=n_active)  # repro-lint: disable=RPR403
                    shadow_db = (rng.normal(0.0, cfg.shadowing_sigma_db,  # repro-lint: disable=RPR403
                                            size=(n_active, n_aps))
                                 if cfg.shadowing_sigma_db > 0.0 else None)
                    block.append((t, xs, ys, shadow_db))
            yield steps, block

    def _resolve_block(self, block, names_used: int,
                       timer: Optional[PhaseTimer]) -> List[ApSnapshot]:
        """The snapshots of one block of drawn steps.

        ``block`` holds ``(t, xs, ys, shadow_db)`` per step that drew
        clients; ``names_used`` counts the client names taken before it.
        """
        cfg = self.config
        n_aps = len(self.ap_positions)
        times, xs_parts, ys_parts, shadow_parts = zip(*block)
        with maybe_phase(timer, "rss"):
            xs = np.concatenate(xs_parts)
            ys = np.concatenate(ys_parts)
            n_clients = xs.size
            # math.hypot, not np.hypot: the scalar loop measures through
            # Point.distance_to and np.hypot is 1 ulp off.  The
            # differences themselves round identically in numpy.
            distances = np.empty((n_clients, n_aps))
            for a, (_, pos) in enumerate(self.ap_positions):
                distances[:, a] = list(map(math.hypot,
                                           (xs - pos.x).tolist(),
                                           (ys - pos.y).tolist()))
            np.maximum(distances, 1.0, out=distances)
            # received_power_batch's arithmetic; its shadowing was drawn
            # step by step in the draw loop, in stream order.
            rss = cfg.tx_power_w * self.propagation.path_gain_batch(distances)
            if cfg.shadowing_sigma_db > 0.0:
                rss = rss * np.asarray(
                    db_to_linear(np.concatenate(shadow_parts)), dtype=float)
            # argmax takes the first maximum — same winner as the scalar
            # strict-> scan.
            best = np.argmax(rss, axis=1)
            rssi_dbm = np.asarray(
                watts_to_dbm(rss[np.arange(n_clients), best]), dtype=float)
            kept = np.flatnonzero(rssi_dbm >= cfg.sensitivity_dbm)
        with maybe_phase(timer, "assemble"):
            # One snapshot per (step, AP) with kept clients: a stable
            # sort on step-major keys yields the scalar order — steps
            # ascending, APs in position order, clients in draw order.
            step_of = np.repeat(np.arange(len(block)),
                                [part.size for part in xs_parts])
            keys = step_of[kept] * n_aps + best[kept]
            order = np.argsort(keys, kind="stable")
            clients = kept[order]
            keys = keys[order]
            observations = list(map(
                ClientObservation,
                [f"c{names_used + k + 1}" for k in clients.tolist()],
                rssi_dbm[clients].tolist()))
            starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()
            snapshots = []
            for lo, hi in zip(starts, starts[1:] + [len(observations)]):
                local_step, ap = divmod(int(keys[lo]), n_aps)
                snapshots.append(ApSnapshot(
                    ap=self.ap_positions[ap][0],
                    timestamp_s=times[local_step],
                    clients=tuple(observations[lo:hi])))
        return snapshots

    def generate_scalar(self, seed: SeedLike = None) -> UploadTrace:
        """The historical one-link-at-a-time generator, behaviourally
        frozen (PR-1 convention) as the golden reference and the
        benchmark baseline for :meth:`generate`."""
        rng = make_rng(seed)
        cfg = self.config
        snapshots: List[ApSnapshot] = []
        client_counter = 0
        for step in range(cfg.n_snapshots):
            t = step * cfg.snapshot_interval_s
            factor = occupancy_factor(t, cfg.night_fraction)
            n_active = int(rng.poisson(cfg.peak_clients * factor))
            if n_active == 0:
                continue
            xs = rng.uniform(0.0, cfg.width_m, size=n_active)
            ys = rng.uniform(0.0, cfg.height_m, size=n_active)
            per_ap: dict = {name: [] for name, _ in self.ap_positions}
            for k in range(n_active):
                client_counter += 1
                name = f"c{client_counter}"
                pos = Point(float(xs[k]), float(ys[k]))
                best_ap, best_rss = None, 0.0
                for ap_name, ap_pos in self.ap_positions:
                    d = max(pos.distance_to(ap_pos), 1.0)
                    rss = float(self.propagation.received_power(
                        cfg.tx_power_w, d, rng))
                    if best_ap is None or rss > best_rss:
                        best_ap, best_rss = ap_name, rss
                rssi_dbm = float(watts_to_dbm(best_rss))
                if rssi_dbm < cfg.sensitivity_dbm:
                    continue  # out of coverage: not associated
                per_ap[best_ap].append(ClientObservation(name, rssi_dbm))
            for ap_name, observations in per_ap.items():
                if observations:
                    snapshots.append(ApSnapshot(
                        ap=ap_name, timestamp_s=t,
                        clients=tuple(observations)))
        return UploadTrace(building=cfg.building,
                           snapshot_interval_s=cfg.snapshot_interval_s,
                           snapshots=tuple(snapshots))
