"""Online SIC-aware scheduling with stochastic packet arrivals.

The paper's scheduler is offline: it assumes a known backlog.  Real
APs see packets *arrive*; Section 3 motivates exactly this setting
("each transmitter has a finite number of packets ... it needs to get
a fair share of the channel to transmit its packets without inordinate
amount of delay").  This module closes that loop with a queueing
simulation:

* packets arrive per client as Poisson processes;
* a service policy picks what to send whenever the channel frees:

  - ``fifo`` — plain 802.11 behaviour: serve head-of-line packets one
    at a time in arrival order;
  - ``sic_pairing`` — run the blossom matching over the clients that
    currently have a head-of-line packet and serve the resulting slots
    (one packet per client per batch, re-planned when the batch ends);

* metrics: mean/percentile packet delay, served counts, utilisation.

The interesting question is *delay*, not just airtime: SIC pairing
drains the queue faster, so under load it wins on sojourn time too —
quantified by the online test suite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.scheduling.scheduler import Schedule, SicScheduler, UploadClient
from repro.util.rng import SeedLike, as_seed_sequence, make_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ArrivalClient:
    """A client with a Poisson packet-arrival process."""

    name: str
    rss_w: float
    arrival_rate_hz: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("client name must be non-empty")
        check_positive("rss_w", self.rss_w)
        check_positive("arrival_rate_hz", self.arrival_rate_hz)

    def as_upload_client(self) -> UploadClient:
        return UploadClient(self.name, self.rss_w)


@dataclass
class OnlineMetrics:
    """Delay and throughput statistics of one online run."""

    delays_s: List[float] = field(default_factory=list)
    served_packets: int = 0
    busy_time_s: float = 0.0
    horizon_s: float = 0.0
    leftover_packets: int = 0

    @property
    def mean_delay_s(self) -> float:
        if not self.delays_s:
            return 0.0
        return float(np.mean(self.delays_s))

    @property
    def p95_delay_s(self) -> float:
        if not self.delays_s:
            return 0.0
        return float(np.quantile(self.delays_s, 0.95))

    @property
    def utilisation(self) -> float:
        if self.horizon_s <= 0.0:
            return 0.0
        return min(1.0, self.busy_time_s / self.horizon_s)


def _arrival_times(clients: Sequence[ArrivalClient], horizon_s: float,
                   rng: np.random.Generator) -> List[Tuple[float, str]]:
    """Merged, time-sorted (arrival_time, client) events.

    Clients draw in order, one exponential gap at a time, each until
    its first arrival past the horizon (that crossing draw is consumed
    and discarded).
    """
    events: List[Tuple[float, str]] = []
    for client in clients:
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / client.arrival_rate_hz))
            if t > horizon_s:
                break
            events.append((t, client.name))
    events.sort()
    return events


def simulate_online(scheduler: SicScheduler,
                    clients: Sequence[ArrivalClient],
                    horizon_s: float,
                    policy: str = "sic_pairing",
                    seed: SeedLike = None) -> OnlineMetrics:
    """Run one online scheduling experiment over ``horizon_s`` seconds.

    Arrivals after the horizon are cut off; the run continues until the
    already-queued packets drain (so every generated packet gets a
    delay sample).  ``policy`` is ``"fifo"`` or ``"sic_pairing"``.

    Solo costs are memoised by RSS and batch schedules by the set of
    backlogged clients: in steady state that set repeats, so most
    batches skip the matching entirely.
    """
    if policy not in ("fifo", "sic_pairing"):
        raise ValueError(f"unknown policy {policy!r}")
    check_positive("horizon_s", horizon_s)
    names = [c.name for c in clients]
    if len(set(names)) != len(names):
        raise ValueError(f"client names must be unique, got {names}")

    rng = make_rng(seed)
    arrivals = _arrival_times(clients, horizon_s, rng)
    by_name = {c.name: c for c in clients}

    metrics = OnlineMetrics(horizon_s=horizon_s)
    # Per-client FIFO queues of arrival timestamps (deques: every
    # service pops from the head, which is O(1) there and O(k) on a
    # plain list), plus a maintained total so the drain loop does not
    # re-scan every queue per iteration.
    queues: Dict[str, Deque[float]] = {c.name: deque() for c in clients}
    pending = arrivals[::-1]  # pop from the end = earliest first
    queued = 0
    # Memos: solo cost by RSS, batch schedule by the set of backlogged
    # names.  A set always yields the same batch order (the client
    # list's), so its memoised schedule is what a fresh call returns.
    solo_costs: Dict[float, float] = {}
    schedules: Dict[FrozenSet[str], Schedule] = {}

    now = 0.0

    def admit_until(t: float) -> int:
        admitted = 0
        while pending and pending[-1][0] <= t:
            arrival_time, name = pending.pop()
            queues[name].append(arrival_time)
            admitted += 1
        return admitted

    while pending or queued > 0:
        queued += admit_until(now)
        if queued == 0:
            # Idle until the next arrival.
            now = pending[-1][0]
            continue

        if policy == "fifo":
            # Serve the globally earliest head-of-line packet, alone.
            name = min((n for n, q in queues.items() if q),
                       key=lambda n: queues[n][0])
            arrival_time = queues[name].popleft()
            queued -= 1
            client = by_name[name]
            service = solo_costs.get(client.rss_w)
            if service is None:
                service = scheduler.solo_cost(client.as_upload_client())
                solo_costs[client.rss_w] = service
            now += service
            metrics.busy_time_s += service
            metrics.delays_s.append(now - arrival_time)
            metrics.served_packets += 1
            continue

        # sic_pairing: schedule one head-of-line packet per backlogged
        # client as an optimal batch, then serve its slots in order.
        batch = [name for name, q in queues.items() if q]
        key = frozenset(batch)
        schedule = schedules.get(key)
        if schedule is None:
            schedule = scheduler.schedule(
                [by_name[name].as_upload_client() for name in batch])
            schedules[key] = schedule
        for slot in schedule.slots:
            now += slot.duration_s
            metrics.busy_time_s += slot.duration_s
            for name in slot.clients:
                arrival_time = queues[name].popleft()
                queued -= 1
                metrics.delays_s.append(now - arrival_time)
                metrics.served_packets += 1
            # New arrivals may join the next batch, not this one.
        queued += admit_until(now)

    metrics.leftover_packets = queued
    return metrics


def compare_policies_online(scheduler: SicScheduler,
                            clients: Sequence[ArrivalClient],
                            horizon_s: float,
                            seed: SeedLike = None
                            ) -> Dict[str, OnlineMetrics]:
    """Run both policies on the *same* arrival sample paths.

    ``seed`` is resolved once into a ``SeedSequence``; each policy then
    gets a fresh generator from that same sequence, so both replay an
    identical arrival stream and a repeated call with the same seed
    reproduces the whole comparison.
    """
    seed_seq = as_seed_sequence(seed)
    out: Dict[str, OnlineMetrics] = {}
    for policy in ("fifo", "sic_pairing"):
        out[policy] = simulate_online(scheduler, clients, horizon_s,
                                      policy=policy, seed=make_rng(seed_seq))
    return out
