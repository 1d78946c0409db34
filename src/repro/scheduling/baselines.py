"""Scheduling baselines: serial, greedy, random, brute force.

These are the comparators the evaluation uses to show what the blossom
matching buys:

* :func:`serial_schedule` — the plain 802.11 behaviour: every client
  transmits alone (the paper's ``Z_{-SIC}`` baseline);
* :func:`greedy_schedule` — repeatedly pair the two clients whose joint
  transmission saves the most time (a natural heuristic an AP vendor
  might ship);
* :func:`random_schedule` — pair clients uniformly at random (isolates
  how much of the gain comes from pairing *choice* vs pairing at all);
* :func:`brute_force_schedule` — exact optimum by exhaustive pairing
  enumeration; exponential, used as the oracle in tests (n <= 12).

Greedy and brute force score their candidates from the backlog's cost
table, built once: :meth:`SicScheduler.precompute_costs` plus
:meth:`SicScheduler.build_cost_graph`, the same ``t_ij`` and solo
arrays blossom matches on.  Those arrays are pinned bit-identical to the
scalar ``pair_cost``/``solo_cost`` path, so every candidate is scored
with exactly the floats it would get if costed one by one.  Every policy
assembles its one returned schedule through
:meth:`SicScheduler.pairing_to_schedule` with the shared precompute,
which re-costs the chosen pairs for their :class:`PairMode`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from repro.scheduling.scheduler import (
    BacklogCosts,
    Schedule,
    SicScheduler,
    UploadClient,
)
from repro.util.rng import SeedLike, make_rng


def _cost_table(scheduler: SicScheduler, clients: Sequence[UploadClient],
                ) -> Tuple[BacklogCosts, Dict[Tuple[int, int], float],
                           List[float]]:
    """The precompute, pair costs keyed ``(i, j)`` with ``i < j``, and
    solo airtimes in backlog order."""
    pre = scheduler.precompute_costs(clients)
    costs, _ = scheduler.build_cost_graph(clients, pre)
    return pre, costs, pre.solo_airtime_s.tolist()


def serial_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient]) -> Schedule:
    """Every client transmits alone at its clean rate."""
    return scheduler.pairing_to_schedule(
        clients, pairs=(), solo=list(range(len(clients))),
        precomputed=scheduler.precompute_costs(clients))


def greedy_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient]) -> Schedule:
    """Repeatedly take the pair with the largest saving over serial.

    Stops pairing when no remaining pair saves time; leftovers go solo.
    Ties go to the first pair in index order (``max`` keeps the first).
    """
    pre, costs, solos = _cost_table(scheduler, clients)

    def saving(pair: Tuple[int, int]) -> float:
        i, j = pair
        return (solos[i] + solos[j]) - costs[pair]

    remaining = list(range(len(clients)))
    pairs: List[Tuple[int, int]] = []
    while len(remaining) >= 2:
        best = max(combinations(remaining, 2), key=saving)
        if saving(best) <= 0.0:
            break
        pairs.append(best)
        remaining.remove(best[0])
        remaining.remove(best[1])
    return scheduler.pairing_to_schedule(clients, pairs, solo=remaining,
                                         precomputed=pre)


def random_schedule(scheduler: SicScheduler,
                    clients: Sequence[UploadClient],
                    rng: SeedLike = None) -> Schedule:
    """Pair clients uniformly at random; odd one out goes solo."""
    generator = make_rng(rng)
    order = list(range(len(clients)))
    generator.shuffle(order)
    pairs = [(order[k], order[k + 1]) for k in range(0, len(order) - 1, 2)]
    solo = [order[-1]] if len(order) % 2 == 1 else []
    return scheduler.pairing_to_schedule(
        clients, pairs, solo, precomputed=scheduler.precompute_costs(clients))


def _pairings(indices: List[int]):
    """Yield every way to split ``indices`` into pairs and singles.

    Each element pairs with a later element or stays single; intended
    for the brute-force oracle only (super-exponential growth).
    """
    if not indices:
        yield [], []
        return
    first, rest = indices[0], indices[1:]
    # first stays solo
    for pairs, solo in _pairings(rest):
        yield pairs, [first] + solo
    # first pairs with someone
    for k in range(len(rest)):
        partner = rest[k]
        remaining = rest[:k] + rest[k + 1:]
        for pairs, solo in _pairings(remaining):
            yield [(first, partner)] + pairs, solo


def brute_force_schedule(scheduler: SicScheduler,
                         clients: Sequence[UploadClient],
                         max_clients: int = 12) -> Schedule:
    """Exact optimum by exhaustive enumeration (test oracle).

    Searches every partition into pairs and singles, so it also proves
    that restricting the matching to a *perfect* one (with the dummy
    node) loses nothing.  It shares blossom's cost table but none of
    its matching logic, which is what makes it an oracle.

    Each candidate's total is the built-in ``sum()`` of its slot
    durations in slot order (pairs in enumeration order, then solos):
    the same floats, order and reduction as
    :attr:`Schedule.total_time_s` of the assembled candidate.  On
    Python 3.12+ ``sum()`` is compensated, so any other reduction could
    pick a different winner among near-ties.  The first minimum wins
    (``min`` keeps the first), and only the winner is assembled.
    """
    if len(clients) > max_clients:
        raise ValueError(
            f"brute force limited to {max_clients} clients, got {len(clients)}"
        )
    pre, costs, solos = _cost_table(scheduler, clients)

    def total(candidate: Tuple[List[Tuple[int, int]], List[int]]) -> float:
        pairs, solo = candidate
        return sum([costs[pair] for pair in pairs]
                   + [solos[i] for i in solo], 0.0)

    pairs, solo = min(_pairings(list(range(len(clients)))), key=total)
    return scheduler.pairing_to_schedule(clients, pairs, solo,
                                         precomputed=pre)
