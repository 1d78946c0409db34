"""Baseline-policy tests."""

from dataclasses import dataclass, field
from typing import Dict

import numpy as np
import pytest

from repro.experiments.fig12 import random_clients
from repro.scheduling import scheduler as scheduler_module
from repro.scheduling.baselines import (
    _pairings,
    brute_force_schedule,
    greedy_schedule,
    random_schedule,
    serial_schedule,
)
from repro.scheduling.scheduler import SicScheduler, UploadClient
from repro.techniques.pairing import TechniqueSet

ALL_TECHNIQUE_SETS = [TechniqueSet.NONE, TechniqueSet.POWER_CONTROL,
                      TechniqueSet.MULTIRATE, TechniqueSet.ALL]


def make_clients(rss_list):
    return [UploadClient(f"C{i + 1}", rss) for i, rss in enumerate(rss_list)]


@pytest.fixture
def scheduler(channel):
    return SicScheduler(channel=channel, techniques=TechniqueSet.ALL)


@pytest.fixture
def clients(channel, rng):
    return make_clients(10 ** rng.uniform(-12, -8, size=6))


class TestPairingsEnumeration:
    def test_two_elements(self):
        options = list(_pairings([0, 1]))
        assert ([], [0, 1]) in [(p, s) for p, s in options]
        assert ([(0, 1)], []) in [(p, s) for p, s in options]
        assert len(options) == 2

    def test_counts_follow_involution_numbers(self):
        # Number of partial matchings on n labelled vertices:
        # 1, 1, 2, 4, 10, 26, 76 (telephone numbers).
        for n, expected in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 10),
                            (5, 26), (6, 76)]:
            assert len(list(_pairings(list(range(n))))) == expected

    def test_each_partition_covers_all(self):
        for pairs, solo in _pairings([0, 1, 2, 3]):
            flat = sorted([v for p in pairs for v in p] + solo)
            assert flat == [0, 1, 2, 3]


class TestSerial:
    def test_all_slots_solo(self, scheduler, clients):
        schedule = serial_schedule(scheduler, clients)
        assert all(not s.is_pair for s in schedule.slots)
        assert schedule.gain == pytest.approx(1.0)


class TestGreedy:
    def test_never_worse_than_serial(self, scheduler, clients):
        greedy = greedy_schedule(scheduler, clients)
        serial = serial_schedule(scheduler, clients)
        assert greedy.total_time_s <= serial.total_time_s + 1e-12

    def test_never_better_than_blossom(self, scheduler, clients):
        greedy = greedy_schedule(scheduler, clients)
        optimal = scheduler.schedule(clients)
        assert optimal.total_time_s <= greedy.total_time_s + 1e-12

    def test_stops_pairing_when_no_saving(self, channel):
        # Two equal very strong clients: SIC pairing without techniques
        # saves nothing, so greedy leaves both solo.
        scheduler = SicScheduler(channel=channel,
                                 techniques=TechniqueSet.NONE)
        n0 = channel.noise_w
        clients = make_clients([1e6 * n0, 1e6 * n0])
        schedule = greedy_schedule(scheduler, clients)
        assert all(not s.is_pair for s in schedule.slots)


class TestRandom:
    def test_deterministic_with_seed(self, scheduler, clients):
        a = random_schedule(scheduler, clients, rng=5)
        b = random_schedule(scheduler, clients, rng=5)
        assert a.total_time_s == b.total_time_s

    def test_covers_everyone(self, scheduler, clients):
        schedule = random_schedule(scheduler, clients, rng=1)
        assert sorted(schedule.client_names) == sorted(
            c.name for c in clients)

    def test_odd_count(self, scheduler, channel, rng):
        clients = make_clients(10 ** rng.uniform(-12, -8, size=5))
        schedule = random_schedule(scheduler, clients, rng=2)
        solos = [s for s in schedule.slots if not s.is_pair]
        assert len(solos) == 1


class TestBruteForce:
    def test_refuses_large_instances(self, scheduler):
        clients = make_clients([1e-9] * 13)
        with pytest.raises(ValueError, match="brute force"):
            brute_force_schedule(scheduler, clients)

    def test_beats_or_ties_everything(self, scheduler, clients):
        brute = brute_force_schedule(scheduler, clients)
        for other in (serial_schedule(scheduler, clients),
                      greedy_schedule(scheduler, clients),
                      random_schedule(scheduler, clients, rng=0)):
            assert brute.total_time_s <= other.total_time_s + 1e-12


@dataclass(frozen=True)
class MemoisedScheduler(SicScheduler):
    """``SicScheduler`` that runs each scalar cost once per argument.

    Every float is the plain scheduler's; memoising only spares the
    reference helpers below ~30 s of repeated scalar calls on the grid.
    """

    memo: Dict[object, object] = field(default_factory=dict, compare=False,
                                        repr=False)

    def pair_cost(self, a, b):
        if (a, b) not in self.memo:
            self.memo[(a, b)] = super().pair_cost(a, b)
        return self.memo[(a, b)]

    def solo_cost(self, client):
        if client not in self.memo:
            self.memo[client] = super().solo_cost(client)
        return self.memo[client]


def reference_brute_force(scheduler, clients):
    """Brute force costed candidate by candidate: each pairing assembled
    by ``pairing_to_schedule``, the first strict minimum kept."""
    best = None
    for pairs, solo in _pairings(list(range(len(clients)))):
        candidate = scheduler.pairing_to_schedule(clients, pairs, solo)
        if best is None or candidate.total_time_s < best.total_time_s:
            best = candidate
    return best


def reference_greedy(scheduler, clients):
    """Greedy with savings from scalar ``pair_cost``/``solo_cost``."""
    remaining = list(range(len(clients)))
    pairs = []
    while len(remaining) >= 2:
        best = None
        for a_pos in range(len(remaining)):
            for b_pos in range(a_pos + 1, len(remaining)):
                i, j = remaining[a_pos], remaining[b_pos]
                cost = scheduler.pair_cost(clients[i], clients[j]).airtime_s
                serial = (scheduler.solo_cost(clients[i])
                          + scheduler.solo_cost(clients[j]))
                if best is None or serial - cost > best[0]:
                    best = (serial - cost, i, j)
        saving, i, j = best
        if saving <= 0.0:
            break
        pairs.append((i, j))
        remaining.remove(i)
        remaining.remove(j)
    return scheduler.pairing_to_schedule(clients, pairs, solo=remaining)


def reference_random(scheduler, clients, seed):
    order = list(range(len(clients)))
    np.random.default_rng(seed).shuffle(order)
    pairs = [(order[k], order[k + 1]) for k in range(0, len(order) - 1, 2)]
    solo = [order[-1]] if len(order) % 2 == 1 else []
    return scheduler.pairing_to_schedule(clients, pairs, solo)


class TestTableCostedGolden:
    """Baselines scored from the shared cost table return exactly the
    schedules of candidate-by-candidate scalar costing: same slots,
    modes, durations and serial baseline.  Under ``sic_enabled=False``
    every pairing ties up to rounding, so this also pins the built-in
    ``sum()`` brute force totals with (compensated on Python 3.12+)."""

    @pytest.mark.parametrize("techniques", ALL_TECHNIQUE_SETS,
                             ids=lambda t: str(t))
    @pytest.mark.parametrize("sic_enabled", [True, False])
    def test_baselines_bit_identical(self, channel, techniques, sic_enabled):
        plain = SicScheduler(channel=channel, techniques=techniques,
                             sic_enabled=sic_enabled)
        scalar = MemoisedScheduler(channel=channel, techniques=techniques,
                                   sic_enabled=sic_enabled)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for n in range(9):
                clients = random_clients(n, rng, noise_w=channel.noise_w)
                where = f"seed={seed} n={n}"
                assert brute_force_schedule(plain, clients) == \
                    reference_brute_force(scalar, clients), where
                assert greedy_schedule(plain, clients) == \
                    reference_greedy(scalar, clients), where
                assert serial_schedule(plain, clients) == \
                    scalar.pairing_to_schedule(clients, (), range(n)), where
                assert random_schedule(plain, clients, rng=seed) == \
                    reference_random(scalar, clients, seed), where

    @pytest.mark.parametrize("n", [2, 3])
    def test_brute_force_tie_keeps_first_minimum(self, channel, n):
        # Equal clients without techniques: pairing two costs exactly
        # their two solo slots, so every candidate ties the all-solo one,
        # which _pairings yields first.
        scheduler = SicScheduler(channel=channel,
                                 techniques=TechniqueSet.NONE)
        clients = make_clients([1e6 * channel.noise_w] * n)
        all_solo = scheduler.pairing_to_schedule(clients, (), range(n))
        paired = scheduler.pairing_to_schedule(clients, [(0, 1)],
                                               range(2, n))
        assert paired.total_time_s == all_solo.total_time_s
        assert brute_force_schedule(scheduler, clients) == all_solo


class TestScalarCostBudget:
    """Candidates are scored from the cost table: scalar ``pair_airtime``
    runs only to re-cost the returned schedule's pairs for their mode."""

    @pytest.mark.parametrize("policy", [brute_force_schedule,
                                        greedy_schedule])
    def test_scalar_pair_calls_only_for_returned_pairs(self, channel,
                                                       monkeypatch, policy):
        scheduler = SicScheduler(channel=channel,
                                 techniques=TechniqueSet.ALL)
        clients = random_clients(8, np.random.default_rng(1),
                                 noise_w=channel.noise_w)
        original = scheduler_module.pair_airtime
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "pair_airtime", counting)
        schedule = policy(scheduler, clients)
        n_pairs = sum(slot.is_pair for slot in schedule.slots)
        assert len(calls) == n_pairs <= 4


class TestEmptyBacklog:
    """An empty backlog costs float ``0.0`` on every path."""

    def test_every_policy_returns_float_zero(self, scheduler):
        for schedule in (scheduler.schedule([]),
                         scheduler.schedule_scalar([]),
                         serial_schedule(scheduler, []),
                         greedy_schedule(scheduler, []),
                         random_schedule(scheduler, [], rng=0),
                         brute_force_schedule(scheduler, [])):
            assert schedule.slots == ()
            assert type(schedule.serial_time_s) is float
            assert type(schedule.total_time_s) is float
        assert type(scheduler.serial_time([])) is float

    def test_precompute_does_not_change_the_payload(self, scheduler):
        pre = scheduler.precompute_costs([])
        with_pre = scheduler.pairing_to_schedule([], (), (), precomputed=pre)
        without = scheduler.pairing_to_schedule([], (), ())
        # repr, not ==: 0 == 0.0, but the JSON payloads differ.
        assert repr(with_pre.to_dict()) == repr(without.to_dict())
