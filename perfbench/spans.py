"""In-memory span tracer that wraps the program's layer functions.

The program itself carries no tracing: :func:`install` replaces each
target function with a timing wrapper, at its definition and at every
``from ... import`` binding inside ``repro``, and :meth:`Patches.undo`
puts the originals back.  A target that no longer exists under its
recorded name raises, so a rename in ``src/`` fails the traced run
instead of silently reading zero.

A span records its duration, its self time (duration minus the time
covered by child spans on the same thread) and, for chosen targets, a
per-call element count or distinct-argument key.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

import numpy as np


def _arg(args: tuple, kwargs: dict, index: int, name: str,
         default: object = None) -> object:
    """Positional-or-keyword argument ``name`` of a wrapped call."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(value: object) -> int:
    return int(np.size(value)) if value is not None else 0


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric prefix and where it is defined.

    ``attr`` is ``"function"`` or ``"Class.method"``.  For methods the
    positional indices of the extractors count ``self``.
    """

    name: str
    module: str
    attr: str
    elements: Optional[Callable[[tuple, dict], int]] = None
    key: Optional[Callable[[tuple, dict], Hashable]] = None
    counts_result: Optional[Callable[[object], int]] = None


def _shannon_elements(args: tuple, kwargs: dict) -> int:
    return max(_size(_arg(args, kwargs, 1, "signal_w")),
               _size(_arg(args, kwargs, 2, "interference_w", 0.0)))


def _pair_key(args: tuple, kwargs: dict) -> Hashable:
    return (float(_arg(args, kwargs, 1, "packet_bits")),
            float(_arg(args, kwargs, 2, "rss_a_w")),
            float(_arg(args, kwargs, 3, "rss_b_w")),
            _arg(args, kwargs, 4, "techniques"),
            _arg(args, kwargs, 5, "sic_enabled", True))


def _put_bytes(args: tuple, kwargs: dict) -> int:
    arrays = _arg(args, kwargs, 2, "arrays") or {}
    return sum(int(getattr(value, "nbytes", 0)) for value in arrays.values())


TARGETS: Tuple[Target, ...] = (
    Target("phy.shannon_rate", "repro.phy.shannon", "shannon_rate",
           elements=_shannon_elements),
    Target("phy.airtime", "repro.phy.shannon", "airtime"),
    Target("phy.sinr", "repro.phy.shannon", "sinr"),
    Target("techniques.pair_airtime", "repro.techniques.pairing",
           "pair_airtime", key=_pair_key),
    Target("techniques.solo_airtime", "repro.techniques.pairing",
           "solo_airtime"),
    Target("techniques.pair_airtime_batch", "repro.techniques.pairing",
           "pair_airtime_batch",
           elements=lambda a, k: _size(_arg(a, k, 2, "rss_a_w"))),
    Target("techniques.solo_airtime_batch", "repro.techniques.pairing",
           "solo_airtime_batch"),
    Target("scheduling.brute_force_schedule", "repro.scheduling.baselines",
           "brute_force_schedule"),
    Target("scheduling.greedy_schedule", "repro.scheduling.baselines",
           "greedy_schedule"),
    Target("scheduling.pairing_to_schedule", "repro.scheduling.scheduler",
           "SicScheduler.pairing_to_schedule"),
    Target("scheduling.build_cost_graph", "repro.scheduling.scheduler",
           "SicScheduler.build_cost_graph"),
    Target("scheduling.schedule", "repro.scheduling.scheduler",
           "SicScheduler.schedule"),
    Target("scheduling.schedule_gain", "repro.scheduling.scheduler",
           "SicScheduler.schedule_gain"),
    Target("scheduling.min_weight_perfect_matching",
           "repro.scheduling.matching", "min_weight_perfect_matching"),
    Target("scheduling.max_weight_matching", "repro.scheduling.matching",
           "max_weight_matching"),
    Target("sic.evaluate_pair_scenario", "repro.sic.scenarios",
           "evaluate_pair_scenario"),
    Target("sic.evaluate_pair_scenario_batch", "repro.sic.scenarios",
           "evaluate_pair_scenario_batch",
           elements=lambda a, k: _size(_arg(a, k, 2, "s11"))),
    Target("sic.evaluate_pair_scenarios_batch", "repro.sic.scenarios",
           "evaluate_pair_scenarios_batch",
           elements=lambda a, k: _size(_arg(a, k, 2, "s11"))),
    Target("experiments.montecarlo.two_receiver_scenarios",
           "repro.experiments.montecarlo", "two_receiver_scenarios"),
    Target("experiments.montecarlo.one_receiver_technique_gains",
           "repro.experiments.montecarlo", "one_receiver_technique_gains"),
    Target("experiments.montecarlo.two_receiver_technique_gains",
           "repro.experiments.montecarlo", "two_receiver_technique_gains"),
    Target("architectures.pair_scenario_chunk", "repro.architectures.pairsweep",
           "pair_scenario_chunk",
           elements=lambda a, k: int(_arg(a, k, 2, "n"))),
    Target("architectures.evaluate_ewlan_cross_pairs",
           "repro.architectures.ewlan", "evaluate_ewlan_cross_pairs"),
    Target("architectures.evaluate_residential_rows",
           "repro.architectures.residential", "evaluate_residential_rows"),
    Target("architectures.sweep_chain_geometries", "repro.architectures.mesh",
           "sweep_chain_geometries"),
    Target("traces.UploadTraceGenerator.generate", "repro.traces.synthetic",
           "UploadTraceGenerator.generate"),
    Target("traces.DownlinkTraceGenerator.generate", "repro.traces.downlink",
           "DownlinkTraceGenerator.generate"),
    Target("traces.busy_snapshots", "repro.traces.records",
           "UploadTrace.busy_snapshots"),
    Target("experiments.runner.run_indexed", "repro.experiments.runner",
           "run_indexed"),
    Target("experiments.runner.run_chunked", "repro.experiments.runner",
           "run_chunked"),
    # Private runner hooks: one chunk evaluation, one failed attempt.
    Target("experiments.runner.chunk", "repro.experiments.runner",
           "_guarded_chunk"),
    Target("experiments.runner.retry", "repro.experiments.runner",
           "_Supervisor._record_chunk_failure"),
    Target("util.cache.get", "repro.util.cache", "ResultCache.get",
           counts_result=lambda result: int(result is not None)),
    Target("util.cache.put", "repro.util.cache", "ResultCache.put",
           elements=_put_bytes),
    Target("util.checkpoint.put_chunk", "repro.util.checkpoint",
           "CheckpointStore.put_chunk"),
    Target("util.checkpoint.get_chunk", "repro.util.checkpoint",
           "CheckpointStore.get_chunk"),
)


@dataclass
class SpanStats:
    """Totals of every span recorded under one name."""

    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    elements: int = 0
    results: int = 0
    keys: Set[Hashable] = field(default_factory=set)


class Tracer:
    """Collects span totals; thread-aware so suite threads nest correctly."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        #: ``(parent span, child span) -> calls``.
        self.child_calls: Counter = Counter()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [target.name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
            with tracer._lock:
                stats = tracer.stats[target.name]
                stats.calls += 1
                stats.wall_s += elapsed
                stats.self_s += elapsed - frame[1]
                if parent is not None:
                    tracer.child_calls[(parent[0], target.name)] += 1
                if target.elements is not None:
                    stats.elements += target.elements(args, kwargs)
                if target.key is not None:
                    stats.keys.add(target.key(args, kwargs))
                if target.counts_result is not None:
                    stats.results += target.counts_result(result)
            return result

        traced.__name__ = getattr(fn, "__name__", target.name)
        traced.__qualname__ = getattr(fn, "__qualname__", target.name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def take(self) -> "Spans":
        """The spans recorded so far; starts a fresh record."""
        with self._lock:
            spans = Spans(self.stats, self.child_calls)
            self.stats = defaultdict(SpanStats)
            self.child_calls = Counter()
        return spans


@dataclass
class Spans:
    """Span totals by name plus ``(parent, child) -> calls``."""

    stats: Dict[str, SpanStats]
    child_calls: Counter

    @classmethod
    def merged(cls, parts: List["Spans"]) -> "Spans":
        stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        child: Counter = Counter()
        for part in parts:
            child.update(part.child_calls)
            for name, item in part.stats.items():
                total = stats[name]
                total.calls += item.calls
                total.wall_s += item.wall_s
                total.self_s += item.self_s
                total.elements += item.elements
                total.results += item.results
                total.keys |= item.keys
        return cls(stats, child)


class Patches:
    """Every attribute replaced by :func:`install`, for undoing."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, targets: Tuple[Target, ...] = TARGETS) -> Patches:
    """Wrap every target; raises ``LookupError`` if one has moved."""
    patches = Patches()
    try:
        for target in targets:
            _install_one(tracer, target, patches)
    except BaseException:
        patches.undo()
        raise
    return patches


def _install_one(tracer: Tracer, target: Target, patches: Patches) -> None:
    owner: object = importlib.import_module(target.module)
    *classes, attr = target.attr.split(".")
    for name in classes:
        owner = vars(owner).get(name)
        if owner is None:
            raise LookupError(f"{target.module}.{name} not found "
                              f"(span {target.name})")
    original = vars(owner).get(attr)
    defined_in = getattr(original, "__module__", None)
    if not callable(original) or defined_in != target.module:
        raise LookupError(f"{target.module}.{target.attr} is not defined "
                          f"there (span {target.name})")
    wrapped = tracer.wrap(target, original)
    patches.set(owner, attr, wrapped)
    if classes:
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for binding, value in list(vars(module).items()):
            if value is original:
                patches.set(module, binding, wrapped)
