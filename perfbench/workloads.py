"""The four benchmark workloads, their inputs and their output checks.

Every workload derives its inputs from the workload seed only.  A
*pass* is one unit of closed-loop work.  :meth:`Workload.measured` runs
it as measured, on the shared 2-worker pool where the workload uses one.
:meth:`Workload.inline_steps` runs the same computation in one process:
the plain single-process baseline and the pass the tracer spans.
:meth:`Workload.reference` computes, in one process, what every pass is
checked against.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import math
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.experiments.__main__ import _kwargs_for
from repro.experiments.fig12 import compare_policies, runtime_scaling
from repro.experiments.registry import ordered_figures, run_experiment
from repro.experiments.runner import ExecutionPolicy
from repro.experiments.suite import SuiteResult, run_suite
from repro.util.cache import ResultCache

Step = Tuple[str, Callable[[], object]]


def digest(value: object) -> str:
    """SHA-256 over a figure result's exact values (bit-identity check)."""
    sha = hashlib.sha256()
    _feed(sha, value)
    return sha.hexdigest()


def _feed(sha: "hashlib._Hash", value: object) -> None:
    if isinstance(value, np.ndarray):
        sha.update(f"nd{value.dtype.str}{value.shape}".encode())
        sha.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (np.generic, float, int, bool, str, type(None))):
        sha.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, enum.Enum):
        sha.update(f"enum:{value!r};".encode())
    elif isinstance(value, Mapping):
        sha.update(b"{")
        for key in sorted(value, key=repr):
            _feed(sha, key)
            _feed(sha, value[key])
        sha.update(b"}")
    elif isinstance(value, (list, tuple)):
        sha.update(b"[")
        for item in value:
            _feed(sha, item)
        sha.update(b"]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        _feed(sha, {f.name: getattr(value, f.name)
                    for f in dataclasses.fields(value)})
    elif hasattr(value, "to_dict"):
        _feed(sha, value.to_dict())
    else:
        sha.update(f"repr:{value!r};".encode())


def stable_result(figure: str, result: object) -> object:
    """A figure result minus wall-clock entries (fig12's ``runtime``)."""
    if figure == "fig12":
        return {key: item for key, item in result.items() if key != "runtime"}
    return result


def stable_lines(figure: str, lines: List[str]) -> List[str]:
    """Printed figure lines minus fig12's ``runtime``/``phases`` lines."""
    if figure != "fig12":
        return list(lines)
    return [line for line in lines
            if not line.startswith("runtime") and " phases: " not in line]


@dataclasses.dataclass
class PassResult:
    """What one measured pass returns to the harness."""

    outputs: object
    suites: List[SuiteResult] = dataclasses.field(default_factory=list)


class Workload:
    """Base class: a named pass generator with an output check."""

    name = ""
    #: Whether measured passes run on the shared pool.
    uses_pool = True

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def inline_steps(self, k: int) -> List[Step]:
        """The pass as single-process steps (label, thunk)."""
        raise NotImplementedError

    def measured(self, pool, k: int) -> PassResult:
        """The measured pass."""
        raise NotImplementedError

    def reference(self) -> Tuple[object, Dict[str, float]]:
        """Reference outputs and the inline per-figure wall times."""
        raise NotImplementedError

    def check(self, outputs: object, reference: object) -> List[str]:
        """Failed output checks of one pass (empty when correct)."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove what a pass left in the scratch directory."""
        for child in self.scratch.iterdir():
            shutil.rmtree(child, ignore_errors=True)


# ---------------------------------------------------------------------------
# scheduler: fig12's policy comparison, in-process, no pool
# ---------------------------------------------------------------------------

SCHEDULER_SIZES = (3, 5, 8, 12, 20)
SCHEDULER_TRIALS = 1
SCALING_SIZES = (4, 8, 16, 32, 64)


class Scheduler(Workload):
    """fig12 ``compare_policies`` on fresh seeded backlogs per pass."""

    name = "scheduler"
    uses_pool = False

    def _pass(self, k: int) -> Dict[int, Dict[str, float]]:
        seed = np.random.SeedSequence([self.seed, k])
        comparisons = {n: compare_policies(n, n_trials=SCHEDULER_TRIALS,
                                           seed=seed).mean_times
                       for n in SCHEDULER_SIZES}
        runtime_scaling(SCALING_SIZES, seed=seed)
        return comparisons

    def inline_steps(self, k: int) -> List[Step]:
        return [("pass", lambda: self._pass(k))]

    def measured(self, pool, k: int) -> PassResult:
        return PassResult(self._pass(k))

    def reference(self) -> Tuple[object, Dict[str, float]]:
        return None, {}

    def check(self, outputs: object, reference: object) -> List[str]:
        failures = []
        for n, times in outputs.items():
            blossom = times["blossom"]
            brute = times.get("brute_force")
            if n <= 8 and (brute is None
                           or not math.isclose(blossom, brute,
                                               rel_tol=1e-9)):
                failures.append(f"n={n}: blossom {blossom!r} "
                                f"!= brute force {brute!r}")
            for policy, value in times.items():
                if blossom > value * (1.0 + 1e-9):
                    failures.append(f"n={n}: blossom {blossom!r} worse "
                                    f"than {policy} {value!r}")
        return failures


# ---------------------------------------------------------------------------
# figure workloads: sweep, cache-rerun, suite-quick
# ---------------------------------------------------------------------------

def _run_inline(kwargs: Mapping[str, Mapping[str, object]],
                walls: Optional[Dict[str, float]] = None) -> Dict[str, object]:
    outputs = {}
    for figure, figure_kwargs in kwargs.items():
        start = time.perf_counter()
        outputs[figure] = run_experiment(figure, **figure_kwargs)
        if walls is not None:
            walls[figure] = time.perf_counter() - start
    return outputs


def _digests(runs: Mapping[str, object]) -> Dict[str, str]:
    return {figure: digest(stable_result(figure, run.result))
            for figure, run in runs.items()}


def _compare(label: str, runs: Mapping[str, object],
             want: Mapping[str, str]) -> List[str]:
    got = _digests(runs)
    return [f"{label} {figure}: result differs from the reference"
            for figure in want if got.get(figure) != want[figure]]


class Sweep(Workload):
    """The batched figures through ``run_suite`` on the 2-worker pool."""

    name = "sweep"

    def figure_kwargs(self) -> Dict[str, Dict[str, object]]:
        return {
            "fig6": {"n_samples": 120_000, "chunk_size": 30_000,
                     "seed": self.seed},
            "fig7": {"n_ewlan_grids": 400, "n_residential_rows": 1_200,
                     "seed": self.seed},
            "fig11": {"n_samples": 120_000, "chunk_size": 30_000,
                      "seed": self.seed},
            "fig13": {"max_snapshots": 200, "seed": self.seed},
            "fig14": {"n_scenarios": 1_000, "seed": self.seed},
        }

    def inline_steps(self, k: int) -> List[Step]:
        return [("pass", lambda: _run_inline(self.figure_kwargs()))]

    def measured(self, pool, k: int) -> PassResult:
        kwargs = self.figure_kwargs()
        suite = run_suite(list(kwargs), kwargs, pool=pool)
        return PassResult(suite.runs(), [suite])

    def reference(self) -> Tuple[object, Dict[str, float]]:
        walls: Dict[str, float] = {}
        return _digests(_run_inline(self.figure_kwargs(), walls)), walls

    def check(self, outputs: object, reference: object) -> List[str]:
        return _compare("pass", outputs, reference)


class CacheRerun(Sweep):
    """Sweep's figures cold into a fresh cache and checkpoint directory,
    then warm from the same directories."""

    name = "cache-rerun"

    def figure_kwargs(self) -> Dict[str, Dict[str, object]]:
        return {
            "fig6": {"n_samples": 60_000, "chunk_size": 30_000,
                     "seed": self.seed},
            "fig7": {"n_ewlan_grids": 100, "n_residential_rows": 300,
                     "seed": self.seed},
            "fig11": {"n_samples": 60_000, "chunk_size": 30_000,
                      "seed": self.seed},
            "fig13": {"max_snapshots": 100, "seed": self.seed},
            "fig14": {"n_scenarios": 500, "seed": self.seed},
        }

    def _cached(self, k: int) -> Tuple[Dict[str, Dict[str, object]],
                                       ExecutionPolicy]:
        root = self.scratch / f"pass-{k}"
        cache = ResultCache(root / "cache")
        kwargs = {figure: dict(figure_kwargs, cache=cache)
                  for figure, figure_kwargs in self.figure_kwargs().items()}
        return kwargs, ExecutionPolicy(checkpoint_dir=root / "checkpoints")

    def inline_steps(self, k: int) -> List[Step]:
        kwargs, policy = self._cached(k)
        inline = {figure: dict(figure_kwargs, policy=policy)
                  for figure, figure_kwargs in kwargs.items()}
        return [("cold", lambda: _run_inline(inline)),
                ("warm", lambda: _run_inline(inline))]

    def measured(self, pool, k: int) -> PassResult:
        kwargs, policy = self._cached(k)
        cold = run_suite(list(kwargs), kwargs, policy=policy, pool=pool)
        warm = run_suite(list(kwargs), kwargs, policy=policy, pool=pool)
        return PassResult({"cold": cold.runs(), "warm": warm.runs()},
                          [cold, warm])

    def check(self, outputs: object, reference: object) -> List[str]:
        return (_compare("cold", outputs["cold"], reference)
                + _compare("warm", outputs["warm"],
                           _digests(outputs["cold"])))


def quick_kwargs(seed: int) -> Dict[str, Dict[str, object]]:
    """Per-figure kwargs of ``python -m repro.experiments all --quick``."""
    args = argparse.Namespace(quick=True, samples=None, seed=seed,
                              workers=None, chunk_size=None)
    return {figure: _kwargs_for(figure, args) for figure in ordered_figures()}


def _lines(runs: Mapping[str, object]) -> Dict[str, List[str]]:
    return {figure: stable_lines(figure, run.lines)
            for figure, run in runs.items()}


class SuiteQuick(Workload):
    """Exactly the computation of ``all --quick`` on the 2-worker pool."""

    name = "suite-quick"

    def inline_steps(self, k: int) -> List[Step]:
        return [("pass", lambda: _run_inline(quick_kwargs(self.seed)))]

    def measured(self, pool, k: int) -> PassResult:
        kwargs = quick_kwargs(self.seed)
        suite = run_suite(list(kwargs), kwargs, pool=pool)
        return PassResult(suite.runs(), [suite])

    def reference(self) -> Tuple[object, Dict[str, float]]:
        walls: Dict[str, float] = {}
        runs = _run_inline(quick_kwargs(self.seed), walls)
        return (_lines(runs), _digests(runs)), walls

    def check(self, outputs: object, reference: object) -> List[str]:
        lines, digests = reference
        got = _lines(outputs)
        return ([f"{figure}: suite lines differ from a direct run"
                 for figure in lines if got.get(figure) != lines[figure]]
                + _compare("suite", outputs, digests))


WORKLOADS = {cls.name: cls for cls in (Scheduler, Sweep, SuiteQuick,
                                       CacheRerun)}
