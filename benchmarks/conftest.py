"""Benchmark-harness helpers.

Every paper table/figure has one bench module.  Each bench runs the
figure's ``compute`` at evaluation scale through pytest-benchmark,
asserts the paper's qualitative claims on the result, and prints the
same rows/series the paper reports (visible with ``pytest -s``).
"""

from __future__ import annotations

import time
from typing import Callable, List


def run_once(benchmark, fn: Callable, **kwargs):
    """Benchmark an expensive figure exactly once (no warmup rounds)."""
    return benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)


def best_of(fn: Callable[[], object], reps: int) -> float:
    """The fastest of ``reps`` wall-clock timings of ``fn()``, in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def emit(lines: List[str]) -> None:
    """Print a figure's report block (shown under ``pytest -s``)."""
    print()
    for line in lines:
        print(line)
