"""Repository benchmark: closed-loop passes of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The program under test is imported from ``src/`` of the checkout this
file sits in.  One process runs one workload: it measures set-up,
computes the workload's single-process reference, then runs passes back
to back (each starts when the previous one finished) on a pool of at
most two workers until ``--seconds`` have elapsed, and checks every
pass's outputs.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` additionally runs the pass once inline without tracing
and once with every layer function wrapped (``spans.py``), and reports
the per-layer metrics.  The last stdout line is the JSON result; a
fuller record with provenance goes to ``perfbench/out/``.  See
``perfbench/README.md`` for the metric catalogue.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from metrics import (POOLED_PREFIXES, median, pooled_layer, self_check,
                     span_metrics, tail)
from spans import Spans, Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Pool size: the host has two cores.
WORKERS = 2
#: Set-up repetitions; ``setup_s`` sums two medians over these.
SETUP_TRIALS = 7


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_catalogue() -> Tuple[List[dict], List[dict]]:
    """End-to-end and per-layer metric entries of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    failures: List[str]
    layer: Dict[str, float] = field(default_factory=dict)


def measure_setup(env: Dict[str, str]) -> Tuple[float, Dict[str, object]]:
    """Cold import of ``repro.experiments`` plus suite-pool warm-up."""
    from repro.experiments.suite import SuitePool

    command = [sys.executable, "-c", "import repro.experiments"]
    # The first import compiles bytecode into the checkout; not timed.
    subprocess.run(command, env=env, cwd=ROOT, check=True)
    imports, warmups = [], []
    for _ in range(SETUP_TRIALS):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        imports.append(time.perf_counter() - start)
    for _ in range(SETUP_TRIALS):
        start = time.perf_counter()
        pool = SuitePool(WORKERS)
        warmups.append(time.perf_counter() - start)
        pool.close()
    setup_s = median(imports) + median(warmups)
    return setup_s, {"import_s": imports, "pool_warmup_s": warmups}


def run_passes(workload, pool, reference, inline_walls: Dict[str, float],
               seconds: float) -> Tuple[List[Pass], int]:
    """Closed-loop passes for ``seconds``; returns them and worker RSS."""
    passes: List[Pass] = []
    worker_rss = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        if pool is not None:
            pool.take()
            before = pool.stats()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = workload.measured(pool, len(passes))
            error = None
        except Exception as exc:  # a failed pass is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        layer: Dict[str, float] = {}
        if pool is not None:
            chunks = pool.take()
            layer = pooled_layer(chunks, pool.stats(), before, pool.workers,
                                 wall, result.suites if result else [],
                                 inline_walls)
            cpu += sum(chunk.cpu_s for chunk in chunks)
            worker_rss = max([worker_rss] + [chunk.worker_maxrss_kib
                                             for chunk in chunks])
        failures = [error] if error else workload.check(result.outputs,
                                                        reference)
        passes.append(Pass(wall, cpu, failures, layer))
        result = None  # the next pass must not run with these outputs held
        workload.cleanup()
    return passes, worker_rss


def run_inline(workload, reference, tracer=None
               ) -> Tuple[float, List[str], Dict[str, object]]:
    """One single-process pass; with a tracer, spans per step."""
    workload.cleanup()
    gc.collect()
    outputs: Dict[str, object] = {}
    per_step: Dict[str, object] = {}
    wall = 0.0
    patches = install(tracer) if tracer is not None else None
    try:
        for label, thunk in workload.inline_steps(0):
            start = time.perf_counter()
            outputs[label] = thunk()
            wall += time.perf_counter() - start
            if tracer is not None:
                per_step[label] = tracer.take()
    finally:
        if patches is not None:
            patches.undo()
    if list(outputs) == ["pass"]:
        outputs = outputs["pass"]
    failures = workload.check(outputs, reference)
    workload.cleanup()
    return wall, failures, per_step


def trace_layers(workload, reference, passes: List[Pass],
                 names: List[str]) -> Tuple[Dict[str, float], List[str],
                                            List[str]]:
    """Per-layer values, failed output checks, broken span predictions."""
    inline_wall, failures, _ = run_inline(workload, reference)
    traced_wall, traced_failures, per_step = run_inline(
        workload, reference, Tracer())
    values = span_metrics(Spans.merged(list(per_step.values())), names)
    for name in names:
        if name.startswith(POOLED_PREFIXES):
            values[name] = median([p.layer.get(name, 0) for p in passes])
    values["inline.wall_s"] = inline_wall
    values["trace.overhead_ratio"] = traced_wall / inline_wall
    checked = dict(values)
    for label, spans in per_step.items():
        checked.update({f"{label}:{name}": value for name, value
                        in span_metrics(spans, names).items()})
    return (values, failures + traced_failures,
            self_check(workload.name, checked))


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process that pools and shared memory start."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def git_describe() -> Optional[str]:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--tags"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {SRC / 'repro'} is missing")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"{ROOT / 'BENCHMARK.json'} is missing")
    end_to_end, per_layer = load_catalogue()
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for variable in ("REPRO_CACHE_DIR", "REPRO_CHECKPOINT_DIR"):
        os.environ.pop(variable, None)
        env.pop(variable, None)

    import numpy as np
    import repro.experiments
    from repro.experiments.suite import SuitePool

    if not Path(repro.experiments.__file__).resolve().is_relative_to(SRC):
        return fail(f"repro imported from outside {SRC}")
    from timedpool import TimedPool
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"known: {', '.join(WORKLOADS)}")
    out_dir = HERE / "out"
    scratch = out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)

    setup_s, setup_detail = None, {}
    if not args.trace:
        setup_s, setup_detail = measure_setup(env)
    pool = TimedPool(SuitePool(WORKERS)) if workload.uses_pool else None
    inline_failures: List[str] = []
    broken_predictions: List[str] = []
    try:
        reference, inline_walls = workload.reference()
        passes, worker_rss = run_passes(workload, pool, reference,
                                        inline_walls, args.seconds)
        parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            layer_values, inline_failures, broken_predictions = trace_layers(
                workload, reference, passes,
                [entry["name"] for entry in per_layer])
    finally:
        if pool is not None:
            pool.close()
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)

    walls = [p.wall_s for p in passes]
    attempted = len(passes)
    failed = sum(1 for p in passes if p.failures)
    if args.trace:
        attempted += 1
        failed += int(bool(inline_failures or broken_predictions))
    tail_value, tail_percentile, tail_above = tail(walls)
    if args.trace:
        values, catalogue = layer_values, per_layer
    else:
        values = {
            "wall_s": median(walls),
            "wall_s_tail": tail_value,
            "cpu_s": median([p.cpu_s for p in passes]),
            "peak_rss_mib": (parent_rss + worker_rss) / 1024.0,
            "setup_s": setup_s,
        }
        catalogue = end_to_end
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in catalogue}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = dict(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace,
        provenance={
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_describe": git_describe(),
            "pool_workers": WORKERS if workload.uses_pool else 0,
            "passes": len(passes),
            "tracing_overhead": values.get("trace.overhead_ratio"),
        },
        failed_frac=failed / attempted,
        wall_s_tail={"percentile": tail_percentile,
                     "samples_above": tail_above, "samples": len(walls)},
        peak_rss_kib={"parent": parent_rss, "largest_worker": worker_rss},
        setup=setup_detail,
        passes=[{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                 "failures": p.failures} for p in passes],
        inline_failures=inline_failures,
        span_self_check=broken_predictions,
        **result)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / (f"{workload.name}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1))

    for failure in ([f for p in passes for f in p.failures]
                    + inline_failures + broken_predictions):
        print(f"check failed: {failure}")
    print(f"{workload.name}: {len(passes)} passes, {failed}/{attempted} "
          f"failed, tail at p{tail_percentile:.0f} of {len(walls)}, "
          f"record {record_path.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
