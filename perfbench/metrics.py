"""Metric definitions: pass statistics, per-layer values, span self-check.

Names, units and bounds live in ``BENCHMARK.json``; this module computes
the values.  A name listed there that is not computed here makes the run
fail with ``KeyError`` instead of printing a partial result.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """Highest percentile with at least ten samples above it.

    Returns ``(value, percentile, samples above)``.  With ten samples
    or fewer no such percentile exists: the maximum is returned, with
    percentile 100 and no samples above.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def pooled_layer(chunks: list, stats: Mapping[str, object],
                 stats_before: Mapping[str, object], workers: int,
                 wall_s: float, suites: list,
                 inline_walls: Mapping[str, float]) -> Dict[str, float]:
    """Suite, transport and per-figure metrics of one pooled pass.

    ``chunks`` are the pass's :class:`timedpool.ChunkTiming` records and
    ``stats``/``stats_before`` the ``SuitePool.stats()`` snapshots
    around it.
    """
    capacity = workers * wall_s
    busy = sum(chunk.ended - chunk.started for chunk in chunks)
    layer = {
        "experiments.suite.tasks":
            stats["tasks_done"] - stats_before["tasks_done"],
        "experiments.suite.chunk_wait_s":
            sum(chunk.started - chunk.submitted for chunk in chunks),
        "experiments.suite.utilization": busy / capacity,
        "experiments.suite.reported_utilization":
            (stats["busy_s"] - stats_before["busy_s"]) / capacity,
        "experiments.suite.rebuilds":
            stats["rebuilds"] - stats_before["rebuilds"],
    }
    for key in ("shm_chunks", "shm_bytes", "pickled_chunks",
                "pickled_bytes"):
        layer[f"experiments.transport.{key}"] = sum(
            suite.transport[key] for suite in suites)
    for suite in suites:
        for outcome in suite.outcomes:
            name = f"experiments.{outcome.figure}.wall_s"
            layer[name] = layer.get(name, 0.0) + outcome.wall_s
    if suites and inline_walls:
        first = {outcome.figure: outcome.wall_s
                 for outcome in suites[0].outcomes}
        layer["experiments.suite.contention_ratio"] = (
            sum(first[figure] for figure in inline_walls)
            / sum(inline_walls.values()))
    return layer


#: Per-layer metrics taken from the pooled passes (median over passes)
#: rather than from the traced single-process pass.
POOLED_PREFIXES = ("experiments.suite.", "experiments.transport.",
                   "experiments.fig")


def span_metrics(spans, names: Sequence[str]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from its span totals."""
    stats, child = spans.stats, spans.child_calls
    out: Dict[str, float] = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s", "wall_s", "elements"):
            out[name] = getattr(stats[span], kind) if span in stats else 0
    pair = stats["techniques.pair_airtime"]
    out["techniques.pair_airtime.distinct_ratio"] = (
        len(pair.keys) / pair.calls if pair.calls else 0.0)
    out["scheduling.brute_force_schedule.candidates"] = child[
        ("scheduling.brute_force_schedule", "scheduling.pairing_to_schedule")]
    matchings = stats["scheduling.min_weight_perfect_matching"].calls
    out["scheduling.blossom_fallback_ratio"] = (
        child[("scheduling.min_weight_perfect_matching",
               "scheduling.max_weight_matching")] / matchings
        if matchings else 0.0)
    out["experiments.runner.chunks"] = stats["experiments.runner.chunk"].calls
    out["experiments.runner.retries"] = stats["experiments.runner.retry"].calls
    out["experiments.runner.overhead_s"] = (
        stats["experiments.runner.run_indexed"].wall_s
        + stats["experiments.runner.run_chunked"].wall_s
        - stats["experiments.runner.chunk"].wall_s)
    out["util.cache.get.hits"] = stats["util.cache.get"].results
    out["util.cache.put.bytes"] = stats["util.cache.put"].elements
    return out


# ---------------------------------------------------------------------------
# Span self-check: the prediction table of README.md as rules
# ---------------------------------------------------------------------------

_CACHE = ("util.cache.get.calls", "util.cache.put.calls",
          "util.checkpoint.put_chunk.calls",
          "util.checkpoint.get_chunk.calls")
_TRACES = ("traces.UploadTraceGenerator.generate.self_s",
           "traces.DownlinkTraceGenerator.generate.self_s",
           "traces.busy_snapshots.self_s")
_FIGURE_LAYERS = _TRACES + (
    "sic.evaluate_pair_scenario.calls",
    "sic.evaluate_pair_scenario_batch.elements",
    "sic.evaluate_pair_scenarios_batch.elements",
    "experiments.montecarlo.two_receiver_scenarios.self_s",
    "experiments.montecarlo.one_receiver_technique_gains.self_s",
    "experiments.montecarlo.two_receiver_technique_gains.self_s",
    "architectures.pair_scenario_chunk.elements",
    "architectures.evaluate_ewlan_cross_pairs.self_s",
    "architectures.evaluate_residential_rows.self_s",
    "architectures.sweep_chain_geometries.self_s",
    "experiments.runner.run_indexed.calls",
    "experiments.runner.run_chunked.calls",
)

#: Per workload: metrics that must be non-zero (``fires``), zero
#: (``silent``), and, on cache-rerun, at most ``QUIET_SHARE`` of the
#: pass on the warm half (``quiet``).  ``warm:`` names read the warm
#: half alone.  util.checkpoint.get_chunk is silent everywhere: a warm
#: run is served whole by the result cache before any checkpoint is
#: consulted, and no workload interrupts a run.
EXPECT: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "scheduler": {
        "fires": ("phy.shannon_rate.calls", "phy.airtime.calls",
                  "phy.sinr.self_s", "techniques.pair_airtime.calls",
                  "techniques.solo_airtime.calls",
                  "scheduling.brute_force_schedule.calls",
                  "scheduling.brute_force_schedule.candidates",
                  "scheduling.greedy_schedule.self_s",
                  "scheduling.pairing_to_schedule.calls",
                  "scheduling.build_cost_graph.self_s",
                  "scheduling.schedule.self_s",
                  "scheduling.min_weight_perfect_matching.calls",
                  "scheduling.max_weight_matching.calls"),
        "silent": _CACHE + _FIGURE_LAYERS + (
            "experiments.suite.tasks", "experiments.transport.shm_chunks",
            "experiments.transport.pickled_chunks"),
    },
    "sweep": {
        "fires": _FIGURE_LAYERS + (
            "phy.shannon_rate.calls", "techniques.pair_airtime_batch.elements",
            "scheduling.schedule_gain.calls",
            "scheduling.max_weight_matching.calls",
            "experiments.runner.chunks", "experiments.suite.tasks",
            "experiments.transport.shm_chunks"),
        "silent": _CACHE + ("scheduling.brute_force_schedule.calls",),
    },
    "suite-quick": {
        "fires": ("scheduling.brute_force_schedule.calls",
                  "experiments.suite.tasks", "experiments.fig12.wall_s",
                  "experiments.runner.chunks"),
        "silent": _CACHE + ("experiments.transport.shm_chunks",),
    },
    "cache-rerun": {
        "fires": ("util.cache.get.calls", "util.cache.get.hits",
                  "util.cache.put.calls", "util.cache.put.bytes",
                  "util.checkpoint.put_chunk.calls",
                  "experiments.suite.tasks", "warm:util.cache.get.hits")
                 + _TRACES + tuple(f"warm:{name}" for name in _TRACES),
        "silent": ("scheduling.brute_force_schedule.calls",
                   "util.checkpoint.get_chunk.calls",
                   "warm:util.cache.put.calls"),
        # The warm half still runs fig7's mesh sweep, which the cache
        # does not cover: a handful of scalar PHY calls, not zero.
        "quiet": ("phy.shannon_rate.calls", "phy.airtime.calls"),
    },
}
QUIET_SHARE = 0.01


def self_check(workload: str, values: Mapping[str, float]) -> List[str]:
    """Broken predictions of :data:`EXPECT` for one traced run."""
    expect = EXPECT[workload]
    return (
        [f"{name} reads 0, predicted to fire"
         for name in expect["fires"] if not values[name]]
        + [f"{name} reads {values[name]}, predicted 0"
           for name in expect["silent"] if values[name]]
        + [f"warm:{name} reads {values['warm:' + name]} of {values[name]}, "
           f"predicted about 0"
           for name in expect.get("quiet", ())
           if values[f"warm:{name}"] > QUIET_SHARE * values[name]])
