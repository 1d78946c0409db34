"""Shared utilities: unit conversions, validation, RNG plumbing, CDFs.

These helpers are deliberately small and dependency-light; every other
subpackage builds on them.  The conventions they encode (power in watts
internally, dB only at the API boundary, explicit seeded RNGs everywhere)
are what keep the rest of the reproduction numerically honest.
"""

from repro.util.cache import ResultCache, array_digest, stable_hash
from repro.util.cdf import EmpiricalCdf, fraction_at_least, gain_cdf_summary
from repro.util.checkpoint import CheckpointStore
from repro.util.containers import GridResult, SweepResult
from repro.util.faults import FaultInjector, InjectedFault
from repro.util.rng import make_rng, spawn_rngs, spawn_seed_sequences
from repro.util.units import (
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    ratio_db,
    watts_to_dbm,
)
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_positive,
)

__all__ = [
    "CheckpointStore",
    "EmpiricalCdf",
    "FaultInjector",
    "GridResult",
    "InjectedFault",
    "ResultCache",
    "SweepResult",
    "array_digest",
    "check_finite",
    "check_in_range",
    "check_positive",
    "db_to_linear",
    "dbm_to_watts",
    "fraction_at_least",
    "gain_cdf_summary",
    "linear_to_db",
    "make_rng",
    "ratio_db",
    "spawn_rngs",
    "spawn_seed_sequences",
    "stable_hash",
    "watts_to_dbm",
]
