"""Deterministic filesystem fault injection for the persistence layer.

:mod:`repro.util.faults` kills *compute*; this module makes the
*storage* claims testable.  Every durable file publishes through
:func:`repro.util.cache.atomic_open`, which runs two named **sites** —
a ``<thing>.write`` site (the tmp-file write) and a ``<thing>.replace``
site (the atomic ``os.replace`` publish).  The result cache and the
checkpoint store name theirs ``cache.payload``, ``cache.sidecar``,
``checkpoint.manifest``, ``checkpoint.payload`` and
``checkpoint.sidecar``, and move corrupt entries through a
``.quarantine.replace`` site per store; trace files publish under
``trace`` and CLI reports under ``io``.  An active
:class:`IoFaultInjector` intercepts those sites and injects one of the
failure modes long-running sweeps actually die of:

* :data:`ENOSPC` — ``OSError(errno.ENOSPC)`` (disk full);
* :data:`EACCES` — ``PermissionError`` (root became read-only / ACL flip);
* :data:`CRASH` — :class:`SimulatedCrash`, modelling the process dying
  *at* that syscall boundary (SIGKILL, OOM, power loss): nothing after
  the site runs, including ``except OSError`` cleanup;
* :data:`TORN` — a torn publish: the payload is truncated to half its
  bytes, the ``os.replace`` **still happens**, then the process dies.
  This models a crash on a filesystem that reordered data writes
  against the rename — the classic way "atomic" writes go wrong — and
  is exactly what the content-digest verification must catch;
* :data:`IOERROR` — a generic ``OSError`` at the site (transient media
  error), exercising the swallowed-error recovery paths.

Determinism: faults are planned as explicit ``(site, call_index,
kind)`` rules, like the explicit triples of
:class:`repro.util.faults.FaultInjector`.  No wall clock, no
randomness: a fault schedule replays bit-for-bit, so every crash-point
test is reproducible.

The injector also **records** every site invocation (faulted or not),
which is how the crash-point matrix harness
(:mod:`repro.util.crashmatrix`) machine-checks that its enumeration of
write/replace sites matches the sites the code actually executes — a
new, uninstrumented durable write cannot slip in silently.

`SimulatedCrash` deliberately subclasses :class:`BaseException`: the
persistence layer swallows ``OSError`` by design (a failed cache write
must not kill the sweep), and a simulated process death must not be
swallowable by those same handlers.
"""

from __future__ import annotations

import errno
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from contextlib import contextmanager

#: Fault kinds injectable at a ``.write`` site (before any bytes land).
ENOSPC = "enospc"
EACCES = "eacces"
CRASH = "crash"
IOERROR = "ioerror"
#: Fault kind injectable at a ``.replace`` site only: truncate the
#: tmp payload, publish it anyway, then die.
TORN = "torn"

#: Kinds valid at tmp-write sites.
WRITE_KINDS: Tuple[str, ...] = (ENOSPC, EACCES, IOERROR, CRASH)
#: Kinds valid at replace/publish sites.
REPLACE_KINDS: Tuple[str, ...] = (IOERROR, CRASH, TORN)

_ALL_KINDS = frozenset(WRITE_KINDS) | frozenset(REPLACE_KINDS)


class SimulatedCrash(BaseException):
    """Process death injected at an I/O site.

    A ``BaseException`` on purpose: ``except OSError`` / ``except
    Exception`` recovery code must not be able to "survive" a simulated
    SIGKILL — the crash propagates to the crash-matrix harness exactly
    like real death ends the process.
    """

    def __init__(self, site: str, call_index: int, kind: str) -> None:
        self.site = site
        self.call_index = call_index
        self.kind = kind
        super().__init__(
            f"simulated process death at I/O site {site!r} "
            f"(call {call_index}, fault {kind!r})")


@dataclass(frozen=True)
class IoFaultRule:
    """Fail call ``call_index`` (0-based, per site) of ``site`` with ``kind``."""

    site: str
    call_index: int
    kind: str

    def __post_init__(self) -> None:
        if self.call_index < 0:
            raise ValueError("call_index must be non-negative")
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown I/O fault kind {self.kind!r}")


class IoFaultInjector:
    """Deterministically fail filesystem sites; record every invocation.

    ``rules`` are explicit ``(site, call_index, kind)`` triples — the
    crash-point matrix uses exactly one per cell, and an injector with
    none only records.

    Per-site call counters are plain in-process state: the persistence
    layer's site order is deterministic for a given workload, so the
    ``(site, call_index)`` key replays exactly.  A lock keeps counters
    coherent when worker threads share the injector.
    """

    def __init__(self, rules: Tuple[IoFaultRule, ...] = ()) -> None:
        self.rules = tuple(rules)
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: Every site invocation seen: ``(site, call_index, kind-or-None)``.
        self.observed: List[Tuple[str, int, Optional[str]]] = []

    # -- bookkeeping -------------------------------------------------------

    def observed_sites(self) -> FrozenSet[str]:
        """Every distinct site this injector intercepted."""
        return frozenset(site for site, _, _ in self.observed)

    def fired(self) -> List[Tuple[str, int, str]]:
        """The invocations that actually faulted."""
        return [(site, index, kind)
                for site, index, kind in self.observed if kind is not None]

    def _decide(self, site: str, call_index: int) -> Optional[str]:
        for rule in self.rules:
            if rule.site == site and rule.call_index == call_index:
                return rule.kind
        return None

    # -- the interception points ------------------------------------------

    def on_write(self, site: str, path: Path) -> None:
        """Called before a tmp-file write; raises the planned fault."""
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
            kind = self._decide(site, index)
            self.observed.append((site, index, kind))
        if kind is None:
            return
        if kind == ENOSPC:
            raise OSError(errno.ENOSPC,
                          "injected: no space left on device", str(path))
        if kind == EACCES:
            raise PermissionError(errno.EACCES,
                                  "injected: permission denied", str(path))
        if kind == IOERROR:
            raise OSError(errno.EIO, "injected: input/output error",
                          str(path))
        if kind == CRASH:
            raise SimulatedCrash(site, index, kind)
        raise ValueError(f"fault kind {kind!r} not valid at write site {site!r}")

    def on_replace(self, site: str, src: Path, dst: Path) -> None:
        """Called before ``os.replace(src, dst)``; raises the planned fault.

        Returning means no fault: the caller performs the replace.  The
        :data:`TORN` kind performs its own (torn) publish before dying.
        """
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
            kind = self._decide(site, index)
            self.observed.append((site, index, kind))
        if kind is None:
            return
        if kind == IOERROR:
            raise OSError(errno.EIO, "injected: input/output error",
                          str(dst))
        if kind == CRASH:
            raise SimulatedCrash(site, index, kind)
        if kind == TORN:
            # Model a crash on a filesystem that reordered the data
            # write against the rename: half the payload became
            # visible under the final name, then the process died.
            payload = src.read_bytes()
            # Deliberately raw: this write IS the injected torn publish.
            src.write_bytes(payload[: len(payload) // 2])  # repro-lint: disable=RPR306
            os.replace(src, dst)
            raise SimulatedCrash(site, index, kind)
        raise ValueError(
            f"fault kind {kind!r} not valid at replace site {site!r}")


# ---------------------------------------------------------------------------
# Activation — a module-level injection point the persistence layer polls
# ---------------------------------------------------------------------------

_ACTIVE: Optional[IoFaultInjector] = None


def active_injector() -> Optional[IoFaultInjector]:
    """The currently installed injector (``None`` in production)."""
    return _ACTIVE


@contextmanager
def inject(injector: IoFaultInjector) -> Iterator[IoFaultInjector]:
    """Install ``injector`` for the duration of the ``with`` block.

    Nested injection is a bug (two fault plans would race for the same
    sites) and raises immediately.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an IoFaultInjector is already active")
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None


def trip_write(site: str, path: Path) -> None:
    """Site hook before a tmp-file write (no-op without an injector)."""
    injector = _ACTIVE
    if injector is not None:
        injector.on_write(site, path)


def checked_replace(site: str, src: Path, dst: Path) -> None:
    """``os.replace`` through the active injector's replace site."""
    injector = _ACTIVE
    if injector is not None:
        injector.on_replace(site, src, dst)
    os.replace(src, dst)


def single_fault(site: str, kind: str,
                 call_index: int = 0) -> IoFaultInjector:
    """An injector failing exactly one ``(site, call_index)`` cell."""
    return IoFaultInjector(rules=(IoFaultRule(site, call_index, kind),))
