"""Determinism-hygiene rules for the parallel engines (RPR3xx).

The chunked Monte-Carlo engines promise bit-identical results for a
given ``(seed, n_samples, chunk_size)`` regardless of worker count.
Wall-clock reads and OS entropy inside ``experiments``/``sim`` result
paths silently break that promise (``time.perf_counter`` remains fine
for *measuring* elapsed time — it never feeds results).  Recovery
paths (``experiments``/``sim``/``util``) never wait on the wall clock:
the supervisor retries a failed chunk at once and the watchdog reads
an injectable clock, so a bare ``time.sleep`` there would only make
recovery slow to test and couple the supervisor to the wall clock.

RPR304 is performance hygiene rather than determinism: a head pop on a
Python list shifts every remaining element, so ``pop(0)`` inside a loop
is accidentally quadratic — exactly the drain-the-queue shape the online
scheduler runs per batch.  ``collections.deque.popleft`` is O(1).

RPR305 is the shared-mutable-default trap, instance flavour: a default
argument like ``config: UploadTraceConfig = UploadTraceConfig()`` is
evaluated once at import and shared by every caller, so any mutation —
or identity-sensitive caching — leaks across calls; frozen dataclasses
merely hide the hazard until someone adds a mutable field.  Default to
``None`` and construct inside.

RPR306 is durability hygiene: a bare ``open(path, "w")`` or
``Path.write_text`` publishes bytes under the final name while they are
still being written, so a crash mid-write leaves a torn file that later
reads as valid.  Durable writes must go through
``repro.util.cache.atomic_open`` (tmp file + ``os.replace``), which
also gives them named fault-injection sites the crash-point matrix can
kill.  The tmp half of an atomic writer is the one legitimate raw write
and carries the suppression pragma.
"""

from __future__ import annotations

import ast
import re
from typing import FrozenSet, Iterator, Set

from repro.lint.context import FileContext
from repro.lint.index import ProjectIndex
from repro.lint.registry import Rule, register
from repro.lint.violations import Violation

#: Packages holding the deterministic result pipelines.
DETERMINISTIC_PACKAGES: FrozenSet[str] = frozenset({"experiments", "sim"})

#: Packages whose recovery paths must not sleep on the wall clock.
RETRY_PATH_PACKAGES: FrozenSet[str] = DETERMINISTIC_PACKAGES | {"util"}


def _applies(ctx: FileContext) -> bool:
    return ctx.in_any_package(*DETERMINISTIC_PACKAGES)


def _bindings_of(tree: ast.Module, module: str, original: str) -> Set[str]:
    """Local names bound to ``module.original`` via ``from module import``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                if alias.name == original:
                    names.add(alias.asname or alias.name)
    return names


@register
class WallClockRule(Rule):
    """RPR301 — ``time.time()`` in a deterministic result pipeline."""

    code = "RPR301"
    summary = (
        "time.time() is wall-clock nondeterminism; results must depend "
        "only on (seed, config) — use time.perf_counter() for benchmarks"
    )
    hint = (
        "take simulated time from the event loop; for measuring elapsed "
        "real time use time.perf_counter()"
    )

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterator[Violation]:
        if not _applies(ctx):
            return
        bare_bindings = _bindings_of(ctx.tree, "time", "time")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                yield ctx.make_violation(node, self.code, self.summary)
            elif isinstance(func, ast.Name) and func.id in bare_bindings:
                yield ctx.make_violation(node, self.code, self.summary)


@register
class OsEntropyRule(Rule):
    """RPR302 — ``os.urandom`` in a deterministic result pipeline."""

    code = "RPR302"
    summary = (
        "os.urandom draws OS entropy; derive per-worker streams with "
        "repro.util.rng.spawn_seed_sequences instead"
    )
    hint = (
        "derive worker streams from the run seed via "
        "repro.util.rng.spawn_seed_sequences"
    )

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterator[Violation]:
        if not _applies(ctx):
            return
        bindings = _bindings_of(ctx.tree, "os", "urandom")
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "urandom"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                yield ctx.make_violation(node, self.code, self.summary)
            elif (
                isinstance(node, ast.Name)
                and node.id in bindings
                and isinstance(node.ctx, ast.Load)
            ):
                yield ctx.make_violation(node, self.code, self.summary)


@register
class BareSleepRule(Rule):
    """RPR303 — bare ``time.sleep`` in a retry/recovery path.

    Recovery here does not wait: the supervisor resubmits a failed
    chunk at once, and the watchdog measures its deadlines on an
    injectable clock.  Sleeping directly couples recovery to the wall
    clock and makes every test of it take real seconds.  Code that must
    wait takes the sleep callable as a parameter, so tests can record
    delays instead of serving them; calls through an injected callable
    (a parameter or attribute named ``sleep``) are fine.
    """

    code = "RPR303"
    summary = (
        "bare time.sleep couples a recovery path to the wall clock; "
        "retry at once or accept an injected sleep callable instead"
    )
    hint = (
        "retry without waiting, or accept an injectable sleep callable so "
        "tests can record delays instead of serving them"
    )

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterator[Violation]:
        if not ctx.in_any_package(*RETRY_PATH_PACKAGES):
            return
        bindings = _bindings_of(ctx.tree, "time", "sleep")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                yield ctx.make_violation(node, self.code, self.summary)
            elif isinstance(func, ast.Name) and func.id in bindings:
                yield ctx.make_violation(node, self.code, self.summary)


@register
class HeadPopInLoopRule(Rule):
    """RPR304 — ``.pop(0)`` inside a loop body.

    ``list.pop(0)`` shifts every remaining element, so draining a queue
    with it is O(n^2).  The rule fires on any ``<expr>.pop(0)`` call
    lexically inside a ``for``/``while`` body, anywhere in the tree —
    it cannot see types, but a head pop in a loop is the quadratic
    drain shape regardless of container, and genuinely-needed cases
    (e.g. a list that also takes arbitrary-index pops) can carry a
    suppression pragma.  Tail pops (``pop()`` / ``pop(-1)``) and
    ``deque.popleft()`` are O(1) and not flagged.
    """

    code = "RPR304"
    summary = (
        "pop(0) inside a loop is O(n) per call (quadratic drain); "
        "use collections.deque and popleft() for O(1) head pops"
    )
    hint = (
        "drain queues through collections.deque.popleft(); keep a list "
        "only when arbitrary-index pops are genuinely needed"
    )

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterator[Violation]:
        seen: Set[int] = set()
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for node in ast.walk(loop):
                if id(node) in seen:
                    continue  # nested loops walk inner calls twice
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and len(node.args) == 1
                    and not node.keywords
                    and isinstance(node.args[0], ast.Constant)
                    and type(node.args[0].value) is int
                    and node.args[0].value == 0
                ):
                    seen.add(id(node))
                    yield ctx.make_violation(node, self.code, self.summary)


def _terminal_name(func: ast.expr) -> str:
    """The rightmost name of a call target (``pkg.mod.Cls`` -> ``Cls``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@register
class InstanceDefaultArgumentRule(Rule):
    """RPR305 — a class instance constructed as a parameter default.

    ``def __init__(self, config: Config = Config())`` builds ONE
    instance at import time and shares it across every call — the
    classic mutable-default trap, which frozen dataclasses only
    disguise (an added mutable field, cached property, or identity
    check resurrects it).  The rule fires on any call to a
    CamelCase-named constructor in a parameter default, in ``def``,
    ``async def`` and ``lambda`` alike.  Module-level *constants* as
    defaults (``rate_table=DOT11G``) are fine — no call, no fresh
    instance; so are lowercase factory calls, which read as deliberate.
    Default to ``None`` and construct inside the function.
    """

    code = "RPR305"
    summary = (
        "class instance as a parameter default is evaluated once and "
        "shared by every call; default to None and construct inside"
    )
    hint = (
        "default the parameter to None and construct the instance inside "
        "the function body"
    )

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults
                            if d is not None)
            for default in defaults:
                for call in ast.walk(default):
                    if not isinstance(call, ast.Call):
                        continue
                    name = _terminal_name(call.func)
                    if name[:1].isupper() and not name.isupper():
                        yield ctx.make_violation(call, self.code,
                                                 self.summary)


#: A constant string that reads as an ``open()`` mode.
_MODE_RE = re.compile(r"^[rwaxbt+U]{1,4}$")


def _open_mode(node: ast.Call) -> str:
    """The constant mode string of an ``open``-style call, or ``"r"``.

    The mode is positional arg 0 for ``Path.open`` and arg 1 for the
    builtin, so the first of the leading two positionals (or a
    ``mode=`` keyword) that *looks like* a mode string wins.  Dynamic
    modes are unknowable and never flagged.
    """
    candidates = list(node.args[:2])
    candidates.extend(k.value for k in node.keywords if k.arg == "mode")
    for expr in candidates:
        if (isinstance(expr, ast.Constant) and isinstance(expr.value, str)
                and _MODE_RE.match(expr.value)):
            return expr.value
    return "r"


@register
class NonAtomicWriteRule(Rule):
    """RPR306 — a raw durable write bypassing the atomic-write helpers.

    Fires on ``open(..., "w"/"a"/"x"/"+")`` (builtin and ``Path.open``
    alike) and on ``.write_text`` / ``.write_bytes`` calls.  A raw
    write publishes under the final filename while the bytes are still
    in flight: a crash mid-write leaves a torn file that a later run
    may read as valid, and the write is invisible to the I/O
    fault-injection sites the crash-point matrix enumerates.  Route
    durable writes through ``repro.util.cache.atomic_open`` (or its
    text wrapper ``atomic_write_text``), or an equivalent tmp +
    ``os.replace`` writer whose raw half carries the pragma.
    """

    code = "RPR306"
    summary = (
        "raw write to a durable path (torn on crash, invisible to fault "
        "injection); use repro.util.cache.atomic_open instead"
    )
    hint = (
        "stream into repro.util.cache.atomic_open(path, site), or into a "
        "tmp file published with os.replace and suppress the tmp write"
    )

    _WRITERS = frozenset({"write_text", "write_bytes"})

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._WRITERS:
                yield ctx.make_violation(node, self.code, self.summary)
                continue
            is_open = (
                (isinstance(func, ast.Name) and func.id == "open")
                or (isinstance(func, ast.Attribute) and func.attr == "open")
            )
            if is_open and any(c in _open_mode(node) for c in "wax+"):
                yield ctx.make_violation(node, self.code, self.summary)
