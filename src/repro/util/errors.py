"""Operator-grade failure semantics: taxonomy, exit codes, signals.

A production sweep is driven by schedulers and shell scripts, not by a
human reading tracebacks.  Every repro CLI therefore classifies the way
it ends into a small **failure taxonomy** and maps each class to a
distinct exit code:

===============  ====  =====================================================
class            exit  meaning / operator action
===============  ====  =====================================================
ok                 0   completed; artifacts are trustworthy
fatal              1   a bug or impossible request; retrying cannot help
usage              2   bad invocation (argparse's convention, kept)
transient          3   an environmental failure (retry budget exhausted,
                       broken pool, disk hiccup); rerunning may succeed
corrupt-state      4   on-disk state is damaged beyond self-healing
                       (torn trace file, unusable input); inspect before
                       rerunning
resumable          5   interrupted cleanly (SIGINT/SIGTERM) with
                       checkpoints flushed; rerun the same command to
                       resume where it stopped
===============  ====  =====================================================

The classes mirror the persistence layer's behaviour: *transient*
failures are what the supervised runner retries, *corrupt-state* is
what the quarantine machinery sets aside, and *resumable* is what the
checkpoint store makes cheap.

Signal handling: :func:`signals_as_resumable` converts SIGINT and
SIGTERM into :class:`ResumableInterrupt` — a ``BaseException`` (like
``KeyboardInterrupt``) so no ``except Exception`` recovery path can
swallow an operator's interrupt.  The supervised executor catches it
*once*, flushes every already-completed chunk to the checkpoint store,
and re-raises; the CLI wrapper (:func:`run_cli`) then prints a
structured one-liner with the resume hint and exits ``5``.
"""

from __future__ import annotations

import enum
import os
import signal
import sys
from types import FrameType
from typing import Callable, Dict, Iterator, Optional

from contextlib import contextmanager


class FailureKind(enum.Enum):
    """The operator-facing classification of how a run ended."""

    OK = "ok"
    FATAL = "fatal"
    USAGE = "usage"
    TRANSIENT = "transient"
    CORRUPT_STATE = "corrupt-state"
    RESUMABLE = "resumable"

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self]


#: Exit codes, one per failure class (0/1/2 keep their POSIX/argparse
#: meanings; 3-5 are the repro-specific taxonomy).
EXIT_OK = 0
EXIT_FATAL = 1
EXIT_USAGE = 2
EXIT_TRANSIENT = 3
EXIT_CORRUPT_STATE = 4
EXIT_RESUMABLE = 5

_EXIT_CODES = {
    FailureKind.OK: EXIT_OK,
    FailureKind.FATAL: EXIT_FATAL,
    FailureKind.USAGE: EXIT_USAGE,
    FailureKind.TRANSIENT: EXIT_TRANSIENT,
    FailureKind.CORRUPT_STATE: EXIT_CORRUPT_STATE,
    FailureKind.RESUMABLE: EXIT_RESUMABLE,
}


class OperatorError(Exception):
    """Base for failures that carry their own taxonomy class.

    ``hint`` is an optional one-line operator action ("resume with
    ...", "inspect corrupt/ ...") printed after the error message.
    """

    kind: FailureKind = FailureKind.FATAL

    def __init__(self, message: str, hint: Optional[str] = None) -> None:
        self.hint = hint
        super().__init__(message)


class FatalError(OperatorError):
    """A bug or impossible request; retrying cannot help."""

    kind = FailureKind.FATAL


class TransientError(OperatorError):
    """An environmental failure; rerunning the same command may succeed."""

    kind = FailureKind.TRANSIENT


class CorruptStateError(OperatorError):
    """On-disk state is damaged beyond self-healing; inspect, then rerun."""

    kind = FailureKind.CORRUPT_STATE


class ResumableInterrupt(BaseException):
    """SIGINT/SIGTERM arrived; checkpoints were flushed, rerun to resume.

    A ``BaseException`` (like ``KeyboardInterrupt``) so that worker
    supervision and cache code — which legitimately swallow
    ``Exception`` subclasses — can never eat an operator's interrupt.
    """

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(
            f"interrupted by {signal.Signals(signum).name}; completed "
            "chunks are checkpointed — rerun the same command to resume")


def classify(exc: BaseException) -> FailureKind:
    """The taxonomy class of an arbitrary exception.

    ``OperatorError`` subclasses carry their class; interrupts are
    resumable; everything else is fatal (an unclassified exception is a
    bug by definition — environmental failures must be raised as
    :class:`TransientError` / :class:`CorruptStateError` at the point
    where the environment is known).
    """
    if isinstance(exc, OperatorError):
        return exc.kind
    if isinstance(exc, (ResumableInterrupt, KeyboardInterrupt)):
        return FailureKind.RESUMABLE
    return FailureKind.FATAL


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------

def _raise_resumable(signum: int, frame: Optional[FrameType]) -> None:
    raise ResumableInterrupt(signum)


@contextmanager
def signals_as_resumable() -> Iterator[None]:
    """Convert SIGINT/SIGTERM into :class:`ResumableInterrupt`.

    Installed for the duration of a CLI run; previous handlers are
    restored on exit.  Outside the main thread (or on platforms without
    the signal) installation degrades to a no-op rather than failing —
    the CLI still works, just with default signal semantics.
    """
    previous: Dict[int, object] = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _raise_resumable)
        except (ValueError, OSError):  # non-main thread / unsupported
            continue
    try:
        yield
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                continue


# ---------------------------------------------------------------------------
# The CLI wrapper
# ---------------------------------------------------------------------------

def run_cli(prog: str, body: Callable[[], int]) -> int:
    """Run a CLI body under the failure taxonomy; return its exit code.

    ``body`` returns an exit code itself (0/1/2 conventions stay with
    the individual CLI); exceptions escaping it are classified, printed
    as one structured ``prog: class: message`` line on stderr, and
    mapped to the taxonomy exit code.  SIGINT/SIGTERM are converted to
    :class:`ResumableInterrupt` for the duration.
    """
    try:
        with signals_as_resumable():
            return body()
    except (ResumableInterrupt, KeyboardInterrupt) as exc:
        message = (str(exc) or "interrupted; rerun the same command "
                   "to resume from checkpoints")
        _report(prog, FailureKind.RESUMABLE, message,
                _resume_hint())
        return EXIT_RESUMABLE
    except OperatorError as exc:
        _report(prog, exc.kind, str(exc), exc.hint)
        return exc.kind.exit_code
    except BrokenPipeError:
        # Downstream pager/pipe closed: conventional silent exit.
        try:
            sys.stderr.close()
        except OSError:
            pass
        return EXIT_FATAL
    except Exception as exc:  # unclassified == bug == fatal
        kind = classify(exc)
        _report(prog, kind, f"{type(exc).__name__}: {exc}", None)
        return kind.exit_code


def _resume_hint() -> Optional[str]:
    from repro.util.checkpoint import CHECKPOINT_DIR_ENV

    configured = os.environ.get(CHECKPOINT_DIR_ENV, "").strip()
    if configured:
        return (f"checkpoints under {configured}; rerunning the same "
                "command resumes from the completed chunks")
    return (f"set {CHECKPOINT_DIR_ENV} to make interrupted sweeps "
            "resumable from their completed chunks")


def _report(prog: str, kind: FailureKind, message: str,
            hint: Optional[str]) -> None:
    print(f"{prog}: {kind.value}: {message}", file=sys.stderr)
    if hint:
        print(f"{prog}: hint: {hint}", file=sys.stderr)


__all__ = [
    "FailureKind",
    "EXIT_OK", "EXIT_FATAL", "EXIT_USAGE", "EXIT_TRANSIENT",
    "EXIT_CORRUPT_STATE", "EXIT_RESUMABLE",
    "OperatorError", "FatalError", "TransientError", "CorruptStateError",
    "ResumableInterrupt",
    "classify", "signals_as_resumable", "run_cli",
]
