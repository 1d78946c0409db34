"""Operator failure taxonomy: classification, exit codes, signals, run_cli."""

import signal

import pytest

from repro.util.checkpoint import CHECKPOINT_DIR_ENV
from repro.util.errors import (
    EXIT_CORRUPT_STATE,
    EXIT_FATAL,
    EXIT_OK,
    EXIT_RESUMABLE,
    EXIT_TRANSIENT,
    CorruptStateError,
    FailureKind,
    FatalError,
    OperatorError,
    ResumableInterrupt,
    TransientError,
    classify,
    run_cli,
    signals_as_resumable,
)


class TestTaxonomy:
    def test_exit_codes_are_distinct(self):
        codes = [kind.exit_code for kind in FailureKind]
        assert len(codes) == len(set(codes))

    def test_kind_to_exit_code_mapping(self):
        assert FailureKind.OK.exit_code == EXIT_OK
        assert FailureKind.TRANSIENT.exit_code == EXIT_TRANSIENT
        assert FailureKind.CORRUPT_STATE.exit_code == EXIT_CORRUPT_STATE
        assert FailureKind.RESUMABLE.exit_code == EXIT_RESUMABLE

    def test_classify_operator_errors(self):
        assert classify(FatalError("x")) is FailureKind.FATAL
        assert classify(TransientError("x")) is FailureKind.TRANSIENT
        assert classify(CorruptStateError("x")) is FailureKind.CORRUPT_STATE

    def test_classify_interrupts(self):
        assert classify(KeyboardInterrupt()) is FailureKind.RESUMABLE
        assert classify(ResumableInterrupt(signal.SIGINT)) \
            is FailureKind.RESUMABLE

    def test_unclassified_exceptions_are_fatal(self):
        assert classify(ValueError("bug")) is FailureKind.FATAL

    def test_resumable_interrupt_is_not_an_exception(self):
        # `except Exception` recovery code must never eat an operator's
        # interrupt.
        assert not isinstance(ResumableInterrupt(signal.SIGINT), Exception)

    def test_operator_error_carries_hint(self):
        exc = TransientError("pool broke", hint="rerun to resume")
        assert exc.hint == "rerun to resume"
        assert isinstance(exc, OperatorError)


class TestSignals:
    def test_sigint_becomes_resumable(self):
        with pytest.raises(ResumableInterrupt) as info:
            with signals_as_resumable():
                signal.raise_signal(signal.SIGINT)
        assert info.value.signum == signal.SIGINT
        assert "resume" in str(info.value)

    def test_sigterm_becomes_resumable(self):
        with pytest.raises(ResumableInterrupt) as info:
            with signals_as_resumable():
                signal.raise_signal(signal.SIGTERM)
        assert info.value.signum == signal.SIGTERM

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with signals_as_resumable():
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before


class TestRunCli:
    def test_body_exit_code_passes_through(self):
        assert run_cli("prog", lambda: 0) == 0
        assert run_cli("prog", lambda: 3) == 3

    def test_operator_error_mapped_and_reported(self, capsys):
        def body():
            raise CorruptStateError("trace is torn",
                                    hint="regenerate the trace")

        assert run_cli("prog", body) == EXIT_CORRUPT_STATE
        err = capsys.readouterr().err
        assert "prog: corrupt-state: trace is torn" in err
        assert "prog: hint: regenerate the trace" in err

    def test_transient_error_mapped(self, capsys):
        def body():
            raise TransientError("pool died")

        assert run_cli("prog", body) == EXIT_TRANSIENT
        assert "transient" in capsys.readouterr().err

    def test_unclassified_exception_is_fatal(self, capsys):
        def body():
            raise RuntimeError("a bug")

        assert run_cli("prog", body) == EXIT_FATAL
        err = capsys.readouterr().err
        assert "prog: fatal: RuntimeError: a bug" in err

    def test_sigint_during_body_exits_resumable(self, capsys, monkeypatch,
                                                tmp_path):
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path))

        def body():
            signal.raise_signal(signal.SIGINT)
            return 0  # pragma: no cover - unreachable

        assert run_cli("prog", body) == EXIT_RESUMABLE
        err = capsys.readouterr().err
        assert "prog: resumable:" in err
        assert str(tmp_path) in err  # hint names the checkpoint root

    def test_resume_hint_without_checkpoint_dir(self, capsys, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)

        def body():
            raise KeyboardInterrupt()

        assert run_cli("prog", body) == EXIT_RESUMABLE
        assert CHECKPOINT_DIR_ENV in capsys.readouterr().err

    def test_argparse_usage_exit_propagates(self):
        # SystemExit(2) from argparse must keep its conventional code.
        import argparse

        def body():
            argparse.ArgumentParser(prog="prog").parse_args(["--nope"])
            return 0

        with pytest.raises(SystemExit) as info:
            run_cli("prog", body)
        assert info.value.code == 2
