"""Operator interrupt mid-sweep: exit resumable, resume bit-identically.

The one crash mode the in-process crash matrix cannot model honestly is
a real signal delivered to a real process, so this test runs the actual
CLI in a subprocess, SIGINTs it once checkpoints start landing, and
checks the full operator contract: exit code 5 (resumable), flushed
chunk files on disk, a resumed rerun whose JSON output is
byte-identical to an uninterrupted run, and no shared-memory segment
left behind.  The same checks run on the sweep in-process and on a
2-worker pool (``--workers 2``), where the interrupt reaches the
supervisor through ``SuitePool.interrupt``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.transport import active_segments
from repro.util.checkpoint import CHECKPOINT_DIR_ENV
from repro.util.errors import EXIT_OK, EXIT_RESUMABLE

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

# Sized so chunk files land within ~1s but the sweep as a whole takes
# several seconds — a wide, reliable window for the interrupt.
_SAMPLES = 800_000
_CHUNK_SIZE = 5_000


def _spawn(checkpoint_dir, json_path, workers):
    env = dict(os.environ)
    env[CHECKPOINT_DIR_ENV] = str(checkpoint_dir)
    env.pop("REPRO_CACHE_DIR", None)  # force real compute + checkpoints
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "fig6",
         "--samples", str(_SAMPLES), "--chunk-size", str(_CHUNK_SIZE),
         "--json", str(json_path)]
        + ([] if workers is None else ["--workers", str(workers)]),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _wait_for_chunks(checkpoint_dir, proc, minimum=5, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done = list(Path(checkpoint_dir).glob("*/chunk_*.npz"))
        if len(done) >= minimum:
            return done
        if proc.poll() is not None:
            pytest.fail("sweep finished before the interrupt window: "
                        f"rc={proc.returncode}")
        time.sleep(0.05)
    pytest.fail("no checkpoint chunks appeared within the timeout")


def _interrupt_resume_and_compare(tmp_path, workers):
    """SIGINT a sweep, resume it, and compare with an uninterrupted run."""
    ckpt = tmp_path / "ckpt"
    resumed_json = tmp_path / "resumed.json"
    segments_before = active_segments()

    # Phase 1: interrupt mid-sweep once checkpoints are landing.
    proc = _spawn(ckpt, resumed_json, workers)
    try:
        flushed = _wait_for_chunks(ckpt, proc)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == EXIT_RESUMABLE, stderr
    assert "resumable" in stderr
    assert str(ckpt) in stderr  # the hint names the checkpoint root
    assert not resumed_json.exists()  # no half-finished output published
    # The flushed chunks survive the interrupt for the rerun to reuse.
    assert all(path.exists() for path in flushed)
    assert active_segments() == segments_before

    # Phase 2: the same command resumes from those chunks and finishes.
    proc = _spawn(ckpt, resumed_json, workers)
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == EXIT_OK, stderr

    # Phase 3: an uninterrupted run in a fresh tree must agree exactly.
    reference_json = tmp_path / "reference.json"
    proc = _spawn(tmp_path / "ckpt_reference", reference_json, workers)
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == EXIT_OK, stderr

    assert resumed_json.read_bytes() == reference_json.read_bytes()
    assert json.loads(resumed_json.read_text())["figure"] == "fig6"
    assert active_segments() == segments_before


def test_sigint_mid_sweep_is_resumable_and_bit_identical(tmp_path):
    _interrupt_resume_and_compare(tmp_path, workers=None)


def test_sigint_through_the_pool_is_resumable_and_bit_identical(tmp_path):
    # run_suite -> SuitePool.interrupt -> the supervisor flushes its
    # completed chunks before the interrupt propagates.
    _interrupt_resume_and_compare(tmp_path, workers=2)
