"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.runner import ExecutionPolicy, SuitePool
from repro.phy.noise import thermal_noise_watts
from repro.phy.shannon import Channel


@pytest.fixture
def channel() -> Channel:
    """The canonical 20 MHz / thermal-noise channel used throughout."""
    return Channel(bandwidth_hz=20e6, noise_w=thermal_noise_watts(20e6))


@pytest.fixture
def unit_channel() -> Channel:
    """A noise-normalised channel (N0 == 1): RSS values are linear SNRs."""
    return Channel(bandwidth_hz=1.0, noise_w=1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def snr_w(channel: Channel, snr_db: float) -> float:
    """RSS in watts for a given SNR over the channel's noise."""
    return float(10.0 ** (snr_db / 10.0)) * channel.noise_w


def run_pooled(n_workers: int, fn, *args, **kwargs):
    """Call ``fn`` with its ``policy`` on a ``SuitePool(n_workers)``.

    The pool is opened for this one call and closed when the call
    returns or raises, so a test owns its pool's whole lifecycle.  A
    ``policy`` keyword is kept and given the pool; without one the call
    gets ``ExecutionPolicy.from_env()``, the engines' own default.
    """
    policy = kwargs.pop("policy", None) or ExecutionPolicy.from_env()
    with SuitePool(n_workers) as pool:
        return fn(*args, policy=replace(policy, pool=pool), **kwargs)
