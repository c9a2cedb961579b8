"""Shared fixtures: chirp configs, tone captures, clip factories, the exit-path inputs and a
traced-memory helper."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from exit_paths import write_exit_inputs
from mmvib import ChirpConfig, VibrationTrace, simulate_if_frames


@pytest.fixture
def chirp_cfg() -> ChirpConfig:
    return ChirpConfig()


@pytest.fixture(scope="session")
def exit_inputs(tmp_path_factory):
    """A directory holding the inputs the exit-path cases name."""
    d = tmp_path_factory.mktemp("exit_inputs")
    write_exit_inputs(d)
    return d


def traced_peak(call) -> int:
    """The peak of the memory tracemalloc traces while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_tone_trace(
    cfg: ChirpConfig,
    freq_hz: float,
    amplitude_m: float = 1e-6,
    duration_s: float = 0.96,
) -> VibrationTrace:
    """Sinusoidal displacement sampled at the chirp rate."""
    rate = cfg.effective_sampling_rate
    t = np.arange(int(round(duration_s * rate))) / rate
    return VibrationTrace(amplitude_m * np.sin(2.0 * np.pi * freq_hz * t), rate)


def make_tone_capture(
    cfg: ChirpConfig,
    freq_hz: float,
    amplitude_m: float = 1e-6,
    duration_s: float = 0.96,
    range_m: float = 1.5,
    noise_floor_db: float = -60.0,
    seed: int = 0,
):
    vib = make_tone_trace(cfg, freq_hz, amplitude_m, duration_s)
    return simulate_if_frames(
        cfg, vib, range_m, noise_floor_db=noise_floor_db, seed=seed
    )
