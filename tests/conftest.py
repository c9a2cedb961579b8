"""Shared fixtures: chirp configs, tone captures, clip factories, the exit-path inputs, a
traced-memory helper and a fresh-interpreter runner."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mmvib
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


def run_fresh(code: str, *args, **env) -> str:
    """The last line code prints when a fresh interpreter runs it with args as its argv, this
    tree's src/ and tests/ on its path and env added to its environment."""
    path = os.pathsep.join([str(Path(mmvib.__file__).resolve().parents[1]),
                            str(Path(__file__).parent)])
    result = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                            env={**os.environ, "PYTHONPATH": path, **env},
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1]


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
