"""Shared time-frequency primitives: framing, STFT, mel filterbanks, normalization, unwrapping."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# HTK mel scale constants.
MEL_SCALE = 2595.0
MEL_BREAK_HZ = 700.0

# Multi-resolution log-mel family used by the spectral loss: one filterbank
# per (band count, window) pair, hop fixed at window / 4.
MEL_LOSS_BANDS = (5, 10, 20, 40, 80, 160, 320)
MEL_LOSS_WINDOWS = (32, 64, 128, 256, 512, 1024, 2048)


def hz_to_mel(freq_hz):
    """Convert frequency in Hz to mels."""
    return MEL_SCALE * np.log10(1.0 + np.asarray(freq_hz, dtype=float) / MEL_BREAK_HZ)


def mel_to_hz(mels):
    """Convert mels back to frequency in Hz."""
    return MEL_BREAK_HZ * (10.0 ** (np.asarray(mels, dtype=float) / MEL_SCALE) - 1.0)


@dataclass
class AudioBuffer:
    """Mono audio: 1-D float64 samples plus a sampling rate in Hz."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not np.isfinite(self.sample_rate) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def hann_window(window_len: int) -> np.ndarray:
    """Periodic Hann window."""
    n = np.arange(window_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_len)


def frame_signal(x: np.ndarray, window_len: int, hop: int) -> np.ndarray:
    """Slice x into [n_frames, window_len] rows; trailing partial samples are dropped.

    The rows are a read-only strided view of x, one every hop samples, so no
    sample is copied.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected 1-D signal, got shape {x.shape}")
    if window_len < 1 or hop < 1:
        raise ValueError("window_len and hop must be >= 1")
    if x.size < window_len:
        raise ValueError("input too short")
    return sliding_window_view(x, window_len)[::hop]


def stft(audio: AudioBuffer, window_len: int, hop: int) -> np.ndarray:
    """Short-time Fourier transform with a periodic Hann window.

    Returns complex values laid out [window_len // 2 + 1, frames]. Frames are
    laid at multiples of hop with no padding, so
    frames = floor((len - window_len) / hop) + 1.
    """
    frames = frame_signal(audio.samples, window_len, hop)
    windowed = frames * hann_window(window_len)[None, :]
    return np.fft.rfft(windowed, axis=1).T


@functools.lru_cache(maxsize=64)
def mel_filterbank(
    n_mels: int, window_len: int, sample_rate: float, fmin: float = 0.0
) -> np.ndarray:
    """Triangular mel filterbank from fmin to Nyquist, [n_mels, window_len // 2 + 1].

    Each filter peaks at weight 1. Banks are cached per argument tuple and
    every caller shares one read-only array.
    """
    fmax = sample_rate / 2.0
    n_bins = window_len // 2 + 1
    if n_mels > n_bins:
        raise ValueError("over-resolved filterbank")
    if not 0 <= fmin < fmax:
        raise ValueError(f"band edges must satisfy 0 <= fmin < nyquist, got [{fmin}, {fmax}]")
    mel_pts = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    freqs = np.arange(n_bins) * (sample_rate / window_len)
    lo = hz_pts[:-2, None]
    ctr = hz_pts[1:-1, None]
    hi = hz_pts[2:, None]
    rise = (freqs[None, :] - lo) / np.maximum(ctr - lo, 1e-12)
    fall = (hi - freqs[None, :]) / np.maximum(hi - ctr, 1e-12)
    bank = np.clip(np.minimum(rise, fall), 0.0, None)
    bank.flags.writeable = False
    return bank


def mel_spectrogram(audio: AudioBuffer, n_mels: int, window_len: int) -> np.ndarray:
    """Mel-band magnitude spectrogram, [n_mels, frames], at a hop of window_len // 4."""
    spec = stft(audio, window_len, window_len // 4)
    return mel_filterbank(n_mels, window_len, audio.sample_rate) @ np.abs(spec)


def zscore_normalize(audio: AudioBuffer) -> AudioBuffer:
    """Shift and scale to zero mean and unit population standard deviation."""
    x = audio.samples
    if x.size < 2:
        raise ValueError("degenerate normalization")
    std = float(x.std())
    if std == 0.0 or not np.isfinite(std):
        raise ValueError("degenerate normalization")
    return AudioBuffer((x - x.mean()) / std, audio.sample_rate)


def unwrap_phase(phases: np.ndarray) -> np.ndarray:
    """Unwrap a phase sequence so successive differences fall in (-pi, pi].

    Each output sample differs from its input by an integer multiple of 2*pi.
    """
    p = np.asarray(phases, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"expected 1-D phase sequence, got shape {p.shape}")
    if p.size <= 1:
        return p.copy()
    d = np.diff(p)
    two_pi = 2.0 * np.pi
    wrapped = d - two_pi * np.ceil((d - np.pi) / two_pi)
    out = np.empty_like(p)
    out[0] = p[0]
    out[1:] = p[0] + np.cumsum(wrapped)
    return out
