"""WAV reading/writing and sample-rate conversion for mono float pipelines."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, filtfilt, resample_poly

from .signal_core import AudioBuffer

_INT_SCALES = {
    np.dtype(np.int16): 2.0**15,
    np.dtype(np.int32): 2.0**31,
}

LOW_PASS_TAPS = 127


def read_wav(path) -> AudioBuffer:
    """Read a mono WAV file into float64 samples in [-1, 1] for integer formats."""
    rate, data = wavfile.read(Path(path))
    if data.ndim != 1:
        raise ValueError(f"expected mono WAV, got {data.ndim} channels: {path}")
    if data.dtype in _INT_SCALES:
        samples = data.astype(np.float64) / _INT_SCALES[data.dtype]
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64)
    return AudioBuffer(samples, float(rate))


def write_wav(path, audio: AudioBuffer) -> None:
    """Write mono float32 WAV."""
    wavfile.write(Path(path), int(round(audio.sample_rate)), audio.samples.astype(np.float32))


def resample(audio: AudioBuffer, target_rate: float) -> AudioBuffer:
    """Rational polyphase resampling with a windowed-sinc anti-aliasing filter."""
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if abs(target_rate - audio.sample_rate) < 1e-9:
        return AudioBuffer(audio.samples.copy(), audio.sample_rate)
    ratio = Fraction(target_rate / audio.sample_rate).limit_denominator(10000)
    out = resample_poly(audio.samples, ratio.numerator, ratio.denominator)
    return AudioBuffer(out, target_rate)


def low_pass(audio: AudioBuffer, cutoff_hz: float) -> AudioBuffer:
    """Zero-phase FIR low-pass; a cutoff at or above Nyquist is a no-op."""
    nyquist = audio.sample_rate / 2.0
    if cutoff_hz >= nyquist:
        return AudioBuffer(audio.samples.copy(), audio.sample_rate)
    coeffs = firwin(LOW_PASS_TAPS, cutoff_hz, fs=audio.sample_rate)
    return AudioBuffer(filtfilt(coeffs, [1.0], audio.samples), audio.sample_rate)
