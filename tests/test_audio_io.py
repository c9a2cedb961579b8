"""audio_io and the MFCC transform against scipy, which serves as the oracle.

The runtime computes with numpy alone; these tests pin it to the scipy calls
it replaces: resample_poly, filtfilt over firwin, wavfile and the
orthonormal DCT-II.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.fft import dct
from scipy.io import wavfile
from scipy.signal import filtfilt, firwin, resample_poly

from exit_paths import riff_chunk, riff_wav, wav_fmt
from mmvib import AudioBuffer, low_pass, read_wav, resample, write_wav
from mmvib.audio_io import LOW_PASS_TAPS
from mmvib.metrics import MCD_BANDS, _MCD_DCT

RATES_IN = (8000.0, 10000.0, 16000.0, 22050.0, 44100.0, 48000.0)
RATES_OUT = (8000.0, 10000.0, 16000.0, 32000.0)


def _noise(rate: float, seconds: float = 0.5, seed: int = 0) -> AudioBuffer:
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.standard_normal(int(rate * seconds)), rate)


def _assert_close_to_peak(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("rate_out", RATES_OUT)
@pytest.mark.parametrize("rate_in", RATES_IN)
def test_resample_matches_scipy(rate_in, rate_out):
    audio = _noise(rate_in)
    ratio = Fraction(rate_out / rate_in).limit_denominator(10000)
    out = resample(audio, rate_out)
    assert out.sample_rate == rate_out
    _assert_close_to_peak(out.samples, resample_poly(audio.samples, ratio.numerator, ratio.denominator))


def test_resample_8k_to_10k_equals_scipy_exactly():
    # STOI's path for every 8 kHz pair
    audio = _noise(8000.0, seconds=2.0, seed=1)
    np.testing.assert_array_equal(resample(audio, 10000.0).samples, resample_poly(audio.samples, 5, 4))


@pytest.mark.parametrize("target_rate", (2.56e-298, 1e-300, np.inf, np.nan))
def test_resample_rejects_a_ratio_it_cannot_represent(target_rate):
    # the first two round to a ratio of zero, the others are not finite
    message = f"cannot resample from 8000.0 Hz to {target_rate} Hz: "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        resample(_noise(8000.0), target_rate)


@pytest.mark.parametrize("cutoff", (1000.0, 3400.0))
@pytest.mark.parametrize("rate", RATES_IN)
def test_low_pass_matches_scipy(rate, cutoff):
    audio = _noise(rate)
    expected = filtfilt(firwin(LOW_PASS_TAPS, cutoff, fs=rate), [1.0], audio.samples)
    _assert_close_to_peak(low_pass(audio, cutoff).samples, expected)


def test_low_pass_rejects_input_no_longer_than_the_padding_like_scipy():
    taps = firwin(LOW_PASS_TAPS, 1000.0, fs=8000.0)
    short = AudioBuffer(np.ones(3 * LOW_PASS_TAPS), 8000.0)
    with pytest.raises(ValueError, match="padlen"):
        filtfilt(taps, [1.0], short.samples)
    with pytest.raises(ValueError, match="padlen"):
        low_pass(short, 1000.0)
    longer = AudioBuffer(np.ones(3 * LOW_PASS_TAPS + 1), 8000.0)
    np.testing.assert_allclose(low_pass(longer, 1000.0).samples, filtfilt(taps, [1.0], longer.samples))


@pytest.mark.parametrize("samples", (0, 1, 801))
@pytest.mark.parametrize("rate", (8000.0, 16000.0, 44100.0))
def test_write_wav_bytes_equal_scipy(tmp_path, rate, samples):
    audio = AudioBuffer(np.random.default_rng(2).standard_normal(samples), rate)
    write_wav(tmp_path / "ours.wav", audio)
    wavfile.write(tmp_path / "scipy.wav", int(rate), audio.samples.astype(np.float32))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


@pytest.mark.parametrize("value", (3.5e38, -1e300))
def test_write_wav_rejects_samples_past_float32(tmp_path, value):
    path = tmp_path / "x.wav"
    message = f"samples exceed the float32 range: {path}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_wav(path, AudioBuffer(np.array([0.0, value]), 8000.0))
    assert not path.exists()


@pytest.mark.parametrize("rate", (0.4, 0.5, 1073741823.5, 1.1e9))
def test_write_wav_rejects_a_rate_the_header_cannot_hold(tmp_path, rate):
    # the header's byte rate holds 4 * rate as a uint32; 0.5 and 1073741823.5
    # round to 0 and 1073741824
    path = tmp_path / "x.wav"
    message = f"sample rate {rate} Hz does not fit a WAV header (1 to 1073741823 Hz): {path}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_wav(path, AudioBuffer(np.zeros(4), rate))
    assert not path.exists()


@pytest.mark.parametrize("rate", (1.0, 1073741823.0))
def test_write_wav_holds_the_extreme_rates(tmp_path, rate):
    path = tmp_path / "x.wav"
    write_wav(path, AudioBuffer(np.zeros(4), rate))
    assert read_wav(path).sample_rate == rate


_RNG = np.random.default_rng(3)
_N = 301
_READ_CASES = {
    "uint8": (wav_fmt(1, 8), _RNG.integers(0, 256, _N, dtype=np.uint8).tobytes()),
    "int16": (wav_fmt(1, 16), _RNG.integers(-(2**15), 2**15, _N).astype("<i2").tobytes()),
    "int24": (wav_fmt(1, 24), _RNG.integers(0, 256, 3 * _N, dtype=np.uint8).tobytes()),
    "int32": (wav_fmt(1, 32), _RNG.integers(-(2**31), 2**31, _N).astype("<i4").tobytes()),
    "float32": (wav_fmt(3, 32), _RNG.standard_normal(_N).astype("<f4").tobytes()),
    "float64": (wav_fmt(3, 64), _RNG.standard_normal(_N).astype("<f8").tobytes()),
    "extensible_int24": (
        wav_fmt(0xFFFE, 24, subformat=1),
        _RNG.integers(0, 256, 3 * _N, dtype=np.uint8).tobytes(),
    ),
    "extensible_float32": (
        wav_fmt(0xFFFE, 32, subformat=3),
        _RNG.standard_normal(_N).astype("<f4").tobytes(),
    ),
}
_SCALE = {np.dtype(np.uint8): 128.0, np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}


@pytest.mark.parametrize("odd_chunk", (False, True), ids=("plain", "odd_chunk"))
@pytest.mark.parametrize("case", sorted(_READ_CASES))
def test_read_wav_equals_scipy(tmp_path, case, odd_chunk):
    fmt, data = _READ_CASES[case]
    # an unknown chunk of odd size, with its pad byte, between fmt and data
    extra = riff_chunk(b"LIST", b"odd") if odd_chunk else b""
    path = tmp_path / f"{case}.wav"
    path.write_bytes(riff_wav(riff_chunk(b"fmt ", fmt), extra, riff_chunk(b"data", data)))
    rate, raw = wavfile.read(path)
    offset = 128.0 if raw.dtype == np.uint8 else 0.0
    expected = (raw.astype(np.float64) - offset) / _SCALE.get(raw.dtype, 1.0)
    audio = read_wav(path)
    assert audio.sample_rate == rate == 8000
    np.testing.assert_array_equal(audio.samples, expected)


def test_mcd_dct_matrix_matches_scipy():
    np.testing.assert_allclose(
        _MCD_DCT, dct(np.eye(MCD_BANDS), norm="ortho", axis=0), rtol=0, atol=1e-12
    )
