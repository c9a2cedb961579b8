"""WAV reading/writing and sample-rate conversion for mono float pipelines.

Numpy only: the filters reproduce scipy's `firwin`, `filtfilt` and
`resample_poly` defaults, and the RIFF code reads and writes what
`scipy.io.wavfile` does for mono files, without paying scipy's import time
on every command.
"""

from __future__ import annotations

import functools
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signal_core import AudioBuffer

LOW_PASS_TAPS = 127
# zero crossings of resample's anti-aliasing sinc on each side of its peak;
# the half length is this times max(up, down), as in scipy's resample_poly
_RESAMPLE_ZERO_CROSSINGS = 10

_WAVE_PCM = 1
_WAVE_FLOAT = 3
_WAVE_EXTENSIBLE = 0xFFFE
# the last 12 bytes of a KSDATAFORMAT_SUBTYPE GUID; its first 4 hold the tag
_SUBTYPE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> (sample dtype, offset, scale): sample x
# reads as (x - offset) / scale; 24-bit is widened to int32
_WAV_FORMATS = {
    (_WAVE_PCM, 8): (np.dtype(np.uint8), 128.0, 128.0),
    (_WAVE_PCM, 16): (np.dtype("<i2"), 0.0, 2.0**15),
    (_WAVE_PCM, 24): (np.dtype("<i4"), 0.0, 2.0**31),
    (_WAVE_PCM, 32): (np.dtype("<i4"), 0.0, 2.0**31),
    (_WAVE_FLOAT, 32): (np.dtype("<f4"), 0.0, 1.0),
    (_WAVE_FLOAT, 64): (np.dtype("<f8"), 0.0, 1.0),
}
# RIFF/WAVE, an 18-byte IEEE-float `fmt ` chunk, `fact`, then the `data` header
_FLOAT_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHHH4sII4sI")
_MAX_FLOAT_WAV_RATE = (2**32 - 1) // 4  # the header's byte rate, 4 * rate, is a uint32


def read_wav(path) -> AudioBuffer:
    """Read a mono WAV file into float64 samples in [-1, 1] for integer formats.

    Accepts 8/16/24/32-bit PCM and 32/64-bit float, plain or in a
    WAVE_FORMAT_EXTENSIBLE header. A truncated or garbled file, or any other
    format, is a ValueError naming the path.
    """
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"not a RIFF/WAVE file: {path}")
    chunks = {}
    pos = 12
    while b"fmt " not in chunks or b"data" not in chunks:
        if pos >= len(raw):
            missing = "fmt " if b"fmt " not in chunks else "data"
            raise ValueError(f"WAV file has no {missing!r} chunk: {path}")
        if pos + 8 > len(raw):
            raise ValueError(f"truncated WAV chunk header: {path}")
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        if pos + 8 + size > len(raw):
            raise ValueError(f"truncated WAV {chunk_id.decode('latin-1')!r} chunk: {path}")
        chunks.setdefault(chunk_id, raw[pos + 8 : pos + 8 + size])
        pos += 8 + size + (size & 1)

    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise ValueError(f"truncated WAV 'fmt ' chunk: {path}")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _WAVE_EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _SUBTYPE_GUID_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if channels != 1:
        raise ValueError(f"expected mono WAV, got {channels} channels: {path}")
    layout = _WAV_FORMATS.get((tag, bits))
    if layout is None or block_align * 8 != bits:
        raise ValueError(f"unsupported WAV format (tag {tag:#x}, {bits}-bit): {path}")
    dtype, offset, scale = layout
    body = chunks[b"data"]
    width = bits // 8
    body = np.frombuffer(body[: len(body) - len(body) % width], dtype=np.uint8)
    if width == 3:
        widened = np.zeros((len(body) // 3, 4), dtype=np.uint8)
        widened[:, 1:] = body.reshape(-1, 3)
        body = widened
    data = body.view(dtype).reshape(-1)
    try:
        return AudioBuffer((data.astype(np.float64) - offset) / scale, float(rate))
    except ValueError as exc:
        raise ValueError(f"{exc}: {path}") from None


def write_wav(path, audio: AudioBuffer) -> None:
    """Write mono float32 WAV, byte for byte as `scipy.io.wavfile.write` does.

    Samples past the float32 range, and a rate that rounds below 1 Hz or
    past what the header holds, are a ValueError naming the file, raised
    before it is opened.
    """
    with np.errstate(over="ignore"):
        samples = np.ascontiguousarray(audio.samples, dtype="<f4")
    if not np.isfinite(samples).all():
        raise ValueError(f"samples exceed the float32 range: {path}")
    rate = int(round(audio.sample_rate))
    if not 1 <= rate <= _MAX_FLOAT_WAV_RATE:
        raise ValueError(f"sample rate {audio.sample_rate} Hz does not fit a WAV header "
                         f"(1 to {_MAX_FLOAT_WAV_RATE} Hz): {path}")
    header = _FLOAT_WAV_HEADER.pack(
        b"RIFF", _FLOAT_WAV_HEADER.size - 8 + samples.nbytes, b"WAVE",
        b"fmt ", 18, _WAVE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
        b"fact", 4, samples.size,
        b"data", samples.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        samples.tofile(fh)


def _firwin(window: np.ndarray, cutoff: float) -> np.ndarray:
    """Windowed-sinc low-pass with unit DC gain; cutoff as a fraction of Nyquist."""
    m = np.arange(len(window)) - 0.5 * (len(window) - 1)
    taps = cutoff * np.sinc(cutoff * m) * window
    return taps / taps.sum()


@functools.lru_cache(maxsize=16)
def _polyphase_bank(up: int, down: int) -> np.ndarray:
    """The up/down anti-aliasing filter split into its `up` phases, [up, taps].

    The filter is scipy's `resample_poly` default, a Kaiser (beta 5)
    windowed sinc of half length 10 * max(up, down), scaled by `up`. Row r
    holds taps r, r + up, r + 2 up, ... reversed and zero-padded at the front,
    so that its dot with the newest `taps` input samples is one output sample.
    Banks are cached per ratio and shared read-only.
    """
    half_len = _RESAMPLE_ZERO_CROSSINGS * max(up, down)
    taps = up * _firwin(np.kaiser(2 * half_len + 1, 5.0), 1.0 / max(up, down))
    n_phase_taps = -(-len(taps) // up)
    padded = np.zeros(n_phase_taps * up)
    padded[: len(taps)] = taps
    bank = padded.reshape(n_phase_taps, up).T[:, ::-1].copy()
    bank.flags.writeable = False
    return bank


def resample(audio: AudioBuffer, target_rate: float) -> AudioBuffer:
    """Rational polyphase resampling with a windowed-sinc anti-aliasing filter.

    Matches `scipy.signal.resample_poly` with zero padding: output sample i is
    the filter, centred on input time i * down / up, applied to the
    zero-stuffed input, which is where scipy's pre-pad of
    down - half_len % down and its trim of (half_len + pre_pad) // down put it.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if abs(target_rate - audio.sample_rate) < 1e-9:
        return AudioBuffer(audio.samples.copy(), audio.sample_rate)
    quotient = target_rate / audio.sample_rate
    ratio = Fraction(quotient).limit_denominator(10000) if np.isfinite(quotient) else Fraction(0)
    if ratio == 0:
        raise ValueError(
            f"cannot resample from {audio.sample_rate} Hz to {target_rate} Hz: "
            "the ratio of the rates is not finite or rounds to zero"
        )
    up, down = ratio.numerator, ratio.denominator
    if up == down:
        return AudioBuffer(audio.samples.copy(), target_rate)
    bank = _polyphase_bank(up, down)
    half_len = _RESAMPLE_ZERO_CROSSINGS * max(up, down)
    n_out = -(-len(audio) * up // down)
    # output i reads inputs q - taps + 1 .. q, with q = (i * down + half_len) // up
    lead = bank.shape[1] - 1
    last_q = ((n_out - 1) * down + half_len) // up
    padded = np.zeros(lead + max(last_q + 1, len(audio)))
    padded[lead : lead + len(audio)] = audio.samples
    windows = sliding_window_view(padded, bank.shape[1])
    out = np.empty(n_out)
    # sums past the float64 range come out inf or nan, which AudioBuffer refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(min(up, n_out)):
            q, phase = divmod(first * down + half_len, up)
            rows = len(range(first, n_out, up))
            out[first::up] = windows[q : q + (rows - 1) * down + 1 : down] @ bank[phase]
    return AudioBuffer(out, target_rate)


def low_pass(audio: AudioBuffer, cutoff_hz: float) -> AudioBuffer:
    """Zero-phase FIR low-pass; a cutoff at or above Nyquist is a no-op.

    Matches `scipy.signal.filtfilt` over `firwin(LOW_PASS_TAPS, cutoff_hz)`
    (Hamming window): odd extension by 3 * LOW_PASS_TAPS samples at each end,
    then the filter forward and backward. scipy starts each pass from the
    filter's steady state; an FIR pass started from zeros differs only in its
    first LOW_PASS_TAPS - 1 outputs, which lie in the padding trimmed off.
    """
    nyquist = audio.sample_rate / 2.0
    if cutoff_hz >= nyquist:
        return AudioBuffer(audio.samples.copy(), audio.sample_rate)
    # scipy's hamming: 0.54 + 0.46 cos over [-pi, pi], in its rounding
    hamming = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, LOW_PASS_TAPS))
    taps = _firwin(hamming, cutoff_hz / nyquist)
    x = audio.samples
    pad = 3 * LOW_PASS_TAPS
    if len(x) <= pad:
        raise ValueError(f"low_pass needs more than padlen = {pad} samples, got {len(x)}")
    extended = np.concatenate((2 * x[0] - x[pad:0:-1], x, 2 * x[-1] - x[-2 : -pad - 2 : -1]))
    forward = np.convolve(extended, taps)[: len(extended)]
    backward = np.convolve(forward[::-1], taps)[: len(extended)][::-1]
    return AudioBuffer(backward[pad:-pad], audio.sample_rate)
