"""Reference/degraded speech scoring: FWSegSNR, STOI, MCD, multi-resolution mel loss,
magnitude L1, and word/character error rates.

Absolute values of the spectral metrics depend on framing and filterbank
conventions, which are pinned here as documented constants; identity,
ordering, and gain-invariance properties are the stable contract.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import resample
from .signal_core import (
    MEL_LOSS_BANDS,
    MEL_LOSS_WINDOWS,
    AudioBuffer,
    band_sums,
    frame_signal,
    mel_filterbank,
    stft,
)

FRAME_SECONDS = 0.025
HOP_SECONDS = 0.010

FWSEG_BANDS = 25
FWSEG_FMIN_HZ = 50.0
FWSEG_WEIGHT_EXPONENT = 0.2
FWSEG_FLOOR_DB = -10.0
FWSEG_CEIL_DB = 35.0

MCD_BANDS = 26
MCD_COEFFS = 13
# Floor on mel energies before the log. Kept tiny so that pure gain changes
# never cross it and break the c0-only scaling property.
MCD_LOG_FLOOR = 1e-30
# orthonormal DCT-II over the MCD bands, as scipy.fft.dct(norm="ortho"): row k
# is the k-th basis cosine, so cepstra = log_energies @ _MCD_DCT.T
_MCD_DCT = np.sqrt(2.0 / MCD_BANDS) * np.cos(
    np.pi * np.outer(np.arange(MCD_BANDS), np.arange(MCD_BANDS) + 0.5) / MCD_BANDS
)
_MCD_DCT[0] = np.sqrt(1.0 / MCD_BANDS)

MEL_LOG_FLOOR = 1e-5

STOI_RATE_HZ = 10000.0
STOI_FRAME = 256
STOI_HOP = 128
STOI_NFFT = 512
STOI_BANDS = 15
STOI_BAND_FMIN_HZ = 150.0
STOI_SEGMENT_FRAMES = 30
STOI_DYNAMIC_RANGE_DB = 40.0
STOI_CLIP_DB = -15.0

_EPS = 1e-20

# STFT window of the report's magnitude-L1 column: one of the mel-loss
# resolutions, hop a quarter window, so score_pair reuses its spectra.
REPORT_SPEC_WINDOW = 256


@dataclass
class MetricsReport:
    """One scored pair; wer/cer present only when transcripts were supplied."""

    fwsegsnr: float
    stoi: float
    mcd: float
    mel_loss: float
    mag_l1: float
    wer: float | None = None
    cer: float | None = None

    def __post_init__(self) -> None:
        for name in REQUIRED_METRICS:
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")
        if not 0.0 <= self.stoi <= 1.0:
            raise ValueError(f"reported stoi must lie in [0, 1], got {self.stoi}")

    def to_dict(self) -> dict:
        return asdict(self)


# The metrics every report carries, in report order.
REQUIRED_METRICS = tuple(f.name for f in fields(MetricsReport) if f.default is MISSING)


def _truncate_pair(ref: AudioBuffer, deg: AudioBuffer) -> tuple[np.ndarray, np.ndarray, float]:
    if abs(ref.sample_rate - deg.sample_rate) > 1e-9:
        raise ValueError(
            f"sample rates differ: {ref.sample_rate} vs {deg.sample_rate}"
        )
    n = min(len(ref), len(deg))
    return ref.samples[:n], deg.samples[:n], ref.sample_rate


def _frame_params(fs: float) -> tuple[int, int]:
    return int(round(FRAME_SECONDS * fs)), int(round(HOP_SECONDS * fs))


def _framed_magnitudes(x: np.ndarray, fs: float) -> np.ndarray:
    """Magnitude STFT frames [n_frames, bins] at the 25 ms / 10 ms framing."""
    return np.abs(stft(x, *_frame_params(fs))).T


def fwsegsnr(ref: AudioBuffer, deg: AudioBuffer) -> float:
    """Frequency-weighted segmental SNR in dB.

    25 ms / 10 ms Hann frames; 25 triangular mel-spaced bands from 50 Hz;
    per-band weights are reference band magnitudes raised to 0.2; per-frame
    weighted SNR is clamped to [-10, 35] dB and averaged over frames.
    """
    x, y, fs = _truncate_pair(ref, deg)
    return _fwsegsnr(_framed_magnitudes(x, fs), _framed_magnitudes(y, fs), fs)


def _fwsegsnr(ref_mag: np.ndarray, deg_mag: np.ndarray, fs: float) -> float:
    """fwsegsnr from the 25 ms / 10 ms magnitude frames of both signals."""
    bank = (mel_filterbank, FWSEG_BANDS, _frame_params(fs)[0], fs, FWSEG_FMIN_HZ)
    ref_band = band_sums(ref_mag.T, *bank).T
    deg_band = band_sums(deg_mag.T, *bank).T
    weights = ref_band**FWSEG_WEIGHT_EXPONENT
    band_snr = 10.0 * np.log10((ref_band**2 + _EPS) / ((ref_band - deg_band) ** 2 + _EPS))
    weight_sums = weights.sum(axis=1)
    valid = weight_sums > 0
    if not np.any(valid):
        raise ValueError("reference is silent")
    frame_snr = (weights * band_snr).sum(axis=1)[valid] / weight_sums[valid]
    return float(np.clip(frame_snr, FWSEG_FLOOR_DB, FWSEG_CEIL_DB).mean())


def _third_octave_bands(n_bins: int, fs: float) -> np.ndarray:
    """Membership matrix [STOI_BANDS, n_bins] of one-third-octave bands."""
    freqs = np.arange(n_bins) * (fs / STOI_NFFT)
    centers = STOI_BAND_FMIN_HZ * 2.0 ** (np.arange(STOI_BANDS) / 3.0)
    lo = centers / 2.0 ** (1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return ((freqs[None, :] >= lo[:, None]) & (freqs[None, :] < hi[:, None])).astype(float)


def stoi(ref: AudioBuffer, deg: AudioBuffer) -> float:
    """Short-time objective intelligibility (raw, typically in [0, 1]).

    Both signals are resampled to 10 kHz and framed with 256-sample Hann
    windows at half overlap. Frames more than 40 dB below the loudest
    reference frame are removed from both signals. One-third-octave band
    envelopes (15 bands from 150 Hz) are compared over sliding 30-frame
    segments with normalization, -15 dB clipping, and mean-subtracted
    correlation, averaged across bands and segments.
    """
    x, y, fs = _truncate_pair(ref, deg)
    xb = resample(AudioBuffer(x, fs), STOI_RATE_HZ).samples
    yb = resample(AudioBuffer(y, fs), STOI_RATE_HZ).samples
    n = min(xb.size, yb.size)
    if n < STOI_FRAME:
        raise ValueError("input too short")
    window = np.hanning(STOI_FRAME)
    x_frames = frame_signal(xb[:n], STOI_FRAME, STOI_HOP) * window[None, :]
    y_frames = frame_signal(yb[:n], STOI_FRAME, STOI_HOP) * window[None, :]

    norms = np.linalg.norm(x_frames, axis=1)
    keep = norms > norms.max() * 10.0 ** (-STOI_DYNAMIC_RANGE_DB / 20.0)
    x_frames = x_frames[keep]
    y_frames = y_frames[keep]
    if x_frames.shape[0] < STOI_SEGMENT_FRAMES:
        raise ValueError("input too short")

    x_power = np.abs(np.fft.rfft(x_frames, n=STOI_NFFT, axis=1)) ** 2
    y_power = np.abs(np.fft.rfft(y_frames, n=STOI_NFFT, axis=1)) ** 2
    bands = (_third_octave_bands, x_power.shape[1], STOI_RATE_HZ)
    x_env = np.sqrt(band_sums(x_power.T, *bands))
    y_env = np.sqrt(band_sums(y_power.T, *bands))

    x_seg = sliding_window_view(x_env, STOI_SEGMENT_FRAMES, axis=1)
    y_seg = sliding_window_view(y_env, STOI_SEGMENT_FRAMES, axis=1)
    x_norm = np.linalg.norm(x_seg, axis=2)
    y_norm = np.linalg.norm(y_seg, axis=2)
    y_scaled = y_seg * (x_norm / (y_norm + _EPS))[:, :, None]
    clip = 10.0 ** (STOI_CLIP_DB / 20.0)
    y_clipped = np.minimum(y_scaled, x_seg * (1.0 + clip))

    xc = x_seg - x_seg.mean(axis=2, keepdims=True)
    yc = y_clipped - y_clipped.mean(axis=2, keepdims=True)
    x_std = np.linalg.norm(xc, axis=2)
    y_std = np.linalg.norm(yc, axis=2)
    corr = (xc * yc).sum(axis=2) / (x_std * y_std + _EPS)
    informative = x_std > 0
    if not np.any(informative):
        raise ValueError("reference has no informative segments")
    return float(corr[informative].mean())


def _mfcc(mag: np.ndarray, fs: float) -> np.ndarray:
    """MFCC frames [n_frames, MCD_COEFFS] from 25 ms / 10 ms magnitude frames, energy excluded."""
    bank = (mel_filterbank, MCD_BANDS, _frame_params(fs)[0], fs)
    energies = np.maximum(band_sums(mag.T**2, *bank).T, MCD_LOG_FLOOR)
    # einsum's own loops, not BLAS
    return np.einsum("fb,cb->fc", np.log(energies), _MCD_DCT[1 : MCD_COEFFS + 1], optimize=False)


def mcd(ref: AudioBuffer, deg: AudioBuffer) -> float:
    """Mel-cepstral distortion over index-aligned frames, energy term excluded."""
    x, y, fs = _truncate_pair(ref, deg)
    return _mcd(_framed_magnitudes(x, fs), _framed_magnitudes(y, fs), fs)


def _mcd(ref_mag: np.ndarray, deg_mag: np.ndarray, fs: float) -> float:
    """mcd from the 25 ms / 10 ms magnitude frames of both signals."""
    diff = _mfcc(ref_mag, fs) - _mfcc(deg_mag, fs)
    per_frame = (10.0 / np.log(10.0)) * np.sqrt(2.0 * (diff**2).sum(axis=1))
    return float(per_frame.mean())


def mel_loss(ref: AudioBuffer, deg: AudioBuffer) -> float:
    """Sum over the seven-resolution mel family of mean |log-mel| differences."""
    x, y, fs = _truncate_pair(ref, deg)
    return _mel_loss(x, y, fs)[0]


def _mel_loss(x: np.ndarray, y: np.ndarray, fs: float):
    """mel_loss of two equal-length signals, one resolution at a time.

    Also returns the (ref, deg) STFT magnitudes of the REPORT_SPEC_WINDOW
    resolution; the others are dropped as soon as they are summed.
    """
    total = 0.0
    kept = None
    for n_mels, window_len in zip(MEL_LOSS_BANDS, MEL_LOSS_WINDOWS):
        ref_mag = np.abs(stft(x, window_len, window_len // 4))
        deg_mag = np.abs(stft(y, window_len, window_len // 4))
        bank = (mel_filterbank, n_mels, window_len, fs)
        ref_mel = np.log(np.maximum(band_sums(ref_mag, *bank), MEL_LOG_FLOOR))
        deg_mel = np.log(np.maximum(band_sums(deg_mag, *bank), MEL_LOG_FLOOR))
        total += float(np.abs(ref_mel - deg_mel).mean())
        if window_len == REPORT_SPEC_WINDOW:
            kept = ref_mag, deg_mag
    return total, kept


def mag_l1(ref_spec: np.ndarray, deg_spec: np.ndarray) -> float:
    """Mean absolute difference between the magnitudes of two spectrograms."""
    if ref_spec.shape != deg_spec.shape:
        raise ValueError(f"shape mismatch: {ref_spec.shape} vs {deg_spec.shape}")
    return float(np.abs(np.abs(ref_spec) - np.abs(deg_spec)).mean())


def _as_words(text) -> list[str]:
    if isinstance(text, str):
        return text.split()
    return [str(token) for token in text]


def _as_chars(text) -> list[str]:
    if isinstance(text, str):
        return list(text)
    return list(" ".join(str(token) for token in text))


def _edit_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance with unit costs, one numpy row per symbol of the shorter list.

    Each row is first min(above + 1, diagonal + cost); insertions are then
    folded in along the row with a running minimum of row[k] - k, plus j.
    """
    if len(a) > len(b):
        a, b = b, a
    ids: dict[str, int] = {}
    a_ids = [ids.setdefault(sym, len(ids)) for sym in a]
    b_ids = np.array([ids.setdefault(sym, len(ids)) for sym in b], dtype=np.int64)
    j = np.arange(len(b) + 1)
    row = j.copy()
    for i, sym in enumerate(a_ids, start=1):
        cost = b_ids != sym
        step = np.empty_like(row)
        step[0] = i
        np.minimum(row[1:] + 1, row[:-1] + cost, out=step[1:])
        row = np.minimum.accumulate(step - j) + j
    return int(row[-1])


def wer_cer(ref_text, hyp_text) -> tuple[float, float]:
    """Word and character error rates from edit distance over the reference length."""
    ref_words = _as_words(ref_text)
    ref_chars = _as_chars(ref_text)
    if not ref_words or not ref_chars:
        raise ValueError("empty reference")
    hyp_words = _as_words(hyp_text)
    hyp_chars = _as_chars(hyp_text)
    wer = _edit_distance(ref_words, hyp_words) / len(ref_words)
    cer = _edit_distance(ref_chars, hyp_chars) / len(ref_chars)
    return wer, cer


def score_pair(
    ref: AudioBuffer,
    deg: AudioBuffer,
    ref_text: str | None = None,
    hyp_text: str | None = None,
) -> MetricsReport:
    """Compute the full metric suite for one aligned reference/degraded pair.

    Each spectrum is computed once per signal: the 25 ms / 10 ms magnitudes
    serve fwsegsnr and mcd, and mel_loss's REPORT_SPEC_WINDOW resolution
    serves mag_l1. The values equal those of the public metric functions.
    """
    x, y, fs = _truncate_pair(ref, deg)
    raw_stoi = stoi(ref, deg)
    wer = cer = None
    if ref_text is not None and hyp_text is not None:
        wer, cer = wer_cer(ref_text, hyp_text)
    ref_mag = _framed_magnitudes(x, fs)
    deg_mag = _framed_magnitudes(y, fs)
    fwseg = _fwsegsnr(ref_mag, deg_mag, fs)
    mcd_db = _mcd(ref_mag, deg_mag, fs)
    mel, (ref_spec, deg_spec) = _mel_loss(x, y, fs)
    return MetricsReport(
        fwsegsnr=fwseg,
        stoi=float(np.clip(raw_stoi, 0.0, 1.0)),
        mcd=mcd_db,
        mel_loss=mel,
        mag_l1=mag_l1(ref_spec, deg_spec),
        wer=wer,
        cer=cer,
    )
