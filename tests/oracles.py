"""Independent direct-definition implementations used to cross-check the package.

Everything here is written from the documented conventions with plain loops
and explicit formulas, deliberately sharing no code with mmvib. The one
exception is in_memory_capture, which composes mmvib's public in-memory
capture path as the reference for the streamed commands.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import welch


def naive_edit_distance(a, b) -> int:
    """Full-matrix Levenshtein distance, unit costs."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[m][n]


def rolling_edit_distance(a, b) -> int:
    """Levenshtein distance with unit costs, one rolling row of Python ints.

    The loop metrics._edit_distance ran before its numpy row recurrence.
    """
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, sym_a in enumerate(a, start=1):
        current = [i]
        for j, sym_b in enumerate(b, start=1):
            cost = 0 if sym_a == sym_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[len(b)]


def gather_frame_signal(x, window_len: int, hop: int) -> np.ndarray:
    """[n_frames, window_len] rows of x gathered with an index array.

    The copy signal_core.frame_signal made before it returned a strided view.
    """
    x = np.asarray(x, dtype=np.float64)
    n_frames = (x.size - window_len) // hop + 1
    idx = np.arange(window_len)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx]


def oracle_wer_cer(ref_text: str, hyp_text: str) -> tuple[float, float]:
    ref_words = ref_text.split()
    if not ref_words:
        raise ValueError("empty reference")
    hyp_words = hyp_text.split()
    wer = naive_edit_distance(ref_words, hyp_words) / len(ref_words)
    cer = naive_edit_distance(list(ref_text), list(hyp_text)) / len(ref_text)
    return wer, cer


def _mel_of(f: float) -> float:
    return 2595.0 * math.log10(1.0 + f / 700.0)


def _hz_of(m: float) -> float:
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def _triangle_bank(n_mels: int, window_len: int, fs: float, fmin: float = 0.0) -> np.ndarray:
    fmax = fs / 2.0
    n_bins = window_len // 2 + 1
    lo_mel, hi_mel = _mel_of(fmin), _mel_of(fmax)
    edges = [_hz_of(lo_mel + (hi_mel - lo_mel) * i / (n_mels + 1)) for i in range(n_mels + 2)]
    bank = np.zeros((n_mels, n_bins))
    for b in range(n_mels):
        left, center, right = edges[b], edges[b + 1], edges[b + 2]
        for k in range(n_bins):
            f = k * fs / window_len
            rise = (f - left) / max(center - left, 1e-12)
            fall = (right - f) / max(right - center, 1e-12)
            bank[b, k] = max(0.0, min(rise, fall))
    return bank


def _hann(window_len: int) -> np.ndarray:
    return np.array(
        [0.5 - 0.5 * math.cos(2.0 * math.pi * i / window_len) for i in range(window_len)]
    )


def oracle_fwsegsnr(ref, deg) -> float:
    """Frame-by-frame weighted segmental SNR, assembled with explicit loops."""
    fs = ref.sample_rate
    n = min(len(ref), len(deg))
    x, y = ref.samples[:n], deg.samples[:n]
    window_len = int(round(0.025 * fs))
    hop = int(round(0.010 * fs))
    win = _hann(window_len)
    bank = _triangle_bank(25, window_len, fs, fmin=50.0)
    eps = 1e-20
    per_frame = []
    start = 0
    while start + window_len <= n:
        rb = bank @ np.abs(np.fft.rfft(x[start : start + window_len] * win))
        db = bank @ np.abs(np.fft.rfft(y[start : start + window_len] * win))
        weights = rb**0.2
        total = weights.sum()
        if total > 0:
            snr = 10.0 * np.log10((rb**2 + eps) / ((rb - db) ** 2 + eps))
            value = float((weights * snr).sum() / total)
            per_frame.append(min(35.0, max(-10.0, value)))
        start += hop
    if not per_frame:
        raise ValueError("reference is silent")
    return sum(per_frame) / len(per_frame)


def _dct2_ortho(values: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II by direct cosine summation."""
    n = len(values)
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for j in range(n):
            acc += values[j] * math.cos(math.pi * k * (2 * j + 1) / (2 * n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


def _mfcc_frames(x: np.ndarray, fs: float) -> list[np.ndarray]:
    window_len = int(round(0.025 * fs))
    hop = int(round(0.010 * fs))
    win = _hann(window_len)
    bank = _triangle_bank(26, window_len, fs)
    frames = []
    start = 0
    while start + window_len <= x.size:
        power = np.abs(np.fft.rfft(x[start : start + window_len] * win)) ** 2
        energies = np.maximum(bank @ power, 1e-30)
        cepstrum = _dct2_ortho(np.log(energies))
        frames.append(cepstrum[1:14])
        start += hop
    return frames


def oracle_mcd(ref, deg) -> float:
    n = min(len(ref), len(deg))
    ref_cep = _mfcc_frames(ref.samples[:n], ref.sample_rate)
    deg_cep = _mfcc_frames(deg.samples[:n], deg.sample_rate)
    values = []
    for c_ref, c_deg in zip(ref_cep, deg_cep):
        acc = sum((a - b) ** 2 for a, b in zip(c_ref, c_deg))
        values.append((10.0 / math.log(10.0)) * math.sqrt(2.0 * acc))
    return sum(values) / len(values)


def psd_slope_db_per_decade(x: np.ndarray, fs: float = 1.0) -> float:
    """Least-squares slope of the Welch PSD in dB per log10(frequency) decade."""
    freqs, pxx = welch(x, fs=fs, nperseg=4096)
    band = (freqs >= 0.05 * fs) & (freqs <= 0.45 * fs)
    coeffs = np.polyfit(np.log10(freqs[band]), 10.0 * np.log10(pxx[band]), 1)
    return float(coeffs[0])


def psd_halfband_ratio(x: np.ndarray, fs: float = 1.0) -> float:
    """Upper-half to lower-half mean PSD ratio inside the fit band."""
    freqs, pxx = welch(x, fs=fs, nperseg=4096)
    band = (freqs >= 0.05 * fs) & (freqs <= 0.45 * fs)
    mid = 0.25 * fs
    low = pxx[band & (freqs < mid)].mean()
    high = pxx[band & (freqs >= mid)].mean()
    return float(high / low)


def oracle_remove_periodic_outliers(x, chirps_per_frame: int) -> np.ndarray:
    """Frame-start 3-sigma cleanup, one sample at a time.

    Each interior non-start sample contributes its residual against the mean
    of its non-start neighbors at i-1 and i+1; sigma is the population
    standard deviation of those residuals. An interior start more than
    3 sigma from its neighbor mean is replaced by that mean. A start at a
    trace end is compared with the line through the two nearest non-start
    samples on its side and replaced by the nearer one.
    """
    n = len(x)
    is_start = [i % chirps_per_frame == 0 for i in range(n)]
    residuals = []
    for i in range(1, n - 1):
        if is_start[i]:
            continue
        neighbors = [x[j] for j in (i - 1, i + 1) if not is_start[j]]
        if neighbors:
            residuals.append(x[i] - sum(neighbors) / len(neighbors))
    threshold = 3.0 * (float(np.std(residuals)) if residuals else 0.0)
    out = np.array(x, dtype=float)
    for s in range(0, n, chirps_per_frame):
        if 0 < s < n - 1:
            predicted = replacement = (x[s - 1] + x[s + 1]) / 2
        else:
            step = 1 if s == 0 else -1
            side = []
            j = s + step
            while 0 <= j < n and len(side) < 2:
                if not is_start[j]:
                    side.append(j)
                j += step
            a = side[0]
            replacement = predicted = x[a]
            if len(side) == 2:
                b = side[1]
                predicted = x[a] + (x[b] - x[a]) * (s - a) / (b - a)
        if abs(x[s] - predicted) > threshold:
            out[s] = replacement
    return out


def in_memory_capture(config, audio, seed_key):
    """The capture the simulate command writes for config, built whole in memory.

    The audio is resampled to the chirp rate and z-scored, drives the
    surface, is simulated frame by frame into one array by
    simulate_if_frames, and then inject_artifacts stamps it. The simulation
    and artifact seeds are spawned from seed_key, as the command spawns them.
    """
    from mmvib import (
        displacement_from_audio,
        inject_artifacts,
        resample,
        simulate_if_frames,
        zscore_normalize,
    )

    forcing = zscore_normalize(resample(audio, config.chirp.effective_sampling_rate))
    vibration = displacement_from_audio(forcing, config.material, config.force_scale)
    sim_seed, artifact_seed = np.random.SeedSequence(seed_key).spawn(2)
    capture = simulate_if_frames(
        config.chirp,
        vibration,
        config.range_m,
        reflectivity=config.material.reflectivity,
        noise_floor_db=config.noise_floor_db,
        seed=sim_seed,
    )
    return inject_artifacts(
        capture, config.beginning_sigma, config.periodic_sigma, seed=artifact_seed
    )
