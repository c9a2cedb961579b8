"""Vibration recovery from IF captures: target-bin search, phase extraction, outlier cleanup."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .radar_sim import ChirpConfig, IFCapture, VibrationTrace
from .signal_core import AudioBuffer, unwrap_phase

OUTLIER_SIGMA_THRESHOLD = 3.0

# Chirps a BinSearch transforms at a time, so its complex128 scratch stays
# [_SEARCH_ROWS, adc] whatever chirps_per_frame is.
_SEARCH_ROWS = 64


def range_fft(capture) -> np.ndarray:
    """FFT each chirp along fast time, keeping the positive-frequency half.

    capture is anything locate_target reads. Returns complex128 bins laid
    out [range_bins, n_frames * chirps_per_frame]: chirp order is preserved
    across frames (frame-major flattening), so column c is chirp c of the
    capture. One frame is transformed at a time, so beyond the result only
    one frame's spectrum is held.

    This is the reference definition of the range profile; locate_target,
    which the pipeline runs, reads the target bin without building it.
    """
    if capture.n_frames == 0:
        raise ValueError("empty capture")
    chirps = capture.config.chirps_per_frame
    range_bins = capture.config.adc_samples_per_chirp // 2 + 1
    out = np.empty((capture.n_frames * chirps, range_bins), dtype=np.complex128)
    for index, frame in enumerate(capture):
        out[index * chirps : (index + 1) * chirps] = np.fft.fft(frame, axis=1)[:, :range_bins]
    return out.T


def select_target_bin(profile: np.ndarray) -> int:
    """Index of the strongest range bin by mean magnitude, DC excluded.

    The profile is laid out [range_bins, chirps], as range_fft returns it.
    Ties break toward the lower index.
    """
    if profile.size == 0:
        raise ValueError("no target")
    return _strongest_bin(np.abs(profile).mean(axis=1))


def _strongest_bin(strength: np.ndarray) -> int:
    """Index of the largest per-bin strength with DC excluded; ties break low."""
    rest = strength[1:]
    if rest.size == 0 or np.max(rest) <= 0.0:
        raise ValueError("no target")
    return int(np.argmax(rest)) + 1


def extract_phase_series(profile: np.ndarray, bin_index: int) -> np.ndarray:
    """Unwrapped per-chirp phase of one range bin, radians at the chirp rate."""
    if not 0 <= bin_index < profile.shape[0]:
        raise ValueError(f"bin index {bin_index} outside [0, {profile.shape[0]})")
    return unwrap_phase(np.angle(profile[bin_index]))


def phase_to_displacement(delta_phi: np.ndarray, wavelength: float) -> np.ndarray:
    """Convert phase variation to zero-mean displacement: d = wavelength * phi / (4 pi).

    The series mean is removed first, since the absolute range offset carries
    no vibration.
    """
    if not np.isfinite(wavelength) or wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    phi = np.asarray(delta_phi, dtype=np.float64)
    if phi.size:
        phi = phi - phi.mean()
    return wavelength * phi / (4.0 * np.pi)


def remove_beginning_outlier(trace: AudioBuffer, guard_window: int) -> AudioBuffer:
    """Replace capture-start spikes breaking the 3-sigma rule with the global mean.

    The rule covers the first guard_window samples; statistics come from the
    rest, so the spike cannot mask itself; the result has trace's type.
    """
    x = trace.samples
    if x.size < 3:
        raise ValueError(f"trace too short for outlier statistics, got {x.size} samples")
    guard = int(min(max(guard_window, 0), x.size - 2))
    out = x.copy()
    if guard > 0:
        tail = x[guard:]
        mean = tail.mean()
        sigma = tail.std()
        head = out[:guard]
        head[np.abs(head - mean) > OUTLIER_SIGMA_THRESHOLD * sigma] = mean
    return replace(trace, samples=out)


def remove_periodic_outliers(trace: AudioBuffer, chirps_per_frame: int) -> AudioBuffer:
    """Clean frame-boundary spikes using the 3-sigma rule against local means.

    A frame-start sample is an outlier when it sits more than 3 sigma from
    the mean of its neighbors at i-1 and i+1, where sigma is the spread of
    the same residual over the interior non-start samples (a neighbor that is
    itself a frame start does not count). Spikes stamped on frame boundaries
    tower over that residual; smooth signal at a boundary never trips it.

    Outliers are replaced by their neighbor mean. A start at either end of
    the trace has one neighbor: it is tested against the line through that
    neighbor and the next non-start sample beyond it, and replaced by the
    neighbor. The result has trace's type.
    """
    if chirps_per_frame < 2:
        raise ValueError(f"chirps_per_frame must be >= 2, got {chirps_per_frame}")
    x = trace.samples
    n = x.size
    if n < 3:
        raise ValueError(f"trace too short for outlier statistics, got {n} samples")
    is_start = np.arange(n) % chirps_per_frame == 0

    # Only the immediate neighbors: they track speech-band content far better
    # than a wide average, which low-passes the replacement.
    inner = np.flatnonzero(~is_start[1:-1]) + 1
    left = ~is_start[inner - 1]
    right = ~is_start[inner + 1]
    count = left.astype(np.int64) + right
    has_neighbor = count > 0
    neighbor_sum = np.where(left, x[inner - 1], 0.0) + np.where(right, x[inner + 1], 0.0)
    residual = x[inner[has_neighbor]] - neighbor_sum[has_neighbor] / count[has_neighbor]
    threshold = OUTLIER_SIGMA_THRESHOLD * (float(residual.std()) if residual.size else 0.0)

    out = x.copy()
    starts = np.arange(chirps_per_frame, n - 1, chirps_per_frame)
    mean = (x[starts - 1] + x[starts + 1]) / 2
    hit = np.abs(x[starts] - mean) > threshold
    out[starts[hit]] = mean[hit]

    # an end start extrapolates a line, so its residual stays comparable to
    # the two-sided statistic
    ends = [(0, 1), (n - 1, -1)] if is_start[-1] else [(0, 1)]
    for s, step in ends:
        a, b = s + step, s + 2 * step
        if 0 <= b < n and is_start[b]:
            b += step
        predicted = x[a] + (x[b] - x[a]) * (s - a) / (b - a) if 0 <= b < n else x[a]
        if abs(x[s] - predicted) > threshold:
            out[s] = x[a]
    return replace(trace, samples=out)


class BinSearch:
    """The bin search of locate_target, fed one frame at a time.

    add sums each range bin's magnitude over one frame's chirps in float32,
    equal bit for bit to np.abs(np.fft.fft(frame, axis=1)[:, :bins]).sum(axis=0,
    dtype=np.float32): numpy's complex64 FFT is its complex128 FFT rounded to
    complex64, which is the path taken here. The frame sums are added into
    the float64 strength, DC to Nyquist, and add returns the frame, so
    map(search.add, frames) searches a stream on its way. Every step writes
    into buffers made once, since the FFT's own scratch would otherwise be
    mapped and unmapped on every frame. The chirps are transformed
    _SEARCH_ROWS at a time. Frames too large or not finite leave a strength
    that is not finite, which target reports as one error, without numpy
    warnings.
    """

    def __init__(self, config: ChirpConfig) -> None:
        chirps, adc = config.chirps_per_frame, config.adc_samples_per_chirp
        rows = min(chirps, _SEARCH_ROWS)
        self._bins = adc // 2 + 1
        self._wide = np.empty((rows, adc), dtype=np.complex128)
        self._spectrum = np.empty_like(self._wide)
        self._half = np.empty((rows, self._bins), dtype=np.complex64)
        self._magnitude = np.empty((chirps, self._bins), dtype=np.float32)
        self._frame_strength = np.empty(self._bins, dtype=np.float32)
        self.strength = np.zeros(self._bins)

    def add(self, frame: np.ndarray) -> np.ndarray:
        rows = len(self._wide)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(frame), rows):
                n = min(rows, len(frame) - start)
                np.copyto(self._wide[:n], frame[start : start + n])
                np.fft.fft(self._wide[:n], axis=1, out=self._spectrum[:n])
                np.copyto(self._half[:n], self._spectrum[:n, : self._bins])
                np.abs(self._half[:n], out=self._magnitude[start : start + n])
            self._magnitude.sum(axis=0, dtype=np.float32, out=self._frame_strength)
        self.strength += self._frame_strength
        return frame

    def target(self, source) -> int:
        """The strongest bin so far, DC excluded; source names the capture in errors."""
        if not np.isfinite(self.strength).all():
            raise ValueError(f"capture samples are not finite or too large: {source}")
        try:
            return _strongest_bin(self.strength)
        except ValueError as exc:
            raise ValueError(f"{exc}: {source}") from None


def demodulate_bin(capture, target: int) -> np.ndarray:
    """Unwrapped per-chirp phase of one range bin of the capture.

    A single-bin DFT: the dot product of every chirp with one complex
    exponential, frame by frame, so beyond the frames it holds one sample
    per chirp.
    """
    config = capture.config
    adc = config.adc_samples_per_chirp
    kernel = np.exp(-2j * np.pi * target * np.arange(adc) / adc).astype(np.complex64)
    column = np.empty((capture.n_frames, config.chirps_per_frame), dtype=np.complex64)
    for index, frame in enumerate(capture):
        np.matmul(frame, kernel, out=column[index])
    return unwrap_phase(np.angle(column.reshape(-1).astype(np.complex128)))


def locate_target(capture) -> tuple[int, np.ndarray]:
    """Strongest range bin of the capture and its unwrapped per-chirp phase.

    The one place that decides which bin carries the vibration. capture is
    an IFCapture or a CaptureFile: anything with config, n_frames and
    iteration over its frames, which happens twice: a BinSearch pass, then
    demodulate_bin on the winning bin. Beyond the frames it holds about one
    frame's bin magnitudes and one sample per chirp. It picks the bin
    select_target_bin picks on range_fft's profile, and the phase of
    extract_phase_series up to float32 rounding.
    """
    source = getattr(capture, "path", "in-memory capture")
    if capture.n_frames == 0:
        raise ValueError(f"empty capture: {source}")
    search = BinSearch(capture.config)
    for frame in capture:
        search.add(frame)
    target = search.target(source)
    del search  # its frame buffers, before the demodulation allocates
    return target, demodulate_bin(capture, target)


def trace_from_phase(
    phase: np.ndarray, config: ChirpConfig, preprocess: bool = True
) -> VibrationTrace:
    """Optional two-stage outlier cleanup, then zero-mean displacement.

    The output sample rate is the chirp rate (chirps_per_frame / frame_period).
    """
    rate = config.effective_sampling_rate
    if preprocess:
        cleaned = remove_beginning_outlier(AudioBuffer(phase, rate), config.chirps_per_frame)
        phase = remove_periodic_outliers(cleaned, config.chirps_per_frame).samples
    return VibrationTrace(phase_to_displacement(phase, config.wavelength), rate)


def extract_vibration(capture: IFCapture, preprocess: bool = True) -> VibrationTrace:
    """Full recovery pipeline from capture to zero-mean displacement trace.

    locate_target's strongest bin and its unwrapped phase, then optional
    two-stage outlier cleanup and phase-to-displacement conversion.
    """
    return trace_from_phase(locate_target(capture)[1], capture.config, preprocess)
