"""Vibration recovery from IF captures: target-bin search, phase extraction, outlier cleanup."""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

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
    return column_phase(profile[bin_index])


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
    """The range-FFT bin search, fed one frame at a time.

    A TargetTracker feeds it frame 0, to name a leading bin, and every
    frame only when its bound cannot prove that this bin wins the search of
    every frame.

    add sums each range bin's float64 magnitude over one frame's chirps,
    equal bit for bit to np.abs(np.fft.fft(frame.astype(np.complex128),
    axis=1)[:, :bins]).sum(axis=0), and adds that frame sum into the float64
    strength, DC to Nyquist. It returns the frame, so map(search.add, frames)
    searches a stream on its way. Every step writes into buffers made once,
    since the FFT's own scratch would otherwise be mapped and unmapped on
    every frame. The chirps are transformed _SEARCH_ROWS at a time. A frame
    that is not finite leaves a strength that is not finite, which target
    reports as one error, without numpy warnings; a finite complex64 frame
    cannot overflow these float64 sums at ChirpConfig's cap.
    """

    def __init__(self, config: ChirpConfig) -> None:
        chirps, adc = config.chirps_per_frame, config.adc_samples_per_chirp
        rows = min(chirps, _SEARCH_ROWS)
        self._bins = adc // 2 + 1
        self._wide = np.empty((rows, adc), dtype=np.complex128)
        self._spectrum = np.empty_like(self._wide)
        self._magnitude = np.empty((chirps, self._bins))
        self.strength = np.zeros(self._bins)

    def add(self, frame: np.ndarray) -> np.ndarray:
        rows = len(self._wide)
        with np.errstate(invalid="ignore"):
            for start in range(0, len(frame), rows):
                n = min(rows, len(frame) - start)
                np.copyto(self._wide[:n], frame[start : start + n])
                np.fft.fft(self._wide[:n], axis=1, out=self._spectrum[:n])
                np.abs(self._spectrum[:n, : self._bins], out=self._magnitude[start : start + n])
        self.strength += self._magnitude.sum(axis=0)
        return frame

    def target(self, source) -> int:
        """The strongest bin so far, DC excluded; source names the capture in errors."""
        if not np.isfinite(self.strength).all():
            raise ValueError(f"capture samples are not finite or too large: {source}")
        try:
            return _strongest_bin(self.strength)
        except ValueError as exc:
            raise ValueError(f"{exc}: {source}") from None


# OpenBLAS runs a complex gemv of this many elements or more on its threads,
# which go on spinning after the call.
_BLAS_THREAD_ELEMENTS = 4096


def _bin_kernel(target: int, adc: int) -> np.ndarray:
    """The complex64 single-bin DFT row of bin target."""
    return np.exp(-2j * np.pi * target * np.arange(adc) / adc).astype(np.complex64)


def _demodulate(rows: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> None:
    """out = rows @ kernel, bit for bit, in blocks that keep BLAS on this thread.

    With a _bin_kernel, this demodulates one bin of a frame's chirps, a
    single-bin DFT. Whole-frame calls would wake a BLAS worker that spins
    beside the caller. The whole blocks, of the most rows in multiples of 8
    (at least 8) that stay under the BLAS threading size, run in one batched
    matmul and the rest in one more; a gemv gives each row the same bits
    whichever rows share its call. A last block of one row is run as the
    last two rows, and a frame of one row as a dot product. Samples that are
    not finite give what they give, without numpy warnings.
    """
    n, adc = rows.shape
    step = 8 * max(1, (_BLAS_THREAD_ELEMENTS - 1) // (8 * adc))
    body = n - n % step
    # a one-row matmul is a dot product with other bits than gemv's
    last = n - 2 if n - body == 1 and n > 1 else body
    with np.errstate(all="ignore"):
        if body:
            np.matmul(rows[:body].reshape(-1, step, adc), kernel, out=out[:body].reshape(-1, step))
        if last < n:
            np.matmul(rows[last:], kernel, out=out[last:])


def column_phase(column: np.ndarray) -> np.ndarray:
    """The unwrapped per-chirp phase of a demodulated column, in chirp order."""
    return unwrap_phase(np.angle(column.reshape(-1).astype(np.complex128)))


def restamp_column(rows: np.ndarray, target: int, column: np.ndarray, log) -> None:
    """Demodulate again, in place in column, the chirps an artifact log stamped.

    rows is chirp 0 of every frame, [n_frames, adc] complex64, as
    stamp_artifacts left it after stamping log, and column the clean
    capture's demodulation at target, as a TargetTracker gives it. Each
    event's row is demodulated again, one call per event, as row 0 of a
    zero-filled block of two rows, a gemv, which gives it the bits of its
    frame's _demodulate call whichever rows share that call; a capture of
    one chirp per frame has a one-row block, a dot product, as its frames
    do. So column ends equal bit for bit to the stamped capture's
    demodulation, and no capture is read.
    """
    kernel = _bin_kernel(target, rows.shape[1])
    block = np.zeros((min(column.shape[1], 2), rows.shape[1]), dtype=np.complex64)
    demodulated = np.empty(len(block), dtype=np.complex64)
    for event in log:
        block[0] = rows[event.frame]
        _demodulate(block, kernel, demodulated)
        column[event.frame, 0] = demodulated[0]


_U32 = float(np.finfo(np.float32).eps) / 2  # float32 unit roundoff, 2^-24


def _gamma(n: int) -> float:
    """The worst-case relative error of n float32 roundings, n * u / (1 - n * u)."""
    return n * _U32 / (1 - n * _U32)


# The proof. For a chirp x of frame 1 on, let X be its exact DFT and
# r = sqrt(adc * sum|x|^2), so sum_k |X_k|^2 = r^2 (Parseval) and
# |X_k|^2 <= r^2 - |X_g|^2 for k != g. Only two values keep float32 bits:
# y, the float32 matmul at g, is within 2 gamma(2 adc + 4) r of X_g, and E,
# the float32 energy, is at least (1 - gamma(2 adc)) sum|x|^2.
# - c = 2 gamma(2 adc + 4), relative, per chirp, is the matmul's term, and
#   c/2 covers E's. So norm = sqrt(adc E / (1 - c/2)) + t is at least
#   r + t/2, low = |y| - c norm - t is at most |X_g|, and
#   rest = sqrt(norm^2 - max(low, 0)^2) is at least |X_k| for k != g.
# - t = adc 2^-60, absolute, for underflow: a float32 step's is at most
#   2^-126, and the energy's moves the norm by under adc 2^-61.
# - delta = 2^-28 + n_frames 2^-50, relative, once, to norms + strengths,
#   for the float64 steps. A search of every frame adds to bin k the float64
#   magnitude of the float64 FFT, within 2^-30 r of |X_k| (far above
#   pocketfft's error and the magnitude's rounding; 2^-30 t/2 holds their
#   underflow). So each chirp adds at least low - 2^-30 norm to g's frame
#   sum and at most rest + 2^-30 norm to any other bin's. The search's sums
#   of g's and another bin's magnitudes, over a frame and then over the
#   frames, and the sums of low, rest and norm here, are each off by at most
#   gamma64(chirps + n_frames + 16) of norms + strengths, where chirps <=
#   2^20 at ChirpConfig's cap. So 2^-28 holds the 2^-30 on each side and
#   the five sums' chirp terms, and n_frames 2^-50 their frame terms.
# So g wins the search of every frame when its frame-0 strength plus the
# summed low beats the best other frame-0 strength plus the summed rest by
# more than delta (norms + strengths).
def _certificate_terms(adc: int, n_frames: int) -> tuple[float, float, float]:
    """The certificate's c, t and delta for n_frames frames of chirps of adc samples."""
    return 2 * _gamma(2 * adc + 4), adc * 2.0**-60, 2.0**-28 + n_frames * 2.0**-50


class TargetTracker:
    """locate_target's one streamed pass: the target bin and its demodulated column.

    Fed one frame at a time with add, which returns the frame, so
    map(tracker.add, frames) tracks a stream on its way. Frame 0 goes through
    a BinSearch, whose strongest bin g leads. Every frame is demodulated at g
    into the column. Each later chirp x also bounds every other bin: by
    Parseval, |X_k| <= sqrt(adc * sum|x|^2 - |X_g|^2) for k != g. Three error
    terms make that a proof (the comment above _certificate_terms): c,
    relative to each chirp's norm, for the float32 matmul and energy; t,
    absolute, for underflow; and delta, relative to the summed norms and
    strengths, once, for the float64 ones. When g's frame-0 strength plus
    the summed lower bounds on |X_g| beats the best other frame-0 strength
    plus the summed bounds on the other bins, by that margin, g is the bin a
    BinSearch of every frame returns and no other frame is transformed.

    The same margin, with n_frames - 1 times frame 0's own terms, predicts
    the result. When it fails, as where noise swamps the target, the bound
    is skipped and every later frame is added to the frame-0 search as it
    goes by, in frame order, so the search sums the bits a search of every
    frame sums. Captures whose frame 0 names no bin (not finite, all DC, or
    one sample per chirp) are searched that way too. When the prediction is
    wrong and the bound fails, result reads frames 1 on again for that
    search. Either way the capture is demodulated again only if the search
    picks another bin. Each error is the search's own, or result's, with
    the search's message, for a column that is not finite.
    """

    def __init__(self, config: ChirpConfig, n_frames: int) -> None:
        chirps, adc = config.chirps_per_frame, config.adc_samples_per_chirp
        self._adc = adc
        self._search = BinSearch(config)
        self._column = np.empty((n_frames, chirps), dtype=np.complex64)
        self._energy = np.empty(chirps, dtype=np.float32)
        self._frames = 0
        self._lead = None  # g, found from frame 0
        self._kernel = None
        self._c, self._t, self._delta = _certificate_terms(adc, n_frames)
        self._scale = adc / (1 - self._c / 2)
        # the summed lower bounds on |X_g|, bounds on the other bins, and
        # norms over frames 1 on
        self._sums = (0.0, 0.0, 0.0)
        # whether every frame goes to the search as it goes by
        self._streamed = True

    def add(self, frame: np.ndarray) -> np.ndarray:
        index = self._frames
        self._frames += 1
        if index == 0 or self._streamed:
            self._search.add(frame)
        if index == 0:
            try:
                self._lead = self._search.target(None)
            except ValueError:  # no bin: every frame is searched
                return frame
            self._kernel = _bin_kernel(self._lead, self._adc)
        if self._lead is None:
            return frame
        _demodulate(frame, self._kernel, self._column[index])
        if index and self._streamed:
            return frame
        terms = self._terms(frame, self._column[index])
        if index == 0:
            later = len(self._column) - 1
            self._streamed = not self._wins(*(later * term for term in terms))
        else:
            self._sums = tuple(total + term for total, term in zip(self._sums, terms))
        return frame

    def _terms(self, frame: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
        """One frame's summed lower bounds on |X_g|, upper bounds on the other bins, and norms."""
        samples = np.ascontiguousarray(frame).view(np.float32)
        with np.errstate(all="ignore"):
            np.einsum("ij,ij->i", samples, samples, out=self._energy)
            norm = np.sqrt(self._energy.astype(np.float64) * self._scale) + self._t
            low = np.abs(y.astype(np.complex128)) - (self._c * norm + self._t)
            lead = np.maximum(low, 0.0)
            # the product form keeps norm^2 - lead^2 accurate when the two are close
            rest = np.sqrt(np.maximum((norm - lead) * (norm + lead), 0.0))
            return float(low.sum()), float(rest.sum()), float(norm.sum())

    def _wins(self, won: float, lost: float, norms: float) -> bool:
        """Whether the bound's sums over frames 1 on prove that every frame's search picks g.

        theirs is the strongest frame-0 bin but g, DC excluded. A frame that
        is not finite leaves a sum NaN or infinite, which fails.
        """
        strength = self._search.strength
        others = np.delete(strength[1:], self._lead - 1)
        ours, theirs = float(strength[self._lead]), float(others.max(initial=0.0))
        margin = ours + won - theirs - lost - self._delta * (norms + ours + theirs)
        return margin > 0

    def result(self, frames, source) -> tuple[int, np.ndarray]:
        """The target bin and its [n_frames, chirps] complex64 column, once every frame is added.

        frames() returns a fresh iterator over the same frames. It is called
        only to search frames 1 on when the bound fails, and to demodulate
        the column again, in place, when the search picks another bin.
        source names the frames in errors. Finite samples whose float32
        demodulation overflows leave a column that is not finite, which is
        refused as samples too large.
        """
        certified = not self._streamed and self._wins(*self._sums)
        if not (self._streamed or certified):
            for frame in islice(frames(), 1, None):
                self._search.add(frame)
        target = self._lead if certified else self._search.target(source)
        if target != self._lead:
            kernel = _bin_kernel(target, self._adc)
            for frame, row in zip(frames(), self._column):
                _demodulate(frame, kernel, row)
        if not np.isfinite(self._column).all():
            raise ValueError(f"capture samples are not finite or too large: {source}")
        return target, self._column


def locate_target(capture) -> tuple[int, np.ndarray]:
    """Strongest range bin of the capture and its unwrapped per-chirp phase.

    capture is an IFCapture or a CaptureFile, anything with config, n_frames
    and iteration over its frames. A TargetTracker reads it once, and again
    only when the tracker asks for a second pass; errors name its path, or
    "in-memory capture". It picks the bin select_target_bin picks on
    range_fft's profile, and a phase within 1e-6 rad of extract_phase_series'
    (1e-5 where noise swamps the target), as the tests' TRACKER_CASES check.
    """
    source = getattr(capture, "path", "in-memory capture")
    if capture.n_frames == 0:
        raise ValueError(f"empty capture: {source}")
    tracker = TargetTracker(capture.config, capture.n_frames)
    for frame in capture:
        tracker.add(frame)
    target, column = tracker.result(capture.__iter__, source)
    return target, column_phase(column)


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
