"""FMCW capture synthesis for a surface vibrating under acoustic forcing.

The scene is a single static reflector whose micron-scale displacement
modulates the phase of the intermediate-frequency beat signal chirp by chirp.
"""

from __future__ import annotations

import json
import os
import struct
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .signal_core import AudioBuffer
from .synth import usable_cpus

SPEED_OF_LIGHT = 299792458.0

# Widest sweep the simulated front end supports.
MAX_BANDWIDTH_HZ = 4.0e9
# Most samples in one [chirps_per_frame, adc_samples_per_chirp] frame: 8 MiB
# of complex64, four times a frame of 1024 chirps at the default 256 samples.
MAX_FRAME_SAMPLES = 1 << 20

# Default timing: 32 ms frames of 256 chirps (8000 chirps per second) with a
# 10 percent idle gap at the end of each frame, swept over the full 4 GHz.
DEFAULT_FRAME_PERIOD_S = 0.032
DEFAULT_CHIRPS_PER_FRAME = 256
DEFAULT_CHIRP_DURATION_S = 0.9 * DEFAULT_FRAME_PERIOD_S / DEFAULT_CHIRPS_PER_FRAME
DEFAULT_SLOPE_HZ_PER_S = MAX_BANDWIDTH_HZ / DEFAULT_CHIRP_DURATION_S

# Receiver noise power relative to unit echo amplitude.
DEFAULT_NOISE_FLOOR_DB = -60.0
# A noise floor at or above this puts the noise sigma past the largest
# complex64 component.
_MAX_NOISE_FLOOR_DB = 20.0 * float(np.log10(np.finfo(np.float32).max))

_CAPTURE_MAGIC = b"MMVIBCP1"
_CAPTURE_HEADER = struct.Struct("<8sddddIIII")


@dataclass
class ChirpConfig:
    """FMCW waveform timing and sampling parameters."""

    carrier_freq: float = 60.0e9
    slope: float = DEFAULT_SLOPE_HZ_PER_S
    chirp_duration: float = DEFAULT_CHIRP_DURATION_S
    adc_samples_per_chirp: int = 256
    chirps_per_frame: int = DEFAULT_CHIRPS_PER_FRAME
    frame_period: float = DEFAULT_FRAME_PERIOD_S

    def __post_init__(self) -> None:
        for name in ("carrier_freq", "slope", "chirp_duration", "frame_period"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not np.isfinite(self.wavelength):
            raise ValueError(
                f"carrier_freq {self.carrier_freq} gives a wavelength that is not finite"
            )
        for name in ("adc_samples_per_chirp", "chirps_per_frame"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value}")
        frame = self.chirps_per_frame * self.adc_samples_per_chirp
        if frame > MAX_FRAME_SAMPLES:
            raise ValueError(f"chirps_per_frame * adc_samples_per_chirp = {frame} exceeds "
                             f"{MAX_FRAME_SAMPLES} samples per frame")
        if self.chirps_per_frame * self.chirp_duration > self.frame_period * (1 + 1e-12):
            raise ValueError(
                f"chirps_per_frame * chirp_duration = "
                f"{self.chirps_per_frame * self.chirp_duration:.6e} s exceeds "
                f"frame_period {self.frame_period:.6e} s"
            )
        if self.bandwidth > MAX_BANDWIDTH_HZ * (1 + 1e-12):
            raise ValueError(
                f"swept bandwidth {self.bandwidth:.3e} Hz exceeds {MAX_BANDWIDTH_HZ:.1e} Hz"
            )

    @property
    def bandwidth(self) -> float:
        """Swept bandwidth in Hz."""
        return self.slope * self.chirp_duration

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in meters at the sweep start frequency."""
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def effective_sampling_rate(self) -> float:
        """Vibration sampling rate in Hz: one phase sample per chirp."""
        return self.chirps_per_frame / self.frame_period

    @property
    def adc_sample_rate(self) -> float:
        """Fast-time ADC rate in Hz."""
        return self.adc_samples_per_chirp / self.chirp_duration


@dataclass(frozen=True)
class SurfaceMaterial:
    """Lumped spring-mass-damper model of the sounding surface."""

    mass: float
    stiffness: float
    damping: float
    reflectivity: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.mass) or self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not np.isfinite(self.stiffness) or self.stiffness <= 0:
            raise ValueError(f"stiffness must be positive, got {self.stiffness}")
        if not np.isfinite(self.damping) or self.damping < 0:
            raise ValueError(f"damping must be >= 0, got {self.damping}")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(f"reflectivity must lie in [0, 1], got {self.reflectivity}")


class VibrationTrace(AudioBuffer):
    """Surface displacement sampled at a uniform rate: samples are meters."""

    @property
    def displacement(self) -> np.ndarray:
        return self.samples


@dataclass
class ArtifactEvent:
    """One injected phase spike, identified by its capture position."""

    kind: str
    frame: int
    chirp: int
    magnitude_rad: float


@dataclass
class IFCapture:
    """Complex IF samples laid out [n_frames, chirps_per_frame, adc_samples]."""

    frames: np.ndarray
    config: ChirpConfig
    artifact_log: list[ArtifactEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.complex64)
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be 3-D, got shape {self.frames.shape}")
        _, chirps, samples = self.frames.shape
        if chirps != self.config.chirps_per_frame:
            raise ValueError(
                f"frame axis 1 is {chirps}, config says {self.config.chirps_per_frame}"
            )
        if samples != self.config.adc_samples_per_chirp:
            raise ValueError(
                f"frame axis 2 is {samples}, config says {self.config.adc_samples_per_chirp}"
            )

    def __iter__(self) -> Iterator[np.ndarray]:
        """The frames in order, as CaptureFile yields them from a container."""
        return iter(self.frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def range_resolution(cfg: ChirpConfig) -> float:
    """Range bin size in meters: c / (2 * swept bandwidth)."""
    return SPEED_OF_LIGHT / (2.0 * cfg.slope * cfg.chirp_duration)


def max_unambiguous_range(cfg: ChirpConfig) -> float:
    """Largest target range whose beat frequency stays below half the ADC rate."""
    return range_resolution(cfg) * (cfg.adc_samples_per_chirp / 2.0)


def forced_response_amplitude(material: SurfaceMaterial, force: float, omega) -> np.ndarray | float:
    """Steady-state displacement amplitude of the driven surface.

    X(w) = F / sqrt((k - m w^2)^2 + (c w)^2) for drive frequency w in rad/s.
    """
    w = np.asarray(omega, dtype=np.float64)
    out = force / _response_denominator(material, w)
    return float(out) if np.isscalar(omega) else out


def _response_denominator(material: SurfaceMaterial, w: np.ndarray) -> np.ndarray:
    """F / X(w) per unit force; a drive frequency where it is 0 is a ValueError."""
    k = material.stiffness
    m = material.mass
    c = material.damping
    # a denominator past the float64 range is inf, which gives zero displacement
    with np.errstate(over="ignore"):
        denom = np.sqrt((k - m * w * w) ** 2 + (c * w) ** 2)
    if np.any(denom == 0.0):
        raise ValueError("unbounded resonance")
    return denom


def displacement_from_audio(
    audio: AudioBuffer, material: SurfaceMaterial, force_scale: float
) -> VibrationTrace:
    """Drive the surface model with audio and return its displacement response.

    The audio is treated as a force waveform scaled by force_scale (newtons per
    unit sample amplitude); each frequency component is scaled by the
    steady-state response magnitude with zero phase shift.
    """
    if len(audio) == 0:
        raise ValueError("empty audio")
    if not np.isfinite(force_scale):
        raise ValueError(f"force_scale must be finite, got {force_scale}")
    n = len(audio)
    spectrum = np.fft.rfft(audio.samples)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / audio.sample_rate)
    denom = _response_denominator(material, omega)
    displacement = np.fft.irfft(spectrum * (force_scale / denom), n=n)
    return VibrationTrace(displacement, audio.sample_rate)


def _frame_rng(root: np.random.SeedSequence, f: int) -> np.random.Generator:
    """Frame f's PCG64 generator: root's child f, keyed without spawn, which counts children."""
    return np.random.default_rng(np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + (f,), pool_size=root.pool_size))


def iter_if_frames(
    cfg: ChirpConfig,
    vibration: AudioBuffer,
    range_m: float,
    reflectivity: float = 1.0,
    noise_floor_db: float = DEFAULT_NOISE_FLOOR_DB,
    seed=0,
) -> Iterator[np.ndarray]:
    """The IF capture of a reflector at range_m, one complex64 frame at a time.

    Parameters
    ----------
    cfg : chirp timing; the vibration must be sampled at cfg.effective_sampling_rate.
    vibration : surface displacement in meters, one sample per chirp.
    range_m : nominal radar-to-surface distance in meters.
    reflectivity : echo amplitude per unit transmit amplitude, in [0, 1].
    noise_floor_db : complex Gaussian noise power relative to unit echo amplitude.
    seed : an int, a sequence of ints or a numpy.random.SeedSequence; a
        Generator or BitGenerator is one stream, which cannot be keyed per
        frame, and is refused.

    The per-chirp beat tone sits at f = 2 * slope * range / c and carries phase
    4 * pi * (range + displacement) / wavelength. Trailing samples that do not
    fill a whole frame are dropped. The scene and the seed are checked on the
    call. Frame f depends on the scene, the seed and f alone: its noise is
    its own PCG64 stream's float32 normals, real and imaginary parts
    interleaved, scaled in place, and the echo is made in float64 and rounded
    once to complex64 before it is added. From the first frame on, min(CPUs
    this process may run on, 4) threads build the frames, at most two per
    thread ahead of the caller, and each is yielded in order as a new array,
    so no frame depends on the thread count. A frame's error is raised when
    it is reached; closing or dropping the iterator cancels the frames not
    started and waits for the threads to end.
    """
    n_frames = len(vibration) // cfg.chirps_per_frame
    if n_frames == 0:
        raise ValueError("vibration shorter than one frame")
    rate = cfg.effective_sampling_rate
    if abs(vibration.sample_rate - rate) > 1e-6 * rate:
        raise ValueError(
            f"vibration sampled at {vibration.sample_rate} Hz, config needs {rate} Hz"
        )
    if not np.isfinite(range_m) or range_m <= 0:
        raise ValueError(f"range_m must be positive, got {range_m}")
    if range_m >= max_unambiguous_range(cfg):
        raise ValueError(
            f"range aliasing: range_m {range_m} is not below the "
            f"{max_unambiguous_range(cfg):.6g} m the ADC rate resolves"
        )
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must lie in [0, 1], got {reflectivity}")
    if not noise_floor_db < _MAX_NOISE_FLOOR_DB:
        raise ValueError(
            f"noise_floor_db must be below {_MAX_NOISE_FLOOR_DB:.1f}, "
            f"the complex64 range, got {noise_floor_db}"
        )
    quarter_wave = cfg.wavelength / 4.0
    peak = float(np.max(np.abs(vibration.samples)))
    if peak >= quarter_wave:
        raise ValueError(
            f"peak displacement {peak:.3e} m leaves the small-vibration regime "
            f"(quarter wavelength {quarter_wave:.3e} m)"
        )
    try:
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    except TypeError:  # numpy raises a TypeError whose message leaves SeedSequence out
        raise ValueError(f"seed must be an int, a sequence of ints or a numpy.random.SeedSequence, "
                         f"got {type(seed).__name__}") from None

    beat_freq = 2.0 * cfg.slope * range_m / SPEED_OF_LIGHT
    fast_time = np.arange(cfg.adc_samples_per_chirp) / cfg.adc_sample_rate
    beat = np.exp(2j * np.pi * beat_freq * fast_time)
    noise_scale = np.float32(10.0 ** (noise_floor_db / 20.0) / np.sqrt(2.0))
    cpf = cfg.chirps_per_frame
    adc = cfg.adc_samples_per_chirp

    def build(f: int) -> np.ndarray:
        noise = _frame_rng(root, f).standard_normal((cpf, 2 * adc), dtype=np.float32)
        # a noise tail past complex64 becomes inf, which the bin search reports
        with np.errstate(over="ignore"):
            noise *= noise_scale
        frame = noise.view(np.complex64)
        d = vibration.samples[f * cpf : (f + 1) * cpf]
        phase = 4.0 * np.pi * (range_m + d) / cfg.wavelength
        echo = np.empty_like(frame)
        np.multiply((reflectivity * np.exp(1j * phase))[:, None], beat, out=echo,
                    casting="same_kind")
        return np.add(frame, echo, out=frame)

    def frames() -> Iterator[np.ndarray]:
        # imported here: concurrent.futures loads logging, which would add to
        # the start-up of every command, not only the ones that simulate
        from concurrent.futures import ThreadPoolExecutor

        # capped, so that the frames in flight, two per thread, do not grow with the machine
        workers = min(usable_cpus(), 4)
        pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="mmvib-noise")
        try:
            pending = deque()  # the futures of frames f, f + 1, ...
            for f in range(n_frames):
                for ahead in range(f + len(pending), min(f + 2 * workers, n_frames)):
                    pending.append(pool.submit(build, ahead))
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)

    return frames()


def simulate_if_frames(
    cfg: ChirpConfig,
    vibration: AudioBuffer,
    range_m: float,
    reflectivity: float = 1.0,
    noise_floor_db: float = DEFAULT_NOISE_FLOOR_DB,
    seed=0,
) -> IFCapture:
    """Synthesize the IF capture of a reflector at range_m with the given vibration.

    The frames of iter_if_frames, with the same arguments, held in one array.
    """
    frames = iter_if_frames(cfg, vibration, range_m, reflectivity, noise_floor_db, seed)
    frame = np.dtype((np.complex64, (cfg.chirps_per_frame, cfg.adc_samples_per_chirp)))
    return IFCapture(np.fromiter(frames, frame, count=len(vibration) // cfg.chirps_per_frame), cfg)


def stamp_artifacts(
    rows: np.ndarray,
    beginning_magnitude_sigma: float,
    periodic_magnitude_sigma: float,
    seed,
    phase: np.ndarray | None,
) -> list[ArtifactEvent]:
    """Stamp capture-start and frame-start phase spikes on rows in place; returns the log.

    rows is chirp 0 of every frame, [n_frames, adc_samples_per_chirp]
    complex64, the one chirp a spike rotates, such as a view into a capture.
    Magnitudes multiply the standard deviation of phase, the clean capture's
    unwrapped target-bin phase; with both zero, neither phase nor rows is read.
    """
    magnitudes = (beginning_magnitude_sigma, periodic_magnitude_sigma)
    if not all(np.isfinite(m) and m >= 0 for m in magnitudes):
        raise ValueError(f"artifact magnitudes must be finite and >= 0, got {magnitudes}")
    if beginning_magnitude_sigma == 0 and periodic_magnitude_sigma == 0:
        return []
    sigma = float(phase.std())
    rng = np.random.default_rng(seed)
    plan = [("beginning", 0, beginning_magnitude_sigma)] if beginning_magnitude_sigma > 0 else []
    if periodic_magnitude_sigma > 0:
        plan += [("periodic", f, periodic_magnitude_sigma) for f in range(len(rows))]
    # one jitter draw per spike, in log order
    log = [
        ArtifactEvent(kind, frame, 0, float(multiple * sigma * rng.uniform(0.75, 1.25)))
        for kind, frame, multiple in plan
    ]
    for event in log:
        rows[event.frame] *= np.exp(1j * event.magnitude_rad).astype(np.complex64)
    return log


def inject_artifacts(
    capture: IFCapture,
    beginning_magnitude_sigma: float,
    periodic_magnitude_sigma: float,
    seed=0,
) -> IFCapture:
    """stamp_artifacts on the capture's chirp 0 rows, with the phase locate_target finds.

    The phase is read from the clean capture, before any stamping, and only
    when a magnitude is non-zero, so zero magnitudes leave even a capture
    with no target as it was. A spike lands directly on the extracted phase
    series; no other chirp changes. The log replaces the capture's, and the
    same capture object is returned, so a caller that needs the clean
    capture afterwards passes a copy.
    """
    # vib_extract imports this module, so the extraction core is imported here
    from .vib_extract import locate_target

    magnitudes = (beginning_magnitude_sigma, periodic_magnitude_sigma)
    phase = locate_target(capture)[1] if any(magnitudes) else None
    capture.artifact_log = stamp_artifacts(capture.frames[:, 0], *magnitudes, seed, phase)
    return capture


def stamp_capture_file(path, config: ChirpConfig, rows: np.ndarray, log) -> None:
    """Write the stamped chirp 0 of each frame an artifact log names into a capture container.

    rows is chirp 0 of every frame, [n_frames, adc_samples_per_chirp]
    complex64, already rotated as the log stamps it (stamp_artifacts does
    that). Each logged frame's row is written over its chirp 0, so a
    container write_capture_frames wrote clean ends up byte for byte as
    save_capture writes the stamped capture. Nothing is read from the file,
    and the sidecar is left to the caller.
    """
    frame_bytes = config.chirps_per_frame * rows[0].nbytes
    with open(path, "r+b") as fh:
        for frame in dict.fromkeys(event.frame for event in log):
            fh.seek(_CAPTURE_HEADER.size + frame * frame_bytes)
            fh.write(rows[frame])


def write_capture_frames(path, config: ChirpConfig, frames: Iterable[np.ndarray]) -> int:
    """Write a capture container's header and body, one frame at a time.

    Each frame is a complex64 [chirps_per_frame, adc_samples_per_chirp]
    array, written as soon as it arrives; the header's frame count is filled
    in at the end. Returns the number of frames written.
    """
    with open(path, "wb") as fh:
        fh.write(_capture_header(config, 0))
        n_frames = 0
        for frame in frames:
            fh.write(np.ascontiguousarray(frame))
            n_frames += 1
        fh.seek(0)
        fh.write(_capture_header(config, n_frames))
    return n_frames


def write_artifact_sidecar(path, artifact_log: list[ArtifactEvent], seed: int | None = None) -> None:
    """Write the artifact-log JSON sidecar next to a capture container."""
    sidecar = {"seed": seed, "artifact_log": [asdict(event) for event in artifact_log]}
    path = Path(path)
    text = json.dumps(sidecar, indent=2) + "\n"
    path.with_name(path.name + ".artifacts.json").write_text(text, encoding="utf-8")


def save_capture(capture: IFCapture, path, seed: int | None = None) -> None:
    """Write the binary capture container and its artifact-log JSON sidecar."""
    write_capture_frames(path, capture.config, capture)
    write_artifact_sidecar(path, capture.artifact_log, seed)


def _capture_header(config: ChirpConfig, n_frames: int) -> bytes:
    return _CAPTURE_HEADER.pack(
        _CAPTURE_MAGIC,
        config.carrier_freq,
        config.slope,
        config.chirp_duration,
        config.frame_period,
        config.adc_samples_per_chirp,
        config.chirps_per_frame,
        n_frames,
        0,
    )


class CaptureFile:
    """A capture container read one frame at a time; the sidecar is not read.

    Opening reads the header and checks the magic and the frame count against
    the file size, so a short, over-long or mislabelled file is rejected
    before any of its body is read. Each iteration reopens the file and
    yields its frames in order, every one read into the same complex64
    [chirps_per_frame, adc_samples_per_chirp] buffer: a frame is valid until
    the next is read, so a caller that keeps one copies it. A file cut short
    after opening ends the iteration with a ValueError.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            header = fh.read(_CAPTURE_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
        if len(header) < _CAPTURE_HEADER.size:
            raise ValueError(f"truncated capture file: {self.path}")
        magic, carrier, slope, duration, period, adc, cpf, n_frames, _ = _CAPTURE_HEADER.unpack(header)
        if magic != _CAPTURE_MAGIC:
            raise ValueError(f"not a capture file, bad magic: {self.path}")
        try:
            self.config = ChirpConfig(
                carrier_freq=carrier,
                slope=slope,
                chirp_duration=duration,
                adc_samples_per_chirp=int(adc),
                chirps_per_frame=int(cpf),
                frame_period=period,
            )
        except ValueError as exc:
            raise ValueError(f"bad capture header, {exc}: {self.path}") from None
        self.n_frames = int(n_frames)
        if size != _CAPTURE_HEADER.size + self.n_frames * int(cpf) * int(adc) * 8:
            raise ValueError(f"truncated capture file: {self.path}")

    def __iter__(self) -> Iterator[np.ndarray]:
        frame = np.empty(
            (self.config.chirps_per_frame, self.config.adc_samples_per_chirp), dtype=np.complex64
        )
        with open(self.path, "rb") as fh:
            fh.seek(_CAPTURE_HEADER.size)
            for _ in range(self.n_frames):
                if fh.readinto(frame) != frame.nbytes:
                    raise ValueError(f"truncated capture file: {self.path}")
                yield frame


def load_capture(path) -> IFCapture:
    """Read a capture container into memory, as extract reads it; no sidecar is read.

    The container is read through CaptureFile, so its checks come before the
    capture is allocated, and the artifact log is empty.
    """
    reader = CaptureFile(path)
    cfg = reader.config
    frame = np.dtype((np.complex64, (cfg.chirps_per_frame, cfg.adc_samples_per_chirp)))
    return IFCapture(np.fromiter(reader, frame, count=reader.n_frames), cfg)
