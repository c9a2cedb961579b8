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

SPEED_OF_LIGHT = 299792458.0

# Widest sweep the simulated front end supports.
MAX_BANDWIDTH_HZ = 4.0e9

# Default timing: 32 ms frames of 256 chirps (8000 chirps per second) with a
# 10 percent idle gap at the end of each frame, swept over the full 4 GHz.
DEFAULT_FRAME_PERIOD_S = 0.032
DEFAULT_CHIRPS_PER_FRAME = 256
DEFAULT_CHIRP_DURATION_S = 0.9 * DEFAULT_FRAME_PERIOD_S / DEFAULT_CHIRPS_PER_FRAME
DEFAULT_SLOPE_HZ_PER_S = MAX_BANDWIDTH_HZ / DEFAULT_CHIRP_DURATION_S

# Receiver noise power relative to unit echo amplitude.
DEFAULT_NOISE_FLOOR_DB = -60.0

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
        for name in ("adc_samples_per_chirp", "chirps_per_frame"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value}")
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

    @property
    def natural_frequency(self) -> float:
        """Undamped natural frequency in rad/s."""
        return float(np.sqrt(self.stiffness / self.mass))


@dataclass
class VibrationTrace:
    """Surface displacement in meters sampled at a uniform rate."""

    displacement: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.displacement = np.asarray(self.displacement, dtype=np.float64)
        if self.displacement.ndim != 1:
            raise ValueError(f"displacement must be 1-D, got shape {self.displacement.shape}")
        if not np.isfinite(self.sample_rate) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.displacement.size and not np.all(np.isfinite(self.displacement)):
            raise ValueError("displacement contains non-finite values")

    def __len__(self) -> int:
        return self.displacement.size


@dataclass
class ArtifactEvent:
    """One injected phase spike, identified by its capture position."""

    kind: str
    frame: int
    chirp: int
    magnitude_rad: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ArtifactEvent":
        return cls(
            kind=str(d["kind"]),
            frame=int(d["frame"]),
            chirp=int(d["chirp"]),
            magnitude_rad=float(d["magnitude_rad"]),
        )


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

    @property
    def total_chirps(self) -> int:
        return self.frames.shape[0] * self.frames.shape[1]


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
    denom = _response_denominator(material, w)
    if np.any(denom == 0.0):
        raise ValueError("unbounded resonance")
    out = force / denom
    return float(out) if np.isscalar(omega) else out


def _response_denominator(material: SurfaceMaterial, w: np.ndarray) -> np.ndarray:
    k = material.stiffness
    m = material.mass
    c = material.damping
    return np.sqrt((k - m * w * w) ** 2 + (c * w) ** 2)


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
    if np.any(denom == 0.0):
        raise ValueError("unbounded resonance")
    displacement = np.fft.irfft(spectrum * (force_scale / denom), n=n)
    return VibrationTrace(displacement, audio.sample_rate)


def iter_if_frames(
    cfg: ChirpConfig,
    vibration: VibrationTrace,
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
    seed : anything accepted by numpy.random.default_rng.

    The per-chirp beat tone sits at f = 2 * slope * range / c and carries phase
    4 * pi * (range + displacement) / wavelength. Trailing samples that do not
    fill a whole frame are dropped. The scene is checked on the call; each
    [chirps_per_frame, adc_samples_per_chirp] frame is made only when the
    iterator reaches it. From the first frame on, one background thread
    draws the noise from the one seeded generator, in frame order and at
    most two frames ahead; numpy lets it draw while the caller works on the
    frames before. An error in a draw is raised here, and closing or
    dropping the iterator stops the thread, so the frames equal those of a
    single thread.
    """
    if len(vibration) == 0:
        raise ValueError("empty vibration trace")
    rate = cfg.effective_sampling_rate
    if abs(vibration.sample_rate - rate) > 1e-6 * rate:
        raise ValueError(
            f"vibration sampled at {vibration.sample_rate} Hz, config needs {rate} Hz"
        )
    if not np.isfinite(range_m) or range_m <= 0:
        raise ValueError(f"range_m must be positive, got {range_m}")
    if range_m >= max_unambiguous_range(cfg):
        raise ValueError("range aliasing")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must lie in [0, 1], got {reflectivity}")
    quarter_wave = cfg.wavelength / 4.0
    peak = float(np.max(np.abs(vibration.displacement)))
    if peak >= quarter_wave:
        raise ValueError(
            f"peak displacement {peak:.3e} m leaves the small-vibration regime "
            f"(quarter wavelength {quarter_wave:.3e} m)"
        )
    n_frames = len(vibration) // cfg.chirps_per_frame
    if n_frames == 0:
        raise ValueError("vibration shorter than one frame")

    rng = np.random.default_rng(seed)
    beat_freq = 2.0 * cfg.slope * range_m / SPEED_OF_LIGHT
    fast_time = np.arange(cfg.adc_samples_per_chirp) / cfg.adc_sample_rate
    beat = np.exp(2j * np.pi * beat_freq * fast_time)
    noise_sigma = 10.0 ** (noise_floor_db / 20.0)
    cpf = cfg.chirps_per_frame
    adc = cfg.adc_samples_per_chirp

    def draw() -> tuple[np.ndarray, np.ndarray]:
        return rng.standard_normal((cpf, adc)), rng.standard_normal((cpf, adc))

    def frames() -> Iterator[np.ndarray]:
        # imported here: concurrent.futures loads logging, which would add to
        # the start-up of every command, not only the ones that simulate
        from concurrent.futures import ThreadPoolExecutor

        # one worker runs the draws in the order they are submitted
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mmvib-noise")
        try:
            draws = deque(pool.submit(draw) for _ in range(min(2, n_frames)))
            for f in range(n_frames):
                real, imag = draws.popleft().result()
                if f + 2 < n_frames:
                    draws.append(pool.submit(draw))
                d = vibration.displacement[f * cpf : (f + 1) * cpf]
                phase = 4.0 * np.pi * (range_m + d) / cfg.wavelength
                chirps = reflectivity * np.exp(1j * phase)[:, None] * beat[None, :]
                noise = real + 1j * imag
                yield (chirps + (noise_sigma / np.sqrt(2.0)) * noise).astype(np.complex64)
        finally:
            pool.shutdown(cancel_futures=True)

    return frames()


def simulate_if_frames(
    cfg: ChirpConfig,
    vibration: VibrationTrace,
    range_m: float,
    reflectivity: float = 1.0,
    noise_floor_db: float = DEFAULT_NOISE_FLOOR_DB,
    seed=0,
) -> IFCapture:
    """Synthesize the IF capture of a reflector at range_m with the given vibration.

    The frames of iter_if_frames, with the same arguments, held in one array.
    """
    frames = iter_if_frames(cfg, vibration, range_m, reflectivity, noise_floor_db, seed)
    return IFCapture(_collect(frames, len(vibration) // cfg.chirps_per_frame, cfg), cfg, [])


def _collect(frames: Iterable[np.ndarray], n_frames: int, cfg: ChirpConfig) -> np.ndarray:
    """Copy a stream of n_frames frames into one [n_frames, chirps, adc] complex64 array."""
    out = np.empty((n_frames, cfg.chirps_per_frame, cfg.adc_samples_per_chirp), dtype=np.complex64)
    for index, frame in enumerate(frames):
        out[index] = frame
    return out


def _artifact_log(
    capture,
    beginning_magnitude_sigma: float,
    periodic_magnitude_sigma: float,
    seed,
    target: int | None = None,
) -> list[ArtifactEvent]:
    """The spikes to stamp on a clean capture: which chirp rows and by what angle.

    capture is anything locate_target reads. The clean phase sigma is found
    only when some magnitude is non-zero, from the target bin when it is
    given and by locate_target otherwise.
    """
    if beginning_magnitude_sigma < 0 or periodic_magnitude_sigma < 0:
        raise ValueError("artifact magnitudes must be >= 0")
    if beginning_magnitude_sigma == 0 and periodic_magnitude_sigma == 0:
        return []

    # vib_extract imports this module, so the extraction core is imported here
    from .vib_extract import demodulate_bin, locate_target

    phase = locate_target(capture)[1] if target is None else demodulate_bin(capture, target)
    sigma = float(phase.std())
    rng = np.random.default_rng(seed)
    plan = [("beginning", 0, beginning_magnitude_sigma)] if beginning_magnitude_sigma > 0 else []
    if periodic_magnitude_sigma > 0:
        plan += [("periodic", f, periodic_magnitude_sigma) for f in range(capture.n_frames)]
    # one jitter draw per spike, in log order
    return [
        ArtifactEvent(kind, frame, 0, float(multiple * sigma * rng.uniform(0.75, 1.25)))
        for kind, frame, multiple in plan
    ]


def _rotation(event: ArtifactEvent) -> np.complex64:
    return np.exp(1j * event.magnitude_rad).astype(np.complex64)


def inject_artifacts(
    capture: IFCapture,
    beginning_magnitude_sigma: float,
    periodic_magnitude_sigma: float,
    seed=0,
) -> IFCapture:
    """Stamp capture-start and frame-start phase spikes onto the capture, in place.

    Magnitudes are multiples of the standard deviation of the clean capture's
    target-bin phase, as found by the extraction core before any stamping. A
    spike rotates every sample of chirp 0 of the affected frame, so it lands
    directly on the extracted phase series; no other sample changes. Each
    spike gets a small seeded magnitude jitter and is recorded in the artifact
    log, which replaces the capture's log. Returns the same capture object, so
    a caller that needs the clean capture afterwards passes a copy. With both
    magnitudes zero no sample changes and the log is emptied.
    """
    log = _artifact_log(capture, beginning_magnitude_sigma, periodic_magnitude_sigma, seed)
    for event in log:
        capture.frames[event.frame, event.chirp, :] *= _rotation(event)
    capture.artifact_log = log
    return capture


def stamp_capture_file(
    path, target: int, beginning_magnitude_sigma: float, periodic_magnitude_sigma: float, seed=0
) -> list[ArtifactEvent]:
    """inject_artifacts on a capture container, in place; returns the artifact log.

    target is the container's target bin, as locate_target finds it. The
    clean sigma comes from demodulating that bin in one streamed pass over
    the file. Each spike is then a seek, read, multiply and write of one
    chirp row, so the file ends up byte for byte as save_capture would write
    the stamped capture. The sidecar is left to the caller.
    """
    capture = CaptureFile(path)
    log = _artifact_log(capture, beginning_magnitude_sigma, periodic_magnitude_sigma, seed, target)
    cfg = capture.config
    row = np.empty(cfg.adc_samples_per_chirp, dtype=np.complex64)
    with open(capture.path, "r+b") as fh:
        for event in log:
            offset = _CAPTURE_HEADER.size + (event.frame * cfg.chirps_per_frame + event.chirp) * row.nbytes
            fh.seek(offset)
            if fh.readinto(row) != row.nbytes:
                raise ValueError(f"truncated capture file: {capture.path}")
            row *= _rotation(event)
            fh.seek(offset)
            fh.write(row)
    return log


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
    sidecar = {"seed": seed, "artifact_log": [event.to_dict() for event in artifact_log]}
    with open(_sidecar_path(Path(path)), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def save_capture(capture: IFCapture, path, seed: int | None = None) -> None:
    """Write the binary capture container and its artifact-log JSON sidecar."""
    write_capture_frames(path, capture.config, capture.frames)
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
    """Read a capture container written by save_capture, with its artifact log.

    The container is read through CaptureFile, so its checks come before the
    capture is allocated. A sidecar that exists but does not parse is a
    ValueError naming it.
    """
    reader = CaptureFile(path)
    frames = _collect(reader, reader.n_frames, reader.config)
    log: list[ArtifactEvent] = []
    sidecar = _sidecar_path(reader.path)
    if sidecar.exists():
        with open(sidecar, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
                log = [ArtifactEvent.from_dict(d) for d in data.get("artifact_log", [])]
            except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"malformed capture sidecar {sidecar}: {exc!r}") from None
    return IFCapture(frames, reader.config, log)


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".artifacts.json")
