"""Range profiling, target selection, phase recovery, and outlier cleanup."""

import sys
import threading
import warnings
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tone_capture, run_fresh, traced_peak
from mmvib import (
    CaptureFile,
    ChirpConfig,
    IFCapture,
    VibrationTrace,
    extract_phase_series,
    extract_vibration,
    inject_artifacts,
    load_capture,
    locate_target,
    phase_to_displacement,
    range_fft,
    range_resolution,
    remove_beginning_outlier,
    remove_periodic_outliers,
    save_capture,
    select_target_bin,
    simulate_if_frames,
    unwrap_phase,
)
import mmvib.cli
import mmvib.vib_extract
from mmvib.cli import MATERIAL_PRESETS, PipelineConfig, _sweep_variant, _write_capture
from mmvib.radar_sim import DEFAULT_FRAME_PERIOD_S, MAX_BANDWIDTH_HZ
from mmvib.vib_extract import BinSearch, TargetTracker, _certificate_terms, column_phase
from oracles import in_memory_capture, oracle_remove_periodic_outliers
from speechgen import make_speech_clip


def synthetic_capture(cfg: ChirpConfig, phases: np.ndarray, beat_bin: int = 20) -> IFCapture:
    """Capture whose chirps carry a prescribed per-chirp phase on one beat tone."""
    n_frames = len(phases) // cfg.chirps_per_frame
    used = phases[: n_frames * cfg.chirps_per_frame]
    t = np.arange(cfg.adc_samples_per_chirp) / cfg.adc_samples_per_chirp
    beat = np.exp(2j * np.pi * beat_bin * t)
    chirps = np.exp(1j * used)[:, None] * beat[None, :]
    frames = chirps.reshape(n_frames, cfg.chirps_per_frame, cfg.adc_samples_per_chirp)
    return IFCapture(frames.astype(np.complex64), cfg)


class TestRangeFft:
    def test_target_bin_forty(self, chirp_cfg):
        bin_size = range_resolution(chirp_cfg)
        cap = make_tone_capture(chirp_cfg, 500.0, range_m=40 * bin_size, duration_s=0.096)
        mean_mag = np.abs(range_fft(cap)).mean(axis=1)
        assert int(mean_mag.argmax()) == 40

    def test_profile_shape(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        assert range_fft(cap).shape == (129, cap.n_frames * chirp_cfg.chirps_per_frame)

    def test_zero_capture_zero_profile(self, chirp_cfg):
        cap = IFCapture(np.zeros((2, 256, 256), dtype=np.complex64), chirp_cfg)
        assert np.all(range_fft(cap) == 0)

    def test_global_rotation_invariant_magnitude(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        rotated = IFCapture(
            (cap.frames * np.exp(0.7j)).astype(np.complex64), chirp_cfg
        )
        np.testing.assert_allclose(
            np.abs(range_fft(rotated)), np.abs(range_fft(cap)), rtol=1e-4
        )

    def test_matches_whole_capture_fft(self, chirp_cfg):
        # frame by frame gives exactly the one-call FFT of every chirp
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096, noise_floor_db=-20.0)
        chirps = cap.frames.reshape(-1, chirp_cfg.adc_samples_per_chirp)
        reference = np.fft.fft(chirps, axis=1)[:, :129].T.astype(np.complex128)
        np.testing.assert_array_equal(range_fft(cap), reference)

    def test_capture_file_equals_the_loaded_capture(self, chirp_cfg, tmp_path):
        # a container read frame by frame gives the profile of the capture
        # loaded whole, in value and dtype
        path = tmp_path / "cap.bin"
        save_capture(inject_artifacts(make_tone_capture(chirp_cfg, 500.0, duration_s=0.096,
                                                        noise_floor_db=-20.0), 8.0, 8.0), path)
        streamed = range_fft(CaptureFile(path))
        loaded = range_fft(load_capture(path))
        assert streamed.dtype == loaded.dtype == np.complex128
        np.testing.assert_array_equal(streamed, loaded)

    def test_peak_memory_near_one_capture(self, chirp_cfg):
        # the complex128 half spectrum is as large as the complex64 capture;
        # one frame at a time adds only one frame's spectrum on top of it
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.512)
        profiles = []
        peak = traced_peak(lambda: profiles.append(range_fft(cap)))
        assert profiles[0].shape == (129, cap.n_frames * chirp_cfg.chirps_per_frame)
        assert peak < 1.5 * cap.frames.nbytes


class TestSelectTargetBin:
    def test_simulated_target(self, chirp_cfg):
        bin_size = range_resolution(chirp_cfg)
        cap = make_tone_capture(chirp_cfg, 500.0, range_m=40 * bin_size, duration_s=0.096)
        assert select_target_bin(range_fft(cap)) == 40

    def test_tie_breaks_low(self):
        bins = np.zeros((32, 4), dtype=complex)
        bins[10] = 1.0
        bins[20] = 1.0
        assert select_target_bin(bins) == 10

    def test_dc_excluded(self):
        bins = np.zeros((32, 4), dtype=complex)
        bins[0] = 100.0
        bins[7] = 1.0
        assert select_target_bin(bins) == 7

    def test_no_target(self):
        with pytest.raises(ValueError, match="no target"):
            select_target_bin(np.zeros((32, 4), dtype=complex))


class TestPhaseSeries:
    def test_static_constant(self, chirp_cfg):
        phases = np.full(512, 0.3)
        cap = synthetic_capture(chirp_cfg, phases)
        profile = range_fft(cap)
        series = extract_phase_series(profile, select_target_bin(profile))
        np.testing.assert_allclose(series, 0.3, atol=1e-6)

    def test_linear_ramp_recovered(self, chirp_cfg):
        # a steadily receding target wraps many times; unwrapping restores the line
        ramp = np.linspace(0.0, 25.0, 512)
        cap = synthetic_capture(chirp_cfg, ramp)
        profile = range_fft(cap)
        series = extract_phase_series(profile, select_target_bin(profile))
        np.testing.assert_allclose(series, ramp, atol=1e-5)

    def test_bin_bounds(self, chirp_cfg):
        cap = synthetic_capture(chirp_cfg, np.zeros(256))
        profile = range_fft(cap)
        with pytest.raises(ValueError):
            extract_phase_series(profile, 500)


def sweep_chirp(chirps_per_frame: int) -> ChirpConfig:
    """The chirp a chirps_per_frame sweep runs at that chirp count."""
    return _sweep_variant(PipelineConfig(), "chirps_per_frame", chirps_per_frame).chirp


def reference_target(capture: IFCapture) -> tuple[int, np.ndarray]:
    """Target bin and phase by way of the full range profile."""
    profile = range_fft(capture)
    target = select_target_bin(profile)
    return target, extract_phase_series(profile, target)


# float32 sums and a complex64 dot product against the complex128 profile
LOCATE_PHASE_ATOL = 1e-6


class TestLocateTarget:
    @pytest.mark.parametrize("chirps_per_frame", [256, 512])
    def test_frame_strengths_equal_the_complex64_fft(self, chirps_per_frame):
        cfg = sweep_chirp(chirps_per_frame)
        cap = make_tone_capture(cfg, 500.0, duration_s=0.192, noise_floor_db=-40.0)
        bins = cfg.adc_samples_per_chirp // 2 + 1
        total = np.zeros(bins)
        for frame in cap.frames:
            # a fresh search holds one frame's float32 sums, exactly, in float64
            search = BinSearch(cfg)
            search.add(frame)
            want = np.abs(np.fft.fft(frame, axis=1)[:, :bins]).sum(axis=0, dtype=np.float32)
            assert search.strength.dtype == np.float64
            assert search.strength.astype(np.float32).tobytes() == want.tobytes()
            total += want
        search = BinSearch(cfg)
        for frame in cap:
            search.add(frame)
        assert search.strength.tobytes() == total.tobytes()

    def test_empty_capture(self, chirp_cfg):
        cap = IFCapture(np.zeros((0, 256, 256), dtype=np.complex64), chirp_cfg)
        with pytest.raises(ValueError, match="empty capture"):
            locate_target(cap)

    def test_dc_only_is_no_target(self, chirp_cfg):
        cap = IFCapture(np.ones((1, 256, 256), dtype=np.complex64), chirp_cfg)
        with pytest.raises(ValueError, match="no target"):
            locate_target(cap)

    def test_peak_memory_below_a_tenth_of_the_capture(self, chirp_cfg):
        # one frame's spectrum and one sample per chirp, never a profile
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=2.048)
        assert cap.n_frames >= 32
        assert traced_peak(lambda: locate_target(cap)) < 0.1 * cap.frames.nbytes


def tracker_scene(noise=-60.0, range_m=1.5, preset="pet", sigmas=(0.0, 0.0), chirps=256, adc=256,
                  chirp=None, seconds=0.1):
    """The simulate command's scene on a speech clip, about three frames of it by default: its
    PipelineConfig and its audio.

    Unless chirp is given, the chirp is scaled to the frame's chirp count over the full bandwidth.
    """
    if chirp is None:
        duration = 0.9 * DEFAULT_FRAME_PERIOD_S / chirps
        chirp = replace(ChirpConfig(), chirps_per_frame=chirps, adc_samples_per_chirp=adc,
                        chirp_duration=duration, slope=MAX_BANDWIDTH_HZ / duration)
    config = PipelineConfig(chirp=chirp, material=MATERIAL_PRESETS[preset], range_m=range_m,
                            noise_floor_db=noise, beginning_sigma=sigmas[0],
                            periodic_sigma=sigmas[1])
    return config, make_speech_clip(3, duration=seconds)


def two_tones(first: float, rest: float) -> IFCapture:
    """Three frames of bins 30 and 50, bin 50 first times as strong in frame 0, rest after."""
    rng = np.random.default_rng(1)
    t = np.arange(256) / 256
    gain = np.array([first, rest, rest])[:, None, None]
    frames = (np.exp(2j * np.pi * 30 * t) + gain * np.exp(2j * np.pi * 50 * t)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (3, 256, 1)))
    noise = 1e-3 * rng.standard_normal((2, 3, 256, 256))
    return IFCapture((frames + noise[0] + 1j * noise[1]).astype(np.complex64), ChirpConfig())


def tone_capture(frame: int | None = None, value: float = 0.0) -> IFCapture:
    """Three frames of a 500 Hz tone at -40 dB, the last sample of a frame set to value."""
    cap = make_tone_capture(ChirpConfig(), 500.0, duration_s=0.096, noise_floor_db=-40.0)
    if frame is not None:
        cap.frames[frame, -1, -1] = value
    return cap


def zero_first_frame() -> IFCapture:
    cap = tone_capture()
    cap.frames[0] = 0
    return cap


def noisy_after_frame_0() -> IFCapture:
    """tone_capture with noise at 10 dB added to every frame after frame 0."""
    cap = tone_capture()
    noise = np.random.default_rng(2).standard_normal((2, 2, 256, 256)) * np.sqrt(5.0)
    cap.frames[1:] += (noise[0] + 1j * noise[1]).astype(np.complex64)
    return cap


# How many times locate_target reads the capture on each path: certified,
# where the bound proves frame 0's leading bin and frame 0 is the only one
# transformed; streamed, where frame 0 predicts that the bound fails and every
# frame is searched as it goes by; fallback, where the predicted bound fails
# and frames 1 on are read again for that search. "moved" marks a search that
# names another bin than frame 0's, which reads the capture once more to
# demodulate it.
PASSES = {"certified": 1, "streamed": 1, "streamed, moved": 2, "fallback": 2,
          "fallback, moved": 3}
# Each case's capture, or its scene, and its path in PASSES or the error it
# raises, before the capture's name. A scene's capture is in_memory_capture of
# it with seed key SCENE_SEED.
TRACKER_CASES = {
    **{f"noise{db}": (partial(tracker_scene, noise=db), path)
       for db, path in [(-60, "certified"), (-20, "certified"), (0, "certified"),
                        (20, "streamed"), (40, "streamed, moved")]},
    "range1.52": (partial(tracker_scene, range_m=1.52), "certified"),
    "range3.7": (partial(tracker_scene, range_m=3.7), "certified"),
    "range3.7-noise10": (partial(tracker_scene, range_m=3.7, noise=10.0), "streamed"),
    "tinfoil": (partial(tracker_scene, preset="tinfoil"), "certified"),
    "tinfoil-noise10": (partial(tracker_scene, preset="tinfoil", noise=10.0), "streamed"),
    **{f"artifacts{b:g}-{p:g}": (partial(tracker_scene, sigmas=(b, p)), "certified")
       for b, p in [(10.0, 6.0), (10.0, 0.0), (0.0, 6.0)]},
    "tinfoil-artifacts-noise40": (
        partial(tracker_scene, preset="tinfoil", sigmas=(10.0, 6.0), noise=40.0),
        "streamed, moved"),
    # the sweep's default artifacts on scenes its axes move to
    **{f"{name}-artifacts": (partial(tracker_scene, sigmas=(10.0, 6.0), **scene), path)
       for name, scene, path in [("range3.7", {"range_m": 3.7}, "certified"),
                                 ("tinfoil", {"preset": "tinfoil"}, "certified"),
                                 ("noise40", {"noise": 40.0}, "streamed, moved")]},
    # the simulate command's defaults, without artifacts, on 3 s of speech: 93 frames
    "speech-3s": (partial(tracker_scene, chirp=ChirpConfig(), seconds=3.0), "certified"),
    # the chirp sweep's waveform at 512 and 1024 chirps
    **{f"{chirps}x256{tag}": (partial(tracker_scene, chirp=sweep_chirp(chirps), noise=-40.0,
                                      sigmas=sigmas), "certified")
       for chirps in (512, 1024)
       for tag, sigmas in [("", (0.0, 0.0)), ("-artifacts", (10.0, 6.0))]},
    **{f"{chirps}x{adc}": (partial(tracker_scene, chirps=chirps, adc=adc,
                                   range_m=1.5 if adc >= 256 else 0.2), "certified")
       for chirps, adc in [(1, 256), (1, 16), (2, 16), (9, 256), (9, 16), (256, 16),
                           (1, 65536), (16, 65536), (1, 1048576)]},
    **{f"{chirps}x16-noise40": (partial(tracker_scene, chirps=chirps, adc=16, range_m=0.2,
                                        noise=40.0), "streamed") for chirps in (2, 9)},
    **{f"{chirps}x1": (partial(tracker_scene, chirps=chirps, adc=1, range_m=0.01), "no target")
       for chirps in (1, 2, 256)},
    # bin 50 leads in frame 0 and loses to bin 30 over the capture, leads by
    # less than the bound, or by more
    "lead-lost": (partial(two_tones, 1.01, 0.99), "fallback, moved"),
    "near-tie": (partial(two_tones, 1.0 + 1e-7, 1.0 + 1e-7), "streamed"),
    "narrow-lead": (partial(two_tones, 1.001, 1.001), "certified"),
    # frame 0 predicts that the bound holds, and the noise after it breaks it
    "noisy-after-frame-0": (noisy_after_frame_0, "fallback"),
    "all-zero": (lambda: IFCapture(np.zeros((3, 256, 256), np.complex64), ChirpConfig()),
                 "no target"),
    # frame 0 names no bin, so the stream is searched whole
    "zero-frame-0": (zero_first_frame, "streamed, moved"),
    **{f"{name}-frame{frame}": (partial(tone_capture, frame, value),
                                "capture samples are not finite or too large")
       for name, value in [("nan", np.nan), ("inf", np.inf)] for frame in (0, 1, 2)},
    # its container is cut short after it is opened
    "truncated": (tone_capture, "truncated capture file"),
}
SCENE_SEED = 5
# The cases where noise swamps the target, and the bound on their phase's
# distance from reference_target's; every other case keeps LOCATE_PHASE_ATOL
SWAMPED = {"noise40", "noise40-artifacts", "tinfoil-artifacts-noise40"}
SWAMPED_PHASE_ATOL = 1e-5


def is_scene(case):
    """Whether a TRACKER_CASES case is a tracker_scene scene rather than a capture."""
    return getattr(TRACKER_CASES[case][0], "func", None) is tracker_scene


def by_memory(capture, scene, tmp_path):
    return partial(locate_target, capture), "in-memory capture"


def by_file(capture, scene, tmp_path):
    """locate_target on a container of the capture, or on the capture if it is one."""
    if not isinstance(capture, CaptureFile):
        save_capture(capture, tmp_path / "cap.bin")
        capture = CaptureFile(tmp_path / "cap.bin")
    return partial(locate_target, capture), capture.path


def by_factory(capture, scene, tmp_path):
    """A TargetTracker fed by hand, whose second passes read fresh copies of the frames from a
    factory, as a sweep makes its frames again."""
    def track():
        tracker = TargetTracker(capture.config, capture.n_frames)
        for frame in capture:
            tracker.add(frame.copy())
        return tracker.result(lambda: (frame.copy() for frame in capture), source)

    source = getattr(capture, "path", "the frames")
    return track, source


def by_sweep(capture, scene, tmp_path):
    name = "the capture of the clip"
    return partial(_write_capture, *scene, "the clip", SCENE_SEED, None, name), name


def by_simulate(capture, scene, tmp_path):
    path = tmp_path / "simulated.bin"
    return partial(_write_capture, *scene, "the clip", SCENE_SEED, path, path), path


# Every entry point that finds a bin, each given the case's capture, its scene
# or None, and a directory for files; each returns the call to make and the
# name its errors give the capture. The two legs of _write_capture run scenes
# only, and the truncated case runs on its container.
TRACKER_LEGS = {"memory": by_memory, "file": by_file, "factory": by_factory, "sweep": by_sweep,
                "simulate": by_simulate}


def tracker_legs():
    for case in TRACKER_CASES:
        legs = list(TRACKER_LEGS)
        if not is_scene(case):
            legs = ["file", "factory"] if case == "truncated" else ["memory", "file", "factory"]
        for leg in legs:
            yield pytest.param(case, leg, id=f"{case}-{leg}")


# tracker_legs yields a case's legs one after another, so the case last built is
# the one the next leg needs; run in another order, a leg builds its case again.
@lru_cache(maxsize=1)
def tracker_case(case):
    """A TRACKER_CASES case's capture in memory, its frames read-only so that no leg changes
    them for the next, its scene or None, full_search's result on the capture, and
    reference_target's, or None where the case raises."""
    made = TRACKER_CASES[case][0]()
    scene = made if is_scene(case) else None
    capture = in_memory_capture(*scene, SCENE_SEED) if scene else made
    capture.frames.flags.writeable = False
    raises = TRACKER_CASES[case][1] not in PASSES
    return (capture, scene, full_search(capture, "in-memory capture"),
            None if raises else reference_target(capture))


def full_search(capture, source):
    """The reference: the bin a BinSearch of every frame names, or its error; the
    [n_frames, chirps] column of each whole frame's one matmul at that bin, and the
    unwrapped phase of that column in float64, or None."""
    search = BinSearch(capture.config)
    try:
        for frame in capture:
            search.add(frame)
        want = search.target(source)
    except ValueError as exc:
        return str(exc), None, None
    adc = capture.config.adc_samples_per_chirp
    kernel = np.exp(-2j * np.pi * want * np.arange(adc) / adc).astype(np.complex64)
    column = np.stack([frame @ kernel for frame in capture])
    return want, column, unwrap_phase(np.angle(column.reshape(-1).astype(np.complex128)))


def counting(calls, original):
    return lambda *args, **kwargs: calls.append(original.__name__) or original(*args, **kwargs)


def names_a_bin(capture):
    """Whether a BinSearch of frame 0 alone names a bin, so that the tracker demodulates."""
    search = BinSearch(capture.config)
    search.add(capture.frames[0])
    try:
        search.target(None)
    except ValueError:
        return False
    return True


# The whole-capture path, which no entry point that finds a bin takes
IN_MEMORY_PATH = ("range_fft", "select_target_bin", "extract_phase_series", "simulate_if_frames",
                  "inject_artifacts", "save_capture", "load_capture")


class TestTargetTracker:
    @pytest.mark.parametrize("case, leg", tracker_legs())
    def test_every_entry_point_equals_the_references(self, case, leg, tmp_path, monkeypatch):
        """Each entry point, on each case, names the bin, demodulates the column and gives
        the phase a search and whole-frame demodulation of every frame give, or raises
        their error; picks the bin of the range profile and comes within a stated bound of
        its phase; reads the capture PASSES times; demodulates every frame it reads once per
        pass that demodulates, one more pass where the bin moves from the one frame 0 named,
        and each stamped row once, in restamp_column; takes no step of IN_MEMORY_PATH; and
        leaves no warning and no thread behind. A simulated container and its sidecar are
        those of the in-memory capture."""
        path = TRACKER_CASES[case][1]
        capture, scene, (want, want_column, want_phase), reference = tracker_case(case)
        passes = names_a_bin(capture) + ("moved" in path)
        if case == "truncated":
            save_capture(capture, tmp_path / "cap.bin")
            capture = CaptureFile(tmp_path / "cap.bin")
            with open(capture.path, "r+b") as fh:
                fh.truncate(capture.path.stat().st_size - 100)
        call, source = TRACKER_LEGS[leg](capture, scene, tmp_path)
        if leg == "simulate":
            saved = tmp_path / "saved.bin"
            save_capture(capture, saved, seed=scene[0].seed)
        searched, reads, results = [], [], []
        monkeypatch.setattr(BinSearch, "add", counting(searched, BinSearch.add))
        for owner, name in [(IFCapture, "__iter__"), (CaptureFile, "__iter__"),
                            (mmvib.cli, "iter_if_frames")]:
            monkeypatch.setattr(owner, name, counting(reads, getattr(owner, name)))
        original_result = TargetTracker.result
        monkeypatch.setattr(TargetTracker, "result",
                            lambda *args: results.append(original_result(*args)) or results[-1])
        if case == "truncated":
            # the first pass raises, and result, where a second would begin, is never reached
            monkeypatch.setattr(TargetTracker, "result", None)
        sites = []  # the function each _demodulate call is made in
        in_memory = []
        demodulate = mmvib.vib_extract._demodulate
        monkeypatch.setattr(mmvib.vib_extract, "_demodulate", lambda *args: sites.append(
            sys._getframe(1).f_code.co_name) or demodulate(*args))
        # every module-level reference, so that a second import of one is counted too
        for module in [module for key, module in sys.modules.items() if key.startswith("mmvib")]:
            for name in set(IN_MEMORY_PATH) & set(vars(module)):
                monkeypatch.setattr(module, name, counting(in_memory, vars(module)[name]))
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if path in PASSES:
                returned = call()
            else:
                with pytest.raises(ValueError) as err:
                    call()
        assert threading.active_count() == before
        assert in_memory == []
        stamped = sites.count("restamp_column")
        # the truncated container's last frame is cut short
        assert len(sites) - stamped == (capture.n_frames - (case == "truncated")) * passes
        stamps = leg in ("sweep", "simulate") and path in PASSES  # raising legs stamp nothing
        assert stamped == (len(capture.artifact_log) if stamps else 0)
        if path not in PASSES:
            assert str(err.value) == f"{path}: {source}"
            if case != "truncated":
                assert want == f"{path}: in-memory capture"
            if leg == "simulate":
                assert not source.exists() and not Path(f"{source}.artifacts.json").exists()
            return
        [(target, column)] = results
        assert len(searched) == (1 if path == "certified" else capture.n_frames)
        assert len(reads) == PASSES[path]
        assert target == want
        assert column.tobytes() == want_column.tobytes()
        phase = column_phase(column)
        assert phase.tobytes() == want_phase.tobytes()
        if leg in ("memory", "file"):
            assert returned[0] == target and returned[1].tobytes() == want_phase.tobytes()
        elif leg != "factory":
            assert returned[1] is column
        reference_bin, reference_phase = reference
        assert target == reference_bin
        assert phase.dtype == np.float64 and phase.shape == reference_phase.shape
        atol = SWAMPED_PHASE_ATOL if case in SWAMPED else LOCATE_PHASE_ATOL
        assert np.abs(phase - reference_phase).max() <= atol
        if leg == "simulate":
            sigmas = scene[0].beginning_sigma, scene[0].periodic_sigma
            assert len(capture.artifact_log) == (sigmas[0] > 0) + capture.n_frames * (sigmas[1] > 0)
            for suffix in ("", ".artifacts.json"):
                assert (Path(f"{source}{suffix}").read_bytes()
                        == Path(f"{saved}{suffix}").read_bytes())

    def test_certificate_terms_dominate_the_ten_they_replace(self):
        """c, t and delta only ever certify where the ten terms before them did.

        The ten, as the tracker sized them, are below. Per chirp, its norm
        was n = sqrt((E + energy_tiny) energy_scale), l = |y| - matmul_error n
        - matmul_tiny and r = sqrt(n^2 - max(l, 0)^2); the margin was
        (1 - a)(S_g + (1 - k)(sum l - fft_error sum n) - tiny)
        - (1 + a)(S_o + K (sum r + fft_error sum n) + tiny)
        - slack (sum n + S_g + S_o), with 1 - k = (1 - frame_sum)(1 -
        magnitude), K = (1 + frame_sum)(1 + magnitude) and a = accumulate.
        The tracker's norm, low and rest are those of the comment above
        vib_extract._certificate_terms. For any E, and |y| <= (1 +
        matmul_error) n + matmul_tiny as the matmul bound allows, the
        inequalities checked give norm >= K n and low <= l, so rest >= K r,
        and (1 - k)(l - fft_error n) >= low - fft_error norm. As low and
        rest are at most norm and norm >= t, delta (norms + strengths) then
        covers all the old margin took besides, so the new margin is at most
        the old one. The summed norms, under the search limit, bound each
        frame's norms, as the old check did.
        """
        u32, u64 = float(np.finfo(np.float32).eps) / 2, float(np.finfo(np.float64).eps) / 2
        tiny32 = float(np.finfo(np.float32).tiny)

        def gamma(n, u=u32):
            return n * u / (1 - n * u)

        shapes = [(2**i, 2**j) for i in range(21) for j in range(21 - i)]
        for n_frames in (2, 10**3, 10**6):
            for chirps, adc in shapes:
                c, t, delta = _certificate_terms(chirps, adc, n_frames)
                matmul_error = 2 * gamma(2 * adc + 4)
                matmul_tiny = 16 * adc * tiny32
                energy_tiny = 8 * adc * tiny32
                energy_scale = adc / (1 - gamma(2 * adc))
                fft_error = 2.0**-30
                magnitude = 4 * u32
                frame_sum = gamma(chirps)
                tiny = 8 * chirps * tiny32  # per frame after frame 0
                accumulate = gamma(n_frames, u64)
                slack = 1e-9
                k = 1 - (1 - frame_sum) * (1 - magnitude)
                big_k = (1 + frame_sum) * (1 + magnitude)
                shape = (chirps, adc, n_frames)
                assert adc / (1 - c / 2) >= big_k**2 * energy_scale, shape
                assert t >= big_k * np.sqrt(energy_scale * energy_tiny), shape
                assert c >= matmul_error + k * (1 + matmul_error), shape
                assert t >= (1 + k) * matmul_tiny, shape
                assert delta >= (2 * fft_error + accumulate * (2 + fft_error) + slack
                                 + (2 + accumulate) * tiny / (chirps * t)), shape

    # In a fresh interpreter, the count of random frames of each shape whose
    # blocked demodulation differs in any bit from one matmul of the frame,
    # plus the count of its rows that, each restamped by a zero spike as the
    # chirp 0 of a frame of that shape, differ from that matmul's
    _BLOCKED_AGAINST_WHOLE = (
        "import numpy as np\n"
        "from mmvib.radar_sim import ArtifactEvent\n"
        "from mmvib.vib_extract import _bin_kernel, _demodulate, restamp_column\n"
        "rng = np.random.default_rng(0)\n"
        "differ = 0\n"
        "for chirps in (1, 2, 3, 8, 9, 17, 33, 256, 1024):\n"
        "    for adc in (1, 2, 3, 16, 255, 256, 512):\n"
        "        parts = rng.standard_normal((2, chirps, adc))\n"
        "        frame = (parts[0] + 1j * parts[1]).astype(np.complex64)\n"
        "        kernel = _bin_kernel(adc // 3, adc)\n"
        "        whole = frame @ kernel\n"
        "        out = np.empty(chirps, np.complex64)\n"
        "        _demodulate(frame, kernel, out)\n"
        "        differ += out.tobytes() != whole.tobytes()\n"
        "        column = np.empty((chirps, chirps), np.complex64)\n"
        "        log = [ArtifactEvent('periodic', row, 0, 0.0) for row in range(chirps)]\n"
        "        restamp_column(frame.copy(), adc // 3, column, log)\n"
        "        differ += int((column[:, 0].view(np.uint64) != whole.view(np.uint64)).sum())\n"
        "print(differ)\n"
    )

    def test_blocked_demodulation_equals_one_matmul_per_frame(self, monkeypatch):
        for threads in ("1", "2"):
            assert run_fresh(self._BLOCKED_AGAINST_WHOLE, OPENBLAS_NUM_THREADS=threads) == "0"
        # every whole block is a multiple of 8 rows under OpenBLAS's 4096-element
        # threading size (for chirps under 512 samples), and no call is one
        # row of a longer frame
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b, out: calls.append(a.shape) or
                            matmul(a, b, out=out))
        for adc in (1, 16, 255, 256, 511):
            for chirps in (1, 2, 8, 9, 17, 256, 1024):
                calls.clear()
                frame = np.ones((chirps, adc), np.complex64)
                mmvib.vib_extract._demodulate(frame, frame[0], np.empty(chirps, np.complex64))
                for shape in calls:
                    rows = shape[-2]
                    assert rows * adc < 4096
                    assert rows >= 2 or chirps == 1
                    if len(shape) == 3:
                        assert rows % 8 == 0
                # the rows of the batched blocks and the last call, one row twice at most
                assert sum(int(np.prod(shape[:-1])) for shape in calls) - chirps in (0, 1)


class TestPhaseToDisplacement:
    def test_formula_identity(self):
        # the mean shifts every sample alike, so a difference of two samples
        # follows d = wavelength * phi / (4 pi) exactly
        out = phase_to_displacement(np.array([0.0, 4.0 * np.pi]), 5e-3)
        assert out[1] - out[0] == pytest.approx(5e-3)

    def test_zero_phase(self):
        assert np.all(phase_to_displacement(np.zeros(8), 5e-3) == 0)

    def test_small_sinusoid_amplitude(self):
        t = np.linspace(0, 1, 2048, endpoint=False)
        phase = 0.00251 * np.sin(2 * np.pi * 5 * t)
        disp = phase_to_displacement(phase, 5e-3)
        assert np.abs(disp).max() == pytest.approx(1e-6, rel=0.01)

    def test_mean_removed_by_default(self):
        disp = phase_to_displacement(np.array([1.0, 2.0, 3.0]), 5e-3)
        assert disp.mean() == pytest.approx(0.0, abs=1e-18)

    def test_wavelength_validated(self):
        with pytest.raises(ValueError):
            phase_to_displacement(np.zeros(4), 0.0)


class TestBeginningOutlier:
    def test_spike_replaced_by_mean(self):
        x = np.zeros(1000)
        x[0] = 100.0
        out = remove_beginning_outlier(VibrationTrace(x, 8000.0), guard_window=10)
        assert out.displacement[0] == pytest.approx(0.0)

    def test_clean_trace_unchanged(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 1000) * 1e-6
        out = remove_beginning_outlier(VibrationTrace(x, 8000.0), guard_window=10)
        np.testing.assert_array_equal(out.displacement, x)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000) * 1e-6
        x[:3] += 1.0
        once = remove_beginning_outlier(VibrationTrace(x, 8000.0), guard_window=16)
        twice = remove_beginning_outlier(once, guard_window=16)
        np.testing.assert_array_equal(twice.displacement, once.displacement)

    def test_too_short(self):
        with pytest.raises(ValueError):
            remove_beginning_outlier(VibrationTrace(np.zeros(2), 8000.0), 256)


class TestPeriodicOutliers:
    def test_impulse_train_removed(self):
        x = np.zeros(1024)
        x[::256] = 5.0
        out = remove_periodic_outliers(VibrationTrace(x, 8000.0), 256)
        assert np.all(out.displacement == 0)

    def test_clean_tone_barely_changed(self):
        t = np.arange(2048) / 8000.0
        x = 1e-6 * np.sin(2 * np.pi * 500.0 * t)
        out = remove_periodic_outliers(VibrationTrace(x, 8000.0), 256)
        assert np.abs(out.displacement - x).max() < 0.05 * 1e-6

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2048) * 1e-6
        once = remove_periodic_outliers(VibrationTrace(x, 8000.0), 256)
        twice = remove_periodic_outliers(once, 256)
        np.testing.assert_array_equal(twice.displacement, once.displacement)

    def test_only_frame_starts_touched(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2048) * 1e-6
        out = remove_periodic_outliers(VibrationTrace(x, 8000.0), 256)
        changed = np.nonzero(out.displacement != x)[0]
        assert np.all(changed % 256 == 0)

    def test_small_frame_size_validated(self):
        with pytest.raises(ValueError):
            remove_periodic_outliers(VibrationTrace(np.zeros(16), 8000.0), 1)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            remove_periodic_outliers(VibrationTrace(np.zeros(2), 8000.0), 256)

    def test_end_starts_use_their_one_neighbor(self):
        # ramp with spikes on the three frame starts 0, 4 and 8
        x = np.arange(9.0)
        x[[0, 4, 8]] += [5.0, 5.0, -5.0]
        out = remove_periodic_outliers(VibrationTrace(x, 8000.0), 4).displacement
        np.testing.assert_array_equal(out[[0, 4, 8]], [x[1], (x[3] + x[5]) / 2, x[7]])
        clean = np.arange(9.0)
        ramp = remove_periodic_outliers(VibrationTrace(clean, 8000.0), 4).displacement
        np.testing.assert_array_equal(ramp, clean)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, data):
        cpf = data.draw(st.integers(2, 9), label="chirps_per_frame")
        # the second form ends the trace on a frame start
        n = data.draw(
            st.one_of(st.integers(3, 60), st.integers(1, 8).map(lambda k: k * cpf + 1)),
            label="n",
        )
        value = st.one_of(
            st.floats(-1e3, 1e3, allow_nan=False), st.integers(-3, 3).map(float)
        )
        x = np.array(data.draw(st.lists(value, min_size=n, max_size=n), label="x"))
        out = remove_periodic_outliers(VibrationTrace(x, 8000.0), cpf).displacement
        np.testing.assert_array_equal(out, oracle_remove_periodic_outliers(x, cpf))


class TestExtractVibration:
    def test_round_trip_with_artifacts(self, chirp_cfg):
        rate = chirp_cfg.effective_sampling_rate
        cap = make_tone_capture(
            chirp_cfg, 500.0, amplitude_m=1e-6, duration_s=0.96, noise_floor_db=-40.0
        )
        spiked = inject_artifacts(cap, 10.0, 6.0, seed=11)
        trace = extract_vibration(spiked)
        assert trace.sample_rate == pytest.approx(rate)
        spectrum = np.abs(np.fft.rfft(trace.displacement))
        n = len(trace)
        peak = int(spectrum[1:].argmax()) + 1
        assert abs(peak - 500.0 * n / rate) <= 1
        amplitude = 2.0 * spectrum[peak] / n
        assert amplitude == pytest.approx(1e-6, rel=0.10)

    def test_preprocessing_drops_frame_rate_lines(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.96, noise_floor_db=-60.0)
        spiked = inject_artifacts(cap, 10.0, 6.0, seed=3)
        raw = extract_vibration(spiked, preprocess=False)
        cleaned = extract_vibration(spiked)
        comb = np.arange(30, 3840, 30)
        comb = comb[np.abs(comb - 480) > 3]
        raw_spec = np.abs(np.fft.rfft(raw.displacement))
        clean_spec = np.abs(np.fft.rfft(cleaned.displacement))
        drop_db = 20 * np.log10(raw_spec[comb].max() / clean_spec[comb].max())
        assert drop_db >= 20.0

    def test_silence_stays_quiet(self, chirp_cfg):
        vib = VibrationTrace(np.zeros(512), chirp_cfg.effective_sampling_rate)
        cap = simulate_if_frames(chirp_cfg, vib, 1.5, noise_floor_db=-60.0, seed=0)
        trace = extract_vibration(cap)
        # phase noise ~1e-3/sqrt(2*256) rad maps through lambda/(4*pi)
        bound = 10 * chirp_cfg.wavelength / (4 * np.pi) * 1e-3 / np.sqrt(512)
        assert np.sqrt(np.mean(trace.displacement**2)) < bound

    def test_amplitude_linearity(self, chirp_cfg):
        def recovered(amp):
            cap = make_tone_capture(
                chirp_cfg, 500.0, amplitude_m=amp, duration_s=0.48, noise_floor_db=-80.0
            )
            trace = extract_vibration(cap)
            spectrum = np.abs(np.fft.rfft(trace.displacement))
            return 2.0 * spectrum[1:].max() / len(trace)

        a = recovered(1e-6)
        b = recovered(2e-6)
        assert b / a == pytest.approx(2.0, rel=0.02)

    def test_frequency_fidelity_across_band(self, chirp_cfg):
        rate = chirp_cfg.effective_sampling_rate
        for freq in (50.0, 1000.0, 3900.0):
            cap = make_tone_capture(chirp_cfg, freq, duration_s=0.48, noise_floor_db=-60.0)
            trace = extract_vibration(cap)
            spectrum = np.abs(np.fft.rfft(trace.displacement))
            peak = int(spectrum[1:].argmax()) + 1
            assert abs(peak - freq * len(trace) / rate) <= 1

    def test_preprocessing_touch_budget(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.96, noise_floor_db=-40.0)
        spiked = inject_artifacts(cap, 10.0, 6.0, seed=5)
        raw = extract_vibration(spiked, preprocess=False)
        cleaned = extract_vibration(spiked)
        # the final mean removal shifts every sample by one constant; mod it out
        diff = raw.displacement - cleaned.displacement
        offset = np.median(diff)
        changed = np.sum(np.abs(diff - offset) > 1e-15)
        assert changed <= spiked.n_frames + chirp_cfg.chirps_per_frame

    def test_propagates_no_target(self, chirp_cfg):
        cap = IFCapture(np.zeros((1, 256, 256), dtype=np.complex64), chirp_cfg)
        with pytest.raises(ValueError, match="no target"):
            extract_vibration(cap)
