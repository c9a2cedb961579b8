"""Chirp geometry, the forced-vibration surface model, IF simulation, and artifacts."""

import hashlib
import re
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_tone_capture, make_tone_trace
from mmvib import (
    AudioBuffer,
    CaptureFile,
    ChirpConfig,
    IFCapture,
    SurfaceMaterial,
    VibrationTrace,
    displacement_from_audio,
    forced_response_amplitude,
    inject_artifacts,
    iter_if_frames,
    load_capture,
    locate_target,
    max_unambiguous_range,
    range_resolution,
    save_capture,
    simulate_if_frames,
    unwrap_phase,
)
from mmvib.cli import main
from mmvib.radar_sim import stamp_capture_file

SPEED_OF_LIGHT = 299792458.0


def assert_rejected(path, message, tmp_path, capsys):
    """load_capture raises, and mmvib extract exits 1 with one line, both ending in message."""
    pattern = f"{re.escape(message)}$"
    with pytest.raises(ValueError, match=pattern):
        load_capture(path)
    capsys.readouterr()
    assert main(["extract", "--capture", str(path), "--out", str(tmp_path / "x.wav")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert re.search(pattern, err.rstrip("\n"))


class TestChirpConfig:
    def test_defaults(self, chirp_cfg):
        assert chirp_cfg.chirps_per_frame == 256
        assert chirp_cfg.frame_period == pytest.approx(0.032)
        assert chirp_cfg.effective_sampling_rate == pytest.approx(8000.0)
        assert chirp_cfg.bandwidth <= 4e9 * (1 + 1e-9)

    def test_duty_cycle_enforced(self):
        with pytest.raises(ValueError):
            ChirpConfig(chirp_duration=0.032 / 256 * 1.5)

    def test_bandwidth_cap(self):
        with pytest.raises(ValueError):
            ChirpConfig(slope=8e9 / ChirpConfig().chirp_duration)

    def test_wavelength(self, chirp_cfg):
        assert chirp_cfg.wavelength == pytest.approx(SPEED_OF_LIGHT / 60e9)


class TestRangeGeometry:
    def test_full_bandwidth_resolution(self, chirp_cfg):
        # 4 GHz sweep: c / (2 * 4e9)
        assert range_resolution(chirp_cfg) == pytest.approx(0.0375, rel=1e-3)

    def test_halved_duration_doubles_resolution(self, chirp_cfg):
        from dataclasses import replace

        shorter = replace(chirp_cfg, chirp_duration=chirp_cfg.chirp_duration / 2)
        assert range_resolution(shorter) == pytest.approx(2 * range_resolution(chirp_cfg))

    def test_doubled_chirp_rate_coarsens_resolution(self, chirp_cfg):
        from dataclasses import replace

        fast = replace(
            chirp_cfg,
            chirps_per_frame=512,
            chirp_duration=chirp_cfg.chirp_duration / 2,
        )
        assert fast.effective_sampling_rate == pytest.approx(16000.0)
        assert range_resolution(fast) == pytest.approx(2 * range_resolution(chirp_cfg))

    def test_max_unambiguous_range(self, chirp_cfg):
        expected = range_resolution(chirp_cfg) * chirp_cfg.adc_samples_per_chirp / 2
        assert max_unambiguous_range(chirp_cfg) == pytest.approx(expected)


class TestForcedResponse:
    def test_static_deflection(self):
        mat = SurfaceMaterial(mass=1.0, stiffness=1.0, damping=0.1, reflectivity=1.0)
        assert forced_response_amplitude(mat, 1.0, 0.0) == pytest.approx(1.0)

    def test_resonant_amplitude(self):
        mat = SurfaceMaterial(mass=1.0, stiffness=1.0, damping=0.1, reflectivity=1.0)
        assert forced_response_amplitude(mat, 1.0, 1.0) == pytest.approx(10.0)

    def test_high_frequency_rolloff(self):
        mat = SurfaceMaterial(mass=1.0, stiffness=1.0, damping=0.1, reflectivity=1.0)
        assert forced_response_amplitude(mat, 1.0, 10.0) == pytest.approx(0.0101005, rel=1e-5)

    def test_undamped_resonance_rejected(self):
        mat = SurfaceMaterial(mass=1.0, stiffness=4.0, damping=0.0, reflectivity=1.0)
        with pytest.raises(ValueError, match="unbounded resonance"):
            forced_response_amplitude(mat, 1.0, 2.0)

    def test_natural_frequency(self):
        mat = SurfaceMaterial(mass=0.25, stiffness=9.0, damping=0.1, reflectivity=1.0)
        assert mat.natural_frequency == pytest.approx(6.0)

    def test_material_validation(self):
        with pytest.raises(ValueError):
            SurfaceMaterial(mass=0.0, stiffness=1.0, damping=0.1, reflectivity=1.0)
        with pytest.raises(ValueError):
            SurfaceMaterial(mass=1.0, stiffness=1.0, damping=-0.1, reflectivity=1.0)
        with pytest.raises(ValueError):
            SurfaceMaterial(mass=1.0, stiffness=1.0, damping=0.1, reflectivity=1.5)


class TestDisplacementFromAudio:
    def test_resonant_tone_dominates(self):
        mat = SurfaceMaterial(mass=1e-4, stiffness=1e-4 * (2 * np.pi * 500.0) ** 2,
                              damping=0.01, reflectivity=1.0)
        rate = 8000.0
        t = np.arange(8000) / rate
        # equal-amplitude tones at w_n and far below it
        audio = AudioBuffer(np.sin(2 * np.pi * 500.0 * t) + np.sin(2 * np.pi * 100.0 * t), rate)
        out = displacement_from_audio(audio, mat, 1.0)
        spectrum = np.abs(np.fft.rfft(out.displacement))
        assert spectrum[500] > 5 * spectrum[100]

    def test_mass_increases_high_frequency_attenuation(self):
        rate = 8000.0
        t = np.arange(8000) / rate
        audio = AudioBuffer(np.sin(2 * np.pi * 100.0 * t) + np.sin(2 * np.pi * 3000.0 * t), rate)

        def ratio(mass):
            mat = SurfaceMaterial(mass=mass, stiffness=100.0, damping=0.05, reflectivity=1.0)
            spec = np.abs(np.fft.rfft(displacement_from_audio(audio, mat, 1.0).displacement))
            return spec[3000] / spec[100]

        assert ratio(1e-3) < ratio(1e-4) < 1.0

    def test_zero_audio_zero_displacement(self):
        mat = SurfaceMaterial(mass=1.0, stiffness=1.0, damping=0.1, reflectivity=1.0)
        out = displacement_from_audio(AudioBuffer(np.zeros(128), 8000.0), mat, 1.0)
        assert np.all(out.displacement == 0)

    def test_empty_audio_rejected(self):
        mat = SurfaceMaterial(mass=1.0, stiffness=1.0, damping=0.1, reflectivity=1.0)
        with pytest.raises(ValueError, match="empty audio"):
            displacement_from_audio(AudioBuffer(np.array([]), 8000.0), mat, 1.0)


class TestSimulate:
    def test_static_target_constant_phase(self, chirp_cfg):
        vib = VibrationTrace(np.zeros(512), chirp_cfg.effective_sampling_rate)
        cap = simulate_if_frames(chirp_cfg, vib, 1.5, noise_floor_db=-120.0, seed=0)
        spectra = np.fft.fft(cap.frames.reshape(-1, chirp_cfg.adc_samples_per_chirp), axis=1)
        bins = np.abs(spectra[:, : chirp_cfg.adc_samples_per_chirp // 2 + 1])
        target = int(bins.mean(axis=0).argmax())
        phases = unwrap_phase(np.angle(spectra[:, target]))
        assert phases.std() < 1e-3

    def test_frame_count_and_shape(self, chirp_cfg):
        vib = make_tone_trace(chirp_cfg, 500.0, duration_s=0.96)
        cap = simulate_if_frames(chirp_cfg, vib, 1.5, seed=0)
        assert cap.n_frames == 30
        assert cap.frames.shape == (30, 256, 256)
        assert cap.frames.dtype == np.complex64

    def test_doubling_range_doubles_beat_bin(self, chirp_cfg):
        vib = VibrationTrace(np.zeros(256), chirp_cfg.effective_sampling_rate)

        def peak_bin(range_m):
            cap = simulate_if_frames(chirp_cfg, vib, range_m, noise_floor_db=-120.0, seed=0)
            spec = np.abs(np.fft.fft(cap.frames.reshape(-1, chirp_cfg.adc_samples_per_chirp), axis=1))
            half = spec[:, : chirp_cfg.adc_samples_per_chirp // 2 + 1]
            return int(half.mean(axis=0).argmax())

        bin_size = range_resolution(chirp_cfg)
        near, far = peak_bin(30 * bin_size), peak_bin(60 * bin_size)
        assert (near, far) == (30, 60)

    def test_range_aliasing_rejected(self, chirp_cfg):
        vib = VibrationTrace(np.zeros(256), chirp_cfg.effective_sampling_rate)
        with pytest.raises(ValueError, match="range aliasing"):
            simulate_if_frames(chirp_cfg, vib, max_unambiguous_range(chirp_cfg) + 0.1, seed=0)

    def test_rate_mismatch_rejected(self, chirp_cfg):
        vib = VibrationTrace(np.zeros(256), 44100.0)
        with pytest.raises(ValueError, match="sampled at"):
            simulate_if_frames(chirp_cfg, vib, 1.5, seed=0)

    def test_oversized_displacement_rejected(self, chirp_cfg):
        amp = chirp_cfg.wavelength / 3.0
        vib = make_tone_trace(chirp_cfg, 100.0, amplitude_m=amp)
        with pytest.raises(ValueError, match="displacement"):
            simulate_if_frames(chirp_cfg, vib, 1.5, seed=0)

    def test_seed_determinism(self, chirp_cfg):
        vib = make_tone_trace(chirp_cfg, 500.0, duration_s=0.096)
        a = simulate_if_frames(chirp_cfg, vib, 1.5, seed=42)
        b = simulate_if_frames(chirp_cfg, vib, 1.5, seed=42)
        c = simulate_if_frames(chirp_cfg, vib, 1.5, seed=43)
        assert np.array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, c.frames)

    def test_reflectivity_scales_echo(self, chirp_cfg):
        vib = VibrationTrace(np.zeros(256), chirp_cfg.effective_sampling_rate)
        full = simulate_if_frames(chirp_cfg, vib, 1.5, reflectivity=1.0,
                                  noise_floor_db=-300.0, seed=0)
        half = simulate_if_frames(chirp_cfg, vib, 1.5, reflectivity=0.5,
                                  noise_floor_db=-300.0, seed=0)
        ratio = np.abs(half.frames).mean() / np.abs(full.frames).mean()
        assert ratio == pytest.approx(0.5, rel=1e-5)

    def test_frame_stream_checks_the_scene_on_the_call(self, chirp_cfg):
        vib = VibrationTrace(np.zeros(256), 44100.0)
        with pytest.raises(ValueError, match="sampled at"):
            iter_if_frames(chirp_cfg, vib, 1.5, seed=0)

    def test_frame_stream_yields_the_frames_of_the_array(self, chirp_cfg):
        # 800 chirps: three whole frames, the trailing 32 chirps dropped
        vib = make_tone_trace(chirp_cfg, 500.0, duration_s=0.1)
        frames = list(iter_if_frames(chirp_cfg, vib, 1.5, seed=7))
        cap = simulate_if_frames(chirp_cfg, vib, 1.5, seed=7)
        assert len(frames) == cap.n_frames == 3
        assert all(frame.dtype == np.complex64 for frame in frames)
        assert np.stack(frames).tobytes() == cap.frames.tobytes()

    # SHA-256 of the frames iter_if_frames yielded when it drew its noise on
    # the calling thread: a 500 Hz tone for 0.096 s, three frames, range 1.5 m
    FRAME_DIGESTS = {
        (256, 0): "2533753db9a6397400b3ee21f6f5b812492c290ebde501206cb2fd7765ae8079",
        (256, 7): "aa08488fa0631cc2cd91756c3778be3629c38275ee9087f39068dd4d52c09062",
        (512, 0): "9086c5b36b87e9dff80eef754eb4c08e9359527ebedc10d22ae2b67fc266bf0d",
        (512, 7): "926c37bc174d8670bab7a68a2df48efb58b5ac1c98edc1bdb781a173481aaed0",
    }

    @pytest.mark.parametrize("chirps_per_frame, seed", sorted(FRAME_DIGESTS))
    def test_frame_stream_bytes_are_pinned(self, chirp_cfg, chirps_per_frame, seed):
        cfg = replace(
            chirp_cfg,
            chirps_per_frame=chirps_per_frame,
            chirp_duration=chirp_cfg.chirp_duration * 256 / chirps_per_frame,
        )
        vib = make_tone_trace(cfg, 500.0, duration_s=0.096)
        digest = hashlib.sha256()
        n_frames = 0
        for frame in iter_if_frames(cfg, vib, 1.5, seed=seed):
            digest.update(frame.tobytes())
            n_frames += 1
        assert n_frames == 3
        assert digest.hexdigest() == self.FRAME_DIGESTS[chirps_per_frame, seed]

    @pytest.mark.parametrize("stop", ["close", "drop"])
    def test_frame_stream_stops_its_noise_thread(self, chirp_cfg, stop):
        vib = make_tone_trace(chirp_cfg, 500.0, duration_s=0.32)
        before = threading.active_count()
        frames = iter_if_frames(chirp_cfg, vib, 1.5, seed=0)
        # the thread starts with the first frame, not on the call
        assert threading.active_count() == before
        next(frames)
        assert threading.active_count() == before + 1
        if stop == "close":
            frames.close()
        else:
            del frames
        assert threading.active_count() == before

    def test_frame_stream_raises_a_draw_error(self, chirp_cfg):
        class FailingGenerator(np.random.Generator):
            """Fails on its third draw: the real part of the second frame's noise."""

            draws = 0

            def standard_normal(self, *args, **kwargs):
                self.draws += 1
                if self.draws == 3:
                    raise RuntimeError("draw failed")
                return super().standard_normal(*args, **kwargs)

        vib = make_tone_trace(chirp_cfg, 500.0, duration_s=0.32)
        before = threading.active_count()
        frames = iter_if_frames(chirp_cfg, vib, 1.5, seed=FailingGenerator(np.random.PCG64(0)))
        next(frames)
        with pytest.raises(RuntimeError, match="draw failed"):
            next(frames)
        assert threading.active_count() == before


class TestArtifacts:
    def test_zero_magnitudes_noop(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        out = inject_artifacts(cap, 0.0, 0.0, seed=0)
        assert np.array_equal(out.frames, cap.frames)
        assert out.artifact_log == []

    def test_beginning_only_logs_one_event(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        out = inject_artifacts(cap, 10.0, 0.0, seed=0)
        assert len(out.artifact_log) == 1
        event = out.artifact_log[0]
        assert (event.kind, event.frame, event.chirp) == ("beginning", 0, 0)
        assert event.magnitude_rad > 0

    def test_periodic_logs_every_frame(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.96)
        out = inject_artifacts(cap, 0.0, 6.0, seed=0)
        periodic = [e for e in out.artifact_log if e.kind == "periodic"]
        assert len(periodic) == cap.n_frames
        assert all(e.chirp == 0 for e in periodic)
        assert sorted(e.frame for e in periodic) == list(range(cap.n_frames))

    def test_periodic_creates_frame_rate_lines(self, chirp_cfg):
        from mmvib import extract_vibration

        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.96, noise_floor_db=-80.0)
        spiked = inject_artifacts(IFCapture(cap.frames.copy(), chirp_cfg), 0.0, 6.0, seed=1)
        clean = extract_vibration(cap, preprocess=False)
        dirty = extract_vibration(spiked, preprocess=False)
        # frame rate 31.25 Hz -> bin spacing 30 in a 7680-sample transform
        comb = np.arange(30, 3840, 30)
        comb = comb[np.abs(comb - 480) > 3]  # skip the tone itself
        clean_spec = np.abs(np.fft.rfft(clean.displacement))
        dirty_spec = np.abs(np.fft.rfft(dirty.displacement))
        gain_db = 20 * np.log10(dirty_spec[comb].max() / clean_spec[comb].max())
        assert gain_db > 20.0

    def test_magnitudes_are_multiples_of_clean_phase_std(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.32)
        sigma = locate_target(cap)[1].std()
        out = inject_artifacts(cap, 10.0, 6.0, seed=7)
        rng = np.random.default_rng(7)
        multiples = [10.0] + [6.0] * cap.n_frames
        expected = [m * sigma * rng.uniform(0.75, 1.25) for m in multiples]
        assert [e.magnitude_rad for e in out.artifact_log] == expected

    def test_stamps_in_place(self, chirp_cfg):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        frames = cap.frames
        before = frames.copy()
        out = inject_artifacts(cap, 10.0, 6.0, seed=0)
        assert out is cap and out.frames is frames
        changed = np.argwhere(np.any(frames != before, axis=2))
        assert {tuple(fc) for fc in changed} == {(f, 0) for f in range(cap.n_frames)}
        expected = before.copy()
        for event in out.artifact_log:
            expected[event.frame, event.chirp] *= np.exp(1j * event.magnitude_rad).astype(np.complex64)
        assert np.array_equal(frames, expected)

    @pytest.mark.parametrize("sigmas", [(10.0, 6.0), (10.0, 0.0), (0.0, 6.0), (0.0, 0.0)])
    def test_file_stamping_equals_inject_artifacts(self, chirp_cfg, tmp_path, sigmas):
        clean = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(clean, path)
        log = stamp_capture_file(path, locate_target(clean)[0], *sigmas, seed=3)
        stamped = inject_artifacts(clean, *sigmas, seed=3)
        save_capture(stamped, tmp_path / "ref.bin")
        assert path.read_bytes() == (tmp_path / "ref.bin").read_bytes()
        assert [e.to_dict() for e in log] == [e.to_dict() for e in stamped.artifact_log]

    def test_peak_memory_below_a_tenth_of_the_capture(self, chirp_cfg):
        # stamping in place holds no second capture
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=2.048)
        assert cap.n_frames >= 32
        tracemalloc.start()
        try:
            inject_artifacts(cap, 10.0, 6.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * cap.frames.nbytes


class TestCaptureIO:
    def test_round_trip_exact(self, chirp_cfg, tmp_path):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        cap = inject_artifacts(cap, 10.0, 6.0, seed=5)
        path = tmp_path / "cap.bin"
        save_capture(cap, path, seed=5)
        loaded = load_capture(path)
        assert np.array_equal(loaded.frames, cap.frames)
        assert loaded.config == cap.config
        assert [e.to_dict() for e in loaded.artifact_log] == [
            e.to_dict() for e in cap.artifact_log
        ]

    def test_save_writes_header_then_frames(self, chirp_cfg, tmp_path):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        data = path.read_bytes()
        assert data[:8] == b"MMVIBCP1"
        assert data[-cap.frames.nbytes:] == cap.frames.tobytes()
        assert len(data) == 8 + 4 * 8 + 4 * 4 + cap.frames.nbytes

    def test_save_peak_memory_below_a_tenth_of_the_capture(self, chirp_cfg, tmp_path):
        # the frames go to the file as they are, with no bytes copy
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=2.048)
        assert cap.n_frames >= 32
        tracemalloc.start()
        try:
            save_capture(cap, tmp_path / "cap.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * cap.frames.nbytes

    # The malformed containers below are checked through both readers:
    # load_capture and the streamed CaptureFile behind mmvib extract.
    def test_corrupt_magic(self, chirp_cfg, tmp_path, capsys):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        assert_rejected(path, f"bad magic: {path}", tmp_path, capsys)

    def test_truncated_body(self, chirp_cfg, tmp_path, capsys):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        path.write_bytes(path.read_bytes()[:-100])
        assert_rejected(path, f"truncated capture file: {path}", tmp_path, capsys)

    def test_over_long_body(self, chirp_cfg, tmp_path, capsys):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        assert_rejected(path, f"truncated capture file: {path}", tmp_path, capsys)

    def test_header_claiming_more_frames_allocates_nothing(self, chirp_cfg, tmp_path, capsys):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        data = bytearray(path.read_bytes())
        # n_frames is the third uint32 after the magic and four float64
        struct.pack_into("<I", data, 8 + 4 * 8 + 2 * 4, 2**32 - 1)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            assert_rejected(path, f"truncated capture file: {path}", tmp_path, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the body was never read: far less than one copy of the file
        assert peak < len(data) // 8

    def test_header_with_an_invalid_chirp_config(self, chirp_cfg, tmp_path, capsys):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        data = bytearray(path.read_bytes())
        # chirps_per_frame is the second uint32 after the magic and four float64
        struct.pack_into("<I", data, 8 + 4 * 8 + 4, 0)
        path.write_bytes(bytes(data))
        message = f"bad capture header, chirps_per_frame must be a positive integer, got 0: {path}"
        assert_rejected(path, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "text",
        ['{"artifact_log": [{}]}', "[1, 2]", pytest.param("[" * 100_000, id="deeply_nested")],
    )
    def test_malformed_sidecar_one_line_error(self, chirp_cfg, tmp_path, text):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        sidecar = tmp_path / "cap.bin.artifacts.json"
        sidecar.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_capture(path)
        message = str(caught.value)
        assert message.count("\n") == 0
        assert str(sidecar) in message

    def test_capture_file_reads_the_frames_of_load_capture(self, chirp_cfg, tmp_path):
        cap = inject_artifacts(make_tone_capture(chirp_cfg, 500.0, duration_s=0.096), 10.0, 6.0)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        # the streamed reader never opens the sidecar
        (tmp_path / "cap.bin.artifacts.json").write_text("[1, 2]")
        reader = CaptureFile(path)
        assert reader.config == cap.config and reader.n_frames == cap.n_frames
        for _ in range(2):
            frames = [frame.copy() for frame in reader]
            assert np.array_equal(np.stack(frames), cap.frames)

    def test_capture_file_short_read(self, chirp_cfg, tmp_path):
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        reader = CaptureFile(path)
        # cut after the header was checked, mid-way through the last frame
        path.write_bytes(path.read_bytes()[:-100])
        frames = iter(reader)
        for _ in range(cap.n_frames - 1):
            next(frames)
        with pytest.raises(ValueError, match=f"truncated capture file: {re.escape(str(path))}$"):
            next(frames)

    def test_capture_shape_validation(self, chirp_cfg):
        with pytest.raises(ValueError):
            IFCapture(np.zeros((2, 16, 16), dtype=np.complex64), chirp_cfg)
