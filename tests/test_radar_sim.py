"""Chirp geometry, the forced-vibration surface model, IF simulation, and artifacts."""

import hashlib
import json
import re
import threading
from contextlib import closing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import mmvib.radar_sim
from conftest import make_tone_capture, make_tone_trace, traced_peak
from exit_paths import MALFORMED_CAPTURES
from mmvib import (
    AudioBuffer,
    CaptureFile,
    ChirpConfig,
    IFCapture,
    SurfaceMaterial,
    VibrationTrace,
    displacement_from_audio,
    extract_vibration,
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
from mmvib.radar_sim import write_capture_frames

SPEED_OF_LIGHT = 299792458.0


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

    def test_frame_shape_capped(self):
        # 2^20 samples a frame, 8 MiB of complex64, is the largest accepted
        assert ChirpConfig(adc_samples_per_chirp=4096).adc_samples_per_chirp == 4096
        with pytest.raises(ValueError, match="chirps_per_frame \\* adc_samples_per_chirp"):
            ChirpConfig(adc_samples_per_chirp=4097)

    def test_carrier_with_an_infinite_wavelength_rejected(self):
        # positive and finite, but c / 1e-300 overflows
        with pytest.raises(ValueError, match="wavelength that is not finite"):
            ChirpConfig(carrier_freq=1e-300)


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

    def test_material_validation(self):
        with pytest.raises(ValueError):
            SurfaceMaterial(mass=0.0, stiffness=1.0, damping=0.1, reflectivity=1.0)
        with pytest.raises(ValueError):
            SurfaceMaterial(mass=1.0, stiffness=1.0, damping=-0.1, reflectivity=1.0)
        with pytest.raises(ValueError):
            SurfaceMaterial(mass=1.0, stiffness=1.0, damping=0.1, reflectivity=1.5)


class TestDisplacementFromAudio:
    def test_undamped_resonance_on_a_bin_rejected_by_both_callers(self):
        # bin 5 of a 64-sample clip at 8 kHz, its frequency computed as
        # displacement_from_audio computes it, and k - m w^2 exactly 0 there
        rate, n = 8000.0, 64
        omega = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / rate)[5]
        mat = SurfaceMaterial(mass=1.0, stiffness=omega * omega, damping=0.0, reflectivity=1.0)
        audio = AudioBuffer(np.sin(np.arange(n)), rate)
        with pytest.raises(ValueError, match="^unbounded resonance$"):
            displacement_from_audio(audio, mat, 1.0)
        with pytest.raises(ValueError, match="^unbounded resonance$"):
            forced_response_amplitude(mat, 1.0, omega)
        # one ulp of stiffness off the bin, the response is large but bounded
        off = replace(mat, stiffness=np.nextafter(omega * omega, np.inf))
        assert np.isfinite(displacement_from_audio(audio, off, 1.0).samples).all()

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

    @pytest.mark.parametrize("noise_floor_db", [1000.0, 10000.0, float("nan")])
    def test_noise_floor_past_complex64_rejected(self, chirp_cfg, noise_floor_db):
        vib = VibrationTrace(np.zeros(256), chirp_cfg.effective_sampling_rate)
        with pytest.raises(ValueError, match="noise_floor_db must be below 770.6"):
            iter_if_frames(chirp_cfg, vib, 1.5, noise_floor_db=noise_floor_db)

    def test_noise_tail_past_complex64_is_inf_without_a_warning(self, chirp_cfg):
        # a sigma of 1.3e38 per component: the tail of the draws overflows
        # float32, and the bin search rejects what it leaves
        vib = VibrationTrace(np.zeros(256), chirp_cfg.effective_sampling_rate)
        (frame,) = iter_if_frames(chirp_cfg, vib, 1.5, noise_floor_db=765.0)
        assert np.isinf(frame).any()

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

    # SHA-256 of the frames iter_if_frames yields, each frame's noise drawn from
    # its own stream: a 500 Hz tone for 0.096 s, three frames, range 1.5 m
    FRAME_DIGESTS = {
        (256, 0): "64eea8ca766457eed0f581e5f14f85f6f1f59d1ad78806f71bb8e8b85dfb8d6b",
        (256, 7): "ef6128f4f9d6aabdb8e9349c5003ed07206899e6dd0eeffaa2a2873120b07819",
        (512, 0): "23bfc34632f318c20bdf65043a0d0437cae97b0a5ea19fede5926e6e4d17cfb2",
        (512, 7): "8d9ed32a90b958a642a891ba306967ab9295d7a3429553f48020e55b3df0f6d8",
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

    def test_one_seed_sequence_read_twice_gives_the_same_frames(self, chirp_cfg):
        # SeedSequence.spawn would count its children and key other streams the second time
        vib = make_tone_trace(chirp_cfg, 500.0, duration_s=0.1)
        seed = np.random.SeedSequence(7)
        first = b"".join(frame.tobytes() for frame in iter_if_frames(chirp_cfg, vib, 1.5, seed=seed))
        again = simulate_if_frames(chirp_cfg, vib, 1.5, seed=seed).frames.tobytes()
        assert again == first
        assert seed.n_children_spawned == 0
        assert simulate_if_frames(chirp_cfg, vib, 1.5, seed=7).frames.tobytes() == first
        keyed = simulate_if_frames(chirp_cfg, vib, 1.5, seed=np.random.SeedSequence((7, 1)))
        assert simulate_if_frames(chirp_cfg, vib, 1.5, seed=(7, 1)).frames.tobytes() == (
            keyed.frames.tobytes())

    @pytest.mark.parametrize("seed", [np.random.default_rng(0), np.random.PCG64(0)],
                             ids=["Generator", "PCG64"])
    @pytest.mark.parametrize("simulate", [iter_if_frames, simulate_if_frames])
    def test_a_seed_that_is_one_stream_is_refused(self, chirp_cfg, simulate, seed):
        vib = VibrationTrace(np.zeros(256), chirp_cfg.effective_sampling_rate)
        before = threading.active_count()
        with pytest.raises(ValueError) as err:
            simulate(chirp_cfg, vib, 1.5, seed=seed)
        assert str(err.value) == (f"seed must be an int, a sequence of ints or a "
                                  f"numpy.random.SeedSequence, got {type(seed).__name__}")
        assert threading.active_count() == before

    @staticmethod
    def _noise_threads() -> list[threading.Thread]:
        return [t for t in threading.enumerate() if t.name.startswith("mmvib-noise")]

    @pytest.mark.parametrize("stop", [
        "close",
        "drop",
        pytest.param("failed_write", marks=pytest.mark.skipif(
            not Path("/dev/full").exists(), reason="needs /dev/full, whose writes fail")),
    ])
    def test_frame_stream_stops_its_noise_thread(self, chirp_cfg, stop):
        vib = make_tone_trace(chirp_cfg, 500.0, duration_s=0.32)
        before = threading.active_count()
        frames = iter_if_frames(chirp_cfg, vib, 1.5, seed=0)
        # the threads start with the first frame, not on the call
        assert self._noise_threads() == []
        if stop == "failed_write":
            with pytest.raises(OSError), closing(frames):
                write_capture_frames("/dev/full", chirp_cfg, frames)
        else:
            next(frames)
            assert 1 <= len(self._noise_threads()) <= 4
            if stop == "close":
                frames.close()
            else:
                del frames
        assert self._noise_threads() == []
        assert threading.active_count() == before

    def test_frame_stream_raises_a_draw_error(self, chirp_cfg, monkeypatch):
        class FailingGenerator(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                raise RuntimeError("draw failed")

        frame_rng = mmvib.radar_sim._frame_rng

        def failing_second_frame(root, f):
            if f == 1:
                return FailingGenerator(np.random.PCG64(root))
            return frame_rng(root, f)

        monkeypatch.setattr(mmvib.radar_sim, "_frame_rng", failing_second_frame)
        vib = make_tone_trace(chirp_cfg, 500.0, duration_s=0.32)
        before = threading.active_count()
        frames = iter_if_frames(chirp_cfg, vib, 1.5, seed=0)
        next(frames)
        with pytest.raises(RuntimeError, match="draw failed"):
            next(frames)
        assert threading.active_count() == before


class TestNoiseModel:
    """The recovered trace's receiver noise against its closed form.

    A single-bin DFT of a chirp's N samples sums the echo to A * g * N, with
    g the scalloping gain of the beat's offset from the bin centre, and the
    complex noise of power sigma_n^2 per sample to a power of N * sigma_n^2.
    The phase noise is then sigma_n / (A * g * sqrt(2N)), and the trace's
    sigma_d = wavelength / (4 pi) * sigma_n / (A * g * sqrt(2N)). That is the
    small-noise form: at 0 dB and reflectivity 0.4 the ratio rises to about
    1.02-1.03, so the grid stops at -20 dB, where it reads 0.986-1.009.
    """

    @pytest.mark.parametrize("adc", [256, 128])
    # the beat 0.03 bin above bin 40's centre, and 0.44 bin below bin 41's
    @pytest.mark.parametrize("range_m, target", [(1.5, 40), (1.52, 41)])
    @pytest.mark.parametrize("reflectivity", [0.95, 0.4])
    @pytest.mark.parametrize("noise_floor_db", [-60.0, -20.0])
    def test_residual_spread_matches_the_closed_form(self, noise_floor_db, reflectivity,
                                                     range_m, target, adc):
        cfg = ChirpConfig(adc_samples_per_chirp=adc)
        vib = make_tone_trace(cfg, 440.0, duration_s=1.0)
        offset = range_m / range_resolution(cfg) - target
        gain = abs(np.exp(2j * np.pi * offset * np.arange(adc) / adc).mean())
        sigma_n = 10.0 ** (noise_floor_db / 20.0)
        sigma_d = cfg.wavelength / (4 * np.pi) * sigma_n / (reflectivity * gain * np.sqrt(2 * adc))
        for seed in (1, 2):
            frames = iter_if_frames(cfg, vib, range_m, reflectivity, noise_floor_db, seed)
            trace = extract_vibration(IFCapture(np.stack(list(frames)), cfg), preprocess=False)
            truth = vib.samples[: len(trace)]
            residual = trace.samples - (truth - truth.mean())
            assert residual.std() / sigma_d == pytest.approx(1.0, abs=0.03), seed


class TestArtifacts:
    def test_zero_magnitudes_noop(self, chirp_cfg):
        tone = make_tone_capture(chirp_cfg, 500.0, duration_s=0.096)
        # an all-zero capture has no target, which zero magnitudes never look for
        for cap in (tone, IFCapture(np.zeros_like(tone.frames), chirp_cfg)):
            before = cap.frames.copy()
            out = inject_artifacts(cap, 0.0, 0.0, seed=0)
            assert out is cap and np.array_equal(out.frames, before)
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

    def test_peak_memory_below_a_tenth_of_the_capture(self, chirp_cfg):
        # stamping in place holds no second capture
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=2.048)
        assert cap.n_frames >= 32
        peak = traced_peak(lambda: inject_artifacts(cap, 10.0, 6.0, seed=0))
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
        # the log goes to the sidecar, which load_capture does not read
        assert cap.artifact_log and loaded.artifact_log == []
        sidecar = json.loads((tmp_path / "cap.bin.artifacts.json").read_text())
        assert sidecar == {"seed": 5, "artifact_log": [asdict(event) for event in cap.artifact_log]}

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
        peak = traced_peak(lambda: save_capture(cap, tmp_path / "cap.bin"))
        assert peak < 0.1 * cap.frames.nbytes

    # the header and size checks come before any frame is allocated; extract's
    # exit path on each container is an EXIT_PATHS row
    @pytest.mark.parametrize("name", sorted(MALFORMED_CAPTURES))
    def test_malformed_refused_under_1_mib(self, name, exit_inputs):
        path = exit_inputs / f"{name}.bin"
        message = f"{MALFORMED_CAPTURES[name][1]}: {path}"

        def load():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_capture(path)

        assert traced_peak(load) < 1 << 20

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(None, id="no_sidecar"),
            '{"artifact_log": [{}]}',
            "[1, 2]",
            pytest.param("[" * 100_000, id="deeply_nested"),
        ],
    )
    def test_load_capture_reads_the_container_only(self, chirp_cfg, tmp_path, text):
        cap = inject_artifacts(make_tone_capture(chirp_cfg, 500.0, duration_s=0.096), 10.0, 6.0)
        path = tmp_path / "cap.bin"
        save_capture(cap, path)
        # with the valid sidecar save_capture wrote, then with none or a malformed one
        with_sidecar = load_capture(path)
        sidecar = tmp_path / "cap.bin.artifacts.json"
        if text is None:
            sidecar.unlink()
        else:
            sidecar.write_text(text)
        for loaded in (with_sidecar, load_capture(path)):
            assert np.array_equal(loaded.frames, cap.frames)
            assert loaded.config == cap.config and loaded.artifact_log == []

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
