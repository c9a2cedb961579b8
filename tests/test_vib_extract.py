"""Range-FFT profiling, target selection, phase recovery, and outlier cleanup."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tone_capture, make_tone_trace
from mmvib import (
    CaptureFile,
    ChirpConfig,
    IFCapture,
    VibrationTrace,
    displacement_from_audio,
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
    resample,
    save_capture,
    select_target_bin,
    simulate_if_frames,
    unwrap_phase,
    zscore_normalize,
)
from mmvib.cli import PipelineConfig
from mmvib.vib_extract import BinSearch
from oracles import oracle_remove_periodic_outliers
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
        assert range_fft(cap).shape == (129, cap.total_chirps)

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

    def test_peak_memory_near_one_capture(self, chirp_cfg):
        # the complex128 half spectrum is as large as the complex64 capture;
        # one frame at a time adds only one frame's spectrum on top of it
        cap = make_tone_capture(chirp_cfg, 500.0, duration_s=0.512)
        tracemalloc.start()
        try:
            profile = range_fft(cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.shape == (129, cap.total_chirps)
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


def frame_scaled_config(chirps_per_frame: int) -> ChirpConfig:
    """Default waveform at another chirp count, duty cycle kept (as the sweep does)."""
    base = ChirpConfig()
    duty = base.chirps_per_frame * base.chirp_duration / base.frame_period
    return replace(
        base,
        chirps_per_frame=chirps_per_frame,
        chirp_duration=duty * base.frame_period / chirps_per_frame,
    )


def reference_target(capture: IFCapture) -> tuple[int, np.ndarray]:
    """Target bin and phase by way of the full range profile."""
    profile = range_fft(capture)
    target = select_target_bin(profile)
    return target, extract_phase_series(profile, target)


# float32 sums and a complex64 dot product against the complex128 profile
LOCATE_PHASE_ATOL = 1e-6


class TestLocateTarget:
    @pytest.mark.parametrize("chirps_per_frame", [256, 512, 1024])
    def test_tone_matches_reference(self, chirps_per_frame):
        cfg = frame_scaled_config(chirps_per_frame)
        cap = make_tone_capture(cfg, 500.0, duration_s=0.192, noise_floor_db=-40.0)
        target, phase = locate_target(cap)
        want_bin, want_phase = reference_target(cap)
        assert target == want_bin
        assert phase.dtype == np.float64 and phase.shape == want_phase.shape
        assert np.abs(phase - want_phase).max() <= LOCATE_PHASE_ATOL

    def test_speech_capture_matches_reference(self):
        # the simulate command's scene at defaults, without artifacts
        config = PipelineConfig()
        rate = config.chirp.effective_sampling_rate
        forcing = zscore_normalize(resample(make_speech_clip(5, duration=3.0), rate))
        vib = displacement_from_audio(forcing, config.material, config.force_scale)
        cap = simulate_if_frames(
            config.chirp, vib, config.range_m, reflectivity=config.material.reflectivity, seed=5
        )
        target, phase = locate_target(cap)
        want_bin, want_phase = reference_target(cap)
        assert target == want_bin
        assert np.abs(phase - want_phase).max() <= LOCATE_PHASE_ATOL

    @pytest.mark.parametrize("chirps_per_frame", [256, 512])
    def test_frame_strengths_equal_the_complex64_fft(self, chirps_per_frame):
        cfg = frame_scaled_config(chirps_per_frame)
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

    @pytest.mark.parametrize("chirps_per_frame", [256, 512, 1024])
    def test_demodulation_equals_the_whole_capture_matvec(self, chirps_per_frame):
        # frame by frame, the single-bin DFT gives the bytes of one matvec over the capture
        cfg = frame_scaled_config(chirps_per_frame)
        cap = make_tone_capture(cfg, 500.0, duration_s=0.192, noise_floor_db=-40.0)
        target, phase = locate_target(cap)
        adc = cfg.adc_samples_per_chirp
        kernel = np.exp(-2j * np.pi * target * np.arange(adc) / adc).astype(np.complex64)
        column = (cap.frames @ kernel).reshape(-1).astype(np.complex128)
        assert phase.tobytes() == unwrap_phase(np.angle(column)).tobytes()

    def test_capture_file_equals_the_loaded_capture(self, tmp_path):
        config = PipelineConfig()
        rate = config.chirp.effective_sampling_rate
        forcing = zscore_normalize(resample(make_speech_clip(6, duration=1.0), rate))
        vib = displacement_from_audio(forcing, config.material, config.force_scale)
        cap = simulate_if_frames(
            config.chirp, vib, config.range_m, reflectivity=config.material.reflectivity, seed=6
        )
        path = tmp_path / "cap.bin"
        save_capture(inject_artifacts(cap, 10.0, 6.0, seed=6), path)
        target, phase = locate_target(CaptureFile(path))
        want_bin, want_phase = locate_target(load_capture(path))
        assert target == want_bin
        assert phase.tobytes() == want_phase.tobytes()

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
        tracemalloc.start()
        try:
            locate_target(cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * cap.frames.nbytes


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
