"""Framing, STFT, mel filterbanks, z-scoring, and phase unwrapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmvib import (
    AudioBuffer,
    hz_to_mel,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    stft,
    unwrap_phase,
    zscore_normalize,
)
from mmvib.signal_core import (
    MEL_LOSS_BANDS,
    MEL_LOSS_WINDOWS,
    frame_signal,
    hann_window,
)
from oracles import gather_frame_signal


class TestZscore:
    def test_known_triple(self):
        out = zscore_normalize(AudioBuffer([1.0, 2.0, 3.0], 8000.0))
        np.testing.assert_allclose(out.samples, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_moments(self):
        rng = np.random.default_rng(0)
        out = zscore_normalize(AudioBuffer(rng.standard_normal(4096) * 3 + 7, 8000.0))
        assert abs(out.samples.mean()) < 1e-9
        assert abs(out.samples.std() - 1.0) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        once = zscore_normalize(AudioBuffer(rng.standard_normal(512), 8000.0))
        twice = zscore_normalize(once)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-6)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="degenerate normalization"):
            zscore_normalize(AudioBuffer([5.0, 5.0, 5.0], 8000.0))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="degenerate normalization"):
            zscore_normalize(AudioBuffer([1.0], 8000.0))

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_moments_property(self, values):
        arr = np.asarray(values)
        if arr.std() < 1e-9:
            return
        out = zscore_normalize(AudioBuffer(arr, 8000.0))
        assert abs(out.samples.mean()) < 1e-7
        assert abs(out.samples.std() - 1.0) < 1e-7


class TestUnwrap:
    def test_no_wrap_unchanged(self):
        p = np.array([0.0, 0.1, 0.2])
        np.testing.assert_allclose(unwrap_phase(p), p)

    def test_single_jump(self):
        np.testing.assert_allclose(
            unwrap_phase(np.array([3.0, -3.0])), [3.0, 3.2831853], atol=1e-6
        )

    def test_wrapped_ramp_recovered(self):
        ramp = np.linspace(0.0, 40.0, 500)
        wrapped = np.angle(np.exp(1j * ramp))
        np.testing.assert_allclose(unwrap_phase(wrapped), ramp, atol=1e-9)

    def test_empty_and_scalar(self):
        assert unwrap_phase(np.array([])).size == 0
        np.testing.assert_allclose(unwrap_phase(np.array([1.5])), [1.5])

    @given(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            min_size=2,
            max_size=100,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mod_2pi_and_diff_range(self, values):
        p = np.asarray(values)
        out = unwrap_phase(p)
        two_pi = 2.0 * np.pi
        # output differs from input by whole turns only
        turns = (out - p) / two_pi
        np.testing.assert_allclose(turns, np.round(turns), atol=1e-6)
        d = np.diff(out)
        assert np.all(d > -np.pi - 1e-9)
        assert np.all(d <= np.pi + 1e-9)


class TestStft:
    def test_zero_signal(self):
        spec = stft(AudioBuffer(np.zeros(1024), 8000.0), 256, 64)
        assert np.all(spec == 0)

    def test_sine_peak_bin(self):
        t = np.arange(4096) / 8000.0
        spec = stft(AudioBuffer(np.sin(2 * np.pi * 1000.0 * t), 8000.0), 256, 64)
        mags = np.abs(spec)
        assert np.all(mags.argmax(axis=0) == 32)

    def test_impulse_locality(self):
        x = np.zeros(1024)
        x[10] = 1.0
        spec = stft(AudioBuffer(x, 8000.0), 256, 64)
        energy = (np.abs(spec) ** 2).sum(axis=0)
        assert energy[0] > 0
        # only frame 0 starts at or before sample 10
        assert np.all(energy[1:] == 0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="input too short"):
            stft(AudioBuffer(np.zeros(100), 8000.0), 256, 64)

    def test_frame_count_and_shape(self):
        spec = stft(AudioBuffer(np.zeros(1000), 8000.0), 256, 64)
        assert spec.shape == (129, (1000 - 256) // 64 + 1)

    def test_parseval_energy_tracking(self):
        # window-compensated spectral energy stays within 1% of signal energy
        rng = np.random.default_rng(3)
        n, window_len, hop = 2**17, 256, 64
        x = rng.standard_normal(n)
        spec = stft(AudioBuffer(x, 8000.0), window_len, hop)
        power = np.abs(spec) ** 2
        power[1:-1] *= 2.0  # one-sided correction
        win = hann_window(window_len)
        estimate = power.sum() / window_len * (hop / np.dot(win, win))
        assert abs(estimate / np.dot(x, x) - 1.0) < 0.01


class TestFrameSignal:
    def test_rows_match_slices(self):
        x = np.arange(20.0)
        frames = frame_signal(x, 8, 4)
        assert frames.shape == (4, 8)
        np.testing.assert_array_equal(frames[1], x[4:12])

    def test_trailing_samples_dropped(self):
        assert frame_signal(np.arange(21.0), 8, 4).shape == (4, 8)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=60),
    )
    def test_equals_the_gather_and_is_read_only(self, window_len, hop, extra):
        # hop > window_len included: rows then skip samples
        x = np.random.default_rng(window_len * 1000 + hop).standard_normal(window_len + extra)
        frames = frame_signal(x, window_len, hop)
        want = gather_frame_signal(x, window_len, hop)
        assert frames.shape == want.shape
        np.testing.assert_array_equal(frames, want)
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0] = 1.0
        # stft's windowed rows are unchanged bit for bit, not just close
        window = hann_window(window_len)
        assert (frames * window).tobytes() == (want * window).tobytes()


class TestMel:
    def test_filterbank_shape_and_peak(self):
        bank = mel_filterbank(26, 256, 8000.0)
        assert bank.shape == (26, 129)
        assert np.all(bank >= 0)
        assert bank.max() <= 1.0 + 1e-12

    def test_filterbank_shared_read_only(self):
        bank = mel_filterbank(26, 256, 8000.0)
        assert mel_filterbank(26, 256, 8000.0) is bank
        np.testing.assert_array_equal(bank, mel_filterbank.__wrapped__(26, 256, 8000.0))
        with pytest.raises(ValueError, match="read-only"):
            bank[0, 0] = 2.0

    def test_over_resolved(self):
        with pytest.raises(ValueError, match="over-resolved filterbank"):
            mel_filterbank(200, 64, 8000.0)

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            mel_filterbank(10, 256, 8000.0, fmin=5000.0)

    def test_zero_signal(self):
        out = mel_spectrogram(AudioBuffer(np.zeros(2048), 8000.0), 20, 128)
        assert out.shape[0] == 20
        assert np.all(out == 0)

    def test_white_noise_fills_every_band(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            out = mel_spectrogram(AudioBuffer(rng.standard_normal(8192), 8000.0), 40, 256)
            assert np.all(out.mean(axis=1) > 0)

    def test_linearity_in_magnitude(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4096)
        base = mel_spectrogram(AudioBuffer(x, 8000.0), 20, 256)
        scaled = mel_spectrogram(AudioBuffer(-2.5 * x, 8000.0), 20, 256)
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-9)

    def test_loss_family(self):
        assert MEL_LOSS_BANDS == (5, 10, 20, 40, 80, 160, 320)
        assert MEL_LOSS_WINDOWS == (32, 64, 128, 256, 512, 1024, 2048)
        audio = AudioBuffer(np.ones(4096), 8000.0)
        for n_mels, window_len in zip(MEL_LOSS_BANDS, MEL_LOSS_WINDOWS):
            # frames sit a quarter window apart
            frames = (4096 - window_len) // (window_len // 4) + 1
            assert mel_spectrogram(audio, n_mels, window_len).shape == (n_mels, frames)

    def test_scale_round_trip(self):
        freqs = np.array([0.0, 50.0, 700.0, 4000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)


class TestTypes:
    def test_audio_buffer_validation(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((2, 2)), 8000.0)
        with pytest.raises(ValueError):
            AudioBuffer([0.0, np.nan], 8000.0)
        with pytest.raises(ValueError):
            AudioBuffer([0.0], -1.0)
        buf = AudioBuffer([0.0, 1.0], 8000.0)
        assert len(buf) == 2
        assert buf.duration == pytest.approx(2 / 8000.0)
