"""Quality metrics: identities, orderings, error handling, and oracle checks."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmvib.metrics
import mmvib.signal_core
from conftest import traced_peak
from mmvib import (
    AudioBuffer,
    SynthesisConfig,
    fwsegsnr,
    mag_l1,
    mcd,
    mel_loss,
    score_pair,
    stft,
    stoi,
    synthesize_mmvib,
    wer_cer,
    zscore_normalize,
)
from mmvib.signal_core import _band_plan
from oracles import (
    naive_edit_distance,
    oracle_fwsegsnr,
    oracle_mcd,
    oracle_wer_cer,
    rolling_edit_distance,
)
from speechgen import make_dense_clip, make_speech_clip


def degrade(clip, alpha, beta, seed):
    return synthesize_mmvib(clip, SynthesisConfig(alpha=alpha, beta=beta, seed=seed))


class TestFwsegsnr:
    def test_identity_is_ceiling(self):
        clip = make_speech_clip(0)
        assert fwsegsnr(clip, clip) == pytest.approx(35.0)

    def test_monotone_in_perturbation(self):
        clip = make_speech_clip(1)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(len(clip))
        values = []
        for eps in (0.001, 0.01, 0.1, 1.0):
            deg = AudioBuffer(clip.samples + eps * noise, clip.sample_rate)
            values.append(fwsegsnr(clip, deg))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_db_white_noise_plausible(self):
        clip = zscore_normalize(make_speech_clip(2))
        rng = np.random.default_rng(3)
        deg = AudioBuffer(clip.samples + rng.standard_normal(len(clip)), clip.sample_rate)
        value = fwsegsnr(clip, deg)
        assert -5.0 <= value <= 10.0

    def test_matches_oracle(self):
        clip = make_speech_clip(3)
        deg = degrade(clip, 0.5, 0.2, seed=4)
        mine = fwsegsnr(zscore_normalize(clip), deg)
        ref = oracle_fwsegsnr(zscore_normalize(clip), deg)
        assert mine == pytest.approx(ref, rel=1e-9)

    def test_silent_reference_rejected(self):
        silent = AudioBuffer(np.zeros(8000), 8000.0)
        with pytest.raises(ValueError, match="reference is silent"):
            fwsegsnr(silent, silent)

    def test_rate_mismatch_rejected(self):
        a = AudioBuffer(np.ones(4000) * 0.1, 8000.0)
        b = AudioBuffer(np.ones(4000) * 0.1, 16000.0)
        with pytest.raises(ValueError, match="sample rates differ"):
            fwsegsnr(a, b)


class TestStoi:
    def test_identity_near_one(self):
        clip = make_speech_clip(4)
        assert stoi(clip, clip) >= 0.99

    def test_unrelated_noise_scores_low(self):
        # stationary harmonic material: both silences and deep coherent
        # envelope swings let the clipping stage manufacture correlation
        # with flat-envelope noise, a known trait of this measure
        clip = make_dense_clip(5, fricative_gain=0.0, modulation_depth=0.0)
        rng = np.random.default_rng(6)
        noise = AudioBuffer(rng.standard_normal(len(clip)), clip.sample_rate)
        assert stoi(clip, noise) <= 0.3

    def test_noise_where_reference_is_weak_hurts_more(self):
        # per-band correlations ride on band-level SNR, so fixed-power noise
        # does the most damage where the reference has the least energy
        from scipy.signal import filtfilt, firwin

        clip = make_dense_clip(6, fricative_gain=0.0)
        fs = clip.sample_rate
        g = np.random.default_rng(30).standard_normal(len(clip))
        strong_band = filtfilt(firwin(257, [150, 1000], fs=fs, pass_zero=False), [1.0], g)
        weak_band = filtfilt(firwin(257, [2500, 3900], fs=fs, pass_zero=False), [1.0], g)
        power = 0.02 * clip.samples.var()
        strong_band *= np.sqrt(power / strong_band.var())
        weak_band *= np.sqrt(power / weak_band.var())
        s_strong = stoi(clip, AudioBuffer(clip.samples + strong_band, fs))
        s_weak = stoi(clip, AudioBuffer(clip.samples + weak_band, fs))
        assert s_weak < s_strong

    def test_degrades_with_beta(self):
        clip = make_dense_clip(7)
        scores = [stoi(clip, degrade(clip, 0.0, b, seed=8)) for b in (0.1, 1.0, 3.0)]
        assert scores[0] > scores[1] > scores[2]


class TestMcd:
    def test_identity_zero(self):
        clip = make_speech_clip(8)
        assert abs(mcd(clip, clip)) <= 1e-9

    def test_gain_invariant(self):
        clip = make_speech_clip(9)
        louder = AudioBuffer(clip.samples * 10.0, clip.sample_rate)
        assert abs(mcd(clip, louder)) < 1e-6

    def test_small_degradation_under_speech_quality_threshold(self):
        clip = make_speech_clip(10)
        deg = degrade(clip, 0.005, 0.002, seed=11)
        assert mcd(zscore_normalize(clip), deg) < 8.0

    def test_matches_oracle(self):
        clip = make_speech_clip(11)
        deg = degrade(clip, 0.7, 0.2, seed=12)
        mine = mcd(zscore_normalize(clip), deg)
        ref = oracle_mcd(zscore_normalize(clip), deg)
        assert mine == pytest.approx(ref, rel=1e-9)


class TestMelLoss:
    def test_identity_zero(self):
        clip = make_speech_clip(12)
        assert abs(mel_loss(clip, clip)) <= 1e-9

    def test_symmetric(self):
        a = make_speech_clip(13)
        b = degrade(a, 0.4, 0.1, seed=14)
        za = zscore_normalize(a)
        assert mel_loss(za, b) == pytest.approx(mel_loss(b, za), rel=1e-12)

    def test_strictly_increases_with_beta(self):
        clip = make_speech_clip(14)
        values = [mel_loss(zscore_normalize(clip), degrade(clip, 0.0, b, seed=15))
                  for b in (0.1, 0.3, 1.0)]
        assert values[0] < values[1] < values[2]


class TestMagL1:
    def test_identity_zero(self):
        clip = make_speech_clip(15)
        spec = stft(clip.samples, 256, 64)
        assert mag_l1(spec, spec) == 0.0

    def test_doubling_gives_mean_magnitude(self):
        clip = make_speech_clip(16)
        doubled = AudioBuffer(clip.samples * 2.0, clip.sample_rate)
        s1 = stft(clip.samples, 256, 64)
        s2 = stft(doubled.samples, 256, 64)
        expected = float(np.abs(s1).mean())
        assert mag_l1(s1, s2) == pytest.approx(expected, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a, b, c = (
                stft(rng.standard_normal(2000), 256, 64)
                for _ in range(3)
            )
            assert mag_l1(a, c) <= mag_l1(a, b) + mag_l1(b, c) + 1e-12

    def test_shape_mismatch_rejected(self):
        a = stft(make_speech_clip(17).samples, 256, 64)
        b = stft(make_speech_clip(17, duration=1.0).samples, 256, 64)
        with pytest.raises(ValueError, match="shape mismatch"):
            mag_l1(a, b)


class TestWerCer:
    def test_identical(self):
        assert wer_cer("a b c", "a b c") == (0.0, 0.0)

    def test_one_substitution(self):
        wer, cer = wer_cer("a b c", "a x c")
        assert wer == pytest.approx(1.0 / 3.0)
        assert cer == pytest.approx(1.0 / 5.0)

    def test_empty_hypothesis(self):
        wer, cer = wer_cer("abc", "")
        assert cer == 1.0
        assert wer == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            wer_cer("", "something")

    def test_reference_of_empty_tokens_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            wer_cer([""], "something")

    def test_token_lists_accepted(self):
        wer, _ = wer_cer(["hello", "world"], ["hello", "there"])
        assert wer == 0.5

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from("ab cd ef gh".split()), min_size=1, max_size=8),
        st.lists(st.sampled_from("ab cd ef gh".split()), min_size=0, max_size=8),
    )
    def test_matches_naive_edit_distance(self, ref, hyp):
        ref_text = " ".join(ref)
        hyp_text = " ".join(hyp)
        wer, cer = wer_cer(ref_text, hyp_text)
        exp_wer, exp_cer = oracle_wer_cer(ref_text, hyp_text)
        assert wer == pytest.approx(exp_wer)
        assert cer == pytest.approx(exp_cer)


    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), max_size=20),
        st.lists(st.sampled_from("abcde"), max_size=20),
    )
    def test_edit_distance_equals_the_loop(self, a, b):
        # exact integers, empty lists included, in either argument order
        want = rolling_edit_distance(a, b)
        assert mmvib.metrics._edit_distance(a, b) == want
        assert mmvib.metrics._edit_distance(b, a) == want
        assert naive_edit_distance(a, b) == want


class TestScorePair:
    def test_identity_report(self):
        clip = make_speech_clip(18)
        report = score_pair(clip, clip, "hello world", "hello world")
        assert report.fwsegsnr == pytest.approx(35.0)
        assert report.stoi >= 0.99
        assert abs(report.mcd) <= 1e-9
        assert abs(report.mel_loss) <= 1e-9
        assert report.mag_l1 == 0.0
        assert report.wer == 0.0 and report.cer == 0.0

    def test_texts_optional(self):
        clip = make_speech_clip(19)
        report = score_pair(clip, clip)
        assert report.wer is None and report.cer is None

    def test_truncates_to_common_length(self):
        long_clip = make_speech_clip(20, duration=1.0)
        short = AudioBuffer(long_clip.samples[:6000], long_clip.sample_rate)
        report = score_pair(long_clip, short)
        assert report.fwsegsnr == pytest.approx(35.0)

    def test_to_dict_round_trip(self):
        clip = make_speech_clip(21)
        d = score_pair(clip, clip).to_dict()
        assert set(d) == {"fwsegsnr", "stoi", "mcd", "mel_loss", "mag_l1", "wer", "cer"}

    def test_filterbanks_built_once_across_calls(self, monkeypatch):
        clip = make_speech_clip(2, duration=1.0)
        deg = degrade(clip, 0.1, 0.05, seed=2)
        want = score_pair(clip, deg)
        builds = Counter()

        def counted(bank_of):
            def build(*args):
                builds[(bank_of.__name__, *args)] += 1
                return bank_of(*args)
            return build

        for name in ("mel_filterbank", "_third_octave_bands"):
            monkeypatch.setattr(mmvib.metrics, name, counted(getattr(mmvib.metrics, name)))
        _band_plan.cache_clear()
        first = score_pair(clip, deg)
        built = _band_plan.cache_info()
        n_builds = builds.copy()
        second = score_pair(clip, deg)
        again = _band_plan.cache_info()
        # each distinct plan is built once; every call of the second pair hits
        assert built.misses == built.currsize > 0
        assert again.misses == built.misses
        assert again.hits - built.hits == built.hits + built.misses
        # each distinct bank is built once, for its plan, and none for the repeated pair
        assert len(n_builds) == built.misses
        assert set(n_builds.values()) == {1}
        assert builds == n_builds
        assert first == second == want


def _scored_pairs():
    """(ref, deg, ref_text, hyp_text) at 8 and 16 kHz, of unequal lengths."""
    a = zscore_normalize(make_speech_clip(31, duration=1.5))
    a_deg = degrade(a, 0.3, 0.1, seed=32)
    b = zscore_normalize(make_speech_clip(33, duration=1.2, rate=16000.0))
    b_deg = degrade(b, 0.5, 0.2, seed=34)
    return {
        "8k_texts": (
            a,
            AudioBuffer(a_deg.samples[:-333], a_deg.sample_rate),
            "the quick brown fox",
            "the quick brown box",
        ),
        "16k": (AudioBuffer(b.samples[:-517], b.sample_rate), b_deg, None, None),
    }


# score_pair on _scored_pairs() before the pair's spectra were shared
_RECORDED_REPORTS = {
    "8k_texts": {
        "fwsegsnr": 4.205169787853072,
        "stoi": 0.9705363319579883,
        "mcd": 56.443138134917106,
        "mel_loss": 9.948887020441068,
        "mag_l1": 2.1641781148709813,
        "wer": 0.25,
        "cer": 0.05263157894736842,
    },
    "16k": {
        "fwsegsnr": -2.412739388568625,
        "stoi": 0.9719329985195694,
        "mcd": 67.37270451037108,
        "mel_loss": 14.837429327067717,
        "mag_l1": 4.023286345608391,
        "wer": None,
        "cer": None,
    },
}


class TestSharedSpectra:
    @pytest.mark.parametrize("name", sorted(_RECORDED_REPORTS))
    @pytest.mark.parametrize("texts", [True, False])
    def test_equals_the_public_metrics(self, name, texts):
        ref, deg, ref_text, hyp_text = _scored_pairs()[name]
        if not texts:
            ref_text = hyp_text = None
        elif ref_text is None:
            ref_text, hyp_text = "a b c", "a x c"
        n = min(len(ref), len(deg))
        window = mmvib.metrics.REPORT_SPEC_WINDOW
        ref_spec = stft(ref.samples[:n], window, window // 4)
        deg_spec = stft(deg.samples[:n], window, window // 4)
        want = {
            "fwsegsnr": fwsegsnr(ref, deg),
            "stoi": float(np.clip(stoi(ref, deg), 0.0, 1.0)),
            "mcd": mcd(ref, deg),
            "mel_loss": mel_loss(ref, deg),
            "mag_l1": mag_l1(ref_spec, deg_spec),
            "wer": None,
            "cer": None,
        }
        if texts:
            want["wer"], want["cer"] = wer_cer(ref_text, hyp_text)
        # exact: the shared spectra are the ones each metric computes alone
        assert score_pair(ref, deg, ref_text, hyp_text).to_dict() == want

    @pytest.mark.parametrize("name", sorted(_RECORDED_REPORTS))
    def test_matches_the_recorded_reports(self, name):
        report = score_pair(*_scored_pairs()[name]).to_dict()
        recorded = _RECORDED_REPORTS[name]
        assert report.keys() == recorded.keys()
        for key, value in recorded.items():
            if value is None:
                assert report[key] is None
            else:
                assert report[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    def test_each_framing_runs_once_per_signal(self, monkeypatch):
        ref, deg, _, _ = _scored_pairs()["8k_texts"]
        framings = Counter()
        original = mmvib.metrics.stft

        def counted(audio, window_len, hop):
            framings[window_len, hop] += 1
            return original(audio, window_len, hop)

        monkeypatch.setattr(mmvib.metrics, "stft", counted)
        score_pair(ref, deg)
        want = {(200, 80): 2}
        want.update({(w, w // 4): 2 for w in mmvib.signal_core.MEL_LOSS_WINDOWS})
        assert dict(framings) == want

    def test_peak_memory_on_a_long_pair(self):
        # 15 s at 8 kHz; before the spectra were shared the traced peak was
        # 25.8 MB, and holding all seven mel resolutions at once adds ~27 MB
        clip = make_speech_clip(40, duration=15.0)
        ref = zscore_normalize(clip)
        deg = degrade(clip, 0.4, 0.2, seed=41)
        score_pair(ref, deg)  # build the cached band plans outside the trace
        assert traced_peak(lambda: score_pair(ref, deg)) <= 1.1 * 25.8e6
