"""Noise generators, degradation mixing, and dataset building."""

import json
import sys

import numpy as np
import pytest

import mmvib.synth
from mmvib import (
    AudioBuffer,
    SynthesisConfig,
    build_dataset,
    gen_gaussian_noise,
    gen_purple_noise,
    item_seed,
    read_wav,
    synthesize_mmvib,
    write_wav,
    zscore_normalize,
)
from mmvib.cli import main
from oracles import psd_halfband_ratio, psd_slope_db_per_decade
from speechgen import make_speech_clip


class TestGaussianNoise:
    def test_moments(self):
        x = gen_gaussian_noise(2**14, seed=0).samples
        assert abs(x.mean()) < 1e-9
        assert abs(x.std() - 1.0) < 1e-9

    def test_deterministic(self):
        a = gen_gaussian_noise(4096, seed=7).samples
        b = gen_gaussian_noise(4096, seed=7).samples
        np.testing.assert_array_equal(a, b)
        c = gen_gaussian_noise(4096, seed=8).samples
        assert not np.array_equal(a, c)

    def test_spectrally_flat(self):
        x = gen_gaussian_noise(2**16, seed=3)
        ratio = psd_halfband_ratio(x.samples, x.sample_rate)
        assert 0.8 <= ratio <= 1.25

    def test_too_short(self):
        with pytest.raises(ValueError):
            gen_gaussian_noise(1, seed=0)


class TestPurpleNoise:
    def test_moments(self):
        x = gen_purple_noise(2**14, seed=0).samples
        assert abs(x.mean()) < 1e-9
        assert abs(x.std() - 1.0) < 1e-9

    def test_slope_plus_twenty(self):
        x = gen_purple_noise(2**16, seed=5)
        slope = psd_slope_db_per_decade(x.samples, x.sample_rate)
        assert slope == pytest.approx(20.0, abs=2.0)

    def test_high_band_dominates(self):
        x = gen_purple_noise(2**16, seed=9)
        assert psd_halfband_ratio(x.samples, x.sample_rate) > 3.0

    def test_deterministic(self):
        a = gen_purple_noise(4096, seed=2).samples
        b = gen_purple_noise(4096, seed=2).samples
        np.testing.assert_array_equal(a, b)

    def test_too_short(self):
        with pytest.raises(ValueError):
            gen_purple_noise(3, seed=0)


class TestSynthesize:
    def test_zero_gains_return_zscored_input(self):
        clip = make_speech_clip(0)
        out = synthesize_mmvib(clip, SynthesisConfig(alpha=0.0, beta=0.0, seed=4))
        np.testing.assert_array_equal(out.samples, zscore_normalize(clip).samples)

    def test_variance_additivity(self):
        clip = make_speech_clip(1)
        cfg = SynthesisConfig(alpha=1.0, beta=0.3, seed=11)
        out = synthesize_mmvib(clip, cfg)
        expected = 1.0 + cfg.alpha**2 + cfg.beta**2
        assert out.samples.var() == pytest.approx(expected, rel=0.05)

    def test_noise_is_additive_and_speech_independent(self):
        cfg = SynthesisConfig(alpha=0.8, beta=0.2, seed=21)
        a = make_speech_clip(2)
        b = make_speech_clip(3)
        noise_a = synthesize_mmvib(a, cfg).samples - zscore_normalize(a).samples
        noise_b = synthesize_mmvib(b, cfg).samples - zscore_normalize(b).samples
        m = min(len(noise_a), len(noise_b))
        np.testing.assert_allclose(noise_a[:m], noise_b[:m], atol=1e-12)

    def test_high_band_degrades_more(self):
        # purple noise concentrates power up high, so the upper band drowns first
        clip = make_speech_clip(4)
        clean = zscore_normalize(clip).samples
        out = synthesize_mmvib(clip, SynthesisConfig(alpha=1.0, beta=0.3, seed=6))
        noise = out.samples - clean
        spec_clean = np.abs(np.fft.rfft(clean)) ** 2
        spec_noise = np.abs(np.fft.rfft(noise)) ** 2
        freqs = np.fft.rfftfreq(len(clean), 1.0 / clip.sample_rate)
        low = freqs < 1000.0
        high = freqs > 2000.0
        snr_low = spec_clean[low].sum() / spec_noise[low].sum()
        snr_high = spec_clean[high].sum() / spec_noise[high].sum()
        assert snr_high < snr_low

    def test_constant_speech_rejected(self):
        flat = AudioBuffer(np.ones(512), 8000.0)
        with pytest.raises(ValueError, match="degenerate normalization"):
            synthesize_mmvib(flat, SynthesisConfig())

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            SynthesisConfig(alpha=-0.1)

    @pytest.mark.parametrize("gains", [(np.inf, 0.3), (1.0, np.inf), (np.nan, 0.3), (1.0, np.nan)])
    def test_non_finite_gain_rejected(self, gains):
        # an infinite gain would make inf - inf in the mix
        with pytest.raises(ValueError, match="^alpha and beta must be finite and >= 0, got "):
            SynthesisConfig(*gains)


class TestItemSeed:
    def test_deterministic_and_distinct(self):
        seeds = [item_seed(42, i) for i in range(100)]
        assert seeds == [item_seed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_root_changes_everything(self):
        assert item_seed(1, 0) != item_seed(2, 0)


class TestBuildDataset:
    @pytest.fixture()
    def manifest(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"clip{i}.wav"
            write_wav(p, make_speech_clip(i, duration=0.5))
            paths.append(p)
        m = tmp_path / "input.txt"
        m.write_text("\n".join(str(p) for p in paths) + "\n")
        return m

    def test_three_rows(self, manifest, tmp_path):
        out = build_dataset(manifest, tmp_path / "ds", SynthesisConfig(seed=5))
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 3
        for row in rows:
            assert read_wav(row["degraded_path"]).sample_rate == 8000.0

    def test_rerun_byte_identical(self, manifest, tmp_path):
        cfg = SynthesisConfig(seed=5)
        m1 = build_dataset(manifest, tmp_path / "d1", cfg)
        m2 = build_dataset(manifest, tmp_path / "d2", cfg)
        rows1 = [json.loads(l) for l in m1.read_text().splitlines()]
        rows2 = [json.loads(l) for l in m2.read_text().splitlines()]
        for r1, r2 in zip(rows1, rows2):
            b1 = (tmp_path / "d1" / "degraded" / r1["degraded_path"].split("/")[-1]).read_bytes()
            b2 = (tmp_path / "d2" / "degraded" / r2["degraded_path"].split("/")[-1]).read_bytes()
            assert b1 == b2

    def test_item_isolation(self, manifest, tmp_path):
        # regenerating item 1 alone reproduces the dataset's file for it
        cfg = SynthesisConfig(alpha=1.0, beta=0.3, seed=9)
        out = build_dataset(manifest, tmp_path / "ds", cfg)
        row = [json.loads(l) for l in out.read_text().splitlines()][1]
        clean = read_wav(row["clean_path"])
        regen = synthesize_mmvib(
            clean, SynthesisConfig(cfg.alpha, cfg.beta, item_seed(cfg.seed, 1))
        )
        stored = read_wav(row["degraded_path"])
        np.testing.assert_array_equal(
            stored.samples, regen.samples.astype(np.float32).astype(np.float64)
        )

    def test_unreadable_entry_recorded(self, manifest, tmp_path):
        lines = manifest.read_text().splitlines()
        lines.insert(1, str(tmp_path / "missing.wav"))
        manifest.write_text("\n".join(lines) + "\n")
        out = build_dataset(manifest, tmp_path / "ds", SynthesisConfig(seed=5))
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 4
        assert "error" in rows[1]
        assert sum("error" not in r for r in rows) == 3

    @pytest.fixture()
    def two_clips(self, tmp_path):
        """A manifest of two 0.5 s clips, a.wav then b.wav."""
        for i, name in enumerate("ab"):
            write_wav(tmp_path / f"{name}.wav", make_speech_clip(i, duration=0.5))
        m = tmp_path / "input.txt"
        m.write_text(f"{tmp_path / 'a.wav'}\n{tmp_path / 'b.wav'}\n")
        return m

    def test_entry_whose_write_fails_gets_an_error_row(self, two_clips, tmp_path):
        # a directory sits where entry 1's clean copy goes
        blocked = tmp_path / "ds" / "clean" / "00001_b.wav"
        blocked.mkdir(parents=True)
        out = build_dataset(two_clips, tmp_path / "ds", SynthesisConfig(seed=5))
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows[1] == {"clean_path": str(tmp_path / "b.wav"),
                           "error": f"[Errno 21] Is a directory: '{blocked}'"}
        assert read_wav(rows[0]["degraded_path"]).sample_rate == 8000.0
        assert rows[0]["clean_path"] == str(tmp_path / "ds" / "clean" / "00000_a.wav")

    def test_entry_whose_degraded_write_fails_leaves_no_clean_copy(self, two_clips, tmp_path,
                                                                   capsys):
        # a directory sits where entry 1's degraded copy goes, so its clean
        # copy is written first and the entry fails after it
        blocked = tmp_path / "ds" / "degraded" / "00001_b.wav"
        blocked.mkdir(parents=True)
        assert main(["synth", "--manifest", str(two_clips), "--out-dir", str(tmp_path / "ds"),
                     "--seed", "5"]) == 0
        assert capsys.readouterr().err == ""
        rows = [json.loads(l) for l in (tmp_path / "ds" / "manifest.jsonl").read_text().splitlines()]
        assert rows[1] == {"clean_path": str(tmp_path / "b.wav"),
                           "error": f"[Errno 21] Is a directory: '{blocked}'"}
        named = {row["clean_path"] for row in rows if "error" not in row}
        assert {str(p) for p in (tmp_path / "ds" / "clean").iterdir()} == named
        assert blocked.is_dir()

    def test_entry_out_of_memory_gets_an_error_row(self, two_clips, tmp_path, monkeypatch):
        def synthesize(speech, cfg):
            if cfg.seed == item_seed(5, 0):
                raise MemoryError("Unable to allocate 8.00 EiB")
            return synthesize_mmvib(speech, cfg)

        monkeypatch.setattr(mmvib.synth, "synthesize_mmvib", synthesize)
        out = build_dataset(two_clips, tmp_path / "ds", SynthesisConfig(seed=5))
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows[0] == {"clean_path": str(tmp_path / "a.wav"),
                           "error": "Unable to allocate 8.00 EiB"}
        assert read_wav(rows[1]["degraded_path"]).sample_rate == 8000.0
        assert not (tmp_path / "ds" / "degraded" / "00000_a.wav").exists()

    def test_all_fail(self, tmp_path):
        m = tmp_path / "input.txt"
        m.write_text(str(tmp_path / "nope.wav") + "\n")
        with pytest.raises(RuntimeError, match="all manifest entries failed"):
            build_dataset(m, tmp_path / "ds", SynthesisConfig())

    def test_empty_manifest(self, tmp_path):
        m = tmp_path / "input.txt"
        m.write_text("")
        with pytest.raises(ValueError, match="no entries"):
            build_dataset(m, tmp_path / "ds", SynthesisConfig())

    def test_jitter_recorded_and_deterministic(self, manifest, tmp_path):
        cfg = SynthesisConfig(alpha=1.0, beta=0.3, seed=13)
        m1 = build_dataset(manifest, tmp_path / "j1", cfg, jitter=True)
        m2 = build_dataset(manifest, tmp_path / "j2", cfg, jitter=True)
        rows1 = [json.loads(l) for l in m1.read_text().splitlines()]
        rows2 = [json.loads(l) for l in m2.read_text().splitlines()]
        for r1, r2 in zip(rows1, rows2):
            assert r1["alpha"] == r2["alpha"]
            assert r1["beta"] == r2["beta"]
            assert 0.5 <= r1["alpha"] <= 1.5
        assert len({r["alpha"] for r in rows1}) == 3


class TestMapRows:
    @pytest.fixture
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(mmvib.synth.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(mmvib.synth.os, "cpu_count", lambda: 1)

    @staticmethod
    def _failing(failing: set, started: list):
        def work(row):
            started.append(row)
            if row in failing:
                raise ValueError(f"row {row}")
            return row * 10

        return work

    def test_results_keep_row_order_whatever_the_start_order(self, one_cpu):
        started = []
        rows = [3, 1, 4, 1, 5]
        assert mmvib.synth.map_rows(self._failing(set(), started), rows, size=lambda r: r) == [
            30, 10, 40, 10, 50]
        # largest first, equal sizes in row order
        assert started == [5, 4, 3, 1, 1]

    def test_the_first_failing_row_in_row_order_is_raised(self, one_cpu):
        # row 3 starts and fails first; rows before it still run, and row 1's error is raised
        started = []
        with pytest.raises(ValueError, match="^row 1$"):
            mmvib.synth.map_rows(self._failing({1, 3}, started), [0, 1, 2, 3], size=lambda r: r)
        assert started == [3, 2, 1, 0]

    def test_first_failure_holds_under_thread_switches(self, monkeypatch):
        # more workers than CPUs, switching threads as often as the interpreter allows
        monkeypatch.setattr(mmvib.synth.os, "sched_getaffinity", lambda pid: set(range(16)),
                            raising=False)
        rng = np.random.default_rng(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                failing = set(rng.choice(64, size=3, replace=False).tolist())
                started = []
                with pytest.raises(ValueError) as err:
                    mmvib.synth.map_rows(self._failing(failing, started), list(range(64)),
                                         size=lambda r: (r * 37) % 64)
                first = min(failing)
                assert str(err.value) == f"row {first}"
                # every row before it ran, once
                assert sorted(r for r in started if r <= first) == list(range(first + 1))
        finally:
            sys.setswitchinterval(interval)

    def test_rows_after_a_failed_one_are_dropped(self, one_cpu):
        started = []
        with pytest.raises(ValueError, match="^row 0$"):
            mmvib.synth.map_rows(self._failing({0}, started), [0, 1, 2])
        assert started == [0]
