"""Acceptance checks for the whole toolkit.

Each test prints one [PASS]/[FAIL] line with its measured numbers before
asserting, so a -s run shows at a glance where every criterion stands. The
checks cover the resonance law, simulate/extract round trips, preprocessing
efficacy, the chirp-count tradeoff, noise coloring, the synthesis contract,
metric identities and orderings, oracle equivalence, end-to-end pipeline
quality, and CLI determinism.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_tone_capture
from oracles import (
    oracle_fwsegsnr,
    oracle_mcd,
    oracle_wer_cer,
    psd_halfband_ratio,
    psd_slope_db_per_decade,
)
from speechgen import make_speech_clip

from mmvib import (
    AudioBuffer,
    ChirpConfig,
    IFCapture,
    SurfaceMaterial,
    SynthesisConfig,
    extract_vibration,
    forced_response_amplitude,
    fwsegsnr,
    gen_gaussian_noise,
    gen_purple_noise,
    inject_artifacts,
    low_pass,
    mcd,
    mel_loss,
    read_wav,
    score_pair,
    synthesize_mmvib,
    wer_cer,
    write_wav,
    zscore_normalize,
)
from mmvib.cli import main


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} {name}: {detail}")


def test_criterion_01_resonance_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_offset = 0.0
    worst_static = 0.0
    for _ in range(50):
        m = 10.0 ** rng.uniform(-4.0, 1.0)
        k = 10.0 ** rng.uniform(2.0, 7.0)
        # light damping keeps the amplitude peak within a grid step of w_n
        zeta = 10.0 ** rng.uniform(-4.0, np.log10(5e-3))
        c = 2.0 * zeta * np.sqrt(k * m)
        f0 = 10.0 ** rng.uniform(-2.0, 2.0)
        material = SurfaceMaterial(mass=m, stiffness=k, damping=c)
        w_n = np.sqrt(k / m)
        grid = np.linspace(0.5 * w_n, 1.5 * w_n, 10_000)
        step = grid[1] - grid[0]
        amplitude = forced_response_amplitude(material, f0, grid)
        offset = abs(grid[int(np.argmax(amplitude))] - w_n) / step
        worst_offset = max(worst_offset, offset)
        static = forced_response_amplitude(material, f0, 0.0) * k / f0
        worst_static = max(worst_static, abs(static - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_offset <= 1.0 and worst_static <= 1e-12 and elapsed < 1.0
    _report(
        1,
        "resonance law",
        ok,
        f"peak off by <= {worst_offset:.3f} grid steps (need <= 1), "
        f"|X(0)k/F0 - 1| <= {worst_static:.2e} (need <= 1e-12), {elapsed:.2f} s",
    )
    assert worst_offset <= 1.0
    assert worst_static <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_round_trip_fidelity():
    t0 = time.perf_counter()
    cfg = ChirpConfig()
    duration = 0.96
    results = []
    for freq in (100.0, 500.0, 1000.0, 2000.0, 3500.0):
        capture = make_tone_capture(
            cfg, freq, amplitude_m=1e-6, duration_s=duration,
            range_m=1.5, noise_floor_db=-40.0, seed=int(freq),
        )
        trace = extract_vibration(capture)
        n = len(trace)
        spectrum = np.abs(np.fft.rfft(trace.displacement))
        peak_bin = int(np.argmax(spectrum[1:])) + 1
        expected_bin = int(round(freq * duration))
        amplitude = 2.0 * spectrum[peak_bin] / n
        results.append((freq, abs(peak_bin - expected_bin), abs(amplitude / 1e-6 - 1.0)))
    elapsed = time.perf_counter() - t0
    worst_bin = max(r[1] for r in results)
    worst_amp = max(r[2] for r in results)
    ok = worst_bin <= 1 and worst_amp <= 0.10 and elapsed < 10.0
    _report(
        2,
        "round-trip fidelity",
        ok,
        f"5 tones 100..3500 Hz: peak bin off by <= {worst_bin} (need <= 1), "
        f"amplitude error <= {worst_amp * 100:.2f}% (need <= 10%), {elapsed:.2f} s",
    )
    assert worst_bin <= 1
    assert worst_amp <= 0.10
    assert elapsed < 10.0


def test_criterion_03_preprocessing_efficacy():
    t0 = time.perf_counter()
    cfg = ChirpConfig()
    clean_capture = make_tone_capture(cfg, 500.0, duration_s=0.96, seed=3)
    # artifacts are stamped in place; the clean capture is scored below too
    art_capture = inject_artifacts(IFCapture(clean_capture.frames.copy(), cfg), 10.0, 6.0, seed=4)

    raw = extract_vibration(art_capture, preprocess=False)
    cleaned = extract_vibration(art_capture, preprocess=True)
    n = len(raw)
    frame_bin = int(round(n / cfg.chirps_per_frame))  # frame rate in FFT bins
    tone_bin = int(round(500.0 * 0.96))
    comb = np.array([
        b for b in range(frame_bin, n // 2 + 1, frame_bin)
        if abs(b - tone_bin) > 3
    ])
    raw_energy = float(np.sum(np.abs(np.fft.rfft(raw.displacement))[comb] ** 2))
    cleaned_energy = float(np.sum(np.abs(np.fft.rfft(cleaned.displacement))[comb] ** 2))
    drop_db = 10.0 * np.log10(raw_energy / cleaned_energy)

    pre_on = extract_vibration(clean_capture, preprocess=True)
    pre_off = extract_vibration(clean_capture, preprocess=False)
    distortion = float(
        np.sqrt(np.mean((pre_on.displacement - pre_off.displacement) ** 2))
        / np.sqrt(np.mean(pre_off.displacement ** 2))
    )
    elapsed = time.perf_counter() - t0
    ok = drop_db >= 20.0 and distortion < 0.05 and elapsed < 10.0
    _report(
        3,
        "preprocessing efficacy",
        ok,
        f"frame-rate comb drop {drop_db:.1f} dB (need >= 20), "
        f"clean-signal distortion {distortion * 100:.4f}% (need < 5%), {elapsed:.2f} s",
    )
    assert drop_db >= 20.0
    assert distortion < 0.05
    assert elapsed < 10.0


def test_criterion_04_sampling_rate_tradeoff(tmp_path):
    t0 = time.perf_counter()
    rate = 8000.0
    t = np.arange(int(rate)) / rate
    wav = tmp_path / "tone.wav"
    write_wav(wav, AudioBuffer(0.5 * np.sin(2.0 * np.pi * 500.0 * t), rate))
    report_path = tmp_path / "sweep.json"
    code = main([
        "sweep", "--param", "chirps_per_frame", "--values", "256,512",
        "--audio", str(wav), "--report", str(report_path),
    ])
    with open(report_path.with_suffix(".csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    res = {int(float(r["value"])): float(r["range_resolution_m"]) for r in rows}
    rates = {int(float(r["value"])): float(r["sampling_rate_hz"]) for r in rows}
    res_ratio = res[512] / res[256]
    rate_ratio = rates[512] / rates[256]

    base = ChirpConfig()
    doubled = replace(
        base,
        chirps_per_frame=2 * base.chirps_per_frame,
        chirp_duration=base.chirp_duration / 2.0,
    )
    bw_ratio = (doubled.slope * doubled.chirp_duration) / (base.slope * base.chirp_duration)
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and abs(res_ratio - 2.0) <= 1e-12
        and abs(rate_ratio - 2.0) <= 1e-12
        and abs(bw_ratio - 0.5) <= 1e-12
        and elapsed < 5.0
    )
    _report(
        4,
        "sampling-rate tradeoff",
        ok,
        f"doubling chirps_per_frame: bandwidth x{bw_ratio:.12f} (need 0.5), "
        f"range resolution x{res_ratio:.12f} and chirp rate x{rate_ratio:.12f} "
        f"in the sweep report (need 2.0), {elapsed:.2f} s",
    )
    assert code == 0
    assert res_ratio == pytest.approx(2.0, rel=1e-12)
    assert rate_ratio == pytest.approx(2.0, rel=1e-12)
    assert bw_ratio == pytest.approx(0.5, rel=1e-12)
    assert elapsed < 5.0


def test_criterion_05_noise_colors():
    t0 = time.perf_counter()
    n = 2 ** 16
    rate = 8000.0
    slopes = []
    ratios = []
    for seed in range(20):
        purple = gen_purple_noise(n, seed, sample_rate=rate)
        slopes.append(psd_slope_db_per_decade(purple.samples, rate))
        gaussian = gen_gaussian_noise(n, seed, sample_rate=rate)
        ratios.append(psd_halfband_ratio(gaussian.samples, rate))
    elapsed = time.perf_counter() - t0
    slope_lo, slope_hi = min(slopes), max(slopes)
    ratio_lo, ratio_hi = min(ratios), max(ratios)
    ok = (
        slope_lo >= 18.0 and slope_hi <= 22.0
        and ratio_lo >= 0.8 and ratio_hi <= 1.25
        and elapsed < 10.0
    )
    _report(
        5,
        "noise colors",
        ok,
        f"purple slope in [{slope_lo:.2f}, {slope_hi:.2f}] dB/decade "
        f"(need [18, 22]), Gaussian flatness in [{ratio_lo:.3f}, {ratio_hi:.3f}] "
        f"(need [0.8, 1.25]), 20 seeds at n=2^16, {elapsed:.2f} s",
    )
    assert slope_lo >= 18.0 and slope_hi <= 22.0
    assert ratio_lo >= 0.8 and ratio_hi <= 1.25
    assert elapsed < 10.0


def test_criterion_06_synthesis_contract():
    t0 = time.perf_counter()
    clip = make_speech_clip(6, duration=2.0)
    silent = synthesize_mmvib(clip, SynthesisConfig(alpha=0.0, beta=0.0, seed=7))
    zscored = zscore_normalize(clip)
    exact = bool(np.array_equal(silent.samples, zscored.samples))

    expected = 1.0 + 1.0 ** 2 + 0.3 ** 2
    variances = []
    for seed in range(20):
        out = synthesize_mmvib(clip, SynthesisConfig(seed=seed))
        variances.append(float(out.samples.var()))
    rel = [abs(v / expected - 1.0) for v in variances]
    worst_rel = max(rel)
    elapsed = time.perf_counter() - t0
    ok = exact and worst_rel <= 0.05 and elapsed < 5.0
    _report(
        6,
        "synthesis contract",
        ok,
        f"alpha=beta=0 bit-exact z-score: {exact}, variance within "
        f"{worst_rel * 100:.2f}% of {expected} over 20 seeds (need <= 5%), "
        f"{elapsed:.2f} s",
    )
    assert exact
    assert worst_rel <= 0.05
    assert elapsed < 5.0


def test_criterion_07_metric_identities():
    t0 = time.perf_counter()
    worst = {"fwsegsnr": 0.0, "stoi": 1.0, "mcd": 0.0, "mel_loss": 0.0, "wer": 0.0, "cer": 0.0}
    for seed in range(10):
        clip = make_speech_clip(seed, duration=2.0)
        report = score_pair(clip, clip, "counting one two three", "counting one two three")
        worst["fwsegsnr"] = max(worst["fwsegsnr"], abs(report.fwsegsnr - 35.0))
        worst["stoi"] = min(worst["stoi"], report.stoi)
        worst["mcd"] = max(worst["mcd"], report.mcd)
        worst["mel_loss"] = max(worst["mel_loss"], report.mel_loss)
        worst["wer"] = max(worst["wer"], report.wer)
        worst["cer"] = max(worst["cer"], report.cer)
    elapsed = time.perf_counter() - t0
    ok = (
        worst["fwsegsnr"] <= 1e-9
        and worst["stoi"] >= 0.99
        and worst["mcd"] <= 1e-9
        and worst["mel_loss"] <= 1e-9
        and worst["wer"] == 0.0
        and worst["cer"] == 0.0
        and elapsed < 30.0
    )
    _report(
        7,
        "metric identities",
        ok,
        f"10 clips: |fwsegsnr-35| <= {worst['fwsegsnr']:.1e}, "
        f"stoi >= {worst['stoi']:.4f}, mcd <= {worst['mcd']:.1e}, "
        f"mel_loss <= {worst['mel_loss']:.1e}, wer/cer = "
        f"{worst['wer']:.0f}/{worst['cer']:.0f}, {elapsed:.2f} s",
    )
    assert worst["fwsegsnr"] <= 1e-9
    assert worst["stoi"] >= 0.99
    assert worst["mcd"] <= 1e-9
    assert worst["mel_loss"] <= 1e-9
    assert worst["wer"] == 0.0 and worst["cer"] == 0.0
    assert elapsed < 30.0


def test_criterion_08_metric_ordering():
    t0 = time.perf_counter()
    betas = (0.1, 0.3, 1.0)
    violations = 0
    for seed in range(20):
        clip = make_speech_clip(100 + seed, duration=2.0)
        mcds, mels, fws = [], [], []
        for beta in betas:
            deg = synthesize_mmvib(clip, SynthesisConfig(alpha=0.0, beta=beta, seed=seed))
            ref = zscore_normalize(clip)
            mcds.append(mcd(ref, deg))
            mels.append(mel_loss(ref, deg))
            fws.append(fwsegsnr(ref, deg))
        if not (mcds[0] < mcds[1] < mcds[2]):
            violations += 1
        if not (mels[0] < mels[1] < mels[2]):
            violations += 1
        if not (fws[0] > fws[1] > fws[2]):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(
        8,
        "metric ordering",
        ok,
        f"beta in {betas} over 20 seeds: {violations} ordering violations "
        f"(need 0) for mcd/mel_loss up, fwsegsnr down, {elapsed:.2f} s",
    )
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_fw = 0.0
    worst_mcd = 0.0
    for i in range(20):
        ref = make_speech_clip(200 + i, duration=1.5)
        gain = 10.0 ** rng.uniform(-1.5, -0.6)
        deg = AudioBuffer(
            ref.samples + gain * rng.standard_normal(len(ref)), ref.sample_rate
        )
        ours, theirs = fwsegsnr(ref, deg), oracle_fwsegsnr(ref, deg)
        worst_fw = max(worst_fw, abs(ours - theirs) / max(abs(theirs), 1e-12))
        ours, theirs = mcd(ref, deg), oracle_mcd(ref, deg)
        worst_mcd = max(worst_mcd, abs(ours - theirs) / max(abs(theirs), 1e-12))

    words = "alpha bravo charlie delta echo foxtrot golf hotel".split()
    text_mismatches = 0
    for _ in range(20):
        ref_text = " ".join(rng.choice(words, size=int(rng.integers(1, 10))))
        hyp_text = " ".join(rng.choice(words, size=int(rng.integers(0, 10))))
        if wer_cer(ref_text, hyp_text) != oracle_wer_cer(ref_text, hyp_text):
            text_mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = (
        worst_fw <= 1e-6 and worst_mcd <= 1e-6
        and text_mismatches == 0 and elapsed < 60.0
    )
    _report(
        9,
        "oracle equivalence",
        ok,
        f"20 pairs: fwsegsnr rel err <= {worst_fw:.1e}, mcd rel err <= "
        f"{worst_mcd:.1e} (need <= 1e-6), wer/cer mismatches {text_mismatches} "
        f"(need 0), {elapsed:.2f} s",
    )
    assert worst_fw <= 1e-6
    assert worst_mcd <= 1e-6
    assert text_mismatches == 0
    assert elapsed < 60.0


def test_criterion_10_pipeline_quality(tmp_path):
    t0 = time.perf_counter()
    values = []
    failures = 0
    for i in range(10):
        clip = make_speech_clip(300 + i, duration=2.0)
        clean = tmp_path / f"clip{i}.wav"
        capture = tmp_path / f"cap{i}.bin"
        recovered = tmp_path / f"vib{i}.wav"
        write_wav(clean, clip)
        sim_code = main(["simulate", "--audio", str(clean), "--out", str(capture)])
        ext_code = main(["extract", "--capture", str(capture), "--out", str(recovered)])
        if sim_code != 0 or ext_code != 0:
            failures += 1
            continue
        reference = zscore_normalize(low_pass(clip, 4000.0))
        degraded = zscore_normalize(read_wav(recovered))
        values.append(float(mcd(reference, degraded)))
    good = sum(1 for v in values if v < 8.0)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and good >= 8 and elapsed < 120.0
    _report(
        10,
        "pipeline quality",
        ok,
        f"simulate+extract at defaults on 10 clips: MCD vs band-limited source "
        f"in [{min(values):.2f}, {max(values):.2f}], {good}/10 below 8 "
        f"(need >= 8), {elapsed:.1f} s",
    )
    assert failures == 0
    assert good >= 8
    assert elapsed < 120.0


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    rate = 8000.0
    t = np.arange(int(rate)) / rate
    tone = tmp_path / "tone.wav"
    write_wav(tone, AudioBuffer(0.5 * np.sin(2.0 * np.pi * 500.0 * t), rate))
    clips = []
    for i in range(2):
        p = tmp_path / f"speech{i}.wav"
        write_wav(p, make_speech_clip(400 + i, duration=1.5))
        clips.append(p)

    def tree_bytes(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    capture = tmp_path / "cap.bin"
    vib = tmp_path / "vib.wav"
    dataset = tmp_path / "ds"
    score_manifest = tmp_path / "pairs.jsonl"
    score_report = tmp_path / "score.json"
    sweep_report = tmp_path / "sweep.json"
    synth_manifest = tmp_path / "clips.txt"
    synth_manifest.write_text("\n".join(str(p) for p in clips) + "\n")

    matched = {}

    def run_all() -> dict[str, bytes]:
        assert main(["simulate", "--audio", str(tone), "--out", str(capture)]) == 0
        assert main(["extract", "--capture", str(capture), "--out", str(vib)]) == 0
        assert main([
            "synth", "--manifest", str(synth_manifest), "--out-dir", str(dataset),
            "--alpha", "0.8", "--beta", "0.2", "--seed", "5", "--jitter",
        ]) == 0
        rows = [
            json.loads(line)
            for line in (dataset / "manifest.jsonl").read_text().splitlines()
        ]
        score_manifest.write_text("\n".join(
            json.dumps({"ref_path": r["clean_path"], "deg_path": r["degraded_path"]})
            for r in rows
        ) + "\n")
        assert main(["score", "--manifest", str(score_manifest),
                     "--report", str(score_report)]) == 0
        assert main(["sweep", "--param", "range_m", "--values", "1.0,2.0",
                     "--audio", str(tone), "--report", str(sweep_report)]) == 0
        snapshot = {
            "simulate": capture.read_bytes(),
            "extract.wav": vib.read_bytes(),
            "extract.json": (tmp_path / "vib.wav.json").read_bytes(),
            "score": score_report.read_bytes(),
            "sweep.json": sweep_report.read_bytes(),
            "sweep.csv": sweep_report.with_suffix(".csv").read_bytes(),
        }
        for rel, data in tree_bytes(dataset).items():
            snapshot[f"synth/{rel}"] = data
        return snapshot

    first = run_all()
    second = run_all()
    matched = {key: first[key] == second.get(key) for key in first}
    same_keys = set(first) == set(second)
    mismatches = sorted(key for key, same in matched.items() if not same)
    elapsed = time.perf_counter() - t0
    ok = same_keys and not mismatches and elapsed < 30.0
    _report(
        11,
        "CLI determinism",
        ok,
        f"{len(first)} artifacts across simulate/extract/synth/score/sweep "
        f"byte-identical on rerun: {not mismatches and same_keys} "
        f"(mismatched: {mismatches if mismatches else 'none'}), {elapsed:.1f} s",
    )
    assert same_keys
    assert mismatches == []
    assert elapsed < 30.0
