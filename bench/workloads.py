"""Seeded inputs, command lists and output checks for each benchmark workload.

A workload writes its inputs under ``inputs/`` from the seed alone. Each pass
runs the workload's commands in an empty pass directory next to it, so the
program sees only those files, and every output path is relative to the pass
directory (which keeps outputs byte-comparable across passes).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from mmvib import (
    AudioBuffer,
    ChirpConfig,
    displacement_from_audio,
    extract_vibration,
    inject_artifacts,
    low_pass,
    range_resolution,
    read_wav,
    resample,
    score_pair,
    simulate_if_frames,
    write_wav,
    zscore_normalize,
)
from mmvib.cli import REFERENCE_BAND_HZ, PipelineConfig
from speechgen import make_dense_clip, make_speech_clip

INPUTS = "../inputs"

# Criterion-10 threshold: recovered trace against the band-limited source.
MCD_LIMIT_DB = 8.0
# Report values must equal a recomputation in this process to this tolerance.
RECOMPUTE_RTOL = 1e-9

_WORDS = (
    "the a radar film surface sound wave phase range bin chirp frame noise "
    "speech signal voice window filter band energy quiet loud near far"
).split()


@dataclass
class Plan:
    """What one workload runs per pass and how its outputs are checked."""

    commands: list[list[str]]
    audio_s: float
    clips: str
    # pass directory -> [(check description, passed)]
    check: Callable[[Path], list[tuple[str, bool]]]
    # pass directory -> (report_stoi, report_mcd_db)
    quality: Callable[[Path], tuple[float, float]]
    # capture written by a pass, whose phase series the traced run cleans directly
    cleanup_capture: str | None = None


def _clip_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _write_run_config(path: Path, seed: int) -> None:
    path.write_text(f"[run]\nseed = {seed}\n", encoding="utf-8")


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _finite_numbers(doc) -> list[float]:
    """Every number in a JSON document, ignoring booleans and nulls."""
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _finite_numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _finite_numbers(v)]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [float(doc)]
    return []


def _all_finite(doc) -> bool:
    return all(math.isfinite(x) for x in _finite_numbers(doc))


def _same_scores(row: dict, expected) -> bool:
    want = {k: v for k, v in expected.to_dict().items() if v is not None}
    return all(
        k in row and math.isclose(row[k], v, rel_tol=RECOMPUTE_RTOL, abs_tol=1e-12)
        for k, v in want.items()
    )


def _rescore(pass_dir: Path, row: dict):
    """score_pair on a manifest row, with the z-scoring and resampling cmd_score applies."""
    ref = read_wav(pass_dir / row["ref_path"])
    deg = read_wav(pass_dir / row["deg_path"])
    if abs(ref.sample_rate - deg.sample_rate) > 1e-9:
        deg = resample(deg, ref.sample_rate)
    return score_pair(
        zscore_normalize(ref), zscore_normalize(deg), row.get("ref_text"), row.get("hyp_text")
    )


def _check_score_report(pass_dir: Path, manifest: Path) -> list[tuple[str, bool]]:
    report = json.loads((pass_dir / "report.json").read_text(encoding="utf-8"))
    rows = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    checks = [("report values finite", _all_finite(report))]
    for i, (row, pair) in enumerate(zip(rows, report["pairs"])):
        checks.append((f"pair {i} equals score_pair recomputation", _same_scores(pair, _rescore(pass_dir, row))))
    checks.append(("report lists every pair", len(report["pairs"]) == len(rows)))
    return checks


def _aggregate_quality(pass_dir: Path) -> tuple[float, float]:
    agg = json.loads((pass_dir / "report.json").read_text(encoding="utf-8"))["aggregate"]
    return agg["stoi"]["mean"], agg["mcd"]["mean"]


def _transcripts(rng: np.random.Generator, n_words: int = 12) -> tuple[str, str]:
    """A reference sentence and a hypothesis with seeded substitutions and drops."""
    ref = [str(w) for w in rng.choice(_WORDS, size=n_words)]
    hyp = []
    for word in ref:
        u = rng.uniform()
        if u < 0.15:
            hyp.append(str(rng.choice(_WORDS)))
        elif u > 0.95:
            continue
        else:
            hyp.append(word)
    return " ".join(ref), " ".join(hyp)


# --- pipeline_long: simulate -> extract -> score on one long clip -------------

PIPELINE_CLIP_S = 15.0
PIPELINE_RATE_HZ = 8000.0


def pipeline_long(inputs: Path, seed: int) -> Plan:
    (clip_seed,) = _clip_seeds(seed, 1)
    clip = make_speech_clip(clip_seed, duration=PIPELINE_CLIP_S, rate=PIPELINE_RATE_HZ)
    write_wav(inputs / "source.wav", clip)
    write_wav(inputs / "reference.wav", low_pass(clip, REFERENCE_BAND_HZ))
    _write_run_config(inputs / "run.ini", seed)
    _write_jsonl(
        inputs / "pairs.jsonl",
        [{"ref_path": f"{INPUTS}/reference.wav", "deg_path": "recovered.wav"}],
    )

    def check(pass_dir: Path) -> list[tuple[str, bool]]:
        config = PipelineConfig()
        sidecar = json.loads((pass_dir / "recovered.wav.json").read_text(encoding="utf-8"))
        expected_bin = round(config.range_m / range_resolution(config.chirp))
        report = json.loads((pass_dir / "report.json").read_text(encoding="utf-8"))
        return [
            ("extract target_bin equals round(range_m / bin_size_m)", sidecar["target_bin"] == expected_bin),
            (f"recovered trace MCD below {MCD_LIMIT_DB} dB", report["pairs"][0]["mcd"] < MCD_LIMIT_DB),
        ] + _check_score_report(pass_dir, inputs / "pairs.jsonl")

    return Plan(
        commands=[
            ["simulate", "--config", f"{INPUTS}/run.ini", "--audio", f"{INPUTS}/source.wav", "--out", "capture.bin"],
            ["extract", "--capture", "capture.bin", "--out", "recovered.wav"],
            ["score", "--manifest", f"{INPUTS}/pairs.jsonl", "--report", "report.json"],
        ],
        audio_s=PIPELINE_CLIP_S,
        clips=f"1 speech clip, {PIPELINE_CLIP_S:g} s at {PIPELINE_RATE_HZ:g} Hz",
        check=check,
        quality=_aggregate_quality,
        cleanup_capture="capture.bin",
    )


# --- dataset_short: synth --jitter -> score on many short clips ---------------

DATASET_CLIPS = 48
DATASET_CLIP_S = 3.0


def _dataset_clip(index: int, clip_seed: int) -> AudioBuffer:
    """Alternate speech and dense clips; every third clip at 16 kHz so synth resamples."""
    rate = 16000.0 if index % 3 == 0 else 8000.0
    make = make_speech_clip if index % 2 == 0 else make_dense_clip
    return make(clip_seed, duration=DATASET_CLIP_S, rate=rate)


def dataset_short(inputs: Path, seed: int) -> Plan:
    clip_dir = inputs / "clips"
    clip_dir.mkdir()
    rng = np.random.default_rng(seed)
    sources, pairs = [], []
    for index, clip_seed in enumerate(_clip_seeds(seed, DATASET_CLIPS)):
        name = f"clip{index:02d}"
        write_wav(clip_dir / f"{name}.wav", _dataset_clip(index, clip_seed))
        sources.append({"clean_path": f"{INPUTS}/clips/{name}.wav"})
        ref_text, hyp_text = _transcripts(rng)
        # build_dataset names its outputs "<index:05d>_<input stem>.wav"
        stem = f"{index:05d}_{name}"
        pairs.append(
            {
                "ref_path": f"dataset/clean/{stem}.wav",
                "deg_path": f"dataset/degraded/{stem}.wav",
                "ref_text": ref_text,
                "hyp_text": hyp_text,
            }
        )
    _write_jsonl(inputs / "clips.jsonl", sources)
    _write_jsonl(inputs / "pairs.jsonl", pairs)

    return Plan(
        commands=[
            ["synth", "--manifest", f"{INPUTS}/clips.jsonl", "--out-dir", "dataset", "--seed", str(seed), "--jitter"],
            ["score", "--manifest", f"{INPUTS}/pairs.jsonl", "--report", "report.json"],
        ],
        audio_s=DATASET_CLIPS * DATASET_CLIP_S,
        clips=(
            f"{DATASET_CLIPS} clips of {DATASET_CLIP_S:g} s, speech and dense alternating, "
            "every third at 16000 Hz, the rest at 8000 Hz"
        ),
        check=lambda pass_dir: _check_score_report(pass_dir, inputs / "pairs.jsonl"),
        quality=_aggregate_quality,
    )


# --- sweep_chirps: in-memory simulate -> extract -> score at three frame sizes --

SWEEP_CLIP_S = 3.0
SWEEP_VALUES = (256, 512, 1024)


def _sweep_row_scores(audio: AudioBuffer, seed: int, index: int, chirps_per_frame: int):
    """Recompute one chirps_per_frame sweep row from the public library API."""
    config = PipelineConfig(seed=seed)
    base = config.chirp
    duty = base.chirps_per_frame * base.chirp_duration / base.frame_period
    chirp = replace(
        base,
        chirps_per_frame=chirps_per_frame,
        chirp_duration=duty * base.frame_period / chirps_per_frame,
    )
    rate = chirp.effective_sampling_rate
    forcing = zscore_normalize(resample(audio, rate))
    vibration = displacement_from_audio(forcing, config.material, config.force_scale)
    sim_seed, artifact_seed = np.random.SeedSequence((seed, index)).spawn(2)
    capture = simulate_if_frames(
        chirp,
        vibration,
        config.range_m,
        reflectivity=config.material.reflectivity,
        noise_floor_db=config.noise_floor_db,
        seed=sim_seed,
    )
    capture = inject_artifacts(capture, config.beginning_sigma, config.periodic_sigma, seed=artifact_seed)
    trace = extract_vibration(capture)
    del capture
    reference = low_pass(forcing, REFERENCE_BAND_HZ)
    n = min(len(trace), len(reference))
    return score_pair(
        zscore_normalize(AudioBuffer(reference.samples[:n], rate)),
        zscore_normalize(AudioBuffer(trace.displacement[:n], rate)),
    )


def sweep_chirps(inputs: Path, seed: int) -> Plan:
    (clip_seed,) = _clip_seeds(seed, 1)
    write_wav(inputs / "source.wav", make_speech_clip(clip_seed, duration=SWEEP_CLIP_S, rate=8000.0))
    _write_run_config(inputs / "run.ini", seed)
    default_cpf = ChirpConfig().chirps_per_frame

    def rows(pass_dir: Path) -> list[dict]:
        return json.loads((pass_dir / "report.json").read_text(encoding="utf-8"))["rows"]

    def check(pass_dir: Path) -> list[tuple[str, bool]]:
        report_rows = rows(pass_dir)
        audio = read_wav(inputs / "source.wav")
        checks = [
            ("report values finite", _all_finite(report_rows)),
            ("report has one row per value", [int(r["value"]) for r in report_rows] == list(SWEEP_VALUES)),
        ]
        for index, row in enumerate(report_rows):
            cpf = int(row["value"])
            checks.append(
                (f"row {cpf} equals score_pair recomputation", _same_scores(row, _sweep_row_scores(audio, seed, index, cpf)))
            )
            if cpf == default_cpf:
                checks.append((f"row {cpf} MCD below {MCD_LIMIT_DB} dB", row["mcd"] < MCD_LIMIT_DB))
        return checks

    def quality(pass_dir: Path) -> tuple[float, float]:
        report_rows = rows(pass_dir)
        return (
            float(np.mean([r["stoi"] for r in report_rows])),
            float(np.mean([r["mcd"] for r in report_rows])),
        )

    values = ",".join(str(v) for v in SWEEP_VALUES)
    return Plan(
        commands=[
            [
                "sweep", "--config", f"{INPUTS}/run.ini", "--param", "chirps_per_frame",
                "--values", values, "--audio", f"{INPUTS}/source.wav", "--report", "report.json",
            ]
        ],
        audio_s=SWEEP_CLIP_S * len(SWEEP_VALUES),
        clips=f"1 speech clip, {SWEEP_CLIP_S:g} s at 8000 Hz, swept over chirps_per_frame {values}",
        check=check,
        quality=quality,
    )


WORKLOADS = {
    "pipeline_long": pipeline_long,
    "dataset_short": dataset_short,
    "sweep_chirps": sweep_chirps,
}
