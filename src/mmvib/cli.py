"""Command-line pipeline: simulate, extract, synth, score, sweep."""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .audio_io import low_pass, read_wav, resample, write_wav
from .metrics import REQUIRED_METRICS, MetricsReport, score_pair
from .radar_sim import (
    DEFAULT_NOISE_FLOOR_DB,
    CaptureFile,
    ChirpConfig,
    IFCapture,
    SurfaceMaterial,
    displacement_from_audio,
    inject_artifacts,
    iter_if_frames,
    range_resolution,
    simulate_if_frames,
    stamp_capture_file,
    write_artifact_sidecar,
    write_capture_frames,
)
from .signal_core import AudioBuffer, zscore_normalize
from .synth import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SEED,
    SynthesisConfig,
    build_dataset,
    item_seed,
    manifest_lines,
    synthesize_mmvib,
)
from .vib_extract import BinSearch, extract_vibration, locate_target, trace_from_phase

SEED_ENV_VAR = "MMVIB_SEED"

SWEEP_PARAMETERS = (
    "chirps_per_frame",
    "range_m",
    "noise_floor_db",
    "alpha",
    "beta",
    "material",
)

# Sweep references are low-passed here before scoring; the sensing band ends
# at half the default 8 kHz chirp rate.
REFERENCE_BAND_HZ = 4000.0

MATERIAL_PRESETS = {
    # Thin taut PET film: light and stiff, resonance near 8 kHz (above the
    # speech band, so the in-band response stays nearly flat), well damped.
    "pet": SurfaceMaterial(mass=5.0e-5, stiffness=1.263e5, damping=3.02, reflectivity=0.95),
    # Tinfoil: heavier and floppier, resonance near 1.2 kHz, light damping;
    # colors the recovered speech noticeably.
    "tinfoil": SurfaceMaterial(mass=3.0e-4, stiffness=1.71e4, damping=0.68, reflectivity=0.85),
}


@dataclass
class PipelineConfig:
    """Validated end-to-end settings for the command-line pipeline."""

    chirp: ChirpConfig = field(default_factory=ChirpConfig)
    material: SurfaceMaterial = MATERIAL_PRESETS["pet"]
    range_m: float = 1.5
    noise_floor_db: float = DEFAULT_NOISE_FLOOR_DB
    force_scale: float = 0.5
    beginning_sigma: float = 10.0
    periodic_sigma: float = 6.0
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    synth_sample_rate: float = DEFAULT_SAMPLE_RATE
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not np.isfinite(self.range_m) or self.range_m <= 0:
            raise ValueError(f"range_m must be positive, got {self.range_m}")
        if not np.isfinite(self.noise_floor_db):
            raise ValueError(f"noise_floor_db must be finite, got {self.noise_floor_db}")
        if not np.isfinite(self.force_scale) or self.force_scale <= 0:
            raise ValueError(f"force_scale must be positive, got {self.force_scale}")
        if self.beginning_sigma < 0 or self.periodic_sigma < 0:
            raise ValueError("artifact magnitudes must be >= 0")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.synth_sample_rate <= 0:
            raise ValueError(f"synth_sample_rate must be positive, got {self.synth_sample_rate}")


# INI sections and their keys. [chirp] and [material] hold the fields of
# ChirpConfig and SurfaceMaterial, and [material] preset picks the material
# they override; every other key names a PipelineConfig field.
_SECTIONS = {
    "chirp": tuple(f.name for f in fields(ChirpConfig)),
    "material": ("preset", *(f.name for f in fields(SurfaceMaterial))),
    "scene": ("range_m", "noise_floor_db", "force_scale"),
    "artifacts": ("beginning_sigma", "periodic_sigma"),
    "synthesis": ("alpha", "beta", "sample_rate"),
    "run": ("seed",),
}
# The one key whose field has another name.
_FIELD_OF_KEY = {"sample_rate": "synth_sample_rate"}


def load_config(path=None) -> PipelineConfig:
    """Build a PipelineConfig from an INI-style file, falling back to defaults.

    Every value is validated by the owning dataclass; errors carry the
    section and key of the offending field. MMVIB_SEED in the environment
    overrides the configured seed.
    """
    values: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    if path is not None:
        # interpolation off: a '%' in a value is reported as a bad number.
        # No section header can hold a newline, so the parser's defaults
        # section is unreachable and [DEFAULT] is checked like any section.
        parser = configparser.ConfigParser(interpolation=None, default_section="\n")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                # the parser's message names the file but can span lines
                raise ValueError(f"config: {' '.join(str(exc).split())}") from None
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ValueError(f"config section [{section}] is not recognized")
            for key, raw in parser[section].items():
                if key not in _SECTIONS[section]:
                    raise ValueError(f"config field [{section}] {key} is not recognized")
                values[section][key] = raw

    defaults = PipelineConfig()
    preset = values["material"].pop("preset", None)
    if preset is not None and preset not in MATERIAL_PRESETS:
        raise ValueError(
            f"config field [material] preset: unknown preset '{preset}', "
            f"valid: {', '.join(sorted(MATERIAL_PRESETS))}"
        )
    nested = {
        "chirp": defaults.chirp,
        "material": defaults.material if preset is None else MATERIAL_PRESETS[preset],
    }
    overrides = {}
    for section, raw in values.items():
        parsed = _parse_section(section, raw, nested.get(section, defaults))
        if section not in nested:
            overrides.update(parsed)
            continue
        try:
            overrides[section] = replace(nested[section], **parsed)
        except ValueError as exc:
            raise ValueError(f"config section [{section}]: {exc}") from None
    overrides["seed"] = _resolve_seed(overrides.get("seed", defaults.seed))
    try:
        return replace(defaults, **overrides)
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from None


def _parse_section(section: str, raw: dict[str, str], defaults) -> dict:
    """Field values of one INI section, each cast to the type of its default.

    Integer fields take any float spelling and truncate it ("2.56e2" -> 256).
    """
    parsed = {}
    for key, text in raw.items():
        name = _FIELD_OF_KEY.get(key, key)
        try:
            number = float(text)
            parsed[name] = int(number) if isinstance(getattr(defaults, name), int) else number
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"config field [{section}] {key}: {exc}") from None
    return parsed


def _simulated(config: PipelineConfig, audio: AudioBuffer, seed_key, simulate):
    """Shared simulate path: resample, z-score, force the surface, simulate.

    simulate is simulate_if_frames or iter_if_frames, which take the same
    arguments. Returns its result and the artifact seed, both spawned from
    seed_key.
    """
    rate = config.chirp.effective_sampling_rate
    forcing = zscore_normalize(resample(audio, rate))
    vibration = displacement_from_audio(forcing, config.material, config.force_scale)
    sim_seed, artifact_seed = np.random.SeedSequence(seed_key).spawn(2)
    simulated = simulate(
        config.chirp,
        vibration,
        config.range_m,
        reflectivity=config.material.reflectivity,
        noise_floor_db=config.noise_floor_db,
        seed=sim_seed,
    )
    return simulated, artifact_seed


def _simulate_capture(config: PipelineConfig, audio: AudioBuffer, seed_key) -> IFCapture:
    """The capture cmd_simulate writes, made in memory: simulate, then inject."""
    capture, artifact_seed = _simulated(config, audio, seed_key, simulate_if_frames)
    return inject_artifacts(
        capture, config.beginning_sigma, config.periodic_sigma, seed=artifact_seed
    )


def _searched(frames, search: BinSearch):
    """The frames, each added to the bin search as it passes."""
    for frame in frames:
        search.add(frame)
        yield frame


def cmd_simulate(config: PipelineConfig, audio_in, capture_out) -> int:
    """Simulate an IF capture from a WAV forcing signal and write the container.

    The capture is written one frame at a time as it is simulated, and each
    frame is added to the bin search on its way to the file. The artifacts
    are then stamped into the file, whose clean sigma needs only the target
    bin demodulated, so no whole capture is ever held. The bytes equal
    save_capture(_simulate_capture(...)).
    """
    try:
        audio = read_wav(audio_in)
        if len(audio) == 0:
            raise ValueError("audio is empty")
        frames, artifact_seed = _simulated(config, audio, config.seed, iter_if_frames)
        search = BinSearch(config.chirp)
        with closing(frames):
            n_frames = write_capture_frames(capture_out, config.chirp, _searched(frames, search))
        target = search.target(capture_out)
        log = stamp_capture_file(
            capture_out, target, config.beginning_sigma, config.periodic_sigma, seed=artifact_seed
        )
        write_artifact_sidecar(capture_out, log, seed=config.seed)
    except (OSError, ValueError) as exc:
        print(f"simulate failed: {exc}", file=sys.stderr)
        return 1
    print(f"range resolution: {range_resolution(config.chirp):.6f} m")
    print(f"vibration sampling rate: {config.chirp.effective_sampling_rate:.1f} Hz")
    print(f"wrote {n_frames} frames to {capture_out}")
    return 0


def cmd_extract(capture_in, wav_out, preprocess: bool = True) -> int:
    """Recover the vibration trace from a capture and write it as float32 WAV.

    The container is read one frame at a time; its artifact sidecar is not
    read.
    """
    try:
        capture = CaptureFile(capture_in)
        target, phase = locate_target(capture)
        trace = trace_from_phase(phase, capture.config, preprocess)
        write_wav(wav_out, AudioBuffer(trace.displacement, trace.sample_rate))
        sidecar = {
            "capture": str(capture_in),
            "sample_rate": trace.sample_rate,
            "samples": len(trace),
            "target_bin": target,
            "bin_size_m": range_resolution(capture.config),
            "preprocess": preprocess,
        }
        sidecar_path = Path(wav_out).with_name(Path(wav_out).name + ".json")
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    except (OSError, ValueError) as exc:
        print(f"extract failed: {exc}", file=sys.stderr)
        return 1
    print(f"extracted {len(trace)} samples at {trace.sample_rate:.1f} Hz (bin {target})")
    return 0


def cmd_synth(
    manifest_in,
    out_dir,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    seed: int = DEFAULT_SEED,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    jitter: bool = False,
) -> int:
    """Build a clean/degraded dataset from a manifest of WAV paths."""
    try:
        cfg = SynthesisConfig(alpha=alpha, beta=beta, seed=seed)
        manifest_out = build_dataset(manifest_in, out_dir, cfg, sample_rate, jitter)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"synth failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {manifest_out}")
    return 0


def _aggregate(pairs: list[dict]) -> dict:
    summary = {}
    for key in (f.name for f in fields(MetricsReport)):
        values = [row[key] for row in pairs if row.get(key) is not None]
        if values:
            arr = np.asarray(values, dtype=float)
            summary[key] = {"mean": float(arr.mean()), "std": float(arr.std())}
    return summary


def _read_pair_manifest(path) -> list:
    """The JSON value of every non-blank manifest line.

    A line that is not UTF-8, does not parse, or nests too deeply for the
    parser, is a ValueError naming the file and line.
    """
    rows = []
    for line_no, line in manifest_lines(path):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from None
    return rows


def _transcript(row: dict, key: str):
    """A row's transcript: absent, a string, or a list of words."""
    text = row.get(key)
    if text is not None and not isinstance(text, (str, list)):
        raise ValueError(f"{key} must be a string or a list of words, got {type(text).__name__}")
    return text


def cmd_score(manifest_in, report_out) -> int:
    """Score every pair in a JSON-lines manifest and write a JSON report.

    Both signals are z-scored before scoring so that traces on physical
    scales compare against unit-scale audio. A pair whose rates differ has
    the degraded side resampled to the reference rate. Unreadable pairs are
    recorded with an error; the command fails only when every pair fails.
    """
    try:
        rows = _read_pair_manifest(manifest_in)
    except (OSError, ValueError) as exc:
        print(f"score failed: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print("score failed: manifest lists no pairs", file=sys.stderr)
        return 1

    pairs = []
    succeeded = 0
    for row in rows:
        if not isinstance(row, dict):
            pairs.append({"error": f"manifest row is not a JSON object: {json.dumps(row)}"})
            continue
        entry = {"ref_path": row.get("ref_path"), "deg_path": row.get("deg_path")}
        try:
            ref_text = _transcript(row, "ref_text")
            hyp_text = _transcript(row, "hyp_text")
            ref = read_wav(row["ref_path"])
            deg = read_wav(row["deg_path"])
            if abs(ref.sample_rate - deg.sample_rate) > 1e-9:
                deg = resample(deg, ref.sample_rate)
            report = score_pair(zscore_normalize(ref), zscore_normalize(deg), ref_text, hyp_text)
            entry.update(report.to_dict())
            succeeded += 1
        except (OSError, ValueError, KeyError, TypeError) as exc:
            entry["error"] = str(exc)
        pairs.append(entry)

    report_doc = {"pairs": pairs, "aggregate": _aggregate(pairs)}
    with open(report_out, "w", encoding="utf-8") as fh:
        json.dump(report_doc, fh, indent=2)
        fh.write("\n")
    if succeeded == 0:
        print("score failed: all pairs failed", file=sys.stderr)
        return 1
    print(f"scored {succeeded}/{len(pairs)} pairs -> {report_out}")
    return 0


def _sweep_variant(config: PipelineConfig, parameter: str, value) -> PipelineConfig:
    if parameter == "chirps_per_frame":
        cpf = int(float(value))
        duty = (
            config.chirp.chirps_per_frame
            * config.chirp.chirp_duration
            / config.chirp.frame_period
        )
        chirp = replace(
            config.chirp,
            chirps_per_frame=cpf,
            chirp_duration=duty * config.chirp.frame_period / cpf,
        )
        return replace(config, chirp=chirp)
    if parameter == "material":
        name = str(value)
        if name not in MATERIAL_PRESETS:
            raise ValueError(
                f"unknown material preset '{name}', valid: {', '.join(sorted(MATERIAL_PRESETS))}"
            )
        return replace(config, material=MATERIAL_PRESETS[name])
    # range_m, noise_floor_db, alpha and beta: one scalar field each
    return replace(config, **{parameter: float(value)})


def _sweep_point(config: PipelineConfig, parameter: str, value, audio: AudioBuffer, index: int) -> dict:
    variant = _sweep_variant(config, parameter, value)
    if parameter in ("alpha", "beta"):
        clean = zscore_normalize(resample(audio, variant.synth_sample_rate))
        synth_cfg = SynthesisConfig(
            alpha=variant.alpha, beta=variant.beta, seed=item_seed(variant.seed, index)
        )
        degraded = zscore_normalize(synthesize_mmvib(clean, synth_cfg))
        reference = low_pass(clean, REFERENCE_BAND_HZ)
        report = score_pair(zscore_normalize(reference), degraded)
        rate = variant.synth_sample_rate
    else:
        capture = _simulate_capture(variant, audio, (variant.seed, index))
        trace = extract_vibration(capture)
        rate = variant.chirp.effective_sampling_rate
        forcing = zscore_normalize(resample(audio, rate))
        reference = low_pass(forcing, REFERENCE_BAND_HZ)
        n = min(len(trace), len(reference))
        report = score_pair(
            zscore_normalize(AudioBuffer(reference.samples[:n], rate)),
            zscore_normalize(AudioBuffer(trace.displacement[:n], rate)),
        )
    row = {
        "parameter": parameter,
        "value": value,
        "range_resolution_m": range_resolution(variant.chirp),
        "sampling_rate_hz": rate,
    }
    row.update({k: v for k, v in report.to_dict().items() if v is not None})
    return row


_SWEEP_CSV_COLUMNS = (
    "parameter",
    "value",
    "range_resolution_m",
    "sampling_rate_hz",
    *REQUIRED_METRICS,
)


def cmd_sweep(config: PipelineConfig, parameter: str, values, audio_in, report_out) -> int:
    """Sweep one pipeline parameter, scoring each value against the source audio.

    Radar axes run simulate -> extract and score the recovered trace against
    the band-limited source; alpha/beta run the synthesis degradation instead.
    Writes a JSON report plus a CSV table next to it.
    """
    if parameter not in SWEEP_PARAMETERS:
        print(
            f"unknown parameter '{parameter}'; valid: {', '.join(SWEEP_PARAMETERS)}",
            file=sys.stderr,
        )
        return 2
    values = list(values)
    if not values:
        print("sweep failed: empty value list", file=sys.stderr)
        return 2
    try:
        audio = read_wav(audio_in)
        rows = [
            _sweep_point(config, parameter, value, audio, index)
            for index, value in enumerate(values)
        ]
    except (OSError, ValueError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1

    report_path = Path(report_out)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"parameter": parameter, "rows": rows}, fh, indent=2)
        fh.write("\n")
    csv_path = report_path.with_suffix(".csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"swept {parameter} over {len(rows)} values -> {report_path}, {csv_path}")
    return 0


def _resolve_seed(cli_seed: int) -> int:
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is None:
        return cli_seed
    try:
        return int(env_seed)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got '{env_seed}'") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmvib",
        description="Vibration-sensing simulator, extraction, synthesis, and scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate an IF capture from a WAV file")
    sim.add_argument("--config", help="INI config file; defaults used when omitted")
    sim.add_argument("--audio", required=True, help="input WAV forcing signal")
    sim.add_argument("--out", required=True, help="output capture container path")

    ext = sub.add_parser("extract", help="recover the vibration trace from a capture")
    ext.add_argument("--capture", required=True, help="input capture container")
    ext.add_argument("--out", required=True, help="output WAV path")
    ext.add_argument(
        "--no-preprocess",
        action="store_true",
        help="skip beginning/periodic outlier removal",
    )

    syn = sub.add_parser("synth", help="build a degraded dataset from clean WAVs")
    syn.add_argument("--manifest", required=True, help="input manifest of WAV paths")
    syn.add_argument("--out-dir", required=True, help="output dataset directory")
    syn.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="purple-noise gain")
    syn.add_argument("--beta", type=float, default=DEFAULT_BETA, help="Gaussian-noise gain")
    syn.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root seed")
    syn.add_argument(
        "--sample-rate", type=float, default=DEFAULT_SAMPLE_RATE, help="output rate in Hz"
    )
    syn.add_argument("--jitter", action="store_true", help="randomize per-item gains")

    sco = sub.add_parser("score", help="score reference/degraded pairs")
    sco.add_argument("--manifest", required=True, help="JSON-lines pair manifest")
    sco.add_argument("--report", required=True, help="output JSON report path")

    swe = sub.add_parser("sweep", help="sweep one parameter and score each value")
    swe.add_argument("--config", help="INI config file; defaults used when omitted")
    swe.add_argument("--param", required=True, help="parameter name")
    swe.add_argument("--values", required=True, help="comma-separated values")
    swe.add_argument("--audio", required=True, help="source WAV")
    swe.add_argument("--report", required=True, help="output JSON report path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(load_config(args.config), args.audio, args.out)
        if args.command == "extract":
            return cmd_extract(args.capture, args.out, preprocess=not args.no_preprocess)
        if args.command == "synth":
            return cmd_synth(
                args.manifest,
                args.out_dir,
                alpha=args.alpha,
                beta=args.beta,
                seed=_resolve_seed(args.seed),
                sample_rate=args.sample_rate,
                jitter=args.jitter,
            )
        if args.command == "score":
            return cmd_score(args.manifest, args.report)
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v != ""]
            return cmd_sweep(load_config(args.config), args.param, values, args.audio, args.report)
    except (OSError, ValueError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
