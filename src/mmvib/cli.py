"""Command-line pipeline: simulate, extract, synth, score, sweep."""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from collections import deque
from collections.abc import Iterator
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .audio_io import _MAX_FLOAT_WAV_RATE, low_pass, read_wav, resample, write_wav
from .metrics import REQUIRED_METRICS, MetricsReport, score_pair
from .radar_sim import (
    DEFAULT_NOISE_FLOOR_DB,
    CaptureFile,
    ChirpConfig,
    SurfaceMaterial,
    displacement_from_audio,
    iter_if_frames,
    range_resolution,
    stamp_artifacts,
    stamp_capture_file,
    write_artifact_sidecar,
    write_capture_frames,
)
from .signal_core import AudioBuffer, zscore_normalize
from .synth import (
    _FAILURES,
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SEED,
    SynthesisConfig,
    build_dataset,
    item_seed,
    manifest_lines,
    map_rows,
    synthesize_mmvib,
)
from .vib_extract import (
    TargetTracker,
    column_phase,
    locate_target,
    restamp_column,
    trace_from_phase,
)

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
        for name in ("beginning_sigma", "periodic_sigma"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        SynthesisConfig(self.alpha, self.beta)
        if not 0 < self.synth_sample_rate < np.inf:
            raise ValueError(
                f"synth_sample_rate must be finite and positive, got {self.synth_sample_rate}"
            )


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
            except UnicodeDecodeError as exc:
                raise ValueError(f"config {path}: {exc}") from None
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
    seed = overrides.get("seed", defaults.seed)
    overrides["seed"] = _resolve_seed(seed, "config field [run] seed")
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


@contextmanager
def _removed_on_failure(path):
    """Open path for writing, and remove it if the block raises.

    It is opened here, so that a path that cannot be opened is left as it
    was, and one that is not a regular file, such as /dev/null, is never
    removed.
    """
    open(path, "wb").close()
    try:
        yield
    except BaseException:
        if os.path.isfile(path):
            os.unlink(path)
        raise


def _write_capture(config: PipelineConfig, audio: AudioBuffer, source, seed_key, path, name):
    """Simulate the capture of the surface that audio drives, one frame at a time.

    The forcing is the audio resampled to the chirp rate and z-scored; audio
    that cannot fill one frame there or has no finite, non-zero spread is
    refused naming source. Each frame passes a TargetTracker, which finds the
    target bin and demodulates it as the frames go by, and its chirp 0, the
    only chirp the artifacts stamp, is kept; a capture the tracker refuses is
    named name. Both seeds come from seed_key. stamp_artifacts stamps the
    kept rows, with the artifacts' sigma taken from the column's phase, and
    restamp_column demodulates the stamped rows again into the column, so
    rows and column end as the stamped capture's.

    With a path, the frames go to that container, a second pass of the
    tracker reads it before any row is stamped, stamp_capture_file writes
    the stamped rows over it, and the artifact sidecar is written beside it;
    once path is opened, a failure removes it. With path None no file is
    written, and a second pass makes the frames again from the same seed.
    Returns the forcing and the stamped capture's [n_frames,
    chirps_per_frame] complex64 column.
    """
    audio = resample(audio, config.chirp.effective_sampling_rate)
    try:
        if len(audio) < config.chirp.chirps_per_frame:
            raise ValueError
        forcing = zscore_normalize(audio)
    except ValueError:
        raise ValueError(f"audio must fill one frame ({config.chirp.chirps_per_frame} samples at "
                         f"the chirp rate) and have a finite, non-zero spread: {source}") from None
    vibration = displacement_from_audio(forcing, config.material, config.force_scale)
    sim_seed, artifact_seed = np.random.SeedSequence(seed_key).spawn(2)
    frames = partial(
        iter_if_frames,
        config.chirp,
        vibration,
        config.range_m,
        reflectivity=config.material.reflectivity,
        noise_floor_db=config.noise_floor_db,
        seed=sim_seed,
    )
    n_frames = len(vibration) // config.chirp.chirps_per_frame
    tracker = TargetTracker(config.chirp, n_frames)
    rows = np.empty((n_frames, config.chirp.adc_samples_per_chirp), dtype=np.complex64)

    def kept(stream: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
        for index, frame in enumerate(map(tracker.add, stream)):
            rows[index] = frame[0]
            yield frame

    with nullcontext() if path is None else _removed_on_failure(path):
        with closing(frames()) as stream:
            if path is None:
                deque(kept(stream), maxlen=0)
            else:
                write_capture_frames(path, config.chirp, kept(stream))
        target, column = tracker.result(frames if path is None else CaptureFile(path).__iter__,
                                        name)
        log = stamp_artifacts(rows, config.beginning_sigma, config.periodic_sigma, artifact_seed,
                              column_phase(column))
        restamp_column(rows, target, column, log)
        if path is not None:
            stamp_capture_file(path, config.chirp, rows, log)
            write_artifact_sidecar(path, log, seed=config.seed)
    return forcing, column


def cmd_simulate(config: PipelineConfig, audio_in, capture_out) -> None:
    """Simulate an IF capture from a WAV forcing signal and write the container.

    The container is written frame by frame, then the stamped chirp-0 rows
    are written over it, so it is never read to stamp it; the clean phase
    sigma is taken from the bin demodulated while writing. It and its
    artifact sidecar equal, byte for byte, what save_capture writes for the
    library's in-memory capture.
    """
    _, column = _write_capture(config, read_wav(audio_in), audio_in, config.seed, capture_out,
                               capture_out)
    print(f"range resolution: {range_resolution(config.chirp):.6f} m")
    print(f"vibration sampling rate: {config.chirp.effective_sampling_rate:.1f} Hz")
    print(f"wrote {len(column)} frames to {capture_out}")


def cmd_extract(capture_in, wav_out, preprocess: bool) -> None:
    """Recover the vibration trace from a capture and write it as float32 WAV.

    locate_target reads the container once, one frame at a time, and again
    only when frame 0 mispredicts its bound or another bin wins; the artifact
    sidecar is not read. A trace the cleanup rejects is blamed on the capture.
    """
    capture = CaptureFile(capture_in)
    target, phase = locate_target(capture)
    try:
        trace = trace_from_phase(phase, capture.config, preprocess)
    except ValueError as exc:
        raise ValueError(f"{exc}: {capture_in}") from None
    sidecar = {
        "capture": str(capture_in),
        "sample_rate": trace.sample_rate,
        "samples": len(trace),
        "target_bin": target,
        "bin_size_m": range_resolution(capture.config),
        "preprocess": preprocess,
    }
    sidecar_path = Path(wav_out).with_name(Path(wav_out).name + ".json")
    with _removed_on_failure(wav_out), _removed_on_failure(sidecar_path):
        write_wav(wav_out, trace)
        sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    print(f"extracted {len(trace)} samples at {trace.sample_rate:.1f} Hz (bin {target})")


def cmd_synth(manifest_in, out_dir, alpha: float, beta: float, seed: int, sample_rate: float,
              jitter: bool) -> None:
    """Build a clean/degraded dataset from a manifest of WAV paths."""
    cfg = SynthesisConfig(alpha=alpha, beta=beta, seed=seed)
    manifest_out = build_dataset(manifest_in, out_dir, cfg, sample_rate, jitter)
    print(f"wrote {manifest_out}")


def _aggregate(pairs: list[dict]) -> dict:
    summary = {}
    for key in (f.name for f in fields(MetricsReport)):
        values = [row[key] for row in pairs if row.get(key) is not None]
        if values:
            arr = np.asarray(values, dtype=float)
            summary[key] = {"mean": float(arr.mean()), "std": float(arr.std())}
    return summary


def _read_pair_manifest(path) -> list[tuple[int, object]]:
    """The line number and JSON value of every non-blank manifest line.

    A line that is not UTF-8, does not parse, or nests too deeply for the
    parser, is a ValueError naming the file and line.
    """
    rows = []
    for line_no, line in manifest_lines(path):
        try:
            rows.append((line_no, json.loads(line)))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from None
    return rows


def _transcript(row: dict, key: str):
    """A row's transcript: absent, a string, or a list of words."""
    text = row.get(key)
    if text is not None and not isinstance(text, (str, list)):
        raise ValueError(f"{key} must be a string or a list of words, got {type(text).__name__}")
    return text


def _score_row(row) -> dict:
    """One report entry: the pair's paths and metrics, or its error."""
    if not isinstance(row, dict):
        return {"error": f"manifest row is not a JSON object: {json.dumps(row)}"}
    entry = {"ref_path": row.get("ref_path"), "deg_path": row.get("deg_path")}
    try:
        ref_text = _transcript(row, "ref_text")
        hyp_text = _transcript(row, "hyp_text")
        for key, path in entry.items():
            if key not in row:
                raise ValueError(f"no {key} field")
            if not isinstance(path, str):
                raise ValueError(f"{key} must be a string, got {type(path).__name__}")
        ref = read_wav(entry["ref_path"])
        deg = resample(read_wav(entry["deg_path"]), ref.sample_rate)
        report = score_pair(zscore_normalize(ref), zscore_normalize(deg), ref_text, hyp_text)
        entry.update(report.to_dict())
    except (*_FAILURES, TypeError) as exc:
        entry["error"] = str(exc)
    return entry


def cmd_score(manifest_in, report_out) -> None:
    """Score every pair in a JSON-lines manifest and write a JSON report.

    Both signals are z-scored before scoring so that traces on physical
    scales compare against unit-scale audio. A pair whose rates differ has
    the degraded side resampled to the reference rate. A failing pair, even
    out of memory, gets an error entry; the command fails only if all do,
    naming the first by its paths, or by its line if it is not an object.
    Pairs run on map_rows' threads, and the report keeps their order.
    """
    rows = _read_pair_manifest(manifest_in)
    if not rows:
        raise ValueError(f"manifest lists no pairs: {manifest_in}")

    pairs = map_rows(_score_row, [row for _, row in rows])
    succeeded = sum("error" not in entry for entry in pairs)
    report_doc = {"pairs": pairs, "aggregate": _aggregate(pairs)}
    Path(report_out).write_text(json.dumps(report_doc, indent=2) + "\n", encoding="utf-8")
    if succeeded == 0:
        (line_no, row), first = rows[0], pairs[0]
        pair = (f"ref {first['ref_path']!r}, deg {first['deg_path']!r}" if isinstance(row, dict)
                else f"{manifest_in} line {line_no}")
        raise ValueError(f"all pairs failed, first: {pair}: {first['error']}")
    print(f"scored {succeeded}/{len(pairs)} pairs -> {report_out}")


def _sweep_variant(config: PipelineConfig, parameter: str, value) -> PipelineConfig:
    if parameter == "chirps_per_frame":
        cpf = int(float(value))
        if cpf < 1:
            raise ValueError(f"chirps_per_frame must be a positive integer, got {value}")
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


def _sweep_point(config: PipelineConfig, parameter: str, value, audio: AudioBuffer, index: int,
                 source) -> dict:
    """One sweep row; source names the audio the capture refuses or that cannot score alone."""
    variant = _sweep_variant(config, parameter, value)
    synthetic = parameter in ("alpha", "beta")
    rate = variant.synth_sample_rate if synthetic else variant.chirp.effective_sampling_rate
    if synthetic:
        reference = zscore_normalize(resample(audio, rate))
        synth_cfg = SynthesisConfig(
            alpha=variant.alpha, beta=variant.beta, seed=item_seed(variant.seed, index)
        )
        degraded = synthesize_mmvib(reference, synth_cfg)
    else:
        reference, column = _write_capture(variant, audio, source, (variant.seed, index), None,
                                           f"the capture of {source}")
        degraded = trace_from_phase(column_phase(column), variant.chirp)
    reference = low_pass(reference, REFERENCE_BAND_HZ)
    n = min(len(degraded), len(reference))
    reference = zscore_normalize(AudioBuffer(reference.samples[:n], rate))
    try:
        report = score_pair(reference, zscore_normalize(AudioBuffer(degraded.samples[:n], rate)))
    except ValueError as exc:
        try:
            score_pair(reference, reference)
        except ValueError:
            # too short or too sparse to score, whatever the value
            raise ValueError(f"{exc}: {source}") from None
        raise
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


def _capture_rate(config: PipelineConfig, parameter: str, value) -> float:
    """The IF samples per second of audio of a chirps_per_frame value's capture; 0 for a value
    of any other axis, or one whose variant fails."""
    if parameter != "chirps_per_frame":
        return 0.0
    try:
        chirp = _sweep_variant(config, parameter, value).chirp
    except _FAILURES:
        return 0.0
    return chirp.effective_sampling_rate * chirp.adc_samples_per_chirp


def cmd_sweep(config: PipelineConfig, parameter: str, values, audio_in, report_out) -> None:
    """Sweep one pipeline parameter, scoring each value against the source audio.

    Radar axes simulate the capture without writing it, take the phase of
    the bin demodulated as its frames are made, its stamped chirps
    demodulated again from the chirp-0 rows kept, and score the recovered
    trace against the band-limited source; alpha/beta run the synthesis
    degradation instead. No file but the report and its CSV is written.
    Values run on map_rows' threads, the largest capture first; the report
    keeps their order, and a failure names the first failing value in it.
    Writes a JSON report plus a CSV table next to it.
    """
    audio = read_wav(audio_in)
    # blamed on the file, not on the first value
    try:
        zscore_normalize(audio)
    except ValueError:
        raise ValueError(f"audio must have a finite, non-zero spread: {audio_in}") from None

    def point(item) -> dict:
        index, value = item
        try:
            return _sweep_point(config, parameter, value, audio, index, audio_in)
        except _FAILURES as exc:
            raise ValueError(f"{parameter}={value}: {exc}") from exc

    rows = map_rows(point, list(enumerate(values)),
                    size=lambda item: _capture_rate(config, parameter, item[1]))

    report_path = Path(report_out)
    report_doc = {"parameter": parameter, "rows": rows}
    csv_path = report_path.with_suffix(".csv")
    with _removed_on_failure(report_path), _removed_on_failure(csv_path):
        report_path.write_text(json.dumps(report_doc, indent=2) + "\n", encoding="utf-8")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_SWEEP_CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    print(f"swept {parameter} over {len(rows)} values -> {report_path}, {csv_path}")


def _resolve_seed(seed: int, source: str) -> int:
    """MMVIB_SEED when it is set, else seed, which source names; either must be >= 0."""
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed, source = int(env_seed), SEED_ENV_VAR
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got '{env_seed}'") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


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


def _command(args):
    """The command args names, bound to its arguments, as a call that does the work.

    The config, the seed, synth's --sample-rate, and sweep's --param,
    --values and --report, in that order, are checked here, before any work
    starts.
    """
    if args.command == "simulate":
        return partial(cmd_simulate, load_config(args.config), args.audio, args.out)
    if args.command == "extract":
        return partial(cmd_extract, args.capture, args.out, not args.no_preprocess)
    if args.command == "synth":
        seed = _resolve_seed(args.seed, "--seed")
        # write_wav's bound, checked before any entry is resampled to the rate
        rate = args.sample_rate
        if not (np.isfinite(rate) and 1 <= round(rate) <= _MAX_FLOAT_WAV_RATE):
            raise ValueError(f"--sample-rate {rate} Hz does not fit a WAV header "
                             f"(1 to {_MAX_FLOAT_WAV_RATE} Hz)")
        return partial(cmd_synth, args.manifest, args.out_dir, args.alpha, args.beta, seed,
                       rate, args.jitter)
    if args.command == "score":
        return partial(cmd_score, args.manifest, args.report)
    config = load_config(args.config)
    if args.param not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown parameter '{args.param}'; valid: {', '.join(SWEEP_PARAMETERS)}")
    values = [v for v in args.values.split(",") if v != ""]
    if not values:
        raise ValueError("empty value list")
    if not Path(args.report).name:
        raise ValueError(f"--report '{args.report}' names no file")
    if Path(args.report).suffix == ".csv":
        raise ValueError(f"--report {args.report} ends in .csv, where its CSV table is written")
    return partial(cmd_sweep, config, args.param, values, args.audio, args.report)


def main(argv=None) -> int:
    """Run one command and return its exit status.

    0 is success. Bad arguments found before the work starts exit 2, and a
    failure of the work itself exits 1; either prints one line on stderr.
    """
    args = build_parser().parse_args(argv)
    status = 2
    try:
        work = _command(args)
        status = 1
        work()
    except _FAILURES as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
