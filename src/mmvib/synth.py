"""Synthetic degraded-speech generation: z-scored speech plus purple and Gaussian noise."""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import read_wav, resample, write_wav
from .signal_core import AudioBuffer, zscore_normalize

DEFAULT_ALPHA = 1.0
DEFAULT_BETA = 0.3
DEFAULT_SAMPLE_RATE = 8000.0
DEFAULT_SEED = 0

# Per-item alpha/beta jitter span when randomized intensities are requested.
JITTER_SPAN = 0.5


@dataclass
class SynthesisConfig:
    """Noise gains and the root seed for degradation synthesis."""

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"alpha and beta must be >= 0, got {self.alpha}, {self.beta}")


def gen_gaussian_noise(n: int, seed, sample_rate: float = DEFAULT_SAMPLE_RATE) -> AudioBuffer:
    """Unit-variance zero-mean white Gaussian noise, deterministic per seed."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    return zscore_normalize(AudioBuffer(white, sample_rate))


def gen_purple_noise(n: int, seed, sample_rate: float = DEFAULT_SAMPLE_RATE) -> AudioBuffer:
    """Unit-variance noise with power density rising as f^2 (+20 dB/decade).

    White Gaussian noise is shaped in the frequency domain by multiplying each
    spectral amplitude by its frequency, which is an exact f^2 power profile
    across the whole band.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white) * np.fft.rfftfreq(n)
    shaped = np.fft.irfft(spectrum, n=n)
    return zscore_normalize(AudioBuffer(shaped, sample_rate))


def synthesize_mmvib(speech: AudioBuffer, cfg: SynthesisConfig) -> AudioBuffer:
    """Degrade clean speech: z-scored speech + alpha*purple + beta*gaussian.

    Both noise streams are drawn from child seeds of cfg.seed, so the noise
    realization depends only on the seed and the clip length.
    """
    nominal = zscore_normalize(speech)
    purple_seed, gaussian_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    n = len(speech)
    purple = gen_purple_noise(n, purple_seed, speech.sample_rate)
    gaussian = gen_gaussian_noise(n, gaussian_seed, speech.sample_rate)
    mixed = nominal.samples + cfg.alpha * purple.samples + cfg.beta * gaussian.samples
    return AudioBuffer(mixed, speech.sample_rate)


def item_seed(root_seed: int, index: int) -> int:
    """Deterministic per-item seed so any item can be regenerated in isolation."""
    return int(np.random.SeedSequence((root_seed, index)).generate_state(1)[0])


def build_dataset(
    manifest_in,
    out_dir,
    cfg: SynthesisConfig,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    jitter: bool = False,
) -> Path:
    """Degrade every WAV listed in a manifest and write a paired output manifest.

    The input manifest holds one entry per line: either a bare WAV path or a
    JSON object with a clean_path field. Each clip is resampled to the target
    rate, degraded with a seed derived from (cfg.seed, item index), and both
    the resampled clean copy and the degraded copy are written under out_dir.
    Unreadable entries are recorded in the manifest and skipped; the build
    fails only when every entry fails.

    With jitter enabled, alpha and beta get a per-item uniform scale in
    [0.5, 1.5]; the values actually used are recorded in the manifest.
    """
    entries = _read_input_manifest(manifest_in)
    if not entries:
        raise ValueError("manifest lists no entries")
    out_dir = Path(out_dir)
    clean_dir = out_dir / "clean"
    degraded_dir = out_dir / "degraded"
    clean_dir.mkdir(parents=True, exist_ok=True)
    degraded_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    failures = 0
    for index, clean_path in enumerate(entries):
        seed = item_seed(cfg.seed, index)
        alpha, beta = cfg.alpha, cfg.beta
        if jitter:
            jrng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
            alpha *= jrng.uniform(1.0 - JITTER_SPAN, 1.0 + JITTER_SPAN)
            beta *= jrng.uniform(1.0 - JITTER_SPAN, 1.0 + JITTER_SPAN)
        try:
            clean = resample(read_wav(clean_path), sample_rate)
            degraded = synthesize_mmvib(clean, SynthesisConfig(alpha, beta, seed))
        except (OSError, ValueError) as exc:
            failures += 1
            rows.append({"clean_path": str(clean_path), "error": str(exc)})
            continue
        stem = f"{index:05d}_{Path(clean_path).stem}"
        clean_out = clean_dir / f"{stem}.wav"
        degraded_out = degraded_dir / f"{stem}.wav"
        write_wav(clean_out, clean)
        write_wav(degraded_out, degraded)
        rows.append(
            {
                "clean_path": str(clean_out),
                "degraded_path": str(degraded_out),
                "seed": seed,
                "alpha": alpha,
                "beta": beta,
                "sample_rate": sample_rate,
            }
        )
    if failures == len(entries):
        raise RuntimeError(f"all manifest entries failed, first: {rows[0]['error']}")

    manifest_out = out_dir / "manifest.jsonl"
    with open(manifest_out, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return manifest_out


def manifest_lines(path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file, numbered from 1, as open() splits it.

    Each line is checked on its own, so a line that is not UTF-8 is a
    ValueError naming the file and line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
            yield line_no, line


def _read_input_manifest(path) -> list[str]:
    """Accept bare-path lines or JSON-lines rows carrying clean_path."""
    entries: list[str] = []
    for line_no, line in manifest_lines(path):
        line = line.strip()
        if not line:
            continue
        if not line.startswith("{"):
            entries.append(line)
            continue
        try:
            entries.append(str(json.loads(line)["clean_path"]))
        except (ValueError, KeyError, RecursionError):
            raise ValueError(f"{path} line {line_no}: no JSON clean_path field") from None
    return entries
