"""Synthetic degraded-speech generation: z-scored speech plus purple and Gaussian noise."""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator
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
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):
            raise ValueError(
                f"alpha and beta must be finite and >= 0, got {self.alpha}, {self.beta}"
            )


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
    A failing entry is an error row in the manifest, and the clean copy it
    wrote, if any, is removed; the build fails only when every entry fails,
    naming the first entry's input.
    Entries run on map_rows' threads, and the manifest keeps their order.

    With jitter enabled, alpha and beta get a per-item uniform scale in
    [0.5, 1.5]; the values actually used are recorded in the manifest.
    """
    entries = _read_input_manifest(manifest_in)
    if not entries:
        raise ValueError(f"manifest lists no entries: {manifest_in}")
    out_dir = Path(out_dir)
    clean_dir = out_dir / "clean"
    degraded_dir = out_dir / "degraded"
    clean_dir.mkdir(parents=True, exist_ok=True)
    degraded_dir.mkdir(parents=True, exist_ok=True)

    def build(item: tuple[int, str]) -> dict:
        index, clean_path = item
        seed = item_seed(cfg.seed, index)
        alpha, beta = cfg.alpha, cfg.beta
        if jitter:
            jrng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
            alpha *= jrng.uniform(1.0 - JITTER_SPAN, 1.0 + JITTER_SPAN)
            beta *= jrng.uniform(1.0 - JITTER_SPAN, 1.0 + JITTER_SPAN)
        stem = f"{index:05d}_{Path(clean_path).stem}"
        clean_out = clean_dir / f"{stem}.wav"
        degraded_out = degraded_dir / f"{stem}.wav"
        written = None
        try:
            clean = resample(read_wav(clean_path), sample_rate)
            degraded = synthesize_mmvib(clean, SynthesisConfig(alpha, beta, seed))
            write_wav(clean_out, clean)
            written = clean_out
            write_wav(degraded_out, degraded)
        except _FAILURES as exc:
            if written is not None:
                written.unlink(missing_ok=True)
            return {"clean_path": str(clean_path), "error": str(exc)}
        return {
            "clean_path": str(clean_out),
            "degraded_path": str(degraded_out),
            "seed": seed,
            "alpha": alpha,
            "beta": beta,
            "sample_rate": sample_rate,
        }

    rows = map_rows(build, list(enumerate(entries)))
    if all("error" in row for row in rows):
        first = rows[0]
        raise RuntimeError(f"all manifest entries failed, first: {first['clean_path']!r}: "
                           f"{first['error']}")

    manifest_out = out_dir / "manifest.jsonl"
    manifest_out.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return manifest_out


# What a manifest row or a command raises on bad input, a failed read or write, or
# an array too large to allocate: an error row for a row, one stderr line for a command.
_FAILURES = (OSError, ValueError, OverflowError, RuntimeError, MemoryError)


def usable_cpus() -> int:
    """The number of CPUs this process may run on, or os.cpu_count() where that is not known."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_rows(work: Callable, rows: list, size: Callable | None = None) -> list:
    """work(row) for every row, results in row order, a thread per CPU this process may use.

    score's pairs, synth's entries and sweep's values are the rows. The pool
    holds no more threads than rows. Rows start in row order, or largest
    size(row) first when size is given, equal sizes in row order, so the
    largest row does not run alone at the end. work is meant to stay out of
    BLAS: a threaded OpenBLAS product wakes BLAS threads that spin on the
    CPUs the pool needs. STOI's resample to 10 kHz reaches BLAS only where
    its window rows do not overlap, as from 44.1 kHz (441 samples apart, 89
    taps); from sweep's 16 and 32 kHz radar rows they overlap (8 and 16
    apart, 33 and 65 taps), so numpy runs its own loop. When work raises,
    the rows after that one that have not started are dropped; once the
    running rows finish, the exception of the first row in row order that
    raised one is raised here. A sweep value's row builds its frames on
    iter_if_frames' own pool of min(usable_cpus(), 4) threads besides.
    """
    # imported here: concurrent.futures loads logging, which would add to
    # the start-up of every command, not only the ones with manifests
    from concurrent.futures import ThreadPoolExecutor

    failed = []  # the indices of the rows whose work raised

    def run(index: int):
        # an earlier row's exception is raised first, so this result is never
        # read; a stale read of failed only runs such a row in vain
        if failed and min(failed) < index:
            return None
        try:
            return work(rows[index])
        except BaseException:
            failed.append(index)
            raise

    order = range(len(rows))
    if size is not None:
        order = sorted(order, key=lambda index: size(rows[index]), reverse=True)
    workers = max(1, min(usable_cpus(), len(rows)))
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="mmvib-row") as pool:
        futures = {index: pool.submit(run, index) for index in order}
    return [futures[index].result() for index in range(len(rows))]


def manifest_lines(path) -> Iterator[tuple[int, str]]:
    """Each non-blank line of a UTF-8 text file as open() splits it, numbered from 1.

    Blank lines count toward the numbers. Each line is checked on its own,
    so a line that is not UTF-8 is a ValueError naming the file and line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path} line {line_no}: {exc}") from None
            if line.strip():
                yield line_no, line


def _read_input_manifest(path) -> list[str]:
    """Accept bare-path lines or JSON-lines rows carrying clean_path."""
    entries: list[str] = []
    for line_no, line in manifest_lines(path):
        line = line.strip()
        if not line.startswith("{"):
            entries.append(line)
            continue
        try:
            entries.append(str(json.loads(line)["clean_path"]))
        except (ValueError, KeyError, RecursionError):
            raise ValueError(f"{path} line {line_no}: no JSON clean_path field") from None
    return entries
