"""In-memory span tracer that wraps mmvib's public layer functions from outside.

Nothing in the package changes: each wrapped function is rebound in every
``mmvib`` module that holds it, because the modules import names with
``from .x import y`` and look them up in their own namespace.

A span records its name, start, end and parent. Self time is the span's
duration minus the durations of its direct children. Peak memory is the
highest ``tracemalloc`` level reached while the span was open, above the level
at which it opened; a child's peak is folded into its parent's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)

# Public functions wrapped per layer (module of mmvib).
LAYER_FUNCTIONS = {
    "cli": ("cmd_simulate", "cmd_extract", "cmd_synth", "cmd_score", "cmd_sweep"),
    "radar_sim": (
        "displacement_from_audio",
        "simulate_if_frames",
        "inject_artifacts",
        "save_capture",
        "load_capture",
    ),
    "vib_extract": (
        "range_fft",
        "select_target_bin",
        "extract_phase_series",
        "phase_to_displacement",
        "extract_vibration",
        "remove_beginning_outlier",
        "remove_periodic_outliers",
    ),
    "synth": ("build_dataset", "synthesize_mmvib", "gen_purple_noise", "gen_gaussian_noise"),
    "metrics": ("score_pair", "fwsegsnr", "stoi", "mcd", "mel_loss", "mag_l1", "wer_cer"),
    "signal_core": (
        "stft",
        "frame_signal",
        "mel_filterbank",
        "mel_spectrogram",
        "zscore_normalize",
        "unwrap_phase",
        "hann_window",
    ),
    "audio_io": ("read_wav", "write_wav", "resample", "low_pass"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "base", "top")

    def __init__(self, name: str, parent: int | None, start: float, base: int) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.base = base
        self.top = base

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self_s": self.duration - self.child_s,
            "peak_mb": (self.top - self.base) / MIB,
        }


class Tracer:
    """Collects spans and counters for one process; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.paused = False

    def _enter(self, name: str) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.top = max(parent.top, peak)
        tracemalloc.reset_peak()
        index = len(self.spans)
        parent_index = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent_index, time.perf_counter(), current))
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        span.top = max(span.top, peak)
        self._stack.pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_s += span.duration
            parent.top = max(parent.top, span.top)
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function in each loaded mmvib module that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "mmvib" or n.startswith("mmvib.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"mmvib.{layer}"]
            for name in names:
                original = getattr(home, name)
                on_result = _count_capture_bytes if name == "simulate_if_frames" else None
                traced = self.wrap(f"{layer}.{name}", original, on_result)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._originals.append((module, attr, original))
                            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: self seconds, call count and largest peak."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"s": 0.0, "calls": 0, "peak_mb": 0.0})
            row["s"] += span.duration - span.child_s
            row["calls"] += 1
            row["peak_mb"] = max(row["peak_mb"], (span.top - span.base) / MIB)
        return out

    def covered_s(self, prefix: str) -> float:
        """Seconds covered by top-level spans whose name starts with prefix."""
        return sum(s.duration for s in self.spans if s.parent is None and s.name.startswith(prefix))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [s.to_dict() for s in self.spans], "counters": dict(self.counters)},
                fh,
            )


def _count_capture_bytes(tracer: Tracer, capture) -> None:
    tracer.counters["radar_sim.capture_mb"] += capture.frames.nbytes / MIB
