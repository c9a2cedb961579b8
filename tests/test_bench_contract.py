"""What bench/ needs of the package: the names it traces and the calls it makes.

bench/ runs from its own directory and is not part of the package, so a
rename in src/ would otherwise show only when a traced benchmark run fails.
These tests import bench/'s modules and leave its files as they are.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import mmvib.cli
from conftest import make_tone_capture
from mmvib import ChirpConfig, inject_artifacts, read_wav, save_capture, write_wav
from speechgen import make_speech_clip

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import child  # noqa: E402
import tracing  # noqa: E402


def test_tracer_finds_every_layer_function_and_puts_it_back():
    originals = {
        (layer, name): getattr(sys.modules[f"mmvib.{layer}"], name)
        for layer, names in tracing.LAYER_FUNCTIONS.items()
        for name in names
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert mmvib.cli.cmd_extract is not originals["cli", "cmd_extract"]
    finally:
        tracer.uninstall()
    for (layer, name), original in originals.items():
        assert getattr(sys.modules[f"mmvib.{layer}"], name) is original


def test_workloads_import():
    import workloads  # noqa: F401


def test_clean_phase_series_counts_both_stages(tmp_path):
    capture = inject_artifacts(make_tone_capture(ChirpConfig(), 440.0, duration_s=0.32), 8.0, 8.0,
                               seed=3)
    path = tmp_path / "cap.bin"
    save_capture(capture, path)
    counts = child._clean_phase_series(SimpleNamespace(paused=False), str(path))
    assert set(counts) == {
        "vib_extract.remove_beginning_outlier.replaced",
        "vib_extract.remove_periodic_outliers.replaced",
    }
    assert counts["vib_extract.remove_periodic_outliers.replaced"] > 0


def test_sweep_row_equals_the_bench_recomputation(tmp_path, monkeypatch):
    """sweep_chirps checks each sweep row against _sweep_row_scores, which recomputes it
    through simulate_if_frames, inject_artifacts and extract_vibration."""
    import workloads

    monkeypatch.delenv(mmvib.cli.SEED_ENV_VAR, raising=False)
    seed, audio, config = 3, tmp_path / "source.wav", tmp_path / "run.ini"
    write_wav(audio, make_speech_clip(seed, duration=1.0, rate=8000.0))
    workloads._write_run_config(config, seed)
    report = tmp_path / "report.json"
    assert mmvib.cli.main(["sweep", "--config", str(config), "--param", "chirps_per_frame",
                           "--values", "256", "--audio", str(audio), "--report", str(report)]) == 0
    [row] = json.loads(report.read_text())["rows"]
    assert workloads._same_scores(row, workloads._sweep_row_scores(read_wav(audio), seed, 0, 256))
