"""What bench/ needs of the package: the names it traces and the calls it makes.

bench/ runs from its own directory and is not part of the package, so a
rename in src/ would otherwise show only when a traced benchmark run fails.
These tests import bench/'s modules and leave its files as they are.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import mmvib.cli
from conftest import make_tone_capture
from mmvib import ChirpConfig, inject_artifacts, save_capture

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
