"""Command-line surface: config parsing and the five subcommands."""

import builtins
import csv
import hashlib
import io
import json
import os
import re
import shutil
import struct
import sys
import tempfile
import threading
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import exit_paths
import mmvib.cli
import mmvib.radar_sim
import mmvib.vib_extract
from conftest import run_fresh, traced_peak
from exit_paths import EXIT_PATHS, MALFORMED_WAVS, make_tone_wav, run_main
from identity import COMMANDS, ROOT, _contents, run_commands, write_inputs
from mmvib import (
    AudioBuffer,
    CaptureFile,
    ChirpConfig,
    VibrationTrace,
    extract_vibration,
    load_capture,
    locate_target,
    low_pass,
    read_wav,
    resample,
    save_capture,
    score_pair,
    simulate_if_frames,
    write_wav,
    zscore_normalize,
)
from mmvib.cli import (
    MATERIAL_PRESETS,
    REFERENCE_BAND_HZ,
    PipelineConfig,
    _SECTIONS,
    _sweep_variant,
    load_config,
    main,
)
from mmvib.metrics import REQUIRED_METRICS
from mmvib.vib_extract import BinSearch
from oracles import in_memory_capture
from speechgen import make_speech_clip


# Run main on each argv of the JSON list in argv[1], each to exit 0, and
# print how far the interpreter's own peak RSS, VmHWM, grew; ru_maxrss would
# carry the parent's peak across exec.
_PEAK_RSS_GROWTH = (
    "import json, sys\n"
    "from mmvib.cli import main\n"
    "def hwm():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        return next(int(l.split()[1]) * 1024 for l in fh if l.startswith('VmHWM:'))\n"
    "base = hwm()\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert main(argv) == 0\n"
    "print(hwm() - base)\n"
)


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.chirp.chirps_per_frame == 256
        assert cfg.chirp.frame_period == pytest.approx(0.032)
        assert cfg.range_m == 1.5
        assert cfg.seed == 0

    def test_file_overrides(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(
            "[scene]\nrange_m = 2.5\nnoise_floor_db = -50\n"
            "[material]\npreset = tinfoil\n"
            "[run]\nseed = 9\n"
        )
        cfg = load_config(p)
        assert cfg.range_m == 2.5
        assert cfg.noise_floor_db == -50.0
        assert cfg.seed == 9
        assert cfg.material.mass == pytest.approx(3e-4)

    def test_frame_shape_past_the_cap_is_rejected_before_any_allocation(self, tmp_path):
        # 256 x 2^20 samples a frame would be 2 GiB noise buffers; the cap is
        # 2^20 samples, so 256 x 4096 loads and 256 x 4097 does not
        p = tmp_path / "cfg.ini"
        p.write_text("[chirp]\nadc_samples_per_chirp = 4096\n")
        assert load_config(p).chirp.adc_samples_per_chirp == 4096
        message = ("config section [chirp]: chirps_per_frame * adc_samples_per_chirp = "
                   "268435456 exceeds 1048576 samples per frame")
        p.write_text("[chirp]\nadc_samples_per_chirp = 1048576\n")

        def load():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_config(p)

        assert traced_peak(load) < 1 << 20

    # Every accepted key, set to a valid non-default value, and where it lands.
    @pytest.mark.parametrize("section, key, text, attribute, value", [
        ("chirp", "carrier_freq", "61e9", "chirp.carrier_freq", 61e9),
        ("chirp", "slope", "3e13", "chirp.slope", 3e13),
        ("chirp", "chirp_duration", "1e-4", "chirp.chirp_duration", 1e-4),
        ("chirp", "adc_samples_per_chirp", "128.0", "chirp.adc_samples_per_chirp", 128),
        ("chirp", "chirps_per_frame", "200", "chirp.chirps_per_frame", 200),
        ("chirp", "frame_period", "0.04", "chirp.frame_period", 0.04),
        ("material", "preset", "tinfoil", "material", MATERIAL_PRESETS["tinfoil"]),
        ("material", "mass", "1e-4", "material.mass", 1e-4),
        ("material", "stiffness", "5e4", "material.stiffness", 5e4),
        ("material", "damping", "1.5", "material.damping", 1.5),
        ("material", "reflectivity", "0.5", "material.reflectivity", 0.5),
        ("scene", "range_m", "2", "range_m", 2.0),
        ("scene", "noise_floor_db", "-40", "noise_floor_db", -40.0),
        ("scene", "force_scale", "0.25", "force_scale", 0.25),
        ("artifacts", "beginning_sigma", "0", "beginning_sigma", 0.0),
        ("artifacts", "periodic_sigma", "3", "periodic_sigma", 3.0),
        ("synthesis", "alpha", "0.5", "alpha", 0.5),
        ("synthesis", "beta", "0.1", "beta", 0.1),
        ("synthesis", "sample_rate", "16000", "synth_sample_rate", 16000.0),
        ("run", "seed", "7.9", "seed", 7),
    ])
    def test_each_key_sets_its_field(self, section, key, text, attribute, value, tmp_path,
                                     monkeypatch):
        monkeypatch.delenv("MMVIB_SEED", raising=False)
        p = tmp_path / "cfg.ini"
        p.write_text(f"[{section}]\n{key} = {text}\n")
        defaults = load_config(None)
        *path, name = attribute.split(".")
        owner = attrgetter(*path)(defaults) if path else defaults
        assert getattr(owner, name) != value
        expected = replace(owner, **{name: value})
        if path:
            expected = replace(defaults, **{path[0]: expected})
        cfg = load_config(p)
        assert cfg == expected
        assert type(attrgetter(attribute)(cfg)) is type(value)

    def test_readme_block_lists_the_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MMVIB_SEED", raising=False)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        p = tmp_path / "readme.ini"
        p.write_text(block)

        def leaves(obj, prefix=""):
            if is_dataclass(obj):
                for f in fields(obj):
                    yield from leaves(getattr(obj, f.name), f"{prefix}{f.name}.")
            else:
                yield prefix.rstrip("."), obj

        documented = dict(leaves(load_config(p)))
        defaults = dict(leaves(load_config(None)))
        assert documented.keys() == defaults.keys()
        for name, value in defaults.items():
            # the default chirp duration, 0.9 * 0.032 / 256, is one ulp off 112.5e-6
            assert documented[name] == pytest.approx(value, rel=1e-12), name

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MMVIB_SEED", "123")
        assert load_config(None).seed == 123

    def test_material_override_fields(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[material]\nmass = 1e-4\nstiffness = 5e4\ndamping = 1.0\n")
        cfg = load_config(p)
        assert cfg.material.mass == pytest.approx(1e-4)
        assert cfg.material.stiffness == pytest.approx(5e4)

    def test_material_presets_are_shared_read_only(self):
        # a default config holds the preset object itself
        mass = MATERIAL_PRESETS["pet"].mass
        with pytest.raises(FrozenInstanceError):
            PipelineConfig().material.mass = 1.0
        assert MATERIAL_PRESETS["pet"].mass == mass
        assert load_config(None).material.mass == mass


class TestSimulate:
    def test_eight_seconds_is_250_frames(self, tmp_path, capsys):
        wav = make_tone_wav(tmp_path / "tone.wav", duration=8.0)
        out = tmp_path / "cap.bin"
        assert main(["simulate", "--audio", str(wav), "--out", str(out)]) == 0
        cap = load_capture(out)
        assert cap.n_frames == 250
        printed = capsys.readouterr().out
        assert "range resolution" in printed
        assert "8000" in printed

    def test_byte_identical_rerun(self, tmp_path):
        wav = make_tone_wav(tmp_path / "tone.wav", duration=1.0)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["simulate", "--audio", str(wav), "--out", str(a)]) == 0
        assert main(["simulate", "--audio", str(wav), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_chirps_per_frame_past_the_frame_cap_is_rejected_before_any_allocation(self):
        # at the default 256 samples a chirp, 4096 chirps fill the 2^20-sample cap
        variant = _sweep_variant(PipelineConfig(), "chirps_per_frame", "4096")
        assert variant.chirp.chirps_per_frame == 4096
        message = ("chirps_per_frame * adc_samples_per_chirp = 2097152 exceeds 1048576 "
                   "samples per frame")

        def vary():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _sweep_variant(PipelineConfig(), "chirps_per_frame", "8192")

        assert traced_peak(vary) < 1 << 20

    def test_write_failing_mid_stream_stops_the_noise_thread(self, tmp_path, monkeypatch, capsys):
        def failing_write(path, config, frames):
            next(iter(frames))
            raise OSError("disk full")

        monkeypatch.setattr(mmvib.cli, "write_capture_frames", failing_write)
        wav = make_tone_wav(tmp_path / "tone.wav", duration=1.0)
        before = threading.active_count()
        assert main(["simulate", "--audio", str(wav), "--out", str(tmp_path / "c.bin")]) == 1
        assert threading.active_count() == before
        assert capsys.readouterr().err == "simulate failed: disk full\n"

    def test_peak_memory_a_fraction_of_the_capture(self, tmp_path):
        # simulate and extract in a fresh interpreter
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status for VmHWM")
        wav, capture = tmp_path / "speech.wav", tmp_path / "cap.bin"
        write_wav(wav, make_speech_clip(12, duration=10.0))
        grown = int(run_fresh(_PEAK_RSS_GROWTH, json.dumps([
            ["simulate", "--audio", str(wav), "--out", str(capture)],
            ["extract", "--capture", str(capture), "--out", str(tmp_path / "rec.wav")],
        ])))
        capture_bytes = capture.stat().st_size
        assert capture_bytes > 150 * 2**20
        assert grown < capture_bytes / 4


# Garbling applied to a small capture container: header fields set to values
# a reader must reject or survive, and inserts, overwrites and cuts of bytes
# anywhere, some of them float32 samples that are huge, infinite or NaN. The
# header is the magic, four float64 and four uint32.
_HEADER_FIELDS = st.one_of(
    st.tuples(
        st.just("overwrite"),
        st.sampled_from([8, 16, 24, 32]),
        st.sampled_from([0.0, -1.0, 1e-300, 1e300, float("inf"), float("nan")]).map(
            lambda x: struct.pack("<d", x)
        ),
        st.just(1),
    ),
    st.tuples(
        st.just("overwrite"),
        st.sampled_from([40, 44, 48, 52]),
        st.sampled_from([0, 1, 2, 3, 2**31, 2**32 - 1]).map(lambda n: struct.pack("<I", n)),
        st.just(1),
    ),
)
_CONTAINER_GARBLING = st.lists(
    st.one_of(
        _HEADER_FIELDS,
        st.tuples(
            st.sampled_from(["insert", "overwrite"]),
            st.integers(min_value=0),
            st.binary(min_size=1, max_size=8)
            | st.sampled_from([3.0e38, float("inf"), float("nan")]).map(lambda x: struct.pack("<f", x)),
            st.just(1),
        ),
        st.tuples(st.just("cut"), st.integers(min_value=0), st.just(b""), st.integers(1, 400)),
    ),
    min_size=1,
    max_size=4,
)


@pytest.fixture(scope="module")
def small_capture(tmp_path_factory):
    """A directory and the bytes of a three-frame capture of 8 chirps of 16 samples."""
    root = tmp_path_factory.mktemp("capture_fuzz")
    cfg = replace(ChirpConfig(), adc_samples_per_chirp=16, chirps_per_frame=8)
    rate = cfg.effective_sampling_rate
    vib = VibrationTrace(1e-6 * np.sin(2 * np.pi * 40.0 * np.arange(24) / rate), rate)
    save_capture(simulate_if_frames(cfg, vib, 0.2, seed=0), root / "good.bin")
    return root, (root / "good.bin").read_bytes()


class TestExtract:
    @pytest.fixture()
    def capture_path(self, tmp_path):
        wav = make_tone_wav(tmp_path / "tone.wav", freq=500.0, duration=1.0)
        out = tmp_path / "cap.bin"
        assert main(["simulate", "--audio", str(wav), "--out", str(out)]) == 0
        return out

    def test_round_trip_peak(self, capture_path, tmp_path):
        wav_out = tmp_path / "rec.wav"
        assert main(["extract", "--capture", str(capture_path), "--out", str(wav_out)]) == 0
        rec = read_wav(wav_out)
        spectrum = np.abs(np.fft.rfft(rec.samples))
        peak = spectrum[1:].argmax() + 1
        freq = peak * rec.sample_rate / len(rec)
        assert freq == pytest.approx(500.0, abs=rec.sample_rate / len(rec))

    def test_no_preprocess_keeps_frame_rate_lines(self, capture_path, tmp_path):
        raw_out = tmp_path / "raw.wav"
        clean_out = tmp_path / "clean.wav"
        assert main(["extract", "--capture", str(capture_path),
                     "--out", str(raw_out), "--no-preprocess"]) == 0
        assert main(["extract", "--capture", str(capture_path), "--out", str(clean_out)]) == 0
        raw = read_wav(raw_out)
        n = len(raw)
        frame_bin = int(round(n * 31.25 / raw.sample_rate))
        comb = np.arange(frame_bin, n // 2, frame_bin)
        comb = comb[np.abs(comb - round(500.0 * n / raw.sample_rate)) > 3]
        raw_spec = np.abs(np.fft.rfft(raw.samples))
        clean_spec = np.abs(np.fft.rfft(read_wav(clean_out).samples))
        assert raw_spec[comb].max() > 10 * clean_spec[comb].max()

    def test_sidecar_written(self, capture_path, tmp_path):
        wav_out = tmp_path / "rec.wav"
        main(["extract", "--capture", str(capture_path), "--out", str(wav_out)])
        sidecar = json.loads((tmp_path / "rec.wav.json").read_text())
        assert sidecar["sample_rate"] == 8000.0
        assert sidecar["preprocess"] is True
        assert sidecar["target_bin"] > 0

    @pytest.mark.parametrize("text", ['{"artifact_log": [{}]}', "[1, 2]"])
    def test_malformed_sidecar_is_ignored(self, capture_path, tmp_path, text):
        # no reader opens the artifact log, extract included
        clean = tmp_path / "clean.wav"
        assert main(["extract", "--capture", str(capture_path), "--out", str(clean)]) == 0
        (tmp_path / "cap.bin.artifacts.json").write_text(text)
        out = tmp_path / "x.wav"
        assert main(["extract", "--capture", str(capture_path), "--out", str(out)]) == 0
        assert out.read_bytes() == clean.read_bytes()

    def test_matches_library_pipeline(self, capture_path, tmp_path):
        wav_out = tmp_path / "rec.wav"
        assert main(["extract", "--capture", str(capture_path), "--out", str(wav_out)]) == 0
        capture = load_capture(capture_path)
        trace = extract_vibration(capture)
        lib_out = tmp_path / "lib.wav"
        write_wav(lib_out, AudioBuffer(trace.displacement, trace.sample_rate))
        assert wav_out.read_bytes() == lib_out.read_bytes()
        sidecar = json.loads((tmp_path / "rec.wav.json").read_text())
        assert sidecar["target_bin"] == locate_target(capture)[0]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(edits=_CONTAINER_GARBLING)
    def test_garbled_container_fuzz(self, small_capture, edits):
        root, good = small_capture
        capture = root / "garbled.bin"
        capture.write_bytes(_garble(good, edits))
        code, err = run_main(["extract", "--capture", str(capture), "--out", str(root / "x.wav")])
        assert code in (0, 1)
        assert "Traceback" not in err
        assert err.count("\n") <= 1

    def test_every_frame_searched_once_per_command(self, tmp_path, monkeypatch):
        searched = []  # a digest of each frame a bin search sums, as it sums it
        demodulated = []  # a digest of each whole frame demodulated, as it is
        restamped = []  # one entry per part-frame demodulation, whatever its rows
        made = []  # the digests of the frames of each capture a sweep makes, by value, in turn
        located = []
        in_memory = []
        originals = {
            "locate_target": (mmvib.vib_extract.locate_target, located),
            "range_fft": (mmvib.vib_extract.range_fft, in_memory),
            "simulate_if_frames": (mmvib.radar_sim.simulate_if_frames, in_memory),
            "inject_artifacts": (mmvib.radar_sim.inject_artifacts, in_memory),
        }

        def digest(frame):
            # the artifacts rotate chirp 0 only, so the other chirps name the frame
            return hashlib.sha256(frame[1:].tobytes()).hexdigest()

        def counting(original, calls):
            def counted(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)

            return counted

        original_add = BinSearch.add

        def add(search, frame):
            searched.append(digest(frame))
            return original_add(search, frame)

        original_demodulate = mmvib.vib_extract._demodulate

        def demodulate(rows, kernel, out):
            if len(rows) == 256:
                demodulated.append(digest(rows))
            else:
                restamped.append(1)
            return original_demodulate(rows, kernel, out)

        original_frames = mmvib.cli.iter_if_frames

        def frames_made(config, vibration, range_m, **kwargs):
            mine = []
            made.append((range_m, mine))
            return (mine.append(digest(f)) or f for f in original_frames(config, vibration,
                                                                         range_m, **kwargs))

        monkeypatch.setattr(BinSearch, "add", add)
        monkeypatch.setattr(mmvib.vib_extract, "_demodulate", demodulate)
        monkeypatch.setattr(mmvib.cli, "iter_if_frames", frames_made)
        # rebind every module-level reference, so a second import of one is counted too
        for name, module in list(sys.modules.items()):
            if not name.startswith("mmvib"):
                continue
            for attr, (original, calls) in originals.items():
                if vars(module).get(attr) is original:
                    monkeypatch.setattr(module, attr, counting(original, calls))
        wav = make_tone_wav(tmp_path / "tone.wav", duration=0.5)

        def frames_of(path):
            return [digest(frame) for frame in CaptureFile(path)]

        def run(*argv):
            for calls in (searched, demodulated, restamped, made, located):
                calls.clear()
            assert main(list(argv)) == 0

        # each command demodulates every frame once and transforms only frame 0
        cap = tmp_path / "cap.bin"
        run("simulate", "--audio", str(wav), "--out", str(cap))
        frames = frames_of(cap)
        assert len(frames) == 15
        assert sorted(demodulated) == sorted(frames)
        assert searched == frames[:1]
        # simulate stamps the chirp-0 rows it kept, as sweep does: one demodulation per
        # logged chirp, 15 periodic spikes and the beginning one
        assert len(restamped) == 16
        assert located == []
        run("extract", "--capture", str(cap), "--out", str(tmp_path / "x.wav"))
        assert sorted(demodulated) == sorted(frames)
        assert searched == frames[:1]
        assert restamped == []
        assert located == ["locate_target"]
        # sweep makes each radar value's frames once and demodulates them as
        # they go by, then only one demodulation per row it stamps; the values may
        # run side by side, so each value's frames are told apart by their
        # digests, which are those of the in-memory capture of that value
        run("sweep", "--param", "range_m", "--values", "1.0,1.5", "--audio", str(wav),
            "--report", str(tmp_path / "sweep.json"))
        by_value = sorted(made)
        assert [range_m for range_m, _ in by_value] == [1.0, 1.5]
        assert [len(digests) for _, digests in by_value] == [15, 15]
        assert sorted(demodulated) == sorted(f for _, digests in by_value for f in digests)
        assert sorted(searched) == sorted(digests[0] for _, digests in by_value)
        assert len(restamped) == 32
        assert located == []
        # where noise swamps the target, a sweep value searches every frame as
        # it is made; here another bin wins, so the frames are made again, the
        # same ones, and demodulated at that bin
        run("sweep", "--param", "noise_floor_db", "--values", "40", "--audio", str(wav),
            "--report", str(tmp_path / "sweep.json"))
        assert [len(digests) for _, digests in made] == [15, 15]
        assert made[0] == made[1]
        assert sorted(searched) == sorted(made[0][1])
        assert sorted(demodulated) == sorted(made[0][1] * 2)
        assert len(restamped) == 16
        assert located == []
        # where noise swamps the target, frame 0 predicts that the bound
        # fails, and every frame is searched once, on its way to the file
        noisy = tmp_path / "noisy.ini"
        noisy.write_text("[scene]\nnoise_floor_db = 40\n")
        cap = tmp_path / "noisy.bin"
        run("simulate", "--config", str(noisy), "--audio", str(wav), "--out", str(cap))
        frames = frames_of(cap)
        assert sorted(searched) == sorted(frames)
        assert set(demodulated) == set(frames)
        assert located == []
        run("extract", "--capture", str(cap), "--out", str(tmp_path / "y.wav"))
        assert sorted(searched) == sorted(frames)
        assert set(demodulated) == set(frames)
        assert located == ["locate_target"]
        # the full range profile and the in-memory capture stay off the pipeline
        assert in_memory == []
        # the frames each sweep value made are those of its in-memory capture
        monkeypatch.undo()
        for index, (range_m, digests) in enumerate(by_value):
            variant = replace(PipelineConfig(), range_m=range_m)
            capture = in_memory_capture(variant, read_wav(wav), (variant.seed, index))
            assert digests == [digest(frame) for frame in capture]


class TestSynth:
    def test_smoke(self, tmp_path):
        paths = []
        for i in range(2):
            p = tmp_path / f"c{i}.wav"
            write_wav(p, make_speech_clip(i, duration=0.5))
            paths.append(str(p))
        manifest = tmp_path / "in.txt"
        manifest.write_text("\n".join(paths) + "\n")
        out_dir = tmp_path / "ds"
        assert main(["synth", "--manifest", str(manifest), "--out-dir", str(out_dir),
                     "--alpha", "0.5", "--beta", "0.1", "--seed", "3"]) == 0
        rows = [json.loads(l) for l in (out_dir / "manifest.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["alpha"] == 0.5


# Garbling applied to a score manifest: inserts, overwrites and cuts of bytes
# that matter to JSON, and runs of openers, some deep enough to exhaust the
# parser's recursion.
_POSITION = st.integers(min_value=0)
_CHUNK = st.one_of(
    st.sampled_from([b"[", b"{", b"]", b"}", b'"', b",", b":", b"\n", b"\\", b"\xff"]),
    st.binary(min_size=1, max_size=6),
)
_GARBLING = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "overwrite"]), _POSITION, _CHUNK, st.just(1)),
        st.tuples(st.just("cut"), _POSITION, st.just(b""), st.integers(1, 400)),
        st.tuples(
            st.just("nest"),
            st.just(0) | _POSITION,
            st.sampled_from([b"[", b'{"a": ']),
            st.sampled_from([3, 900, 100_000]),
        ),
    ),
    min_size=1,
    max_size=4,
)
# Any JSON value, to stand in for one key of a manifest row.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _garble(data: bytes, edits) -> bytes:
    for op, pos, chunk, count in edits:
        pos %= len(data) + 1
        if op == "insert":
            data = data[:pos] + chunk + data[pos:]
        elif op == "overwrite":
            data = data[:pos] + chunk + data[pos + len(chunk):]
        elif op == "cut":
            data = data[:pos] + data[pos + count:]
        else:
            data = data[:pos] + chunk * count + data[pos:]
    return data


def _run_score(manifest: Path, report: Path) -> tuple[int, str]:
    return run_main(["score", "--manifest", str(manifest), "--report", str(report)])


@pytest.fixture(scope="module")
def score_rows(tmp_path_factory):
    """A directory and two valid manifest rows over a 1 s tone, one with transcripts."""
    root = tmp_path_factory.mktemp("score_fuzz")
    wav = str(make_tone_wav(root / "tone.wav", duration=1.0))
    rows = [
        {"ref_path": wav, "deg_path": wav, "ref_text": "a b c", "hyp_text": "a x c"},
        {"ref_path": wav, "deg_path": wav},
    ]
    return root, rows


class TestScore:
    def test_identity_pairs_zero_mcd(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, make_speech_clip(0, duration=1.0))
        manifest = tmp_path / "pairs.jsonl"
        rows = [{"ref_path": str(wav), "deg_path": str(wav)} for _ in range(2)]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["aggregate"]["mcd"]["mean"] == pytest.approx(0.0, abs=1e-9)
        assert report["aggregate"]["mel_loss"]["mean"] == pytest.approx(0.0, abs=1e-9)

    def test_aggregates_are_means(self, tmp_path):
        ref = tmp_path / "ref.wav"
        write_wav(ref, make_speech_clip(1, duration=1.0))
        degs = []
        for i, gain in enumerate((1.0, 0.5)):
            clip = make_speech_clip(1, duration=1.0)
            from mmvib import AudioBuffer

            d = tmp_path / f"deg{i}.wav"
            write_wav(d, AudioBuffer(clip.samples + gain * 0.05 *
                                     np.random.default_rng(i).standard_normal(len(clip)),
                                     clip.sample_rate))
            degs.append(d)
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("\n".join(
            json.dumps({"ref_path": str(ref), "deg_path": str(d)}) for d in degs) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        per_pair = [p["mcd"] for p in report["pairs"] if "error" not in p]
        assert len(per_pair) == 2
        assert report["aggregate"]["mcd"]["mean"] == pytest.approx(np.mean(per_pair))

    def test_texts_produce_wer(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, make_speech_clip(2, duration=1.0))
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text(json.dumps({
            "ref_path": str(wav), "deg_path": str(wav),
            "ref_text": "a b c", "hyp_text": "a x c"}) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["aggregate"]["wer"]["mean"] == pytest.approx(1.0 / 3.0)

    def test_partial_failure_recorded_but_exit_zero(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, make_speech_clip(3, duration=1.0))
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("\n".join([
            json.dumps({"ref_path": str(wav), "deg_path": str(wav)}),
            json.dumps({"ref_path": str(tmp_path / "gone.wav"), "deg_path": str(wav)}),
        ]) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert any("error" in p for p in report["pairs"])

    def test_a_pair_out_of_memory_is_a_row_error(self, tmp_path, monkeypatch):
        # the 16 kHz side is resampled, and that resample cannot allocate
        ref = make_tone_wav(tmp_path / "ref.wav", duration=1.0)
        deg = make_tone_wav(tmp_path / "deg.wav", duration=1.0, rate=16000.0)

        def out_of_memory(audio, rate):
            if audio.sample_rate == rate:
                return audio
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(mmvib.cli, "resample", out_of_memory)
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("".join(json.dumps({"ref_path": str(ref), "deg_path": str(d)}) + "\n"
                                    for d in (deg, ref)))
        report_path = tmp_path / "report.json"
        assert _run_score(manifest, report_path) == (0, "")
        pairs = json.loads(report_path.read_text())["pairs"]
        assert pairs[0] == {"ref_path": str(ref), "deg_path": str(deg),
                            "error": "Unable to allocate 149. GiB"}
        assert "error" not in pairs[1] and pairs[1]["mcd"] == pytest.approx(0.0, abs=1e-9)

    def test_malformed_rows_are_pair_errors(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, make_speech_clip(3, duration=1.0))
        manifest = tmp_path / "pairs.jsonl"
        rows = [[1], {"ref_path": 5, "deg_path": str(wav)},
                {"ref_path": str(wav), "deg_path": str(wav)}, {"ref_path": str(wav)},
                {"deg_path": str(wav), "ref_path": None}]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        pairs = json.loads(report_path.read_text())["pairs"]
        assert "not a JSON object" in pairs[0]["error"]
        assert pairs[1]["error"] == "ref_path must be a string, got int"
        assert "error" not in pairs[2]
        assert pairs[3]["error"] == "no deg_path field"
        assert pairs[4]["error"] == "ref_path must be a string, got NoneType"

    @pytest.mark.parametrize("key", ["ref_text", "hyp_text"])
    @pytest.mark.parametrize("value", [5, 2.5, True, {"words": "a b"}])
    def test_non_text_transcript_is_a_row_error(self, tmp_path, key, value):
        wav = make_tone_wav(tmp_path / "x.wav", duration=1.0)
        row = {"ref_path": str(wav), "deg_path": str(wav), "ref_text": "a b", "hyp_text": "a b"}
        row[key] = value
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text(json.dumps({"ref_path": str(wav), "deg_path": str(wav)}) + "\n"
                            + json.dumps(row) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        pairs = json.loads(report_path.read_text())["pairs"]
        assert "error" not in pairs[0]
        assert pairs[1]["error"].startswith(f"{key} must be a string or a list of words")

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(edits=_GARBLING)
    def test_garbled_manifest_fuzz(self, score_rows, edits):
        root, rows = score_rows
        manifest = root / "garbled.jsonl"
        good = "".join(json.dumps(r) + "\n" for r in rows).encode()
        manifest.write_bytes(_garble(good, edits))
        code, err = _run_score(manifest, root / "report.json")
        assert code in (0, 1)
        assert "Traceback" not in err
        assert err.count("\n") <= 1

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        key=st.sampled_from(["ref_path", "deg_path", "ref_text", "hyp_text"]),
        value=_JSON_VALUES,
    )
    def test_any_json_value_in_a_row_fuzz(self, score_rows, key, value):
        root, rows = score_rows
        bad = dict(rows[0], **{key: value})
        manifest = root / "values.jsonl"
        manifest.write_text(json.dumps(bad) + "\n" + json.dumps(rows[1]) + "\n")
        report = root / "report.json"
        code, err = _run_score(manifest, report)
        assert (code, err) == (0, "")
        pairs = json.loads(report.read_text())["pairs"]
        assert "error" not in pairs[1]
        if key.endswith("_text") and not isinstance(value, (str, list, type(None))):
            assert pairs[0]["error"].startswith(f"{key} must be")

class TestMalformedWav:
    @pytest.mark.parametrize("name", sorted(MALFORMED_WAVS))
    def test_score_row_gets_an_error(self, name, exit_inputs, tmp_path):
        good, malformed_wav = exit_inputs / "tone.wav", exit_inputs / f"{name}.wav"
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in (
            {"ref_path": str(good), "deg_path": str(good)},
            {"ref_path": str(good), "deg_path": str(malformed_wav)},
        )))
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        pairs = json.loads(report_path.read_text())["pairs"]
        assert "error" not in pairs[0]
        assert pairs[1]["error"] == f"{MALFORMED_WAVS[name][1]}: {malformed_wav}"


@pytest.mark.parametrize("package", ["scipy", "concurrent.futures", "logging"])
def test_runtime_imports_no_scipy(package):
    # scipy is a test-side oracle only, and iter_if_frames imports concurrent.futures,
    # which loads logging, only when it runs; every CLI call pays for what mmvib imports
    code = (
        "import sys, mmvib, mmvib.cli; "
        f"print([m for m in sys.modules if (m + '.').startswith({package!r} + '.')])"
    )
    assert run_fresh(code) == "[]"


def test_exit_path_runner_imports_no_test_dependency():
    # CI's numpy-only job runs tests/exit_paths.py, so a test-side import there fails here first
    code = (
        "import sys, exit_paths; "
        "print([m for m in sys.modules if m.split('.')[0] in "
        "('scipy', 'hypothesis', 'pytest', '_pytest')])"
    )
    assert run_fresh(code) == "[]"


class TestSweep:
    def test_chirps_per_frame_doubles_resolution(self, tmp_path):
        wav = make_tone_wav(tmp_path / "tone.wav", duration=1.0)
        report_path = tmp_path / "sweep.json"
        assert main(["sweep", "--param", "chirps_per_frame", "--values", "256,512",
                     "--audio", str(wav), "--report", str(report_path)]) == 0
        with open(report_path.with_suffix(".csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        res = {int(r["value"]): float(r["range_resolution_m"]) for r in rows}
        assert res[512] == pytest.approx(2.0 * res[256], rel=1e-12)
        rates = {int(r["value"]): float(r["sampling_rate_hz"]) for r in rows}
        assert rates[512] == pytest.approx(2.0 * rates[256], rel=1e-12)

    def test_noise_floor_monotone_fwsegsnr(self, tmp_path):
        wav = make_tone_wav(tmp_path / "tone.wav", duration=1.0)
        report_path = tmp_path / "sweep.json"
        # negative values need the = form so argparse does not read them as flags
        assert main(["sweep", "--param", "noise_floor_db", "--values=-60,-20",
                     "--audio", str(wav), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        by_value = {float(r["value"]): r["fwsegsnr"] for r in report["rows"]}
        assert by_value[-60.0] > by_value[-20.0]

    def test_alpha_axis_runs(self, tmp_path):
        wav = tmp_path / "sp.wav"
        write_wav(wav, make_speech_clip(4, duration=1.0))
        report_path = tmp_path / "sweep.json"
        assert main(["sweep", "--param", "alpha", "--values", "0.1,1.0",
                     "--audio", str(wav), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert len(report["rows"]) == 2
        assert report["rows"][0]["mel_loss"] < report["rows"][1]["mel_loss"]

    # each radar axis, at the default and at one other value
    @pytest.mark.parametrize("parameter, values", [
        ("chirps_per_frame", "256,512"),
        ("range_m", "1.5,2.5"),
        ("noise_floor_db", "-60,-30"),
        ("material", "pet,tinfoil"),
    ])
    def test_radar_rows_equal_the_in_memory_capture(self, parameter, values, tmp_path):
        wav = tmp_path / "speech.wav"
        write_wav(wav, make_speech_clip(14, duration=1.0))
        report_path = tmp_path / "sweep.json"
        assert main(["sweep", "--param", parameter, f"--values={values}", "--audio", str(wav),
                     "--report", str(report_path)]) == 0
        rows = json.loads(report_path.read_text())["rows"]
        audio = read_wav(wav)
        config = PipelineConfig()
        for index, (row, value) in enumerate(zip(rows, values.split(","), strict=True)):
            variant = _sweep_variant(config, parameter, value)
            trace = extract_vibration(in_memory_capture(variant, audio, (variant.seed, index)))
            rate = variant.chirp.effective_sampling_rate
            reference = low_pass(zscore_normalize(resample(audio, rate)), REFERENCE_BAND_HZ)
            n = min(len(trace), len(reference))
            report = score_pair(
                zscore_normalize(AudioBuffer(reference.samples[:n], rate)),
                zscore_normalize(AudioBuffer(trace.displacement[:n], rate)),
            )
            expected = report.to_dict()
            assert {k: row[k] for k in REQUIRED_METRICS} == {k: expected[k] for k in REQUIRED_METRICS}

    # a chirps_per_frame 256,512 sweep's rows when filterbanks were dense
    # matrix products; TestOutputBytes pins the bytes of such a sweep
    DENSE_SWEEP_ROWS = [
        {
            "parameter": "chirps_per_frame",
            "value": "256",
            "range_resolution_m": 0.03747405725,
            "sampling_rate_hz": 8000.0,
            "fwsegsnr": 31.07814781784813,
            "stoi": 0.993812214550558,
            "mcd": 4.0416619820087885,
            "mel_loss": 0.5020734390785585,
            "mag_l1": 0.052866446441182206,
        },
        {
            "parameter": "chirps_per_frame",
            "value": "512",
            "range_resolution_m": 0.0749481145,
            "sampling_rate_hz": 16000.0,
            "fwsegsnr": 30.749017151564544,
            "stoi": 0.9994052482630357,
            "mcd": 229.8227049367045,
            "mel_loss": 11.434885132375657,
            "mag_l1": 0.043168704262931686,
        },
    ]

    def test_chirps_per_frame_sweep_rows_match_the_dense_filterbank(self, tmp_path):
        wav = tmp_path / "speech.wav"
        write_wav(wav, make_speech_clip(5, duration=1.0, rate=8000.0))
        assert main(["sweep", "--param", "chirps_per_frame", "--values", "256,512",
                     "--audio", str(wav), "--report", str(tmp_path / "sweep.json")]) == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert [row.keys() for row in rows] == [row.keys() for row in self.DENSE_SWEEP_ROWS]
        for row, dense in zip(rows, self.DENSE_SWEEP_ROWS):
            for key, value in dense.items():
                if key in REQUIRED_METRICS:
                    assert row[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
                else:
                    assert row[key] == value, key

    def test_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # nothing is opened for writing but the report and its CSV, and
        # nothing is made in the temporary directory, also when a value fails
        temp_root = tmp_path / "temp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        monkeypatch.chdir(temp_root)
        written = []
        real_write = mmvib.cli.write_capture_frames

        def recording_write(path, config, frames):
            written.append(Path(path))
            return real_write(path, config, frames)

        opened = []
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                opened.append(Path(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(mmvib.cli, "write_capture_frames", recording_write)
        wav = make_tone_wav(tmp_path / "tone.wav", duration=0.5)
        report = tmp_path / "sweep.json"
        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        assert main(["sweep", "--param", "range_m", "--values", "1.0,1.5",
                     "--audio", str(wav), "--report", str(report)]) == 0
        # each is opened once before either is written, so that a failure removes both
        assert opened == [report, report.with_suffix(".csv")] * 2
        assert written == []
        assert list(temp_root.iterdir()) == []
        # noise past complex64 fails in the bin search, after the capture is made
        opened.clear()
        assert main(["sweep", "--param", "noise_floor_db", "--values=-60,765",
                     "--audio", str(wav), "--report", str(tmp_path / "failed.json")]) == 1
        assert opened == []
        assert written == []
        assert list(temp_root.iterdir()) == []
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "sweep.csv", "sweep.json", "temp", "tone.wav"]
        # named by its source
        assert capsys.readouterr().err == ("sweep failed: noise_floor_db=765: capture samples are "
                                           f"not finite or too large: the capture of {wav}\n")

    def test_peak_memory_a_fraction_of_the_capture(self, tmp_path):
        # one 1024-chirp value in a fresh interpreter; the capture is not kept
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status for VmHWM")
        wav = tmp_path / "speech.wav"
        clip = make_speech_clip(13, duration=5.0)
        write_wav(wav, clip)
        grown = int(run_fresh(_PEAK_RSS_GROWTH, json.dumps([
            ["sweep", "--param", "chirps_per_frame", "--values", "1024", "--audio", str(wav),
             "--report", str(tmp_path / "sweep.json")],
        ])))
        # 1024 chirps of 256 complex64 samples per 32 ms frame, at 4x the 8 kHz clip rate
        capture_bytes = (len(clip) * 4 // 1024) * 1024 * 256 * 8
        assert capture_bytes > 300 * 2**20
        assert grown < capture_bytes / 4


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count both os calls report to this process."""
    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    return set_cpus


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every thread pool started while the test runs."""
    import concurrent.futures

    sizes = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    return sizes


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRowPool:
    @pytest.fixture(scope="class")
    def clips(self, tmp_path_factory):
        """Four 1 s clean clips, one at 16 kHz, and a truncated WAV."""
        root = tmp_path_factory.mktemp("row_pool")
        paths = []
        for i in range(4):
            path = root / f"clip{i}.wav"
            write_wav(path, make_speech_clip(20 + i, duration=1.0,
                                             rate=16000.0 if i == 2 else 8000.0))
            paths.append(str(path))
        broken = root / "broken.wav"
        broken.write_bytes(Path(paths[0]).read_bytes()[:30])
        return root, paths, str(broken)

    def _pairs(self, tmp_path, clips) -> Path:
        """A pair manifest whose rows 0, 2 and 4 fail, each in its own way."""
        root, paths, broken = clips
        rows = [
            ["not", "an", "object"],
            {"ref_path": paths[0], "deg_path": paths[1], "ref_text": "a b c", "hyp_text": "a x c"},
            {"ref_path": paths[0], "deg_path": broken},
            {"ref_path": paths[2], "deg_path": paths[3]},
            {"ref_path": paths[1], "deg_path": paths[0], "ref_text": 5, "hyp_text": "a"},
            {"ref_path": paths[3], "deg_path": paths[1]},
        ]
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return manifest

    def test_score_report_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, clips, cpus):
        manifest = self._pairs(tmp_path, clips)
        reports = {}
        for n in (16, 1):
            cpus(n)
            reports[n] = tmp_path / f"report{n}.json"
            assert _run_score(manifest, reports[n]) == (0, "")
        assert reports[16].read_bytes() == reports[1].read_bytes()

    def test_score_error_rows_keep_their_positions(self, tmp_path, clips, cpus):
        _, paths, broken = clips
        cpus(16)
        report = tmp_path / "report.json"
        assert _run_score(self._pairs(tmp_path, clips), report) == (0, "")
        pairs = json.loads(report.read_text())["pairs"]
        assert [("error" in p) for p in pairs] == [True, False, True, False, True, False]
        assert pairs[0]["error"].startswith("manifest row is not a JSON object")
        assert broken in pairs[2]["error"]
        assert pairs[4]["error"].startswith("ref_text must be a string or a list of words")
        assert [(p.get("ref_path"), p.get("deg_path")) for p in pairs[1::2]] == [
            (paths[0], paths[1]), (paths[2], paths[3]), (paths[3], paths[1])]
        assert pairs[1]["wer"] == pytest.approx(1.0 / 3.0)

    def test_score_all_failed_still_writes_the_report(self, tmp_path, clips, cpus):
        _, paths, broken = clips
        cpus(16)
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in (
            {"ref_path": broken, "deg_path": paths[0]}, [1], {"ref_path": paths[0]})))
        report = tmp_path / "report.json"
        code, err = _run_score(manifest, report)
        pairs = json.loads(report.read_text())["pairs"]
        assert len(pairs) == 3 and all("error" in p for p in pairs)
        # the line names the first pair's paths and gives its error
        assert (code, err) == (1, f"score failed: all pairs failed, first: ref {broken!r}, "
                                  f"deg {paths[0]!r}: {pairs[0]['error']}\n")
        assert broken in pairs[0]["error"]

    def test_synth_tree_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, clips, cpus):
        _, paths, broken = clips
        manifest = tmp_path / "clips.txt"
        manifest.write_text("\n".join([paths[0], broken, *paths[1:]]) + "\n")
        out_dir = tmp_path / "ds"
        trees = {}
        for n in (16, 1):
            cpus(n)
            assert run_main(["synth", "--manifest", str(manifest), "--out-dir", str(out_dir),
                              "--seed", "7", "--jitter"]) == (0, "")
            trees[n] = _tree(out_dir)
            shutil.rmtree(out_dir)
        assert trees[16] == trees[1]
        rows = [json.loads(line) for line in trees[16]["manifest.jsonl"].decode().splitlines()]
        assert [("error" in row) for row in rows] == [False, True, False, False, False]
        assert rows[1]["clean_path"] == broken
        assert [Path(row["degraded_path"]).name for row in rows if "error" not in row] == [
            "00000_clip0.wav", "00002_clip1.wav", "00003_clip2.wav", "00004_clip3.wav"]

    def test_three_rows_start_at_most_three_workers(self, tmp_path, clips, cpus, pool_sizes):
        _, paths, _ = clips
        cpus(16)
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("".join(json.dumps({"ref_path": p, "deg_path": p}) + "\n"
                                 for p in paths[:3]))
        assert _run_score(pairs, tmp_path / "report.json") == (0, "")
        manifest = tmp_path / "clips.txt"
        manifest.write_text("\n".join(paths[:3]) + "\n")
        assert run_main(["synth", "--manifest", str(manifest),
                          "--out-dir", str(tmp_path / "ds")]) == (0, "")
        cpus(1)
        assert _run_score(pairs, tmp_path / "report1.json") == (0, "")
        assert pool_sizes == [3, 3, 1]

    @pytest.fixture
    def entered(self, monkeypatch):
        """The values sweep enters _sweep_point with, in the order it does; each row names its
        value alone."""
        values = []

        def point(config, parameter, value, audio, index, source):
            values.append(value)
            return {"parameter": parameter, "value": value}

        monkeypatch.setattr(mmvib.cli, "_sweep_point", point)
        return values

    @pytest.mark.parametrize("parameter, values, order", [
        ("chirps_per_frame", "256,512,1024", "1024,512,256"),
        # a value whose variant fails counts as no capture; equal sizes keep their order
        ("chirps_per_frame", "0,512,512.9,1024", "1024,512,512.9,0"),
        ("range_m", "1.5,-1,2.5", "1.5,-1,2.5"),
        ("alpha", "0.5,0.1", "0.5,0.1"),
    ])
    def test_sweep_starts_the_largest_capture_first(self, tmp_path, cpus, entered, parameter,
                                                     values, order):
        cpus(1)
        wav = make_tone_wav(tmp_path / "tone.wav", duration=0.5)
        report = tmp_path / "sweep.json"
        assert run_main(["sweep", "--param", parameter, f"--values={values}", "--audio", str(wav),
                         "--report", str(report)]) == (0, "")
        assert entered == order.split(",")
        # the report keeps the value order
        rows = json.loads(report.read_text())["rows"]
        assert [row["value"] for row in rows] == values.split(",")
        with open(report.with_suffix(".csv")) as fh:
            assert [row["value"] for row in csv.DictReader(fh)] == values.split(",")

    def test_three_sweep_values_start_one_pool_of_at_most_three_workers(
            self, tmp_path, cpus, entered, pool_sizes):
        wav = make_tone_wav(tmp_path / "tone.wav", duration=0.5)
        for n in (16, 2):
            cpus(n)
            assert run_main(["sweep", "--param", "chirps_per_frame", "--values", "256,512,1024",
                             "--audio", str(wav), "--report", str(tmp_path / "s.json")]) == (0, "")
        assert pool_sizes == [3, 2]


@pytest.fixture(scope="module")
def identity_run(tmp_path_factory):
    """One run of identity.COMMANDS: the SHA-256 of each file it writes, by name, after the run
    and input directories' names are replaced."""
    root = tmp_path_factory.mktemp("identity")
    inputs, run = root / "inputs", root / "run"
    inputs.mkdir()
    write_inputs(inputs)
    assert run_commands(ROOT, inputs, run) == []
    return {p.relative_to(run).as_posix(): hashlib.sha256(_contents(p, run, inputs)).hexdigest()
            for p in run.rglob("*") if p.is_file()}


def _command_files(names, select) -> list[str]:
    """Of a run's file names, the logs of the COMMANDS entries select picks and the files under
    the run-directory paths those entries name (a report's CSV, a capture's sidecars)."""
    picked = set()
    for index, command in enumerate(COMMANDS):
        argv = command.split()
        if not select(argv):
            continue
        picked.add(f"{index:02d}_{argv[0]}.log")
        for path in (arg.removeprefix("{o}/") for arg in argv if arg.startswith("{o}/")):
            stem = path.split(".")[0]
            picked.update(n for n in names
                          if n == path or n.startswith((stem + ".", path + "/")))
    return sorted(picked)


class TestOutputBytes:
    """Every file one run of identity.COMMANDS writes, each command's exit status, stdout and
    stderr log included, pinned by one SHA-256 over a sha256sum-style listing.

    The digests were recorded with numpy 2.4.6; another numpy may draw noise
    or round sums differently. A mismatch prints the listing, and
    `python tests/identity.py REV` names the files that differ from a revision's.
    """

    DIGEST = "b7b0f22510f2e1817aa28aa637a2da53bb6ee567ed1427325c4c69d19ef7a566"
    # the entries that sweep one axis, at 8 kHz and at any other rate the list sweeps it
    SWEEP_DIGESTS = {
        "beta": "2a4e95b4f0e00485386d04dc02066158d230ceee9ef42bdb5e0fc4280d5f777f",
        "chirps_per_frame": "9fb3e16e1ce7118756fe55de3274f01f3a5e9f993a98cedbd8823a9bbc70d0bf",
        "material": "cc26575cf4f9a10bb88f3f71808d95140b6956ccc0726f97e739ff5d5ec80d10",
        "noise_floor_db": "7ed5edf78364ab33a7c2e20897d65e0897e6c97bc74d004a1a68d913a921d4f1",
        "range_m": "d105ea8723bf6ff93551eda27fbd6d12c370cbbaf3442904087f23cb8bacd7bb",
    }
    # every synth entry, each over the 8, 16 and 44.1 kHz clips, and score on what they wrote
    SYNTH_SCORE_DIGEST = "82938b8c27128897cb23afd5167f5cad91b43a1da57ea4e0105ce3c23aeb0a2e"

    @staticmethod
    def _assert_pinned(digests, names, expected):
        assert names
        listing = "".join(f"{digests[name]}  {name}\n" for name in names)
        assert hashlib.sha256(listing.encode()).hexdigest() == expected, listing

    def test_every_command_output_is_pinned(self, identity_run):
        self._assert_pinned(identity_run, sorted(identity_run), self.DIGEST)

    @pytest.mark.parametrize("parameter", sorted(SWEEP_DIGESTS))
    def test_every_sweep_axis_output_is_pinned(self, parameter, identity_run):
        names = _command_files(identity_run,
                               lambda argv: argv[:3] == ["sweep", "--param", parameter])
        self._assert_pinned(identity_run, names, self.SWEEP_DIGESTS[parameter])

    def test_a_44k_clip_through_synth_and_score_is_pinned(self, identity_run):
        names = _command_files(identity_run, lambda argv: argv[0] in ("synth", "score"))
        self._assert_pinned(identity_run, names, self.SYNTH_SCORE_DIGEST)


class TestMainDispatch:
    def test_no_args_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["teleport"])


# An INI value: any number, spelling or short text.
_INI_VALUE = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["", "x", "1e400", "-1e400", "5%", "0x10", "nan", "-inf", "pet", "steel"]),
    st.text(max_size=8),
)
# The keys that size the [frames, chirps, adc] capture stay small: the frame
# cap still lets one frame take 8 MiB, and a short frame_period makes many
# frames.
_INI_SIZING = {
    "chirps_per_frame": st.integers(-1, 256).map(str),
    "adc_samples_per_chirp": st.integers(-1, 256).map(str),
    "frame_period": st.floats(0.016, 0.128).map(repr)
    | st.sampled_from(["0", "-1", "1e300", "inf", "nan", "x"]),
}


def _ini_values(section: str, key: str):
    """Values for one INI key: mostly within 4x of its default, else anything."""
    if key in _INI_SIZING:
        return _INI_SIZING[key]
    owner = {"chirp": ChirpConfig(), "material": MATERIAL_PRESETS["pet"]}.get(
        section, PipelineConfig())
    default = getattr(owner, {"sample_rate": "synth_sample_rate"}.get(key, key), None)
    if not isinstance(default, (int, float)):
        return _INI_VALUE
    near = st.floats(0.25, 4.0).map(lambda factor: repr(default * factor))
    return st.one_of(near, near, _INI_VALUE)


_INI_KEYS = [(section, key) for section, keys in _SECTIONS.items() for key in keys]
_INI_ENTRIES = st.lists(
    st.sampled_from(_INI_KEYS + [("bogus", "seed"), ("DEFAULT", "seed"), ("run", "bogus")])
    .flatmap(lambda pair: st.tuples(*map(st.just, pair), _ini_values(*pair))),
    max_size=5,
    unique_by=lambda entry: entry[:2],
)
_INI_TAIL = st.just(b"") | st.sampled_from([b"\xff", b"[", b"key\n", b"\x00"])
# Lines of a synth manifest: WAV paths good, missing and malformed, JSON rows
# with any clean_path or none, blank lines, short text and bytes not UTF-8.
_MANIFEST_LINE = st.one_of(
    st.just("{d}/tone.wav"),
    st.sampled_from(["{d}/nope.wav", "{d}/bad.wav", "", "  "]),
    st.sampled_from(["{d}/tone.wav", "{d}/bad.wav"]).map(lambda p: json.dumps({"clean_path": p})),
    _JSON_VALUES.map(lambda v: json.dumps({"clean_path": v})),
    _JSON_VALUES.map(lambda v: json.dumps({"path": v})),
    st.text(max_size=10).filter(lambda t: "\n" not in t and "\r" not in t),
    st.just("\udcff"),
)
# Output rates no float WAV header holds, which synth refuses before reading
# any entry, and one it accepts at which a 0.1 s clip is too short to
# normalize, so every entry fails.
_REFUSED_RATES = ("0", "-1", "1e-300", "1e-3", "inf", "nan", "1e20")
_UNREACHABLE_RATE = "1"
# synth's rates and gains, mostly valid.
_SYNTH_RATE = st.one_of(
    st.sampled_from(["8000", "11025", "16000", "44100", "7999.5"]),
    st.sampled_from(_REFUSED_RATES),
    st.just(_UNREACHABLE_RATE),
)
_BAD_GAINS = ("-1", "inf", "nan")
_VALID_GAIN = st.sampled_from(["0", "0.3", "1"])
_SYNTH_GAIN = st.one_of(_VALID_GAIN, _VALID_GAIN, _VALID_GAIN,
                        st.sampled_from(["1e300", *_BAD_GAINS]))


def _first_entry(lines: list[str]) -> str:
    """The input that the first non-blank manifest line names, as synth reads it."""
    line = next(line.strip() for line in lines if line.strip())
    return str(json.loads(line)["clean_path"]) if line.startswith("{") else line


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with a 0.1 s tone and a WAV that is not RIFF."""
    d = tmp_path_factory.mktemp("fuzz")
    make_tone_wav(d / "tone.wav", duration=0.1)
    (d / "bad.wav").write_bytes(b"OggS" + bytes(40))
    return d


def _assert_clean_exit(code: int, err: str) -> None:
    """An exit status of main's, with stderr empty on success and one line otherwise."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n")


class TestExitStatus:
    @pytest.mark.parametrize("case", sorted(EXIT_PATHS))
    def test_exit_paths(self, case, exit_inputs, tmp_path):
        _, _, status, message = EXIT_PATHS[case]
        # a failure's stderr is one line, a success's empty
        assert "\n" not in message and bool(message) == bool(status)
        assert exit_paths.check_case(case, EXIT_PATHS[case], exit_inputs, tmp_path) is None

    def test_runner_names_each_case_that_differs(self, capsys):
        argv, env_seed, status, message = EXIT_PATHS["sweep_empty_values"]
        table = {
            "as_listed": EXIT_PATHS["synth_no_entries"],
            "wrong_message": (argv, env_seed, status, "sweep failed: not this message"),
            "wrong_status": (argv, env_seed, 1, message),
            # the report all-failed pairs leave, under a name LEFT_BEHIND does not hold
            "report_not_named": EXIT_PATHS["score_all_pairs_fail"],
        }
        assert exit_paths.main(table) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "wrong_message: expected (2, 'sweep failed: not this message\\n'), "
            "got (2, 'sweep failed: empty value list\\n')",
            "wrong_status: expected (1, 'sweep failed: empty value list\\n'), "
            "got (2, 'sweep failed: empty value list\\n')",
            "report_not_named: expected [] left behind, got ['r.json']",
            "4 exit paths run, 3 differ",
        ]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(entries=_INI_ENTRIES, tail=_INI_TAIL)
    # artifact magnitudes that read as inf and nan
    @example(entries=[("artifacts", "beginning_sigma", "1e400")], tail=b"")
    @example(entries=[("artifacts", "periodic_sigma", "nan")], tail=b"")
    # a response denominator past the float64 range
    @example(entries=[("material", "mass", "1e300")], tail=b"")
    def test_config_fuzz(self, fuzz_dir, entries, tail, monkeypatch):
        monkeypatch.delenv("MMVIB_SEED", raising=False)
        sections: dict[str, list[str]] = {}
        for section, key, value in entries:
            sections.setdefault(section, []).append(f"{key} = {value}\n")
        text = "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())
        config = fuzz_dir / "fuzz.ini"
        config.write_bytes(text.encode("utf-8", "surrogatepass") + tail)
        code, err = run_main(["simulate", "--config", str(config), "--audio",
                               str(fuzz_dir / "tone.wav"), "--out", str(fuzz_dir / "c.bin")])
        _assert_clean_exit(code, err)
        if code == 2:
            assert err.startswith("simulate failed: config")

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_MANIFEST_LINE, min_size=1, max_size=4), rate=_SYNTH_RATE,
           alpha=_SYNTH_GAIN, beta=_SYNTH_GAIN, seed=st.integers(-2, 2**70), jitter=st.booleans())
    def test_synth_manifest_fuzz(self, fuzz_dir, lines, rate, alpha, beta, seed, jitter,
                                 monkeypatch):
        monkeypatch.delenv("MMVIB_SEED", raising=False)
        manifest = fuzz_dir / "fuzz.txt"
        lines = [line.replace("{d}", str(fuzz_dir)) for line in lines]
        text = "".join(line + "\n" for line in lines)
        manifest.write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = ["synth", "--manifest", str(manifest), "--out-dir", str(fuzz_dir / "ds"),
                f"--sample-rate={rate}", f"--alpha={alpha}", f"--beta={beta}", f"--seed={seed}"]
        code, err = run_main(argv + ["--jitter"] * jitter)
        _assert_clean_exit(code, err)
        assert (code == 2) == (seed < 0 or rate in _REFUSED_RATES)
        if seed >= 0 and rate in _REFUSED_RATES:
            assert err.startswith(f"synth failed: --sample-rate {float(rate)} Hz ")
        if rate == _UNREACHABLE_RATE and seed >= 0 and {alpha, beta}.isdisjoint(_BAD_GAINS):
            # every entry fails, and the line names the manifest or the first entry
            assert code == 1
            assert str(manifest) in err or err.startswith(
                "synth failed: all manifest entries failed, first: "
                f"{_first_entry(lines)!r}: ")
