"""Command-line surface: config parsing and the five subcommands."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import mmvib.vib_extract
from mmvib import (
    AudioBuffer,
    extract_vibration,
    load_capture,
    locate_target,
    read_wav,
    save_capture,
    write_wav,
)
from mmvib.cli import (
    MATERIAL_PRESETS,
    SWEEP_PARAMETERS,
    PipelineConfig,
    _simulate_capture,
    _sweep_variant,
    cmd_simulate,
    load_config,
    main,
)
from oracles import riff_chunk, riff_wav, wav_fmt
from speechgen import make_speech_clip


def make_tone_wav(path, freq=500.0, duration=2.0, rate=8000.0, amplitude=0.4):
    t = np.arange(int(duration * rate)) / rate
    from mmvib import AudioBuffer

    write_wav(path, AudioBuffer(amplitude * np.sin(2 * np.pi * freq * t), rate))
    return path


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

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[sandwich]\nfilling = cheese\n")
        with pytest.raises(ValueError, match="section \\[sandwich\\] is not recognized"):
            load_config(p)

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[scene]\nrange_km = 2\n")
        with pytest.raises(ValueError, match="range_km is not recognized"):
            load_config(p)

    def test_bad_value_has_field_context(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[scene]\nrange_m = close\n")
        message = "config field [scene] range_m: could not convert string to float: 'close'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(p)

    # INI inputs the parser or the int cast rejects; each message names the
    # file or the key at fault.
    @pytest.mark.parametrize("text, named", [
        ("[chirp]\nchirps_per_frame = 1e400\n", "[chirp] chirps_per_frame"),
        ("[chirp]\nchirps_per_frame = 3\nchirps_per_frame = 4\n", "'chirps_per_frame'"),
        ("chirps_per_frame = 3\n", "cfg.ini"),
        ("[scene]\n[scene]\n", "cfg.ini"),
        ("[scene]\nrange_m\n", "cfg.ini"),
        ("[scene]\nrange_m = 5%\n", "[scene] range_m"),
    ], ids=["overflow", "duplicate_key", "no_header", "duplicate_section", "no_value", "percent"])
    def test_malformed_file_exits_2_with_one_line(self, text, named, tmp_path, capsys):
        p = tmp_path / "cfg.ini"
        p.write_text(text)
        assert main(["simulate", "--config", str(p), "--audio", "in.wav", "--out", "c.bin"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        assert named in err

    # An INI [DEFAULT] section is a section like any other, with or without
    # others beside it.
    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 3\n",
        "[DEFAULT]\nseed = 3\n[chirp]\nchirps_per_frame = 256\n",
    ], ids=["alone", "with_chirp"])
    def test_default_section_exits_2_with_one_line(self, text, tmp_path, capsys):
        p = tmp_path / "cfg.ini"
        p.write_text(text)
        with pytest.raises(ValueError, match="^config section \\[DEFAULT\\] is not recognized$"):
            load_config(p)
        assert main(["simulate", "--config", str(p), "--audio", "in.wav", "--out", "c.bin"]) == 2
        err = capsys.readouterr().err
        assert err == "simulate failed: config section [DEFAULT] is not recognized\n"

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

    def test_env_seed_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("MMVIB_SEED", "pi")
        with pytest.raises(ValueError, match="MMVIB_SEED must be an integer"):
            load_config(None)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--audio", "in.wav", "--out", "cap.bin"],
        ["synth", "--manifest", "in.txt", "--out-dir", "ds", "--seed", "3"],
    ])
    def test_bad_env_seed_exits_2(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("MMVIB_SEED", "pi")
        assert main(argv) == 2
        assert "MMVIB_SEED must be an integer, got 'pi'" in capsys.readouterr().err

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

    def test_degenerate_audio_fails(self, tmp_path):
        from mmvib import AudioBuffer

        empty = tmp_path / "empty.wav"
        write_wav(empty, AudioBuffer(np.zeros(0), 8000.0))
        assert main(["simulate", "--audio", str(empty), "--out", str(tmp_path / "e.bin")]) != 0
        # a wav with too little audio to fill one frame also errors at the CLI
        short = make_tone_wav(tmp_path / "short.wav", duration=0.001)
        assert main(["simulate", "--audio", str(short), "--out", str(tmp_path / "c.bin")]) != 0

    def test_byte_identical_rerun(self, tmp_path):
        wav = make_tone_wav(tmp_path / "tone.wav", duration=1.0)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["simulate", "--audio", str(wav), "--out", str(a)]) == 0
        assert main(["simulate", "--audio", str(wav), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_audio_fails(self, tmp_path):
        assert main(["simulate", "--audio", str(tmp_path / "nope.wav"),
                     "--out", str(tmp_path / "c.bin")]) != 0

    @pytest.mark.parametrize("chirps_per_frame", [256, 512])
    @pytest.mark.parametrize("sigmas", [(10.0, 6.0), (0.0, 0.0)])
    def test_streamed_capture_equals_the_in_memory_one(self, tmp_path, chirps_per_frame, sigmas):
        wav = tmp_path / "speech.wav"
        write_wav(wav, make_speech_clip(11, duration=0.5))
        config = replace(
            _sweep_variant(PipelineConfig(seed=4), "chirps_per_frame", chirps_per_frame),
            beginning_sigma=sigmas[0],
            periodic_sigma=sigmas[1],
        )
        streamed, in_memory = tmp_path / "streamed.bin", tmp_path / "in_memory.bin"
        assert cmd_simulate(config, wav, streamed) == 0
        capture = _simulate_capture(config, read_wav(wav), config.seed)
        assert capture.config.chirps_per_frame == chirps_per_frame
        assert len(capture.artifact_log) == (capture.n_frames + 1 if sigmas[0] else 0)
        save_capture(capture, in_memory, seed=config.seed)
        assert streamed.read_bytes() == in_memory.read_bytes()
        sidecar = Path(f"{streamed}.artifacts.json").read_text()
        assert sidecar == Path(f"{in_memory}.artifacts.json").read_text()

    def test_peak_memory_a_fraction_of_the_capture(self, tmp_path):
        # simulate and extract in a fresh interpreter, whose own peak RSS is
        # VmHWM; ru_maxrss would carry this process's peak across exec
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status for VmHWM")
        wav = tmp_path / "speech.wav"
        write_wav(wav, make_speech_clip(12, duration=10.0))
        code = (
            "import sys\n"
            "from mmvib.cli import main\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) * 1024 for l in fh if l.startswith('VmHWM:'))\n"
            "base = hwm()\n"
            "assert main(['simulate', '--audio', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "assert main(['extract', '--capture', sys.argv[2], '--out', sys.argv[3]]) == 0\n"
            "print(hwm() - base)\n"
        )
        capture = tmp_path / "cap.bin"
        src = Path(mmvib.vib_extract.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", code, str(wav), str(capture), str(tmp_path / "rec.wav")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        grown = int(result.stdout.strip().splitlines()[-1])
        capture_bytes = capture.stat().st_size
        assert capture_bytes > 150 * 2**20
        assert grown < capture_bytes / 4


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

    def test_corrupt_header_fails(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTACAP!" + b"\x00" * 64)
        assert main(["extract", "--capture", str(bad), "--out", str(tmp_path / "x.wav")]) != 0

    @pytest.mark.parametrize("text", ['{"artifact_log": [{}]}', "[1, 2]"])
    def test_malformed_sidecar_is_ignored(self, capture_path, tmp_path, text):
        # extract never reads the artifact log; load_capture still rejects it
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

    def test_locate_target_runs_once_per_command(self, tmp_path, monkeypatch):
        located = []
        profiled = []
        originals = {
            "locate_target": (mmvib.vib_extract.locate_target, located),
            "range_fft": (mmvib.vib_extract.range_fft, profiled),
        }

        def counting(original, calls):
            def counted(capture):
                calls.append(capture.n_frames)
                return original(capture)

            return counted

        # rebind every module-level reference, so a second import of one is counted too
        for name, module in list(sys.modules.items()):
            if not name.startswith("mmvib"):
                continue
            for attr, (original, calls) in originals.items():
                if vars(module).get(attr) is original:
                    monkeypatch.setattr(module, attr, counting(original, calls))
        wav = make_tone_wav(tmp_path / "tone.wav", duration=0.5)
        cap = tmp_path / "cap.bin"
        assert main(["simulate", "--audio", str(wav), "--out", str(cap)]) == 0
        assert len(located) == 1
        assert main(["extract", "--capture", str(cap), "--out", str(tmp_path / "x.wav")]) == 0
        assert len(located) == 2
        # the full range profile stays off the pipeline
        assert profiled == []


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

    def test_json_row_without_clean_path(self, tmp_path, capsys):
        wav = tmp_path / "c.wav"
        write_wav(wav, make_speech_clip(0, duration=0.5))
        manifest = tmp_path / "in.jsonl"
        manifest.write_text(json.dumps({"clean_path": str(wav)}) + "\n"
                            + json.dumps({"path": str(wav)}) + "\n")
        assert main(["synth", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "ds")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{manifest} line 2" in err


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

    def test_malformed_rows_are_pair_errors(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, make_speech_clip(3, duration=1.0))
        manifest = tmp_path / "pairs.jsonl"
        rows = [[1], {"ref_path": 5, "deg_path": str(wav)},
                {"ref_path": str(wav), "deg_path": str(wav)}]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        pairs = json.loads(report_path.read_text())["pairs"]
        assert "not a JSON object" in pairs[0]["error"]
        assert "error" in pairs[1]
        assert "error" not in pairs[2]

    def test_all_fail_nonzero(self, tmp_path):
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text(json.dumps({
            "ref_path": str(tmp_path / "a.wav"), "deg_path": str(tmp_path / "b.wav")}) + "\n")
        assert main(["score", "--manifest", str(manifest),
                     "--report", str(tmp_path / "r.json")]) != 0


_SILENT_DATA = riff_chunk(b"data", b"\0" * 64)
# case -> malformed file bytes, given the bytes of a good float32 file
_MALFORMED_WAVS = {
    "truncated_header": lambda good: good[:30],
    "truncated_data": lambda good: good[:-3],
    "not_riff": lambda good: b"OggS" + good[4:],
    "no_fmt_chunk": lambda good: riff_wav(_SILENT_DATA),
    "no_data_chunk": lambda good: riff_wav(riff_chunk(b"fmt ", wav_fmt(1, 16))),
    "adpcm_tag": lambda good: riff_wav(riff_chunk(b"fmt ", wav_fmt(2, 16)), _SILENT_DATA),
    "pcm_12_bit": lambda good: riff_wav(riff_chunk(b"fmt ", wav_fmt(1, 12)), _SILENT_DATA),
    "float_16_bit": lambda good: riff_wav(riff_chunk(b"fmt ", wav_fmt(3, 16)), _SILENT_DATA),
}


@pytest.fixture(params=sorted(_MALFORMED_WAVS))
def malformed_wav(request, tmp_path):
    good = make_tone_wav(tmp_path / "good.wav", duration=0.5).read_bytes()
    path = tmp_path / f"{request.param}.wav"
    path.write_bytes(_MALFORMED_WAVS[request.param](good))
    return path


class TestMalformedWav:
    def test_simulate_one_line_naming_the_file(self, malformed_wav, tmp_path, capsys):
        assert main(["simulate", "--audio", str(malformed_wav),
                     "--out", str(tmp_path / "cap.bin")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(malformed_wav) in err
        assert "Traceback" not in err

    def test_score_row_gets_an_error(self, malformed_wav, tmp_path):
        good = make_tone_wav(tmp_path / "ref.wav", duration=1.0)
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in (
            {"ref_path": str(good), "deg_path": str(good)},
            {"ref_path": str(good), "deg_path": str(malformed_wav)},
        )))
        report_path = tmp_path / "report.json"
        assert main(["score", "--manifest", str(manifest), "--report", str(report_path)]) == 0
        pairs = json.loads(report_path.read_text())["pairs"]
        assert "error" not in pairs[0]
        assert str(malformed_wav) in pairs[1]["error"]

    def test_synth_exits_1_naming_the_file(self, malformed_wav, tmp_path, capsys):
        manifest = tmp_path / "in.txt"
        manifest.write_text(f"{malformed_wav}\n")
        assert main(["synth", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "ds")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(malformed_wav) in err


def test_runtime_imports_no_scipy():
    # scipy is a test-side oracle only; every CLI call pays for what mmvib imports
    src = Path(mmvib.vib_extract.__file__).resolve().parents[1]
    code = "import sys, mmvib, mmvib.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


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

    def test_unknown_parameter_lists_names(self, tmp_path, capsys):
        wav = make_tone_wav(tmp_path / "tone.wav", duration=0.5)
        code = main(["sweep", "--param", "wavelength", "--values", "1,2",
                     "--audio", str(wav), "--report", str(tmp_path / "r.json")])
        assert code != 0
        message = capsys.readouterr().err + capsys.readouterr().out
        for name in SWEEP_PARAMETERS:
            assert name in message

    def test_empty_values_rejected(self, tmp_path):
        wav = make_tone_wav(tmp_path / "tone.wav", duration=0.5)
        assert main(["sweep", "--param", "range_m", "--values", "",
                     "--audio", str(wav), "--report", str(tmp_path / "r.json")]) != 0

    def test_alpha_axis_runs(self, tmp_path):
        wav = tmp_path / "sp.wav"
        write_wav(wav, make_speech_clip(4, duration=1.0))
        report_path = tmp_path / "sweep.json"
        assert main(["sweep", "--param", "alpha", "--values", "0.1,1.0",
                     "--audio", str(wav), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert len(report["rows"]) == 2
        assert report["rows"][0]["mel_loss"] < report["rows"][1]["mel_loss"]


class TestMainDispatch:
    def test_no_args_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["teleport"])
