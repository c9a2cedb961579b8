"""Every command's exit paths, and a runner for them that imports only numpy and mmvib.

Usage: python tests/exit_paths.py

The runner writes the inputs the cases name into a temporary directory, runs
each case in process through mmvib.cli.main, after making the directories
the BLOCKED map puts in the way of its outputs, and prints one line per case
whose exit status or stderr is not the table's, or that fails and leaves a
file the LEFT_BEHIND map does not name; it exits 1 if any does. Malformed
WAVs, configs and capture containers each have a table of their own, from
which the rows that read them are made. tests/test_cli.py::TestExitStatus
runs the same table, through the same check_case, under pytest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # run from a checkout: the package is this tree's src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import mmvib.cli
from mmvib import AudioBuffer, ChirpConfig, write_wav
from mmvib.radar_sim import write_capture_frames

_NO_FILE = "[Errno 2] No such file or directory"
_UNREPRESENTABLE = "the ratio of the rates is not finite or rounds to zero"
_NO_WAV_RATE = "does not fit a WAV header (1 to 1073741823 Hz)"
_NO_FRAME = ("audio must fill one frame (256 samples at the chirp rate) and have a finite, "
             "non-zero spread")
# Every command's exit paths: argv, MMVIB_SEED, exit status and stderr. {d}
# is the directory of inputs and {t} a fresh output directory. extract and
# score read no config and no seed, so their only exit 2 is argparse's usage
# error (tests/test_cli.py::TestMainDispatch).
EXIT_PATHS = {
    "simulate_ok": ("simulate --audio {d}/tone.wav --out {t}/c.bin", None, 0, ""),
    "simulate_unknown_section": (
        "simulate --config {d}/unknown.ini --audio {d}/tone.wav --out {t}/c.bin", None, 2,
        "simulate failed: config section [bogus] is not recognized"),
    "simulate_negative_config_seed": (
        "simulate --config {d}/negative_seed.ini --audio {d}/tone.wav --out {t}/c.bin", None, 2,
        "simulate failed: config field [run] seed must be a non-negative integer, got -1"),
    "simulate_negative_env_seed": (
        "simulate --audio {d}/tone.wav --out {t}/c.bin", "-3", 2,
        "simulate failed: MMVIB_SEED must be a non-negative integer, got -3"),
    "simulate_non_integer_env_seed": (
        "simulate --audio {d}/tone.wav --out {t}/c.bin", "pi", 2,
        "simulate failed: MMVIB_SEED must be an integer, got 'pi'"),
    "simulate_missing_audio": (
        "simulate --audio {d}/nope.wav --out {t}/c.bin", None, 1,
        f"simulate failed: {_NO_FILE}: '{{d}}/nope.wav'"),
    "simulate_chirp_rate_rounds_to_zero": (
        "simulate --config {d}/slow_frames.ini --audio {d}/tone.wav --out {t}/c.bin", None, 1,
        f"simulate failed: cannot resample from 8000.0 Hz to 2.56e-298 Hz: {_UNREPRESENTABLE}"),
    "simulate_infinite_artifact_magnitude": (
        "simulate --config {d}/infinite_sigma.ini --audio {d}/tone.wav --out {t}/c.bin", None, 2,
        "simulate failed: config: beginning_sigma must be finite and >= 0, got inf"),
    # an input whose content is at fault is named in the message
    "simulate_empty_wav": (
        "simulate --audio {d}/empty.wav --out {t}/c.bin", None, 1,
        f"simulate failed: {_NO_FRAME}: {{d}}/empty.wav"),
    "simulate_one_sample_wav": (
        "simulate --audio {d}/one_sample.wav --out {t}/c.bin", None, 1,
        f"simulate failed: {_NO_FRAME}: {{d}}/one_sample.wav"),
    "simulate_wav_shorter_than_a_frame": (
        "simulate --audio {d}/short.wav --out {t}/c.bin", None, 1,
        f"simulate failed: {_NO_FRAME}: {{d}}/short.wav"),
    "simulate_silent_wav": (
        "simulate --audio {d}/silent.wav --out {t}/c.bin", None, 1,
        f"simulate failed: {_NO_FRAME}: {{d}}/silent.wav"),
    # squares past the float64 range: the spread check prints no numpy warning
    "simulate_float64_wav_past_the_spread": (
        "simulate --audio {d}/huge.wav --out {t}/c.bin", None, 1,
        f"simulate failed: {_NO_FRAME}: {{d}}/huge.wav"),
    # a response denominator past the float64 range: zero displacement, no numpy warning
    "simulate_mass_past_the_float64_range": (
        "simulate --config {d}/heavy.ini --audio {d}/tone.wav --out {t}/c.bin", None, 0, ""),
    "simulate_nan_artifact_magnitude": (
        "simulate --config {d}/nan_sigma.ini --audio {d}/tone.wav --out {t}/c.bin", None, 2,
        "simulate failed: config: periodic_sigma must be finite and >= 0, got nan"),
    "simulate_nan_noise_floor": (
        "simulate --config {d}/nan_noise.ini --audio {d}/tone.wav --out {t}/c.bin", None, 2,
        "simulate failed: config: noise_floor_db must be finite, got nan"),
    # noise past complex64 is refused before the capture is written
    "simulate_noise_floor_1000": (
        "simulate --config {d}/noise_1000.ini --audio {d}/tone.wav --out {t}/c.bin", None, 1,
        "simulate failed: noise_floor_db must be below 770.6, the complex64 range, got 1000.0"),
    "simulate_noise_floor_10000": (
        "simulate --config {d}/noise_10000.ini --audio {d}/tone.wav --out {t}/c.bin", None, 1,
        "simulate failed: noise_floor_db must be below 770.6, the complex64 range, got 10000.0"),
    # noise inside complex64 whose capture is not finite: refused once written, and removed
    "simulate_noise_floor_765": (
        "simulate --config {d}/noise_765.ini --audio {d}/tone.wav --out {t}/c.bin", None, 1,
        "simulate failed: capture samples are not finite or too large: {t}/c.bin"),
    # the frames go to the device, but the container is opened for the search's
    # second pass before the search knows it needs none, and reads back empty
    "simulate_to_dev_null": (
        "simulate --audio {d}/tone.wav --out /dev/null", None, 1,
        "simulate failed: truncated capture file: /dev/null"),
    # a sidecar that cannot be written takes the container with it
    "simulate_sidecar_blocked": (
        "simulate --audio {d}/tone.wav --out {t}/c.bin", None, 1,
        "simulate failed: [Errno 21] Is a directory: '{t}/c.bin.artifacts.json'"),
    "simulate_zero_force_scale": (
        "simulate --config {d}/zero_force.ini --audio {d}/tone.wav --out {t}/c.bin", None, 2,
        "simulate failed: config: force_scale must be positive, got 0.0"),
    # WAVs read_wav refuses, named
    "simulate_stereo_wav": (
        "simulate --audio {d}/stereo.wav --out {t}/c.bin", None, 1,
        "simulate failed: expected mono WAV, got 2 channels: {d}/stereo.wav"),
    "simulate_truncated_chunk_header": (
        "simulate --audio {d}/cut_chunk_header.wav --out {t}/c.bin", None, 1,
        "simulate failed: truncated WAV chunk header: {d}/cut_chunk_header.wav"),
    "simulate_12_byte_fmt_chunk": (
        "simulate --audio {d}/short_fmt.wav --out {t}/c.bin", None, 1,
        "simulate failed: truncated WAV 'fmt ' chunk: {d}/short_fmt.wav"),
    "simulate_float32_nan_sample": (
        "simulate --audio {d}/nan.wav --out {t}/c.bin", None, 1,
        "simulate failed: samples contain non-finite values: {d}/nan.wav"),
    "extract_ok": ("extract --capture {d}/cap.bin --out {t}/x.wav", None, 0, ""),
    "extract_missing_capture": (
        "extract --capture {d}/nope.bin --out {t}/x.wav", None, 1,
        f"extract failed: {_NO_FILE}: '{{d}}/nope.bin'"),
    "extract_unwritable_wav": (
        "extract --capture {d}/cap.bin --out {t}/nodir/x.wav", None, 1,
        f"extract failed: {_NO_FILE}: '{{t}}/nodir/x.wav'"),
    # and a JSON sidecar the WAV
    "extract_sidecar_blocked": (
        "extract --capture {d}/cap.bin --out {t}/x.wav", None, 1,
        "extract failed: [Errno 21] Is a directory: '{t}/x.wav.json'"),
    "extract_nan_sample": (
        "extract --capture {d}/nan_sample.bin --out {t}/x.wav", None, 1,
        "extract failed: capture samples are not finite or too large: {d}/nan_sample.bin"),
    "extract_inf_sample": (
        "extract --capture {d}/inf_sample.bin --out {t}/x.wav", None, 1,
        "extract failed: capture samples are not finite or too large: {d}/inf_sample.bin"),
    "extract_zero_frames": (
        "extract --capture {d}/zero_frames.bin --out {t}/x.wav", None, 1,
        "extract failed: empty capture: {d}/zero_frames.bin"),
    "extract_one_adc_sample": (
        "extract --capture {d}/one_adc_sample.bin --out {t}/x.wav", None, 1,
        "extract failed: no target: {d}/one_adc_sample.bin"),
    "extract_all_zero_body": (
        "extract --capture {d}/zero_body.bin --out {t}/x.wav", None, 1,
        "extract failed: no target: {d}/zero_body.bin"),
    # captures the cleanup rejects, which --no-preprocess extracts
    "extract_one_chirp_per_frame": (
        "extract --capture {d}/one_chirp.bin --out {t}/x.wav", None, 1,
        "extract failed: chirps_per_frame must be >= 2, got 1: {d}/one_chirp.bin"),
    "extract_one_chirp_per_frame_raw": (
        "extract --capture {d}/one_chirp.bin --out {t}/x.wav --no-preprocess", None, 0, ""),
    "extract_two_chirp_trace": (
        "extract --capture {d}/two_chirps.bin --out {t}/x.wav", None, 1,
        "extract failed: trace too short for outlier statistics, got 2 samples: "
        "{d}/two_chirps.bin"),
    "extract_two_chirp_trace_raw": (
        "extract --capture {d}/two_chirps.bin --out {t}/x.wav --no-preprocess", None, 0, ""),
    "synth_ok": ("synth --manifest {d}/clips.txt --out-dir {t}/ds --jitter", None, 0, ""),
    "synth_negative_seed": (
        "synth --manifest {d}/clips.txt --out-dir {t}/ds --seed -1", None, 2,
        "synth failed: --seed must be a non-negative integer, got -1"),
    "synth_negative_env_seed": (
        "synth --manifest {d}/clips.txt --out-dir {t}/ds --seed 1", "-3", 2,
        "synth failed: MMVIB_SEED must be a non-negative integer, got -3"),
    "synth_non_integer_env_seed": (
        "synth --manifest {d}/clips.txt --out-dir {t}/ds", "pi", 2,
        "synth failed: MMVIB_SEED must be an integer, got 'pi'"),
    "synth_missing_manifest": (
        "synth --manifest {d}/nope.txt --out-dir {t}/ds", None, 1,
        f"synth failed: {_NO_FILE}: '{{d}}/nope.txt'"),
    "synth_no_entries": (
        "synth --manifest {d}/empty.jsonl --out-dir {t}/ds", None, 1,
        "synth failed: manifest lists no entries: {d}/empty.jsonl"),
    "synth_blank_lines_only": (
        "synth --manifest {d}/blank.txt --out-dir {t}/ds", None, 1,
        "synth failed: manifest lists no entries: {d}/blank.txt"),
    # a JSON line with no clean_path is named by its line, blank lines counted
    "synth_json_row_without_clean_path": (
        "synth --manifest {d}/no_clean_path.jsonl --out-dir {t}/ds", None, 1,
        "synth failed: {d}/no_clean_path.jsonl line 2: no JSON clean_path field"),
    "synth_blank_lines_before_a_row_without_clean_path": (
        "synth --manifest {d}/blank_then_no_clean_path.jsonl --out-dir {t}/ds", None, 1,
        "synth failed: {d}/blank_then_no_clean_path.jsonl line 4: no JSON clean_path field"),
    "synth_deeply_nested_json_row": (
        "synth --manifest {d}/nested.jsonl --out-dir {t}/ds", None, 1,
        "synth failed: {d}/nested.jsonl line 1: no JSON clean_path field"),
    "synth_non_utf8_manifest_line": (
        "synth --manifest {d}/non_utf8.txt --out-dir {t}/ds", None, 1,
        "synth failed: {d}/non_utf8.txt line 2: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte"),
    # the first entry that failed is named, blank lines and later entries aside
    "synth_all_failed_names_the_first_entry": (
        "synth --manifest {d}/max_then_missing.jsonl --out-dir {t}/ds --sample-rate 16000", None,
        1, "synth failed: all manifest entries failed, first: '{d}/max.wav': "
        "samples contain non-finite values"),
    # a JSON clean_path may hold a line break; the name is quoted, so stderr stays one line
    "synth_names_a_manifest_path_on_one_line": (
        "synth --manifest {d}/line_break_path.jsonl --out-dir {t}/ds", None, 1,
        "synth failed: all manifest entries failed, first: 'no\\nsuch.wav': "
        f"{_NO_FILE}: 'no\\nsuch.wav'"),
    # a rate no float WAV header holds is refused before any entry is read
    "synth_rate_rounds_to_zero": (
        "synth --manifest {d}/clips.txt --out-dir {t}/ds --sample-rate=1e-300", None, 2,
        f"synth failed: --sample-rate 1e-300 Hz {_NO_WAV_RATE}"),
    "synth_infinite_rate": (
        "synth --manifest {d}/clips.txt --out-dir {t}/ds --sample-rate=inf", None, 2,
        f"synth failed: --sample-rate inf Hz {_NO_WAV_RATE}"),
    "synth_rate_past_the_wav_header": (
        "synth --manifest {d}/clips.txt --out-dir {t}/ds --sample-rate 1.1e9", None, 2,
        f"synth failed: --sample-rate 1100000000.0 Hz {_NO_WAV_RATE}"),
    # rates the header holds none of, which the 8 kHz tone could not be resampled to in memory
    "synth_rate_1e12": (
        "synth --manifest {d}/clips.txt --out-dir {t}/ds --sample-rate 1e12", None, 2,
        f"synth failed: --sample-rate 1000000000000.0 Hz {_NO_WAV_RATE}"),
    "synth_rate_1e20": (
        "synth --manifest {d}/clips.txt --out-dir {t}/ds --sample-rate 1e20", None, 2,
        f"synth failed: --sample-rate 1e+20 Hz {_NO_WAV_RATE}"),
    # upsampling samples at the float64 maximum overflows: no numpy warning either
    "synth_upsampled_float64_max": (
        "synth --manifest {d}/max_clips.txt --out-dir {t}/ds --sample-rate 16000", None, 1,
        "synth failed: all manifest entries failed, first: '{d}/max.wav': "
        "samples contain non-finite values"),
    "score_ok": ("score --manifest {d}/pairs.jsonl --report {t}/r.json", None, 0, ""),
    "score_missing_manifest": (
        "score --manifest {d}/nope.jsonl --report {t}/r.json", None, 1,
        f"score failed: {_NO_FILE}: '{{d}}/nope.jsonl'"),
    "score_no_pairs": (
        "score --manifest {d}/empty.jsonl --report {t}/r.json", None, 1,
        "score failed: manifest lists no pairs: {d}/empty.jsonl"),
    "score_blank_lines_only": (
        "score --manifest {d}/blank.txt --report {t}/r.json", None, 1,
        "score failed: manifest lists no pairs: {d}/blank.txt"),
    "score_all_pairs_fail": (
        "score --manifest {d}/missing_pairs.jsonl --report {t}/r.json", None, 1,
        "score failed: all pairs failed, first: ref '{d}/nope.wav', deg '{d}/tone.wav': "
        f"{_NO_FILE}: '{{d}}/nope.wav'"),
    # the 8 kHz degraded side is upsampled to its 16 kHz reference's rate
    "score_upsampled_float64_max": (
        "score --manifest {d}/max_pairs.jsonl --report {t}/r.json", None, 1,
        "score failed: all pairs failed, first: ref '{d}/tone16.wav', deg '{d}/max.wav': "
        "samples contain non-finite values"),
    # a manifest line JSON cannot parse is named, blank lines counted, and no report is written
    "score_deeply_nested_manifest_line": (
        "score --manifest {d}/nested_pairs.jsonl --report {t}/r.json", None, 1,
        "score failed: {d}/nested_pairs.jsonl line 2: maximum recursion depth exceeded while "
        "decoding a JSON array from a unicode string"),
    "score_blank_lines_before_a_bad_line": (
        "score --manifest {d}/blank_then_bad_pairs.jsonl --report {t}/r.json", None, 1,
        "score failed: {d}/blank_then_bad_pairs.jsonl line 4: Expecting property name enclosed "
        "in double quotes: line 2 column 1 (char 2)"),
    "score_non_utf8_manifest_line": (
        "score --manifest {d}/non_utf8_pairs.jsonl --report {t}/r.json", None, 1,
        "score failed: {d}/non_utf8_pairs.jsonl line 2: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte"),
    "score_all_failed_names_the_line_of_a_non_object": (
        "score --manifest {d}/non_object_pairs.jsonl --report {t}/r.json", None, 1,
        "score failed: all pairs failed, first: {d}/non_object_pairs.jsonl line 2: "
        "manifest row is not a JSON object: [1]"),
    # exit 1, as for any other file the work cannot write
    "score_unwritable_report": (
        "score --manifest {d}/pairs.jsonl --report {t}/nodir/r.json", None, 1,
        f"score failed: {_NO_FILE}: '{{t}}/nodir/r.json'"),
    "sweep_ok": (
        "sweep --param alpha --values 0.5 --audio {d}/tone.wav --report {t}/s.json", None, 0, ""),
    # a radar axis, and the preset branch of the sweep variants
    "sweep_chirps_ok": (
        "sweep --param chirps_per_frame --values 256 --audio {d}/tone.wav --report {t}/s.json",
        None, 0, ""),
    "sweep_material_ok": (
        "sweep --param material --values pet,tinfoil --audio {d}/tone.wav --report {t}/s.json",
        None, 0, ""),
    # the config is checked first, then --param, then --values
    "sweep_unknown_section": (
        "sweep --config {d}/unknown.ini --param bogus --values=, --audio {d}/tone.wav "
        "--report {t}/s.json", None, 2, "sweep failed: config section [bogus] is not recognized"),
    "sweep_unknown_parameter": (
        "sweep --param bogus --values=, --audio {d}/tone.wav --report {t}/s.json", None, 2,
        "sweep failed: unknown parameter 'bogus'; valid: "
        "chirps_per_frame, range_m, noise_floor_db, alpha, beta, material"),
    "sweep_empty_values": (
        "sweep --param range_m --values=, --audio {d}/tone.wav --report {t}/s.json", None, 2,
        "sweep failed: empty value list"),
    "sweep_negative_env_seed": (
        "sweep --param alpha --values 0.5 --audio {d}/tone.wav --report {t}/s.json", "-3", 2,
        "sweep failed: MMVIB_SEED must be a non-negative integer, got -3"),
    "sweep_missing_audio": (
        "sweep --param alpha --values 0.5 --audio {d}/nope.wav --report {t}/s.json", None, 1,
        f"sweep failed: {_NO_FILE}: '{{d}}/nope.wav'"),
    # a [synthesis] value is checked when the config loads, not blamed on the swept value
    "sweep_nan_alpha": (
        "sweep --config {d}/nan_alpha.ini --param beta --values 0.3 --audio {d}/tone.wav "
        "--report {t}/s.json", None, 2,
        "sweep failed: config: alpha and beta must be finite and >= 0, got nan, 0.3"),
    "sweep_infinite_beta": (
        "sweep --config {d}/infinite_beta.ini --param alpha --values 0.5 --audio {d}/tone.wav "
        "--report {t}/s.json", None, 2,
        "sweep failed: config: alpha and beta must be finite and >= 0, got 1.0, inf"),
    "sweep_nan_sample_rate": (
        "sweep --config {d}/nan_rate.ini --param beta --values 0.3 --audio {d}/tone.wav "
        "--report {t}/s.json", None, 2,
        "sweep failed: config: synth_sample_rate must be finite and positive, got nan"),
    "sweep_infinite_sample_rate": (
        "sweep --config {d}/infinite_rate.ini --param beta --values 0.3 --audio {d}/tone.wav "
        "--report {t}/s.json", None, 2,
        "sweep failed: config: synth_sample_rate must be finite and positive, got inf"),
    "simulate_nan_alpha": (
        "simulate --config {d}/nan_alpha.ini --audio {d}/tone.wav --out {t}/c.bin", None, 2,
        "simulate failed: config: alpha and beta must be finite and >= 0, got nan, 0.3"),
    # the source is checked once, before the first value, and named
    "sweep_silent_wav": (
        "sweep --param alpha --values 0.5 --audio {d}/silent.wav --report {t}/s.json", None, 1,
        "sweep failed: audio must have a finite, non-zero spread: {d}/silent.wav"),
    # a radar value refuses what simulate refuses, at that value's chirp rate
    "sweep_radar_value_on_a_wav_shorter_than_a_frame": (
        "sweep --param range_m --values 1.5 --audio {d}/short.wav --report {t}/s.json", None, 1,
        f"sweep failed: range_m=1.5: {_NO_FRAME}: {{d}}/short.wav"),
    "sweep_512_chirps_on_a_wav_shorter_than_a_frame": (
        "sweep --param chirps_per_frame --values 512 --audio {d}/short.wav --report {t}/s.json",
        None, 1,
        f"sweep failed: chirps_per_frame=512: {_NO_FRAME.replace('256', '512')}: {{d}}/short.wav"),
    # 1024, larger, runs first and fails too; the line names the first value that fails
    "sweep_512_and_1024_chirps_on_a_wav_shorter_than_a_frame": (
        "sweep --param chirps_per_frame --values 512,1024 --audio {d}/short.wav "
        "--report {t}/s.json", None, 1,
        f"sweep failed: chirps_per_frame=512: {_NO_FRAME.replace('256', '512')}: {{d}}/short.wav"),
    # 255 samples at 8 kHz are one sample at this config's 25.6 Hz chirp rate
    "sweep_radar_value_whose_chirp_rate_leaves_one_sample": (
        "sweep --config {d}/slow_chirps.ini --param range_m --values 1.5 --audio {d}/short.wav "
        "--report {t}/s.json", None, 1,
        f"sweep failed: range_m=1.5: {_NO_FRAME}: {{d}}/short.wav"),
    "sweep_bad_value": (
        "sweep --param material --values steel --audio {d}/tone.wav --report {t}/s.json", None, 1,
        "sweep failed: material=steel: unknown material preset 'steel', valid: pet, tinfoil"),
    "sweep_zero_chirps": (
        "sweep --param chirps_per_frame --values 0 --audio {d}/tone.wav --report {t}/s.json",
        None, 1,
        "sweep failed: chirps_per_frame=0: chirps_per_frame must be a positive integer, got 0"),
    "sweep_infinite_chirps": (
        "sweep --param chirps_per_frame --values inf --audio {d}/tone.wav --report {t}/s.json",
        None, 1,
        "sweep failed: chirps_per_frame=inf: cannot convert float infinity to integer"),
    "sweep_noise_floor_1000": (
        "sweep --param noise_floor_db --values 1000 --audio {d}/tone.wav --report {t}/s.json",
        None, 1, "sweep failed: noise_floor_db=1000: noise_floor_db must be below 770.6, the "
        "complex64 range, got 1000.0"),
    "sweep_noise_floor_10000": (
        "sweep --param noise_floor_db --values 10000 --audio {d}/tone.wav --report {t}/s.json",
        None, 1, "sweep failed: noise_floor_db=10000: noise_floor_db must be below 770.6, the "
        "complex64 range, got 10000.0"),
    # the capture is named by its source, not by its deleted temporary file
    "sweep_noise_floor_765": (
        "sweep --param noise_floor_db --values=-60,765 --audio {d}/tone.wav --report {t}/s.json",
        None, 1, "sweep failed: noise_floor_db=765: capture samples are not finite or too large: "
        "the capture of {d}/tone.wav"),
    # a source too short to score against itself is named, on either kind of axis
    "sweep_400_samples_synthesis_axis": (
        "sweep --param alpha --values 0.5 --audio {d}/tone400.wav --report {t}/s.json", None, 1,
        "sweep failed: alpha=0.5: input too short: {d}/tone400.wav"),
    "sweep_2000_samples_synthesis_axis": (
        "sweep --param beta --values 0.3 --audio {d}/tone2000.wav --report {t}/s.json", None, 1,
        "sweep failed: beta=0.3: input too short: {d}/tone2000.wav"),
    "sweep_400_samples_radar_axis": (
        "sweep --param range_m --values 1.5 --audio {d}/tone400.wav --report {t}/s.json", None,
        1, "sweep failed: range_m=1.5: input too short: {d}/tone400.wav"),
    "sweep_2000_samples_radar_axis": (
        "sweep --param chirps_per_frame --values 256 --audio {d}/tone2000.wav "
        "--report {t}/s.json", None, 1,
        "sweep failed: chirps_per_frame=256: input too short: {d}/tone2000.wav"),
    # a value at fault is not blamed on the source, even a source too short
    "sweep_range_aliasing_on_a_short_source": (
        "sweep --param range_m --values 9 --audio {d}/tone2000.wav --report {t}/s.json", None, 1,
        "sweep failed: range_m=9: range aliasing: range_m 9.0 is not below the 4.79668 m the "
        "ADC rate resolves"),
    "sweep_unwritable_report": (
        "sweep --param alpha --values 0.5 --audio {d}/tone.wav --report {t}/nodir/s.json", None,
        1, f"sweep failed: {_NO_FILE}: '{{t}}/nodir/s.json'"),
    # a CSV table that cannot be written takes the report with it
    "sweep_csv_blocked": (
        "sweep --param alpha --values 0.5 --audio {d}/tone.wav --report {t}/s.json", None, 1,
        "sweep failed: [Errno 21] Is a directory: '{t}/s.csv'"),
    # its CSV table would overwrite it
    "sweep_report_ends_in_csv": (
        "sweep --param alpha --values 0.5 --audio {d}/tone.wav --report {t}/s.csv", None, 2,
        "sweep failed: --report {t}/s.csv ends in .csv, where its CSV table is written"),
    # a path with an empty name has no CSV table beside it
    "sweep_report_empty": (
        "sweep --param alpha --values 0.5 --audio {d}/tone.wav --report=", None, 2,
        "sweep failed: --report '' names no file"),
    "sweep_report_root": (
        "sweep --param alpha --values 0.5 --audio {d}/tone.wav --report /", None, 2,
        "sweep failed: --report '/' names no file"),
}


def make_tone_wav(path, freq=500.0, duration=2.0, rate=8000.0, amplitude=0.4):
    t = np.arange(int(duration * rate)) / rate
    write_wav(path, AudioBuffer(amplitude * np.sin(2 * np.pi * freq * t), rate))
    return path


def riff_chunk(chunk_id: bytes, body: bytes) -> bytes:
    """One RIFF chunk: id, little-endian size, body, and a pad byte after an odd body."""
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) & 1)


def wav_fmt(tag: int, bits: int, rate: int = 8000, subformat: int | None = None,
            channels: int = 1) -> bytes:
    """A `fmt ` chunk body; with `subformat`, the 40-byte WAVE_FORMAT_EXTENSIBLE form."""
    width = bits // 8 * channels
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * width, width, bits)
    if subformat is None:
        return body
    guid_tail = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return body + struct.pack("<HHII", 22, bits, 0x4, subformat) + guid_tail


def riff_wav(*chunks: bytes) -> bytes:
    """A RIFF/WAVE file holding the given chunks, in order."""
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


_SILENT_DATA = riff_chunk(b"data", b"\0" * 64)
# WAVs read_wav refuses: the file's bytes, given the bytes of a good float32
# WAV, and the reason read_wav gives before the file's name
MALFORMED_WAVS = {
    "truncated_header": (lambda good: good[:30], "truncated WAV 'fmt ' chunk"),
    "truncated_data": (lambda good: good[:-3], "truncated WAV 'data' chunk"),
    "not_riff": (lambda good: b"OggS" + good[4:], "not a RIFF/WAVE file"),
    "no_fmt_chunk": (lambda good: riff_wav(_SILENT_DATA), "WAV file has no 'fmt ' chunk"),
    "no_data_chunk": (lambda good: riff_wav(riff_chunk(b"fmt ", wav_fmt(1, 16))),
                      "WAV file has no 'data' chunk"),
    "adpcm_tag": (lambda good: riff_wav(riff_chunk(b"fmt ", wav_fmt(2, 16)), _SILENT_DATA),
                  "unsupported WAV format (tag 0x2, 16-bit)"),
    "pcm_12_bit": (lambda good: riff_wav(riff_chunk(b"fmt ", wav_fmt(1, 12)), _SILENT_DATA),
                   "unsupported WAV format (tag 0x1, 12-bit)"),
    "float_16_bit": (lambda good: riff_wav(riff_chunk(b"fmt ", wav_fmt(3, 16)), _SILENT_DATA),
                     "unsupported WAV format (tag 0x3, 16-bit)"),
}
# INI files the parser or the int cast rejects, and the reason load_config gives
_MALFORMED_CONFIGS = {
    "overflow": ("[chirp]\nchirps_per_frame = 1e400\n",
                 "config field [chirp] chirps_per_frame: cannot convert float infinity to integer"),
    "duplicate_key": ("[chirp]\nchirps_per_frame = 3\nchirps_per_frame = 4\n",
                      "config: While reading from '{d}/duplicate_key.ini' [line 3]: option "
                      "'chirps_per_frame' in section 'chirp' already exists"),
    "no_header": ("chirps_per_frame = 3\n",
                  "config: File contains no section headers. file: '{d}/no_header.ini', line: 1 "
                  "'chirps_per_frame = 3\\n'"),
    "duplicate_section": ("[scene]\n[scene]\n",
                          "config: While reading from '{d}/duplicate_section.ini' [line 2]: "
                          "section 'scene' already exists"),
    "no_value": ("[scene]\nrange_m\n",
                 "config: Source contains parsing errors: '{d}/no_value.ini' [line 2]: "
                 "'range_m\\n'"),
    "percent": ("[scene]\nrange_m = 5%\n",
                "config field [scene] range_m: could not convert string to float: '5%'"),
    "infinite_wavelength": ("[chirp]\ncarrier_freq = 1e-300\n",
                            "config section [chirp]: carrier_freq 1e-300 gives a wavelength "
                            "that is not finite"),
    "unknown_key": ("[scene]\nrange_km = 2\n", "config field [scene] range_km is not recognized"),
    # an INI [DEFAULT] section is a section like any other, with or without others beside it
    "default_alone": ("[DEFAULT]\nseed = 3\n", "config section [DEFAULT] is not recognized"),
    "default_with_chirp": ("[DEFAULT]\nseed = 3\n[chirp]\nchirps_per_frame = 256\n",
                           "config section [DEFAULT] is not recognized"),
}
for _name, (_, _reason) in _MALFORMED_CONFIGS.items():
    EXIT_PATHS[f"simulate_config_{_name}"] = (
        f"simulate --config {{d}}/{_name}.ini --audio {{d}}/tone.wav --out {{t}}/c.bin", None, 2,
        f"simulate failed: {_reason}")


def _packed(good: bytes, fmt: str, offset: int, value) -> bytes:
    """good with value packed over it at offset, in the struct format fmt."""
    data = bytearray(good)
    struct.pack_into(fmt, data, offset, value)
    return bytes(data)


# The small container the malformed ones are made from: three frames of 8
# chirps of 16 samples. Its header is the magic, four float64 (carrier_freq
# first) and four uint32: adc_samples_per_chirp at byte 40, chirps_per_frame
# at 44, the frame count at 48.
_SMALL_CAPTURE = ChirpConfig(adc_samples_per_chirp=16, chirps_per_frame=8)
# Capture containers the reader refuses before it reads their body: the
# file's bytes, given the small container's, and the reason given before
# the file's name
MALFORMED_CAPTURES = {
    "not_a_capture": (lambda good: b"NOTACAP!" + good[8:], "not a capture file, bad magic"),
    "truncated_body": (lambda good: good[:-100], "truncated capture file"),
    "over_long_body": (lambda good: good + bytes(8), "truncated capture file"),
    "frame_count_past_the_body": (lambda good: _packed(good, "<I", 48, 2**32 - 1),
                                  "truncated capture file"),
    "zero_chirps_per_frame": (lambda good: _packed(good, "<I", 44, 0),
                              "bad capture header, chirps_per_frame must be a positive integer, "
                              "got 0"),
    "frame_past_the_cap": (lambda good: _packed(good, "<I", 40, 1 << 20),
                           "bad capture header, chirps_per_frame * adc_samples_per_chirp = "
                           "8388608 exceeds 1048576 samples per frame"),
    "infinite_wavelength": (lambda good: _packed(good, "<d", 8, 1e-300),
                            "bad capture header, carrier_freq 1e-300 gives a wavelength that is "
                            "not finite"),
}
for _name, (_, _reason) in MALFORMED_CAPTURES.items():
    EXIT_PATHS[f"extract_{_name}"] = (
        f"extract --capture {{d}}/{_name}.bin --out {{t}}/x.wav", None, 1,
        f"extract failed: {_reason}: {{d}}/{_name}.bin")
# simulate and synth name each of them, synth as the first entry that failed
for _name, (_, _reason) in MALFORMED_WAVS.items():
    EXIT_PATHS[f"simulate_{_name}_wav"] = (
        f"simulate --audio {{d}}/{_name}.wav --out {{t}}/c.bin", None, 1,
        f"simulate failed: {_reason}: {{d}}/{_name}.wav")
    EXIT_PATHS[f"synth_{_name}_wav"] = (
        f"synth --manifest {{d}}/{_name}.txt --out-dir {{t}}/ds", None, 1,
        f"synth failed: all manifest entries failed, first: '{{d}}/{_name}.wav': "
        f"{_reason}: {{d}}/{_name}.wav")
# The files, under {t}, that a case which exits non-zero leaves behind; any
# other failing case leaves no regular file there. score writes its report
# when every pair fails, each pair's error in it.
LEFT_BEHIND = {
    "score_all_pairs_fail": ["r.json"],
    "score_upsampled_float64_max": ["r.json"],
    "score_all_failed_names_the_line_of_a_non_object": ["r.json"],
}
# The directories made under {t} before a case runs, each in the way of an
# output of that name.
BLOCKED = {
    "simulate_sidecar_blocked": ["c.bin.artifacts.json"],
    "extract_sidecar_blocked": ["x.wav.json"],
    "sweep_csv_blocked": ["s.csv"],
}


def run_main(argv: list[str]) -> tuple[int, str]:
    """main's exit status and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = mmvib.cli.main(argv)
    return code, err.getvalue()


def run_case(argv: str, env_seed: str | None, paths: dict[str, Path]) -> tuple[int, str]:
    """run_main on argv, its {d} and {t} filled from paths, with MMVIB_SEED env_seed or unset."""
    saved = os.environ.pop("MMVIB_SEED", None)
    if env_seed is not None:
        os.environ["MMVIB_SEED"] = env_seed
    try:
        return run_main([word.format(**paths) for word in argv.split()])
    finally:
        os.environ.pop("MMVIB_SEED", None)
        if saved is not None:
            os.environ["MMVIB_SEED"] = saved


def _build(argv: str, d: Path) -> None:
    """Run a command that writes an input into d, unseeded, and raise if it fails."""
    code, err = run_case(argv, None, {"d": d})
    if code != 0:
        raise RuntimeError(f"building an input failed: {err}")


def write_exit_inputs(d: Path) -> None:
    """Write the inputs the exit-path cases name into the directory d."""
    tone = str(make_tone_wav(d / "tone.wav", duration=1.0))
    tone16 = str(make_tone_wav(d / "tone16.wav", duration=1.0, rate=16000.0))
    _build("simulate --audio {d}/tone.wav --out {d}/cap.bin", d)
    # two entries and two pairs, so synth and score each run a pool of threads
    (d / "clips.txt").write_text(f"{tone}\n{tone16}\n")
    (d / "pairs.jsonl").write_text("".join(json.dumps({"ref_path": wav, "deg_path": wav}) + "\n"
                                           for wav in (tone, tone16)))
    for name, samples in [("empty", []), ("one_sample", [0.5]), ("silent", np.zeros(8000)),
                          ("short", 0.4 * np.sin(np.arange(255) / 5.0))]:
        write_wav(d / f"{name}.wav", AudioBuffer(samples, 8000.0))
    write_capture_frames(d / "zero_frames.bin", ChirpConfig(), [])
    write_capture_frames(d / "one_adc_sample.bin", ChirpConfig(adc_samples_per_chirp=1),
                         [np.ones((256, 1), dtype=np.complex64)])
    write_capture_frames(d / "zero_body.bin", ChirpConfig(), [np.zeros((256, 256), np.complex64)])
    (d / "one_chirp.ini").write_text("[chirp]\nchirps_per_frame = 1\n")
    _build("simulate --config {d}/one_chirp.ini --audio {d}/tone.wav --out {d}/one_chirp.bin", d)
    # one frame of two chirps, each a tone in bin 40
    chirp = np.exp(2j * np.pi * 40 * np.arange(256) / 256).astype(np.complex64)
    write_capture_frames(d / "two_chirps.bin", ChirpConfig(chirps_per_frame=2),
                         [np.stack([chirp, chirp])])
    # three such frames with the real part of the last sample not finite:
    # frame 0 names bin 40, and the bad sample is met on the way
    for name, value in [("nan_sample", np.nan), ("inf_sample", np.inf)]:
        frames = np.stack([chirp, chirp] * 3).reshape(3, 2, 256)
        frames[-1, -1, -1] = value
        write_capture_frames(d / f"{name}.bin", ChirpConfig(chirps_per_frame=2), frames)
    for n in (400, 2000):
        make_tone_wav(d / f"tone{n}.wav", duration=n / 8000.0)
    huge = np.resize([1e200, -1e200], 8000).astype("<f8").tobytes()
    (d / "huge.wav").write_bytes(riff_wav(riff_chunk(b"fmt ", wav_fmt(3, 64)),
                                          riff_chunk(b"data", huge)))
    at_max = np.resize([1.797e308, -1.797e308], 8000).astype("<f8").tobytes()
    (d / "max.wav").write_bytes(riff_wav(riff_chunk(b"fmt ", wav_fmt(3, 64)),
                                         riff_chunk(b"data", at_max)))
    (d / "max_clips.txt").write_text(f"{d / 'max.wav'}\n")
    data = riff_chunk(b"data", np.zeros(8, "<i2").tobytes())
    (d / "stereo.wav").write_bytes(riff_wav(riff_chunk(b"fmt ", wav_fmt(1, 16, channels=2)), data))
    # four bytes of a chunk header where the first chunk should start
    (d / "cut_chunk_header.wav").write_bytes(riff_wav(b"fmt "))
    (d / "short_fmt.wav").write_bytes(riff_wav(riff_chunk(b"fmt ", wav_fmt(1, 16)[:12]), data))
    nan = np.resize([0.25, np.nan], 8000).astype("<f4").tobytes()
    (d / "nan.wav").write_bytes(riff_wav(riff_chunk(b"fmt ", wav_fmt(3, 32)),
                                         riff_chunk(b"data", nan)))
    good = Path(tone).read_bytes()
    for name, (make, _) in MALFORMED_WAVS.items():
        (d / f"{name}.wav").write_bytes(make(good))
        (d / f"{name}.txt").write_text(f"{d / name}.wav\n")
    for name, (text, _) in _MALFORMED_CONFIGS.items():
        (d / f"{name}.ini").write_text(text)
    write_capture_frames(d / "small.bin", _SMALL_CAPTURE,
                         [np.ones((8, 16), np.complex64)] * 3)
    small = (d / "small.bin").read_bytes()
    for name, (make, _) in MALFORMED_CAPTURES.items():
        (d / f"{name}.bin").write_bytes(make(small))
    row, no_clean_path = json.dumps({"clean_path": tone}), json.dumps({"path": tone})
    (d / "no_clean_path.jsonl").write_text(f"{row}\n{no_clean_path}\n")
    (d / "blank_then_no_clean_path.jsonl").write_text(f"\n \t \n{row}\n{no_clean_path}\n")
    (d / "nested.jsonl").write_text('{"clean_path": ' + "[" * 100_000 + "\n")
    (d / "non_utf8.txt").write_bytes(b"clip.wav\n\xff{}\n")
    (d / "max_then_missing.jsonl").write_text(
        f"\n{json.dumps({'clean_path': str(d / 'max.wav')})}\n{d / 'nope.wav'}\n")
    (d / "line_break_path.jsonl").write_text(json.dumps({"clean_path": "no\nsuch.wav"}) + "\n")
    (d / "max_pairs.jsonl").write_text(
        json.dumps({"ref_path": tone16, "deg_path": str(d / "max.wav")}) + "\n")
    pair = json.dumps({"ref_path": tone, "deg_path": tone})
    (d / "nested_pairs.jsonl").write_text(f"{pair}\n" + "[" * 100_000 + "\n")
    (d / "blank_then_bad_pairs.jsonl").write_text(f"\n \t \n{pair}\n{{\n")
    # the bad byte sits past the first line, in the same read buffer
    (d / "non_utf8_pairs.jsonl").write_bytes(f"{pair}\n".encode() + b"\xff{}\n")
    # blank lines count toward the line number
    (d / "non_object_pairs.jsonl").write_text(
        "\n[1]\n" + json.dumps({"ref_path": str(d / "truncated_header.wav"), "deg_path": tone})
        + "\n")
    (d / "empty.jsonl").write_text("\n")
    (d / "blank.txt").write_text("\n  \n\t\n")
    (d / "missing_pairs.jsonl").write_text(
        json.dumps({"ref_path": str(d / "nope.wav"), "deg_path": tone}) + "\n")
    (d / "unknown.ini").write_text("[bogus]\n")
    (d / "negative_seed.ini").write_text("[run]\nseed = -1\n")
    # a chirp rate of 2.56e-298 Hz
    (d / "slow_frames.ini").write_text("[chirp]\nframe_period = 1e300\n")
    (d / "infinite_sigma.ini").write_text("[artifacts]\nbeginning_sigma = 1e400\n")
    (d / "nan_sigma.ini").write_text("[artifacts]\nperiodic_sigma = nan\n")
    (d / "slow_chirps.ini").write_text("[chirp]\nframe_period = 10\n")
    (d / "nan_noise.ini").write_text("[scene]\nnoise_floor_db = nan\n")
    (d / "zero_force.ini").write_text("[scene]\nforce_scale = 0\n")
    (d / "heavy.ini").write_text("[material]\nmass = 1e300\n")
    for db in (765, 1000, 10000):
        (d / f"noise_{db}.ini").write_text(f"[scene]\nnoise_floor_db = {db}\n")
    (d / "nan_alpha.ini").write_text("[synthesis]\nalpha = nan\n")
    (d / "infinite_beta.ini").write_text("[synthesis]\nbeta = inf\n")
    (d / "nan_rate.ini").write_text("[synthesis]\nsample_rate = nan\n")
    (d / "infinite_rate.ini").write_text("[synthesis]\nsample_rate = inf\n")


def check_case(case: str, row: tuple, d: Path, t: Path) -> str | None:
    """Run one row of the table, named case, with inputs in d and the empty directory t as {t}.

    The directories BLOCKED names for case are made under t first. Returns
    the line naming how it differs, None if it does not: its exit status and
    stderr, or, for a case that fails, the regular files it leaves under t
    against the ones LEFT_BEHIND names.
    """
    for name in BLOCKED.get(case, []):
        (t / name).mkdir()
    argv, env_seed, status, message = row
    paths = {"d": d, "t": t}
    expected = (status, message.format(**paths) + "\n" if message else "")
    got = run_case(argv, env_seed, paths)
    if got != expected:
        return f"{case}: expected {expected}, got {got}"
    left = sorted(p.relative_to(t).as_posix() for p in t.rglob("*") if p.is_file())
    if status and left != LEFT_BEHIND.get(case, []):
        return f"{case}: expected {LEFT_BEHIND.get(case, [])} left behind, got {left}"
    return None


def main(table: dict | None = None) -> int:
    """Run every case of table, EXIT_PATHS if None, and print a line per case that differs."""
    table = EXIT_PATHS if table is None else table
    lines = []
    with tempfile.TemporaryDirectory(prefix="mmvib-exit-paths-") as scratch:
        d = Path(scratch, "inputs")
        d.mkdir()
        write_exit_inputs(d)
        for case, row in table.items():
            t = Path(scratch, case)
            t.mkdir()
            line = check_case(case, row, d, t)
            if line:
                lines.append(line)
    for line in lines:
        print(line)
    print(f"{len(table)} exit paths run, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
