"""Check that every CLI output of the working tree is byte-identical to a revision's.

Usage: python tests/identity.py REV

REV is checked out with `git worktree add` into a temporary directory, from
local objects only; a REV that names no commit exits 2 with one line on
stderr, before any input is written. One fixed command list then runs under
that tree and under this working tree, each with PYTHONPATH at the tree's
src/ and in a fresh directory: simulate, extract with and without --no-preprocess, sweep
over all six axes, synth plain, with --jitter --sample-rate 16000 and with
--seed 4 --jitter, score on what synth and extract wrote, with
transcripts and pairs whose sides differ in rate, a sweep where noise
swamps the target, so that one value's frames are made a second time, and
a simulate of that scene, whose container is read again before it is
stamped, with an extract of it. The inputs are fixed-seed tests/speechgen
clips at 8, 16 and 44.1 kHz and that scene's INI, written once and shared
by both runs.

Every output file, and each command's exit status, stdout and stderr, is
compared byte for byte, after the run and input directories' names are
replaced in JSON files and in the captured streams, since sidecars, reports
and messages name their paths. One line is printed per file that differs,
and the exit status is 1 if any does. tests/test_cli.py's TestOutputBytes
pins one run of the list: one SHA-256 over the SHA-256 of every file it
writes, and one over the files of each swept axis and of synth and score.
tests/test_identity.py runs main against HEAD with the list cut to the plain
synth entry, which checks the worktree, the comparison and the cleanup.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The run directory and the input directory as they read in compared files.
RUN_DIR = b"<run>"
INPUT_DIR = b"<inputs>"
# Files whose contents name those directories.
_NAMING_SUFFIXES = (".json", ".jsonl", ".log")

# {i} is the shared input directory and {o} the run directory.
COMMANDS = [
    "simulate --audio {i}/speech8k.wav --out {o}/cap.bin",
    "extract --capture {o}/cap.bin --out {o}/trace.wav",
    "extract --capture {o}/cap.bin --out {o}/raw.wav --no-preprocess",
    "sweep --param chirps_per_frame --values 256,512 --audio {i}/speech8k.wav "
    "--report {o}/sweep_chirps.json",
    "sweep --param range_m --values 1.0,2.0,3.7 --audio {i}/speech8k.wav "
    "--report {o}/sweep_range.json",
    "sweep --param noise_floor_db --values=-60,-40 --audio {i}/speech16k.wav "
    "--report {o}/sweep_noise.json",
    "sweep --param noise_floor_db --values=-60,-20 --audio {i}/speech8k.wav "
    "--report {o}/sweep_noise8k.json",
    "sweep --param alpha --values 0.5,1.5 --audio {i}/speech8k.wav --report {o}/sweep_alpha.json",
    "sweep --param alpha --values 0.5,1.5 --audio {i}/speech16k.wav "
    "--report {o}/sweep_alpha16k.json",
    "sweep --param beta --values 0.1,0.6 --audio {i}/speech44k.wav --report {o}/sweep_beta.json",
    "sweep --param beta --values 0.1,0.6 --audio {i}/speech8k.wav --report {o}/sweep_beta8k.json",
    "sweep --param material --values pet,tinfoil --audio {i}/speech8k.wav "
    "--report {o}/sweep_material.json",
    "synth --manifest {i}/clips.txt --out-dir {o}/ds",
    "synth --manifest {i}/clips.txt --out-dir {o}/ds16 --jitter --sample-rate 16000",
    "synth --manifest {i}/clips.txt --out-dir {o}/dsj --seed 4 --jitter",
    "score --manifest {o}/pairs.jsonl --report {o}/score.json",
    # noise swamps the target: at 20 dB the search names frame 0's bin, at 40 another;
    # last, so the other entries' logs keep their names
    "sweep --param noise_floor_db --values 20,40 --audio {i}/speech8k.wav "
    "--report {o}/sweep_swamped.json",
    # the same at 40 dB, written: the search reads the container again before any row is stamped
    "simulate --config {i}/swamped.ini --audio {i}/speech8k.wav --out {o}/swamped.bin",
    "extract --capture {o}/swamped.bin --out {o}/swamped.wav",
]
_CLIPS = {"speech8k": 8000.0, "speech16k": 16000.0, "speech44k": 44100.0}


def write_inputs(inputs: Path) -> None:
    """The clips, one second each with its own seed, the synth manifest naming them, and the
    config of a scene where noise swamps the target."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from mmvib import write_wav
    from speechgen import make_speech_clip

    for seed, (name, rate) in enumerate(_CLIPS.items(), 31):
        write_wav(inputs / f"{name}.wav", make_speech_clip(seed, duration=1.0, rate=rate))
    (inputs / "clips.txt").write_text("".join(f"{inputs / name}.wav\n" for name in _CLIPS))
    (inputs / "swamped.ini").write_text("[scene]\nnoise_floor_db = 40\n")


def _pairs(inputs: Path, run: Path) -> str:
    """score's manifest: each synth pair, one with transcripts, then an 8 kHz degraded side on
    a 16 kHz clean clip and on the 44.1 kHz source, and extract's trace on its source."""
    rows = [{"ref_path": f"{run}/ds/clean/{i:05d}_{name}.wav",
             "deg_path": f"{run}/ds/degraded/{i:05d}_{name}.wav"} for i, name in enumerate(_CLIPS)]
    rows[0].update(ref_text="the radar hears the film", hyp_text="the radar hears a film")
    rows += [
        {"ref_path": f"{run}/ds16/clean/00000_speech8k.wav",
         "deg_path": f"{run}/ds/degraded/00000_speech8k.wav",
         "ref_text": ["phase", "range", "bin"], "hyp_text": ["phase", "rang", "bin"]},
        {"ref_path": f"{inputs}/speech44k.wav",
         "deg_path": f"{run}/dsj/degraded/00002_speech44k.wav"},
        {"ref_path": f"{inputs}/speech8k.wav", "deg_path": f"{run}/trace.wav",
         "ref_text": ["a", "b"], "hyp_text": ["a"]},
    ]
    return "".join(json.dumps(row) + "\n" for row in rows)


def run_commands(tree: Path, inputs: Path, run: Path) -> list[str]:
    """Run the command list with tree's package in run, logging each command's streams there.

    Returns a line for each command that exits non-zero: the list is meant to
    succeed, so a failure there would hide the outputs it was to compare.
    """
    run.mkdir()
    (run / "pairs.jsonl").write_text(_pairs(inputs, run))
    env = {k: v for k, v in os.environ.items() if k != "MMVIB_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
    failed = []
    for index, command in enumerate(COMMANDS):
        argv = command.format(i=inputs, o=run).split()
        done = subprocess.run([sys.executable, "-m", "mmvib.cli", *argv], cwd=run, env=env,
                              capture_output=True)
        log = b"exit %d\n--- stdout\n%s--- stderr\n%s" % (done.returncode, done.stdout, done.stderr)
        (run / f"{index:02d}_{argv[0]}.log").write_bytes(log)
        if done.returncode != 0:
            failed.append(f"{index:02d}_{argv[0]}.log: exit {done.returncode} under {tree}")
    return failed


def _contents(path: Path, run: Path, inputs: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix in _NAMING_SUFFIXES:
        data = data.replace(os.fsencode(run), RUN_DIR).replace(os.fsencode(inputs), INPUT_DIR)
    return data


def differing(base: Path, other: Path, inputs: Path) -> tuple[int, list[str]]:
    """How many files the two run directories hold, and a line for each that differs."""
    names = sorted({p.relative_to(run) for run in (base, other) for p in run.rglob("*")
                    if p.is_file()})
    lines = []
    for name in names:
        a, b = base / name, other / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in the {'revision' if a.is_file() else 'working tree'}")
        elif _contents(a, base, inputs) != _contents(b, other, inputs):
            lines.append(f"{name}: differs")
    return len(names), lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tests/identity.py REV", file=sys.stderr)
        return 2
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                             f"{args[0]}^{{commit}}"], capture_output=True, text=True).stdout
    if not commit:
        print(f"unknown revision: {args[0]}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mmvib-identity-") as scratch:
        scratch = Path(scratch)
        tree = scratch / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(tree), commit.strip()], check=True)
        try:
            inputs = scratch / "inputs"
            inputs.mkdir()
            write_inputs(inputs)
            failed = run_commands(tree, inputs, scratch / "revision")
            failed += run_commands(ROOT, inputs, scratch / "working")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        count, lines = differing(scratch / "revision", scratch / "working", inputs)
        lines = failed + lines
    for line in lines:
        print(line)
    print(f"{count} files compared against {args[0]}, {len(lines)} differ or failed")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
