"""mmvib benchmark: seeded CLI workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload pipeline_long --seed 1 --seconds 30 --trace 0

or, for every workload in BENCHMARK.json:

    for w in pipeline_long dataset_short sweep_chirps; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

The workload's inputs are generated from ``--seed`` under ``.bench_work/``.
Each pass is one fresh child interpreter (``bench/child.py``) that imports
``mmvib.cli`` and runs the workload's commands one after another; passes
repeat until ``--seconds`` is used up (at least two). BLAS thread pools are
capped at the number of CPUs this process may run on.

Every pass is checked: each command exits 0 and its outputs are byte-identical
to the first pass's. The first pass's outputs are then checked against
independent recomputations (see ``workloads.py``). Failed checks and commands
count in ``failed``.

With ``--trace 0`` the end-to-end metrics listed in BENCHMARK.json are
reported; with ``--trace 1`` passes alternate untraced and traced, and the
per-layer metrics are reported. Every metric is printed by name with its unit,
followed by an ``env`` record and, as the last line, one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The same record, with
every sample, goes to ``.bench_out/``, and traced passes write their spans
there too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
REQUIRED_FILES = ("BENCHMARK.json", "src/mmvib/cli.py", "tests/speechgen.py")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 5
# Whole run, including input generation and the recomputation checks.
RUN_LIMIT_S = 170.0
MIN_CLI_COVERAGE = 0.95

# Reported with the end-to-end metrics but not gated: it is 0 when all is well.
FAILED_FRAC = ("failed_frac", "ratio", "lower")

SPAN_FIELDS = ("s", "calls", "peak_mb")
COUNTERS = (
    "radar_sim.capture_mb",
    "vib_extract.remove_beginning_outlier.replaced",
    "vib_extract.remove_periodic_outliers.replaced",
)
TRACE_METRICS = ("trace.overhead_frac", "trace.cli_coverage")


class RunFailed(Exception):
    """The run cannot produce its metrics; the message says why."""


class Checks:
    """Counts attempted operations (commands and checks) and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(item.relative_to(path).as_posix().encode() + b"\0")
        with open(item, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Spawns the child interpreters of one run and keeps them inside its deadline.

    Children inherit this process's environment, BLAS thread caps included.
    """

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline

    def child(self, name: str, spec: dict, cwd: Path) -> dict | None:
        """Run bench/child.py once; its result, or None if it did not finish cleanly."""
        spec_path = self.work / f"{name}.spec.json"
        result_path = self.work / f"{name}.result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed(f"{name} would start after the {RUN_LIMIT_S:g} s run limit")
        with open(self.work / f"{name}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), repr(time.time()), str(spec_path), str(result_path)],
                    cwd=cwd,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                # subprocess.run has already killed the child and waited for it
                raise RunFailed(f"{name} ran past the {RUN_LIMIT_S:g} s run limit") from None
        if proc.returncode != 0 or not result_path.exists():
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))

    def log_tail(self, name: str, lines: int = 5) -> str:
        """The last lines a child printed, for error messages (the work dir is removed)."""
        return " | ".join((self.work / f"{name}.log").read_text(encoding="utf-8").splitlines()[-lines:])


def _flat_layers(result: dict) -> dict[str, float]:
    """One traced pass's per-layer values keyed by metric name."""
    flat = {
        f"{span}.{field}": float(value)
        for span, row in result["layers"].items()
        for field, value in row.items()
    }
    flat.update(result["counters"])
    flat["trace.cli_coverage"] = result["cli_coverage"]
    return flat


def _known_per_layer() -> set[str]:
    from tracing import LAYER_FUNCTIONS

    names = {
        f"{layer}.{fn}.{field}"
        for layer, fns in LAYER_FUNCTIONS.items()
        for fn in fns
        for field in SPAN_FIELDS
    }
    return names | set(COUNTERS) | set(TRACE_METRICS)


def _environment(args, plan, nproc: int, samples: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas_thread_cap": nproc,
        "blas_thread_vars": list(BLAS_THREAD_VARS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "clips": plan.clips,
        "audio_s_per_pass": plan.audio_s,
        "samples": {name: len(values) for name, values in samples.items()},
    }


def run(args, bench: dict, nproc: int) -> tuple[Checks, dict, dict, dict]:
    """One benchmark run; returns the checks, the metric values, their samples and env."""
    import workloads

    started = time.monotonic()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    checks = Checks()
    try:
        plan = workloads.WORKLOADS[args.workload](inputs, args.seed)
        runner = Runner(work, started + RUN_LIMIT_S)
        src = str(ROOT / "src")
        setup_only = {"src": src, "commands": [], "trace": False}

        setup_s, wall_s, rss_mb = [], [], []
        traced_wall_s, traced_layers = [], []
        first_digest = None
        window_start = time.monotonic()
        index = 0
        while True:
            pass_start = time.monotonic()
            traced = bool(args.trace) and index % 2 == 1
            pass_dir = work / f"pass{index}"
            pass_dir.mkdir()
            spec = {
                "src": src,
                "commands": plan.commands,
                "trace": traced,
                "spans_path": str(OUT_DIR / f"{stem}-pass{index}.spans.json"),
                "cleanup_capture": plan.cleanup_capture,
            }
            result = runner.child(f"pass{index}", spec, pass_dir)
            if result is None:
                raise RunFailed(f"pass {index} did not finish: {runner.log_tail(f'pass{index}')}")
            for argv, code in zip(plan.commands, result["codes"]):
                checks.record(f"pass {index}: {argv[0]} exited {code}", code == 0)
            digest = _tree_digest(pass_dir)
            if first_digest is None:
                first_digest = digest
            else:
                checks.record(f"pass {index} outputs byte-identical to pass 0", digest == first_digest)
                shutil.rmtree(pass_dir)
            setup_s.append(result["setup_s"])
            if traced:
                traced_wall_s.append(result["wall_s"])
                traced_layers.append(_flat_layers(result))
                checks.record(
                    f"pass {index}: cli spans cover {result['cli_coverage']:.4f} of wall time",
                    result["cli_coverage"] >= MIN_CLI_COVERAGE,
                )
            else:
                wall_s.append(result["wall_s"])
                rss_mb.append(result["peak_rss_mb"])
            index += 1
            now = time.monotonic()
            if index >= MIN_PASSES and now + (now - pass_start) > window_start + args.seconds:
                break

        while len(setup_s) < MIN_SETUP_SAMPLES:
            name = f"setup{len(setup_s)}"
            probe = runner.child(name, setup_only, work)
            if probe is None:
                raise RunFailed(f"a setup probe could not import mmvib.cli: {runner.log_tail(name)}")
            setup_s.append(probe["setup_s"])

        pass0 = work / "pass0"
        try:
            for label, ok in plan.check(pass0):
                checks.record(label, ok)
            stoi, mcd = plan.quality(pass0)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            raise RunFailed(f"pass 0 outputs could not be checked: {exc!r}") from None

        wall = statistics.median(wall_s)
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "audio_s_per_s": plan.audio_s / wall,
            "peak_rss_mb": statistics.median(rss_mb),
            "report_stoi": stoi,
            "report_mcd_db": mcd,
        }
        samples = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": rss_mb}
        if args.trace:
            # A function the workload never reaches reads 0.
            for metric in bench["per_layer"]:
                name = metric["name"]
                values[name] = statistics.median(layers.get(name, 0.0) for layers in traced_layers)
            values["trace.overhead_frac"] = statistics.median(traced_wall_s) / wall - 1.0
            samples["traced_wall_s"] = traced_wall_s
        return checks, values, samples, _environment(args, plan, nproc, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [name for name in REQUIRED_FILES if not (ROOT / name).is_file()]
    if missing:
        print(f"benchmark needs the repository checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    unknown = {m["name"] for m in bench["per_layer"]} - _known_per_layer()
    if unknown:
        print(f"BENCHMARK.json names per-layer metrics no layer gives: {sorted(unknown)}", file=sys.stderr)
        return 2

    # Cap BLAS pools before numpy loads, here and in every child.
    nproc = len(os.sched_getaffinity(0))
    os.environ.update({var: str(nproc) for var in BLAS_THREAD_VARS})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    try:
        checks, values, samples, env = run(args, bench, nproc)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = len(checks.failures)
    for label in checks.failures:
        print(f"FAILED {label}")
    for m in listed:
        name = m["name"]
        line = f"{args.workload} {name} = {values[name]:.6g} {m['unit']} ({m['better']} is better"
        if name in samples:
            s = _stats(samples[name])
            line += f"; median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}"
        print(line + ")")
    if not args.trace:
        name, unit, better = FAILED_FRAC
        print(
            f"{args.workload} {name} = {failed / checks.attempted:.6g} {unit} "
            f"({failed} of {checks.attempted} operations failed; {better} is better)"
        )
    print("env " + json.dumps(env))

    record = {
        "env": env,
        "attempted": checks.attempted,
        "failed": failed,
        "failures": checks.failures,
        "metrics": metrics,
        "samples": {name: {"values": v, **_stats(v)} for name, v in samples.items()},
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
