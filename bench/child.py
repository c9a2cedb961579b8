"""One benchmark pass in a fresh interpreter: import the CLI, run commands in order.

Usage: child.py SPAWN_TIME SPEC_JSON RESULT_JSON

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import mmvib.cli`` and
building the parser. SPEC_JSON names the package source directory, the
commands (argv lists for ``mmvib.cli.main``), whether to trace, where to write
spans, and a capture whose phase series the cleanup stages are run on
directly. The pass's wall time runs from the first command to the return of
the last, all in this one thread. RESULT_JSON receives the timings, exit codes,
``ru_maxrss`` and, when traced, the per-layer summary.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _run_command(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a failed benchmark
        traceback.print_exc()
        return 1


def _clean_phase_series(tracer, capture_path: str) -> dict[str, float]:
    """Run both public cleanup stages on the capture's target-bin phase series.

    The series is computed with tracing paused, so only the two stages add
    spans. Returns the number of samples each stage changed.
    """
    from mmvib import VibrationTrace, load_capture, vib_extract

    tracer.paused = True
    try:
        capture = load_capture(capture_path)
        profile = vib_extract.range_fft(capture)
        phase = vib_extract.extract_phase_series(profile, vib_extract.select_target_bin(profile))
        cpf = capture.config.chirps_per_frame
        rate = capture.config.effective_sampling_rate
        del capture, profile
    finally:
        tracer.paused = False

    raw = VibrationTrace(phase, rate)
    after_beginning = vib_extract.remove_beginning_outlier(raw, cpf)
    after_periodic = vib_extract.remove_periodic_outliers(after_beginning, cpf)
    return {
        "vib_extract.remove_beginning_outlier.replaced": float(
            (after_beginning.displacement != raw.displacement).sum()
        ),
        "vib_extract.remove_periodic_outliers.replaced": float(
            (after_periodic.displacement != after_beginning.displacement).sum()
        ),
    }


def main() -> int:
    spawn = float(sys.argv[1])
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from mmvib import cli

    cli.build_parser()
    result: dict = {"setup_s": time.time() - spawn}

    if spec["commands"]:
        tracer = None
        if spec["trace"]:
            import tracemalloc

            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            tracemalloc.start()
        start = time.perf_counter()
        result["codes"] = [_run_command(cli, argv) for argv in spec["commands"]]
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["cli_coverage"] = tracer.covered_s("cli.") / result["wall_s"]
            if spec["cleanup_capture"] and all(code == 0 for code in result["codes"]):
                tracer.counters.update(_clean_phase_series(tracer, spec["cleanup_capture"]))
            tracer.uninstall()
            tracemalloc.stop()
            result["layers"] = tracer.summary()
            result["counters"] = dict(tracer.counters)
            tracer.dump(spec["spans_path"])

    # Linux reports ru_maxrss in KiB.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
