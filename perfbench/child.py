"""One pass of one workload in a fresh interpreter; ``run.py`` starts it.

Modes:

``setup``    import rsqg and report the moment it was ready;
``plain``    run the workload untraced: wall, CPU, peak memory, per-case time;
``spans``    run it with the span wrappers of ``layers.Recorder`` installed;
``profile``  run it under cProfile and group self time by rsqg module.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _peak_rss_mb() -> float:
    """High-water resident set size of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "spans", "profile"), required=True)
    ap.add_argument("--cases", help="comma-separated cases such as A2,C2 instead of the workload's own")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import rsqg

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not Path(rsqg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rsqg imported from {rsqg.__file__}, not from {SRC}")
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    import layers

    recorder = layers.Recorder()
    if args.mode == "spans":
        recorder.install()
    import rsqg.cli  # noqa: F401  (after install: cli binds names at import)

    import gate
    import workloads

    if args.cases:
        cases = [(c[0], int(c[1:])) for c in args.cases.split(",")]
    else:
        cases = workloads.permuted_cases(args.workload, args.seed)
    expected = gate.load_expected()[args.workload]
    runner = workloads.RUNNERS[args.workload]

    def case_span(case):
        return recorder.span("case", tuple(case))

    profiler = None
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with profiler if profiler is not None else contextlib.nullcontext():
        outputs = runner(cases, case_span)
        verdicts = gate.verdicts(outputs, expected)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "cases": [f"{f}{r}" for f, r in cases],
        "case_s": recorder.case_seconds(),
        "verdicts": verdicts,
        "errors": outputs["errors"],
        "digests": gate.digests(outputs),
    }
    if args.mode == "spans":
        recorder.uninstall_gc()
        result["layers"] = recorder.metrics()
        result["layers"]["checks.count"] = len(outputs["report"])
    elif args.mode == "profile":
        profiler.create_stats()
        result["layers"] = layers.profile_metrics(
            profiler.stats, Path(rsqg.__file__).resolve().parent, BENCH_DIR
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
