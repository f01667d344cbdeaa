#!/usr/bin/env python3
"""rsqg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-desk --seed 1 --seconds 30 --trace 0

Every pass of the workload runs in a fresh interpreter (``child.py``) with
``RSQG_JOBS=1``, one process at a time.  ``--trace 0`` repeats untraced
passes for about ``--seconds`` seconds and reports the end-to-end metrics
as medians over the passes.  ``--trace 1`` runs one untraced pass, one pass
with span wrappers and one under cProfile, and reports the per-layer
metrics.  Every pass checks its outputs against ``expected.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance.  The exit code is 0 when every output is correct, 1
when one is not, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 2  # a median of at least two passes, even when they outlast --seconds
SETUP_SAMPLES = 15  # interpreter starts that only import rsqg
DEADLINE_S = 175.0  # the whole run must end within 180 s

sys.path.insert(0, str(BENCH_DIR))
from layers import PER_LAYER  # noqa: E402
from workloads import RUNNERS  # noqa: E402


class BenchError(Exception):
    """A pass crashed, timed out or had no time left to start."""


def child_env() -> dict[str, str]:
    """The caller's environment without its Python settings, pinned to one
    job and a fixed hash seed; the child finds rsqg itself."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "RSQG_JOBS"}
    env.update(RSQG_JOBS="1", PYTHONHASHSEED="0")
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, "-s", str(BENCH_DIR / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} pass")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} did not finish in {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def provenance(args: argparse.Namespace) -> dict:
    src = ROOT / "src" / "rsqg"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "env": {"RSQG_JOBS": "1", "PYTHONHASHSEED": "0"},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tally(passes: list[dict]) -> tuple[int, list[str]]:
    """Outputs attempted over all passes, and the names of those that failed."""
    verdicts = [v for p in passes for v in p["verdicts"]]
    return len(verdicts), [name for name, ok in verdicts if not ok]


def timed_run(args, deadline: float) -> tuple[dict, list[dict]]:
    setups = [run_child(args.workload, args.seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        t0 = time.monotonic()
        passes.append(run_child(args.workload, args.seed, "plain", deadline))
        last = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and time.monotonic() - start + last > args.seconds:
            break

    def med(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MiB"),
    }
    print(json.dumps({"setup_samples": setups}))
    for p in passes:
        print(json.dumps({"pass": {k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "case_s")}}))
    return metrics, passes


def traced_run(args, deadline: float) -> tuple[dict, list[dict]]:
    plain = run_child(args.workload, args.seed, "plain", deadline)
    spans = run_child(args.workload, args.seed, "spans", deadline)
    profile = run_child(args.workload, args.seed, "profile", deadline)
    passes = [plain, spans, profile]
    values = {**profile["layers"], **spans["layers"]}
    values["cases.max_s"] = max(plain["case_s"].values(), default=0.0)
    values["trace.overhead_ratio"] = profile["wall_s"] / plain["wall_s"]
    attempted, failures = tally(passes)
    values["fail_ratio"] = len(failures) / attempted
    diagnostics = {k: v for k, v in values.items() if k not in PER_LAYER}
    diagnostics.update({f"{mode}.wall_s": p["wall_s"] for mode, p in zip(("plain", "spans", "profile"), passes)})
    print(json.dumps({"diagnostics": diagnostics}))
    metrics = {name: (values[name], unit) for name, (unit, _better, _moves) in PER_LAYER.items()}
    return metrics, passes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rsqg" / "__init__.py").is_file():
        print(f"error: no rsqg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance(args)}))
    try:
        metrics, passes = (traced_run if args.trace else timed_run)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted, failures = tally(passes)
    for p in passes:
        for err in p["errors"]:
            print(err, file=sys.stderr)
    if failures:
        print("failed outputs: " + "; ".join(sorted(set(failures))), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    # SystemExit on SIGTERM lets subprocess.run kill and reap the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
