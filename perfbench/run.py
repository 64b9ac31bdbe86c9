"""netbell benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload seesaw-small --seed 1 --seconds 20 --trace 0

Run from the root of a netbell checkout. With ``--trace 0`` the last line
of stdout is one JSON object carrying the end-to-end metrics (setup_s and
run_s at the speed probe's reference speed, peak_rss_mb, passed_frac);
with ``--trace 1`` it carries the per-layer metrics of a traced run
instead. The full report of each run, with the environment block, every
job value and every failed check, is written under perfbench/out/. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from probe import scaled, speed_probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 175.0
SETUP_REPEATS = 5
SETUP_CODE = "import netbell.cli as c; c.build_parser()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), HERE, env.get("PYTHONPATH")) if p
    )
    # One BLAS thread: the OpenBLAS default of one per core made passes
    # slower and noisier (CPU time above wall time) on a 2-core machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; kill and reap it if it outlives the deadline."""
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out)


def measure_setup(env: dict, deadline: float) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports netbell.cli and
    builds the parser, at the probe's reference speed and as measured."""
    at_reference, times = [], []
    before = speed_probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = run_child([sys.executable, "-c", SETUP_CODE], env, deadline)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError("importing netbell.cli failed")
        after = speed_probe()
        at_reference.append(scaled(times[-1], before, after))
        before = after
    return statistics.median(at_reference), statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=int, default=20, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "netbell", "cli.py")):
        print(f"no netbell sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    try:
        setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(env, deadline)
        done = run_child(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT],
            env, deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"worker exited with {done.returncode}", file=sys.stderr)
        return 1
    summary = json.loads(lines[-1])

    metrics = summary["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        passed = summary["attempted"] - summary["failed"]
        metrics["passed_frac"] = {"value": passed / summary["attempted"], "unit": "ratio"}
    print(json.dumps({"environment": summary["environment"]}, sort_keys=True))
    if setup_s is not None:
        print(f"wall time as measured: setup {setup_wall_s:.4f} s, "
              f"pass {summary['pass_wall_s']:.4f} s (median)")
    for entry in summary["known_defect_failures"]:
        print(f"known defect: {entry['check']} ({entry['pass']}): {entry['detail']}")
    for entry in summary["failures"]:
        print(f"FAILED: {entry['check']} ({entry['pass']}): {entry['detail']}")
    print(f"report: {os.path.relpath(summary['report'], ROOT)}")
    result = {
        # Known-defect failures are counted in "failed" and listed above;
        # any other failed check makes the run incorrect.
        "correct": not summary["failures"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": dict(sorted(metrics.items())),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
