"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH=src`` and the BLAS thread count
fixed in its environment. Closed loop, one client: each job starts after
the previous one returns. A few small CLI runs warm the code paths before
timing starts. Prints one JSON line with the checks, the metrics and the
path of the full report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import netbell
import netbell.cli
from jobs import (
    PRIMING,
    WORKLOADS,
    Job,
    Outcome,
    canonical,
    check_pass,
    enum_rows,
    job_seed,
    run_evaluate,
    workload_jobs,
    write_settings,
)
from probe import scaled, speed_probe
from tracer import TRACED, Tracer

PROBE_EVERY_S = 2.0

# Workloads on which each wrapped function must be called (the layer ->
# workload map in README.md); classical.* must be idle everywhere else.
EXPECTED_CALLS = {
    "optimize.seesaw_optimize": ("seesaw-small", "network-large", "scan-density"),
    "optimize.vector_model_optimize": ("seesaw-small",),
    "optimize.optimal_assignment": ("network-large",),
    "functionals.build_functional": WORKLOADS,
    "functionals.eval_functional": ("seesaw-small",),
    "functionals.combine": ("seesaw-small", "network-large", "scan-density", "classical"),
    "qcore.tensor_product": ("seesaw-small", "network-large", "scan-density"),
    "qcore.expectation": ("seesaw-small",),
    "certify.sos_certificate": ("network-large",),
    "certify.correspondence_scan": ("scan-density",),
    "certify.horodecki_chsh_max": ("scan-density",),
    "certify.bilocal_max_pair": ("scan-density",),
    "certify.correlation_matrix": ("scan-density",),
    "classical.enumerate_deterministic_max": ("classical",),
    "classical.sample_nlocal_value": ("classical",),
    "classical.random_model": ("classical",),
    "classical.eval_model": ("classical",),
    "states.network_product_state": ("network-large", "scan-density"),
    "states.random_two_qubit_density": ("scan-density",),
    "serialize.dumps": WORKLOADS,
    "serialize.state_to_json": ("seesaw-small", "network-large"),
    "serialize.assignment_to_json": ("seesaw-small", "network-large"),
    "serialize.settings_from_json": ("seesaw-small", "network-large"),
    "cli.main": WORKLOADS,
}


def run_job(job, argv, records) -> Outcome:
    """Run one job; ``records`` maps earlier job names to their records."""
    out, err = io.StringIO(), io.StringIO()
    record, code = None, 1
    start = time.perf_counter()
    try:
        if job.evaluate:
            record, code = run_evaluate(records[job.evaluate]), 0
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = netbell.cli.main(list(argv))
    except Exception:  # a crashing job is a failed check, not a lost run
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if record is None:
        with contextlib.suppress(json.JSONDecodeError):
            record = json.loads(out.getvalue())
    records[job.name] = record
    return Outcome(job, argv, code, out.getvalue(), err.getvalue(), seconds, record)


def run_pass(jobs, argvs, tracer: Tracer | None = None):
    """Run the job list once. Returns (wall seconds, wall seconds at the
    probe's reference speed, cpu seconds, outcomes). Untraced, a speed
    probe runs before the first job, after the last, and between jobs
    whenever PROBE_EVERY_S of job time has passed since the last probe."""
    records: dict[str, dict | None] = {}
    outcomes = []
    wall = at_reference = cpu = pending = 0.0
    before = speed_probe() if tracer is None else 0.0
    for k, (job, argv) in enumerate(zip(jobs, argvs)):
        if tracer is not None:
            tracer.job = job.name
        cpu0, start = time.process_time(), time.perf_counter()
        outcomes.append(run_job(job, argv, records))
        elapsed = time.perf_counter() - start
        cpu += time.process_time() - cpu0
        wall += elapsed
        pending += elapsed
        if tracer is None and (pending >= PROBE_EVERY_S or k == len(jobs) - 1):
            after = speed_probe()
            at_reference += scaled(pending, before, after)
            before, pending = after, 0.0
    return wall, at_reference, cpu, outcomes


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(root):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "netbell": netbell.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": commit,
    }


class Ledger:
    """Counts checks and keeps every failure by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self.known: list[dict] = []

    def add(self, pass_label: str, label: str, passed: bool, detail: str, known: str | None = None):
        self.attempted += 1
        if not passed:
            entry = {"pass": pass_label, "check": label, "detail": detail}
            (self.known if known else self.failures).append(entry)

    def add_pass(self, pass_label, outcomes, reference=None):
        """Checks of one pass; with a reference pass, also the determinism
        check of every job whose command line is the same in both."""
        for label, passed, detail, known in check_pass(outcomes):
            self.add(pass_label, label, passed, detail, known)
        for o, ref in zip(outcomes, reference or ()):
            if o.argv == ref.argv and ref.record is not None:
                same = o.record is not None and canonical(o.record) == canonical(ref.record)
                self.add(pass_label, f"{o.job.name}.determinism", same,
                         "record differs from the first pass")

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.known)


def job_values(outcomes) -> dict:
    return {o.job.name: (o.record or {}).get("value") for o in outcomes}


def counters(outcomes, busy: dict) -> dict:
    sweeps = rows = sample_trials = scan_trials = satisfied = nbytes = 0
    for o in outcomes:
        rec = o.record or {}
        art = rec.get("artifacts") or {}
        nbytes += len(o.stdout.encode())
        command = o.job.argv[0] if o.job.argv else ""
        if command == "optimize" and "iterations" in art:
            sweeps += art["iterations"]
        elif command == "bound" and "enumerate" in o.job.argv:
            rows += enum_rows(rec)
        elif command == "bound":
            sample_trials += art["trials"]
        elif command == "correspondence":
            scan_trials += len(art["results"])
            satisfied += sum(1 for t in art["results"] if t["satisfied"])

    def per_s(count, name):
        return count / busy[name] if busy[name] > 0 else 0.0

    return {
        "optimize.sweeps": (sweeps, "count"),
        "optimize.sweeps_per_s": (per_s(sweeps, "optimize.seesaw_optimize"), "1/s"),
        "classical.enum_rows": (rows, "count"),
        "classical.enum_rows_per_s": (per_s(rows, "classical.enumerate_deterministic_max"), "1/s"),
        "classical.sample_trials_per_s": (
            per_s(sample_trials, "classical.sample_nlocal_value"), "1/s"),
        "certify.scan_trials": (scan_trials, "count"),
        "certify.scan_satisfied_ratio": (satisfied / scan_trials if scan_trials else 0.0, "ratio"),
        "serialize.record_bytes": (nbytes, "bytes"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out: str,
        make_jobs=workload_jobs) -> dict:
    """One run: prime, then passes until ``seconds`` have been measured.
    Writes the full report under ``out`` and returns its summary."""
    os.makedirs(out, exist_ok=True)
    env = environment(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tracer = Tracer() if trace else None
    settings_dir = os.path.join(out, "settings")
    # network-large writes its certify settings once, before timing; the
    # traced run records that preparation as job "prepare".
    if tracer is not None:
        tracer.job = "prepare"
    with tracer.active() if tracer else contextlib.nullcontext():
        jobs = make_jobs(workload, lambda: write_settings(settings_dir))

    def argvs(seed_set: int) -> list[tuple[str, ...]]:
        """Command lines of one seed set. An evaluate job is keyed by the
        command line of the record it re-evaluates."""
        out = {}
        for i, job in enumerate(jobs):
            if job.evaluate:
                out[job.name] = ("evaluate", *out[job.evaluate])
            else:
                seeded = ("--seed", str(job_seed(seed, seed_set, i))) if job.seeded else ()
                out[job.name] = job.argv + seeded
        return list(out.values())

    for argv in PRIMING:
        run_job(Job(name="prime", argv=argv), argv, {})

    ledger = Ledger()
    walls, scaled_walls, cpus, passes, traced_walls, traced_stats = [], [], [], [], [], []
    bound = {}
    prepare_end = len(tracer.spans) if tracer else 0
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        # Untraced runs step through seed sets 0, 1, 2, ... so that run_s is
        # a median over inputs. The traced run stays on seed set 0, so its
        # counters repeat exactly for a given seed. Every job run with the
        # same command line as in the first pass must repeat its record.
        seed_set = 0 if tracer is not None else len(walls)
        wall, at_reference, cpu, outcomes = run_pass(jobs, argvs(seed_set))
        walls.append(wall)
        scaled_walls.append(at_reference)
        cpus.append(cpu)
        passes.append(outcomes)
        ledger.add_pass(f"pass{len(walls)}", outcomes, passes[0] if len(passes) > 1 else None)
        if tracer is not None:
            first = len(tracer.spans)
            with tracer.active() as bound:
                wall, _, _, traced = run_pass(jobs, argvs(0), tracer)
            traced_walls.append(wall)
            traced_stats.append(tracer.summary(first))
            ledger.add_pass(f"traced{len(traced_walls)}", traced, outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)

    metrics = {}
    coverage = {}
    if tracer is not None:
        prepared = tracer.summary(0, prepare_end)
        for name in TRACED:
            calls = traced_stats[0][name]["calls"] + prepared[name]["calls"]
            busy = statistics.median(s[name]["busy_s"] for s in traced_stats) + prepared[name]["busy_s"]
            self_s = statistics.median(s[name]["self_s"] for s in traced_stats) + prepared[name]["self_s"]
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.busy_s"] = (busy, "s")
            metrics[f"{name}.self_s"] = (self_s, "s")
            if workload in EXPECTED_CALLS[name]:
                ledger.add("traced", f"coverage.{name}", calls > 0,
                           f"no calls on {workload}")
            elif name.startswith("classical."):
                ledger.add("traced", f"coverage.{name}", calls == 0,
                           f"{calls} calls outside the classical workload")
        busy = {name: metrics[f"{name}.busy_s"][0] for name in TRACED}
        metrics.update(counters(passes[0], busy))
        traced_run_s = statistics.median(traced_walls)
        metrics["process.cpu_s"] = (statistics.median(cpus), "s")
        metrics["trace.untraced_run_s"] = (wall_s, "s")
        metrics["trace.traced_run_s"] = (traced_run_s, "s")
        metrics["trace.overhead_s"] = (traced_run_s - wall_s, "s")
        spans_path = os.path.join(out, f"{workload}-seed{seed}-spans.csv.gz")
        tracer.write(spans_path)
        coverage = {"rebound": bound, "spans": len(tracer.spans), "spans_file": spans_path}
    else:
        metrics["run_s"] = (statistics.median(scaled_walls), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "jobs": [
            {"name": job.name, "argv": list(argv), "known_defect": job.known_defect}
            for job, argv in zip(jobs, argvs(0))
        ],
        "job_values": [job_values(p) for p in passes],
        "job_seconds": [{o.job.name: o.seconds for o in p} for p in passes],
        "pass_seconds": walls,
        "pass_seconds_at_reference_speed": scaled_walls,
        "pass_cpu_seconds": cpus,
        "traced_pass_seconds": traced_walls,
        "bilocal_implication_failures": [
            o.record["artifacts"]["implication_failures"]
            for p in passes
            for o in p
            if o.job.name == "bilocal.scan" and o.record
        ],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "known_defect_failures": ledger.known,
        "peak_rss_mb": peak_rss_mb,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "trace": coverage,
    }
    report_path = os.path.join(out, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    summary = {k: report[k] for k in ("attempted", "failed", "failures", "known_defect_failures",
                                      "metrics", "environment")}
    summary["report"] = report_path
    summary["pass_wall_s"] = wall_s
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for the report and spans")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    expected = os.path.join(root, "src", "netbell")
    if os.path.dirname(os.path.abspath(netbell.__file__)) != expected:
        print(f"netbell imported from {netbell.__file__}, not {expected}", file=sys.stderr)
        return 2
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
