"""Smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs tiny job lists through the real pass, check and trace machinery for
every workload, traced and untraced, and checks that the metric names and
units match BENCHMARK.json, that the tracer rebinds every reference and
fails loudly on a missing function, and that run.py prints a well-formed
result in a checkout and refuses to run without the sources. Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import netbell  # noqa: E402
import netbell.optimize  # noqa: E402
import worker  # noqa: E402
from jobs import Job  # noqa: E402
from tracer import MissingLayer, Tracer  # noqa: E402

OUT = os.path.join(HERE, "out", "smoke")


def _settings_then(jobs):
    def make(workload, settings):
        paths = settings()
        return [
            Job(j.name, tuple(paths.get(a, a) for a in j.argv), j.seeded, j.evaluate)
            for j in jobs
        ]
    return make


TINY = {
    "seesaw-small": [
        Job("chsh.seesaw", ("optimize", "--expr", "chsh", "--restarts", "2")),
        Job("chsh.seesaw.eval", seeded=False, evaluate="chsh.seesaw"),
        Job("chsh.vector", ("optimize", "--expr", "chsh", "--model", "vector", "--ambient", "2")),
    ],
    "network-large": [
        Job("star2.seesaw", ("optimize", "--expr", "star", "--n", "2", "--restarts", "1")),
        Job("star5.certify", ("certify", "--expr", "star", "--n", "5", "--settings", "star5"),
            seeded=False),
    ],
    "scan-density": [
        Job("star2.scan", ("correspondence", "--family", "star", "--n", "2", "--trials", "1",
                           "--edge-restarts", "1")),
        Job("bilocal.scan", ("correspondence", "--family", "bilocal", "--ranks", "1,2",
                             "--trials", "5")),
    ],
    "classical": [
        Job("xi2n2.enum", ("bound", "--method", "enumerate", "--expr", "xi", "--m", "2")),
        Job("bilocal.sample", ("bound", "--method", "sample", "--expr", "bilocal",
                               "--trials", "20")),
    ],
}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check([w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS),
          "BENCHMARK.json lists the four workloads")

    for workload, jobs in TINY.items():
        for trace in (False, True):
            summary = worker.run(workload, 1, 0, trace, OUT, _settings_then(jobs))
            check(not summary["failures"], f"{workload} trace={int(trace)}: no failed check "
                  f"{[f['check'] for f in summary['failures']]}")
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            want = per_layer if trace else {
                k: u for k, u in end_to_end.items() if k not in ("setup_s", "passed_frac")
            }
            check(got == want, f"{workload} trace={int(trace)}: metric names and units")

    tracer = Tracer()
    with tracer.active():
        for holder in (netbell.cli, netbell.certify, netbell, netbell.optimize):
            check(hasattr(getattr(holder, "seesaw_optimize"), "__wrapped__"),
                  f"{holder.__name__}.seesaw_optimize is rebound")
        check(hasattr(netbell.optimize.combine, "__wrapped__"), "netbell.optimize.combine is rebound")
    check(not hasattr(netbell.cli.seesaw_optimize, "__wrapped__"), "leaving restores the originals")

    saved = netbell.optimize.optimal_assignment
    del netbell.optimize.optimal_assignment
    try:
        Tracer().install()
        check(False, "a missing function stops the traced run")
    except MissingLayer:
        check(True, "a missing function stops the traced run")
    finally:
        netbell.optimize.optimal_assignment = saved

    argv = [sys.executable, "perfbench/run.py", "--workload", "classical", "--seed", "3",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(done.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["correct"] and set(result["metrics"]) == set(end_to_end),
          "run.py prints the end-to-end result line")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "run.py fails without printing a result when the sources are missing")
    shutil.rmtree(bare)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
