"""Workload job lists and the checks applied to every job output.

A job is one CLI run (``netbell.cli.main(argv)`` with stdout captured) or
one library call where the CLI has no subcommand. Seeded jobs take their
``--seed`` from the workload seed, the pass's seed set and the job's
index; unseeded jobs keep the seed written in the job list.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library calls go through the module attributes, so that the traced run's
# rebinding sees them.
from netbell import functionals, optimize, serialize
from netbell.functionals import Kind

# Dimension-2 ceiling of gm m=4, equal to its vector-model value at ambient
# dimension 3 (acceptance criterion 3 of the test suite).
GM4_AMBIENT3 = 15.454813

KNOWN_DEFECT = (
    "mixed-rank star scan: the network seesaw ranges over all involutions "
    "while the edge values are traceless-only maxima (ROADMAP open item 3)"
)


@dataclass(frozen=True)
class Job:
    """``argv`` is a CLI command line without ``--seed``. An ``evaluate``
    job names an earlier optimize job whose returned state and observables
    it re-evaluates through ``eval_functional``."""

    name: str
    argv: tuple[str, ...] = ()
    seeded: bool = True
    evaluate: str | None = None
    known_defect: str | None = None


@dataclass
class Outcome:
    """What one job produced in one pass."""

    job: Job
    argv: tuple[str, ...]
    exit_code: int
    stdout: str
    stderr: str
    seconds: float
    record: dict | None = None


def _cli(name: str, *argv: str, seeded: bool = True, known_defect: str | None = None) -> Job:
    return Job(name=name, argv=argv, seeded=seeded, known_defect=known_defect)


def _evaluate(source: str) -> Job:
    return Job(name=f"{source}.eval", seeded=False, evaluate=source)


def _seesaw(name: str, *scenario: str, restarts: int, seeded: bool = True) -> list[Job]:
    argv = ("optimize", *scenario, "--dim", "2", "--restarts", str(restarts))
    return [_cli(name, *argv, seeded=seeded), _evaluate(name)]


def write_settings(directory: str) -> dict[str, str]:
    """Write the closed-form optimal settings that network-large certifies
    and return their paths by job name."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, kind, m, n in (("star5", Kind.STAR, 2, 5), ("xi4n5", Kind.XI, 4, 5)):
        state, assignment = optimize.optimal_assignment(functionals.build_functional(kind, m, n))
        doc = {
            "state": serialize.state_to_json(state),
            **serialize.assignment_to_json(assignment),
        }
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize.dumps(doc))
        paths[name] = path
    return paths


def workload_jobs(workload: str, settings: Callable[[], dict[str, str]]) -> list[Job]:
    """The fixed job list of a workload. ``settings`` writes the certify
    settings files; it is called only for the workload that needs them.

    Some jobs keep the CLI's default seed (seeded=False). Their running
    time swings with the random draw: the gm m=4 seesaw takes 4.3 s to
    6.3 s and the star n=5 seesaw 1.7 s to 4.8 s over ten seeds, and one
    fixed-density scan trial 0.2 s to 5.5 s, which would swamp run_s with
    input variance. The delta m=3 n=3 seesaw with 2 restarts ends below
    the quantum bound for 7 of 40 seeds, so a drawn seed would turn its
    optimality check into a coin toss. Enumerations draw nothing."""
    if workload == "seesaw-small":
        return [
            *_seesaw("gm4.seesaw", "--expr", "gm", "--m", "4", restarts=10, seeded=False),
            *_seesaw("chained4.seesaw", "--expr", "chained", "--m", "4", restarts=5),
            *_seesaw("xi3n2.seesaw", "--expr", "xi", "--m", "3", "--n", "2", restarts=4),
            *_seesaw("delta3n3.seesaw", "--expr", "delta", "--m", "3", "--n", "3", restarts=2,
                     seeded=False),
            *_seesaw("star3.seesaw", "--expr", "star", "--n", "3", restarts=3),
            *_seesaw("gm3.seesaw", "--expr", "gm", "--m", "3", restarts=5),
            _cli("gm4.vector", "optimize", "--expr", "gm", "--m", "4",
                 "--model", "vector", "--ambient", "3"),
            _cli("gm5.vector", "optimize", "--expr", "gm", "--m", "5",
                 "--model", "vector", "--ambient", "5"),
        ]
    if workload == "network-large":
        paths = settings()
        return [
            _cli("star5.seesaw", "optimize", "--expr", "star", "--n", "5", "--restarts", "1",
                 seeded=False),
            _cli("xi3n5.seesaw", "optimize", "--expr", "xi", "--m", "3", "--n", "5",
                 "--restarts", "1"),
            _cli("star5.certify", "certify", "--expr", "star", "--n", "5",
                 "--settings", paths["star5"], seeded=False),
            _cli("xi4n5.certify", "certify", "--expr", "xi", "--m", "4", "--n", "5",
                 "--settings", paths["xi4n5"], seeded=False),
            _cli("xi3n4.certify", "certify", "--expr", "xi", "--m", "3", "--n", "4",
                 "--at-optimum", "--restarts", "2"),
        ]
    if workload == "scan-density":
        return [
            _cli("xi3n2.scan", "correspondence", "--family", "xi", "--m", "3", "--n", "2",
                 "--trials", "2", "--edge-restarts", "4", seeded=False),
            _cli("star3.scan", "correspondence", "--family", "star", "--n", "3",
                 "--trials", "2", "--edge-restarts", "4", seeded=False),
            _cli("star3.mixed.scan", "correspondence", "--family", "star", "--n", "3",
                 "--ranks", "1,4", "--trials", "2", seeded=False,
                 known_defect=KNOWN_DEFECT),
            _cli("bilocal.scan", "correspondence", "--family", "bilocal",
                 "--ranks", "1,2", "--trials", "1000"),
        ]
    if workload == "classical":
        enum = ("bound", "--method", "enumerate", "--expr")
        sample = ("bound", "--method", "sample", "--expr")
        return [
            _cli("xi3n7.enum", *enum, "xi", "--m", "3", "--n", "7", seeded=False),
            _cli("delta4n5.enum", *enum, "delta", "--m", "4", "--n", "5", seeded=False),
            _cli("star10.enum", *enum, "star", "--n", "10", seeded=False),
            _cli("xi4n5.enum", *enum, "xi", "--m", "4", "--n", "5", seeded=False),
            _cli("bilocal.sample", *sample, "bilocal", "--trials", "10000"),
            _cli("star4.sample", *sample, "star", "--n", "4", "--trials", "3000"),
            _cli("xi3n3.sample", *sample, "xi", "--m", "3", "--n", "3",
                 "--support", "3", "--trials", "3000"),
            _cli("delta4n2.sample", *sample, "delta", "--m", "4", "--n", "2",
                 "--trials", "3000"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("seesaw-small", "network-large", "scan-density", "classical")

# Small runs of every command and solver path, made untimed before the
# first pass so that pass 1 pays no first-call costs the others skip.
PRIMING = (
    ("optimize", "--expr", "chsh", "--restarts", "1"),
    ("optimize", "--expr", "star", "--n", "5", "--restarts", "1", "--iters", "1"),
    ("optimize", "--expr", "chsh", "--model", "vector", "--ambient", "2"),
    ("certify", "--expr", "chsh", "--at-optimum", "--restarts", "1"),
    ("correspondence", "--family", "star", "--n", "2", "--trials", "1", "--edge-restarts", "1"),
    ("bound", "--expr", "chsh", "--method", "enumerate"),
    ("bound", "--expr", "chsh", "--method", "sample", "--trials", "10"),
)


def job_seed(workload_seed: int, seed_set: int, index: int) -> int:
    """``--seed`` of job ``index`` in seed set ``seed_set`` of a run."""
    return int(np.random.SeedSequence([workload_seed, seed_set, index]).generate_state(1)[0])


def run_evaluate(source: dict) -> dict:
    """Library job: re-evaluate an optimize record's state and observables."""
    scenario = source["scenario"]
    f = functionals.build_functional(Kind(scenario["kind"]), scenario["m"], scenario["n"])
    state, assignment = serialize.settings_from_json(source["artifacts"])
    value, _ = functionals.eval_functional(f, state, assignment)
    return {"value": value}


def canonical(record: dict) -> str:
    """Record text with the fields outside the determinism contract removed."""
    kept = {k: v for k, v in record.items() if k not in ("wall_time_ms", "version")}
    return json.dumps(kept, sort_keys=True)


def enum_rows(record: dict) -> int:
    """Edge rows swept by an enumeration: (2^m)^parties."""
    scenario = record["scenario"]
    parties = len(scenario["terms"][0]["signs"])
    return (2 ** scenario["m"]) ** parties


# --- checks -----------------------------------------------------------------
#
# A check is (label, passed, detail, known defect or None). One job is one
# check; each correspondence trial is one more.


def _check(outcome: Outcome, passed: bool, detail: str):
    return (outcome.job.name, bool(passed), detail, None)


def check_pass(outcomes: list[Outcome]) -> list[tuple[str, bool, str, str | None]]:
    by_name = {o.job.name: o for o in outcomes}
    out = []
    for o in outcomes:
        out.extend(_check_one(o, by_name))
    return out


def _check_one(o: Outcome, by_name: dict[str, Outcome]):
    rec = o.record
    job = o.job
    if job.evaluate:
        reported = by_name[job.evaluate].record
        if rec is None or reported is None:
            return [_check(o, False, "no value")]
        diff = abs(rec["value"] - reported["value"])
        return [_check(o, diff <= 1e-9, f"eval_functional differs from reported value by {diff:.3g}")]
    command = job.argv[0]
    expected_exit = 0
    trials = []
    if rec is not None and command == "correspondence":
        trials = rec["artifacts"]["results"]
        if any(not _trial_ok(t) for t in trials):
            expected_exit = 6
    if rec is None or o.exit_code != expected_exit:
        first = o.stderr.strip().splitlines()[:1]
        return [_check(o, False, f"exit {o.exit_code}, expected {expected_exit}; {first}")]

    value, qb, cb = rec["value"], rec["quantum_bound"], rec["classical_bound"]
    art = rec["artifacts"] or {}
    if command == "optimize":
        if job.name == "gm4.seesaw":
            ref = by_name["gm4.vector"].record
            ok = value < 16.0 and ref is not None and abs(value - ref["value"]) <= 1e-3
            detail = f"value {value!r} must be < 16 and within 1e-3 of the ambient-3 vector value"
        elif job.name == "gm4.vector":
            ok = abs(value - GM4_AMBIENT3) <= 1e-3
            detail = f"value {value!r} must be within 1e-3 of {GM4_AMBIENT3}"
        else:
            ok = value >= qb - 1e-6
            detail = f"value {value!r} must be within 1e-6 of the quantum bound {qb!r}"
        ok = ok and value <= qb + 1e-9
        return [_check(o, ok, detail)]
    if command == "bound":
        if "enumerate" in job.argv:
            return [_check(o, value == cb, f"enumeration {value!r} vs formula {cb!r}")]
        return [_check(o, value <= cb + 1e-9, f"sample {value!r} above classical bound {cb!r}")]
    if command == "certify":
        gap, low = art["gap"], art["gamma_min_eig"]
        ok = gap >= -1e-9 and low >= -1e-8
        return [_check(o, ok, f"gap {gap!r}, gamma_min_eig {low!r}")]
    # correspondence: the job itself, then one check per trial
    out = [_check(o, len(trials) == art["trials"], f"{len(trials)} trials reported")]
    for t in trials:
        label = f"{job.name}#trial{t['trial']}"
        detail = f"network {t['network_value']!r} vs bound {t['bound']!r}"
        out.append((label, _trial_ok(t), detail, job.known_defect))
    return out


def _trial_ok(trial: dict) -> bool:
    return trial["network_value"] <= trial["bound"] + 1e-9 and math.isfinite(trial["bound"])
