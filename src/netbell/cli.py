"""Command-line surface: reproducible experiments with machine-readable
records.

Every run emits one run record, a plain dict carrying the scenario, the
seed, the value and both closed-form bounds. Exit codes are part of the
contract:

* 0 success
* 2 usage error, invalid scenario, an option the chosen run does not use,
  malformed settings file, or an output file that cannot be written
* 3 dimension / search-space guard
* 4 formula and enumeration bounds disagree
* 5 certificate failure (negative gap or certificate operator not PSD)
* 6 a correspondence trial violated the bound
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
import time

from . import __version__, serialize
from .certify import correspondence_scan, sos_certificate
from .classical import enumerate_deterministic_max, sample_nlocal_value
from .errors import (
    DimensionGuard,
    DimensionMismatch,
    InvalidScenario,
    MissingObservable,
    OutOfRange,
    SearchSpaceTooLarge,
    ZeroNorm,
)
from .functionals import (
    BIPARTITE_KINDS,
    Functional,
    Kind,
    build_functional,
    classical_bound,
    quantum_bound,
)
from .optimize import SeesawConfig, seesaw_optimize, vector_model_optimize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BOUND_MISMATCH = 4
EXIT_CERTIFICATE = 5
EXIT_CORRESPONDENCE = 6

# Run-dependent options and their defaults where they apply; the parser
# leaves them None, so that a given option the run does not use is seen.
SEESAW_DEFAULTS = {"dim": 2, "restarts": 5, "iters": 600, "tol": 1e-14}
CERTIFY_DEFAULTS = {
    "at_optimum": True, "dim": 2, "restarts": 8, "iters": 600, "tol": 1e-15,
}
SAMPLE_DEFAULTS = {"trials": 10_000, "support": 2}

CSV_FIELDS = (
    "command", "kind", "m", "n", "seed", "value",
    "classical_bound", "quantum_bound", "wall_time_ms", "version",
)

SIGN_FAMILY_NOTE = (
    "classical bound uses m*C(m-1,floor((m-1)/2)), confirmed by exhaustive "
    "enumeration for m <= 11 (6 at m=3); the superficially similar closed form "
    "m*C(m,floor((m-1)/2)) does not match enumeration (it gives 9 at m=3)"
)


def _emit(record: dict, fmt: str) -> None:
    scenario = record["scenario"]
    if fmt == "json":
        print(serialize.dumps(record))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_FIELDS)
        writer.writerow([{**scenario, **record}[k] for k in CSV_FIELDS])
    else:
        print(
            f"{record['command']} {scenario['kind']} m={scenario['m']} "
            f"n={scenario['n']}: value = {record['value']:.9f}"
        )
        print(
            f"  classical bound = {record['classical_bound']:.9f}   "
            f"quantum bound = {record['quantum_bound']:.9f}"
        )
        if record["note"]:
            print(f"  note: {record['note']}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".netbell-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _functional(kind: str, m: int, n: int | None) -> Functional:
    """The functional of a command line's scenario. Without --n, n is 1
    for bipartite kinds and 2 otherwise; a value the kind does not admit
    is left for build_functional to reject."""
    if n is None:
        n = 1 if Kind(kind) in BIPARTITE_KINDS else 2
    return build_functional(Kind(kind), m, n)


def _record(command, f, seed, value, artifacts=None, note=None, started=0.0) -> dict:
    """One machine-readable run record; it round-trips bit-identically
    through JSON apart from wall_time_ms and version."""
    return {
        "command": command,
        "scenario": serialize.functional_to_json(f),
        "seed": seed,
        "value": float(value),
        "classical_bound": classical_bound(f),
        "quantum_bound": quantum_bound(f),
        "artifacts": artifacts,
        "note": note,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
        "version": __version__,
    }


def _settle_options(args, defaults: dict, applies: bool, run: str) -> None:
    """When the run uses the options of ``defaults``, give each one not
    given its default; when it does not, refuse every one that was given
    (InvalidScenario, exit 2) instead of ignoring it."""
    if applies:
        for k, default in defaults.items():
            if getattr(args, k) is None:
                setattr(args, k, default)
        return
    given = [f"--{k.replace('_', '-')}" for k in defaults if getattr(args, k) is not None]
    if given:
        raise InvalidScenario(f"{', '.join(given)} not used by {run}")


def _seesaw_config(args) -> SeesawConfig:
    return SeesawConfig(edge_dim=args.dim, max_iters=args.iters, tol=args.tol,
                        restarts=args.restarts, seed=args.seed)


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    f = _functional(args.expr, args.m, args.n)
    vector, run = args.model == "vector", f"--model {args.model}"
    _settle_options(args, {"ambient": f.m}, vector, run)
    _settle_options(args, SEESAW_DEFAULTS, not vector, run)
    if vector:
        value, vectors = vector_model_optimize(f, ambient=args.ambient, seed=args.seed)
        artifacts = {"model": "vector", "ambient": args.ambient, "vectors": vectors.tolist()}
    else:
        result = seesaw_optimize(f, _seesaw_config(args))
        artifacts = {
            "model": "seesaw",
            "state": serialize.state_to_json(result.state),
            **serialize.assignment_to_json(result.observables),
            "history": list(result.history),
            "iterations": result.iterations,
            "converged": result.converged,
        }
        value = result.value
    _emit(_record("optimize", f, args.seed, value, artifacts, started=started), args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    started = time.perf_counter()
    f = _functional(args.expr, args.m, args.n)
    note = SIGN_FAMILY_NOTE if f.kind in (Kind.GM, Kind.DELTA) else None
    formula = classical_bound(f)
    sample, run = args.method == "sample", f"--method {args.method}"
    _settle_options(args, SAMPLE_DEFAULTS, sample, run)
    if args.method == "formula":
        value, artifacts = formula, None
    elif args.method == "enumerate":
        value, witness = enumerate_deterministic_max(f)
        if value != formula:
            print(
                f"bound mismatch: enumeration gives {value!r}, "
                f"formula gives {formula!r}",
                file=sys.stderr,
            )
            return EXIT_BOUND_MISMATCH
        artifacts = {"witness": serialize.strategy_to_json(witness)}
    else:
        value = sample_nlocal_value(
            f, trials=args.trials, support_size=args.support, seed=args.seed
        )
        artifacts = {"trials": args.trials, "support_size": args.support}
    _emit(_record("bound", f, args.seed, value, artifacts, note, started), args.out)
    return EXIT_OK


def _load_settings(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    return serialize.settings_from_json(obj)


def cmd_certify(args) -> int:
    started = time.perf_counter()
    f = _functional(args.expr, args.m, args.n)
    if not args.settings and not args.at_optimum:
        print("certify needs --settings FILE or --at-optimum", file=sys.stderr)
        return EXIT_USAGE
    _settle_options(args, CERTIFY_DEFAULTS, not args.settings, "--settings")
    if args.settings:
        try:
            state, assignment = _load_settings(args.settings)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"invalid settings file: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        result = seesaw_optimize(f, _seesaw_config(args))
        state, assignment = result.state, result.observables

    try:
        report = sos_certificate(f, state, assignment)
    except (MissingObservable, DimensionMismatch) as exc:
        print(f"invalid settings: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroNorm as exc:
        print(f"certificate undefined: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE

    artifacts = {
        **{k: v for k, v in dataclasses.asdict(report).items() if k != "value"},
        "state": serialize.state_to_json(state),
        **serialize.assignment_to_json(assignment),
    }
    record = _record(
        "certify", f, args.seed, report.value, artifacts, started=started
    )
    _emit(record, args.out)
    if report.gap < -1e-9 or report.gamma_min_eig < -1e-8:
        print(
            f"certificate failure: gap={report.gap!r} "
            f"gamma_min_eig={report.gamma_min_eig!r}",
            file=sys.stderr,
        )
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_correspondence(args) -> int:
    started = time.perf_counter()
    m = args.m
    if m is None:
        m = 3 if args.family == "xi" else 2
    f = _functional(args.family, m, args.n)
    report = correspondence_scan(f, args.trials, args.seed, args.edge_restarts, args.ranks)
    min_margin = min(r.margin for r in report.results)
    artifacts = {
        "family": args.family,
        "trials": args.trials,
        "edge_restarts": args.edge_restarts,
        "ranks": list(args.ranks),
        "satisfied": report.satisfied,
        "implication_failures": report.implication_failures,
        "min_margin": min_margin,
        "results": [dataclasses.asdict(r) for r in report.results],
    }
    record = _record("correspondence", f, args.seed, min_margin, artifacts, started=started)
    if args.out:
        buf = io.StringIO()
        writer = csv.writer(buf)
        edge_cols = [f"edge_{k + 1}" for k in range(f.n)]
        writer.writerow(["trial", "seed"] + edge_cols + ["network", "bound", "margin"])
        for r in report.results:
            writer.writerow(
                [r.trial, args.seed]
                + [repr(v) for v in (*r.edge_values, r.network_value, r.bound, r.margin)]
            )
        try:
            _atomic_write(args.out, buf.getvalue())
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    _emit(record, "json" if args.format is None else args.format)
    return EXIT_OK if report.satisfied else EXIT_CORRESPONDENCE


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--expr",
        required=True,
        choices=[k.value for k in Kind],
        help="functional family",
    )
    p.add_argument("--m", type=int, default=2, help="settings per edge party")
    p.add_argument("--n", type=int, default=None, help="number of sources")
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--out", default="json", choices=["json", "csv", "pretty"],
                   help="output format")


def int_list(text: str) -> tuple[int, ...]:
    # argparse turns the ValueError of a bad entry into a usage error.
    return tuple(int(r) for r in text.split(","))


def seed_int(text: str) -> int:
    # numpy seeds are non-negative; argparse turns the ValueError into a
    # usage error.
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netbell",
        description="Network Bell functionals: bounds, optimization, certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="maximize a functional")
    _add_scenario_args(p_opt)
    p_opt.add_argument("--dim", type=int, default=None, help="edge-party dimension")
    p_opt.add_argument("--restarts", type=int, default=None)
    p_opt.add_argument("--iters", type=int, default=None)
    p_opt.add_argument("--tol", type=float, default=None)
    p_opt.add_argument("--model", choices=["seesaw", "vector"], default="seesaw",
                       help="seesaw: --dim --restarts --iters --tol; vector: --ambient")
    p_opt.add_argument("--ambient", type=int, default=None,
                       help="vector-model ambient dimension (default m)")
    p_opt.set_defaults(func=cmd_optimize)

    p_bound = sub.add_parser("bound", help="classical bound of a functional")
    _add_scenario_args(p_bound)
    p_bound.add_argument(
        "--method", choices=["formula", "enumerate", "sample"], default="formula"
    )
    p_bound.add_argument("--trials", type=int, default=None,
                         help="sample only: number of mixtures (default 10000)")
    p_bound.add_argument("--support", type=int, default=None,
                         help="sample only: per-source support size (default 2)")
    p_bound.set_defaults(func=cmd_bound)

    p_cert = sub.add_parser("certify", help="sum-of-squares certificate")
    _add_scenario_args(p_cert)
    p_cert.add_argument("--settings", default=None,
                        help="JSON file with state and observables")
    p_cert.add_argument("--at-optimum", action="store_true", default=None,
                        help="certify the seesaw optimum; --dim --restarts --iters "
                             "--tol apply only here (defaults 2, 8, 600, 1e-15)")
    p_cert.add_argument("--dim", type=int, default=None)
    p_cert.add_argument("--restarts", type=int, default=None)
    p_cert.add_argument("--iters", type=int, default=None)
    p_cert.add_argument("--tol", type=float, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_corr = sub.add_parser("correspondence",
                            help="network-versus-edges bound scan")
    p_corr.add_argument("--family", required=True,
                        choices=["bilocal", "star", "xi"])
    p_corr.add_argument("--m", type=int, default=None,
                        help="settings per edge party (default 3 for xi, 2 otherwise)")
    p_corr.add_argument("--n", type=int, default=None)
    p_corr.add_argument("--trials", type=int, default=100)
    p_corr.add_argument("--seed", type=seed_int, default=0)
    p_corr.add_argument("--edge-restarts", type=int, default=10)
    p_corr.add_argument("--ranks", default="1", type=int_list,
                        help="comma-separated admissible source ranks")
    p_corr.add_argument("--out", default=None, help="CSV output file")
    p_corr.add_argument("--format", default=None,
                        choices=["json", "csv", "pretty"])
    p_corr.set_defaults(func=cmd_correspondence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidScenario, OutOfRange) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SearchSpaceTooLarge, DimensionGuard) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
