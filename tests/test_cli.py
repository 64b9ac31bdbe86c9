import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import netbell
from netbell import serialize
from netbell.classical import DeterministicStrategy
from netbell.cli import main
from netbell.functionals import Kind, build_functional
from netbell.optimize import optimal_assignment
from netbell.states import QuantumState, maximally_entangled

from importlib.resources import files

SCHEMA = json.loads(
    files("netbell").joinpath("schemas/runrecord.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(out):
    rec = json.loads(out)
    jsonschema.validate(rec, SCHEMA)
    return rec


class TestSerialize:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = serialize.matrix_from_json(serialize.matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_state_round_trip(self):
        psi = maximally_entangled(2)
        back = serialize.state_from_json(serialize.state_to_json(psi))
        assert back.kind == "pure"
        assert back.subsystem_dims == (2, 2)
        assert np.array_equal(back.data, psi.data)

    def test_density_round_trip(self):
        rho = QuantumState.density(np.eye(4) / 4, (2, 2))
        back = serialize.state_from_json(serialize.state_to_json(rho))
        assert np.array_equal(back.data, rho.data)

    def test_functional_round_trip(self):
        f = build_functional(Kind.XI, 3, 2)
        back = serialize.functional_from_json(serialize.functional_to_json(f))
        assert back == f

    def test_assignment_round_trip(self):
        _, assignment = optimal_assignment(build_functional(Kind.CHSH, 2, 1))
        data = serialize.assignment_to_json(assignment)
        back = serialize.assignment_from_json(data)
        for row_a, row_b in zip(back.edge, assignment.edge):
            for a, b in zip(row_a, row_b):
                assert np.allclose(a.matrix, b.matrix)

    def test_strategy_round_trip(self):
        s = DeterministicStrategy(((1, -1), (1, 1)), (-1, 1))
        assert serialize.strategy_from_json(serialize.strategy_to_json(s)) == s

    def test_missing_field_is_named(self):
        with pytest.raises(ValueError, match="state.subsystem_dims"):
            serialize.state_from_json({"kind": "pure", "data": {"re": [1], "im": [0]}})

    def test_json_round_trip_is_bit_identical(self):
        f = build_functional(Kind.CHAINED, 4, 1)
        text = serialize.dumps(serialize.functional_to_json(f))
        assert serialize.dumps(json.loads(text)) == text


class TestOptimizeCommand:
    def test_chsh_json_record(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--expr", "chsh", "--dim", "2")
        assert code == 0
        rec = record_of(out)
        assert rec["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert rec["classical_bound"] == 2.0
        assert rec["scenario"]["kind"] == "chsh"
        assert rec["artifacts"]["converged"] is True

    def test_chained_m4(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--expr", "chained", "--m", "4",
            "--dim", "2", "--seed", "1",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["value"] == pytest.approx(7.3910363, abs=1e-6)

    def test_gm2_matches_chsh(self, capsys):
        _, out_gm, _ = run_cli(
            capsys, "optimize", "--expr", "gm", "--m", "2", "--seed", "5"
        )
        _, out_chsh, _ = run_cli(
            capsys, "optimize", "--expr", "chsh", "--seed", "5"
        )
        assert json.loads(out_gm)["value"] == json.loads(out_chsh)["value"]

    def test_vector_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--expr", "chained", "--m", "5",
            "--model", "vector", "--ambient", "2",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["value"] == pytest.approx(10 * math.cos(math.pi / 10), abs=1e-8)

    def test_deterministic_output(self, capsys):
        args = ("optimize", "--expr", "xi", "--m", "3", "--n", "2", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        a, b = json.loads(out1), json.loads(out2)
        for rec in (a, b):
            rec.pop("wall_time_ms")
            rec.pop("version")
        assert serialize.dumps(a) == serialize.dumps(b)

    def test_invalid_scenario_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--expr", "chsh", "--m", "3")
        assert code == 2
        assert "invalid scenario" in err

    def test_dimension_guard_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize", "--expr", "star", "--n", "3", "--dim", "6"
        )
        assert code == 3

    def test_dim_one_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--expr", "chsh", "--dim", "1")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "edge_dim" in err

    def test_ambient_zero_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--expr", "chsh", "--model", "vector", "--ambient", "0"
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "ambient" in err

    def test_infinite_tol_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--expr", "chsh", "--tol", "inf")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "tol" in err

    def test_ambient_above_guard_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--expr", "chsh", "--model", "vector", "--ambient", "4097"
        )
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "ambient" in err

    def test_pretty_and_csv_modes(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--expr", "chsh", "--out", "pretty"
        )
        assert code == 0 and "value" in out
        code, out, _ = run_cli(capsys, "optimize", "--expr", "chsh", "--out", "csv")
        assert code == 0 and out.startswith("command,")


class TestBoundCommand:
    def test_formula(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--expr", "delta", "--m", "3", "--n", "2",
            "--method", "formula",
        )
        assert code == 0
        assert record_of(out)["value"] == 6.0

    def test_enumerate_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--expr", "xi", "--m", "3", "--n", "2",
            "--method", "enumerate",
        )
        assert code == 0
        rec = record_of(out)
        assert rec["value"] == 4.0
        witness = serialize.strategy_from_json(rec["artifacts"]["witness"])
        assert len(witness.edge_responses) == 2

    def test_gm_note_mentions_enumeration(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--expr", "gm", "--m", "3", "--method", "enumerate"
        )
        assert code == 0
        rec = record_of(out)
        assert rec["value"] == 6.0
        assert "enumeration" in rec["note"]

    def test_sample_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--expr", "bilocal", "--method", "sample",
            "--trials", "200", "--seed", "3",
        )
        assert code == 0
        assert record_of(out)["value"] <= 2.0 + 1e-12

    def test_sample_more_than_eight_sources(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--expr", "star", "--n", "9", "--method", "sample",
            "--trials", "2",
        )
        assert code == 0
        assert record_of(out)["value"] <= 2.0

    @pytest.mark.parametrize(
        "n,support",
        [("8", "60"), ("32", "1")],
        ids=["table_entries", "sources"],
    )
    def test_sample_guard_exit_3(self, capsys, n, support):
        # Refused before any draw: the support-60 table alone would be 2.4 PiB.
        code, out, err = run_cli(
            capsys, "bound", "--expr", "star", "--n", n, "--method", "sample",
            "--support", support, "--trials", "1",
        )
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("guard:")

    def test_search_guard_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--expr", "gm", "--m", "6", "--method", "enumerate"
        )
        assert code == 3

    def test_mismatch_exit_4(self, capsys, monkeypatch):
        import netbell.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "enumerate_deterministic_max", lambda f: (999.0, None)
        )
        code, _, err = run_cli(
            capsys, "bound", "--expr", "chsh", "--method", "enumerate"
        )
        assert code == 4
        assert "mismatch" in err


class TestCertifyCommand:
    def test_at_optimum_chsh(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--expr", "chsh", "--at-optimum", "--seed", "2"
        )
        assert code == 0
        rec = record_of(out)
        assert max(rec["artifacts"]["residuals"]) <= 1e-6
        assert rec["artifacts"]["gap"] <= 1e-6

    def test_at_optimum_chained3_norms(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--expr", "chained", "--m", "3", "--at-optimum"
        )
        assert code == 0
        rec = record_of(out)
        assert rec["artifacts"]["omegas"] == pytest.approx(
            [math.sqrt(3)] * 3, abs=1e-6
        )

    def test_settings_file(self, capsys, tmp_path):
        f = build_functional(Kind.CHSH, 2, 1)
        state, assignment = optimal_assignment(f)
        settings = {
            "state": serialize.state_to_json(state),
            **serialize.assignment_to_json(assignment),
        }
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(settings))
        code, out, _ = run_cli(
            capsys, "certify", "--expr", "chsh", "--settings", str(path)
        )
        assert code == 0
        assert record_of(out)["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_malformed_settings_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"state": {"kind": "pure"}}))
        code, _, err = run_cli(
            capsys, "certify", "--expr", "chsh", "--settings", str(path)
        )
        assert code == 2
        assert "settings.state.subsystem_dims" in err

    def test_requires_mode(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--expr", "chsh")
        assert code == 2

    def test_degenerate_settings_exit_5(self, capsys, tmp_path):
        # A1 = A2 annihilates the (A1 - A2) term, so the certificate
        # operator is undefined.
        f = build_functional(Kind.CHSH, 2, 1)
        state, assignment = optimal_assignment(f)
        z = serialize.observable_to_json(assignment.edge[0][0])
        settings = {
            "state": serialize.state_to_json(state),
            "edge_observables": [[z, z]],
            "central_observables": [
                serialize.observable_to_json(o) for o in assignment.central
            ],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(settings))
        code, _, err = run_cli(
            capsys, "certify", "--expr", "chsh", "--settings", str(path)
        )
        assert code == 5
        assert "undefined" in err


def _chsh_settings():
    state, assignment = optimal_assignment(build_functional(Kind.CHSH, 2, 1))
    return {
        "state": serialize.state_to_json(state),
        **serialize.assignment_to_json(assignment),
    }


def _widened(obs):
    """A serialized observable A as A (x) I_2: still an observable, but
    twice the dimension of its state slot."""
    return serialize.matrix_to_json(np.kron(serialize.matrix_from_json(obs), np.eye(2)))


BAD_SETTINGS = {
    "density_state": lambda s: {
        **s,
        "state": serialize.state_to_json(
            QuantumState.density(np.eye(4) / 4, (2, 2))
        ),
    },
    "one_slot_state": lambda s: {**s, "state": {**s["state"], "subsystem_dims": [4]}},
    "one_central_observable": lambda s: {
        **s, "central_observables": s["central_observables"][:1]
    },
    "one_edge_observable": lambda s: {
        **s, "edge_observables": [s["edge_observables"][0][:1]]
    },
    "edge_observables_4x4": lambda s: {
        **s, "edge_observables": [[_widened(o) for o in s["edge_observables"][0]]]
    },
    "central_observables_extra": lambda s: {
        **s, "central_observables": s["central_observables"] + s["central_observables"][:1]
    },
    "central_observables_8x8": lambda s: {
        **s, "central_observables": [_widened(o) for o in s["central_observables"]]
    },
}


class TestInvalidInputExit2:
    @pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
    def test_certify_settings(self, capsys, tmp_path, case):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(BAD_SETTINGS[case](_chsh_settings())))
        code, out, err = run_cli(
            capsys, "certify", "--expr", "chsh", "--settings", str(path)
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "invalid settings" in err

    @pytest.mark.parametrize(
        "argv,word",
        [
            (("bound", "--expr", "bilocal", "--method", "sample", "--trials", "0"),
             "trials"),
            (("bound", "--expr", "bilocal", "--method", "sample", "--support", "0"),
             "support"),
            (("correspondence", "--family", "bilocal", "--trials", "0"), "trials"),
            (("correspondence", "--family", "bilocal", "--ranks", "x"), "ranks"),
            (("correspondence", "--family", "bilocal", "--edge-restarts", "0"),
             "restarts"),
            (("optimize", "--expr", "chsh", "--iters", "-1"), "max_iters"),
            (("optimize", "--expr", "chsh", "--tol", "nan"), "tol"),
        ],
    )
    def test_sampling_and_scan_sizes(self, capsys, argv, word):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert word in err.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--expr", "chsh"),
            ("optimize", "--expr", "chsh", "--model", "vector"),
            ("certify", "--expr", "chsh", "--at-optimum"),
            ("bound", "--expr", "bilocal", "--method", "sample", "--trials", "10"),
            ("correspondence", "--family", "bilocal", "--trials", "1"),
        ],
        ids=["seesaw", "vector", "certify", "sample", "correspondence"],
    )
    def test_negative_seed(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "--seed" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "model,option",
        [
            ("vector", ("--restarts", "1")),
            ("vector", ("--iters", "1")),
            ("vector", ("--tol", "0.5")),
            ("vector", ("--dim", "7")),
            ("seesaw", ("--ambient", "2")),
        ],
        ids=["restarts", "iters", "tol", "dim", "ambient"],
    )
    def test_option_of_other_model(self, capsys, model, option):
        # An option the chosen model does not use is refused, never ignored.
        code, out, err = run_cli(
            capsys, "optimize", "--expr", "chsh", "--model", model, *option
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("invalid scenario:") and option[0] in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--expr", "chsh", "--n", "3"),
            ("optimize", "--expr", "bilocal", "--n", "3"),
            ("bound", "--expr", "gm", "--m", "3", "--n", "4"),
            ("correspondence", "--family", "star", "--m", "5"),
        ],
    )
    def test_conflicting_m_or_n(self, capsys, argv):
        # An --m or --n the kind does not admit is refused, never replaced.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("invalid scenario:")


class TestCorrespondenceCommand:
    def test_bilocal_scan_with_csv(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "correspondence", "--family", "bilocal",
            "--trials", "50", "--seed", "7", "--out", str(out_file),
        )
        assert code == 0
        rec = record_of(out)
        assert rec["artifacts"]["satisfied"] is True
        assert rec["artifacts"]["implication_failures"] == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "trial,seed,edge_1,edge_2,network,bound,margin"
        assert len(lines) == 51

    def test_unwritable_csv_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys, "correspondence", "--family", "bilocal", "--trials", "2",
            "--out", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("cannot write")
        assert not out_file.parent.exists()

    def test_xi_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "correspondence", "--family", "xi", "--m", "3", "--n", "2",
            "--trials", "2", "--seed", "3", "--edge-restarts", "5",
        )
        assert code == 0
        assert record_of(out)["artifacts"]["satisfied"] is True

    @pytest.mark.parametrize(
        "scenario",
        [("--family", "star", "--n", "7"), ("--family", "xi", "--m", "3", "--n", "7")],
    )
    def test_dimension_guard_before_any_state(self, capsys, scenario):
        # 4^7 = 16384 > 4096. The guard must fire before any state is
        # drawn: the product density of seven sources alone takes 4 GiB.
        code, out, err = run_cli(capsys, "correspondence", *scenario, "--trials", "1")
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("guard:")

    def test_violation_exit_6(self, capsys, monkeypatch):
        import netbell.certify as certify_mod
        import netbell.cli as cli_mod

        real = certify_mod.correspondence_scan

        def rigged(*args, **kwargs):
            rep = real(*args, **kwargs)
            bad = certify_mod.TrialResult(
                trial=0, edge_values=(2.0, 2.0), network_value=3.0,
                bound=2.0, satisfied=False, both_violate=None,
                network_violates=None,
            )
            return certify_mod.CorrespondenceReport(
                family=rep.family, m=rep.m, n=rep.n, trials=1, seed=rep.seed,
                edge_restarts=rep.edge_restarts, results=(bad,),
                satisfied=False, implication_failures=None,
            )

        monkeypatch.setattr(cli_mod, "correspondence_scan", rigged)
        code, _, _ = run_cli(
            capsys, "correspondence", "--family", "bilocal", "--trials", "1"
        )
        assert code == 6


class TestRecordContract:
    def test_json_round_trip_and_precision(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--expr", "chsh", "--seed", "1")
        assert code == 0
        rec = json.loads(out)
        # Full-precision floats: the value round-trips bit-identically and
        # carries more than nine significant digits in the text.
        assert serialize.dumps(rec) == out.strip()
        text = json.dumps(rec["value"])
        digits = sum(c.isdigit() for c in text)
        assert digits >= 10


class TestUsage:
    def test_import_leaves_sparse_solver_unloaded(self):
        # Every CLI run pays for what importing netbell.cli loads; only the
        # seesaw's Lanczos branch needs scipy.sparse.linalg.
        code = "import sys, netbell.cli; sys.exit('scipy.sparse.linalg' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(netbell.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_no_command_exit_2(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_expr_exit_2(self, capsys):
        assert run_cli(capsys, "optimize", "--expr", "ghz")[0] == 2
