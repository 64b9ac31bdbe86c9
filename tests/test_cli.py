import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netbell
from netbell import serialize
from netbell.classical import DeterministicStrategy
from netbell.cli import SIGN_FAMILY_NOTE, main
from netbell.errors import InvalidInput, TooLarge
from netbell.functionals import Kind, build_functional
from netbell.optimize import SeesawConfig, _Workspace, optimal_assignment
from netbell.states import QuantumState, maximally_entangled, network_product_state

from importlib.resources import files

SCHEMA = json.loads(
    files("netbell").joinpath("schemas/runrecord.schema.json").read_text()
)


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_COMMANDS = [
    line
    for block in re.findall(r"```\n(.*?)```", README, re.S)
    for line in block.splitlines()
    if line.startswith("netbell ")
]
README_PYTHON = re.findall(r"```python\n(.*?)```", README, re.S)


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

    @pytest.mark.parametrize("value", ["a", None, True, 1.7, 2, -1.0, 0])
    @pytest.mark.parametrize(
        "field", ["edge_responses[0][1]", "edge_responses[1][0]", "central_responses[1]"]
    )
    def test_strategy_responses_must_be_integer_signs(self, field, value):
        doc = serialize.strategy_to_json(DeterministicStrategy(((1, -1), (1, 1)), (-1, 1)))
        key, *index = re.findall(r"\w+", field)
        target = doc[key]
        for i in index[:-1]:
            target = target[int(i)]
        target[int(index[-1])] = value
        with pytest.raises(InvalidInput, match=re.escape(f"strategy.{field}: must be +1 or -1")):
            serialize.strategy_from_json(doc)

    @pytest.mark.parametrize(
        "doc,match",
        [
            ({"edge_responses": 5, "central_responses": [1]},
             r"strategy.edge_responses: expected a list"),
            ({"edge_responses": [None], "central_responses": [1]},
             r"strategy.edge_responses\[0\]: expected a list"),
            ({"edge_responses": [[1]], "central_responses": "1"},
             r"strategy.central_responses: expected a list"),
            ({"edge_responses": [[1]]}, r"strategy.central_responses: missing field"),
        ],
    )
    def test_strategy_tables_must_be_lists(self, doc, match):
        with pytest.raises(InvalidInput, match=match):
            serialize.strategy_from_json(doc)

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

    def test_seesaw_work_guard_exit_3(self, capsys, monkeypatch):
        # 10^11 restarts are refused before SeedSequence would spawn them.
        def spawn(*args, **kwargs):
            raise AssertionError("a restart generator was spawned")

        monkeypatch.setattr(np.random, "SeedSequence", spawn)
        code, out, err = run_cli(capsys, "optimize", "--expr", "chsh", "--restarts", "100000000000")
        assert code == 3
        assert out == ""
        assert err.startswith("guard:") and "seesaw work" in err

    @pytest.mark.parametrize(
        "argv,what",
        [
            (("correspondence", "--family", "bilocal", "--trials", "10000000000"), "scan work"),
            (("correspondence", "--family", "star", "--n", "3", "--trials", "100000"),
             "scan work"),
            (("bound", "--expr", "bilocal", "--method", "sample", "--trials", "10000000000"),
             "uniforms"),
        ],
        ids=["bilocal_scan", "star_scan", "sample"],
    )
    def test_trial_work_guard_exit_3(self, capsys, monkeypatch, argv, what):
        # Refused before SeedSequence spawns a trial or default_rng draws
        # a model; never run with the guard off.
        def fail(*args, **kwargs):
            raise AssertionError("trials were drawn")

        monkeypatch.setattr(np.random, "SeedSequence", fail)
        monkeypatch.setattr(np.random, "default_rng", fail)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("guard:") and what in err

    @pytest.mark.parametrize("command", [("optimize",), ("certify", "--at-optimum")])
    @pytest.mark.parametrize("dim", ["4294967296", "1099511627776"])
    def test_dimension_guard_exact_product(self, capsys, command, dim):
        # The chsh total is dim^2: 2^64 and 2^80, which an int64 product
        # wraps to 0, below the guard.
        code, out, err = run_cli(capsys, *command, "--expr", "chsh", "--dim", dim)
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("guard:")

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

    def test_pretty_prints_the_note(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--expr", "gm", "--m", "3", "--out", "pretty")
        assert code == 0
        assert out.splitlines()[-1] == f"  note: {SIGN_FAMILY_NOTE}"

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
        code, out, err = run_cli(
            capsys, "bound", "--expr", "star", "--n", "26", "--method", "enumerate"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("guard:")

    @pytest.mark.parametrize(
        "expr,size", [("chained", ("--m", "100000")), ("star", ("--n", "100000000"))]
    )
    def test_term_table_guard_exit_3(self, capsys, expr, size):
        # 10^10 and 4 * 10^8 table entries: refused before any is built.
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "bound", "--expr", expr, *size)
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("guard: term table")

    def test_sign_table_m_out_of_range_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--expr", "gm", "--m", "17")
        assert code == 2
        assert out == ""
        assert err.startswith("invalid scenario: m must be in 2..16")

    def test_enumerate_gm6(self, capsys):
        # 32 rows x 32 terms: the sweep the guard measures, not the nominal
        # (2^6) * 2^32 strategies.
        code, out, _ = run_cli(
            capsys, "bound", "--expr", "gm", "--m", "6", "--method", "enumerate"
        )
        assert code == 0
        assert record_of(out)["value"] == 60.0

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

    @pytest.mark.parametrize(
        "kind,n,visibility,value",
        [
            # The maximally mixed state: every correlator vanishes.
            ("chsh", 1, 0.0, 0.0),
            # Two Werner sources: each term's correlator scales by v^2, its
            # square root by v.
            ("bilocal", 2, 0.8, 0.8 * 2 * math.sqrt(2)),
        ],
        ids=["maximally_mixed", "werner_bilocal"],
    )
    def test_density_settings(self, capsys, tmp_path, kind, n, visibility, value):
        f = build_functional(Kind(kind), 2, n)
        _, assignment = optimal_assignment(f)
        phi = maximally_entangled(2).density_matrix()
        source = QuantumState.density(
            visibility * phi + (1 - visibility) * np.eye(4) / 4, (2, 2)
        )
        state = source if n == 1 else network_product_state([source] * n)
        path = tmp_path / "density.json"
        path.write_text(serialize.dumps({
            "state": serialize.state_to_json(state),
            **serialize.assignment_to_json(assignment),
        }))
        code, out, _ = run_cli(capsys, "certify", "--expr", kind, "--settings", str(path))
        assert code == 0
        rec = record_of(out)
        assert rec["artifacts"]["state"]["kind"] == "density"
        assert rec["value"] == pytest.approx(value, abs=1e-12)
        gap = (1 - visibility) * 2 * math.sqrt(2)
        assert rec["artifacts"]["gap"] == pytest.approx(gap, abs=1e-12)

    def test_settings_at_4096_dimensions(self, capsys, tmp_path, monkeypatch):
        # Star n=6: gamma is applied through the slot kernel, never built as
        # a 4096 x 4096 matrix: no kernel input carries 4096 columns.
        real, columns = _Workspace.apply, []

        def counting(self, x, ops):
            columns.append(x.shape[-1])
            return real(self, x, ops)

        monkeypatch.setattr(_Workspace, "apply", counting)
        f = build_functional(Kind.STAR, 2, 6)
        state, assignment = optimal_assignment(f)
        path = tmp_path / "star6.json"
        path.write_text(serialize.dumps({
            "state": serialize.state_to_json(state),
            **serialize.assignment_to_json(assignment),
        }))
        code, out, _ = run_cli(
            capsys, "certify", "--expr", "star", "--n", "6", "--settings", str(path)
        )
        assert columns and max(columns) == 1
        assert code == 0
        artifacts = json.loads(out)["artifacts"]
        assert abs(artifacts["gamma_min_eig"]) <= 1e-10
        assert abs(artifacts["gap"]) <= 1e-10

    def test_malformed_settings_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"state": {"kind": "pure"}}))
        code, _, err = run_cli(
            capsys, "certify", "--expr", "chsh", "--settings", str(path)
        )
        assert code == 2
        assert "settings.state.subsystem_dims" in err

    @pytest.mark.parametrize("dims", [[2.7, 2.2], [True, 2], [0, 2], [-2, -2]])
    def test_subsystem_dims_must_be_positive_integers(self, capsys, tmp_path, dims):
        # [2.7, 2.2] used to load as [2, 2]; [-2, -2] multiplies to 4.
        settings = _chsh_settings()
        settings["state"]["subsystem_dims"] = dims
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(settings))
        code, out, err = run_cli(
            capsys, "certify", "--expr", "chsh", "--settings", str(path)
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
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

    def test_failed_certificate_exit_5(self, capsys, monkeypatch):
        import netbell.cli as cli_mod

        real = cli_mod.sos_certificate
        monkeypatch.setattr(
            cli_mod, "sos_certificate",
            lambda *args: dataclasses.replace(real(*args), gap=-1.0),
        )
        code, out, err = run_cli(
            capsys, "certify", "--expr", "chsh", "--at-optimum", "--restarts", "1"
        )
        assert code == 5
        assert record_of(out)["artifacts"]["gap"] == -1.0
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("certificate failure: gap=-1.0")


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


def _first_amplitude(s, value):
    """The settings with the state's first real part set to ``value``;
    Python's json writes and reads NaN and Infinity."""
    data = s["state"]["data"]
    return {**s, "state": {**s["state"], "data": {**data, "re": [value] + data["re"][1:]}}}


def _with_re(obs, re):
    return {**obs, "re": re}


def _density(s, dims=(2, 2), skew=0.0):
    """The settings with the state as a density on ``dims``; ``skew`` is
    added to one off-diagonal entry, so any nonzero skew breaks Hermiticity."""
    rho = serialize.state_from_json(s["state"]).density_matrix()
    rho[0, 1] += skew
    return {**s, "state": {"kind": "density", "data": serialize.matrix_to_json(rho),
                           "subsystem_dims": list(dims)}}


BAD_SETTINGS = {
    "nan_amplitude": lambda s: _first_amplitude(s, math.nan),
    "inf_amplitude": lambda s: _first_amplitude(s, math.inf),
    # 1j * inf has a NaN real part; numpy's warning must not reach stderr.
    "inf_imaginary_amplitude": lambda s: {
        **s, "state": {**s["state"], "data": {**s["state"]["data"],
                                              "im": [math.inf] + s["state"]["data"]["im"][1:]}}
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
    "edge_observables_number": lambda s: {**s, "edge_observables": 5},
    "edge_observables_null": lambda s: {**s, "edge_observables": None},
    "central_observables_number": lambda s: {**s, "central_observables": 5},
    "central_observables_null": lambda s: {**s, "central_observables": None},
    "edge_row_null": lambda s: {**s, "edge_observables": [None]},
    "edge_observable_number": lambda s: {**s, "edge_observables": [[5, 5]]},
    "matrix_re_object": lambda s: {
        **s, "central_observables": [_with_re(o, {"a": 1}) for o in s["central_observables"]]
    },
    "matrix_re_string": lambda s: {
        **s, "central_observables": [_with_re(o, [["abc", 0], [0, 1]])
                                     for o in s["central_observables"]]
    },
    "observable_entry_1e308": lambda s: {
        **s, "edge_observables": [[_with_re(o, [[1e308, 0], [0, -1]])
                                   for o in s["edge_observables"][0]]]
    },
    "huge_amplitude": lambda s: _first_amplitude(s, 1e200),
    # numpy converts numeric strings and booleans; JSON numbers only.
    "observable_numeric_string": lambda s: {
        **s, "central_observables": [_with_re(o, [[str(v) for v in row] for row in o["re"]])
                                     for o in s["central_observables"]]
    },
    "observable_true": lambda s: {
        **s, "edge_observables": [[_with_re(s["edge_observables"][0][0],
                                            [[0.0, True], [True, 0.0]]),
                                   s["edge_observables"][0][1]]]
    },
    "state_re_true": lambda s: {
        **s, "state": {**s["state"], "data": {**s["state"]["data"], "re": [True, 0.0, 0.0, 0.0]}}
    },
    # Raw text: json.load raises RecursionError, not JSONDecodeError.
    "deeply_nested": lambda s: "[" * 100000,
    "ragged_matrix": lambda s: {
        **s, "central_observables": [_with_re(o, [[1, 0], [0]]) for o in s["central_observables"]]
    },
    "re_im_shapes_differ": lambda s: {
        **s, "central_observables": [{**o, "im": [[0.0, 0.0]]} for o in s["central_observables"]]
    },
    "state_kind_mixed": lambda s: {**s, "state": {**s["state"], "kind": "mixed"}},
    "density_size_not_dims_product": lambda s: _density(s, dims=(2, 3)),
    "density_non_hermitian": lambda s: _density(s, skew=0.1),
    "observable_not_square": lambda s: {
        **s, "central_observables": [{"re": [[1, 0, 0], [0, 1, 0]], "im": [[0, 0, 0]] * 2}] * 2
    },
    "two_edge_rows": lambda s: {**s, "edge_observables": s["edge_observables"] * 2},
    # Pure states carry flat arrays; a 2x2 re/im is not reshaped into one.
    "pure_state_as_matrix": lambda s: {
        **s, "state": {**s["state"], "data": {
            part: [values[:2], values[2:]] for part, values in s["state"]["data"].items()
        }}
    },
}


class TestInvalidInputExit2:
    @pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
    def test_certify_settings(self, capsys, tmp_path, case):
        path = tmp_path / "settings.json"
        doc = BAD_SETTINGS[case](_chsh_settings())
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(
            capsys, "certify", "--expr", "chsh", "--settings", str(path)
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "invalid settings" in err

    @pytest.mark.parametrize(
        "case,field",
        [
            ("edge_observable_number", "settings.edge_observables[0][0]: expected an object"),
            ("edge_row_null", "settings.edge_observables[0]: expected a list"),
            ("matrix_re_string", "settings.central_observables[0].re: could not convert"),
            ("nan_amplitude",
             "invalid settings file: settings.state: pure state vector is not normalized"),
            ("observable_true", "settings.edge_observables[0][0].re: could not convert True"),
            ("state_re_true", "settings.state.data.re: could not convert True"),
            ("state_kind_mixed", "settings.state.kind: must be 'pure' or 'density'"),
            ("density_non_hermitian", "settings.state: density matrix is not Hermitian"),
            ("observable_not_square",
             "settings.central_observables[0]: expected a square matrix, got shape (2, 3)"),
            ("pure_state_as_matrix",
             "settings.state: pure state data must be a vector, got shape (2, 2)"),
        ],
    )
    def test_certify_settings_names_the_field_once(self, capsys, tmp_path, case, field):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(BAD_SETTINGS[case](_chsh_settings())))
        code, _, err = run_cli(capsys, "certify", "--expr", "chsh", "--settings", str(path))
        assert code == 2
        assert field in err
        assert err.count("settings.") == 1

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
            ("optimize", "--expr", "star", "--n", "0"),
            ("bound", "--expr", "chained", "--m", "1"),
        ],
    )
    def test_conflicting_m_or_n(self, capsys, argv):
        # An --m or --n the kind does not admit is refused, never replaced.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("invalid scenario:")


class TestOptionsOfTheRun:
    @pytest.mark.parametrize(
        "argv,options",
        [
            (("certify", "--expr", "chsh", "--settings", "F", "--at-optimum",
              "--restarts", "0", "--dim", "1", "--tol", "-5"),
             ("--at-optimum", "--restarts", "--dim", "--tol")),
            (("certify", "--expr", "chsh", "--settings", "F", "--iters", "3"),
             ("--iters",)),
            (("bound", "--expr", "chsh", "--method", "formula", "--trials", "0",
              "--support", "0"),
             ("--trials", "--support")),
            (("bound", "--expr", "chsh", "--method", "enumerate", "--trials", "5"),
             ("--trials",)),
        ],
        ids=["certify-seesaw", "certify-iters", "formula", "enumerate"],
    )
    def test_unused_option_exit_2(self, capsys, argv, options):
        # Refused before the settings file is read: F does not exist.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("invalid scenario:")
        assert all(o in err for o in options)

    def test_certify_at_optimum_defaults(self, capsys, monkeypatch):
        import netbell.cli as cli_mod

        seen = []

        def stop(f, cfg):
            seen.append(cfg)
            raise TooLarge("stop")

        monkeypatch.setattr(cli_mod, "seesaw_optimize", stop)
        assert run_cli(capsys, "certify", "--expr", "chsh", "--at-optimum")[0] == 3
        assert seen == [SeesawConfig(edge_dim=2, restarts=8, max_iters=600, tol=1e-15)]

    def test_sample_defaults(self, capsys, monkeypatch):
        import netbell.cli as cli_mod

        seen = []

        def sample(f, trials, support_size, seed):
            seen.append((trials, support_size))
            return 1.0

        monkeypatch.setattr(cli_mod, "sample_nlocal_value", sample)
        code, out, _ = run_cli(capsys, "bound", "--expr", "chsh", "--method", "sample")
        assert code == 0
        assert seen == [(10_000, 2)]
        assert record_of(out)["artifacts"] == {"trials": 10_000, "support_size": 2}


class TestReadme:
    @pytest.fixture
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        state, assignment = optimal_assignment(build_functional(Kind.CHSH, 2, 1))
        doc = {
            "state": serialize.state_to_json(state),
            **serialize.assignment_to_json(assignment),
        }
        (tmp_path / "settings.json").write_text(serialize.dumps(doc))
        return tmp_path

    def test_commands_found(self):
        assert len(README_COMMANDS) == 7 and len(README_PYTHON) == 1

    @pytest.mark.parametrize("line", README_COMMANDS)
    def test_command_runs(self, capsys, in_tmp, line):
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, err
        record_of(out)

    def test_python_block_runs(self, capsys, in_tmp):
        exec(compile(README_PYTHON[0], "README.md", "exec"), {})
        assert capsys.readouterr().out


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

    def test_implication_failure_is_counted(self, capsys):
        # Trial 47 draws mixed sources whose edges both beat 2 while the
        # class-O network value does not; the bound itself still holds.
        code, out, _ = run_cli(
            capsys, "correspondence", "--family", "bilocal", "--ranks", "1,2,3,4",
            "--trials", "48", "--seed", "0",
        )
        assert code == 0
        art = record_of(out)["artifacts"]
        assert art["satisfied"] is True
        assert art["implication_failures"] == 1
        failed = [r["trial"] for r in art["results"]
                  if r["both_violate"] and not r["network_violates"]]
        assert failed == [47]

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

    def test_rank_never_drawn_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "correspondence", "--family", "bilocal", "--ranks", "1,7",
            "--trials", "1", "--seed", "5",
        )
        assert code == 2
        assert out == ""
        assert "ranks" in err

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

        def rigged(*args, **kwargs):
            bad = certify_mod.TrialResult(
                trial=0, edge_values=(2.0, 2.0), network_value=3.0,
                bound=2.0, margin=-1.0, satisfied=False, both_violate=None,
                network_violates=None,
            )
            return certify_mod.CorrespondenceReport(
                results=(bad,), satisfied=False, implication_failures=None,
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
        # A record is one line.
        assert out.count("\n") == 1 and out.endswith("\n")
        text = json.dumps(rec["value"])
        digits = sum(c.isdigit() for c in text)
        assert digits >= 10


class TestUsage:
    def test_import_leaves_sparse_solver_unloaded(self):
        # The Lanczos solver is numpy: a D = 1024 seesaw and a D = 256
        # certificate, both above the dense limit, load no scipy module.
        code = (
            "import contextlib, io, sys, netbell.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main('optimize --expr star --n 5 --restarts 1 --iters 2'.split()) == 0\n"
            "    assert cli.main('certify --expr xi --m 3 --n 4 --at-optimum --restarts 1"
            " --iters 3'.split()) == 0\n"
            "sys.exit(any(name.partition('.')[0] == 'scipy' for name in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(netbell.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_record_does_not_depend_on_the_blas_thread_count(self):
        # D = 81 with a degenerate top: every state step is one stacked
        # Lanczos solve, whose products are batched per restart. The mixed
        # star scan stacks both trials' fixed-state restarts; its second
        # trial violates the bound (ROADMAP open item 3), so it exits 6. One
        # and two BLAS threads write the same records.
        for command, code in (("optimize --expr bilocal --dim 3 --seed 2", 0),
                              ("correspondence --family star --n 3 --ranks 1,4 --trials 2", 6)):
            records = []
            for threads in ("1", "2"):
                env = {**os.environ, "PYTHONPATH": str(Path(netbell.__file__).parents[1]),
                       "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
                run = subprocess.run([sys.executable, "-m", "netbell.cli", *command.split()],
                                     env=env, capture_output=True, text=True)
                assert run.returncode == code, run.stderr
                records.append({k: v for k, v in json.loads(run.stdout).items()
                                if k != "wall_time_ms"})
            assert records[0] == records[1], command

    def test_no_command_exit_2(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_expr_exit_2(self, capsys):
        assert run_cli(capsys, "optimize", "--expr", "ghz")[0] == 2


def _main_quietly(argv):
    """cli.main's exit code, stdout and stderr; hypothesis examples cannot
    share pytest's function-scoped capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err):
    assert code in (0, 2, 3, 4, 5, 6), (code, err)
    lines = err.splitlines()
    if code == 0:
        assert err == "" and out
    elif code == 6:
        # A violated bound is reported in the record, not on stderr.
        assert err == "" and record_of(out)["artifacts"]["satisfied"] is False
    elif lines and lines[0].startswith("usage: "):
        # argparse: the usage line, wrapped with indented continuations,
        # then one error line.
        assert ": error: " in lines[-1]
        assert all(line.startswith(" ") for line in lines[1:-1])
    else:
        assert len(lines) == 1, err


@functools.cache
def _chsh_settings_text():
    return json.dumps(_chsh_settings())


_COUNT = st.integers(-1, 3)
_GUARDED = _COUNT | st.integers(10**12, 10**15)
_TOL = st.sampled_from(["1e-14", "0.5", "0", "-1", "nan", "inf"])
_OTHER_TYPE = st.sampled_from([None, True, "1.0", {}, [], 0, 2.5, {"re": 1}])
_NUMBER = st.sampled_from([1e308, -1e308, 1e200, math.nan, math.inf, -math.inf, -0.0, 5e-324])
_MISSHAPEN = st.sampled_from(
    [[[1, 2, 3]], [[1], [1, 2]], [1, [2]], [[[1.0]]], [], [[]], 3, [[1, 0], [0, -1]]]
)


def _mutated_settings_text(draw):
    """JSON text of the chsh optimal settings after one to three mutations:
    a field or entry dropped, duplicated, retyped, nested up to 3000 lists
    deep, or replaced by a huge, non-finite or misshapen number."""
    root = {"doc": json.loads(_chsh_settings_text())}
    nests = []
    for _ in range(draw(st.integers(1, 3))):
        parent, key = root, "doc"
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            node = parent[key]
            parent, key = node, draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
        op = draw(st.sampled_from(["drop", "duplicate", "retype", "nest", "number", "shape"]))
        if op == "drop" and parent is not root:
            del parent[key]
        elif op == "duplicate":
            copy = json.loads(json.dumps(parent[key]))
            if isinstance(parent, list):
                parent.insert(key, copy)
            else:
                parent[draw(st.sampled_from(sorted(parent)))] = copy
        elif op == "retype":
            parent[key] = json.loads(json.dumps(draw(_OTHER_TYPE)))
        elif op == "nest":
            # Spliced into the text below: json.dumps itself recurses.
            token = f"@nest{len(nests)}@"
            nests.append((json.dumps(token), draw(st.integers(1, 3000)), parent[key]))
            parent[key] = token
        elif op == "number":
            parent[key] = draw(_NUMBER)
        elif op == "shape":
            parent[key] = json.loads(json.dumps(draw(_MISSHAPEN)))
    text = json.dumps(root["doc"])
    for token, depth, value in reversed(nests):
        text = text.replace(token, "[" * depth + json.dumps(value) + "]" * depth)
    return text


@st.composite
def _argv(draw):
    """A command line for one of the four subcommands. Every work count
    the run uses is drawn in -1..3, or, where a work guard covers it, also
    at 10^12 or more: the seesaw's --restarts, which with any --iters >= 1
    and D >= 4 exceeds SEESAW_WORK_BUDGET, a scan's --trials, which exceeds
    it too, and sampling's --trials, which exceeds SAMPLE_WORK_BUDGET. An
    option the run may not use is sometimes added."""
    command = draw(st.sampled_from(["optimize", "bound", "certify", "correspondence"]))
    m, n = draw(st.integers(1, 5)), draw(st.none() | st.integers(-1, 4))
    if command == "correspondence":
        argv = [command, "--family", draw(st.sampled_from(["bilocal", "star", "xi"])),
                "--trials", str(draw(_GUARDED)), "--edge-restarts", str(draw(_COUNT)),
                "--ranks", draw(st.sampled_from(["1", "2,4", "0", "x", ""]))]
    else:
        argv = [command, "--expr", draw(st.sampled_from([k.value for k in Kind]))]
    argv += ["--m", str(m), "--seed", str(draw(_COUNT))]
    if n is not None:
        argv += ["--n", str(n)]
    seesaw = ["--restarts", str(draw(_GUARDED)),
              "--iters", str(draw(_COUNT)),
              "--dim", str(draw(st.integers(-1, 2))), "--tol", draw(_TOL)]
    if command == "optimize":
        model = draw(st.sampled_from(["seesaw", "vector"]))
        argv += ["--model", model] + (seesaw if model == "seesaw" else [])
        extra = ["--ambient", "--dim", "--restarts", "--iters"]
    elif command == "certify":
        argv += ["--at-optimum"] + seesaw if draw(st.booleans()) else []
        extra = ["--dim", "--restarts", "--iters"]
    elif command == "bound":
        method = draw(st.sampled_from(["formula", "enumerate", "sample"]))
        argv += ["--method", method]
        if method == "sample":
            argv += ["--trials", str(draw(_GUARDED)), "--support", str(draw(_COUNT))]
        extra = ["--trials", "--support"]
    else:
        extra = []
    if extra and draw(st.booleans()):
        # At most --dim 2: --dim 3 with n = 3 is a D = 729 Lanczos seesaw.
        argv += [draw(st.sampled_from(extra)), str(draw(st.integers(-1, 2)))]
    return argv


class TestExitCodeContract:
    """Malformed input of any shape exits 0, 2, 3, 4, 5 or 6, never with
    a traceback; a refusal writes one stderr line (argparse: its usage
    and one error line)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_settings_document(self, data):
        text = _mutated_settings_text(data.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "settings.json")
            with open(path, "w") as handle:
                handle.write(text)
            _assert_exit_contract(
                *_main_quietly(["certify", "--expr", "chsh", "--settings", path])
            )

    @settings(max_examples=60, deadline=None)
    @given(argv=_argv())
    def test_command_line(self, argv):
        _assert_exit_contract(*_main_quietly(argv))
