import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import netbell
from netbell import serialize
from netbell.certify import correspondence_scan
from netbell.classical import (
    DeterministicStrategy,
    HiddenVariableModel,
    eval_model,
    eval_strategy,
)
from netbell.cli import main
from netbell.functionals import Kind, build_functional, eval_functional
from netbell.states import QuantumState, maximally_entangled, network_product_state


class TestModelStrategyBridge:
    # A point-mass mixture is a deterministic strategy; the two evaluation
    # paths must agree exactly.
    @pytest.mark.parametrize(
        "kind,m,n", [(Kind.CHSH, 2, 1), (Kind.BILOCAL, 2, 2), (Kind.XI, 3, 2)]
    )
    def test_point_mass_equals_strategy(self, kind, m, n):
        f = build_functional(kind, m, n)
        rng = np.random.default_rng(3)
        parties = 1 if n == 1 else n
        for _ in range(20):
            edge = tuple(
                tuple(int(v) for v in 2 * rng.integers(0, 2, f.m) - 1)
                for _ in range(parties)
            )
            central = tuple(
                int(v) for v in 2 * rng.integers(0, 2, f.n_central_inputs) - 1
            )
            strategy = DeterministicStrategy(edge, central)
            model = HiddenVariableModel(
                weights=tuple(np.ones(1) for _ in range(parties)),
                edge_responses=tuple(
                    np.array([row], dtype=float) for row in edge
                ),
                central_responses=np.array(central, dtype=float).reshape(
                    (1,) * parties + (f.n_central_inputs,)
                ),
            )
            assert eval_model(f, model) == pytest.approx(
                eval_strategy(f, strategy), abs=1e-12
            )


class TestScanDeterminism:
    def test_same_seed_same_report(self):
        a = correspondence_scan("bilocal", trials=20, seed=5)
        b = correspondence_scan("bilocal", trials=20, seed=5)
        assert a == b


class TestArtifactsRoundTrip:
    def test_optimize_artifacts_reevaluate(self, capsys):
        # The state and observables emitted by the CLI reproduce the
        # reported value when parsed back and re-evaluated.
        code = main(["optimize", "--expr", "chained", "--m", "3", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        rec = json.loads(out)
        f = serialize.functional_from_json(rec["scenario"])
        state = serialize.state_from_json(rec["artifacts"]["state"])
        assignment = serialize.assignment_from_json(rec["artifacts"])
        value, _ = eval_functional(f, state, assignment)
        assert value == pytest.approx(rec["value"], abs=1e-9)
        assert value == pytest.approx(3 * math.sqrt(3), abs=1e-6)


class TestNetworkStateLayout:
    def test_three_source_pairing(self):
        psi = network_product_state([maximally_entangled(2)] * 3)
        assert psi.subsystem_dims == (2, 2, 2, 8)
        # Each edge slot is perfectly correlated with its own central slot.
        from netbell.qcore import expectation, tensor_all
        from netbell.states import SIGMA_Z

        eye = np.eye(2)
        for k in range(3):
            edge_ops = [eye] * 3
            edge_ops[k] = SIGMA_Z
            central_ops = [eye] * 3
            central_ops[k] = SIGMA_Z
            op = tensor_all(edge_ops + central_ops)
            assert expectation(psi, op) == pytest.approx(1.0)

    def test_mixed_source_density_network(self):
        # Density sources flow through evaluation like pure ones.
        pure = maximally_entangled(2)
        rho = QuantumState.density(
            0.7 * np.outer(pure.data, pure.data.conj()) + 0.3 * np.eye(4) / 4,
            (2, 2),
        )
        net = network_product_state([rho, pure])
        assert net.kind == "density"
        f = build_functional(Kind.BILOCAL, 2, 2)
        from netbell.optimize import optimal_assignment

        _, assignment = optimal_assignment(f)
        value, _ = eval_functional(f, net, assignment)
        # One noisy wing scales its correlators by 0.7: value
        # sqrt(2*0.7) + sqrt(2*0.7) in place of 2*sqrt(2).
        assert value == pytest.approx(2 * math.sqrt(2 * 0.7), abs=1e-9)


class TestPublicSurface:
    def test_all_names_resolve(self):
        assert [name for name in netbell.__all__ if not hasattr(netbell, name)] == []

    def test_traced_layers_exist(self):
        # The traced benchmark wraps every function in its layer map and
        # stops with MissingLayer when one of them is gone.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        with tracer.Tracer().active() as bound:
            assert sorted(bound) == sorted(tracer.TRACED)
