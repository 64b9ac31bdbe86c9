"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Criteria with wall-clock budgets assert them.
"""

import json
import math
import time

import numpy as np
import pytest

from netbell import optimize as op
from netbell.certify import correspondence_scan, sos_certificate
from netbell.classical import (
    enumerate_deterministic_max,
    root_sum_lemma_check,
    sample_nlocal_value,
)
from netbell.cli import main
from netbell.functionals import (
    Kind,
    ObservableAssignment,
    build_functional,
    classical_bound,
    eval_functional,
    sign_family_classical_bound,
)
from netbell.optimize import (
    SeesawConfig,
    optimal_assignment,
    seesaw_optimize,
    vector_model_optimize,
)
from netbell.qcore import expectation
from netbell.states import Observable, QuantumState

SQ2 = math.sqrt(2)


def tight_seesaw(kind, m, n, dim=2, restarts=5, seed=7):
    f = build_functional(kind, m, n)
    cfg = SeesawConfig(
        edge_dim=dim, restarts=restarts, seed=seed, tol=1e-15, max_iters=600
    )
    return f, seesaw_optimize(f, cfg)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_chsh_optimum():
    t0 = time.perf_counter()
    _, res = tight_seesaw(Kind.CHSH, 2, 1, dim=2, restarts=5, seed=7)
    elapsed = time.perf_counter() - t0
    assert res.value == pytest.approx(2.828427125, abs=1e-6)
    assert elapsed < 1.0
    report(1, f"CHSH seesaw value {res.value:.9f} in {elapsed:.3f}s")


def test_criterion_2_chained_optima():
    t0 = time.perf_counter()
    _, res3 = tight_seesaw(Kind.CHAINED, 3, 1)
    _, res4 = tight_seesaw(Kind.CHAINED, 4, 1)
    assert res3.value == pytest.approx(5.196152423, abs=1e-6)
    assert res4.value == pytest.approx(7.391036260, abs=1e-6)
    for m in range(2, 9):
        f = build_functional(Kind.CHAINED, m, 1)
        value, _ = vector_model_optimize(f, ambient=2, seed=3)
        assert value == pytest.approx(2 * m * math.cos(math.pi / (2 * m)), abs=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"chained m=3,4 seesaw and m=2..8 vector model in {elapsed:.3f}s")


def test_criterion_3_gm_optimum():
    # The closed construction below is realize of orthonormal vectors:
    # anticommuting_set observables on maximally_entangled(2^floor(m/2))
    # sources (see optimal_assignment).
    for m in range(2, 6):
        f = build_functional(Kind.GM, m, 1)
        state, assignment = optimal_assignment(f)
        value, _ = eval_functional(f, state, assignment)
        assert value == pytest.approx(2 ** (m - 1) * math.sqrt(m), abs=1e-8)
    f4 = build_functional(Kind.GM, 4, 1)
    cfg = SeesawConfig(edge_dim=2, restarts=50, seed=11, tol=1e-15, max_iters=600)
    restricted = seesaw_optimize(f4, cfg).value
    ambient3, vectors = vector_model_optimize(f4, ambient=3, seed=11, restarts=20)
    assert restricted < 16.0
    assert restricted == pytest.approx(ambient3, abs=1e-3)
    # The ambient-3 optimum, realized on qubits, is certified optimal there.
    assert ambient3 == pytest.approx(15.4548, abs=1e-4)
    cert = sos_certificate(f4, *op.realize(f4, vectors))
    assert cert.value == pytest.approx(ambient3, abs=1e-10)
    assert abs(cert.gap) <= 1e-10 and cert.gamma_min_eig >= -1e-10
    report(
        3,
        f"sign-family closed-form optima m=2..5; dim-2 ceiling "
        f"{restricted:.6f} matches ambient-3 value {ambient3:.6f}, "
        f"certified through realize",
    )


def test_criterion_4_classical_bounds_by_enumeration(capsys):
    t0 = time.perf_counter()
    cases = [build_functional(Kind.CHSH, 2, 1)]
    cases += [build_functional(Kind.CHAINED, m, 1) for m in range(2, 6)]
    cases += [build_functional(Kind.BILOCAL, 2, 2)]
    cases += [build_functional(Kind.STAR, 2, n) for n in (1, 2, 3)]
    cases += [
        build_functional(Kind.XI, m, n) for m in (2, 3, 4) for n in (1, 2)
    ]
    cases += [
        build_functional(Kind.DELTA, m, n) for m in (2, 3, 4) for n in (1, 2)
    ]
    cases += [build_functional(Kind.GM, m, 1) for m in range(2, 6)]
    for f in cases:
        value, witness = enumerate_deterministic_max(f)
        assert value == classical_bound(f), f"{f.kind} m={f.m} n={f.n}"
        assert witness is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0

    # The printed-bound discrepancy for the sign family is settled by
    # enumeration (6 at m=3, not 9) and recorded in the run note.
    assert enumerate_deterministic_max(build_functional(Kind.GM, 3, 1))[0] == 6.0
    assert sign_family_classical_bound(3) == 6 != 9
    code = main(["bound", "--expr", "gm", "--m", "3", "--method", "enumerate"])
    out = capsys.readouterr().out
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 6.0
    assert "enumeration" in rec["note"]
    report(4, f"{len(cases)} enumerations match formulas in {elapsed:.2f}s")


def test_criterion_5_bilocal_correspondence():
    t0 = time.perf_counter()
    rep = correspondence_scan(build_functional(Kind.BILOCAL, 2, 2), trials=1000, seed=7)
    elapsed = time.perf_counter() - t0
    for r in rep.results:
        assert r.network_value <= r.bound + 1e-9
        if r.both_violate:
            assert r.network_violates
    assert rep.satisfied
    assert rep.implication_failures == 0
    assert elapsed < 10.0
    both = sum(1 for r in rep.results if r.both_violate)
    report(
        5,
        f"1000 pairs: zero bound violations, implication held in all "
        f"{both} double-violation pairs, {elapsed:.2f}s",
    )


def test_criterion_6_network_optima():
    _, res_b = tight_seesaw(Kind.BILOCAL, 2, 2)
    assert res_b.value == pytest.approx(2 * SQ2, abs=1e-5)
    for n in (2, 3):
        _, res_s = tight_seesaw(Kind.STAR, 2, n)
        assert res_s.value == pytest.approx(2 * SQ2, abs=1e-5)
    _, res_xi = tight_seesaw(Kind.XI, 3, 2, restarts=8)
    assert res_xi.value == pytest.approx(3 * math.sqrt(3), abs=1e-4)
    report(6, "bilocal and star n=2,3 reach 2*sqrt(2); xi m=3 n=2 reaches 3*sqrt(3)")


def _random_assignment(f, rng, dim=2):
    parties = 1 if f.n == 1 else f.n
    central_dim = dim**parties
    edge = tuple(
        tuple(Observable(op._random_involution(dim, rng)) for _ in range(f.m))
        for _ in range(parties)
    )
    central = tuple(
        Observable(op._random_involution(central_dim, rng))
        for _ in range(f.n_terms)
    )
    dims = (dim,) * parties + (central_dim,)
    vec = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(
        int(np.prod(dims))
    )
    return QuantumState.pure(vec / np.linalg.norm(vec), dims), ObservableAssignment(
        edge=edge, central=central
    )


def test_criterion_7_sos_certificates():
    for kind, m, n in [
        (Kind.CHSH, 2, 1),
        (Kind.CHAINED, 3, 1),
        (Kind.CHAINED, 4, 1),
        (Kind.BILOCAL, 2, 2),
    ]:
        f, res = tight_seesaw(kind, m, n)
        rep = sos_certificate(f, res.state, res.observables)
        assert max(rep.residuals) <= 1e-6, (kind, max(rep.residuals))
        assert rep.gap <= 1e-6
        assert rep.gamma_min_eig >= -1e-8

    rng = np.random.default_rng(17)
    checked = 0
    for kind, m, n in [
        (Kind.CHSH, 2, 1),
        (Kind.CHAINED, 4, 1),
        (Kind.BILOCAL, 2, 2),
        (Kind.XI, 3, 2),
    ]:
        f = build_functional(kind, m, n)
        for _ in range(25):
            state, assignment = _random_assignment(f, rng)
            rep = sos_certificate(f, state, assignment)
            identity = abs(
                rep.gap
                - sum(w / 2 * r**2 for w, r in zip(rep.weights, rep.residuals))
            )
            assert identity <= 1e-8
            checked += 1
    assert checked == 100
    report(7, "residuals/gap/PSD at 4 optima; gap identity at 100 assignments")


def test_criterion_8_root_sum_lemma():
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        terms = int(rng.integers(1, 9))
        z = rng.uniform(0.0, 10.0, size=(n, terms))
        assert root_sum_lemma_check(z, n)
    report(8, "10^4 random nonnegative matrices satisfy the product lemma")


def test_criterion_9_nlocal_mixture_sampling():
    bilocal = build_functional(Kind.BILOCAL, 2, 2)
    best_b = sample_nlocal_value(bilocal, trials=10_000, support_size=2, seed=13)
    assert best_b <= classical_bound(bilocal) + 1e-12
    xi = build_functional(Kind.XI, 3, 2)
    best_x = sample_nlocal_value(xi, trials=10_000, support_size=2, seed=14)
    assert best_x <= classical_bound(xi) + 1e-12
    report(
        9,
        f"10^4 mixtures: bilocal max {best_b:.6f} <= 2, xi max {best_x:.6f} <= 4",
    )


def test_fixed_point_property_checks():
    # Desk-scale stand-ins for the full self-testing claims: the optimal
    # observables recovered by the seesaw obey the algebraic fixed-point
    # relations.
    _, res = tight_seesaw(Kind.CHSH, 2, 1)
    x1 = res.observables.edge[0][0].matrix
    x2 = res.observables.edge[0][1].matrix
    anti = np.kron(x1 @ x2 + x2 @ x1, np.eye(2))
    assert abs(expectation(res.state, anti)) <= 1e-4

    _, res3 = tight_seesaw(Kind.CHAINED, 3, 1)
    a1, a2, a3 = (o.matrix for o in res3.observables.edge[0])
    rel = np.kron(a1 - a2 + a3, np.eye(2))
    assert np.linalg.norm(rel @ res3.state.data) <= 1e-4
    report("fixed-point", "CHSH anticommutation and chained m=3 relation hold")
