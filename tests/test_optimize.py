import math

import numpy as np
import pytest
import scipy.sparse.linalg

from netbell import tolerances as tol
from netbell.errors import DimensionGuard, NonHermitianInput
from netbell.functionals import (
    Kind,
    ObservableAssignment,
    build_functional,
    eval_functional,
    quantum_bound,
)
from netbell.optimize import (
    _DENSE_EIG_LIMIT,
    SeesawConfig,
    _correlators,
    _edge_update,
    _random_involution,
    _steering,
    _top_eigvec,
    _Workspace,
    best_response_observable,
    optimal_assignment,
    seesaw_optimize,
    vector_model_optimize,
    vector_model_value,
)
from netbell.qcore import expectation, tensor_all, vector_norm_applied
from netbell.states import (
    SIGMA_X,
    SIGMA_Z,
    Observable,
    QuantumState,
    network_product_state,
    random_two_qubit_density,
)

SQ2 = math.sqrt(2)


class TestBestResponse:
    def test_already_an_involution(self):
        assert np.allclose(best_response_observable(SIGMA_Z).matrix, SIGMA_Z)

    def test_scaling_invariance(self):
        assert np.allclose(best_response_observable(3 * SIGMA_X).matrix, SIGMA_X)

    def test_eigenvalue_signs(self):
        h = np.diag([2.0, -1.0, 0.5, -0.1])
        got = best_response_observable(h).matrix
        assert np.allclose(got, np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_maximizes_trace(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        best = best_response_observable(h).matrix
        target = np.trace(best @ h).real
        assert target == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(h))))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            best_response_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def run_seesaw(kind, m, n, dim=2, restarts=5, seed=7):
    f = build_functional(kind, m, n)
    cfg = SeesawConfig(edge_dim=dim, restarts=restarts, seed=seed,
                       tol=1e-15, max_iters=600)
    return f, seesaw_optimize(f, cfg)


class TestSeesaw:
    def test_chsh_optimum(self):
        f, res = run_seesaw(Kind.CHSH, 2, 1)
        assert res.value == pytest.approx(2 * SQ2, abs=1e-6)
        assert res.converged

    def test_chained_optima(self):
        _, res3 = run_seesaw(Kind.CHAINED, 3, 1)
        assert res3.value == pytest.approx(3 * math.sqrt(3), abs=1e-6)
        _, res4 = run_seesaw(Kind.CHAINED, 4, 1)
        assert res4.value == pytest.approx(4 * math.sqrt(2 + SQ2), abs=1e-6)

    def test_network_optima(self):
        _, res = run_seesaw(Kind.BILOCAL, 2, 2)
        assert res.value == pytest.approx(2 * SQ2, abs=1e-5)
        _, res = run_seesaw(Kind.STAR, 2, 3)
        assert res.value == pytest.approx(2 * SQ2, abs=1e-5)
        _, res = run_seesaw(Kind.XI, 3, 2, restarts=8)
        assert res.value == pytest.approx(3 * math.sqrt(3), abs=1e-4)

    def test_gm4_needs_two_qubit_pairs(self):
        # Full optimum 16 needs local dimension 4; dimension 2 tops out at
        # the ambient-3 vector value.
        _, res4 = run_seesaw(Kind.GM, 4, 1, dim=4, restarts=10)
        assert res4.value == pytest.approx(16.0, abs=1e-4)
        _, res2 = run_seesaw(Kind.GM, 4, 1, dim=2, restarts=12, seed=11)
        v3, _ = vector_model_optimize(build_functional(Kind.GM, 4, 1),
                                      ambient=3, seed=11)
        assert res2.value < 16.0 - 0.5
        assert res2.value == pytest.approx(v3, abs=1e-3)

    def test_history_monotone_and_bounded(self):
        bilocal = build_functional(Kind.BILOCAL, 2, 2)
        rho = network_product_state(
            [random_two_qubit_density(seed, 2) for seed in (1, 2)]
        )
        fixed = seesaw_optimize(bilocal, SeesawConfig(restarts=2, seed=3), rho)
        runs = [
            run_seesaw(kind, m, n)
            for kind, m, n in [
                (Kind.CHSH, 2, 1), (Kind.XI, 3, 2), (Kind.STAR, 2, 2),
                (Kind.GM, 3, 1), (Kind.DELTA, 3, 2),
            ]
        ] + [(bilocal, fixed)]
        for f, res in runs:
            assert all(
                b - a >= -1e-12 for a, b in zip(res.history, res.history[1:])
            )
            assert res.value <= quantum_bound(f) + 1e-7

    def test_result_state_reproduces_value(self):
        f, res = run_seesaw(Kind.CHAINED, 3, 1)
        value, _ = eval_functional(f, res.state, res.observables)
        assert value == pytest.approx(res.value, abs=1e-12)

    def test_chsh_fixed_point_anticommutation(self):
        _, res = run_seesaw(Kind.CHSH, 2, 1)
        x1 = res.observables.edge[0][0].matrix
        x2 = res.observables.edge[0][1].matrix
        anti = np.kron(x1 @ x2 + x2 @ x1, np.eye(2))
        assert abs(expectation(res.state, anti)) <= 1e-4

    def test_chained3_fixed_point_relation(self):
        _, res = run_seesaw(Kind.CHAINED, 3, 1)
        a1, a2, a3 = (o.matrix for o in res.observables.edge[0])
        op = np.kron(a1 - a2 + a3, np.eye(2))
        assert vector_norm_applied(res.state, op) <= 1e-4

    def test_seesaw_below_vector_relaxation(self):
        # Qubit observables realize exactly the ambient-3 Gram vectors, so
        # the vector value is an upper bound for the dim-2 seesaw.
        for kind, m in [(Kind.CHSH, 2), (Kind.CHAINED, 3), (Kind.GM, 3)]:
            f, res = run_seesaw(kind, m, 1)
            v, _ = vector_model_optimize(f, ambient=3, seed=1)
            assert res.value <= v + 1e-6

    def test_dimension_guard(self):
        f = build_functional(Kind.STAR, 2, 3)
        with pytest.raises(DimensionGuard):
            seesaw_optimize(f, SeesawConfig(edge_dim=6, restarts=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SeesawConfig(edge_dim=1)
        with pytest.raises(ValueError):
            SeesawConfig(tol=0.0)
        with pytest.raises(ValueError):
            SeesawConfig(restarts=0)

    def test_deterministic_given_seed(self):
        _, a = run_seesaw(Kind.CHSH, 2, 1, seed=3)
        _, b = run_seesaw(Kind.CHSH, 2, 1, seed=3)
        assert a.value == b.value
        assert a.history == b.history


KERNEL_KINDS = [
    (Kind.CHSH, 2, 1),
    (Kind.CHAINED, 3, 1),
    (Kind.GM, 3, 1),
    (Kind.GM, 4, 1),
    (Kind.BILOCAL, 2, 2),
    (Kind.STAR, 2, 3),
    (Kind.DELTA, 3, 2),
    (Kind.XI, 3, 2),
]


def random_setting(f, dims, seed):
    rng = np.random.default_rng(seed)
    edge = [
        np.array([_random_involution(dims[k], rng) for _ in range(f.m)])
        for k in range(f.parties)
    ]
    central = np.array(
        [_random_involution(dims[-1], rng) for _ in range(f.n_central_inputs)]
    )
    total = int(np.prod(dims))
    psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return edge, central, psi / np.linalg.norm(psi)


def assert_kernel_matches(states, ops, expected):
    """Check each (workspace, ket, bra) state pair against the expected
    correlators."""
    for ws, ket, bra in states:
        correlators = _correlators(ws, ket, bra, ops)
        assert np.allclose(correlators, expected, rtol=0, atol=1e-12)
        # Tr(ops[j][t] H_j[t]) recovers every correlator from each slot.
        for j in range(len(ws.dims)):
            rest = ops[:j] + [None] + ops[j + 1 :]
            steer = _steering(ws, ket, bra, j, rest)
            got = np.einsum("tab,tba->t", ops[j], steer).real
            assert np.allclose(got, expected, rtol=0, atol=1e-12)


def assert_top_eigvec_matches_dense_eigh(dims):
    """_top_eigvec of a random xi m=3 n=2 Bell operator on slots ``dims``
    against the top eigenvalue of the operator built densely."""
    f = build_functional(Kind.XI, 3, 2)
    ws = _Workspace(f, dims)
    edge, central, psi = random_setting(f, dims, seed=5)
    ops = ws.slot_ops(edge, central)
    w = np.random.default_rng(6).standard_normal(f.n_terms)
    g = sum(wi * tensor_all([op[i] for op in ops]) for i, wi in enumerate(w))
    vec = _top_eigvec(ws, ops, w, psi)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    top = np.linalg.eigvalsh(g)[-1]
    assert np.vdot(vec, g @ vec).real == pytest.approx(top, rel=1e-10)


class TestBatchedKernel:
    @pytest.mark.parametrize("kind,m,n", KERNEL_KINDS)
    def test_correlators_and_steering_match_eval_functional(self, kind, m, n):
        f = build_functional(kind, m, n)
        dims = (2,) * f.parties + (2**f.parties,)
        edge, central, psi = random_setting(f, dims, seed=len(f.terms) + n)
        ops = _Workspace(f, dims).slot_ops(edge, central)
        assignment = ObservableAssignment(
            edge=tuple(tuple(Observable(a) for a in row) for row in edge),
            central=tuple(Observable(b) for b in central),
        )
        _, expected = eval_functional(f, QuantumState.pure(psi, dims), assignment)
        rho = np.outer(psi, psi.conj())
        states = [
            (_Workspace(f, dims), psi[:, None], psi[:, None]),
            (_Workspace(f, dims, len(rho)), rho, np.eye(len(rho))),
        ]
        assert_kernel_matches(states, ops, expected.values)

    @pytest.mark.parametrize("kind,m,n", KERNEL_KINDS)
    def test_full_rank_density_matches_eval_functional(self, kind, m, n):
        f = build_functional(kind, m, n)
        dims = (2,) * f.parties + (2**f.parties,)
        edge, central, _ = random_setting(f, dims, seed=len(f.terms) + 2 * n)
        ops = _Workspace(f, dims).slot_ops(edge, central)
        total = int(np.prod(dims))
        g = np.random.default_rng(total).standard_normal((total, total, 2)) @ [1, 1j]
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
        assert np.linalg.matrix_rank(rho) == total
        assignment = ObservableAssignment(
            edge=tuple(tuple(Observable(a) for a in row) for row in edge),
            central=tuple(Observable(b) for b in central),
        )
        _, expected = eval_functional(f, QuantumState.density(rho, dims), assignment)
        states = [(_Workspace(f, dims, total), rho, np.eye(total))]
        assert_kernel_matches(states, ops, expected.values)

    @pytest.mark.parametrize(
        "dims,lanczos",
        [
            ((3, 3, 9), False),
            ((5, 5, 21), True),
            ((2, 2, 32), False),
            ((3, 3, 15), True),
        ],
    )
    def test_top_eigvec_matches_dense_eigh(self, dims, lanczos):
        # 2 * 2 * 32 = 128 is the dense limit itself; 135 and 525 lie above it.
        assert (np.prod(dims) > _DENSE_EIG_LIMIT) == lanczos
        assert_top_eigvec_matches_dense_eigh(dims)

    def test_lanczos_retries_after_no_convergence(self, monkeypatch):
        # ARPACK can stall at machine precision when its start vector is
        # already a top eigenvector (seen on `optimize --expr star --n 4
        # --seed 3`); the solve is retried at the looser tolerance.
        real, tols = scipy.sparse.linalg.eigsh, []

        def stalls_once(*args, **kwargs):
            tols.append(kwargs.get("tol", 0))
            if len(tols) == 1:
                raise scipy.sparse.linalg.ArpackNoConvergence(
                    "stalled", np.empty(0), np.empty((0, 0))
                )
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalls_once)
        assert_top_eigvec_matches_dense_eigh((3, 3, 15))
        assert tols == [0, tol.LANCZOS_RETRY]

    def test_edge_update_keeps_unweighted_setting(self):
        # Chained m=3 terms are A0+A1, A1+A2, A2-A0: with only the middle
        # term weighted, setting 0 has nothing to respond to.
        f = build_functional(Kind.CHAINED, 3, 1)
        dims = (2, 2)
        ws = _Workspace(f, dims)
        edge, central, psi = random_setting(f, dims, seed=3)
        held = edge[0].copy()
        ket = psi[:, None]
        steer = _steering(ws, ket, ket, 0, [None, central])
        new = _edge_update(ws, 0, edge[0], np.array([0.0, 1.0, 0.0]), steer)
        assert np.array_equal(edge[0], held)
        assert np.array_equal(new[0], held[0])
        best = best_response_observable(steer[1]).matrix
        for x in (1, 2):
            assert np.allclose(new[x], best, atol=1e-12)


class TestVectorModel:
    def test_chsh_orthogonal_vectors(self):
        f = build_functional(Kind.CHSH, 2, 1)
        value, model = vector_model_optimize(f, ambient=2, seed=0)
        assert value == pytest.approx(2 * SQ2, abs=1e-9)
        v1, v2 = model.vectors[0]
        assert abs(np.dot(v1, v2)) <= 1e-4

    def test_chained_m5(self):
        f = build_functional(Kind.CHAINED, 5, 1)
        value, _ = vector_model_optimize(f, ambient=2, seed=0)
        assert value == pytest.approx(10 * math.cos(math.pi / 10), abs=1e-8)

    def test_gm4_full_and_restricted_ambient(self):
        f = build_functional(Kind.GM, 4, 1)
        full, model = vector_model_optimize(f, ambient=4, seed=0)
        assert full == pytest.approx(16.0, abs=1e-8)
        gram = model.vectors[0] @ model.vectors[0].T
        assert np.allclose(gram, np.eye(4), atol=1e-4)  # orthonormal frame
        restricted, _ = vector_model_optimize(f, ambient=3, seed=0)
        assert restricted < full - 0.5

    @pytest.mark.parametrize(
        "kind,m,n,ambient",
        [
            (Kind.CHSH, 2, 1, 2),
            (Kind.CHAINED, 6, 1, 2),
            (Kind.GM, 5, 1, 5),
            (Kind.BILOCAL, 2, 2, 2),
            (Kind.STAR, 2, 4, 2),
            (Kind.DELTA, 3, 2, 3),
            (Kind.DELTA, 4, 3, 4),
            (Kind.XI, 3, 3, 2),
            (Kind.XI, 4, 2, 2),
        ],
    )
    def test_reproduces_quantum_bound(self, kind, m, n, ambient):
        f = build_functional(kind, m, n)
        value, _ = vector_model_optimize(f, ambient=ambient, seed=5)
        assert value == pytest.approx(quantum_bound(f), abs=1e-7)

    def test_reproducible_by_seed(self):
        f = build_functional(Kind.XI, 3, 2)
        a, _ = vector_model_optimize(f, ambient=2, seed=9)
        b, _ = vector_model_optimize(f, ambient=2, seed=9)
        assert a == b

    def test_value_of_explicit_model(self):
        f = build_functional(Kind.CHSH, 2, 1)
        vectors = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        assert vector_model_value(f, vectors) == pytest.approx(2 * SQ2)


class TestOptimalAssignment:
    @pytest.mark.parametrize(
        "kind,m,n",
        [
            (Kind.CHSH, 2, 1),
            (Kind.CHAINED, 3, 1),
            (Kind.CHAINED, 4, 1),
            (Kind.CHAINED, 5, 1),
            (Kind.GM, 2, 1),
            (Kind.GM, 3, 1),
            (Kind.GM, 4, 1),
            (Kind.GM, 5, 1),
            (Kind.BILOCAL, 2, 2),
            (Kind.STAR, 2, 3),
            (Kind.DELTA, 3, 2),
            (Kind.XI, 3, 2),
            (Kind.XI, 4, 2),
        ],
    )
    def test_saturates_quantum_bound(self, kind, m, n):
        f = build_functional(kind, m, n)
        state, assignment = optimal_assignment(f)
        value, _ = eval_functional(f, state, assignment)
        assert value == pytest.approx(quantum_bound(f), abs=1e-8)
