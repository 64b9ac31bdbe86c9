import math

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netbell import optimize
from netbell import tolerances as tol
from netbell.certify import sos_certificate
from netbell.errors import InvalidInput, TooLarge, ZeroNorm
from netbell.functionals import (
    BIPARTITE_KINDS,
    Kind,
    ObservableAssignment,
    build_functional,
    combine,
    eval_functional,
    quantum_bound,
)
from netbell.optimize import (
    TOTAL_DIMENSION_GUARD,
    SeesawConfig,
    _correlators,
    _edge_update,
    _extreme_eig,
    _lanczos_top,
    _random_involution,
    _seesaw_lockstep,
    _sign_eig,
    _steering,
    _weights,
    _top_eigvec,
    _traced,
    _vector_gradient,
    _Workspace,
    optimal_assignment,
    realize,
    seesaw_optimize,
    vector_model_optimize,
    vector_model_value,
)
from netbell.qcore import expectation, tensor_all
from netbell.states import (
    SIGMA_X,
    SIGMA_Z,
    Observable,
    QuantumState,
    anticommuting_set,
    network_product_state,
    random_two_qubit_density,
)

SQ2 = math.sqrt(2)


class TestBestResponse:
    """``_sign_eig`` is the best response: the Hermitian involution A that
    maximizes Tr(A H)."""

    def test_already_an_involution(self):
        assert np.allclose(_sign_eig(SIGMA_Z), SIGMA_Z)

    def test_scaling_invariance(self):
        assert np.allclose(_sign_eig(3 * SIGMA_X), SIGMA_X)

    def test_eigenvalue_signs(self):
        h = np.diag([2.0, -1.0, 0.5, -0.1])
        assert np.allclose(_sign_eig(h), np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_zero_eigenvalues_map_to_plus_one(self):
        assert np.allclose(_sign_eig(np.diag([0.0, -1.0, 0.0])), np.diag([1.0, -1.0, 1.0]))
        assert np.allclose(_sign_eig(np.zeros((2, 2))), np.eye(2))

    def test_maximizes_trace(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        target = np.trace(_sign_eig(h) @ h).real
        assert target == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(h))))


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

    @pytest.mark.parametrize(
        "kind,m,n,ranks", [(Kind.STAR, 2, 3, (1, 1, 1)), (Kind.XI, 3, 2, (2, 3))]
    )
    def test_fixed_density_reproduces_value(self, kind, m, n, ranks):
        # The seesaw contracts the density's (D, r) factor; eval_functional
        # takes Tr(O rho) on the density itself.
        f = build_functional(kind, m, n)
        rho = network_product_state(
            [random_two_qubit_density(5 + k, r) for k, r in enumerate(ranks)]
        )
        res = seesaw_optimize(f, SeesawConfig(restarts=2, seed=1), fixed_state=rho)
        assert res.state is rho
        value, _ = eval_functional(f, rho, res.observables)
        assert value == pytest.approx(res.value, abs=1e-10)

    def test_fixed_state_with_wrong_slot_count(self):
        f = build_functional(Kind.STAR, 2, 3)
        rho = network_product_state([random_two_qubit_density(k, 1) for k in range(2)])
        with pytest.raises(InvalidInput, match="fixed state must have 4 slots, got 3"):
            seesaw_optimize(f, SeesawConfig(restarts=1), fixed_state=rho)

    def test_fixed_states_must_share_one_shape(self, monkeypatch):
        f = build_functional(Kind.STAR, 2, 2)
        pure, mixed = (network_product_state([random_two_qubit_density(k, r) for k in range(2)])
                       for r in (1, 2))
        cfg = SeesawConfig(restarts=1, max_iters=2)
        with pytest.raises(InvalidInput, match="share subsystem dims and factor shape"):
            seesaw_optimize(f, cfg, [(pure, 0), (mixed, 1)])
        with pytest.raises(InvalidInput, match="at least one fixed state"):
            seesaw_optimize(f, cfg, [])
        # The work guard counts every state's restarts.
        monkeypatch.setattr(optimize, "SEESAW_WORK_BUDGET", 2 * 2 * 16**2)
        assert len(seesaw_optimize(f, cfg, [(pure, 0), (pure, 1)])) == 2
        with pytest.raises(TooLarge, match=r"states x restarts"):
            seesaw_optimize(f, cfg, [(pure, 0), (pure, 1), (pure, 2)])

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
        assert np.linalg.norm(op @ res.state.data) <= 1e-4

    def test_seesaw_below_vector_relaxation(self):
        # Qubit observables realize exactly the ambient-3 Gram vectors, so
        # the vector value is an upper bound for the dim-2 seesaw.
        for kind, m in [(Kind.CHSH, 2), (Kind.CHAINED, 3), (Kind.GM, 3)]:
            f, res = run_seesaw(kind, m, 1)
            v, _ = vector_model_optimize(f, ambient=3, seed=1)
            assert res.value <= v + 1e-6

    def test_dimension_guard(self):
        f = build_functional(Kind.STAR, 2, 3)
        with pytest.raises(TooLarge, match="total dimension"):
            seesaw_optimize(f, SeesawConfig(edge_dim=6, restarts=1))

    def test_work_guard_refuses_before_spawning(self, monkeypatch):
        # 10^11 restarts of chsh: restarts x max_iters x D^2 = 6.4e14.
        def spawn(*args, **kwargs):
            raise AssertionError("a restart generator was spawned")

        monkeypatch.setattr(np.random, "SeedSequence", spawn)
        f = build_functional(Kind.CHSH, 2, 1)
        with pytest.raises(TooLarge, match="seesaw work"):
            seesaw_optimize(f, SeesawConfig(restarts=10**11))

    def test_work_guard_admits_its_budget(self, monkeypatch):
        # CI's largest seesaw, star n=3 at --dim 3 (D = 729) with the CLI's
        # 5 restarts and 600 sweeps, lies 100 times below the budget.
        assert optimize.SEESAW_WORK_BUDGET >= 100 * 5 * 600 * 729**2
        f = build_functional(Kind.CHSH, 2, 1)
        monkeypatch.setattr(optimize, "SEESAW_WORK_BUDGET", 2 * 3 * 4**2)
        assert seesaw_optimize(f, SeesawConfig(restarts=2, max_iters=3)).iterations <= 3
        with pytest.raises(TooLarge, match="exceeds budget 96"):
            seesaw_optimize(f, SeesawConfig(restarts=3, max_iters=3))

    def test_config_validation(self):
        for bad in (
            {"edge_dim": 1},
            {"tol": 0.0},
            {"tol": -1e-12},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"restarts": 0},
            {"max_iters": 0},
            {"max_iters": -1},
        ):
            with pytest.raises(InvalidInput, match=next(iter(bad))):
                SeesawConfig(**bad)

    def test_deterministic_given_seed(self):
        _, a = run_seesaw(Kind.CHSH, 2, 1, seed=3)
        _, b = run_seesaw(Kind.CHSH, 2, 1, seed=3)
        assert a.value == b.value
        assert a.history == b.history


def lockstep_runs(f, cfg, state=None):
    """The restarts of ``cfg`` run as one lockstep stack and each one alone,
    as a one-restart stack from the same generator."""
    if state is None:
        dims, factor = (cfg.edge_dim,) * f.n + (cfg.edge_dim**f.n,), None
    else:
        dims, factor = tuple(state.subsystem_dims), state.factor
    ws = _Workspace(dims)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    stack = _seesaw_lockstep(f, ws, [np.random.default_rng(c) for c in children], cfg, factor)
    alone = [_seesaw_lockstep(f, ws, [np.random.default_rng(c)], cfg, factor)[0] for c in children]
    return stack, alone


def assert_stack_equals_slices(stack, alone):
    """Value, ket, observables, history and convergence, bit for bit."""
    assert len(stack) == len(alone)
    for got, want in zip(stack, alone):
        value, ket, edge, central, history, converged = got
        assert value == want[0] and converged == want[5]
        assert np.array_equal(ket, want[1])
        assert len(edge) == len(want[2])
        assert all(np.array_equal(a, b) for a, b in zip(edge, want[2]))
        assert np.array_equal(central, want[3])
        assert history == want[4]


class TestLockstep:
    """Restarts run as lockstep stacks; each restart's result is
    bit-identical to running it alone."""

    @pytest.mark.parametrize(
        "kind,m,n,restarts,max_iters",
        [
            (Kind.GM, 4, 1, 10, 400),
            (Kind.STAR, 2, 3, 3, 400),
            (Kind.XI, 3, 2, 4, 400),
            # D = 256: one Lanczos solve per stacked restart.
            (Kind.XI, 3, 4, 2, 400),
        ],
    )
    def test_free_state_stack_equals_slices(self, kind, m, n, restarts, max_iters):
        f = build_functional(kind, m, n)
        cfg = SeesawConfig(restarts=restarts, max_iters=max_iters, seed=1)
        stack, alone = lockstep_runs(f, cfg)
        assert_stack_equals_slices(stack, alone)
        if kind == Kind.GM:
            # Restarts leave the stack after different sweep counts.
            assert len({len(run[4]) for run in stack}) > 1

    def test_fixed_density_stack_equals_slices(self):
        # A four-column factor, iteration-capped so that some restarts leave
        # converged and the rest at max_iters.
        f = build_functional(Kind.STAR, 2, 3)
        rho = network_product_state(
            [random_two_qubit_density(3 + k, r) for k, r in enumerate((1, 4, 1))]
        )
        assert rho.factor.shape[1] == 4
        stack, alone = lockstep_runs(f, SeesawConfig(restarts=4, max_iters=20, seed=1), rho)
        assert {run[5] for run in stack} == {True, False}
        assert_stack_equals_slices(stack, alone)

    def test_fixed_states_in_one_stack_equal_their_own_calls(self, monkeypatch):
        # Three (64, 16) factors x 2 restarts share one lockstep stack; each
        # state's result equals its one-state call bit for bit.
        f = build_functional(Kind.STAR, 2, 3)
        states = [
            network_product_state([random_two_qubit_density(7 * s + k, r)
                                   for k, r in enumerate((1, 4, 4))])
            for s in range(3)
        ]
        assert all(rho.factor.shape == (64, 16) for rho in states)
        real, seen = optimize._seesaw_lockstep, []

        def recording(f, ws, rngs, cfg, factor):
            seen.append(len(rngs))
            return real(f, ws, rngs, cfg, factor)

        monkeypatch.setattr(optimize, "_seesaw_lockstep", recording)
        cfg = SeesawConfig(restarts=2, max_iters=30)
        pairs = [(rho, 11 + s) for s, rho in enumerate(states)]
        stacked = seesaw_optimize(f, cfg, pairs)
        assert seen == [6]
        for got, (rho, seed) in zip(stacked, pairs):
            want = seesaw_optimize(f, SeesawConfig(restarts=2, max_iters=30, seed=seed), rho)
            assert got.state is rho and got.value == want.value
            assert got.history == want.history and got.converged == want.converged
            for a, b in zip(got.observables.edge, want.observables.edge):
                assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a, b))
            assert all(np.array_equal(x.matrix, y.matrix)
                       for x, y in zip(got.observables.central, want.observables.central))
        assert len({res.value for res in stacked}) == 3

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from([(Kind.CHSH, 2, 1), (Kind.BILOCAL, 2, 2), (Kind.CHAINED, 4, 1),
                         (Kind.DELTA, 3, 2)]),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_slices_over_seeds(self, scenario, restarts, seed):
        f = build_functional(*scenario)
        cfg = SeesawConfig(restarts=restarts, max_iters=60, seed=seed)
        assert_stack_equals_slices(*lockstep_runs(f, cfg))

    @pytest.mark.parametrize(
        "kind,m,n,edge_dim,restarts,sizes",
        [
            (Kind.GM, 4, 1, 2, 10, [10]),  # D = 4, T = 8
            (Kind.BILOCAL, 2, 2, 3, 3, [2, 1]),  # D = 81, T = 2
            (Kind.CHAINED, 4, 1, 11, 2, [1, 1]),  # D = 121, T = 4
            (Kind.XI, 3, 4, 2, 2, [1, 1]),  # D = 256, T = 4
        ],
    )
    def test_stack_sizes_hold_the_krylov_memory(
        self, monkeypatch, kind, m, n, edge_dim, restarts, sizes
    ):
        # A free-state stack of R restarts holds R x (64 + T) x D entries:
        # the Lanczos bases, their images and one apply. Under a budget of
        # 2 x 81 x 66 entries, D = 81 runs in stacks of two and D >= 121
        # alone; the real budget of 2^20 fits each of these in one stack.
        real, seen = optimize._seesaw_lockstep, []

        def recording(f, ws, rngs, cfg, factor):
            seen.append(len(rngs))
            return real(f, ws, rngs, cfg, factor)

        monkeypatch.setattr(optimize, "_seesaw_lockstep", recording)
        f = build_functional(kind, m, n)
        for budget, want in ((2 * 81 * 66, sizes), (optimize._STACK_ENTRIES, [restarts])):
            monkeypatch.setattr(optimize, "_STACK_ENTRIES", budget)
            seen.clear()
            seesaw_optimize(f, SeesawConfig(edge_dim=edge_dim, restarts=restarts, max_iters=1))
            assert seen == want

    def test_fixed_density_stack_size_follows_the_rank(self, monkeypatch):
        # A fixed (D, r) factor's stack holds R x T x D x r entries: at D = 64,
        # T = 2 and r = 16 a budget of 2^20 holds 512 restarts, so all ten
        # run in one stack.
        f = build_functional(Kind.STAR, 2, 3)
        rho = network_product_state(
            [random_two_qubit_density(3 + k, r) for k, r in enumerate((1, 4, 4))]
        )
        assert rho.factor.shape == (64, 16)
        real, seen = optimize._seesaw_lockstep, []

        def recording(f, ws, rngs, cfg, factor):
            seen.append(len(rngs))
            return real(f, ws, rngs, cfg, factor)

        monkeypatch.setattr(optimize, "_seesaw_lockstep", recording)
        cfg = SeesawConfig(restarts=10, max_iters=4, seed=2)
        seesaw_optimize(f, cfg, fixed_state=rho)
        assert seen == [10]
        assert_stack_equals_slices(*lockstep_runs(f, cfg, rho))

    def test_weights_fall_back_to_signs_per_restart(self):
        # Restart 0's correlators all lie below the weight clamp, so its
        # linearization falls back to their signs; restart 1 keeps its
        # gradient. Each row equals its one-restart call.
        f = build_functional(Kind.STAR, 2, 3)
        corr = np.array([[-1e-10, 0.0], [0.5, -0.25]])
        w = _weights(f, corr)
        assert np.array_equal(w[0], [-1.0, 1.0])
        assert np.all(w[1] != 0) and np.all(np.sign(w[1]) == np.sign(corr[1]))
        for row in range(2):
            assert np.array_equal(_weights(f, corr[row : row + 1])[0], w[row])

    @pytest.mark.parametrize(
        "kind,m,n,edge_dim,restarts",
        [
            (Kind.CHSH, 2, 1, 2, 4),
            # D = 81 runs its restarts in stacks of 2 under this budget.
            (Kind.BILOCAL, 2, 2, 3, 3),
        ],
    )
    def test_best_restart_is_the_first_maximum(
        self, monkeypatch, kind, m, n, edge_dim, restarts
    ):
        monkeypatch.setattr(optimize, "_STACK_ENTRIES", 2 * 81 * 66)
        f = build_functional(kind, m, n)
        cfg = SeesawConfig(edge_dim=edge_dim, restarts=restarts, seed=5)
        stack, _ = lockstep_runs(f, cfg)
        res = seesaw_optimize(f, cfg)
        best = max(stack, key=lambda run: run[0])
        assert res.value == best[0]
        assert res.history == tuple(best[4])


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
        for k in range(f.n)
    ]
    central = np.array(
        [_random_involution(dims[-1], rng) for _ in range(f.n_terms)]
    )
    total = int(np.prod(dims))
    psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return edge, central, psi / np.linalg.norm(psi)


def as_assignment(edge, central) -> ObservableAssignment:
    return ObservableAssignment(
        edge=tuple(tuple(Observable(a) for a in row) for row in edge),
        central=tuple(Observable(b) for b in central),
    )


def slot_ops(f, edge, central):
    """Per-slot operator stacks: each edge party's signed sums, then the
    central observables."""
    return [f.signed_sums(e) for e in edge] + [central]


def stacked(ops):
    """A one-restart stack of per-slot operator stacks."""
    return [None if op is None else op[None] for op in ops]


def assert_kernel_matches(states, ops, expected):
    """Check each (workspace, factor) state, as a one-restart stack, against
    the expected correlators."""
    for ws, ket in states:
        correlators = _correlators(ws, ket[None], stacked(ops))[0]
        assert np.allclose(correlators, expected, rtol=0, atol=1e-12)
        # Tr(ops[j][t] H_j[t]) recovers every correlator from each slot.
        for j in range(len(ws.dims)):
            rest = ops[:j] + [None] + ops[j + 1 :]
            steer = _steering(ws, ket[None], j, stacked(rest))[0]
            got = np.einsum("tab,tba->t", ops[j], steer).real
            assert np.allclose(got, expected, rtol=0, atol=1e-12)


def assert_top_eigvec_matches_dense_eigh(dims, in_stack):
    """_top_eigvec of a random xi m=3 n=2 Bell operator on slots ``dims``
    against the top eigenvalue of the operator built densely. ``in_stack``
    also solves it as row 1 of a two-row stack, which must give its bits."""
    f = build_functional(Kind.XI, 3, 2)
    ws = _Workspace(dims)
    edge, central, psi = random_setting(f, dims, seed=5)
    ops = slot_ops(f, edge, central)
    w = np.random.default_rng(6).standard_normal(f.n_terms)
    g = sum(wi * tensor_all([op[i] for op in ops]) for i, wi in enumerate(w))
    vec = _top_eigvec(ws, stacked(ops), w[None], psi[None])[0]
    if in_stack:
        other_edge, other_central, other_psi = random_setting(f, dims, seed=7)
        pair = [np.stack(p) for p in zip(slot_ops(f, other_edge, other_central), ops)]
        both = _top_eigvec(ws, pair, np.stack([w[::-1], w]), np.stack([other_psi, psi]))
        assert np.array_equal(both[1], vec)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    top = np.linalg.eigvalsh(g)[-1]
    assert np.vdot(vec, g @ vec).real == pytest.approx(top, rel=1e-10)


class TestBatchedKernel:
    @pytest.mark.parametrize("kind,m,n", KERNEL_KINDS)
    def test_correlators_and_steering_match_eval_functional(self, kind, m, n):
        f = build_functional(kind, m, n)
        dims = (2,) * f.n + (2**f.n,)
        edge, central, psi = random_setting(f, dims, seed=f.n_terms + n)
        ops = slot_ops(f, edge, central)
        assignment = as_assignment(edge, central)
        _, expected = eval_functional(f, QuantumState.pure(psi, dims), assignment)
        factor = QuantumState.density(np.outer(psi, psi.conj()), dims).factor
        assert factor.shape == (len(psi), 1)
        states = [
            (_Workspace(dims), psi[:, None]),
            (_Workspace(dims), factor),
        ]
        assert_kernel_matches(states, ops, expected)

    @pytest.mark.parametrize("kind,m,n", KERNEL_KINDS)
    def test_full_rank_density_matches_eval_functional(self, kind, m, n):
        f = build_functional(kind, m, n)
        dims = (2,) * f.n + (2**f.n,)
        edge, central, _ = random_setting(f, dims, seed=f.n_terms + 2 * n)
        ops = slot_ops(f, edge, central)
        total = int(np.prod(dims))
        g = np.random.default_rng(total).standard_normal((total, total, 2)) @ [1, 1j]
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
        assert np.linalg.matrix_rank(rho) == total
        state = QuantumState.density(rho, dims)
        _, expected = eval_functional(f, state, as_assignment(edge, central))
        factor = state.factor
        assert factor.shape == (total, total)
        states = [(_Workspace(dims), factor)]
        assert_kernel_matches(states, ops, expected)

    @pytest.mark.parametrize(
        "kind,m,n,ranks",
        [
            (Kind.BILOCAL, 2, 2, (1, 2)),
            (Kind.XI, 3, 2, (1, 2)),
            (Kind.STAR, 2, 3, (1, 1, 1)),
        ],
    )
    def test_rank_deficient_factor_matches_eval_functional(self, kind, m, n, ranks):
        f = build_functional(kind, m, n)
        state = network_product_state(
            [random_two_qubit_density(10 * k + r, r) for k, r in enumerate(ranks)]
        )
        dims = state.subsystem_dims
        factor = state.factor
        assert factor.shape == (len(state.data), math.prod(ranks))
        assert np.max(np.abs(factor @ factor.conj().T - state.data)) <= 1e-12
        edge, central, _ = random_setting(f, dims, seed=sum(ranks) + n)
        ops = slot_ops(f, edge, central)
        _, expected = eval_functional(f, state, as_assignment(edge, central))
        states = [(_Workspace(dims), factor)]
        assert_kernel_matches(states, ops, expected)

    @pytest.mark.parametrize("kind,m,n", KERNEL_KINDS)
    def test_apply_acts_termwise_on_a_stack(self, kind, m, n):
        # Entry t of a (T, D, r) stack gets term t's operators only, and a
        # one-entry stack gets every term's.
        f = build_functional(kind, m, n)
        dims = (2,) * f.n + (2**f.n,)
        edge, central, _ = random_setting(f, dims, seed=f.n_terms + 3 * n)
        ws = _Workspace(dims)
        ops = slot_ops(f, edge, central)
        total = math.prod(dims)
        x = np.random.default_rng(total).standard_normal((f.n_terms, total, 3, 2)) @ [1, 1j]
        got = ws.apply(x, ops)
        one = ws.apply(x[:1], ops)
        assert got.shape == one.shape == x.shape
        for t in range(f.n_terms):
            dense = tensor_all([op[t] for op in ops])
            assert np.allclose(got[t], dense @ x[t], rtol=0, atol=1e-12)
            assert np.allclose(one[t], dense @ x[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "dims,in_stack",
        [
            ((3, 3, 9), False),
            ((5, 5, 21), True),
            ((2, 2, 32), False),
            ((3, 3, 15), True),
        ],
    )
    def test_top_eigvec_matches_dense_eigh(self, dims, in_stack):
        # One warm Lanczos path at every D: 81, 525, 128 and 135.
        assert_top_eigvec_matches_dense_eigh(dims, in_stack)

    def test_lanczos_is_reproducible_on_a_degenerate_top(self):
        # A threefold top eigenvalue: the Krylov space from the start vector
        # is invariant after two steps. Nothing is drawn inside the solver,
        # so repeated solves agree bit for bit.
        d = np.zeros(200)
        d[:3] = 1.0
        vecs = [_extreme_eig(lambda v: d * v, 200, "LA")[1] for _ in range(3)]
        assert np.array_equal(vecs[0], vecs[1]) and np.array_equal(vecs[0], vecs[2])


    def test_edge_update_keeps_unweighted_setting(self):
        # Chained m=3 terms are A0+A1, A1+A2, A2-A0: with only the middle
        # term weighted, setting 0 has nothing to respond to.
        f = build_functional(Kind.CHAINED, 3, 1)
        dims = (2, 2)
        ws = _Workspace(dims)
        edge, central, psi = random_setting(f, dims, seed=3)
        held = edge[0].copy()
        ket = psi[:, None]
        steer = _steering(ws, ket[None], 0, [None, central[None]])[0]
        w = np.array([[0.0, 1.0, 0.0]])
        new = _edge_update(f, edge[0][None], w, steer[None])[0]
        assert np.array_equal(edge[0], held)
        assert np.array_equal(new[0], held[0])
        best = _sign_eig(steer[1])
        for x in (1, 2):
            assert np.allclose(new[x], best, atol=1e-12)


def reference_steering(ws, ket, slot, ops):
    """The steering stack as one einsum over the slot's neighbours: the
    form ``_steering`` replaced with a batched matmul."""
    pre, d = ws.splits[slot]
    phi = ws.apply(ket[:, None], ops[:slot] + [None] + ops[slot + 1 :])
    phi = phi.reshape(phi.shape[:2] + (pre, d, -1))
    return np.einsum("...tpaq,...pzq->...taz", phi, ket.reshape(len(ket), pre, d, -1).conj())


def restart_stack(f, fixed, restarts=3):
    """Workspace, edge observables, per-slot (R, T, d, d) operator stacks and
    a state: R random settings on an R-stacked (R, D, 1) free state, or on
    a rank-2 density factor broadcast as one (1, D, r) entry."""
    if fixed:
        rho = network_product_state(
            [random_two_qubit_density(5 + k, 2 if k == 0 else 1) for k in range(f.n)]
        )
        dims = tuple(rho.subsystem_dims)
    else:
        dims = (2,) * f.n + (2**f.n,)
    drawn = [random_setting(f, dims, seed=7 + r) for r in range(restarts)]
    edge = [np.array(e) for e in zip(*(s[0] for s in drawn))]
    central = np.array([s[1] for s in drawn])
    ket = rho.factor[None] if fixed else np.array([s[2] for s in drawn])[..., None]
    return _Workspace(dims), edge, [f.signed_sums(e) for e in edge] + [central], ket


class TestSteeringValues:
    """Each seesaw move is valued from the steering stack that chose it."""

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("kind,m,n", [(Kind.XI, 3, 2), (Kind.STAR, 2, 3)])
    def test_matmul_matches_the_einsum(self, kind, m, n, fixed):
        f = build_functional(kind, m, n)
        ws, _, ops, ket = restart_stack(f, fixed)
        for slot in range(len(ws.dims)):
            got = _steering(ws, ket, slot, ops)
            assert got.shape == ops[slot].shape
            assert np.allclose(got, reference_steering(ws, ket, slot, ops), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("kind,m,n", [(Kind.XI, 3, 2), (Kind.STAR, 2, 3), (Kind.GM, 3, 1)])
    def test_trace_equals_correlators_of_the_moved_ops(self, kind, m, n, fixed):
        f = build_functional(kind, m, n)
        ws, edge, ops, ket = restart_stack(f, fixed)
        w = _weights(f, _correlators(ws, ket, ops))
        for slot in range(len(ws.dims)):
            steer = _steering(ws, ket, slot, ops)
            if slot == f.n:
                new = _sign_eig(steer)
            else:
                new = f.signed_sums(_edge_update(f, edge[slot], w, steer))
            corr, value = _traced(f, new, steer)
            want = _correlators(ws, ket, ops[:slot] + [new] + ops[slot + 1 :])
            assert np.allclose(corr, want, rtol=0, atol=1e-12)
            assert np.array_equal(value, combine(f, corr))

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_fixed_state_sweep_applies_once_per_slot(self, monkeypatch, restarts):
        # One apply for the first value, then n + 1 per sweep: n edge moves
        # and the central one, each valued from its own steering stack.
        f = build_functional(Kind.STAR, 2, 3)
        rho = network_product_state(
            [random_two_qubit_density(3 + k, r) for k, r in enumerate((1, 2, 1))]
        )
        real, calls = _Workspace.apply, []

        def counting(self, x, ops):
            calls.append(1)
            return real(self, x, ops)

        monkeypatch.setattr(_Workspace, "apply", counting)
        cfg = SeesawConfig(restarts=restarts, max_iters=40, seed=3)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(restarts)]
        runs = _seesaw_lockstep(f, _Workspace(rho.subsystem_dims), rngs, cfg, rho.factor)
        sweeps = max(len(run[4]) for run in runs) - 1
        assert sweeps >= 2
        assert len(calls) == 1 + sweeps * (f.n + 1)


def counted(apply):
    """apply, and a list that records the length of each vector applied."""
    calls = []

    def wrapped(v):
        calls.append(len(v))
        return apply(v)

    return wrapped, calls


class TestLanczos:
    """The thick-restart Lanczos branch of ``_extreme_eig``, above the dense
    limit, against dense eigh."""

    @pytest.mark.parametrize("total", [135, 525, 1024])
    @pytest.mark.parametrize("which", ["LA", "SA"])
    @pytest.mark.parametrize("clustered", [False, True])
    def test_matches_dense_eigh(self, total, which, clustered):
        rng = np.random.default_rng(total)
        g = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
        vals, vecs = np.linalg.eigh((g + g.conj().T) / 2)
        if clustered:
            # Eight extreme eigenvalues within 1e-6 of each other on each
            # side: restarts must keep all eight Ritz vectors to resolve them.
            vals[-8:] = vals[-1] - 1e-7 * np.arange(8)[::-1]
            vals[:8] = vals[0] + 1e-7 * np.arange(8)
        a = (vecs * vals) @ vecs.conj().T
        theta, y = _extreme_eig(lambda v: a @ v, total, which)
        want = vals[-1] if which == "LA" else vals[0]
        scale = max(1.0, abs(theta))
        assert abs(theta - want) <= 1e-12 * scale
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(a @ y - theta * y) <= tol.LANCZOS_RESIDUAL * scale

    def test_seeded_start_finds_a_close_top(self):
        # The two largest entries differ by 1e-6: the top, not the runner-up.
        d = np.linspace(-1.0, 1.0, 400)
        d[-1] = d[-2] + 1e-6
        theta, y = _extreme_eig(lambda v: d * v, len(d), "LA")
        assert theta == pytest.approx(d[-1], abs=1e-13)
        assert abs(y[-1]) == pytest.approx(1.0, abs=1e-6)

    def test_eigenvector_start_returns_after_one_matvec(self):
        d = np.linspace(-1.0, 1.0, 300)
        top = np.zeros(300, dtype=complex)
        top[-1] = 1j
        apply, calls = counted(lambda v: d * v)
        theta, y = _lanczos_top(lambda v, rows: apply(v[0])[None], top[None])
        assert calls == [300]
        assert theta[0] == 1.0 and np.array_equal(y[0], top)

    def test_raises_when_the_matvec_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr(optimize, "_LANCZOS_MATVECS", 10)
        d = np.linspace(-1.0, 1.0, 300)
        apply, calls = counted(lambda v: d * v)
        with pytest.raises(RuntimeError, match="10 matvecs"):
            _extreme_eig(apply, 300, "SA")
        assert len(calls) == 10


def hermitian_stack(total, rows, clustered=()):
    """(rows, D, D) random Hermitian matrices and their (rows, D, D)
    eigenvectors, in ascending order of eigenvalue; each row listed in
    ``clustered`` gets a top cluster of eight eigenvalues within 1e-6."""
    rng = np.random.default_rng(total + rows)
    q = np.linalg.qr(rng.standard_normal((rows, total, total, 2)) @ [1, 1j])[0]
    vals = np.sort(rng.standard_normal((rows, total)), axis=-1)
    for r in clustered:
        vals[r, -8:] = vals[r, -1] - 1e-7 * np.arange(8)[::-1]
    return (q * vals[:, None, :]) @ np.swapaxes(q.conj(), 1, 2), q


def batched(a, seen=None):
    """apply(x, rows) of the stack a, one batched matvec per row; ``seen``
    collects the stack height of each call."""

    def apply(x, rows):
        if seen is not None:
            seen.append(len(rows))
        return (a[rows] @ x[..., None])[..., 0]

    return apply


def start_vectors(rows, total):
    return np.random.default_rng(rows * total).standard_normal((rows, total, 2)) @ [1, 1j]


class TestStackedLanczos:
    """``_lanczos_top`` on a leading stack of R Hermitian maps."""

    @pytest.mark.parametrize("total", [4, 16, 64, 135, 1024])
    def test_matches_dense_eigh(self, total):
        clustered = (1,) if total >= 16 else ()
        a, vecs = hermitian_stack(total, 2, clustered)
        theta, y = _lanczos_top(batched(a), start_vectors(2, total))
        for r in range(2):
            top = np.linalg.eigvalsh(a[r])[-1]
            scale = max(1.0, abs(theta[r]))
            assert abs(theta[r] - top) <= 1e-12 * scale
            assert np.linalg.norm(y[r]) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(a[r] @ y[r] - theta[r] * y[r]) <= tol.LANCZOS_RESIDUAL * scale
            if r not in clustered:
                assert abs(np.vdot(vecs[r, :, -1], y[r])) == pytest.approx(1.0, abs=1e-10)

    def test_stack_equals_one_row_solves(self):
        # Row 1 starts at an eigenvector, not the top one, and leaves after
        # one matvec; row 2 has an eight-fold top cluster. Each row's bits
        # are those of its own one-row solve.
        total = 200
        a, vecs = hermitian_stack(total, 3, clustered=(2,))
        v = start_vectors(3, total)
        v[1] = vecs[1, :, 3]
        seen = []
        theta, y = _lanczos_top(batched(a, seen), v)
        assert seen[:2] == [3, 2] and seen == sorted(seen, reverse=True)
        for r in range(3):
            theta_r, y_r = _lanczos_top(batched(a[r : r + 1]), v[r : r + 1])
            assert theta[r] == theta_r[0] and np.array_equal(y[r], y_r[0])

    def test_rows_leave_at_their_own_steps(self):
        # A start in the span of two eigenvectors converges after two
        # matvecs, one in the span of five after a few more, and a generic
        # start later still. Each row
        # leaves the stack when it converges, and the rest keep stepping.
        total = 150
        a, vecs = hermitian_stack(total, 3)
        v = start_vectors(3, total)
        v[0] = vecs[0, :, -2:] @ [0.6, 0.8]
        v[1] = vecs[1, :, -5:] @ np.linspace(1.0, 2.0, 5)
        counts = []
        for r in range(3):
            one = []
            _lanczos_top(batched(a[r : r + 1], one), v[r : r + 1])
            counts.append(len(one))
        assert counts[0] == 2 and counts[0] < counts[1] < counts[2]
        seen = []
        _lanczos_top(batched(a, seen), v)
        steps = [counts[0], counts[1] - counts[0], counts[2] - counts[1]]
        assert seen == [3] * steps[0] + [2] * steps[1] + [1] * steps[2]

    def test_raises_when_the_matvec_budget_runs_out(self, monkeypatch):
        monkeypatch.setattr(optimize, "_LANCZOS_MATVECS", 10)
        a, _ = hermitian_stack(300, 2)
        seen = []
        with pytest.raises(RuntimeError, match="10 matvecs"):
            _lanczos_top(batched(a, seen), start_vectors(2, 300))
        assert seen == [2] * 10


class TestVectorModel:
    def test_chsh_orthogonal_vectors(self):
        f = build_functional(Kind.CHSH, 2, 1)
        value, vectors = vector_model_optimize(f, ambient=2, seed=0)
        assert value == pytest.approx(2 * SQ2, abs=1e-9)
        v1, v2 = vectors[0]
        assert abs(np.dot(v1, v2)) <= 1e-4

    def test_chained_m5(self):
        f = build_functional(Kind.CHAINED, 5, 1)
        value, _ = vector_model_optimize(f, ambient=2, seed=0)
        assert value == pytest.approx(10 * math.cos(math.pi / 10), abs=1e-8)

    def test_gm4_full_and_restricted_ambient(self):
        f = build_functional(Kind.GM, 4, 1)
        full, vectors = vector_model_optimize(f, ambient=4, seed=0)
        assert full == pytest.approx(16.0, abs=1e-8)
        gram = vectors[0] @ vectors[0].T
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

    def test_ambient_guard(self):
        f = build_functional(Kind.CHSH, 2, 1)
        with pytest.raises(TooLarge, match="ambient"):
            vector_model_optimize(f, ambient=TOTAL_DIMENSION_GUARD + 1)

    def test_zero_restarts_refused(self):
        # Without a restart there is no model to return.
        f = build_functional(Kind.CHSH, 2, 1)
        with pytest.raises(InvalidInput, match="restarts"):
            vector_model_optimize(f, ambient=2, restarts=0)

    def test_party_count_must_match(self):
        # A (3, 2, 2) stack would broadcast against chsh's one party.
        f = build_functional(Kind.CHSH, 2, 1)
        with pytest.raises(InvalidInput, match="vectors"):
            vector_model_value(f, np.ones((3, 2, 2)) / SQ2)
        with pytest.raises(InvalidInput, match="vectors"):
            realize(build_functional(Kind.STAR, 2, 3), np.array([np.eye(2)]))

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

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_edge_observables_pinned(self, m):
        # Sign-table kinds measure the anticommuting set itself, cyclic
        # kinds the planar fan cos(i pi/m) Z + sin(i pi/m) X.
        _, gm = optimal_assignment(build_functional(Kind.GM, m, 1))
        for got, want in zip(gm.edge[0], anticommuting_set(m)):
            assert np.array_equal(got.matrix, want.matrix)
        _, chained = optimal_assignment(build_functional(Kind.CHAINED, m, 1))
        for i, got in enumerate(chained.edge[0]):
            phi = i * math.pi / m
            want = math.cos(phi) * SIGMA_Z + math.sin(phi) * SIGMA_X
            assert np.array_equal(got.matrix, want)


@st.composite
def vector_configurations(draw):
    """A functional of any kind with random unit vectors in ambient 2..5,
    its realized total dimension at most 256."""
    kind = draw(st.sampled_from(list(Kind)))
    two = kind in (Kind.CHSH, Kind.BILOCAL, Kind.STAR)
    m = 2 if two else draw(st.integers(2, 5))
    if kind in BIPARTITE_KINDS:
        n = 1
    else:
        n = 2 if kind is Kind.BILOCAL else draw(st.integers(1, 3))
    f = build_functional(kind, m, n)
    ambient = draw(st.integers(2, 5))
    assume((2 ** (ambient // 2)) ** (2 * f.n) <= 256)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal((f.n, m, ambient))
    return f, v / np.linalg.norm(v, axis=2, keepdims=True)


class TestVectorGradient:
    @settings(max_examples=40, deadline=None)
    @given(case=vector_configurations())
    def test_matches_central_differences(self, case):
        f, v = case
        # |.|^(1/n) and the norms are smooth away from a vanishing norm.
        assume(np.linalg.norm(f.coefficients @ v, axis=2).min() > 1e-2)
        h = 1e-6
        fd = np.zeros_like(v)
        for idx in np.ndindex(v.shape):
            step = np.zeros_like(v)
            step[idx] = h
            up, down = vector_model_value(f, v + step), vector_model_value(f, v - step)
            fd[idx] = (up - down) / (2 * h)
        assert np.allclose(_vector_gradient(f, v), fd, rtol=0, atol=1e-5)


class TestRealize:
    @settings(max_examples=40, deadline=None)
    @given(case=vector_configurations())
    def test_value_is_vector_model_value_and_certified(self, case):
        f, v = case
        state, assignment = realize(f, v)
        d = 2 ** (v.shape[2] // 2)
        assert state.subsystem_dims == (d,) * f.n + (d**f.n,)
        value, _ = eval_functional(f, state, assignment)
        assert value == pytest.approx(vector_model_value(f, v), abs=1e-12)
        report = sos_certificate(f, state, assignment)
        assert abs(report.gap) <= 1e-12
        assert report.gamma_min_eig >= -1e-12

    def test_vanishing_signed_sum(self):
        # The wrap term of chained m=2 is v_1 - v_0.
        f = build_functional(Kind.CHAINED, 2, 1)
        with pytest.raises(ZeroNorm):
            realize(f, np.array([[[1.0, 0.0], [1.0, 0.0]]]))

    def test_vanishing_sum_names_its_party(self):
        # Term 1 of bilocal is A_0 - A_1: it vanishes on party 1 only.
        f = build_functional(Kind.BILOCAL, 2, 2)
        v = np.array([np.eye(2), [[1.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(ZeroNorm, match="edge party 1 vanishes"):
            realize(f, v)
