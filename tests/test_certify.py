import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import optimize as op
from netbell.certify import (
    _PAULI_PAIRS,
    _draw_states,
    _root_sum_weight,
    bilocal_max_pair,
    correlation_matrix,
    correspondence_scan,
    horodecki_chsh_max,
    sos_certificate,
)
from netbell.errors import DensityInput, DimensionMismatch, ZeroNorm
from netbell.functionals import (
    LINEAR,
    Kind,
    ObservableAssignment,
    build_functional,
    eval_functional,
)
from netbell.optimize import SeesawConfig, optimal_assignment, seesaw_optimize
from netbell.qcore import tensor_all
from netbell.states import (
    PAULIS,
    SIGMA_X,
    SIGMA_Z,
    Observable,
    QuantumState,
    maximally_entangled,
    network_product_state,
    observable_from_bloch,
    random_two_qubit_density,
    schmidt_pure_two_qubit,
)

SQ2 = math.sqrt(2)
SINGLET = QuantumState.pure(np.array([0, 1, -1, 0]) / SQ2, (2, 2))


def werner(p):
    rho = p * np.outer(SINGLET.data, SINGLET.data.conj()) + (1 - p) * np.eye(4) / 4
    return QuantumState.density(rho, (2, 2))


class TestCorrelationMatrix:
    def test_singlet(self):
        assert np.allclose(correlation_matrix(SINGLET), -np.eye(3), atol=1e-12)

    def test_product_state(self):
        psi = QuantumState.pure([1, 0, 0, 0], (2, 2))
        assert np.allclose(
            correlation_matrix(psi), np.diag([0.0, 0.0, 1.0]), atol=1e-12
        )

    def test_werner_linearity(self):
        p = 0.6
        assert np.allclose(correlation_matrix(werner(p)), -p * np.eye(3), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            correlation_matrix(QuantumState.pure([1, 0], (2,)))

    @staticmethod
    def kron_reference(rho):
        # The per-entry formula Tr[rho (sigma_r x sigma_s)] with one kron
        # per Pauli pair, against which the Pauli-pair tensor must agree.
        dm = rho.density_matrix()
        t = np.empty((3, 3))
        for r, sr in enumerate(PAULIS):
            for s, ss in enumerate(PAULIS):
                t[r, s] = np.einsum("ij,ji->", dm, np.kron(sr, ss)).real
        return t

    def test_bit_identical_to_kron_reference(self):
        states = [random_two_qubit_density(seed, 1 + seed % 4) for seed in range(400)]
        states += [schmidt_pure_two_qubit(th) for th in np.linspace(0.0, np.pi / 2, 50)]
        states += [werner(p) for p in np.linspace(0.0, 1.0, 21)]
        for rho in states:
            assert np.array_equal(correlation_matrix(rho), self.kron_reference(rho))

    def test_pauli_pairs_read_only(self):
        assert not _PAULI_PAIRS.flags.writeable
        with pytest.raises(ValueError):
            _PAULI_PAIRS[0, 0, 0] = 0.0


class TestHorodecki:
    def test_singlet(self):
        assert horodecki_chsh_max(SINGLET) == pytest.approx(2 * SQ2)

    def test_werner_scaling(self):
        for p in (0.3, 0.7, 0.95):
            assert horodecki_chsh_max(werner(p)) == pytest.approx(2 * SQ2 * p)

    @pytest.mark.parametrize("theta", [0.15, math.pi / 8, math.pi / 5])
    def test_schmidt_closed_form(self, theta):
        psi = schmidt_pure_two_qubit(theta)
        expected = 2 * math.sqrt(1 + math.sin(2 * theta) ** 2)
        assert horodecki_chsh_max(psi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.2, math.pi / 8])
    def test_grid_search_oracle(self, theta):
        # Independent oracle: maximize the CHSH combination over x-z plane
        # angles for both parties on the Schmidt state. For fixed Alice
        # angles the two Bob maximizations separate.
        psi = schmidt_pure_two_qubit(theta)
        s = math.sin(2 * theta)
        ang = np.linspace(0, np.pi, 181)
        corr = s * np.outer(np.sin(ang), np.sin(ang)) + np.outer(
            np.cos(ang), np.cos(ang)
        )
        best = 0.0
        for i1 in range(len(ang)):
            sums = corr[i1][None, :] + corr
            diffs = corr[i1][None, :] - corr
            cand = np.maximum(
                sums.max(axis=1) + diffs.max(axis=1),
                -(sums.min(axis=1) + diffs.min(axis=1)),
            )
            best = max(best, float(cand.max()))
        assert horodecki_chsh_max(psi) == pytest.approx(best, abs=1e-3)

    def test_agrees_with_fixed_state_seesaw_on_pure_states(self):
        # Two independent routes: the closed form and an observable-only
        # seesaw at fixed state. They coincide for pure states (where the
        # closed form is at least the trivial-strategy value 2).
        f = build_functional(Kind.CHSH, 2, 1)
        for seed in (1, 2, 3):
            rho = random_two_qubit_density(seed, rank=1)
            res = seesaw_optimize(
                f,
                SeesawConfig(restarts=6, seed=seed, tol=1e-13, max_iters=300),
                fixed_state=rho,
            )
            assert res.value == pytest.approx(horodecki_chsh_max(rho), abs=1e-4)


class TestBilocalMaxPair:
    def test_singlet_pair(self):
        assert bilocal_max_pair(SINGLET, SINGLET) == pytest.approx(2 * SQ2)

    def test_werner_pair_equality_case(self):
        p, q = 0.8, 0.9
        value = bilocal_max_pair(werner(p), werner(q))
        assert value == pytest.approx(2 * math.sqrt(2 * p * q))
        geo = math.sqrt(horodecki_chsh_max(werner(p)) * horodecki_chsh_max(werner(q)))
        assert value == pytest.approx(geo)
        assert horodecki_chsh_max(werner(p)) == pytest.approx(2.2627417, abs=1e-7)
        assert horodecki_chsh_max(werner(q)) == pytest.approx(2.5455844, abs=1e-7)

    def test_product_state_side_caps_at_two(self):
        product = QuantumState.pure([1, 0, 0, 0], (2, 2))
        assert bilocal_max_pair(product, SINGLET) <= 2.0 + 1e-12

    def test_symmetric_under_swap(self):
        a = random_two_qubit_density(5, rank=3)
        b = random_two_qubit_density(6, rank=2)
        assert bilocal_max_pair(a, b) == pytest.approx(bilocal_max_pair(b, a))

    def test_traceless_products_exceed_class_o(self):
        # Seed 3, trial 0 of a bilocal scan. Each edge party measures the top
        # two left singular directions a_0, a_1 of its source's correlation
        # matrix T; the central party measures b_i.sigma (x) c_i.sigma with
        # b_i = T^T (a_0 +- a_1) normalized. These are traceless products,
        # but b_1, b_2 are not orthogonal, so they leave class O.
        rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        states = _draw_states(rng, 2, (1,))
        edge, sides = [], []
        for s in states:
            t = correlation_matrix(s)
            a = np.linalg.svd(t)[0][:, :2].T
            edge.append(tuple(observable_from_bloch(x) for x in a))
            sides.append([t.T @ (a[0] + sign * a[1]) for sign in (1, -1)])
        central = tuple(
            Observable(np.kron(*(observable_from_bloch(b / np.linalg.norm(b)).matrix
                                 for b in pair)))
            for pair in zip(*sides)
        )
        value, _ = eval_functional(
            build_functional(Kind.BILOCAL, 2, 2),
            network_product_state(states),
            ObservableAssignment(edge=tuple(edge), central=central),
        )
        geo = math.sqrt(horodecki_chsh_max(states[0]) * horodecki_chsh_max(states[1]))
        assert value == pytest.approx(geo, abs=1e-12)
        assert value == pytest.approx(2.329921, abs=1e-6)
        assert bilocal_max_pair(*states) == pytest.approx(2.113297, abs=1e-6)


def random_assignment(f, rng, dim=2):
    parties = 1 if f.n == 1 else f.n
    central_dim = dim**parties
    edge = tuple(
        tuple(Observable(op._random_involution(dim, rng)) for _ in range(f.m))
        for _ in range(parties)
    )
    central = tuple(
        Observable(op._random_involution(central_dim, rng))
        for _ in range(f.n_central_inputs)
    )
    dims = (dim,) * parties + (central_dim,)
    vec = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(
        int(np.prod(dims))
    )
    state = QuantumState.pure(vec / np.linalg.norm(vec), dims)
    return state, ObservableAssignment(edge=edge, central=central)


class TestSOSCertificate:
    def test_chsh_at_optimum(self):
        f = build_functional(Kind.CHSH, 2, 1)
        state, assignment = optimal_assignment(f)
        rep = sos_certificate(f, state, assignment)
        assert rep.omegas == pytest.approx((SQ2, SQ2))
        assert max(rep.residuals) <= 1e-8
        assert abs(rep.gap) <= 1e-8
        assert rep.gamma_min_eig >= -1e-8

    def test_chained3_norms_all_sqrt3(self):
        f = build_functional(Kind.CHAINED, 3, 1)
        state, assignment = optimal_assignment(f)
        rep = sos_certificate(f, state, assignment)
        assert rep.omegas == pytest.approx((math.sqrt(3),) * 3)
        assert max(rep.residuals) <= 1e-8

    def test_suboptimal_chsh_gap_identity(self):
        f = build_functional(Kind.CHSH, 2, 1)
        state, assignment = optimal_assignment(f)
        flipped = ObservableAssignment(
            edge=assignment.edge,
            central=(Observable(-assignment.central[0].matrix), assignment.central[1]),
        )
        rep = sos_certificate(f, state, flipped)
        assert rep.gap > 0.1
        lhs = sum(w / 2 * r**2 for w, r in zip(rep.weights, rep.residuals))
        assert abs(rep.gap - lhs) <= 1e-8

    def test_gap_identity_random_assignments(self):
        rng = np.random.default_rng(17)
        for kind, m, n in [(Kind.CHSH, 2, 1), (Kind.CHAINED, 4, 1),
                           (Kind.BILOCAL, 2, 2), (Kind.XI, 3, 2)]:
            f = build_functional(kind, m, n)
            for _ in range(10):
                state, assignment = random_assignment(f, rng)
                rep = sos_certificate(f, state, assignment)
                lhs = sum(w / 2 * r**2 for w, r in zip(rep.weights, rep.residuals))
                assert abs(rep.gap - lhs) <= 1e-8
                assert rep.gap >= -1e-9
                assert rep.gamma_min_eig >= -1e-8

    def test_zero_norm_rejected(self):
        f = build_functional(Kind.CHSH, 2, 1)
        state, _ = optimal_assignment(f)
        z = Observable(SIGMA_Z)
        degenerate = ObservableAssignment(
            edge=((z, z),),  # A1 - A2 = 0 annihilates everything
            central=(Observable(SIGMA_Z), Observable(SIGMA_X)),
        )
        with pytest.raises(ZeroNorm):
            sos_certificate(f, state, degenerate)

    def test_density_input_rejected(self):
        f = build_functional(Kind.CHSH, 2, 1)
        _, assignment = optimal_assignment(f)
        with pytest.raises(DensityInput):
            sos_certificate(f, werner(0.9), assignment)


ALL_KINDS = [
    (Kind.CHSH, 2, 1),
    (Kind.CHAINED, 3, 1),
    (Kind.GM, 3, 1),
    (Kind.BILOCAL, 2, 2),
    (Kind.STAR, 2, 3),
    (Kind.DELTA, 3, 2),
    (Kind.XI, 3, 2),
]


def dense_certificate(f, state, assignment):
    """The certificate built term by term from dense operators: T_i, B_i
    and M_i = s_i T_i / omega_i - B_i as full matrices, and
    gamma = sum_i (w_i/2) M_i^dag M_i by matrix products."""
    dims = state.subsystem_dims
    psi = state.data
    omegas, weights, residuals, correlators, gamma = [], [], [], [], 0
    for i, term in enumerate(f.terms):
        edge = [f.signed_sums(k, [o.matrix for o in row])[i]
                for k, row in enumerate(assignment.edge)]
        t_edge = tensor_all(edge + [np.eye(dims[-1])])
        b_full = tensor_all([np.eye(d) for d in dims[:-1]]
                            + [assignment.central[term.central_input].matrix])
        omega = np.linalg.norm(t_edge @ psi)
        value_i = np.vdot(psi, b_full @ t_edge @ psi).real
        if f.combiner == LINEAR:
            sign, weight = 1.0, omega
        else:
            sign = -1.0 if value_i < 0 else 1.0
            weight = _root_sum_weight(omega, abs(value_i) / omega, f.n)
        m_op = sign * t_edge / omega - b_full
        omegas.append(omega)
        weights.append(weight)
        correlators.append(value_i)
        residuals.append(np.linalg.norm(m_op @ psi))
        gamma = gamma + weight / 2 * (m_op.conj().T @ m_op)
    if f.combiner == LINEAR:
        bound, value = sum(omegas), sum(correlators)
    else:
        bound = sum(o ** (1 / f.n) for o in omegas)
        value = sum(abs(v) ** (1 / f.n) for v in correlators)
    return {
        "value": value,
        "correlators": correlators,
        "omegas": omegas,
        "weights": weights,
        "residuals": residuals,
        "bound_from_omegas": bound,
        "gap": bound - value,
        "gamma_min_eig": np.linalg.eigvalsh(gamma)[0],
    }, gamma


def assert_matches_dense(f, state, assignment):
    expected, gamma = dense_certificate(f, state, assignment)
    rep = sos_certificate(f, state, assignment)
    for field, want in expected.items():
        got = getattr(rep, field)
        assert np.allclose(got, want, rtol=0, atol=1e-10), field
    return gamma


class TestCertificateMatchesDense:
    @pytest.mark.parametrize("kind,m,n", ALL_KINDS)
    def test_random_complex_assignments(self, kind, m, n):
        f = build_functional(kind, m, n)
        rng = np.random.default_rng(len(f.terms) + 10 * n)
        for _ in range(4):
            assert_matches_dense(f, *random_assignment(f, rng))

    @pytest.mark.parametrize(
        "kind,m,n",
        [(Kind.CHSH, 2, 1), (Kind.CHAINED, 4, 1), (Kind.STAR, 2, 3),
         (Kind.XI, 3, 2), (Kind.XI, 4, 2)],
    )
    def test_optimal_assignment_real_gamma(self, kind, m, n):
        f = build_functional(kind, m, n)
        gamma = assert_matches_dense(f, *optimal_assignment(f))
        assert not np.any(gamma.imag)

    def test_total_dimension_above_128(self):
        f = build_functional(Kind.XI, 3, 4)
        state, assignment = random_assignment(f, np.random.default_rng(3))
        assert state.data.size == 256
        assert_matches_dense(f, state, assignment)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_gap_is_weighted_squared_residuals(kind, seed):
    f = build_functional(*kind)
    rep = sos_certificate(f, *random_assignment(f, np.random.default_rng(seed)))
    lhs = sum(w / 2 * r**2 for w, r in zip(rep.weights, rep.residuals))
    assert rep.gap == pytest.approx(lhs, abs=1e-8)
    assert rep.gamma_min_eig >= -1e-8


class TestCorrespondenceScan:
    def test_bilocal_pure_pairs(self):
        rep = correspondence_scan("bilocal", trials=200, seed=7)
        assert rep.satisfied
        assert rep.implication_failures == 0
        for r in rep.results:
            assert r.network_value <= r.bound + 1e-9

    def test_bilocal_mixed_ranks_bound_holds(self):
        rep = correspondence_scan("bilocal", trials=200, seed=7, ranks=(1, 2, 3, 4))
        assert rep.satisfied

    def test_equality_at_maximal_entanglement(self):
        phi = maximally_entangled(2)
        network = bilocal_max_pair(phi, phi)
        bound = math.sqrt(horodecki_chsh_max(phi) * horodecki_chsh_max(phi))
        assert network == pytest.approx(bound, abs=1e-6)
        assert network == pytest.approx(2 * SQ2, abs=1e-6)

    def test_star_scan(self):
        rep = correspondence_scan("star", trials=4, seed=3, n=2, edge_restarts=6)
        assert rep.satisfied
        assert rep.implication_failures is None

    def test_xi_scan(self):
        rep = correspondence_scan("xi", trials=3, seed=3, m=3, n=2, edge_restarts=6)
        assert rep.satisfied

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            correspondence_scan("triangle", trials=1, seed=0)
