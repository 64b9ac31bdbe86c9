import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import certify as certify_mod
from netbell import optimize as op
from netbell.certify import (
    _PAULI_PAIRS,
    _draw_seeds,
    bilocal_max_pair,
    correlation_matrix,
    correspondence_scan,
    horodecki_chsh_max,
    sos_certificate,
)
from netbell.errors import InvalidInput, ZeroNorm
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
        with pytest.raises(InvalidInput, match="two-qubit"):
            correlation_matrix(QuantumState.pure([1, 0], (2,)))
        with pytest.raises(InvalidInput, match=r"\(N, 4, 4\)"):
            correlation_matrix(np.eye(3)[None])

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
        states = [random_two_qubit_density(*d) for d in _draw_seeds(rng, 2, (1,))]
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


def random_assignment(f, rng, dim=2, rank=1):
    """Haar involutions and a random state: a pure vector at rank 1, else a
    Ginibre density of the given rank."""
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
    if rank == 1:
        vec = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(
            int(np.prod(dims))
        )
        state = QuantumState.pure(vec / np.linalg.norm(vec), dims)
    else:
        g = rng.standard_normal((int(np.prod(dims)), rank, 2)) @ [1, 1j]
        rho = g @ g.conj().T
        state = QuantumState.density((rho + rho.conj().T) / (2 * np.trace(rho).real), dims)
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

    def test_density_input_certified(self):
        # The optimal CHSH observables on the Werner state of their own
        # optimal state: T_i^2 = 2 I, so omega_i = sqrt(2) at every
        # visibility, and the value scales by it.
        f = build_functional(Kind.CHSH, 2, 1)
        state, assignment = optimal_assignment(f)
        rho = 0.9 * state.density_matrix() + 0.1 * np.eye(4) / 4
        rep = sos_certificate(f, QuantumState.density(rho, (2, 2)), assignment)
        assert rep.omegas == pytest.approx((SQ2, SQ2), abs=1e-12)
        assert rep.value == pytest.approx(0.9 * 2 * SQ2, abs=1e-12)
        assert rep.gap == pytest.approx(0.1 * 2 * SQ2, abs=1e-12)
        assert rep.gamma_min_eig >= -1e-12


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
    """The certificate built term by term from dense operators on the
    density rho of any state: T_i, B_i and M_i = s_i T_i / omega_i - B_i as
    full matrices, the correlators Tr(rho B_i T_i), omega_i =
    sqrt(Tr(rho T_i^2)), the squared residuals Tr(rho M_i^dag M_i) (a
    square root would cost half the digits at an optimum, where they
    vanish), and gamma = sum_i (w_i/2) M_i^dag M_i by matrix products."""
    dims = state.subsystem_dims
    rho = state.density_matrix()

    def trace_rho(op):
        return np.trace(rho @ op).real

    omegas, weights, residuals, correlators, gamma = [], [], [], [], 0
    for i in range(f.n_terms):
        edge = [f.signed_sums([o.matrix for o in row])[i] for row in assignment.edge]
        t_edge = tensor_all(edge + [np.eye(dims[-1])])
        b_full = tensor_all([np.eye(d) for d in dims[:-1]]
                            + [assignment.central[i].matrix])
        omega = math.sqrt(trace_rho(t_edge @ t_edge))
        value_i = trace_rho(b_full @ t_edge)
        if f.combiner == LINEAR:
            sign, weight = 1.0, omega
        else:
            sign = -1.0 if value_i < 0 else 1.0
            ratio = abs(value_i) / omega
            # (omega^(1/n) - |I|^(1/n)) / (1 - |I|/omega), extended at
            # |I| = omega by its limit omega^(1/n)/n.
            if 1.0 - ratio < 1e-12:
                weight = omega ** (1.0 / f.n) / f.n
            else:
                weight = omega ** (1.0 / f.n) * (1.0 - ratio ** (1.0 / f.n)) / (1.0 - ratio)
        m_op = sign * t_edge / omega - b_full
        omegas.append(omega)
        weights.append(weight)
        correlators.append(value_i)
        residuals.append(trace_rho(m_op.conj().T @ m_op))
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
        "squared_residuals": residuals,
        "bound_from_omegas": bound,
        "gap": bound - value,
        "gamma_min_eig": np.linalg.eigvalsh(gamma)[0],
    }, gamma


def assert_matches_dense(f, state, assignment, atol=1e-10):
    expected, gamma = dense_certificate(f, state, assignment)
    rep = sos_certificate(f, state, assignment)
    got = {**vars(rep), "squared_residuals": np.square(rep.residuals)}
    for field, want in expected.items():
        assert np.allclose(got[field], want, rtol=0, atol=atol), field
    # The identity Tr(gamma rho) = bound_from_omegas - value.
    assert abs(np.trace(gamma @ state.density_matrix()).real - rep.gap) <= atol
    return gamma


class TestCertificateMatchesDense:
    @pytest.mark.parametrize("kind,m,n", ALL_KINDS)
    def test_random_complex_assignments(self, kind, m, n):
        f = build_functional(kind, m, n)
        rng = np.random.default_rng(f.n_terms + 10 * n)
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

    @pytest.mark.parametrize("rank", [2, 4])
    @pytest.mark.parametrize("kind,m,n", ALL_KINDS)
    def test_random_densities(self, kind, m, n, rank):
        f = build_functional(kind, m, n)
        rng = np.random.default_rng(f.n_terms + 10 * n + 100 * rank)
        for _ in range(2):
            state, assignment = random_assignment(f, rng, rank=rank)
            assert state.factor.shape == (state.dim, rank)
            assert_matches_dense(f, state, assignment, atol=1e-12)

    def test_density_above_128_runs_lanczos(self):
        f = build_functional(Kind.XI, 3, 4)
        state, assignment = random_assignment(f, np.random.default_rng(5), rank=3)
        assert state.dim > op._DENSE_EIG_LIMIT
        assert_matches_dense(f, state, assignment, atol=1e-12)


def assert_lanczos_min_eig_matches_dense(f, state, assignment):
    assert state.dim > op._DENSE_EIG_LIMIT
    expected, _ = dense_certificate(f, state, assignment)
    got = sos_certificate(f, state, assignment).gamma_min_eig
    assert abs(got - expected["gamma_min_eig"]) <= 1e-11


class TestLanczosCertificate:
    @pytest.mark.parametrize(
        "kind,m,n,seed", [(Kind.XI, 3, 4, 0), (Kind.XI, 3, 4, 4), (Kind.STAR, 2, 4, 0)]
    )
    def test_seesaw_optimum(self, kind, m, n, seed):
        # At an optimum psi lies in gamma's kernel, whose minimum is 0. On
        # xi seed 4 an unshifted Lanczos started at psi returned 0.059; on
        # seed 0 the unshifted solve from a generic start did not converge.
        f = build_functional(kind, m, n)
        cfg = SeesawConfig(restarts=2, seed=seed, max_iters=600, tol=1e-15)
        result = seesaw_optimize(f, cfg)
        assert_lanczos_min_eig_matches_dense(f, result.state, result.observables)

    @pytest.mark.parametrize("kind,m,n", [(Kind.STAR, 2, 5), (Kind.XI, 4, 5)])
    def test_closed_form_optimum(self, kind, m, n):
        f = build_functional(kind, m, n)
        assert_lanczos_min_eig_matches_dense(f, *optimal_assignment(f))

    @pytest.mark.parametrize(
        "kind,m,n,dim",
        [(Kind.XI, 3, 4, 2), (Kind.STAR, 2, 5, 2), (Kind.STAR, 2, 3, 3),
         (Kind.CHAINED, 4, 1, 16), (Kind.GM, 4, 1, 16)],
    )
    def test_random_assignments(self, kind, m, n, dim):
        f = build_functional(kind, m, n)
        rng = np.random.default_rng(dim + f.n_terms)
        assert_lanczos_min_eig_matches_dense(f, *random_assignment(f, rng, dim))

    def test_repeated_call_is_bit_identical(self):
        f = build_functional(Kind.XI, 3, 4)
        state, assignment = optimal_assignment(f)
        values = {sos_certificate(f, state, assignment).gamma_min_eig for _ in range(4)}
        assert len(values) == 1


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_gap_is_weighted_squared_residuals(kind, seed):
    f = build_functional(*kind)
    rep = sos_certificate(f, *random_assignment(f, np.random.default_rng(seed)))
    lhs = sum(w / 2 * r**2 for w, r in zip(rep.weights, rep.residuals))
    assert rep.gap == pytest.approx(lhs, abs=1e-8)
    assert rep.gamma_min_eig >= -1e-8


def reference_bilocal_scan(trials, seed, ranks):
    """Per-trial bilocal scan: a 4 x rank Ginibre draw per source, one
    correlation matrix, spectrum and closed form at a time. Returns the
    (trials, 2) edge values and the network values, bounds and margins."""
    pairs = np.array([np.kron(a, b).T for a in PAULIS for b in PAULIS])
    edges, network = [], []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        spectra = []
        for _ in range(2):
            rank = int(ranks[int(rng.integers(0, len(ranks)))])
            draw = np.random.default_rng(int(rng.integers(2**63)))
            g = draw.standard_normal((4, rank)) + 1j * draw.standard_normal((4, rank))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            t = np.einsum("ij,kij->k", (rho + rho.conj().T) / 2, pairs).real.reshape(3, 3)
            spectra.append(np.clip(np.linalg.eigvalsh(t.T @ t)[::-1], 0.0, None))
        edges.append([2.0 * math.sqrt(sq[0] + sq[1]) for sq in spectra])
        a, h = (np.sqrt(sq) for sq in spectra)
        network.append(2.0 * math.sqrt(a[0] * h[0] + a[1] * h[1]))
    bound = [float(np.prod([v ** 0.5 for v in e])) for e in edges]
    return np.array(edges), np.array(network), np.array(bound), np.subtract(bound, network)


def reference_scan(f, trials, seed, edge_restarts, ranks):
    """Per-trial star or xi scan: each edge and network value from its own
    one-state ``seesaw_optimize`` call, drawn in the scan's order. Returns
    each trial's (edge values, network value, bound, margin)."""
    cfg = SeesawConfig(restarts=edge_restarts, tol=1e-13, max_iters=certify_mod._SCAN_ITERS)
    out = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        states = [random_two_qubit_density(*d) for d in _draw_seeds(rng, f.n, ranks)]
        if f.kind is Kind.XI:
            edge_f = build_functional(Kind.CHAINED, f.m, 1)
            edges = tuple(seesaw_optimize(edge_f, replace(cfg, seed=int(rng.integers(2**63))), s).value
                          for s in states)
        else:
            edges = tuple(horodecki_chsh_max(s) for s in states)
        net_cfg = replace(cfg, seed=int(rng.integers(2**63)))
        network = seesaw_optimize(f, net_cfg, network_product_state(states)).value
        bound = float(np.prod([e ** (1.0 / f.n) for e in edges]))
        out.append((edges, network, bound, bound - network))
    return out


def scan_rows(rep):
    return [(r.edge_values, r.network_value, r.bound, r.margin) for r in rep.results]


class TestCorrespondenceScan:
    @pytest.mark.parametrize("ranks", [(1, 2), (1, 2, 3, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_bilocal_scan_matches_per_trial_reference(self, ranks, seed):
        rep = correspondence_scan(build_functional(Kind.BILOCAL, 2, 2), 300, seed, ranks=ranks)
        got = (
            np.array([r.edge_values for r in rep.results]),
            *(np.array([getattr(r, k) for r in rep.results])
              for k in ("network_value", "bound", "margin")),
        )
        for a, b in zip(got, reference_bilocal_scan(300, seed, ranks)):
            assert np.array_equal(a, b)
        assert all(type(v) is float for r in rep.results for v in (*r.edge_values, r.margin))

    @pytest.mark.parametrize("ranks", [(1,), (1, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind,m,n", [(Kind.STAR, 2, 2), (Kind.STAR, 2, 3), (Kind.XI, 3, 2)])
    def test_stacked_scan_matches_per_trial_reference(self, kind, m, n, seed, ranks):
        f = build_functional(kind, m, n)
        rep = correspondence_scan(f, 3, seed, edge_restarts=2, ranks=ranks)
        assert scan_rows(rep) == reference_scan(f, 3, seed, 2, ranks)

    @pytest.mark.parametrize("kind,m,n", [(Kind.STAR, 2, 2), (Kind.XI, 3, 2)])
    def test_scan_records_do_not_depend_on_chunks_or_stacks(self, monkeypatch, kind, m, n):
        # One row per lockstep stack, then chunks of two trials: the same
        # rows as one chunk, from more seesaw_optimize calls.
        f = build_functional(kind, m, n)
        want = scan_rows(correspondence_scan(f, 3, 4, edge_restarts=2, ranks=(1, 4)))
        real, calls, stacks = certify_mod.seesaw_optimize, [], []
        real_lockstep = op._seesaw_lockstep

        def recording(g, cfg, pairs):
            calls.append((g, len(pairs)))
            return real(g, cfg, pairs)

        def stacked(g, ws, rngs, cfg, factor):
            stacks.append(len(rngs))
            return real_lockstep(g, ws, rngs, cfg, factor)

        monkeypatch.setattr(certify_mod, "seesaw_optimize", recording)
        monkeypatch.setattr(op, "_seesaw_lockstep", stacked)
        for entries, per_chunk in ((1, 1), (2 * 2 * f.n_terms * 16**n, 2)):
            monkeypatch.setattr(op, "_STACK_ENTRIES", entries)
            calls.clear()
            stacks.clear()
            assert scan_rows(correspondence_scan(f, 3, 4, edge_restarts=2, ranks=(1, 4))) == want
            network = [count for g, count in calls if g is f]
            assert len(calls) > 1 and sum(network) == 3 and max(network) <= per_chunk
            if per_chunk == 1:
                assert set(stacks) == {1}

    def test_bilocal_pure_pairs(self):
        rep = correspondence_scan(build_functional(Kind.BILOCAL, 2, 2), trials=200, seed=7)
        assert rep.satisfied
        assert rep.implication_failures == 0
        for r in rep.results:
            assert r.network_value <= r.bound + 1e-9

    def test_bilocal_mixed_ranks_bound_holds(self):
        rep = correspondence_scan(build_functional(Kind.BILOCAL, 2, 2), trials=200, seed=7, ranks=(1, 2, 3, 4))
        assert rep.satisfied

    def test_equality_at_maximal_entanglement(self):
        phi = maximally_entangled(2)
        network = bilocal_max_pair(phi, phi)
        bound = math.sqrt(horodecki_chsh_max(phi) * horodecki_chsh_max(phi))
        assert network == pytest.approx(bound, abs=1e-6)
        assert network == pytest.approx(2 * SQ2, abs=1e-6)

    def test_star_scan(self):
        rep = correspondence_scan(build_functional(Kind.STAR, 2, 2), trials=4, seed=3, edge_restarts=6)
        assert rep.satisfied
        assert rep.implication_failures is None

    def test_xi_scan(self):
        rep = correspondence_scan(build_functional(Kind.XI, 3, 2), trials=3, seed=3, edge_restarts=6)
        assert rep.satisfied

    def test_invalid_family(self):
        with pytest.raises(InvalidInput, match="no correspondence scan for chsh"):
            correspondence_scan(build_functional(Kind.CHSH, 2, 1), trials=1, seed=0)

    @pytest.mark.parametrize("ranks", [(), (0,), (1, 7), (5, 1)])
    def test_ranks_checked_before_any_draw(self, ranks, monkeypatch):
        # Seed 5 draws rank 1 only, so (1, 7) used to pass unnoticed.
        monkeypatch.setattr(
            certify_mod, "_draw_seeds", lambda *a: pytest.fail("drew a state")
        )
        with pytest.raises(InvalidInput, match="ranks"):
            correspondence_scan(build_functional(Kind.BILOCAL, 2, 2), trials=1, seed=5, ranks=ranks)
