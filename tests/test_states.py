import math
import re

import numpy as np
import pytest

from netbell import qcore, states
from netbell.errors import InvalidInput
from netbell.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Observable,
    QuantumState,
    anticommuting_set,
    maximally_entangled,
    network_product_state,
    observable_from_bloch,
    random_two_qubit_density,
    schmidt_pure_two_qubit,
)


def partial_trace_first(rho, d1, d2):
    """Trace out the first factor of a (d1*d2)-dimensional density matrix."""
    return np.einsum("ikjl,ij->kl", rho.reshape(d1, d2, d1, d2), np.eye(d1))


class TestObservable:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInput, match="not Hermitian"):
            Observable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_involution(self):
        with pytest.raises(InvalidInput, match="involution"):
            Observable(np.diag([1.0, 0.5]))

    def test_rejects_square_that_overflows_to_nan(self):
        # Hermitian, but A^2 has an inf - inf = NaN entry, which a ">" test
        # would let through.
        a = 1e200 * (1 + 1j)
        with pytest.raises(InvalidInput, match="involution"):
            Observable(np.array([[0, a], [np.conj(a), 0]]))

    def test_dim(self):
        assert Observable(np.kron(SIGMA_X, SIGMA_X)).dim == 4


class TestQuantumState:
    def test_pure_norm_check(self):
        with pytest.raises(InvalidInput, match="not normalized"):
            QuantumState.pure([1.0, 1.0], (2,))

    def test_density_trace_check(self):
        with pytest.raises(InvalidInput, match="trace"):
            QuantumState.density(np.eye(2), (2,))

    def test_density_psd_check(self):
        with pytest.raises(InvalidInput, match="positive semidefinite"):
            QuantumState.density(np.diag([1.5, -0.5]), (2,))

    def test_subsystem_dims_product(self):
        with pytest.raises(InvalidInput, match="product of dims"):
            QuantumState.pure([1, 0, 0, 0], (2, 3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_pure_state_rejected(self, bad):
        # NaN compares False with everything, so a "norm off by more than
        # the tolerance" test would let it through.
        with pytest.raises(InvalidInput, match="not normalized"):
            QuantumState.pure([bad, 0, 0, 0], (2, 2))

    @pytest.mark.parametrize("dims", [(2.7, 2.2), (-2, -2), (True, 4), (0, 4), (2.0, 2)])
    def test_subsystem_dims_must_be_positive_integers(self, dims):
        # (2.7, 2.2) used to become (2, 2); the others multiply to 4.
        with pytest.raises(InvalidInput, match="positive integers"):
            QuantumState.pure([1, 0, 0, 0], dims)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 1), (1, 4), (1, 2, 2)])
    def test_pure_data_must_be_flat(self, shape):
        # A unit vector of the right length, but not written as a vector.
        data = np.array([1, 0, 0, 0], dtype=complex).reshape(shape)
        with pytest.raises(InvalidInput, match=re.escape(f"got shape {shape}")):
            QuantumState.pure(data, (2, 2))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput, match="unknown state kind 'mixed'"):
            QuantumState("mixed", np.array([1, 0]), (2,))

    def test_numpy_integer_dims_accepted(self):
        state = QuantumState.pure([1, 0, 0, 0], (np.int64(2), np.int32(2)))
        assert state.subsystem_dims == (2, 2)
        assert all(type(d) is int for d in state.subsystem_dims)


class TestFactor:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_density_factor_reproduces_rho(self, rank):
        rho = random_two_qubit_density(11 + rank, rank)
        k = rho.factor
        assert k.shape == (4, rank)
        assert np.max(np.abs(k @ k.conj().T - rho.data)) <= 1e-12
        assert not k.flags.writeable

    def test_pure_factor_is_read_only_view(self):
        psi = maximally_entangled(3)
        k = psi.factor
        assert k.shape == (9, 1)
        assert np.shares_memory(k, psi.data)
        assert np.max(np.abs(k @ k.conj().T - psi.density_matrix())) <= 1e-12
        with pytest.raises(ValueError):
            k[0, 0] = 0.0

    @pytest.mark.parametrize("rank", [None, 1, 2, 4])
    def test_factor_is_c_contiguous(self, rank):
        # eigh returns Fortran-ordered eigenvectors, and the seesaw's sums
        # depend on the factor's memory layout as well as its values.
        state = maximally_entangled(2) if rank is None else random_two_qubit_density(5, rank)
        assert state.factor.flags.c_contiguous

    @pytest.mark.parametrize("make", [lambda: maximally_entangled(2),
                                      lambda: random_two_qubit_density(3, 2)])
    def test_computed_once(self, make):
        state = make()
        assert state.factor is state.factor


class TestObservableFromBloch:
    def test_z_axis(self):
        assert np.allclose(observable_from_bloch([0, 0, 1]).matrix, SIGMA_Z)

    def test_x_axis(self):
        assert np.allclose(observable_from_bloch([1, 0, 0]).matrix, SIGMA_X)

    def test_diagonal_direction(self):
        v = [1 / math.sqrt(2), 0, 1 / math.sqrt(2)]
        obs = observable_from_bloch(v)
        assert np.allclose(obs.matrix, (SIGMA_X + SIGMA_Z) / math.sqrt(2))
        # 2x2 spectrum oracle: eigenvalues of a.sigma solve t^2 = |a|^2 = 1.
        lam = np.linalg.eigvalsh(obs.matrix)
        assert np.allclose(lam, [-1.0, 1.0])

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInput, match="norm"):
            observable_from_bloch([1, 1, 0])

    def test_rejects_two_components(self):
        with pytest.raises(InvalidInput, match="three components"):
            observable_from_bloch([1, 0])


class TestMaximallyEntangled:
    def test_canonical_bell_state(self):
        psi = maximally_entangled(2)
        assert np.allclose(psi.data, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert psi.subsystem_dims == (2, 2)

    def test_reduced_state_is_maximally_mixed(self):
        psi = maximally_entangled(2)
        rho = np.outer(psi.data, psi.data.conj())
        assert np.allclose(partial_trace_first(rho, 2, 2), np.eye(2) / 2)

    def test_schmidt_coefficients_d4(self):
        psi = maximally_entangled(4)
        # Schmidt decomposition oracle: singular values of the reshaped vector.
        coeffs = np.linalg.svd(psi.data.reshape(4, 4), compute_uv=False)
        assert np.allclose(coeffs, np.full(4, 0.25) ** 0.5)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInput, match="local dimension"):
            maximally_entangled(1)


class TestSchmidtPureTwoQubit:
    def test_quarter_pi_is_maximally_entangled(self):
        psi = schmidt_pure_two_qubit(math.pi / 4)
        assert np.allclose(psi.data, maximally_entangled(2).data)

    def test_zero_is_product(self):
        psi = schmidt_pure_two_qubit(0.0)
        assert np.allclose(psi.data, [1, 0, 0, 0])

    def test_correlation_diagonal_at_pi_over_8(self):
        psi = schmidt_pure_two_qubit(math.pi / 8)
        # Pauli-expectation oracle t_rs = <psi| sigma_r (x) sigma_s |psi>.
        t = np.array(
            [
                [
                    qcore.expectation(psi, np.kron(a, b))
                    for b in (SIGMA_X, SIGMA_Y, SIGMA_Z)
                ]
                for a in (SIGMA_X, SIGMA_Y, SIGMA_Z)
            ]
        )
        s = math.sin(math.pi / 4)
        assert np.allclose(t, np.diag([s, -s, 1.0]), atol=1e-12)

    def test_angle_folding(self):
        a = schmidt_pure_two_qubit(math.pi / 3)
        b = schmidt_pure_two_qubit(math.pi / 6)
        assert np.allclose(a.data, b.data)


class TestRandomTwoQubitDensity:
    def test_rank_one_is_pure(self):
        rho = random_two_qubit_density(seed=0, rank=1).data
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-10

    def test_full_rank_strictly_positive(self):
        rho = random_two_qubit_density(seed=1, rank=4).data
        assert np.linalg.eigvalsh(rho)[0] > 0

    def test_determinism(self):
        a = random_two_qubit_density(seed=42, rank=3).data
        b = random_two_qubit_density(seed=42, rank=3).data
        assert np.array_equal(a, b)

    def test_rank_out_of_range(self):
        with pytest.raises(InvalidInput, match="rank must be in 1..4"):
            random_two_qubit_density(seed=0, rank=5)


class TestAnticommutingSet:
    def test_m2_is_x_and_z(self):
        obs = anticommuting_set(2)
        assert np.allclose(obs[0].matrix, SIGMA_X)
        assert np.allclose(obs[1].matrix, SIGMA_Z)

    def test_m3_is_pauli_triple(self):
        obs = anticommuting_set(3)
        assert len(obs) == 3 and obs[0].dim == 2
        mats = [o.matrix for o in obs]
        for target in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert any(np.allclose(m, target) for m in mats)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_anticommutation_and_involution(self, m):
        obs = anticommuting_set(m)
        assert len(obs) == m
        dim = 2 ** (m // 2)
        for o in obs:
            assert o.dim == dim
            assert np.max(np.abs(o.matrix @ o.matrix - np.eye(dim))) <= 1e-10
        for i in range(m):
            for j in range(i + 1, m):
                anti = obs[i].matrix @ obs[j].matrix + obs[j].matrix @ obs[i].matrix
                assert np.max(np.abs(anti)) <= 1e-10

    def test_m_too_small(self):
        with pytest.raises(InvalidInput, match="two observables"):
            anticommuting_set(1)


class TestNetworkProductState:
    def test_slot_layout_pairs_edges_with_central_slots(self):
        psi = network_product_state([maximally_entangled(2)] * 2)
        assert psi.subsystem_dims == (2, 2, 4)
        eye = np.eye(2)
        # Edge 1 is correlated with the first central slot only.
        op_same = np.kron(SIGMA_Z, np.kron(eye, np.kron(SIGMA_Z, eye)))
        op_cross = np.kron(SIGMA_Z, np.kron(eye, np.kron(eye, SIGMA_Z)))
        assert qcore.expectation(psi, op_same) == pytest.approx(1.0)
        assert qcore.expectation(psi, op_cross) == pytest.approx(0.0)

    def test_density_sources_match_pure_sources(self):
        pure = maximally_entangled(2)
        dens = QuantumState.density(
            np.outer(pure.data, pure.data.conj()), (2, 2)
        )
        a = network_product_state([pure, pure])
        b = network_product_state([dens, dens])
        rho_a = np.outer(a.data, a.data.conj())
        assert np.allclose(rho_a, b.data)

    def test_needs_bipartite_sources(self):
        with pytest.raises(InvalidInput, match="at least one source"):
            network_product_state([])
        with pytest.raises(InvalidInput, match="bipartite"):
            network_product_state([maximally_entangled(2), QuantumState.pure([1, 0], (2,))])

    @staticmethod
    def two_branch_reference(sources):
        """The joint state built on separate pure and density routes."""
        n = len(sources)
        perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
        pair_dims = [d for s in sources for d in s.subsystem_dims]
        out_dims = tuple(s.subsystem_dims[0] for s in sources) + (
            math.prod(s.subsystem_dims[1] for s in sources),
        )
        if all(s.kind == "pure" for s in sources):
            vec = qcore.tensor_all([s.data for s in sources])
            vec = vec.reshape(pair_dims).transpose(perm).reshape(-1)
            return QuantumState.pure(vec, out_dims)
        rho = qcore.tensor_all([s.density_matrix() for s in sources])
        full_perm = perm + [p + 2 * n for p in perm]
        rho = rho.reshape(pair_dims * 2).transpose(full_perm)
        total = math.prod(pair_dims)
        return QuantumState.density(rho.reshape(total, total), out_dims)

    @staticmethod
    def random_source(rng, dims, rank):
        """A random state on ``dims``: pure when ``rank`` is None, else a
        Ginibre density of that rank."""
        d = math.prod(dims)
        g = rng.standard_normal((d, rank or 1)) + 1j * rng.standard_normal((d, rank or 1))
        if rank is None:
            return QuantumState.pure(g[:, 0] / np.linalg.norm(g), dims)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        return QuantumState.density((rho + rho.conj().T) / 2, dims)

    def test_one_route_matches_two_branches(self):
        # Pure, mixed-rank and mixed pure/density source lists, bit for bit.
        rng = np.random.default_rng(2112)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            dims = [((2, 2), (2, 3), (3, 2), (1, 2))[int(rng.integers(4))] for _ in range(n)]
            if math.prod(math.prod(d) for d in dims) > 64:
                dims = [(2, 2)] * n
            pure = rng.random() < 0.3
            sources = [
                self.random_source(
                    rng, d, None if pure or rng.random() < 0.3
                    else int(rng.integers(1, math.prod(d) + 1)))
                for d in dims
            ]
            got, want = network_product_state(sources), self.two_branch_reference(sources)
            assert (got.kind, got.subsystem_dims) == (want.kind, want.subsystem_dims)
            assert np.array_equal(got.data, want.data)
