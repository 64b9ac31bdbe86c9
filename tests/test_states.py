import math

import numpy as np
import pytest

from netbell import qcore, states
from netbell.errors import (
    InvalidDimension,
    NonHermitianInput,
    NonUnitVector,
    OutOfRange,
)
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
        with pytest.raises(NonHermitianInput):
            Observable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            Observable(np.diag([1.0, 0.5]))

    def test_dim(self):
        assert Observable(np.kron(SIGMA_X, SIGMA_X)).dim == 4


class TestQuantumState:
    def test_pure_norm_check(self):
        with pytest.raises(ValueError):
            QuantumState.pure([1.0, 1.0], (2,))

    def test_density_trace_check(self):
        with pytest.raises(ValueError):
            QuantumState.density(np.eye(2), (2,))

    def test_density_psd_check(self):
        with pytest.raises(ValueError):
            QuantumState.density(np.diag([1.5, -0.5]), (2,))

    def test_subsystem_dims_product(self):
        with pytest.raises(Exception):
            QuantumState.pure([1, 0, 0, 0], (2, 3))


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
        with pytest.raises(NonUnitVector):
            observable_from_bloch([1, 1, 0])


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
        with pytest.raises(InvalidDimension):
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
        with pytest.raises(OutOfRange):
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
        with pytest.raises(OutOfRange):
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
