import numpy as np
import pytest

from netbell import qcore
from netbell.errors import InvalidInput
from netbell.states import SIGMA_X, SIGMA_Z, QuantumState

SINGLET = QuantumState.pure(np.array([0, 1, -1, 0]) / np.sqrt(2), (2, 2))


def kron_by_index_formula(a, b):
    """Oracle: (a (x) b)[i*p+k, j*q+l] = a[i,j] * b[k,l], expanded by hand."""
    n, m = a.shape
    p, q = b.shape
    out = np.zeros((n * p, m * q), dtype=complex)
    for i in range(n):
        for j in range(m):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


class TestTensorProduct:
    def test_identity_case(self):
        assert np.array_equal(qcore.tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_dimension_arithmetic(self):
        a = np.ones((2, 2))
        b = np.ones((3, 3))
        assert qcore.tensor_product(a, b).shape == (6, 6)

    def test_sigma_x_sigma_z_entries(self):
        got = qcore.tensor_product(SIGMA_X, SIGMA_Z)
        assert np.allclose(got, kron_by_index_formula(SIGMA_X, SIGMA_Z))
        assert got[0, 2] == 1
        assert got[1, 3] == -1

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(3)
        a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
        lhs = qcore.tensor_product(a, b) @ qcore.tensor_product(c, d)
        rhs = qcore.tensor_product(a @ c, b @ d)
        assert np.allclose(lhs, rhs)

    def test_tensor_all_needs_a_matrix(self):
        with pytest.raises(InvalidInput, match="at least one matrix"):
            qcore.tensor_all([])

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b, c = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(3)
            )
            left = qcore.tensor_product(qcore.tensor_product(a, b), c)
            right = qcore.tensor_product(a, qcore.tensor_product(b, c))
            assert np.max(np.abs(left - right)) <= 1e-14


class TestExpectation:
    def test_ket_zero_sigma_z(self):
        state = QuantumState.pure([1, 0], (2,))
        assert qcore.expectation(state, SIGMA_Z) == pytest.approx(1.0)

    def test_maximally_mixed_traceless(self):
        state = QuantumState.density(np.eye(2) / 2, (2,))
        assert qcore.expectation(state, SIGMA_X) == pytest.approx(0.0)

    def test_singlet_zz(self):
        # Oracle: explicit quadratic form sum_ij conj(psi_i) M_ij psi_j.
        m = np.kron(SIGMA_Z, SIGMA_Z)
        psi = SINGLET.data
        byhand = sum(
            (psi[i].conjugate() * m[i, j] * psi[j]).real
            for i in range(4)
            for j in range(4)
        )
        assert byhand == pytest.approx(-1.0)
        assert qcore.expectation(SINGLET, m) == pytest.approx(-1.0)

    def test_identity_on_random_states(self):
        rng = np.random.default_rng(23)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        pure = QuantumState.pure(vec, (4,))
        assert qcore.expectation(pure, np.eye(4)) == pytest.approx(1.0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        dens = QuantumState.density(rho, (4,))
        assert qcore.expectation(dens, np.eye(4)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput, match="operator dimension 2"):
            qcore.expectation(SINGLET, SIGMA_Z)

    def test_imaginary_residue(self):
        with pytest.raises(InvalidInput, match="imaginary residue"):
            qcore.expectation(QuantumState.pure([1, 0], (2,)), 1j * np.eye(2))

