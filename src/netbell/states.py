"""Observables and quantum states: Bloch parametrizations, entangled pairs,
random densities, and mutually anticommuting observable sets.

The Pauli basis order is fixed as (x, y, z) everywhere; the two-qubit
correlation-matrix convention inherits it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import tolerances as tol
from .errors import InvalidInput
from .qcore import as_matrix, is_hermitian, tensor_all

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Observable:
    """Hermitian involution (a +1/-1 outcome measurement operator)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = as_matrix(self.matrix)
        # Huge finite entries overflow to inf or NaN, which fail the checks
        # as any non-involution does, without a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if not is_hermitian(arr):
                raise InvalidInput("observable matrix is not Hermitian")
            square = arr @ arr - np.eye(arr.shape[0])
            if not np.max(np.abs(square)) <= tol.INVOLUTION:
                raise InvalidInput("observable is not an involution (A^2 != I)")
        object.__setattr__(self, "matrix", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_densities(arr: np.ndarray) -> None:
    """Refuse a density matrix, or a (..., D, D) stack of them, that is not
    Hermitian, of trace one and positive semidefinite."""
    if not is_hermitian(arr):
        raise InvalidInput("density matrix is not Hermitian")
    if not np.all(np.abs(np.trace(arr, axis1=-2, axis2=-1).real - 1.0) <= tol.TRACE_ONE):
        raise InvalidInput("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(arr)[..., 0]) < tol.PSD_FLOOR:
        raise InvalidInput("density matrix is not positive semidefinite")


@dataclass(frozen=True)
class QuantumState:
    """Pure vector or density operator with declared subsystem dimensions.
    The seesaw and the SOS certificate read its entries only through ``factor``."""

    kind: str
    data: np.ndarray
    subsystem_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.subsystem_dims:
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
                raise InvalidInput(
                    f"subsystem dims must be positive integers, got {self.subsystem_dims!r}"
                )
        dims = tuple(int(d) for d in self.subsystem_dims)
        total = math.prod(dims)
        arr = np.asarray(self.data, dtype=complex)
        # Written as "not within tolerance" so that NaN fails the checks;
        # huge finite entries overflow to inf or NaN there, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "pure":
                if arr.ndim != 1:
                    raise InvalidInput(f"pure state data must be a vector, got shape {arr.shape}")
                if arr.shape[0] != total:
                    raise InvalidInput(
                        f"vector length {arr.shape[0]} != product of dims {total}"
                    )
                if not abs(np.linalg.norm(arr) - 1.0) <= tol.UNIT_NORM:
                    raise InvalidInput("pure state vector is not normalized")
            elif self.kind == "density":
                arr = as_matrix(arr)
                if arr.shape[0] != total:
                    raise InvalidInput(
                        f"matrix dimension {arr.shape[0]} != product of dims {total}"
                    )
                _check_densities(arr)
            else:
                raise InvalidInput(f"unknown state kind {self.kind!r}")
        object.__setattr__(self, "data", _frozen(arr))
        object.__setattr__(self, "subsystem_dims", dims)

    @classmethod
    def pure(cls, vector: Iterable, subsystem_dims: Sequence[int]) -> "QuantumState":
        return cls(kind="pure", data=np.asarray(vector, dtype=complex),
                   subsystem_dims=tuple(subsystem_dims))

    @classmethod
    def density(cls, matrix: Iterable, subsystem_dims: Sequence[int]) -> "QuantumState":
        return cls(kind="density", data=np.asarray(matrix, dtype=complex),
                   subsystem_dims=tuple(subsystem_dims))

    @property
    def dim(self) -> int:
        return math.prod(self.subsystem_dims)

    @cached_property
    def factor(self) -> np.ndarray:
        """Read-only, C-contiguous (D, r) K with K K^dag = rho, computed on
        first use: the vector when pure, else sqrt(eigenvalue)-scaled
        eigenvectors above matrix_rank's cut. The seesaw's sums depend on
        the memory layout, so eigh's Fortran order is not passed on."""
        if self.kind == "pure":
            return self.data[:, None]
        lam, vecs = np.linalg.eigh(self.data)
        keep = lam > lam.max() * len(lam) * np.finfo(float).eps
        out = np.ascontiguousarray(vecs[:, keep] * np.sqrt(lam[keep]))
        out.setflags(write=False)
        return out

    def density_matrix(self) -> np.ndarray:
        """Density-operator form regardless of kind."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


def observable_from_bloch(v: Sequence[float]) -> Observable:
    """Observable v . sigma for a unit Bloch vector v = (vx, vy, vz)."""
    vec = np.asarray(v, dtype=float).reshape(-1)
    if vec.shape[0] != 3:
        raise InvalidInput("Bloch vector must have three components")
    if abs(np.linalg.norm(vec) - 1.0) > tol.UNIT_NORM:
        raise InvalidInput(f"Bloch vector has norm {np.linalg.norm(vec)!r}, not 1")
    return Observable(vec[0] * SIGMA_X + vec[1] * SIGMA_Y + vec[2] * SIGMA_Z)


def maximally_entangled(d: int) -> QuantumState:
    """(1/sqrt(d)) sum_i |ii> on subsystem dims (d, d)."""
    if d < 2:
        raise InvalidInput(f"local dimension must be at least 2, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return QuantumState.pure(vec, (d, d))


def schmidt_pure_two_qubit(theta: float) -> QuantumState:
    """cos(theta)|00> + sin(theta)|11>.

    Angles outside [0, pi/4] are folded into it (theta mod pi/2, reflected
    about pi/4), which permutes the two Schmidt weights.
    """
    t = float(theta) % (math.pi / 2)
    if t > math.pi / 4:
        t = math.pi / 2 - t
    vec = np.zeros(4, dtype=complex)
    vec[0] = math.cos(t)
    vec[3] = math.sin(t)
    return QuantumState.pure(vec, (2, 2))


def random_two_qubit_densities(seeds: Sequence[int], ranks: Sequence[int]) -> np.ndarray:
    """(N, 4, 4) stack of reproducible random two-qubit density matrices,
    entry k of rank ranks[k] from ``default_rng(seeds[k])``.

    Ginibre construction: rho = G G^dag / Tr(G G^dag) with G a complex
    standard-normal 4 x rank matrix, zero-padded to 4 x 4. The stack is
    checked as ``QuantumState.density`` checks one state.
    """
    g = np.zeros((len(seeds), 4, 4), dtype=complex)
    for k, (seed, rank) in enumerate(zip(seeds, ranks)):
        if rank not in (1, 2, 3, 4):
            raise InvalidInput(f"rank must be in 1..4, got {rank}")
        rng = np.random.default_rng(seed)
        g[k, :, :rank] = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    rho = (rho + np.swapaxes(rho.conj(), -1, -2)) / 2
    _check_densities(rho)
    return rho


def random_two_qubit_density(seed: int, rank: int) -> QuantumState:
    """The one-entry ``random_two_qubit_densities`` draw as a state."""
    return QuantumState.density(random_two_qubit_densities([seed], [rank])[0], (2, 2))


def anticommuting_set(m: int) -> list[Observable]:
    """m mutually anticommuting Hermitian involutions on dimension 2^floor(m/2).

    Pauli-string construction: the k-th pair is Y^(k-1) (x) {X, Z} padded
    with identities, and odd m closes with the full Y string. Satisfies
    {G_i, G_j} = 2 delta_ij I.
    """
    if m < 2:
        raise InvalidInput(f"need at least two observables, got m={m}")
    q = m // 2
    eye = np.eye(2, dtype=complex)
    out: list[Observable] = []
    for k in range(q):
        prefix = [SIGMA_Y] * k
        suffix = [eye] * (q - k - 1)
        out.append(Observable(tensor_all(prefix + [SIGMA_X] + suffix)))
        out.append(Observable(tensor_all(prefix + [SIGMA_Z] + suffix)))
    if m % 2 == 1:
        out.append(Observable(tensor_all([SIGMA_Y] * q)))
    return out


def network_product_state(sources: Sequence[QuantumState]) -> QuantumState:
    """Joint state of n independent sources in network slot order.

    Each source state lives on (edge_k, central_k). The result carries
    subsystem dims (edge_1, ..., edge_n, central_total) with the central
    slots grouped last, matching how functionals address the parties.
    """
    if not sources:
        raise InvalidInput("need at least one source state")
    for s in sources:
        if len(s.subsystem_dims) != 2:
            raise InvalidInput("each source state must be bipartite")
    edge_dims = [s.subsystem_dims[0] for s in sources]
    central_dims = [s.subsystem_dims[1] for s in sources]
    n = len(sources)
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    pair_dims = [d for s in sources for d in s.subsystem_dims]
    out_dims = tuple(edge_dims) + (math.prod(central_dims),)

    # A vector when every source is pure, else a matrix whose row and
    # column axes are each permuted the same way.
    pure = all(s.kind == "pure" for s in sources)
    joint = tensor_all([s.data if pure else s.density_matrix() for s in sources])
    axes = perm if pure else perm + [p + 2 * n for p in perm]
    total = math.prod(pair_dims)
    joint = joint.reshape(pair_dims * joint.ndim).transpose(axes).reshape((total,) * joint.ndim)
    return QuantumState("pure" if pure else "density", joint, out_dims)
