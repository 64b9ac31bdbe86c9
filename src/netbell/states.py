"""Observables and quantum states: Bloch parametrizations, entangled pairs,
random densities, and mutually anticommuting observable sets.

The Pauli basis order is fixed as (x, y, z) everywhere; the two-qubit
correlation-matrix convention inherits it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    InvalidDimension,
    NonHermitianInput,
    NonUnitVector,
    OutOfRange,
)
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
        if not is_hermitian(arr):
            raise NonHermitianInput("observable matrix is not Hermitian")
        eye = np.eye(arr.shape[0])
        if np.max(np.abs(arr @ arr - eye)) > tol.INVOLUTION:
            raise ValueError("observable is not an involution (A^2 != I)")
        object.__setattr__(self, "matrix", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class QuantumState:
    """Pure vector or density operator with declared subsystem dimensions."""

    kind: str
    data: np.ndarray
    subsystem_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.subsystem_dims)
        total = math.prod(dims)
        arr = np.asarray(self.data, dtype=complex)
        if self.kind == "pure":
            arr = arr.reshape(-1)
            if arr.shape[0] != total:
                raise DimensionMismatch(
                    f"vector length {arr.shape[0]} != product of dims {total}"
                )
            if abs(np.linalg.norm(arr) - 1.0) > tol.UNIT_NORM:
                raise ValueError("pure state vector is not normalized")
        elif self.kind == "density":
            arr = as_matrix(arr)
            if arr.shape[0] != total:
                raise DimensionMismatch(
                    f"matrix dimension {arr.shape[0]} != product of dims {total}"
                )
            if not is_hermitian(arr):
                raise NonHermitianInput("density matrix is not Hermitian")
            if abs(np.trace(arr).real - 1.0) > tol.TRACE_ONE:
                raise ValueError("density matrix trace is not 1")
            if float(np.linalg.eigvalsh(arr)[0]) < tol.PSD_FLOOR:
                raise ValueError("density matrix is not positive semidefinite")
        else:
            raise ValueError(f"unknown state kind {self.kind!r}")
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

    def density_matrix(self) -> np.ndarray:
        """Density-operator form regardless of kind."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


def observable_from_bloch(v: Sequence[float]) -> Observable:
    """Observable v . sigma for a unit Bloch vector v = (vx, vy, vz)."""
    vec = np.asarray(v, dtype=float).reshape(-1)
    if vec.shape[0] != 3:
        raise NonUnitVector("Bloch vector must have three components")
    if abs(np.linalg.norm(vec) - 1.0) > tol.UNIT_NORM:
        raise NonUnitVector(f"Bloch vector has norm {np.linalg.norm(vec)!r}, not 1")
    return Observable(vec[0] * SIGMA_X + vec[1] * SIGMA_Y + vec[2] * SIGMA_Z)


def maximally_entangled(d: int) -> QuantumState:
    """(1/sqrt(d)) sum_i |ii> on subsystem dims (d, d)."""
    if d < 2:
        raise InvalidDimension(f"local dimension must be at least 2, got {d}")
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


def random_two_qubit_density(seed: int, rank: int) -> QuantumState:
    """Reproducible random two-qubit density matrix of the requested rank.

    Ginibre construction: rho = G G^dag / Tr(G G^dag) with G a complex
    standard-normal 4 x rank matrix drawn from ``default_rng(seed)``.
    """
    if rank not in (1, 2, 3, 4):
        raise OutOfRange(f"rank must be in 1..4, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (rho + rho.conj().T) / 2
    return QuantumState.density(rho, (2, 2))


def anticommuting_set(m: int) -> list[Observable]:
    """m mutually anticommuting Hermitian involutions on dimension 2^floor(m/2).

    Pauli-string construction: the k-th pair is Y^(k-1) (x) {X, Z} padded
    with identities, and odd m closes with the full Y string. Satisfies
    {G_i, G_j} = 2 delta_ij I.
    """
    if m < 2:
        raise OutOfRange(f"need at least two observables, got m={m}")
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
        raise ValueError("need at least one source state")
    for s in sources:
        if len(s.subsystem_dims) != 2:
            raise DimensionMismatch("each source state must be bipartite")
    edge_dims = [s.subsystem_dims[0] for s in sources]
    central_dims = [s.subsystem_dims[1] for s in sources]
    n = len(sources)
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    pair_dims = [d for s in sources for d in s.subsystem_dims]
    out_dims = tuple(edge_dims) + (math.prod(central_dims),)

    if all(s.kind == "pure" for s in sources):
        vec = tensor_all([s.data for s in sources])
        vec = vec.reshape(pair_dims).transpose(perm).reshape(-1)
        return QuantumState.pure(vec, out_dims)

    rho = tensor_all([s.density_matrix() for s in sources])
    full_perm = perm + [p + 2 * n for p in perm]
    rho = rho.reshape(pair_dims * 2).transpose(full_perm)
    total = math.prod(pair_dims)
    return QuantumState.density(rho.reshape(total, total), out_dims)
