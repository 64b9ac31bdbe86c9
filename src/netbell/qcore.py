"""Dense complex linear algebra for finite-dimensional quantum operators.

All matrices are plain ``numpy.ndarray`` of dtype complex128, row-major.
Scenario dimensions stay small (at most a few thousand), so everything is
dense and double precision throughout.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, NonHermitianInput

if TYPE_CHECKING:  # pragma: no cover
    from .states import QuantumState


def as_matrix(m: np.ndarray | Iterable) -> np.ndarray:
    """Coerce to a square complex matrix."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def is_hermitian(m: np.ndarray) -> bool:
    """True when max |M - M^dag| entry is at most ``HERMITIAN_CLAIM``."""
    arr = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(arr - arr.conj().T)) <= tol.HERMITIAN_CLAIM)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValueError("tensor_all needs at least one matrix")
    return reduce(tensor_product, mats)


def _real_part(value: complex) -> float:
    if abs(value.imag) > tol.IMAG_DISCARD:
        raise NonHermitianInput(
            f"expectation has imaginary residue {value.imag:.3e}; "
            "operator is not Hermitian on this state"
        )
    return float(value.real)


def expectation(state: "QuantumState", op: np.ndarray) -> float:
    """Expectation value: Tr(rho op) for density input, <psi|op|psi> for pure.

    The imaginary residue must be negligible and is discarded.
    """
    arr = as_matrix(op)
    if arr.shape[0] != state.dim:
        raise DimensionMismatch(
            f"operator dimension {arr.shape[0]} != state dimension {state.dim}"
        )
    if state.kind == "pure":
        value = complex(np.vdot(state.data, arr @ state.data))
    else:
        value = complex(np.einsum("ij,ji->", state.data, arr))
    return _real_part(value)

