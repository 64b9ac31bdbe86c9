"""Quantum-side optimization.

Two routes to the optimal quantum value of a functional:

* ``seesaw_optimize`` works with explicit finite-dimensional observables
  and a state, alternating exact block updates. Nonlinear (root-sum)
  combiners are handled by per-sweep linearization with gradient weights;
  central-party observables are updated exactly (each term owns its
  central input), which keeps the true objective moving even where the
  linearization is flat.

* ``vector_model_optimize`` maximizes the dimension-free closed form in
  which each per-party norm is the Euclidean norm of a signed sum of unit
  vectors. Any unit-vector configuration is realizable by observables
  built on an anticommuting operator basis, so at ambient dimension m the
  model attains the quantum bound exactly.

``optimal_assignment`` builds the closed-form optimizer (anticommuting or
planar observables, transposed partner observables, maximally entangled
sources) that saturates the quantum bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse.linalg

from . import tolerances as tol
from .errors import DimensionGuard, DimensionMismatch, NonHermitianInput, OutOfRange
from .functionals import (
    LINEAR,
    Functional,
    Kind,
    ObservableAssignment,
    combine,
)
from .qcore import as_matrix, is_hermitian, tensor_all
from .states import (
    SIGMA_X,
    SIGMA_Z,
    Observable,
    QuantumState,
    anticommuting_set,
    maximally_entangled,
    network_product_state,
)

TOTAL_DIMENSION_GUARD = 2**12
_DENSE_EIG_LIMIT = 128
_WEIGHT_CLAMP = 1e-9


@dataclass(frozen=True)
class SeesawConfig:
    """Knobs for the alternating optimization.

    ``edge_dim`` is each edge party's local dimension and of each of the
    central party's n slots. ``tol`` is the relative value change that
    counts as converged.
    """

    edge_dim: int = 2
    max_iters: int = 400
    tol: float = 1e-12
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.edge_dim < 2:
            raise OutOfRange("edge_dim must be at least 2")
        if self.tol <= 0:
            raise OutOfRange("tol must be positive")
        if self.restarts < 1:
            raise OutOfRange("restarts must be at least 1")


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    state: QuantumState
    observables: ObservableAssignment
    iterations: int
    converged: bool
    history: tuple[float, ...]


@dataclass(frozen=True)
class VectorModel:
    """Per edge party, m real unit vectors in a shared ambient space."""

    vectors: np.ndarray  # (parties, m, ambient)


def best_response_observable(steering: np.ndarray) -> Observable:
    """Observable maximizing Tr(A H) over Hermitian involutions A.

    The maximizer is the eigenvalue-wise sign of H, with zero eigenvalues
    mapped to +1.
    """
    arr = as_matrix(steering)
    if not is_hermitian(arr, tol.HERMITIAN_INPUT):
        raise NonHermitianInput("steering matrix is not Hermitian")
    return Observable(_sign_eig(arr))


def _sign_eig(h: np.ndarray) -> np.ndarray:
    """Eigenvalue-wise sign of the Hermitian part of h, or of every matrix
    in a (..., d, d) stack; zero eigenvalues map to +1."""
    h = (h + np.swapaxes(h.conj(), -1, -2)) / 2
    vals, vecs = np.linalg.eigh(h)
    signs = np.where(vals < 0, -1.0, 1.0)
    return (vecs * signs[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


class _Workspace:
    """Shared geometry for one seesaw run: slot dims, coefficient tables
    and the batched slot contractions.

    The state travels as a (ket, bra) pair of (D, cols) arrays whose
    correlators are c_t = sum conj(bra) * (O_t ket): a pure state is
    ket = bra = psi with one column, a density state is ket = rho and
    bra = I with D columns, so that c_t = Tr(O_t rho).

    Operators travel as one (T, d, d) stack per slot: ``ops[j][t]`` is term
    t's operator on slot j (its signed observable sum on an edge slot, its
    central observable on the last slot), and ``None`` leaves a slot alone.
    """

    def __init__(self, f: Functional, dims: tuple[int, ...], cols: int = 1):
        self.f = f
        self.dims = dims
        self.parties = len(dims) - 1
        self.coeffs = [f.coefficient_matrix(k) for k in range(self.parties)]
        # The state as (before, slot, after) around each slot, columns last.
        self.splits = [
            (math.prod(dims[:j]), d, math.prod(dims[j + 1 :]) * cols)
            for j, d in enumerate(dims)
        ]

    def slot_ops(self, edge: list[np.ndarray], central: np.ndarray) -> list[np.ndarray]:
        return [self.f.signed_sums(k, edge[k]) for k in range(self.parties)] + [central]

    def apply(self, ket: np.ndarray, ops: Sequence[np.ndarray | None]) -> np.ndarray:
        """Stack over t of (ops[0][t] x ... x ops[-1][t]) ket, one batched
        matmul per slot; the result's leading axis is t."""
        out = ket[None]
        for (pre, d, post), op in zip(self.splits, ops):
            if op is not None:
                out = op[:, None] @ out.reshape(-1, pre, d, post)
        return out


def _correlators(ws: _Workspace, ket: np.ndarray, bra: np.ndarray, ops) -> list[float]:
    phi = ws.apply(ket, ops)
    return (phi.reshape(ws.f.n_terms, -1) @ bra.conj().reshape(-1)).real.tolist()


def _steering(
    ws: _Workspace, ket: np.ndarray, bra: np.ndarray, slot: int, ops
) -> np.ndarray:
    """(T, d, d) steering stack H with Tr(A H[t]) the correlator of
    A (x) ops[t], A acting on ``slot`` (where ``ops`` holds None)."""
    split = ws.splits[slot]
    phi = ws.apply(ket, ops).reshape((-1,) + split)
    return np.einsum("tpaq,pzq->taz", phi, bra.reshape(split).conj())


def _weights(f: Functional, correlators: Sequence[float]) -> np.ndarray:
    if f.combiner == LINEAR:
        return np.ones(len(correlators))
    out = np.zeros(len(correlators))
    for i, v in enumerate(correlators):
        if abs(v) >= _WEIGHT_CLAMP:
            out[i] = abs(v) ** (1.0 / f.n - 1.0) * np.sign(v) / f.n
    return out


def _top_eigvec(ws: _Workspace, ops, w: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """Top eigenvector of the linearized Bell operator sum_t w[t] ops[t]."""
    total = int(np.prod(ws.dims))
    if total <= _DENSE_EIG_LIMIT:
        kron = ops[0]
        for op in ops[1:]:
            t, a, b = kron.shape
            _, c, d = op.shape
            kron = np.einsum("tab,tcd->tacbd", kron, op).reshape(t, a * c, b * d)
        vec = np.linalg.eigh(np.tensordot(w, kron, axes=1))[1][:, -1]
    else:

        def matvec(v):
            return np.tensordot(w, ws.apply(v, ops), axes=1).reshape(-1)

        op = scipy.sparse.linalg.LinearOperator(
            (total, total), matvec=matvec, dtype=complex
        )
        try:
            _, vecs = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=psi0)
        except scipy.sparse.linalg.ArpackNoConvergence:
            # A start vector that is already a top eigenvector to rounding
            # (the state at an optimum) can leave a residual ARPACK's
            # default machine-precision tolerance never accepts.
            _, vecs = scipy.sparse.linalg.eigsh(
                op, k=1, which="LA", v0=psi0, tol=tol.LANCZOS_RETRY
            )
        vec = vecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.conj(vec[pivot]) / abs(vec[pivot]))
    return vec / np.linalg.norm(vec)


def _edge_update(
    ws: _Workspace, k: int, observables: np.ndarray, w: np.ndarray, steer: np.ndarray
) -> np.ndarray:
    """Best response of edge party k's (m, d, d) observables to the (T, d, d)
    steering stack under term weights w. A setting whose weighted
    coefficients w[t] C_k[t, x] all vanish is left unchanged."""
    wc = w[:, None] * ws.coeffs[k]
    moved = np.any(wc != 0, axis=0)
    out = observables.copy()
    out[moved] = _sign_eig(np.einsum("tx,tab->xab", wc[:, moved], steer))
    return out


def _random_involution(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-rotated involution with a balanced spectrum. Definite (+-I)
    starts are avoided: they annihilate every signed observable sum."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(dim)])
    return (q * signs) @ q.conj().T


def _seesaw_single(
    f: Functional,
    ws: _Workspace,
    rng: np.random.Generator,
    cfg: SeesawConfig,
    fixed: QuantumState | None,
):
    dims = ws.dims
    edge = [
        np.array([_random_involution(dims[k], rng) for _ in range(f.m)])
        for k in range(ws.parties)
    ]
    central = np.array(
        [_random_involution(dims[-1], rng) for _ in range(f.n_central_inputs)]
    )

    if fixed is None:
        psi = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(
            int(np.prod(dims))
        )
        ket = bra = (psi / np.linalg.norm(psi))[:, None]
    elif fixed.kind == "pure":
        ket = bra = np.array(fixed.data)[:, None]
    else:
        ket, bra = np.array(fixed.data), np.eye(len(fixed.data))

    def correlators(ops):
        return _correlators(ws, ket, bra, ops)

    def steering(slot, ops):
        return _steering(ws, ket, bra, slot, ops[:slot] + [None] + ops[slot + 1 :])

    ops = ws.slot_ops(edge, central)
    corr = correlators(ops)
    value = combine(f, corr)
    history = [value]
    converged = False

    def state_step(w):
        # Top eigenvector of the linearized Bell operator, damped by a
        # line search on the true objective: root-sum combiners are
        # concave in the correlators, so the full jump can overshoot.
        nonlocal ket, bra, corr, value
        held = ket[:, 0]
        target = _top_eigvec(ws, ops, w, held)
        for eta in (1.0, 0.6, 0.35, 0.2, 0.1, 0.05, 0.02):
            cand = (1.0 - eta) * held + eta * target
            norm = np.linalg.norm(cand)
            if norm < 1e-12:
                continue
            ket = bra = (cand / norm)[:, None]
            corr_new = correlators(ops)
            value_new = combine(f, corr_new)
            if value_new > value:
                corr, value = corr_new, value_new
                return
        ket = bra = held[:, None]

    def edge_step(w, k):
        nonlocal ops, corr, value
        held, held_ops = edge[k], ops
        edge[k] = _edge_update(ws, k, edge[k], w, steering(k, ops))
        ops = ops[:k] + [f.signed_sums(k, edge[k])] + ops[k + 1 :]
        corr_new = correlators(ops)
        value_new = combine(f, corr_new)
        if value_new >= value:
            corr, value = corr_new, value_new
        else:
            edge[k] = held
            ops = held_ops

    def central_step():
        # Each term owns its central input, so this update maximizes I_i
        # (hence |I_i|) exactly and never decreases the objective.
        # ``central`` is rebound, never written in place: ops[-1] is it.
        nonlocal central, ops, corr, value
        central = _sign_eig(steering(ws.parties, ops))
        ops = ops[:-1] + [central]
        corr = correlators(ops)
        value = combine(f, corr)

    for _ in range(cfg.max_iters):
        before = value
        w = _weights(f, corr)
        if not np.any(w):
            w = np.where(np.asarray(corr) < 0, -1.0, 1.0)
        if fixed is None:
            state_step(w)
        for k in range(ws.parties):
            edge_step(w, k)
        central_step()

        history.append(value)
        if value - before <= cfg.tol * max(1.0, abs(value)):
            converged = True
            break

    return value, ket, edge, central, history, converged


def seesaw_optimize(
    f: Functional,
    cfg: SeesawConfig | None = None,
    fixed_state: QuantumState | None = None,
) -> OptimizationResult:
    """Best-of-restarts alternating optimization of a functional.

    With ``fixed_state`` the state is held fixed (pure or density) and only
    the observables are optimized; otherwise the state is updated each
    sweep to the top eigenvector of the linearized Bell operator. The
    returned history is monotonically nondecreasing; a restart that fails
    to make progress is reported with ``converged=False``.
    """
    cfg = cfg or SeesawConfig()
    parties = f.parties
    if fixed_state is not None:
        dims = tuple(fixed_state.subsystem_dims)
        if len(dims) != parties + 1:
            raise DimensionMismatch(
                f"fixed state must have {parties + 1} slots, got {len(dims)}"
            )
    else:
        dims = (cfg.edge_dim,) * parties + (cfg.edge_dim**parties,)
    total = int(np.prod(dims))
    if total > TOTAL_DIMENSION_GUARD:
        raise DimensionGuard(
            f"total dimension {total} exceeds guard {TOTAL_DIMENSION_GUARD}"
        )

    density = fixed_state is not None and fixed_state.kind != "pure"
    ws = _Workspace(f, dims, total if density else 1)
    best = None
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        run = _seesaw_single(f, ws, rng, cfg, fixed_state)
        if best is None or run[0] > best[0]:
            best = run

    value, ket, edge, central, history, converged = best
    if fixed_state is not None:
        state = fixed_state
    else:
        state = QuantumState.pure(ket[:, 0], dims)
    observables = ObservableAssignment(
        edge=tuple(tuple(Observable(a) for a in row) for row in edge),
        central=tuple(Observable(b) for b in central),
    )
    return OptimizationResult(
        value=float(value),
        state=state,
        observables=observables,
        iterations=len(history) - 1,
        converged=converged,
        history=tuple(float(v) for v in history),
    )


def vector_model_value(f: Functional, vectors: np.ndarray) -> float:
    """Closed-form value of a unit-vector configuration: each per-party
    norm is ||sum_x c_x v_x|| and the combiner is applied to their
    per-term products."""
    parties = f.parties
    omegas = np.empty((parties, f.n_terms))
    for k in range(parties):
        w = f.coefficient_matrix(k) @ vectors[k]
        omegas[k] = np.linalg.norm(w, axis=1)
    return float(np.sum(np.prod(omegas, axis=0) ** (1.0 / f.n)))


def _vector_gradient(f: Functional, vectors: np.ndarray) -> np.ndarray:
    parties, _, _ = vectors.shape
    sums = [f.coefficient_matrix(k) @ vectors[k] for k in range(parties)]
    omegas = np.array([np.linalg.norm(w, axis=1) for w in sums])
    safe = np.where(omegas < 1e-12, 1.0, omegas)
    terms = np.prod(np.where(omegas < 1e-12, 0.0, omegas), axis=0) ** (1.0 / f.n)
    grad = np.zeros_like(vectors)
    for k in range(parties):
        coef = np.where(omegas[k] < 1e-12, 0.0, terms / (f.n * safe[k]))
        units = sums[k] / safe[k][:, None]
        grad[k] = f.coefficient_matrix(k).T @ (coef[:, None] * units)
    return grad


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=2, keepdims=True)
    return vectors / np.where(norms < 1e-300, 1.0, norms)


def _ascend(f: Functional, v0: np.ndarray, max_iters: int) -> tuple[float, np.ndarray]:
    v = v0
    value = vector_model_value(f, v)
    step = 0.5
    for _ in range(max_iters):
        grad = _vector_gradient(f, v)
        improved = False
        for _ in range(60):
            cand = _normalize_rows(v + step * grad)
            cand_value = vector_model_value(f, cand)
            if cand_value > value:
                v, value = cand, cand_value
                step = min(step * 1.3, 1e6)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    # Conditional-gradient polish: moving each vector to its normalized
    # gradient is monotone for the linear kinds and sharpens the optimum.
    for _ in range(500):
        cand = _normalize_rows(_vector_gradient(f, v))
        cand_value = vector_model_value(f, cand)
        if cand_value > value:
            v, value = cand, cand_value
        else:
            break
    return value, v


def vector_model_optimize(
    f: Functional,
    ambient: int,
    seed: int = 0,
    restarts: int = 12,
    max_iters: int = 3000,
) -> tuple[float, VectorModel]:
    """Maximize the vector-model closed form over unit vectors in the given
    ambient dimension by projected gradient ascent with restarts."""
    if ambient < 1:
        raise OutOfRange("ambient dimension must be at least 1")
    parties = f.parties
    best_value, best_v = -np.inf, None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        v0 = _normalize_rows(rng.standard_normal((parties, f.m, ambient)))
        value, v = _ascend(f, v0, max_iters)
        if value > best_value:
            best_value, best_v = value, v
    return best_value, VectorModel(vectors=best_v)


def _planar_edge_observables(m: int) -> list[Observable]:
    """m qubit observables fanned at angle pi/m steps in the x-z plane."""
    out = []
    for i in range(m):
        phi = i * math.pi / m
        out.append(Observable(math.cos(phi) * SIGMA_Z + math.sin(phi) * SIGMA_X))
    return out


def optimal_assignment(f: Functional) -> tuple[QuantumState, ObservableAssignment]:
    """Closed-form optimal realization saturating ``quantum_bound(f)``.

    Sign-table kinds use a mutually anticommuting observable set per edge
    party (dimension 2^floor(m/2)); cyclic kinds use planar qubit
    observables. Every source is maximally entangled and each central
    observable is the tensor product over sources of the transposed,
    normalized signed sums.
    """
    parties = f.parties
    if f.kind in (Kind.CHAINED, Kind.XI):
        edge_obs = _planar_edge_observables(f.m)
        norm = 2.0 * math.cos(math.pi / (2 * f.m))
    else:
        edge_obs = anticommuting_set(f.m)
        norm = math.sqrt(f.m)
    dim = edge_obs[0].dim

    sums = f.signed_sums(0, [o.matrix for o in edge_obs])
    state = network_product_state([maximally_entangled(dim)] * parties)
    central = tuple(
        Observable(tensor_all([s.T / norm] * parties)) for s in sums
    )
    edge = tuple(tuple(edge_obs) for _ in range(parties))
    return state, ObservableAssignment(edge=edge, central=central)
