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
  vectors. ``realize`` attains any unit-vector configuration's value with
  observables on an anticommuting basis and maximally entangled sources,
  so at ambient dimension m the model attains the quantum bound exactly.

``optimal_assignment`` is ``realize`` of the closed-form optimal vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionGuard, DimensionMismatch, OutOfRange, ZeroNorm
from .functionals import (
    LINEAR,
    Functional,
    Kind,
    ObservableAssignment,
    combine,
)
from .qcore import tensor_all
from .states import (
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
        if self.max_iters < 1:
            raise OutOfRange("max_iters must be at least 1")
        if not 0 < self.tol < math.inf:
            raise OutOfRange("tol must be positive and finite")
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

    The state travels as one (D, r) factor K with K K^dag = rho, whose
    correlators are c_t = sum conj(K) * (O_t K) = Tr(O_t rho): a pure
    state is K = psi with r = 1, a density is r = rank(rho) columns. Every
    contraction carries all r columns, so the cost grows with the rank.

    Operators travel as one (T, d, d) stack per slot: ``ops[j][t]`` is term
    t's operator on slot j (its signed observable sum on an edge slot, its
    central observable on the last slot), and ``None`` leaves a slot alone.
    """

    def __init__(self, f: Functional, dims: tuple[int, ...]):
        self.f = f
        self.dims = dims
        self.parties = len(dims) - 1
        self.coeffs = [f.coefficient_matrix(k) for k in range(self.parties)]
        # (before, slot, rest) around each slot; rest also holds the r columns.
        self.splits = [(math.prod(dims[:j]), d) for j, d in enumerate(dims)]

    def slot_ops(self, edge: list[np.ndarray], central: np.ndarray) -> list[np.ndarray]:
        return [self.f.signed_sums(k, edge[k]) for k in range(self.parties)] + [central]

    def apply(self, ket: np.ndarray, ops: Sequence[np.ndarray | None]) -> np.ndarray:
        """Stack over t of (ops[0][t] x ... x ops[-1][t]) ket, one batched
        matmul per slot; the result's leading axis is t."""
        out = ket[None]
        for (pre, d), op in zip(self.splits, ops):
            if op is not None:
                out = op[:, None] @ out.reshape(len(out), pre, d, -1)
        return out


def _correlators(ws: _Workspace, ket: np.ndarray, ops) -> list[float]:
    phi = ws.apply(ket, ops)
    return (phi.reshape(ws.f.n_terms, -1) @ ket.conj().reshape(-1)).real.tolist()


def _steering(ws: _Workspace, ket: np.ndarray, slot: int, ops) -> np.ndarray:
    """(T, d, d) steering stack H with Tr(A H[t]) the correlator of
    A (x) ops[t], A acting on ``slot`` in place of ``ops[slot]``."""
    pre, d = ws.splits[slot]
    phi = ws.apply(ket, ops[:slot] + [None] + ops[slot + 1 :])
    phi = phi.reshape(len(phi), pre, d, -1)
    return np.einsum("tpaq,pzq->taz", phi, ket.reshape(pre, d, -1).conj())


def _state_factor(state: QuantumState) -> np.ndarray:
    """(D, r) factor K with K K^dag = rho, r the rank at matrix_rank's cut."""
    if state.kind == "pure":
        return state.data[:, None]
    lam, vecs = np.linalg.eigh(state.data)
    keep = lam > lam.max() * len(lam) * np.finfo(float).eps
    return vecs[:, keep] * np.sqrt(lam[keep])


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
        import scipy.sparse.linalg  # only this branch needs scipy

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
    factor: np.ndarray | None,
):
    dims = ws.dims
    edge = [
        np.array([_random_involution(dims[k], rng) for _ in range(f.m)])
        for k in range(ws.parties)
    ]
    central = np.array(
        [_random_involution(dims[-1], rng) for _ in range(f.n_central_inputs)]
    )

    ket = factor
    if factor is None:
        total = int(np.prod(dims))
        psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        ket = (psi / np.linalg.norm(psi))[:, None]

    ops = ws.slot_ops(edge, central)
    corr = _correlators(ws, ket, ops)
    value = combine(f, corr)
    history = [value]
    converged = False

    def state_step(w):
        # Top eigenvector of the linearized Bell operator, damped by a
        # line search on the true objective: root-sum combiners are
        # concave in the correlators, so the full jump can overshoot.
        nonlocal ket, corr, value
        held = ket[:, 0]
        target = _top_eigvec(ws, ops, w, held)
        for eta in (1.0, 0.6, 0.35, 0.2, 0.1, 0.05, 0.02):
            cand = (1.0 - eta) * held + eta * target
            norm = np.linalg.norm(cand)
            if norm < 1e-12:
                continue
            ket = (cand / norm)[:, None]
            corr_new = _correlators(ws, ket, ops)
            value_new = combine(f, corr_new)
            if value_new > value:
                corr, value = corr_new, value_new
                return
        ket = held[:, None]

    def edge_step(w, k):
        nonlocal ops, corr, value
        held, held_ops = edge[k], ops
        edge[k] = _edge_update(ws, k, edge[k], w, _steering(ws, ket, k, ops))
        ops = ops[:k] + [f.signed_sums(k, edge[k])] + ops[k + 1 :]
        corr_new = _correlators(ws, ket, ops)
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
        central = _sign_eig(_steering(ws, ket, ws.parties, ops))
        ops = ops[:-1] + [central]
        corr = _correlators(ws, ket, ops)
        value = combine(f, corr)

    for _ in range(cfg.max_iters):
        before = value
        w = _weights(f, corr)
        if not np.any(w):
            w = np.where(np.asarray(corr) < 0, -1.0, 1.0)
        if factor is None:
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

    With ``fixed_state`` (pure or density) only the observables are
    optimized, on a (D, r) factor of the state taken once per call: r is
    its rank (1 when pure), and every step's cost scales with r. Otherwise
    the state is updated each sweep to the top eigenvector of the
    linearized Bell operator. The returned history is monotonically
    nondecreasing; a restart that fails to make progress is reported with
    ``converged=False``.
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

    factor = None if fixed_state is None else _state_factor(fixed_state)
    ws = _Workspace(f, dims)
    best = None
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        run = _seesaw_single(f, ws, rng, cfg, factor)
        if best is None or run[0] > best[0]:
            best = run

    value, ket, edge, central, history, converged = best
    state = fixed_state
    if state is None:
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
    omegas = [
        np.linalg.norm(f.coefficient_matrix(k) @ vectors[k], axis=1)
        for k in range(f.parties)
    ]
    return combine(f, np.prod(omegas, axis=0))


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
    ambient dimension by projected gradient ascent with restarts; above
    TOTAL_DIMENSION_GUARD it raises DimensionGuard before drawing."""
    if ambient < 1:
        raise OutOfRange("ambient dimension must be at least 1")
    if ambient > TOTAL_DIMENSION_GUARD:
        raise DimensionGuard(f"ambient {ambient} exceeds guard {TOTAL_DIMENSION_GUARD}")
    parties = f.parties
    best_value, best_v = -np.inf, None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        v0 = _normalize_rows(rng.standard_normal((parties, f.m, ambient)))
        value, v = _ascend(f, v0, max_iters)
        if value > best_value:
            best_value, best_v = value, v
    return best_value, VectorModel(vectors=best_v)


def realize(f: Functional, vectors: np.ndarray) -> tuple[QuantumState, ObservableAssignment]:
    """State and assignment whose functional value is the vector-model value
    of ``vectors``, a (parties, m, ambient) unit-vector configuration.

    Edge party k measures A_kx = v_kx . Gamma, Gamma = anticommuting_set(ambient),
    on maximally entangled sources of dimension 2^floor(ambient/2). Term
    i's central observable is (x)_k (S_ik / ||s_ik||)^T, with S_ik party
    k's signed observable sum and s_ik its signed vector sum; ZeroNorm is
    raised when some s_ik vanishes.
    """
    gamma = np.array([g.matrix for g in anticommuting_set(vectors.shape[2])])
    edge = np.tensordot(vectors, gamma, axes=1)
    units = []
    for k, a in enumerate(edge):
        norms = np.linalg.norm(f.coefficient_matrix(k) @ vectors[k], axis=1)
        if np.any(norms <= tol.ZERO_NORM):
            raise ZeroNorm(f"a signed vector sum of edge party {k} vanishes")
        units.append(np.swapaxes(f.signed_sums(k, a), 1, 2) / norms[:, None, None])
    state = network_product_state([maximally_entangled(len(gamma[0]))] * len(edge))
    central = tuple(Observable(tensor_all(ops)) for ops in zip(*units))
    return state, ObservableAssignment(
        edge=tuple(tuple(Observable(a) for a in row) for row in edge),
        central=central,
    )


def optimal_assignment(f: Functional) -> tuple[QuantumState, ObservableAssignment]:
    """Closed-form optimal realization saturating ``quantum_bound(f)``:
    ``realize`` of orthonormal vectors (np.eye(m)) for sign-table kinds
    and of the planar fan (sin(i pi/m), cos(i pi/m)) for cyclic kinds."""
    if f.kind in (Kind.CHAINED, Kind.XI):
        angles = [i * math.pi / f.m for i in range(f.m)]
        v = np.array([[math.sin(a), math.cos(a)] for a in angles])
    else:
        v = np.eye(f.m)
    return realize(f, np.array([v] * f.parties))
