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
_ASCENT_ITERS = 3000


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


def _sign_eig(h: np.ndarray) -> np.ndarray:
    """Eigenvalue-wise sign of the Hermitian part of h, or of every matrix
    in a (..., d, d) stack; zero eigenvalues map to +1."""
    h = (h + np.swapaxes(h.conj(), -1, -2)) / 2
    vals, vecs = np.linalg.eigh(h)
    signs = np.where(vals < 0, -1.0, 1.0)
    return (vecs * signs[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


class _Workspace:
    """Shared geometry for one seesaw run or certificate: slot dims and the
    batched slot contractions.

    The state travels as its (D, r) ``QuantumState.factor`` K, whose
    correlators are c_t = sum conj(K) * (O_t K) = Tr(O_t rho): r = 1 for a
    pure state, rank(rho) for a density. Every contraction carries all r
    columns, so the cost grows with the rank.

    Operators travel as one (..., T, d, d) stack per slot, any restart axis
    first: ``ops[j][..., t, :, :]`` is term t's operator on slot j (a signed
    sum on an edge slot, a central observable on the last); ``None`` skips it.
    """

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims
        # (before, slot, rest) around each slot; rest also holds the r columns.
        self.splits = [(math.prod(dims[:j]), d) for j, d in enumerate(dims)]

    def apply(self, x: np.ndarray, ops: Sequence[np.ndarray | None]) -> np.ndarray:
        """Stack over t of (ops[0][t] x ... x ops[-1][t]) x[t], one batched
        matmul per slot, for (..., T, d, d) operator stacks and a (..., 1 or
        T, D, ...) stack x with the same leading axes; a one-entry term axis
        is applied to every term. The result has x's shape with T leading D."""
        out, lead = x, ()
        for (pre, d), op in zip(self.splits, ops):
            if op is not None:
                lead = out.shape[: op.ndim - 2]
                out = op[..., None, :, :] @ out.reshape(lead + (pre, d, -1))
        return out.reshape(out.shape[: len(lead)] + x.shape[len(lead) :])


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of v, with np.linalg.norm's bits per row."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _correlators(ws: _Workspace, ket: np.ndarray, ops) -> np.ndarray:
    """(R, T) correlators of an (R, D, r) stack of factors or one (1, D, r)."""
    phi = ws.apply(ket[:, None], ops)
    return (phi.reshape(phi.shape[:2] + (-1,)) @ ket.conj().reshape(len(ket), -1, 1))[..., 0].real


def _steering(ws: _Workspace, ket: np.ndarray, slot: int, ops) -> np.ndarray:
    """(R, T, d, d) steering stack H with Tr(A H[r, t]) the correlator of
    A (x) ops[r, t], A acting on ``slot`` in place of ``ops[slot]``."""
    pre, d = ws.splits[slot]
    phi = ws.apply(ket[:, None], ops[:slot] + [None] + ops[slot + 1 :])
    phi = phi.reshape(phi.shape[:2] + (pre, d, -1))
    return np.einsum("...tpaq,...pzq->...taz", phi, ket.reshape(len(ket), pre, d, -1).conj())


def _weights(f: Functional, correlators: np.ndarray) -> np.ndarray:
    """Combiner gradient at a (..., T) correlator stack, 0 below _WEIGHT_CLAMP;
    a row left with no weight takes the correlators' signs. float_power is
    C pow, as is Python's ``**``; numpy's SIMD ``**`` is not."""
    if f.combiner == LINEAR:
        return np.ones(correlators.shape)
    a = np.abs(correlators)
    live = a >= _WEIGHT_CLAMP
    grad = np.float_power(np.where(live, a, 1.0), 1.0 / f.n - 1.0) * np.sign(correlators) / f.n
    w = np.where(live, grad, 0.0)
    return np.where(np.any(w, axis=-1, keepdims=True), w, np.where(correlators < 0, -1.0, 1.0))


def _extreme_eig(apply, total: int, which: str, v0: np.ndarray | None = None):
    """Largest ("LA") or smallest ("SA") eigenpair of the Hermitian v -> apply(v)
    on C^total: dense eigh of apply(I), which may be a stack, up to
    _DENSE_EIG_LIMIT, else Lanczos from v0 or, when None, a fixed seeded
    start. ARPACK's stopping test is relative to the eigenvalue, so shift
    an operator whose extreme one is 0."""
    if total <= _DENSE_EIG_LIMIT:
        vals, vecs = np.linalg.eigh(apply(np.eye(total)))
        k = -1 if which == "LA" else 0
        return vals[..., k], vecs[..., k]
    import scipy.sparse.linalg  # only this branch needs scipy
    if v0 is None:
        v0 = np.random.default_rng(0).standard_normal((total, 2)) @ [1, 1j]
    op = scipy.sparse.linalg.LinearOperator((total, total), matvec=apply, dtype=complex)
    # eigsh hands a complex operator to eigs without its rng, and ARPACK's
    # replacement start vectors then come from OS entropy; calling eigs
    # with a fixed rng keeps every solve reproducible.
    which = "LR" if which == "LA" else "SR"
    try:
        vals, vecs = scipy.sparse.linalg.eigs(op, k=1, which=which, v0=v0, rng=0)
    except scipy.sparse.linalg.ArpackNoConvergence:
        # A start vector that is already an extreme eigenvector to rounding
        # (the state at an optimum) can leave a residual ARPACK's default
        # machine-precision tolerance never accepts.
        vals, vecs = scipy.sparse.linalg.eigs(
            op, k=1, which=which, v0=v0, tol=tol.LANCZOS_RETRY, rng=0
        )
    return vals[0].real, vecs[:, 0]


def _top_eigvec(ws: _Workspace, ops, w: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """(R, D) top eigenvectors of the linearized Bell operators
    sum_t w[r, t] ops[r, t]: one stacked dense eigh up to the dense limit,
    else one Lanczos solve per restart r, started from psi0[r]."""
    if len(w) > 1 and math.prod(ws.dims) > _DENSE_EIG_LIMIT:
        rows = (slice(r, r + 1) for r in range(len(w)))
        return np.concatenate([_top_eigvec(ws, [op[s] for op in ops], w[s], psi0[s]) for s in rows])

    def bell(v):
        x = ws.apply(v[None, None], ops)
        return (w[:, None] @ x.reshape(w.shape + (-1,)))[:, 0].reshape((len(w),) + v.shape)

    vec = _extreme_eig(bell, math.prod(ws.dims), "LA", psi0[0])[1].reshape(psi0.shape)
    p = np.take_along_axis(vec, np.argmax(np.abs(vec), axis=-1)[:, None], -1)
    vec = vec * (np.conj(p) / np.hypot(p.real, p.imag))
    return vec / _norms(vec)[:, None]


def _edge_update(
    f: Functional, observables: np.ndarray, w: np.ndarray, steer: np.ndarray
) -> np.ndarray:
    """Best response of an edge party's (R, m, d, d) observables to the
    (R, T, d, d) steering stack under (R, T) term weights w. A setting whose
    weighted coefficients w[r, t] C[t, x] all vanish is left unchanged."""
    wc = w[..., None] * f.coefficients
    moved = np.any(wc != 0, axis=-2)[..., None, None]
    return np.where(moved, _sign_eig(np.einsum("rtx,rtab->rxab", wc, steer)), observables)


def _random_involution(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-rotated involution with a balanced spectrum. Definite (+-I)
    starts are avoided: they annihilate every signed observable sum."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(dim)])
    return (q * signs) @ q.conj().T


def _pick(take: np.ndarray, new: Sequence[np.ndarray], old: Sequence[np.ndarray]) -> list:
    """Per restart on the leading axis, each array of ``new`` where ``take``,
    else the matching array of ``old``."""
    return [np.where(take.reshape((-1,) + (1,) * (a.ndim - 1)), a, b) for a, b in zip(new, old)]


def _seesaw_lockstep(
    f: Functional,
    ws: _Workspace,
    rngs: Sequence[np.random.Generator],
    cfg: SeesawConfig,
    factor: np.ndarray | None,
) -> list[tuple]:
    """Run one restart per generator, all in lockstep on a leading stack axis.
    Each restart draws its start from its own generator and makes the moves
    a lone restart makes, in the same order, accepting each through a mask;
    it leaves the stack once converged. Returns each restart's (value, ket,
    edge, central, history, converged) in generator order, bit for bit as alone."""
    dims, total, starts = ws.dims, math.prod(ws.dims), []
    for rng in rngs:
        start = [np.array([_random_involution(d, rng) for _ in range(f.m)]) for d in dims[:-1]]
        start.append(np.array([_random_involution(dims[-1], rng) for _ in range(f.n_terms)]))
        if factor is None:
            psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
            start.append((psi / np.linalg.norm(psi))[:, None])
        starts.append(start)
    stacks = [np.array(s) for s in zip(*starts)]
    # A fixed factor is one entry that broadcasts over the stack, in its own
    # memory layout: the contractions' summation order follows it.
    *edge, central, ket = stacks if factor is None else stacks + [factor[None]]

    def score(ket, ops):
        corr = _correlators(ws, ket, ops)
        return corr, combine(f, corr)

    ops = [f.signed_sums(e) for e in edge] + [central]
    corr, value = score(ket, ops)
    alive, histories, runs = np.arange(len(rngs)), [[v] for v in value], [None] * len(rngs)
    for sweep in range(cfg.max_iters):
        before = value
        w = _weights(f, corr)
        if factor is None:
            # Top eigenvector of the linearized Bell operator, damped by a
            # line search on the true objective: root-sum combiners are
            # concave in the correlators, so the full jump can overshoot.
            # Each restart keeps its first step that raises its value.
            held = ket[..., 0]
            target = _top_eigvec(ws, ops, w, held)
            pending = np.ones(len(value), dtype=bool)
            for eta in (1.0, 0.6, 0.35, 0.2, 0.1, 0.05, 0.02):
                cand = (1.0 - eta) * held + eta * target
                norm = _norms(cand)
                live = pending & (norm >= 1e-12)
                cand = (cand / np.where(live, norm, 1.0)[:, None])[..., None]
                cand_corr, cand_value = score(cand, ops)
                take = live & (cand_value > value)
                ket, corr, value = _pick(take, (cand, cand_corr, cand_value), (ket, corr, value))
                pending &= ~take
                if not pending.any():
                    break
        for k in range(f.parties):
            moved = _edge_update(f, edge[k], w, _steering(ws, ket, k, ops))
            cand_ops = ops[:k] + [f.signed_sums(moved)] + ops[k + 1 :]
            cand_corr, cand_value = score(ket, cand_ops)
            take = cand_value >= value
            edge[k], ops[k], corr, value = _pick(
                take, (moved, cand_ops[k], cand_corr, cand_value), (edge[k], ops[k], corr, value)
            )
        # Each term owns its central input, so this update maximizes I_i
        # (hence |I_i|) exactly and never decreases the objective.
        ops[-1] = _sign_eig(_steering(ws, ket, f.parties, ops))
        corr, value = score(ket, ops)

        converged = value - before <= cfg.tol * np.maximum(1.0, np.abs(value))
        done = converged | (sweep == cfg.max_iters - 1)
        for j, i in enumerate(alive):
            histories[i].append(value[j])
            if done[j]:
                runs[i] = (value[j], ket[j] if factor is None else factor, [e[j] for e in edge],
                           ops[-1][j], histories[i], bool(converged[j]))
        if done.all():
            break
        keep = ~done
        alive, corr, value, *edge = [a[keep] for a in (alive, corr, value, *edge)]
        ops = [op[keep] for op in ops]
        ket = ket[keep] if factor is None else ket
    return runs


def seesaw_optimize(
    f: Functional,
    cfg: SeesawConfig | None = None,
    fixed_state: QuantumState | None = None,
) -> OptimizationResult:
    """Best-of-restarts alternating optimization of a functional.

    With ``fixed_state`` (pure or density) only the observables are
    optimized, on the state's (D, r) ``factor``: r is its rank (1 when
    pure), and every step's cost scales with r. Otherwise
    the state is updated each sweep to the top eigenvector of the
    linearized Bell operator. The returned history is monotonically
    nondecreasing; a restart that fails to make progress is reported with
    ``converged=False``. The first restart with the best value is returned.

    Restarts run in seed order as lockstep stacks of max(1, 128^2 // D^2)
    at total dimension D: all of them at small D, one at a time from
    D = 91 up. Each restart's result is the same either way.
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
    total = math.prod(dims)
    if total > TOTAL_DIMENSION_GUARD:
        raise DimensionGuard(
            f"total dimension {total} exceeds guard {TOTAL_DIMENSION_GUARD}"
        )

    factor = None if fixed_state is None else fixed_state.factor
    ws = _Workspace(dims)
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)]
    # A stack of R restarts holds R x T x D^2 entries in its dense Bell build;
    # R x D^2 <= limit^2 keeps it within one restart's build at the limit.
    size = max(1, _DENSE_EIG_LIMIT**2 // total**2)
    runs = [run for i in range(0, len(rngs), size)
            for run in _seesaw_lockstep(f, ws, rngs[i : i + size], cfg, factor)]
    # max keeps the first of equal values: the earliest best restart.
    value, ket, edge, central, history, converged = max(runs, key=lambda run: run[0])
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


def _vector_sums(f: Functional, vectors: np.ndarray) -> np.ndarray:
    """(parties, T, ambient) signed vector sums s_ik of a (parties, m,
    ambient) configuration; other shapes would broadcast, so are refused."""
    if np.shape(vectors)[:2] != (f.parties, f.m):
        raise DimensionMismatch(
            f"need ({f.parties}, {f.m}, ambient) vectors, got shape {np.shape(vectors)}"
        )
    return f.coefficients @ vectors


def vector_model_value(f: Functional, vectors: np.ndarray) -> float:
    """Closed-form value of a unit-vector configuration: each per-party
    norm is ||sum_x c_x v_x|| and the combiner is applied to their
    per-term products."""
    omegas = np.linalg.norm(_vector_sums(f, vectors), axis=2)
    return combine(f, np.prod(omegas, axis=0))


def _vector_gradient(f: Functional, vectors: np.ndarray) -> np.ndarray:
    """Gradient of ``vector_model_value`` in the unnormalized vectors; a
    term with a vanishing per-party norm contributes nothing."""
    sums = _vector_sums(f, vectors)
    omegas = np.linalg.norm(sums, axis=2)
    small = omegas < 1e-12
    safe = np.where(small, 1.0, omegas)
    terms = np.prod(np.where(small, 0.0, omegas), axis=0) ** (1.0 / f.n)
    coef = np.where(small, 0.0, terms / (f.n * safe))
    units = sums / safe[..., None]
    return f.coefficients.T @ (coef[..., None] * units)


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=2, keepdims=True)
    return vectors / np.where(norms < 1e-300, 1.0, norms)


def _ascend(f: Functional, v0: np.ndarray) -> tuple[float, np.ndarray]:
    v = v0
    value = vector_model_value(f, v)
    step = 0.5
    for _ in range(_ASCENT_ITERS):
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
) -> tuple[float, np.ndarray]:
    """Maximize the vector-model closed form over unit vectors in the given
    ambient dimension by projected gradient ascent with restarts, each of
    at most _ASCENT_ITERS steps. Returns the best value and its (parties,
    m, ambient) configuration of real unit vectors, one row of m per edge
    party, which ``realize`` turns into a state and assignment. It raises
    OutOfRange for an ambient dimension or a restart count below 1 and
    DimensionGuard above TOTAL_DIMENSION_GUARD, before drawing."""
    if ambient < 1:
        raise OutOfRange("ambient dimension must be at least 1")
    if restarts < 1:
        raise OutOfRange("restarts must be at least 1")
    if ambient > TOTAL_DIMENSION_GUARD:
        raise DimensionGuard(f"ambient {ambient} exceeds guard {TOTAL_DIMENSION_GUARD}")
    parties = f.parties
    best_value, best_v = -np.inf, None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        v0 = _normalize_rows(rng.standard_normal((parties, f.m, ambient)))
        value, v = _ascend(f, v0)
        if value > best_value:
            best_value, best_v = value, v
    return best_value, best_v


def realize(f: Functional, vectors: np.ndarray) -> tuple[QuantumState, ObservableAssignment]:
    """State and assignment whose functional value is the vector-model value
    of ``vectors``, a (parties, m, ambient) unit-vector configuration.

    Edge party k measures A_kx = v_kx . Gamma, Gamma = anticommuting_set(ambient),
    on maximally entangled sources of dimension 2^floor(ambient/2). Term
    i's central observable is (x)_k (S_ik / ||s_ik||)^T, with S_ik party
    k's signed observable sum and s_ik its signed vector sum; ZeroNorm is
    raised when some s_ik vanishes.
    """
    norms = np.linalg.norm(_vector_sums(f, vectors), axis=2)
    vanishing = np.flatnonzero(np.any(norms <= tol.ZERO_NORM, axis=1))
    if vanishing.size:
        raise ZeroNorm(f"a signed vector sum of edge party {vanishing[0]} vanishes")
    gamma = np.array([g.matrix for g in anticommuting_set(vectors.shape[2])])
    edge = np.tensordot(vectors, gamma, axes=1)
    sums = np.einsum("tx,kxab->ktab", f.coefficients, edge)
    units = np.swapaxes(sums, 2, 3) / norms[..., None, None]
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
