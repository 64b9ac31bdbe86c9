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
from .errors import InvalidInput, TooLarge, ZeroNorm
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
# restarts x max_iters x D^2 of one seesaw call; the largest documented or
# tested run, optimize star n=3 --dim 3 (D = 729), asks for 1.6e9.
SEESAW_WORK_BUDGET = 10**12
_DENSE_EIG_LIMIT = 128
# Complex entries one lockstep stack of seesaw restarts may hold: 16 MiB.
_STACK_ENTRIES = 2**20
# Restarts keep k Ritz vectors to resolve a top cluster of up to k near-equal
# eigenvalues; k = 4 stalls on five within 1e-6 at D = 1024. CLI solves take
# at most about 330 matvecs.
_LANCZOS_BASIS, _LANCZOS_KEEP, _LANCZOS_MATVECS = 32, 12, 5000
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
            raise InvalidInput("edge_dim must be at least 2")
        if self.max_iters < 1:
            raise InvalidInput("max_iters must be at least 1")
        if not 0 < self.tol < math.inf:
            raise InvalidInput("tol must be positive and finite")
        if self.restarts < 1:
            raise InvalidInput("restarts must be at least 1")


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
    A (x) ops[r, t], A acting on ``slot`` in place of ``ops[slot]``: one
    slot contraction, then one batched (d, pre rest) x (pre rest, d) matmul
    against the state. The seesaw values each move from the stack that
    chose it, through ``_traced``, so its sweep over n edge slots and the
    central one makes n + 1 slot contractions."""
    pre, d = ws.splits[slot]
    phi = ws.apply(ket[:, None], ops[:slot] + [None] + ops[slot + 1 :])
    lead = phi.shape[:2]
    phi = np.swapaxes(phi.reshape(lead + (pre, d, -1)), -3, -2).reshape(lead + (d, -1))
    bra = np.swapaxes(ket.reshape(len(ket), pre, d, -1), 1, 2).reshape(len(ket), 1, d, -1).conj()
    return phi @ np.swapaxes(bra, -1, -2)


def _traced(f: Functional, op: np.ndarray, steer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, T) correlators Re Tr(op[r, t] steer[r, t]) of a slot's operator
    stack against that slot's steering stack, and their (R,) values."""
    corr = np.einsum("...tab,...tba->...t", op, steer).real
    return corr, combine(f, corr)


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


def _lanczos_top(apply, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R,) top eigenvalues and (R, D) eigenvectors of R Hermitian maps by
    thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602
    (2000)) from the rows of v; apply(x, rows) maps row i of x by map
    rows[i]. Bases keep their images, so a restart to the top _LANCZOS_KEEP
    Ritz vectors costs no matvec; each new direction is the newest image
    after two Gram-Schmidt passes. A row leaves the stack once its top Ritz
    pair has ||A y - theta y|| <= LANCZOS_RESIDUAL * max(1, |theta|), so a
    start that is an eigenvector, top or not, returns normalized after one
    matvec. Products are batched per row, so a row's bits do not depend on
    its stack; RuntimeError after _LANCZOS_MATVECS steps."""
    rows, width = np.arange(len(v)), (len(v), _LANCZOS_BASIS)
    basis = np.empty(width + v.shape[1:], dtype=complex)
    images, h, k = np.empty_like(basis), np.zeros(width + width[1:], dtype=complex), 0
    values, vectors, diag = np.empty(len(v)), np.empty_like(basis[:, 0]), np.arange(_LANCZOS_KEEP)
    for _ in range(_LANCZOS_MATVECS):
        basis[:, k] = v / _norms(v)[:, None]
        images[:, k] = apply(basis[:, k], rows)
        h[:, k, : k + 1] = (images[:, : k + 1] @ basis[:, k, :, None].conj())[..., 0]
        k += 1
        theta, s = np.linalg.eigh(h[:, :k, :k])
        top, t = s[:, None, :, -1], theta[:, -1:]
        y, ay = (top @ basis[:, :k])[:, 0], (top @ images[:, :k])[:, 0]
        done = _norms(ay - t * y) <= tol.LANCZOS_RESIDUAL * np.maximum(1.0, np.abs(t[:, 0]))
        if done.any():
            values[rows[done]], vectors[rows[done]] = theta[done, -1], y[done]
            if done.all():
                return values, vectors
            live = ~done
            rows, basis, images, h, theta, s = (a[live] for a in (rows, basis, images, h, theta, s))
        v = images[:, k - 1]
        for _ in range(2):
            v = v - (np.swapaxes(basis[:, :k].conj() @ v[..., None], 1, 2) @ basis[:, :k])[:, 0]
        if k == _LANCZOS_BASIS:
            keep = np.swapaxes(s[..., -_LANCZOS_KEEP:], 1, 2)
            basis[:, :_LANCZOS_KEEP], images[:, :_LANCZOS_KEEP] = keep @ basis, keep @ images
            h[:, :_LANCZOS_KEEP, :_LANCZOS_KEEP] = 0
            h[:, diag, diag] = theta[:, -_LANCZOS_KEEP:]
            k = _LANCZOS_KEEP
    raise RuntimeError(f"Lanczos did not converge in {_LANCZOS_MATVECS} matvecs")


def _extreme_eig(apply, total: int, which: str):
    """Largest ("LA") or smallest ("SA") eigenpair of the Hermitian v -> apply(v)
    on C^total: dense eigh of apply(I) up to _DENSE_EIG_LIMIT, else the
    one-row ``_lanczos_top`` of apply or, for "SA", of -apply, from a fixed
    seeded start, so a repeated solve gives the same bits."""
    if total <= _DENSE_EIG_LIMIT:
        vals, vecs = np.linalg.eigh(apply(np.eye(total)))
        k = -1 if which == "LA" else 0
        return vals[k], vecs[:, k]
    v0 = np.random.default_rng(0).standard_normal((1, total, 2)) @ [1, 1j]
    sign = 1.0 if which == "LA" else -1.0
    theta, y = _lanczos_top(lambda v, rows: sign * apply(v[0])[None], v0)
    return sign * theta[0], y[0]


def _top_eigvec(ws: _Workspace, ops, w: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """(R, D) top eigenvectors of the linearized Bell operators
    sum_t w[r, t] ops[r, t], from one stacked ``_lanczos_top`` started from
    the states psi0 at every dimension. Near convergence each state is its
    top eigenvector to rounding, and its row leaves after one matvec."""
    def bell(v, rows):
        return (w[rows, None] @ ws.apply(v[:, None], [op[rows] for op in ops]))[:, 0]

    vec = _lanczos_top(bell, psi0)[1]
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
    else the matching array of ``old``: ``new`` itself when all take it."""
    if take.all():
        return list(new)
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
    edge, central, history, converged) in generator order, bit for bit as
    alone; arrays are copies, so a result does not pin the stack. The state
    is an (R, D, r) stack: a fixed (D, r) or (R, D, r) ``factor`` enters as a
    C-contiguous copy per row, its ket returned as None; with ``factor``
    None each restart draws a pure start and the state step runs.

    Each observable move is valued from the steering stack that chose it,
    so a sweep makes n + 1 slot contractions for its n edge moves and the
    central one; a free-state sweep adds its eigensolve and line search.
    ``score`` contracts the whole state only for the first value and the
    line search's candidates."""
    dims, total, starts, free = ws.dims, math.prod(ws.dims), [], factor is None
    for rng in rngs:
        start = [np.array([_random_involution(d, rng) for _ in range(f.m)]) for d in dims[:-1]]
        start.append(np.array([_random_involution(dims[-1], rng) for _ in range(f.n_terms)]))
        if free:
            psi = rng.standard_normal(total) + 1j * rng.standard_normal(total)
            start.append((psi / np.linalg.norm(psi))[:, None])
        starts.append(start)
    stacks = [np.array(s) for s in zip(*starts)]
    if not free:  # the contractions' summation order follows the memory layout
        rows = np.broadcast_to(factor, (len(rngs), *factor.shape[-2:]))
        stacks.append(np.ascontiguousarray(rows))
    *edge, central, ket = stacks

    def score(ket, ops):
        corr = _correlators(ws, ket, ops)
        return corr, combine(f, corr)

    ops = [f.signed_sums(e) for e in edge] + [central]
    corr, value = score(ket, ops)
    alive, histories, runs = np.arange(len(rngs)), [[v] for v in value], [None] * len(rngs)
    for sweep in range(cfg.max_iters):
        before = value
        w = _weights(f, corr)
        if free:
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
        for k in range(f.n):
            steer = _steering(ws, ket, k, ops)
            moved = _edge_update(f, edge[k], w, steer)
            sums = f.signed_sums(moved)
            cand_corr, cand_value = _traced(f, sums, steer)
            take = cand_value >= value
            edge[k], ops[k], corr, value = _pick(
                take, (moved, sums, cand_corr, cand_value), (edge[k], ops[k], corr, value)
            )
        # Each term owns its central input, so this update maximizes I_i
        # (hence |I_i|) exactly and never decreases the objective.
        steer = _steering(ws, ket, f.n, ops)
        ops[-1] = _sign_eig(steer)
        corr, value = _traced(f, ops[-1], steer)

        converged = value - before <= cfg.tol * np.maximum(1.0, np.abs(value))
        done = converged | (sweep == cfg.max_iters - 1)
        for j, i in enumerate(alive):
            histories[i].append(value[j])
            if done[j]:
                runs[i] = (value[j], ket[j].copy() if free else None, [e[j].copy() for e in edge],
                           ops[-1][j].copy(), histories[i], bool(converged[j]))
        if done.all():
            break
        keep = ~done
        alive, corr, value, ket, *edge = [a[keep] for a in (alive, corr, value, ket, *edge)]
        ops = [op[keep] for op in ops]
    return runs


def seesaw_optimize(
    f: Functional,
    cfg: SeesawConfig | None = None,
    fixed_state: QuantumState | Sequence[tuple[QuantumState, int]] | None = None,
) -> OptimizationResult | list[OptimizationResult]:
    """Best-of-restarts alternating optimization of a functional.

    With ``fixed_state`` (pure or density) only the observables are
    optimized, on the state's (D, r) ``factor``: r is its rank (1 when
    pure), and every step's cost scales with r. Otherwise
    the state is updated each sweep to the top eigenvector of the
    linearized Bell operator. The returned history is monotonically
    nondecreasing; a restart that fails to make progress is reported with
    ``converged=False``. The first restart with the best value is returned.

    ``fixed_state`` may also be (state, seed) pairs of one layout and factor
    shape: one result per pair, each that state's own call at cfg.seed = seed.

    Restarts run in seed order, pair after pair, as lockstep stacks of
    max(1, 2^20 // (D c)) at total dimension D, with c = 64 + T for the free
    state (its Krylov bases, their images and one apply of the T terms) and
    c = T r for a fixed (D, r) factor; a stack may hold several states'
    rows. Each restart's result is the same either way.

    TooLarge is raised, before any generator is spawned, above total
    dimension TOTAL_DIMENSION_GUARD or when states x restarts x max_iters x
    D^2 exceeds SEESAW_WORK_BUDGET.
    """
    cfg = cfg or SeesawConfig()
    one = fixed_state is None or isinstance(fixed_state, QuantumState)
    pairs = [(fixed_state, cfg.seed)] if one else list(fixed_state)
    if not pairs:
        raise InvalidInput("need at least one fixed state")
    states, free = [state for state, _ in pairs], fixed_state is None
    if not free:
        dims = tuple(states[0].subsystem_dims)
        if len(dims) != f.n + 1:
            raise InvalidInput(f"fixed state must have {f.n + 1} slots, got {len(dims)}")
    else:
        dims = (cfg.edge_dim,) * f.n + (cfg.edge_dim**f.n,)
    total = math.prod(dims)
    if total > TOTAL_DIMENSION_GUARD:
        raise TooLarge(f"total dimension {total} exceeds guard {TOTAL_DIMENSION_GUARD}")
    work = len(pairs) * cfg.restarts * cfg.max_iters * total**2
    if work > SEESAW_WORK_BUDGET:
        raise TooLarge(f"seesaw work {work} (states x restarts x iterations x D^2) "
                       f"exceeds budget {SEESAW_WORK_BUDGET}")
    if not free and len({(s.subsystem_dims, s.factor.shape) for s in states}) > 1:
        raise InvalidInput("fixed states must share subsystem dims and factor shape")

    ws, restarts = _Workspace(dims), cfg.restarts
    rngs = [np.random.default_rng(c) for _, seed in pairs
            for c in np.random.SeedSequence(seed).spawn(restarts)]
    cols = 2 * _LANCZOS_BASIS + f.n_terms if free else f.n_terms * states[0].factor.shape[1]
    size, runs = max(1, _STACK_ENTRIES // (total * cols)), []
    for i in range(0, len(rngs), size):
        rows = range(i, min(i + size, len(rngs)))
        stack = None if free else np.array([states[j // restarts].factor for j in rows])
        runs += _seesaw_lockstep(f, ws, rngs[i : i + size], cfg, stack)
    results = []
    for p, state in enumerate(states):
        # max keeps the first of equal values: the earliest best restart.
        value, ket, edge, central, history, converged = max(
            runs[p * restarts : (p + 1) * restarts], key=lambda run: run[0])
        results.append(OptimizationResult(
            value=float(value), state=QuantumState.pure(ket[:, 0], dims) if free else state,
            observables=_assignment(edge, central), iterations=len(history) - 1,
            converged=converged, history=tuple(float(v) for v in history)))
    return results[0] if one else results


def _assignment(edge, central) -> ObservableAssignment:
    return ObservableAssignment(edge=tuple(tuple(Observable(a) for a in row) for row in edge),
                                central=tuple(Observable(b) for b in central))


def _vector_sums(f: Functional, vectors: np.ndarray) -> np.ndarray:
    """(parties, T, ambient) signed vector sums s_ik of a (parties, m,
    ambient) configuration; other shapes would broadcast, so are refused."""
    if np.shape(vectors)[:2] != (f.n, f.m):
        raise InvalidInput(
            f"need ({f.n}, {f.m}, ambient) vectors, got shape {np.shape(vectors)}"
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
    InvalidInput for an ambient dimension or a restart count below 1 and
    TooLarge above TOTAL_DIMENSION_GUARD, before drawing."""
    if ambient < 1:
        raise InvalidInput("ambient dimension must be at least 1")
    if restarts < 1:
        raise InvalidInput("restarts must be at least 1")
    if ambient > TOTAL_DIMENSION_GUARD:
        raise TooLarge(f"ambient {ambient} exceeds guard {TOTAL_DIMENSION_GUARD}")
    parties = f.n
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
    return state, _assignment(edge, [tensor_all(ops) for ops in zip(*units)])


def optimal_assignment(f: Functional) -> tuple[QuantumState, ObservableAssignment]:
    """Closed-form optimal realization saturating ``quantum_bound(f)``:
    ``realize`` of orthonormal vectors (np.eye(m)) for sign-table kinds
    and of the planar fan (sin(i pi/m), cos(i pi/m)) for cyclic kinds."""
    if f.kind in (Kind.CHAINED, Kind.XI):
        angles = [i * math.pi / f.m for i in range(f.m)]
        v = np.array([[math.sin(a), math.cos(a)] for a in angles])
    else:
        v = np.eye(f.m)
    return realize(f, np.array([v] * f.n))
