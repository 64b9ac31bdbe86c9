"""Certificates and theorem checks.

* Numerical sum-of-squares reports: for an assignment, each term gets a
  residual operator M_i = s_i T_i / omega_i - B_i (T_i the signed edge
  operator, omega_i its state norm, B_i the central observable, s_i the
  correlator sign for root-sum kinds). The certificate operator
  gamma = sum_i (w_i/2) M_i^dag M_i is PSD by construction and satisfies
  the exact identity  Tr(gamma rho) = bound_from_omegas - value  with the
  per-term weights reported alongside the residuals.

* The two-qubit correlation-matrix route: the largest two singular values
  of the 3x3 Pauli correlation matrix give the closed-form CHSH maximum,
  and the pairing formula gives the two-source network maximum.

* Correspondence scans: seeded random per-source states, per-edge
  bipartite maxima, and the geometric-mean bound on the network value.
"""

from __future__ import annotations

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
    assignment_sums,
    build_functional,
    combine,
)
from . import optimize
from .optimize import (
    SEESAW_WORK_BUDGET,
    TOTAL_DIMENSION_GUARD,
    SeesawConfig,
    _extreme_eig,
    _norms,
    _Workspace,
    seesaw_optimize,
)
from .states import (
    PAULIS,
    QuantumState,
    network_product_state,
    random_two_qubit_densities,
    random_two_qubit_density,
)


# K_rs^T for K_rs = sigma_r (x) sigma_s, r and s in Pauli order (x, y, z):
# entry 3r + s of the einsum below is sum_ij dm[i,j] K_rs[j,i] = Tr[dm K_rs].
_PAULI_PAIRS = np.array([np.kron(sr, ss).T for sr in PAULIS for ss in PAULIS])
_PAULI_PAIRS.setflags(write=False)
# Sweeps of a scan's seesaws; a trial's work for its draws and record row.
_SCAN_ITERS, _TRIAL_WORK = 300, 10**6


def correlation_matrix(rho: QuantumState | np.ndarray) -> np.ndarray:
    """3x3 Pauli correlation matrix t[r,s] = Tr[rho (sigma_r x sigma_s)],
    Pauli order (x, y, z), of a two-qubit state, or the (N, 3, 3) stack of
    an (N, 4, 4) stack of density matrices."""
    if isinstance(rho, QuantumState):
        if rho.subsystem_dims != (2, 2):
            raise InvalidInput(
                f"need a two-qubit state, got subsystem dims {rho.subsystem_dims}"
            )
        rho = rho.density_matrix()
    elif np.shape(rho)[-2:] != (4, 4):
        raise InvalidInput(f"need (N, 4, 4) density matrices, got shape {np.shape(rho)}")
    t = np.einsum("...ij,kij->...k", rho, _PAULI_PAIRS).real
    return t.reshape(t.shape[:-1] + (3, 3))


def _descending_spectrum(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of T^T T, largest first, clipped at 0: the squared
    singular values of T, or of each matrix of a (..., 3, 3) stack."""
    return np.clip(np.linalg.eigvalsh(np.swapaxes(t, -1, -2) @ t)[..., ::-1], 0.0, None)


def _float_or_stack(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.ndim == 0 else values


def horodecki_chsh_max(rho: QuantumState | np.ndarray) -> float | np.ndarray:
    """Closed-form CHSH maximum 2 sqrt(t1 + t2) from the two largest
    eigenvalues of T^T T, of one state or, as an (N,) array, of each
    density matrix of an (N, 4, 4) stack.

    The maximum is over traceless qubit observables a.sigma (unit Bloch
    vectors a) on each side, not over all Hermitian involutions: +-I would
    reach 2 on any state."""
    sq = _descending_spectrum(correlation_matrix(rho))
    return _float_or_stack(2.0 * np.sqrt(sq[..., 0] + sq[..., 1]))


def bilocal_max_pair(
    rho_ab: QuantumState | np.ndarray, rho_bc: QuantumState | np.ndarray
) -> float | np.ndarray:
    """Two-source network maximum 2 sqrt(a1 h1 + a2 h2) from the descending
    singular values of the two correlation matrices, of one pair of states
    or, as an (N,) array, of each pair of two (N, 4, 4) density stacks.

    The maximum is over class O: traceless a.sigma for the edge parties,
    and a central party that measures each source qubit along two
    orthogonal directions, as a Bell-state measurement does (Gisin et al.,
    PRA 96, 020304). Traceless products without that orthogonality reach
    sqrt(E_AB E_BC), the geometric mean of the two CHSH maxima, which is
    above this value in general."""
    alpha = np.sqrt(_descending_spectrum(correlation_matrix(rho_ab)))
    eta = np.sqrt(_descending_spectrum(correlation_matrix(rho_bc)))
    return _float_or_stack(
        2.0 * np.sqrt(alpha[..., 0] * eta[..., 0] + alpha[..., 1] * eta[..., 1])
    )


@dataclass(frozen=True)
class SOSReport:
    value: float
    correlators: tuple[float, ...]
    omegas: tuple[float, ...]
    weights: tuple[float, ...]
    residuals: tuple[float, ...]
    bound_from_omegas: float
    gap: float
    gamma_min_eig: float


def _root_sum_weights(omegas: np.ndarray, ratios: np.ndarray, n: int) -> np.ndarray:
    # (omega^(1/n) - |I|^(1/n)) / (1 - |I|/omega), continuously extended
    # at |I| = omega where it tends to omega^(1/n)/n. float_power is C pow;
    # numpy's SIMD ``**`` differs from it in the last bit on some inputs.
    near = 1.0 - ratios < 1e-12
    r, roots = np.where(near, 0.0, ratios), np.float_power(omegas, 1.0 / n)
    return np.where(near, roots / n, roots * (1.0 - np.float_power(r, 1.0 / n)) / (1.0 - r))


def sos_certificate(
    f: Functional, state: QuantumState, observables: ObservableAssignment
) -> SOSReport:
    """Report an assignment's omega norms, residuals, gap, and the minimum
    eigenvalue of its certificate operator, on any state, pure or density.

    T_i = (x)_k S_ik (x) I and B_i = I (x) C_i are Hermitian and act on
    different slots, so M_i = s_i T_i / omega_i - B_i is Hermitian and
    M_i^dag M_i = M_i^2. Everything runs on the seesaw's batched slot
    kernel with the state's (D, r) ``factor`` K, in O(T D r) memory: the
    correlators Re Tr(rho B_i T_i) are overlaps of the stacks T_i K and
    B_i K, omega_i = sqrt(Tr(rho T_i^2)) is the Frobenius norm of T_i K,
    and one residual map x_i -> M_i x_i gives both the residuals
    sqrt(Tr(rho M_i^dag M_i)), the Frobenius norms of M_i K, and
    gamma v = sum_i (w_i/2) M_i M_i v, which does not depend on r. Its
    minimum eigenvalue comes from the seesaw's eigensolver: dense eigh of
    gamma(I) up to the dense limit, Lanczos above it from a fixed generic
    start, never from the state, which lies in gamma's kernel at an
    optimum and would be returned as the eigenvector it is.

    Raises ZeroNorm when a signed observable sum annihilates the state;
    the residual operator for that term is undefined there.
    """
    sums = assignment_sums(f, state, observables)
    ws = _Workspace(state.subsystem_dims)
    edge_ops = sums + [None]
    central_ops = [None] * len(sums) + [np.array([o.matrix for o in observables.central])]
    factor = state.factor[None]
    t_k = ws.apply(factor, edge_ops).reshape(f.n_terms, -1)
    b_k = ws.apply(factor, central_ops).reshape(f.n_terms, -1)
    correlators = np.einsum("ti,ti->t", b_k.conj(), t_k).real
    omegas = np.linalg.norm(t_k, axis=1)
    vanishing = np.flatnonzero(omegas <= tol.ZERO_NORM)
    if vanishing.size:
        raise ZeroNorm(f"signed observable sum of term {vanishing[0]} annihilates the state")
    if f.combiner == LINEAR:
        signs, weights = np.ones(f.n_terms), omegas
    else:
        signs = np.where(correlators < 0, -1.0, 1.0)
        weights = _root_sum_weights(omegas, np.abs(correlators) / omegas, f.n)
    # Divided by omega_i rather than scaled by s_i / omega_i, and each row
    # summed as np.linalg.norm sums one vector (real part, then imaginary),
    # so that a residual keeps the bits of its term's own norm.
    s, o = signs[:, None, None], omegas[:, None, None]

    def residual(x):
        """M_i x_i for a (1 or T, D, c) stack x, as a (T, D, c) stack."""
        return s * ws.apply(x, edge_ops) / o - ws.apply(x, central_ops)

    m_k = residual(factor).reshape(f.n_terms, -1)
    residuals = _norms(m_k)

    def gamma(v):
        mmv = residual(residual(v.reshape(1, state.dim, -1)))
        return np.tensordot(weights / 2, mmv, axes=1).reshape(v.shape)

    bound, value = combine(f, [omegas, correlators]).tolist()
    return SOSReport(
        value=value,
        correlators=tuple(correlators.tolist()),
        omegas=tuple(omegas.tolist()),
        weights=tuple(weights.tolist()),
        residuals=tuple(residuals.tolist()),
        bound_from_omegas=bound,
        gap=bound - value,
        gamma_min_eig=float(_extreme_eig(gamma, state.dim, "SA")[0]),
    )


@dataclass(frozen=True)
class TrialResult:
    trial: int
    edge_values: tuple[float, ...]
    network_value: float
    bound: float
    margin: float
    satisfied: bool
    both_violate: bool | None
    network_violates: bool | None


@dataclass(frozen=True)
class CorrespondenceReport:
    results: tuple[TrialResult, ...]
    satisfied: bool
    implication_failures: int | None


def _draw_seeds(
    rng: np.random.Generator, count: int, ranks: Sequence[int]
) -> list[tuple[int, int]]:
    """(seed, rank) of each of ``count`` random two-qubit states."""
    out = []
    for _ in range(count):
        rank = int(ranks[int(rng.integers(0, len(ranks)))])
        out.append((int(rng.integers(2**63)), rank))
    return out


def _fixed_state_values(
    f: Functional, pairs: Sequence[tuple[QuantumState, int]], restarts: int
) -> np.ndarray:
    """Seesaw value of each (state, seed) pair over the observables, the
    state held fixed: one ``seesaw_optimize`` call per factor shape.

    Every observable ranges over all Hermitian involutions (so +-I too),
    and the central one acts on the whole 2^n-dimensional central slot,
    not only on products of per-source qubit observables. A value is the
    best of ``restarts`` local optima: a lower bound on the maximum over
    that class, not the maximum itself. Its cost scales with the rank r of
    the state, which the seesaw carries as a (D, r) factor."""
    cfg, groups = SeesawConfig(restarts=restarts, tol=1e-13, max_iters=_SCAN_ITERS), {}
    for i, (state, _) in enumerate(pairs):
        groups.setdefault(state.factor.shape, []).append(i)
    values = np.empty(len(pairs))
    for rows in groups.values():
        values[rows] = [res.value for res in seesaw_optimize(f, cfg, [pairs[i] for i in rows])]
    return values


def correspondence_scan(
    f: Functional,
    trials: int,
    seed: int,
    edge_restarts: int = 10,
    ranks: Sequence[int] = (1,),
) -> CorrespondenceReport:
    """Seeded scan of the network-versus-edges bound for a bilocal, star
    or xi functional ``f`` over its n sources.

    Per trial, random per-source two-qubit states are drawn (``ranks``
    picks the admissible density ranks; the default rank-1 draws give the
    fixed-state seesaw a one-column factor, ranks r_k give prod_k r_k);
    the per-edge bipartite maxima (closed form for two-setting edges,
    fixed-state seesaw of the chained m-setting functional for xi edges)
    and the network value (closed form for bilocal, fixed-state seesaw of
    ``f`` otherwise) are compared against the geometric-mean bound
    network <= prod_k (edge_k)^(1/n). Each trial's ``margin`` is
    bound - network_value.

    The two routes maximize over different observable classes. The closed
    forms range over traceless qubit observables a.sigma, and
    bilocal_max_pair's central party over class O (two orthogonal
    directions per source qubit). The fixed-state seesaw (star and xi
    network values, xi edge values) ranges over all Hermitian involutions,
    with the central observable on the whole 2^n central slot, and its
    value is a restart-limited lower bound (``edge_restarts`` restarts). A
    star trial therefore compares an all-involution network value with
    traceless-only edge values.

    Before any state is drawn: InvalidInput is raised for fewer than one
    trial or edge restart, for ``ranks`` that are empty or hold an entry
    outside 1..4, so a rank that no trial happens to draw is refused too,
    and for a functional of another kind; TooLarge when the n sources
    span more than TOTAL_DIMENSION_GUARD dimensions, or trials x (_TRIAL_WORK
    + star and xi network restarts x iterations x D^2) exceed SEESAW_WORK_BUDGET.

    For bilocal the scan additionally records whether "both edges beat
    the local bound implies the network does" held. That implication is a
    theorem for pure sources (the top correlation singular value is then
    1); mixed-rank pairs with strongly mismatched singular-value profiles
    can defeat it, which the report counts rather than hides.
    """
    if trials < 1:
        raise InvalidInput("trials must be at least 1")
    if edge_restarts < 1:
        raise InvalidInput("edge restarts must be at least 1")
    if not ranks or any(r not in (1, 2, 3, 4) for r in ranks):
        raise InvalidInput(f"ranks must be a non-empty list in 1..4, got {list(ranks)}")
    if f.kind not in (Kind.BILOCAL, Kind.STAR, Kind.XI):
        raise InvalidInput(f"no correspondence scan for {f.kind.value}; "
                           f"it covers bilocal, star and xi")
    n = f.n
    # n two-qubit sources span 4^n dimensions; check before any state,
    # since the product density alone is (4^n) x (4^n).
    if 4**n > TOTAL_DIMENSION_GUARD:
        raise TooLarge(f"total dimension {4**n} exceeds guard {TOTAL_DIMENSION_GUARD}")

    seesaw = 0 if f.kind is Kind.BILOCAL else edge_restarts * _SCAN_ITERS * 16**n
    work = trials * (_TRIAL_WORK + seesaw)
    if work > SEESAW_WORK_BUDGET:
        raise TooLarge(f"scan work {work} (trials x per-trial work) exceeds {SEESAW_WORK_BUDGET}")
    children = np.random.SeedSequence(seed).spawn(trials)
    if f.kind is Kind.BILOCAL:
        # Every trial's two states in one stack, (trial, source) in draw order.
        draws = [d for c in children for d in _draw_seeds(np.random.default_rng(c), n, ranks)]
        rho = random_two_qubit_densities(*zip(*draws))
        edges = horodecki_chsh_max(rho).reshape(trials, n)
        network = bilocal_max_pair(rho[0::2], rho[1::2])
    else:
        # A network row holds T D r <= T 16^n entries, so a chunk's network
        # restarts fit one stack. Each trial draws its states, each xi edge
        # seed, then the network seed, as a trial run alone does.
        chunk = max(1, optimize._STACK_ENTRIES // (edge_restarts * f.n_terms * 16**n))
        edge_f = build_functional(Kind.CHAINED, f.m, 1) if f.kind is Kind.XI else None
        edges, network = np.empty((trials, n)), np.empty(trials)
        for lo in range(0, trials, chunk):
            edge_pairs, network_pairs = [], []
            for t in range(lo, min(lo + chunk, trials)):
                rng = np.random.default_rng(children[t])
                states = [random_two_qubit_density(*d) for d in _draw_seeds(rng, n, ranks)]
                if edge_f is None:
                    edges[t] = [horodecki_chsh_max(s) for s in states]
                else:
                    edge_pairs += [(s, int(rng.integers(2**63))) for s in states]
                network_pairs.append((network_product_state(states), int(rng.integers(2**63))))
            if edge_pairs:
                values = _fixed_state_values(edge_f, edge_pairs, edge_restarts)
                edges[lo : lo + chunk] = values.reshape(-1, n)
            network[lo : lo + chunk] = _fixed_state_values(f, network_pairs, edge_restarts)

    # float_power is C pow, as Python's ``**`` is.
    bound = np.prod(np.float_power(edges, 1.0 / n), axis=1)
    satisfied = network <= bound + 1e-9
    if f.kind is Kind.BILOCAL:
        both, net_violates = np.all(edges > 2.0, axis=1), network > 2.0
        implication_failures = int(np.sum(both & ~net_violates))
        flags = zip(both.tolist(), net_violates.tolist())
    else:
        implication_failures, flags = None, [(None, None)] * trials
    results = tuple(
        TrialResult(trial=t, edge_values=tuple(e), network_value=v, bound=b, margin=b - v,
                    satisfied=ok, both_violate=both_t, network_violates=net_t)
        for t, (e, v, b, ok, (both_t, net_t)) in enumerate(
            zip(edges.tolist(), network.tolist(), bound.tolist(), satisfied.tolist(), flags)
        )
    )
    return CorrespondenceReport(
        results=results,
        satisfied=bool(satisfied.all()),
        implication_failures=implication_failures,
    )
