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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionGuard, DimensionMismatch, InvalidScenario, OutOfRange, ZeroNorm
from .functionals import (
    LINEAR,
    Functional,
    Kind,
    ObservableAssignment,
    assignment_sums,
    build_functional,
    combine,
)
from .optimize import (
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
    random_two_qubit_density,
)


# K_rs^T for K_rs = sigma_r (x) sigma_s, r and s in Pauli order (x, y, z):
# entry 3r + s of the einsum below is sum_ij dm[i,j] K_rs[j,i] = Tr[dm K_rs].
_PAULI_PAIRS = np.array([np.kron(sr, ss).T for sr in PAULIS for ss in PAULIS])
_PAULI_PAIRS.setflags(write=False)


def correlation_matrix(rho: QuantumState) -> np.ndarray:
    """3x3 Pauli correlation matrix t[r,s] = Tr[rho (sigma_r x sigma_s)],
    Pauli order (x, y, z)."""
    if rho.subsystem_dims != (2, 2):
        raise DimensionMismatch(
            f"need a two-qubit state, got subsystem dims {rho.subsystem_dims}"
        )
    return np.einsum("ij,kij->k", rho.density_matrix(), _PAULI_PAIRS).real.reshape(3, 3)


def _descending_spectrum(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of T^T T, largest first, clipped at 0: the squared
    singular values of T."""
    return np.clip(np.linalg.eigvalsh(t.T @ t)[::-1], 0.0, None)


def horodecki_chsh_max(rho: QuantumState) -> float:
    """Closed-form CHSH maximum 2 sqrt(t1 + t2) from the two largest
    eigenvalues of T^T T.

    The maximum is over traceless qubit observables a.sigma (unit Bloch
    vectors a) on each side, not over all Hermitian involutions: +-I would
    reach 2 on any state."""
    sq = _descending_spectrum(correlation_matrix(rho))
    return float(2.0 * math.sqrt(sq[0] + sq[1]))


def bilocal_max_pair(rho_ab: QuantumState, rho_bc: QuantumState) -> float:
    """Two-source network maximum 2 sqrt(a1 h1 + a2 h2) from the descending
    singular values of the two correlation matrices.

    The maximum is over class O: traceless a.sigma for the edge parties,
    and a central party that measures each source qubit along two
    orthogonal directions, as a Bell-state measurement does (Gisin et al.,
    PRA 96, 020304). Traceless products without that orthogonality reach
    sqrt(E_AB E_BC), the geometric mean of the two CHSH maxima, which is
    above this value in general."""
    alpha = np.sqrt(_descending_spectrum(correlation_matrix(rho_ab)))
    eta = np.sqrt(_descending_spectrum(correlation_matrix(rho_bc)))
    return float(2.0 * math.sqrt(alpha[0] * eta[0] + alpha[1] * eta[1]))


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
    gamma(I) up to the dense limit, Lanczos above it on
    gamma + (sum_i w_i) I from a fixed generic start, never from the
    state, which lies in gamma's kernel at an optimum.

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
    shift = weights.sum()  # moves gamma's minimum, about 0, away from 0 for ARPACK

    def gamma(v):
        mmv = residual(residual(v.reshape(1, state.dim, -1)))
        return np.tensordot(weights / 2, mmv, axes=1).reshape(v.shape) + shift * v

    bound, value = combine(f, [omegas, correlators]).tolist()
    return SOSReport(
        value=value,
        correlators=tuple(correlators.tolist()),
        omegas=tuple(omegas.tolist()),
        weights=tuple(weights.tolist()),
        residuals=tuple(residuals.tolist()),
        bound_from_omegas=bound,
        gap=bound - value,
        gamma_min_eig=float(_extreme_eig(gamma, state.dim, "SA")[0] - shift),
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


def _draw_states(
    rng: np.random.Generator, count: int, ranks: Sequence[int]
) -> list[QuantumState]:
    out = []
    for _ in range(count):
        rank = int(ranks[int(rng.integers(0, len(ranks)))])
        out.append(random_two_qubit_density(int(rng.integers(2**63)), rank))
    return out


def _fixed_state_max(
    f: Functional, state: QuantumState, restarts: int, seed: int
) -> float:
    """Seesaw over the observables with the state held fixed.

    Every observable ranges over all Hermitian involutions (so +-I too),
    and the central one acts on the whole 2^n-dimensional central slot,
    not only on products of per-source qubit observables. The value is
    the best of ``restarts`` local optima: a lower bound on the maximum
    over that class, not the maximum itself. Its cost scales with the
    rank r of the state, which the seesaw carries as a (D, r) factor."""
    cfg = SeesawConfig(restarts=restarts, seed=seed, tol=1e-13, max_iters=300)
    return seesaw_optimize(f, cfg, fixed_state=state).value


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

    Before any state is drawn: OutOfRange is raised for fewer than one
    trial or edge restart, and for ``ranks`` that are empty or hold an
    entry outside 1..4, so a rank that no trial happens to draw is refused
    too; InvalidScenario for a functional of another kind; DimensionGuard
    when the n sources span more than TOTAL_DIMENSION_GUARD dimensions.

    For bilocal the scan additionally records whether "both edges beat
    the local bound implies the network does" held. That implication is a
    theorem for pure sources (the top correlation singular value is then
    1); mixed-rank pairs with strongly mismatched singular-value profiles
    can defeat it, which the report counts rather than hides.
    """
    if trials < 1:
        raise OutOfRange("trials must be at least 1")
    if edge_restarts < 1:
        raise OutOfRange("edge restarts must be at least 1")
    if not ranks or any(r not in (1, 2, 3, 4) for r in ranks):
        raise OutOfRange(f"ranks must be a non-empty list in 1..4, got {list(ranks)}")
    if f.kind not in (Kind.BILOCAL, Kind.STAR, Kind.XI):
        raise InvalidScenario(f"no correspondence scan for {f.kind.value}; "
                              f"it covers bilocal, star and xi")
    n = f.n
    # n two-qubit sources span 4^n dimensions; check before any state,
    # since the product density alone is (4^n) x (4^n).
    if 4**n > TOTAL_DIMENSION_GUARD:
        raise DimensionGuard(
            f"total dimension {4**n} exceeds guard {TOTAL_DIMENSION_GUARD}"
        )

    bilocal = f.kind is Kind.BILOCAL
    results = []
    implication_failures = 0 if bilocal else None
    children = np.random.SeedSequence(seed).spawn(trials)
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        states = _draw_states(rng, n, ranks)

        if f.kind is Kind.XI:
            edge_f = build_functional(Kind.CHAINED, f.m, 1)
            edge_values = tuple(
                _fixed_state_max(edge_f, s, edge_restarts, int(rng.integers(2**63)))
                for s in states
            )
        else:
            edge_values = tuple(horodecki_chsh_max(s) for s in states)
        if bilocal:
            network = bilocal_max_pair(states[0], states[1])
        else:
            network = _fixed_state_max(
                f, network_product_state(states), edge_restarts, int(rng.integers(2**63))
            )

        bound = float(np.prod([v ** (1.0 / n) for v in edge_values]))
        both = net_violates = None
        if bilocal:
            both, net_violates = all(v > 2.0 for v in edge_values), network > 2.0
            if both and not net_violates:
                implication_failures += 1
        results.append(
            TrialResult(
                trial=t,
                edge_values=edge_values,
                network_value=network,
                bound=bound,
                margin=bound - network,
                satisfied=network <= bound + 1e-9,
                both_violate=both,
                network_violates=net_violates,
            )
        )

    return CorrespondenceReport(
        results=tuple(results),
        satisfied=all(r.satisfied for r in results),
        implication_failures=implication_failures,
    )
