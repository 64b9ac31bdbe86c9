"""Certificates and theorem checks.

* Numerical sum-of-squares reports: for an assignment, each term gets a
  residual operator M_i = s_i T_i / omega_i - B_i (T_i the signed edge
  operator, omega_i its state norm, B_i the central observable, s_i the
  correlator sign for root-sum kinds). The certificate operator
  gamma = sum_i (w_i/2) M_i^dag M_i is PSD by construction and satisfies
  the exact identity  <gamma> = bound_from_omegas - value  with the
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
from .errors import (
    DensityInput,
    DimensionGuard,
    DimensionMismatch,
    OutOfRange,
    ZeroNorm,
)
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
    _Workspace,
    seesaw_optimize,
)
from .qcore import tensor_all
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


def _descending_singular_values(t: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(t.T @ t)[::-1]
    return np.sqrt(np.clip(vals, 0.0, None))


def horodecki_chsh_max(rho: QuantumState) -> float:
    """Closed-form CHSH maximum 2 sqrt(t1 + t2) from the two largest
    eigenvalues of T^T T.

    The maximum is over traceless qubit observables a.sigma (unit Bloch
    vectors a) on each side, not over all Hermitian involutions: +-I would
    reach 2 on any state."""
    t = correlation_matrix(rho)
    sq = np.clip(np.linalg.eigvalsh(t.T @ t)[::-1], 0.0, None)
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
    alpha = _descending_singular_values(correlation_matrix(rho_ab))
    eta = _descending_singular_values(correlation_matrix(rho_bc))
    return float(2.0 * math.sqrt(alpha[0] * eta[0] + alpha[1] * eta[1]))


@dataclass(frozen=True)
class SOSReport:
    functional: Functional
    value: float
    correlators: tuple[float, ...]
    omegas: tuple[float, ...]
    weights: tuple[float, ...]
    residuals: tuple[float, ...]
    bound_from_omegas: float
    gap: float
    gamma_min_eig: float


def _root_sum_weight(omega: float, ratio: float, n: int) -> float:
    # (omega^(1/n) - |I|^(1/n)) / (1 - |I|/omega), continuously extended
    # at |I| = omega where it tends to omega^(1/n)/n.
    if 1.0 - ratio < 1e-12:
        return omega ** (1.0 / n) / n
    return omega ** (1.0 / n) * (1.0 - ratio ** (1.0 / n)) / (1.0 - ratio)


def sos_certificate(
    f: Functional, state: QuantumState, observables: ObservableAssignment
) -> SOSReport:
    """Assemble the certificate operator for an assignment and report the
    omega norms, residuals, gap, and its minimum eigenvalue.

    T_i = (x)_k S_ik (x) I and B_i = I (x) C_i are Hermitian and act on
    different slots. The state side runs on the seesaw's batched slot
    kernel: one stack of T_i psi and one of B_i psi, whose overlaps
    <B_i psi|T_i psi> are the correlators. On the operator side
    M_i^dag M_i = (x)_k S_ik^2 (x) I / omega_i^2
    - (2 s_i / omega_i) (x)_k S_ik (x) C_i + I (x) C_i^2,
    and gamma is assembled from these three Kronecker pieces per term with
    no dense M_i. Its minimum eigenvalue is an exact dense solve (on the
    real part when gamma is real).

    Raises ZeroNorm when a signed observable sum annihilates the state;
    the residual operator for that term is undefined there.
    """
    if state.kind != "pure":
        raise DensityInput("certificates are assembled on pure states")
    sums = assignment_sums(f, state, observables)
    dims = state.subsystem_dims
    ws = _Workspace(f, dims)
    central = np.array([o.matrix for o in observables.central])
    psi = state.data[:, None]
    t_psi = ws.apply(psi, sums + [None]).reshape(f.n_terms, -1)
    b_psi = ws.apply(psi, [None] * len(sums) + [central]).reshape(f.n_terms, -1)
    correlators = np.einsum("ti,ti->t", b_psi.conj(), t_psi).real.tolist()
    omegas = np.linalg.norm(t_psi, axis=1).tolist()

    eye = [np.eye(d) for d in dims]
    gamma = np.zeros((len(psi), len(psi)), dtype=complex)
    central_sq = 0.0
    weights, residuals = [], []
    for i in range(f.n_terms):
        omega, value_i = omegas[i], correlators[i]
        if omega <= tol.ZERO_NORM:
            raise ZeroNorm(f"signed observable sum of term {i} annihilates the state")
        if f.combiner == LINEAR:
            sign = 1.0
            weight = omega
        else:
            sign = -1.0 if value_i < 0 else 1.0
            weight = _root_sum_weight(omega, abs(value_i) / omega, f.n)
        weights.append(weight)
        residuals.append(float(np.linalg.norm(sign * t_psi[i] / omega - b_psi[i])))
        edge = [s[i] for s in sums]
        gamma += tensor_all([a @ a for a in edge] + [weight / (2 * omega**2) * eye[-1]])
        gamma -= tensor_all(edge + [weight * sign / omega * central[i]])
        central_sq = central_sq + weight / 2 * central[i] @ central[i]
    gamma += tensor_all(eye[:-1] + [central_sq])
    if not gamma.imag.any():
        gamma = gamma.real

    bound, value = combine(f, [omegas, correlators]).tolist()
    return SOSReport(
        functional=f,
        value=value,
        correlators=tuple(correlators),
        omegas=tuple(omegas),
        weights=tuple(weights),
        residuals=tuple(residuals),
        bound_from_omegas=bound,
        gap=bound - value,
        gamma_min_eig=float(np.linalg.eigvalsh(gamma)[0]),
    )


@dataclass(frozen=True)
class TrialResult:
    trial: int
    edge_values: tuple[float, ...]
    network_value: float
    bound: float
    satisfied: bool
    both_violate: bool | None
    network_violates: bool | None


@dataclass(frozen=True)
class CorrespondenceReport:
    family: str
    m: int
    n: int
    trials: int
    seed: int
    edge_restarts: int
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
    family: str,
    trials: int,
    seed: int,
    m: int = 2,
    n: int = 2,
    edge_restarts: int = 10,
    ranks: Sequence[int] = (1,),
) -> CorrespondenceReport:
    """Seeded scan of the network-versus-edges bound.

    Per trial, random per-source two-qubit states are drawn (``ranks``
    picks the admissible density ranks; the default rank-1 draws give the
    fixed-state seesaw a one-column factor, ranks r_k give prod_k r_k);
    the per-edge bipartite maxima (closed form for two-setting edges,
    fixed-state seesaw for cyclic edges) and the network value (closed
    form for two sources and two settings, fixed-state seesaw otherwise)
    are compared against the geometric-mean bound
    network <= prod_k (edge_k)^(1/n).

    The two routes maximize over different observable classes. The closed
    forms range over traceless qubit observables a.sigma, and
    bilocal_max_pair's central party over class O (two orthogonal
    directions per source qubit). The fixed-state seesaw (star and xi
    network values, xi edge values) ranges over all Hermitian involutions,
    with the central observable on the whole 2^n central slot, and its
    value is a restart-limited lower bound (``edge_restarts`` restarts). A
    star trial therefore compares an all-involution network value with
    traceless-only edge values.

    ``m`` and ``n`` must define the family's functional (bilocal is
    m = n = 2, star has m = 2); otherwise InvalidScenario is raised.
    DimensionGuard is raised before any state is drawn when the n sources
    span more than TOTAL_DIMENSION_GUARD dimensions.

    For the two-source closed-form family the scan additionally records
    whether "both edges beat the local bound implies the network does"
    held. That implication is a theorem for pure sources (the top
    correlation singular value is then 1); mixed-rank pairs with strongly
    mismatched singular-value profiles can defeat it, which the report
    counts rather than hides.
    """
    if trials < 1:
        raise OutOfRange("trials must be at least 1")
    if edge_restarts < 1:
        raise OutOfRange("edge restarts must be at least 1")
    if family not in ("bilocal", "star", "xi"):
        raise ValueError(f"unknown family {family!r}")
    # Rejects the (m, n) that do not define the family's functional:
    # bilocal is m = n = 2 and star has m = 2.
    net_f = build_functional(Kind(family), m, n)
    # n two-qubit sources span 4^n dimensions; check before any state,
    # since the product density alone is (4^n) x (4^n).
    if 4**n > TOTAL_DIMENSION_GUARD:
        raise DimensionGuard(
            f"total dimension {4**n} exceeds guard {TOTAL_DIMENSION_GUARD}"
        )

    results = []
    implication_failures = 0 if family == "bilocal" else None
    children = np.random.SeedSequence(seed).spawn(trials)
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        states = _draw_states(rng, n, ranks)

        if family == "xi":
            edge_f = build_functional(Kind.CHAINED, m, 1)
            edge_values = tuple(
                _fixed_state_max(edge_f, s, edge_restarts, int(rng.integers(2**63)))
                for s in states
            )
        else:
            edge_values = tuple(horodecki_chsh_max(s) for s in states)
        if family == "bilocal":
            network = bilocal_max_pair(states[0], states[1])
        else:
            network = _fixed_state_max(
                net_f, network_product_state(states), edge_restarts,
                int(rng.integers(2**63)),
            )

        bound = float(np.prod([v ** (1.0 / n) for v in edge_values]))
        satisfied = network <= bound + 1e-9
        both = net_violates = None
        if family == "bilocal":
            both = bool(all(v > 2.0 for v in edge_values))
            net_violates = bool(network > 2.0)
            if both and not net_violates:
                implication_failures += 1
        results.append(
            TrialResult(
                trial=t,
                edge_values=edge_values,
                network_value=float(network),
                bound=bound,
                satisfied=bool(satisfied),
                both_violate=both,
                network_violates=net_violates,
            )
        )

    return CorrespondenceReport(
        family=family,
        m=m,
        n=n,
        trials=trials,
        seed=seed,
        edge_restarts=edge_restarts,
        results=tuple(results),
        satisfied=all(r.satisfied for r in results),
        implication_failures=implication_failures,
    )
