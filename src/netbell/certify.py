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
from .errors import DensityInput, DimensionMismatch, ZeroNorm
from .functionals import (
    LINEAR,
    Functional,
    Kind,
    ObservableAssignment,
    build_functional,
)
from .optimize import SeesawConfig, seesaw_optimize
from .qcore import tensor_all
from .states import (
    PAULIS,
    QuantumState,
    network_product_state,
    random_two_qubit_density,
)


def correlation_matrix(rho: QuantumState) -> np.ndarray:
    """3x3 Pauli correlation matrix t[r,s] = Tr[rho (sigma_r x sigma_s)],
    Pauli order (x, y, z)."""
    if rho.subsystem_dims != (2, 2):
        raise DimensionMismatch(
            f"need a two-qubit state, got subsystem dims {rho.subsystem_dims}"
        )
    dm = rho.density_matrix()
    t = np.empty((3, 3))
    for r, sr in enumerate(PAULIS):
        for s, ss in enumerate(PAULIS):
            t[r, s] = np.einsum("ij,ji->", dm, np.kron(sr, ss)).real
    return t


def _descending_singular_values(t: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(t.T @ t)[::-1]
    return np.sqrt(np.clip(vals, 0.0, None))


def horodecki_chsh_max(rho: QuantumState) -> float:
    """Closed-form CHSH maximum 2 sqrt(t1 + t2) from the two largest
    eigenvalues of T^T T."""
    t = correlation_matrix(rho)
    sq = np.clip(np.linalg.eigvalsh(t.T @ t)[::-1], 0.0, None)
    return float(2.0 * math.sqrt(sq[0] + sq[1]))


def bilocal_max_pair(rho_ab: QuantumState, rho_bc: QuantumState) -> float:
    """Two-source network maximum 2 sqrt(a1 h1 + a2 h2) from the descending
    singular values of the two correlation matrices."""
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

    Raises ZeroNorm when a signed observable sum annihilates the state;
    the residual operator for that term is undefined there.
    """
    if state.kind != "pure":
        raise DensityInput("certificates are assembled on pure states")
    parties = f.parties
    dims = state.subsystem_dims
    if len(dims) != parties + 1:
        raise DimensionMismatch(
            f"state must have {parties + 1} slots, got {len(dims)}"
        )
    central_dim = dims[-1]
    psi = state.data

    sums = [
        f.signed_sums(k, [o.matrix for o in observables.edge[k]])
        for k in range(parties)
    ]
    omegas, weights, residuals, correlators, ms = [], [], [], [], []
    for i, term in enumerate(f.terms):
        t_edge = tensor_all([s[i] for s in sums] + [np.eye(central_dim)])
        b_full = tensor_all(
            [np.eye(d) for d in dims[:-1]]
            + [observables.central[term.central_input].matrix]
        )
        t_psi = t_edge @ psi
        omega = float(np.linalg.norm(t_psi))
        if omega <= tol.ZERO_NORM:
            raise ZeroNorm(
                f"signed observable sum of term {term.central_input} "
                "annihilates the state"
            )
        value_i = float(np.vdot(psi, b_full @ t_psi).real)
        if f.combiner == LINEAR:
            sign = 1.0
            weight = omega
        else:
            sign = -1.0 if value_i < 0 else 1.0
            weight = _root_sum_weight(omega, abs(value_i) / omega, f.n)
        m_op = sign * t_edge / omega - b_full
        omegas.append(omega)
        weights.append(weight)
        correlators.append(value_i)
        residuals.append(float(np.linalg.norm(m_op @ psi)))
        ms.append(m_op)

    if f.combiner == LINEAR:
        bound = float(sum(omegas))
        value = float(sum(correlators))
    else:
        bound = float(sum(o ** (1.0 / f.n) for o in omegas))
        value = float(sum(abs(v) ** (1.0 / f.n) for v in correlators))

    gamma = sum(w / 2.0 * (m.conj().T @ m) for w, m in zip(weights, ms))
    gamma_min = float(np.linalg.eigvalsh(gamma)[0])

    return SOSReport(
        functional=f,
        value=value,
        correlators=tuple(correlators),
        omegas=tuple(omegas),
        weights=tuple(weights),
        residuals=tuple(residuals),
        bound_from_omegas=bound,
        gap=bound - value,
        gamma_min_eig=gamma_min,
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
    picks the admissible density ranks; the default draws pure states);
    the per-edge bipartite maxima (closed form for two-setting edges,
    fixed-state seesaw for cyclic edges) and the network value (closed
    form for two sources and two settings, fixed-state seesaw otherwise)
    are compared against the geometric-mean bound
    network <= prod_k (edge_k)^(1/n).

    For the two-source closed-form family the scan additionally records
    whether "both edges beat the local bound implies the network does"
    held. That implication is a theorem for pure sources (the top
    correlation singular value is then 1); mixed-rank pairs with strongly
    mismatched singular-value profiles can defeat it, which the report
    counts rather than hides.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if family not in ("bilocal", "star", "xi"):
        raise ValueError(f"unknown family {family!r}")
    if family == "bilocal":
        n, m = 2, 2
    if family == "star":
        m = 2

    results = []
    implication_failures = 0 if family == "bilocal" else None
    children = np.random.SeedSequence(seed).spawn(trials)
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        states = _draw_states(rng, n, ranks)

        if family == "bilocal":
            edge_values = tuple(horodecki_chsh_max(s) for s in states)
            network = bilocal_max_pair(states[0], states[1])
        else:
            if family == "star":
                edge_values = tuple(horodecki_chsh_max(s) for s in states)
                net_f = build_functional(Kind.STAR, 2, n)
            else:
                edge_f = build_functional(Kind.CHAINED, m, 1)
                edge_values = tuple(
                    _fixed_state_max(
                        edge_f, s, edge_restarts, int(rng.integers(2**63))
                    )
                    for s in states
                )
                net_f = build_functional(Kind.XI, m, n)
            network = _fixed_state_max(
                net_f,
                network_product_state(states),
                edge_restarts,
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
