"""The supported Bell and network functionals, each fixed by its
(kind, m, n), their evaluators, and their closed-form classical and
quantum bounds.

Seven kinds are supported. ``chsh``, ``chained`` and ``gm`` are bipartite
(one edge party, n = 1, linear combiner). ``bilocal``, ``star``, ``delta``
and ``xi`` are star-network functionals over n independent sources whose
value combines the term correlators as sum_i |I_i|^(1/n).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInput, TooLarge
from .qcore import expectation, tensor_all
from .states import Observable, QuantumState


class Kind(str, enum.Enum):
    CHSH = "chsh"
    CHAINED = "chained"
    GM = "gm"
    BILOCAL = "bilocal"
    STAR = "star"
    DELTA = "delta"
    XI = "xi"


BIPARTITE_KINDS = (Kind.CHSH, Kind.CHAINED, Kind.GM)
NETWORK_KINDS = (Kind.BILOCAL, Kind.STAR, Kind.DELTA, Kind.XI)

LINEAR = "linear"
ROOT_SUM = "root_sum"


# Entries parties x T x m of the largest term table a functional's record
# spells out (one row per party in each JSON term).
TABLE_BUDGET = 2**20


def build_sign_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Sign rows (-1)^(bit) for the 2^(m-1) length-m bit strings whose
    first bit is zero, ordered by binary value: row i spells i-1 on bits
    2..m, most significant first. Raises ``InvalidInput`` outside 2..16."""
    if not 2 <= m <= 16:
        raise InvalidInput(f"m must be in 2..16, got {m}")
    # product yields bits 2..m most significant first, +1 (bit 0) first.
    return tuple((1, *r) for r in itertools.product((1, -1), repeat=m - 1))


def _chained_signs(m: int) -> list[tuple[int, ...]]:
    # Cyclic pairs (A_i + A_{i+1}) with the wrap term (A_m - A_1).
    rows = [tuple(int(j in (i, i + 1)) for j in range(m)) for i in range(m - 1)]
    return rows + [(-1,) + (0,) * (m - 2) + (1,)]


@dataclass(frozen=True)
class Functional:
    """One Bell/network inequality, fixed by its (kind, m, n).

    Term i multiplies the central party's observable B_i, one central
    input per term. Every edge party carries the same term rows: the
    sign table of ``build_sign_table(m)`` for chsh, gm, bilocal, star
    and delta, the cyclic pairs for chained and xi. ``coefficients`` is
    the read-only (T, m) float array of those signs, ``coefficients[i, x]``
    the sign of setting x of every edge party in term i; every evaluator
    reads it. Construction raises ``InvalidInput`` for a (kind, m, n)
    that defines no functional or a sign-table m outside 2..16, and
    ``TooLarge`` when the record's n x T x m term table would exceed
    ``TABLE_BUDGET`` entries.
    """

    kind: Kind
    m: int
    n: int
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind, m, n = self.kind, self.m, self.n
        if kind in BIPARTITE_KINDS and n != 1:
            raise InvalidInput(f"{kind.value} is bipartite; n must be 1, got {n}")
        if kind is Kind.BILOCAL and n != 2:
            raise InvalidInput(f"bilocal means two sources, got n={n}")
        if kind in NETWORK_KINDS and n < 1:
            raise InvalidInput(f"need at least one source, got n={n}")
        if kind in (Kind.CHSH, Kind.BILOCAL, Kind.STAR) and m != 2:
            raise InvalidInput(f"{kind.value} has two settings per edge party, got m={m}")
        if m < 2:
            raise InvalidInput(f"m must be at least 2, got {m}")
        cyclic = kind in (Kind.CHAINED, Kind.XI)
        rows = None if cyclic else build_sign_table(m)
        n_terms = m if cyclic else len(rows)
        if self.n * n_terms * m > TABLE_BUDGET:
            raise TooLarge(f"term table of {self.n} x {n_terms} x {m} "
                           f"entries exceeds {TABLE_BUDGET}")
        table = np.array(_chained_signs(m) if cyclic else rows, dtype=float)
        table.setflags(write=False)
        object.__setattr__(self, "coefficients", table)

    @property
    def combiner(self) -> str:
        """``linear`` for bipartite kinds, ``root_sum`` otherwise."""
        return LINEAR if self.kind in BIPARTITE_KINDS else ROOT_SUM

    @property
    def n_terms(self) -> int:
        return self.coefficients.shape[0]

    def signed_sums(self, observables: Sequence[np.ndarray]) -> np.ndarray:
        """Per-term signed observable sums sum_x c[t, x] A_x of one edge
        party, stacked as (terms, d, d); all-zero rows give zero matrices.
        An (..., m, d, d) stack of observables gives (..., terms, d, d)."""
        ops = np.asarray(observables, dtype=complex)
        return np.einsum("tx,...xab->...tab", self.coefficients, ops)


@dataclass(frozen=True)
class ObservableAssignment:
    """Full measurement assignment: m observables per edge party and one
    central observable per central input."""

    edge: tuple[tuple[Observable, ...], ...]
    central: tuple[Observable, ...]


def build_functional(kind: Kind | str, m: int, n: int = 1) -> Functional:
    """The functional of a (kind, m, n) scenario; idempotent."""
    if kind not in [k.value for k in Kind]:
        raise InvalidInput(f"unknown kind {kind!r}")
    return Functional(Kind(kind), m, n)


def _roots(values: np.ndarray, n: int) -> np.ndarray:
    """|v|^(1/n) with exact results on perfect n-th powers of integers."""
    a = np.abs(values)
    r = a ** (1.0 / n)
    # In place, so that one array fewer is alive on large batches.
    powers = np.rint(r)
    powers **= n
    return np.rint(r, out=r, where=powers == a)


def combine(f: Functional, correlators: Sequence | np.ndarray) -> float | np.ndarray:
    """The functional's value from its term values, along the last axis:
    sum_i I_i for linear kinds, sum_i |I_i|^(1/n) via ``_roots`` for
    root-sum kinds. One term set gives a float, a (..., T) stack an array.
    Every functional value is combined here. The batch is made C-contiguous,
    so each row reduces as that row alone and batched values equal
    one-at-a-time ones bit for bit."""
    c = np.ascontiguousarray(correlators, dtype=float)
    total = np.add.reduce(c if f.combiner == LINEAR else _roots(c, f.n), axis=-1)
    return float(total) if total.ndim == 0 else total


def assignment_sums(
    f: Functional, state: QuantumState, observables: ObservableAssignment
) -> list[np.ndarray]:
    """Per-party (T, d, d) signed observable sums of an assignment, after
    checking that the assignment and state fit the functional: one row of
    m observables per edge party, exactly one central observable per term,
    one state slot per party plus the central slot, and every observable
    of the slot's dimension."""
    parties = f.n
    if len(observables.edge) != parties:
        raise InvalidInput(
            f"need observables for {parties} edge parties, got {len(observables.edge)}"
        )
    for k, obs in enumerate(observables.edge):
        if len(obs) != f.m:
            raise InvalidInput(
                f"edge party {k} needs {f.m} observables, got {len(obs)}"
            )
    if len(observables.central) != f.n_terms:
        raise InvalidInput(
            f"need {f.n_terms} central observables, one per term, "
            f"got {len(observables.central)}"
        )
    dims = state.subsystem_dims
    if len(dims) != parties + 1:
        raise InvalidInput(
            f"state must have {parties + 1} slots, got {len(dims)}"
        )
    slots = [(f"edge party {k}", row) for k, row in enumerate(observables.edge)]
    slots.append(("central party", observables.central))
    for (where, row), dim in zip(slots, dims):
        for x, o in enumerate(row):
            if o.dim != dim:
                raise InvalidInput(
                    f"{where} observable {x} has dimension {o.dim}, "
                    f"its state slot {dim}"
                )
    return [f.signed_sums([o.matrix for o in row]) for row in observables.edge]


def eval_functional(
    f: Functional,
    state: QuantumState,
    observables: ObservableAssignment,
) -> tuple[float, tuple[float, ...]]:
    """Functional value and the tuple of per-term correlators of a full assignment."""
    sums = assignment_sums(f, state, observables)
    values = [
        expectation(state, tensor_all([s[i] for s in sums] + [central.matrix]))
        for i, central in enumerate(observables.central)
    ]
    return combine(f, values), tuple(values)


def sign_family_classical_bound(m: int) -> int:
    """Classical bound of the sign-table families: m * C(m-1, floor((m-1)/2)).

    Equals sum_{j=0}^{floor(m/2)} C(m, j) (m - 2j). Exhaustive enumeration
    confirms it for gm up to m = 11 (60, 140, 280 at m = 6, 7, 8) and for
    delta at every admitted m <= 9, n <= 13 (n up to 12, 7, 5, 4, 3, 2, 2
    for m = 3 .. 9). The halved sweep of gm m is 2^(m-1) rows x 2^(m-1)
    terms; past m = 11 its response table exceeds the enumeration's budget.
    """
    return m * math.comb(m - 1, (m - 1) // 2)


def classical_bound(f: Functional) -> float:
    """Largest value attainable by (n-)local deterministic models."""
    if f.kind in (Kind.CHSH, Kind.BILOCAL, Kind.STAR):
        return 2.0
    if f.kind in (Kind.CHAINED, Kind.XI):
        return float(2 * f.m - 2)
    return float(sign_family_classical_bound(f.m))


def quantum_bound(f: Functional) -> float:
    """Optimal quantum value (independent of n for the network kinds)."""
    if f.kind in (Kind.CHSH, Kind.BILOCAL, Kind.STAR):
        return 2.0 * math.sqrt(2.0)
    if f.kind in (Kind.CHAINED, Kind.XI):
        return 2.0 * f.m * math.cos(math.pi / (2 * f.m))
    return float(2 ** (f.m - 1) * math.sqrt(f.m))
