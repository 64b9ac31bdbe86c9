"""Classical ground truth: exhaustive enumeration of deterministic n-local
strategies, randomized n-local mixture sampling, and the root-sum lemma.

Sources are independent, so a deterministic strategy fixes one +1/-1
response per input for every edge party and for the central party. The
enumeration sweeps all edge response tables and resolves the central
responses exactly (for every edge table the optimal central choice is
computable in closed form, which coincides with enumerating them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NegativeEntry, OutOfRange, SearchSpaceTooLarge, ShapeMismatch
from .functionals import LINEAR, Functional, combine

SEARCH_SPACE_GUARD = 2**34
_CHUNK = 1 << 16


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per-edge-party response tables and the central response table,
    all entries +1/-1."""

    edge_responses: tuple[tuple[int, ...], ...]
    central_responses: tuple[int, ...]


@dataclass(frozen=True)
class HiddenVariableModel:
    """Finite n-local mixture. Each source k carries ``weights[k]`` over a
    finite support; edge party k answers via ``edge_responses[k]`` (support
    x setting), and the central party answers via a joint table over all
    source variables, shape (s_1, ..., s_n, terms). Source independence is
    built in: the joint distribution is the product of the per-source
    weights."""

    weights: tuple[np.ndarray, ...]
    edge_responses: tuple[np.ndarray, ...]
    central_responses: np.ndarray


def _check_pm_one(arr: np.ndarray, what: str) -> None:
    if not np.all(np.abs(arr) == 1):
        raise ShapeMismatch(f"{what} entries must be +1 or -1")


def eval_strategy(f: Functional, s: DeterministicStrategy) -> float:
    """Functional value of one deterministic strategy."""
    parties = f.parties
    if len(s.edge_responses) != parties:
        raise ShapeMismatch(
            f"need {parties} edge response tables, got {len(s.edge_responses)}"
        )
    edge = np.array(s.edge_responses, dtype=float)
    if edge.shape != (parties, f.m):
        raise ShapeMismatch(f"edge responses must be {parties} x {f.m}")
    central = np.array(s.central_responses, dtype=float)
    if central.shape != (f.n_central_inputs,):
        raise ShapeMismatch(
            f"central responses must have length {f.n_central_inputs}"
        )
    _check_pm_one(edge, "edge response")
    _check_pm_one(central, "central response")

    values = []
    for term in f.terms:
        prod = 1.0
        for k in range(parties):
            prod *= float(np.dot(term.signs[k], edge[k]))
        values.append(prod * central[term.central_input])
    return combine(f, values)


def _roots(values: np.ndarray, n: int) -> np.ndarray:
    """|v|^(1/n) with exact results on perfect n-th powers of integers."""
    a = np.abs(values)
    if n == 1:
        return a
    r = a ** (1.0 / n)
    ri = np.rint(r)
    exact = ri**n == a
    return np.where(exact, ri, r)


def _edge_sign_vectors(m: int) -> np.ndarray:
    """All 2^m response vectors, index-ascending = lexicographic with -1 < +1."""
    g = np.arange(2**m)
    bits = (g[:, None] >> (m - 1 - np.arange(m))[None, :]) & 1
    return (2 * bits - 1).astype(float)


def _decode_digits(index: np.ndarray | int, radix: int, parties: int):
    """Mixed-radix digits of a flat strategy index, first party first."""
    digits = []
    rest = index
    for _ in range(parties):
        rest, d = np.divmod(rest, radix)
        digits.append(d)
    digits.reverse()
    return digits


def enumerate_deterministic_max(
    f: Functional,
) -> tuple[float, DeterministicStrategy]:
    """Exact maximum over all deterministic strategies with a deterministic
    witness (the lexicographically smallest maximizer, entries ordered edge
    party by edge party and then central, with -1 before +1)."""
    parties = f.parties
    m, n_terms = f.m, f.n_terms
    space = (2**m) ** parties * 2**f.n_central_inputs
    if space > SEARCH_SPACE_GUARD:
        raise SearchSpaceTooLarge(f"search space {space} exceeds {SEARCH_SPACE_GUARD}")

    signs = _edge_sign_vectors(m)
    per_party = [signs @ f.coefficient_matrix(k).T for k in range(parties)]

    radix = 2**m
    total = radix**parties
    best_value = -np.inf
    best_index = -1
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        digits = _decode_digits(idx, radix, parties)
        prod = np.ones((idx.size, n_terms))
        for k in range(parties):
            prod *= per_party[k][digits[k]]
        if f.combiner == LINEAR:
            vals = np.abs(prod).sum(axis=1)
        else:
            vals = _roots(prod, f.n).sum(axis=1)
        arg = int(np.argmax(vals))
        if vals[arg] > best_value:
            best_value = float(vals[arg])
            best_index = start + arg

    digits = [int(d) for d in _decode_digits(best_index, radix, parties)]
    edge = tuple(tuple(int(v) for v in signs[d]) for d in digits)
    term_products = np.ones(n_terms)
    for k in range(parties):
        term_products *= per_party[k][digits[k]]
    if f.combiner == LINEAR:
        central = tuple(1 if p > 0 else -1 for p in term_products)
    else:
        central = tuple([-1] * f.n_central_inputs)
    witness = DeterministicStrategy(edge_responses=edge, central_responses=central)
    return best_value, witness


def eval_model(f: Functional, model: HiddenVariableModel) -> float:
    """Functional value of a finite n-local mixture."""
    parties = f.parties
    if len(model.weights) != parties or len(model.edge_responses) != parties:
        raise ShapeMismatch(f"model must carry {parties} sources")
    letters = "abcdefgh"
    if parties > len(letters):
        raise ShapeMismatch("too many sources for mixture evaluation")

    factors = []
    for k in range(parties):
        w = np.asarray(model.weights[k], dtype=float)
        resp = np.asarray(model.edge_responses[k], dtype=float)
        if resp.shape != (w.shape[0], f.m):
            raise ShapeMismatch(f"edge response table {k} must be support x {f.m}")
        factors.append(resp @ f.coefficient_matrix(k).T)

    central = np.asarray(model.central_responses, dtype=float)
    expected = tuple(np.asarray(w).shape[0] for w in model.weights)
    if central.shape != expected + (f.n_central_inputs,):
        raise ShapeMismatch(
            f"central table must have shape {expected + (f.n_central_inputs,)}"
        )

    src = letters[:parties]
    subs = (
        ",".join(list(src) + [c + "i" for c in src])
        + ","
        + src
        + "i->i"
    )
    weights = [np.asarray(w, dtype=float) for w in model.weights]
    central_by_term = central[..., [t.central_input for t in f.terms]]
    per_term = np.einsum(subs, *weights, *factors, central_by_term)
    return combine(f, per_term.tolist())


def random_model(
    f: Functional, support_size: int, rng: np.random.Generator
) -> HiddenVariableModel:
    """Random n-local mixture: Dirichlet-uniform weights per source and
    uniform +1/-1 response tables."""
    if support_size < 1:
        raise OutOfRange(f"support size must be at least 1, got {support_size}")
    parties = f.parties
    s = int(support_size)
    weights = tuple(rng.dirichlet(np.ones(s)) for _ in range(parties))
    edge = tuple(
        2.0 * rng.integers(0, 2, size=(s, f.m)) - 1.0 for _ in range(parties)
    )
    central = 2.0 * rng.integers(0, 2, size=(s,) * parties + (f.n_central_inputs,)) - 1.0
    return HiddenVariableModel(
        weights=weights, edge_responses=edge, central_responses=central
    )


def sample_nlocal_value(
    f: Functional, trials: int, support_size: int = 2, seed: int = 0
) -> float:
    """Maximum functional value over randomly drawn n-local mixtures.

    Reproducible: trial t uses the t-th child of ``SeedSequence(seed)``, so
    the result does not depend on evaluation order.
    """
    if trials < 1:
        raise OutOfRange("trials must be at least 1")
    children = np.random.SeedSequence(seed).spawn(trials)
    best = -np.inf
    for child in children:
        model = random_model(f, support_size, np.random.default_rng(child))
        best = max(best, eval_model(f, model))
    return float(best)


def root_sum_lemma_check(z: Sequence[Sequence[float]] | np.ndarray, n: int) -> bool:
    """Check sum_i (prod_k z[k,i])^(1/n) <= prod_k (sum_i z[k,i])^(1/n).

    ``z`` is nonnegative with one row per source and one column per term;
    ``n`` must equal the number of rows. Holds for all nonnegative inputs
    (generalized Hoelder inequality); the check allows a 1e-12 relative
    slack for rounding.
    """
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"z must be a 2-d matrix, got shape {arr.shape}")
    if arr.shape[0] != n:
        raise ValueError(f"z has {arr.shape[0]} rows but n={n}")
    if np.any(arr < 0):
        raise NegativeEntry("z must be entrywise nonnegative")
    lhs = float(np.sum(np.prod(arr, axis=0) ** (1.0 / n)))
    rhs = float(np.prod(np.sum(arr, axis=1) ** (1.0 / n)))
    return lhs <= rhs + 1e-12 * max(1.0, rhs)
