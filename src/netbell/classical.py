"""Classical ground truth: exhaustive enumeration of deterministic n-local
strategies, randomized n-local mixture sampling, and the root-sum lemma.

Sources are independent, so a deterministic strategy fixes one +1/-1
response per input for every edge party and for the central party. The
enumeration sweeps one edge response table per sign orbit and resolves
the central responses exactly (for every edge table the optimal central
choice is computable in closed form, which coincides with enumerating
them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NegativeEntry, OutOfRange, SearchSpaceTooLarge, ShapeMismatch
from .functionals import LINEAR, Functional, build_sign_table, combine

SEARCH_SPACE_GUARD = 2**34
MIXTURE_GUARD = 2**22
# np.einsum takes at most 64 operands (numpy 2): two per source, the
# central table and the output.
_MAX_MIXTURE_SOURCES = 31
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

    # A support-1 mixture of weight 1: every product is an integer, so exact.
    ones = [np.ones((1, 1))] * parties
    central = central.reshape((1,) * (parties + 1) + (-1,))
    return combine(f, _mixture_terms(f, ones, edge[:, None, None], central)[0])


def enumerate_deterministic_max(
    f: Functional,
) -> tuple[float, DeterministicStrategy]:
    """Exact maximum over all deterministic strategies with a deterministic
    witness (the lexicographically smallest maximizer, entries ordered edge
    party by edge party and then central, with -1 before +1).

    Only one table per sign orbit is swept. Flipping every response of one
    edge party negates that party's factor in every term, exactly in
    floating point; root-sum kinds take |.| and for linear kinds the
    closed-form central choice absorbs the sign, so the value is unchanged.
    Each orbit's lexicographically smallest member has every party's first
    response -1, so sweeping the 2^(m-1) such tables per party keeps both
    the maximum and the smallest witness, on a sweep 2^parties times
    smaller than all (2^m)^parties edge tables.

    A row's value with the best central responses is ``combine`` of the
    absolute per-term products of its edge factors; the witness's central
    responses come from the winning row's products.
    """
    parties = f.parties
    m, n_terms = f.m, f.n_terms
    space = (2**m) ** parties * 2**f.n_central_inputs
    if space > SEARCH_SPACE_GUARD:
        raise SearchSpaceTooLarge(f"search space {space} exceeds {SEARCH_SPACE_GUARD}")

    # Negated sign-table rows: first response -1, lexicographic, -1 < +1.
    signs = -np.array(build_sign_table(m).rows, dtype=float)
    per_party = [signs @ f.coefficient_matrix(k).T for k in range(parties)]

    shape = (len(signs),) * parties
    total = len(signs) ** parties
    best_value = -np.inf
    for start in range(0, total, _CHUNK):
        digits = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), shape)
        prod = np.ones((digits[0].size, n_terms))
        for k in range(parties):
            prod *= per_party[k][digits[k]]
        vals = combine(f, np.abs(prod))
        arg = int(np.argmax(vals))
        if vals[arg] > best_value:
            best_value = float(vals[arg])
            best_index, best_prod = start + arg, prod[arg].copy()

    digits = np.unravel_index(best_index, shape)
    edge = tuple(tuple(int(v) for v in signs[d]) for d in digits)
    if f.combiner == LINEAR:
        central = tuple(1 if p > 0 else -1 for p in best_prod)
    else:
        central = tuple([-1] * f.n_central_inputs)
    witness = DeterministicStrategy(edge_responses=edge, central_responses=central)
    return best_value, witness


def _mixture_terms(
    f: Functional,
    weights: Sequence[np.ndarray],
    responses: Sequence[np.ndarray],
    central: np.ndarray,
) -> np.ndarray:
    """Per-term correlators, shape (B, T), of B finite n-local mixtures.

    Every array carries a leading batch axis: ``weights[k]`` is (B, s_k),
    ``responses[k]`` is (B, s_k, m) and ``central`` is (B, s_1, ..., s_n, T),
    one central input per term. One einsum over integer sublists, so the
    number of sources is not capped by a letter alphabet: label 0 is the
    batch, labels 1..n the sources and n + 1 the term.
    """
    parties = f.parties
    sources = list(range(1, parties + 1))
    term = parties + 1
    operands: list = []
    for k in range(parties):
        operands += [weights[k], [0, sources[k]]]
    for k in range(parties):
        operands += [responses[k] @ f.coefficient_matrix(k).T, [0, sources[k], term]]
    operands += [central, [0, *sources, term]]
    return np.einsum(*operands, [0, term])


def eval_model(f: Functional, model: HiddenVariableModel) -> float:
    """Functional value of a finite n-local mixture."""
    parties = f.parties
    if len(model.weights) != parties or len(model.edge_responses) != parties:
        raise ShapeMismatch(f"model must carry {parties} sources")

    weights = [np.asarray(w, dtype=float) for w in model.weights]
    responses = [np.asarray(r, dtype=float) for r in model.edge_responses]
    for k in range(parties):
        if responses[k].shape != (weights[k].shape[0], f.m):
            raise ShapeMismatch(f"edge response table {k} must be support x {f.m}")

    central = np.asarray(model.central_responses, dtype=float)
    expected = tuple(w.shape[0] for w in weights)
    if central.shape != expected + (f.n_central_inputs,):
        raise ShapeMismatch(
            f"central table must have shape {expected + (f.n_central_inputs,)}"
        )

    per_term = _mixture_terms(
        f, [w[None] for w in weights], [r[None] for r in responses], central[None]
    )
    return combine(f, per_term[0])


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
    the result does not depend on evaluation order. Models are drawn one
    per trial, exactly as ``random_model`` draws them, and evaluated by
    ``_mixture_terms`` in chunks whose central tables hold at most
    ``_CHUNK`` entries together, so memory does not grow with ``trials``.
    One ``combine`` call per chunk gives every trial's value, and the
    returned value is ``eval_model`` of the first maximizer. Each batched
    row equals the one-model ``_mixture_terms`` row bit for bit, and
    ``combine`` reduces each row of a batch as it reduces that row alone
    (tests check both for every kind), so the result is the maximum of
    ``eval_model`` over the trials one by one.
    Raises ``SearchSpaceTooLarge`` before any draw when one central table
    would exceed ``MIXTURE_GUARD`` entries or the model would have more
    than ``_MAX_MIXTURE_SOURCES`` sources.
    """
    if trials < 1:
        raise OutOfRange("trials must be at least 1")
    parties = f.parties
    table = support_size**parties * f.n_central_inputs
    if table > MIXTURE_GUARD or parties > _MAX_MIXTURE_SOURCES:
        raise SearchSpaceTooLarge(
            f"mixture over {parties} sources of support {support_size} needs "
            f"{table} central table entries; limits are {MIXTURE_GUARD} entries "
            f"and {_MAX_MIXTURE_SOURCES} sources"
        )
    children = np.random.SeedSequence(seed).spawn(trials)
    chunk = max(1, _CHUNK // max(table, 1))
    best_value, best_model = -np.inf, None
    for start in range(0, trials, chunk):
        models = [
            random_model(f, support_size, np.random.default_rng(child))
            for child in children[start : start + chunk]
        ]
        terms = _mixture_terms(
            f,
            [np.stack([mo.weights[k] for mo in models]) for k in range(parties)],
            [np.stack([mo.edge_responses[k] for mo in models]) for k in range(parties)],
            np.stack([mo.central_responses for mo in models]),
        )
        values = combine(f, terms)
        arg = int(np.argmax(values))
        if values[arg] > best_value:
            best_value, best_model = values[arg], models[arg]
    return eval_model(f, best_model)


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
