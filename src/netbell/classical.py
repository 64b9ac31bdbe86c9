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
from .tolerances import WEIGHT_SUM

# Rows x terms of one orbit sweep, the work of an enumeration.
SEARCH_SPACE_GUARD = 2**26
MIXTURE_GUARD = 2**22
# np.einsum takes at most 64 operands (numpy 2): two per source, the
# central table and the output.
_MAX_MIXTURE_SOURCES = 31
_CHUNK = 1 << 16
# Floats in the enumeration's (2^(m-1), T) response table and in one
# chunk's term products: _CHUNK rows of up to 16 terms.
_FLOAT_BUDGET = 16 * _CHUNK


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
    weights. ``random_model(..., size=B)`` gives every array a leading
    batch axis of B models."""

    weights: tuple[np.ndarray, ...]
    edge_responses: tuple[np.ndarray, ...]
    central_responses: np.ndarray


def _check_pm_one(arr: np.ndarray, what: str) -> None:
    if not np.all(np.abs(arr) == 1):
        raise ShapeMismatch(f"{what} entries must be +1 or -1")


def eval_strategy(f: Functional, s: DeterministicStrategy) -> float:
    """Functional value of one deterministic strategy: ``eval_model`` of
    the support-1 mixture of weight 1, whose products are all integers,
    so the value is exact."""
    central = np.array(s.central_responses, dtype=float)
    if central.shape != (f.n_terms,):
        raise ShapeMismatch(f"central responses must have length {f.n_terms}")
    model = HiddenVariableModel(
        weights=(np.ones(1),) * f.parties,
        edge_responses=tuple(np.array([r], dtype=float) for r in s.edge_responses),
        central_responses=central.reshape((1,) * f.parties + (-1,)),
    )
    return eval_model(f, model)


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

    Raises ``SearchSpaceTooLarge`` before allocating anything when the
    sweep's rows x terms exceed ``SEARCH_SPACE_GUARD`` or the (2^(m-1), T)
    response table, shared by every party, exceeds ``_FLOAT_BUDGET`` floats,
    the budget of one chunk's (rows, T) products too.
    """
    parties, n_terms = f.parties, f.n_terms
    half = 2 ** (f.m - 1)
    rows = half**parties
    table = half * n_terms
    if rows * n_terms > SEARCH_SPACE_GUARD:
        raise SearchSpaceTooLarge(
            f"sweep of {rows} rows x {n_terms} terms exceeds {SEARCH_SPACE_GUARD}"
        )
    if table > _FLOAT_BUDGET:
        raise SearchSpaceTooLarge(
            f"response table of {table} floats exceeds {_FLOAT_BUDGET}"
        )

    # Negated sign-table rows: first response -1, lexicographic, -1 < +1.
    signs = -np.array(build_sign_table(f.m), dtype=float)
    responses = signs @ f.coefficients.T

    shape = (half,) * parties
    chunk = _FLOAT_BUDGET // max(n_terms, 16)
    best_value = -np.inf
    for start in range(0, rows, chunk):
        digits = np.unravel_index(np.arange(start, min(start + chunk, rows)), shape)
        prod = np.ones((digits[0].size, n_terms))
        for k in range(parties):
            prod *= responses[digits[k]]
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
        central = tuple([-1] * f.n_terms)
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
        operands += [responses[k] @ f.coefficients.T, [0, sources[k], term]]
    operands += [central, [0, *sources, term]]
    return np.einsum(*operands, [0, term])


def eval_model(f: Functional, model: HiddenVariableModel) -> float:
    """Functional value of a finite n-local mixture, after checking its
    table shapes, its +1/-1 responses, and per source nonnegative weights
    summing to 1 within ``WEIGHT_SUM``."""
    parties = f.parties
    if len(model.weights) != parties or len(model.edge_responses) != parties:
        raise ShapeMismatch(f"model must carry {parties} sources")

    weights = [np.asarray(w, dtype=float) for w in model.weights]
    responses = [np.asarray(r, dtype=float) for r in model.edge_responses]
    for k in range(parties):
        if responses[k].shape != (weights[k].shape[0], f.m):
            raise ShapeMismatch(f"edge response table {k} must be support x {f.m}")
        _check_pm_one(responses[k], "edge response")
        if np.any(weights[k] < 0):
            raise NegativeEntry(f"weights of source {k} must be nonnegative")
        if not abs(weights[k].sum() - 1.0) <= WEIGHT_SUM:
            raise OutOfRange(f"weights of source {k} must sum to 1")

    central = np.asarray(model.central_responses, dtype=float)
    expected = tuple(w.shape[0] for w in weights)
    if central.shape != expected + (f.n_terms,):
        raise ShapeMismatch(
            f"central table must have shape {expected + (f.n_terms,)}"
        )
    _check_pm_one(central, "central response")

    per_term = _mixture_terms(
        f, [w[None] for w in weights], [r[None] for r in responses], central[None]
    )
    return combine(f, per_term[0])


def random_model(
    f: Functional, support_size: int, rng: np.random.Generator, size: int | None = None
) -> HiddenVariableModel:
    """Random n-local mixture read from one row of ``rng.random``: each
    source's weight cuts, then the edge bits, then the central bits. The
    weights are the spacings of the sorted cuts, exactly Dirichlet(1, ..., 1);
    a response is -1 where its uniform is below 0.5 and +1 otherwise.
    ``size`` follows numpy: ``None`` draws one model, ``B`` draws B models
    with a leading batch axis, equal bit for bit to B draws of one model."""
    if support_size < 1:
        raise OutOfRange(f"support size must be at least 1, got {support_size}")
    parties, s = f.parties, int(support_size)
    cuts, bits = parties * (s - 1), parties * s * f.m
    u = rng.random((1 if size is None else size, cuts + bits + s**parties * f.n_terms))
    sorted_cuts = np.sort(u[:, :cuts].reshape(len(u), parties, s - 1))
    spacings = np.diff(sorted_cuts, prepend=0.0, append=1.0)
    signs = np.where(u[:, cuts:] < 0.5, -1.0, 1.0)
    edge = signs[:, :bits].reshape(len(u), parties, s, f.m)
    central = signs[:, bits:].reshape((len(u),) + (s,) * parties + (f.n_terms,))
    model = HiddenVariableModel(
        weights=tuple(spacings[:, k].copy() for k in range(parties)),
        edge_responses=tuple(edge[:, k].copy() for k in range(parties)),
        central_responses=np.ascontiguousarray(central),
    )
    return model if size is not None else _row(model, 0)


def _row(model: HiddenVariableModel, i: int) -> HiddenVariableModel:
    """Model i of a batch, as its own arrays."""
    return HiddenVariableModel(
        weights=tuple(w[i].copy() for w in model.weights),
        edge_responses=tuple(r[i].copy() for r in model.edge_responses),
        central_responses=model.central_responses[i].copy(),
    )


def sample_nlocal_value(
    f: Functional, trials: int, support_size: int = 2, seed: int = 0
) -> float:
    """Maximum functional value over randomly drawn n-local mixtures.

    Model t is the t-th ``random_model`` draw from one
    ``np.random.default_rng(seed)`` stream, so the result is the maximum of
    ``eval_model`` over the first ``trials`` models, whatever the chunk
    size. A chunk is one ``random_model(..., size=B)`` of at most
    ``_CHUNK`` uniforms, one ``_mixture_terms`` and one ``combine``, whose
    rows equal one-model rows bit for bit (tests check every kind).
    Raises ``SearchSpaceTooLarge`` before any draw when one central table
    would exceed ``MIXTURE_GUARD`` entries or the model would have more
    than ``_MAX_MIXTURE_SOURCES`` sources.
    """
    if trials < 1:
        raise OutOfRange("trials must be at least 1")
    parties, s = f.parties, int(support_size)
    table = s**parties * f.n_terms
    if table > MIXTURE_GUARD or parties > _MAX_MIXTURE_SOURCES:
        raise SearchSpaceTooLarge(
            f"mixture over {parties} sources of support {s} needs "
            f"{table} central table entries; limits are {MIXTURE_GUARD} entries "
            f"and {_MAX_MIXTURE_SOURCES} sources"
        )
    # A model's row: weight cuts, edge bits and central bits.
    chunk = max(1, _CHUNK // max(parties * (s - 1) + parties * s * f.m + table, 1))
    rng = np.random.default_rng(seed)
    best_value, best_model = -np.inf, None
    for start in range(0, trials, chunk):
        batch = random_model(f, s, rng, size=min(chunk, trials - start))
        w, r, c = batch.weights, batch.edge_responses, batch.central_responses
        values = combine(f, _mixture_terms(f, w, r, c))
        arg = int(np.argmax(values))
        if values[arg] > best_value:
            best_value, best_model = values[arg], _row(batch, arg)
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
