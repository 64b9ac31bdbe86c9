import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import classical
from netbell.classical import (
    DeterministicStrategy,
    HiddenVariableModel,
    enumerate_deterministic_max,
    eval_model,
    eval_strategy,
    random_model,
    root_sum_lemma_check,
    sample_nlocal_value,
)
from netbell.errors import InvalidInput, TooLarge
from netbell.functionals import (
    LINEAR,
    Kind,
    _roots,
    build_functional,
    build_sign_table,
    classical_bound,
    combine,
    sign_family_classical_bound,
)

CHSH = build_functional(Kind.CHSH, 2)
BILOCAL = build_functional(Kind.BILOCAL, 2, 2)
XI32 = build_functional(Kind.XI, 3, 2)


class TestEvalStrategy:
    def test_chsh_saturating(self):
        s = DeterministicStrategy(((1, 1),), (1, 1))
        assert eval_strategy(CHSH, s) == pytest.approx(2.0)

    def test_bilocal_all_plus(self):
        s = DeterministicStrategy(((1, 1), (1, 1)), (1, 1))
        # I1 = 2*1*2 = 4, I2 = 0, so sqrt(4) + 0 = 2 saturates the bound.
        assert eval_strategy(BILOCAL, s) == pytest.approx(2.0)

    def test_xi_m3_all_plus(self):
        s = DeterministicStrategy(((1, 1, 1), (1, 1, 1)), (1, 1, 1))
        assert eval_strategy(XI32, s) == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput, match="edge response table 0"):
            eval_strategy(CHSH, DeterministicStrategy(((1, 1, 1),), (1, 1)))
        with pytest.raises(InvalidInput, match=r"must be \+1 or -1"):
            eval_strategy(CHSH, DeterministicStrategy(((1, 2),), (1, 1)))
        with pytest.raises(InvalidInput, match="central responses must have length 2"):
            eval_strategy(CHSH, DeterministicStrategy(((1, 1),), (1, 1, 1)))

    def test_central_sign_flip(self):
        edge = ((1, -1), (1, 1))
        plus = DeterministicStrategy(edge, (1, 1))
        minus = DeterministicStrategy(edge, (-1, -1))
        # ROOT_SUM values are invariant under flipping all central responses.
        assert eval_strategy(BILOCAL, plus) == pytest.approx(
            eval_strategy(BILOCAL, minus)
        )
        lin_plus = eval_strategy(CHSH, DeterministicStrategy(((1, -1),), (1, 1)))
        lin_minus = eval_strategy(CHSH, DeterministicStrategy(((1, -1),), (-1, -1)))
        assert lin_plus == pytest.approx(-lin_minus)


class TestEnumerate:
    def test_chsh(self):
        value, witness = enumerate_deterministic_max(CHSH)
        assert value == 2.0
        assert eval_strategy(CHSH, witness) == value

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_chained(self, m):
        f = build_functional(Kind.CHAINED, m)
        value, witness = enumerate_deterministic_max(f)
        assert value == 2 * m - 2
        assert eval_strategy(f, witness) == value

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    def test_gm(self, m):
        f = build_functional(Kind.GM, m)
        value, _ = enumerate_deterministic_max(f)
        assert value == sign_family_classical_bound(m)

    def test_gm3_resolves_bound_discrepancy(self):
        # 128-strategy enumeration gives 6, the m*C(m-1, .) form, and
        # rejects the larger closed form m*C(m, floor((m-1)/2)) = 9.
        value, _ = enumerate_deterministic_max(build_functional(Kind.GM, 3))
        assert value == 6.0
        assert value != 9.0

    def test_bilocal_and_star(self):
        assert enumerate_deterministic_max(BILOCAL)[0] == 2.0
        for n in (2, 3):
            f = build_functional(Kind.STAR, 2, n)
            assert enumerate_deterministic_max(f)[0] == 2.0

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (3, 1)])
    def test_xi(self, m, n):
        f = build_functional(Kind.XI, m, n)
        value, _ = enumerate_deterministic_max(f)
        assert value == 2 * m - 2

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (6, 2)])
    def test_delta(self, m, n):
        f = build_functional(Kind.DELTA, m, n)
        value, _ = enumerate_deterministic_max(f)
        assert value == sign_family_classical_bound(m)

    def test_matches_formula_bounds(self):
        for f in (CHSH, BILOCAL, XI32, build_functional(Kind.GM, 4)):
            assert enumerate_deterministic_max(f)[0] == classical_bound(f)

    def test_witness_is_deterministic_and_lexicographic(self):
        value, witness = enumerate_deterministic_max(CHSH)
        again = enumerate_deterministic_max(CHSH)[1]
        assert witness == again
        # The all-minus edge table attains the maximum and is smallest.
        assert witness.edge_responses == ((-1, -1),)
        assert witness.central_responses == (-1, -1)

    def test_search_space_guard(self):
        # star n=26 sweeps 2^26 rows x 2 terms, one row over the guard;
        # n=25 (2^26 exactly) is admitted.
        with pytest.raises(TooLarge, match="rows"):
            enumerate_deterministic_max(build_functional(Kind.STAR, 2, 26))

    def test_response_table_budget(self):
        # gm m=12: 2^11 rows x 2^11 terms is within the row guard, but the
        # (1, 2^11, 2^11) response table is four times the float budget.
        assert classical._FLOAT_BUDGET == 2**20
        with pytest.raises(TooLarge, match="response table"):
            enumerate_deterministic_max(build_functional(Kind.GM, 12))


def full_sweep_max(f):
    """Reference: sweep all (2^m)^parties edge tables in lexicographic order
    (-1 before +1) and keep the first maximizer, as the sweep did before it
    was cut to one table per sign orbit."""
    tables = list(itertools.product((-1, 1), repeat=f.m))
    best_value, best_edge, best_prod = -np.inf, None, None
    for edge in itertools.product(tables, repeat=f.n):
        prod = np.ones(f.n_terms)
        for row in edge:
            prod *= f.coefficients @ np.array(row, dtype=float)
        if f.combiner == LINEAR:
            value = float(np.abs(prod).sum())
        else:
            value = float(_roots(prod, f.n).sum())
        if value > best_value:
            best_value, best_edge, best_prod = value, edge, prod
    if f.combiner == LINEAR:
        central = tuple(1 if p > 0 else -1 for p in best_prod)
    else:
        central = (-1,) * f.n_terms
    return best_value, DeterministicStrategy(best_edge, central)


@pytest.mark.parametrize(
    "kind,m,n",
    [
        (Kind.CHSH, 2, 1),
        (Kind.CHAINED, 4, 1),
        (Kind.GM, 4, 1),
        (Kind.GM, 5, 1),
        (Kind.BILOCAL, 2, 2),
        (Kind.STAR, 2, 4),
        (Kind.XI, 3, 3),
        (Kind.DELTA, 3, 3),
        (Kind.XI, 4, 2),
    ],
)
def test_orbit_sweep_matches_full_sweep(kind, m, n):
    f = build_functional(kind, m, n)
    value, witness = enumerate_deterministic_max(f)
    assert (value, witness) == full_sweep_max(f)
    assert eval_strategy(f, witness) == value


def orbit_sweep_max(f):
    """Reference: every ordered tuple of the 2^(m-1) sign-orbit tables,
    (2^(m-1))^parties rows in row-major order, each chunk valued by one
    ``combine`` and the first maximizer kept, as the sweep did before it was
    cut to one ordering per multiset of tables."""
    parties, n_terms = f.n, f.n_terms
    half = 2 ** (f.m - 1)
    rows = half**parties
    signs = -np.array(build_sign_table(f.m), dtype=float)
    responses = signs @ f.coefficients.T
    shape = (half,) * parties
    chunk = classical._FLOAT_BUDGET // max(n_terms, 16)
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
    return best_value, DeterministicStrategy(edge, central)


@pytest.mark.parametrize(
    "kind,m,n",
    [
        (Kind.STAR, 2, 12),
        (Kind.XI, 3, 7),
        (Kind.DELTA, 3, 6),
        (Kind.DELTA, 4, 5),
        (Kind.XI, 4, 5),
        (Kind.GM, 6, 1),
        (Kind.CHAINED, 5, 1),
    ],
)
def test_multiset_sweep_matches_ordered_sweep(kind, m, n):
    f = build_functional(kind, m, n)
    value, witness = enumerate_deterministic_max(f)
    expected_value, expected_witness = orbit_sweep_max(f)
    assert value.hex() == expected_value.hex()
    assert witness == expected_witness


def _build(kind, m, n):
    """The functional of (kind, m, n), or None where it defines none."""
    try:
        return build_functional(kind, m, n)
    except InvalidInput:
        return None


def test_enumeration_matches_formula_on_grid():
    # Every scenario with m <= 9 and n <= 13 that builds: the guards admit
    # 129 and refuse 110.
    admitted = refused = 0
    for kind, m, n in itertools.product(Kind, range(2, 10), range(1, 14)):
        f = _build(kind, m, n)
        if f is None:
            continue
        try:
            value, witness = enumerate_deterministic_max(f)
        except TooLarge:
            refused += 1
            continue
        assert value == classical_bound(f), (kind, m, n)
        assert eval_strategy(f, witness) == value, (kind, m, n)
        admitted += 1
    assert (admitted, refused) == (129, 110)


@pytest.mark.parametrize(
    "kind,m,n", [(Kind.STAR, 2, 12), (Kind.XI, 3, 7), (Kind.DELTA, 4, 3), (Kind.GM, 3, 1)]
)
@pytest.mark.parametrize("prefixes_per_chunk", [1, 3])
def test_chunks_sweep_each_sorted_tuple_once_in_order(monkeypatch, kind, m, n, prefixes_per_chunk):
    f = build_functional(kind, m, n)
    half = 2 ** (m - 1)
    one_chunk = enumerate_deterministic_max(f)
    chunks = []
    extend = classical._extend

    def recording(digits, h):
        out = extend(digits, h)
        if out.shape[1] == n + 1:  # a chunk's rows, after the leading 0 column
            chunks.append(out[:, 1:])
        return out

    budget = 16 * half * prefixes_per_chunk
    monkeypatch.setattr(classical, "_extend", recording)
    monkeypatch.setattr(classical, "_FLOAT_BUDGET", budget)
    assert enumerate_deterministic_max(f) == one_chunk
    assert all(len(c) <= budget // max(f.n_terms, 16) for c in chunks)
    assert len(chunks) > 1 or n == 1
    rows = [tuple(row) for c in chunks for row in c.tolist()]
    assert len(rows) == math.comb(half + n - 1, n)
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert rows == list(itertools.combinations_with_replacement(range(half), n))


@pytest.mark.parametrize("kind", list(Kind))
def test_response_entries_fit_the_exactness_bound(kind):
    # |response| <= 2^(m-1) keeps every product of n responses at most
    # 2^((m-1) n), which the row guard keeps far below 2^53. The largest
    # |entry| of signs @ coefficients.T is the largest row sum of
    # |coefficients| (a row's own signs attain it, up to a global flip);
    # the table itself is checked where it is small.
    for m in range(2, 17):
        f = _build(kind, m, 1) or _build(kind, m, 2)
        if f is None:
            continue
        largest = np.abs(f.coefficients).sum(axis=1).max()
        assert largest <= min(m, 2 ** (m - 1))
        if m <= 9:
            signs = np.array(build_sign_table(m), dtype=float)
            assert np.abs(signs @ f.coefficients.T).max() == largest


ALL_KINDS = [
    build_functional(Kind.CHSH, 2),
    build_functional(Kind.CHAINED, 3),
    build_functional(Kind.GM, 3),
    BILOCAL,
    build_functional(Kind.STAR, 2, 3),
    build_functional(Kind.DELTA, 3, 2),
    XI32,
]


def loop_sample(f, trials, support_size, seed):
    """Reference: one eval_model per trial, models drawn one at a time from
    one default_rng(seed) stream."""
    rng = np.random.default_rng(seed)
    return max(eval_model(f, random_model(f, support_size, rng)) for _ in range(trials))


def assert_batched_rows_exact(f, support, count, seed):
    """Batched _mixture_terms rows equal one-model calls bit for bit."""
    models = [
        random_model(f, support, np.random.default_rng(c))
        for c in np.random.SeedSequence(seed).spawn(count)
    ]
    batched = classical._mixture_terms(
        f,
        [np.stack([mo.weights[k] for mo in models]) for k in range(f.n)],
        [np.stack([mo.edge_responses[k] for mo in models]) for k in range(f.n)],
        np.stack([mo.central_responses for mo in models]),
    )
    one_by_one = np.concatenate([
        classical._mixture_terms(
            f,
            [w[None] for w in mo.weights],
            [r[None] for r in mo.edge_responses],
            mo.central_responses[None],
        )
        for mo in models
    ])
    differ = np.any(batched != one_by_one, axis=1)
    assert np.array_equal(batched, one_by_one), f"{differ.sum()} of {count} rows differ"


class TestBatchedSampling:
    @pytest.mark.parametrize("support", [1, 2, 3])
    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.kind.value)
    def test_matches_one_model_at_a_time(self, f, support):
        assert sample_nlocal_value(f, 150, support, seed=4) == loop_sample(f, 150, support, 4)

    @pytest.mark.parametrize("support", [1, 2, 3])
    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.kind.value)
    def test_batched_rows_equal_one_model_rows(self, f, support):
        assert_batched_rows_exact(f, support, 300, seed=5)

    def test_batched_rows_equal_one_model_rows_bilocal_many(self):
        assert_batched_rows_exact(BILOCAL, 3, 2000, seed=6)

    def test_every_trial_count(self, monkeypatch):
        # A bilocal support-2 model reads 2 + 8 + 8 = 18 uniforms, so chunks
        # hold 32 // 18 = 1 and 126 // 18 = 7 models: the counts 1..30 end
        # on a last chunk of every possible length, and each equals the
        # maximum over the same prefix of the one-model stream.
        rng = np.random.default_rng(3)
        values = [eval_model(BILOCAL, random_model(BILOCAL, 2, rng)) for _ in range(30)]
        for chunk in (32, 126):
            monkeypatch.setattr(classical, "_CHUNK", chunk)
            for trials in range(1, 31):
                assert sample_nlocal_value(BILOCAL, trials, 2, seed=3) == max(values[:trials])

    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.kind.value)
    def test_value_independent_of_chunk_size(self, f, monkeypatch):
        # Chunks of 16 to 227 models: 700 trials cross several boundaries.
        values = []
        for chunk in (1 << 9, 1 << 11):
            monkeypatch.setattr(classical, "_CHUNK", chunk)
            values.append(sample_nlocal_value(f, 700, 2, seed=8))
        assert values[0] == values[1] == loop_sample(f, 700, 2, 8)


class TestRandomModel:
    @pytest.mark.parametrize("support", [1, 2, 3])
    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.kind.value)
    def test_batch_equals_single_draws(self, f, support):
        batch_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
        batch = random_model(f, support, batch_rng, size=5)
        for i in range(5):
            one = random_model(f, support, rng)
            for k in range(f.n):
                assert np.array_equal(batch.weights[k][i], one.weights[k])
                assert np.array_equal(batch.edge_responses[k][i], one.edge_responses[k])
            assert np.array_equal(batch.central_responses[i], one.central_responses)
        # Both read the same stretch of the stream.
        assert batch_rng.random() == rng.random()

    @pytest.mark.parametrize("support", [1, 2, 3])
    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.kind.value)
    def test_weights_are_distributions_and_responses_are_signs(self, f, support):
        model = random_model(f, support, np.random.default_rng(9), size=200)
        assert len(model.weights) == len(model.edge_responses) == f.n
        for w, r in zip(model.weights, model.edge_responses):
            assert w.shape == (200, support) and r.shape == (200, support, f.m)
            assert np.all(w >= 0)
            assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)
            assert np.all(np.abs(r) == 1)
        assert model.central_responses.shape == (200,) + (support,) * f.n + (f.n_terms,)
        assert np.all(np.abs(model.central_responses) == 1)


class TestSampling:
    def test_bilocal_never_exceeds_bound(self):
        best = sample_nlocal_value(BILOCAL, trials=2000, support_size=2, seed=11)
        assert best <= 2.0 + 1e-12

    def test_xi_never_exceeds_bound(self):
        best = sample_nlocal_value(XI32, trials=2000, support_size=2, seed=12)
        assert best <= 4.0 + 1e-12

    def test_point_mass_support(self):
        best = sample_nlocal_value(BILOCAL, trials=200, support_size=1, seed=5)
        assert best <= 2.0 + 1e-12

    def test_reproducible(self):
        a = sample_nlocal_value(XI32, trials=50, support_size=3, seed=9)
        b = sample_nlocal_value(XI32, trials=50, support_size=3, seed=9)
        assert a == b

    @settings(max_examples=30, deadline=None)
    @given(
        f=st.sampled_from(ALL_KINDS),
        support=st.integers(1, 3),
        trials=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_never_exceeds_enumeration(self, f, support, trials, seed):
        best = sample_nlocal_value(f, trials, support, seed)
        assert best <= enumerate_deterministic_max(f)[0] + 1e-12

    def test_never_exceeds_deterministic_max(self):
        rng = np.random.default_rng(21)
        for f in (CHSH, BILOCAL, XI32):
            det_max, _ = enumerate_deterministic_max(f)
            for _ in range(100):
                assert eval_model(f, random_model(f, 3, rng)) <= det_max + 1e-12


def _bilocal_model(**change):
    """A valid bilocal support-2 model with some fields replaced."""
    fields = dict(
        weights=(np.array([0.25, 0.75]), np.array([0.5, 0.5])),
        edge_responses=(np.ones((2, 2)), -np.ones((2, 2))),
        central_responses=np.ones((2, 2, 2)),
    )
    return HiddenVariableModel(**{**fields, **change})


class TestEvalModelChecks:
    def test_valid_model(self):
        assert eval_model(BILOCAL, _bilocal_model()) == 2.0

    @pytest.mark.parametrize(
        "change",
        [
            {"edge_responses": (np.ones((2, 2)), np.array([[1.0, 0.5], [1.0, 1.0]]))},
            {"edge_responses": (np.zeros((2, 2)), np.ones((2, 2)))},
            {"central_responses": np.full((2, 2, 2), 2.0)},
        ],
        ids=["edge-half", "edge-zero", "central-two"],
    )
    def test_responses_must_be_signs(self, change):
        with pytest.raises(InvalidInput, match="must be \\+1 or -1"):
            eval_model(BILOCAL, _bilocal_model(**change))

    def test_source_count(self):
        model = _bilocal_model(weights=_bilocal_model().weights[:1])
        with pytest.raises(InvalidInput, match="model must carry 2 sources"):
            eval_model(BILOCAL, model)

    def test_central_table_shape(self):
        model = _bilocal_model(central_responses=np.ones((2, 2)))
        with pytest.raises(InvalidInput, match=r"central table must have shape \(2, 2, 2\)"):
            eval_model(BILOCAL, model)

    def test_negative_weight(self):
        model = _bilocal_model(weights=(np.array([1.5, -0.5]), np.array([0.5, 0.5])))
        with pytest.raises(InvalidInput, match="source 0"):
            eval_model(BILOCAL, model)

    @pytest.mark.parametrize("second", [[0.5, 0.6], [0.3, 0.3], [0.5, 0.5 + 1e-9]])
    def test_weights_must_sum_to_one(self, second):
        model = _bilocal_model(weights=(np.array([0.25, 0.75]), np.array(second)))
        with pytest.raises(InvalidInput, match="source 1"):
            eval_model(BILOCAL, model)


class TestRootSumLemma:
    def test_all_ones_equality(self):
        z = np.ones((3, 5))
        assert root_sum_lemma_check(z, 3)

    def test_single_source_equality(self):
        z = np.array([[0.3, 1.7, 2.0]])
        assert root_sum_lemma_check(z, 1)

    def test_random_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            n = int(rng.integers(1, 5))
            terms = int(rng.integers(1, 9))
            z = rng.uniform(0.0, 5.0, size=(n, terms))
            assert root_sum_lemma_check(z, n)

    def test_negative_entry(self):
        with pytest.raises(InvalidInput, match="nonnegative"):
            root_sum_lemma_check(np.array([[1.0, -0.1]]), 1)

    def test_shape_checks(self):
        with pytest.raises(InvalidInput, match="2-d matrix"):
            root_sum_lemma_check(np.ones(3), 1)
        with pytest.raises(InvalidInput, match="2 rows but n=3"):
            root_sum_lemma_check(np.ones((2, 4)), 3)
