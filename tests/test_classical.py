import itertools

import numpy as np
import pytest

from netbell import classical
from netbell.classical import (
    DeterministicStrategy,
    enumerate_deterministic_max,
    eval_model,
    eval_strategy,
    random_model,
    root_sum_lemma_check,
    sample_nlocal_value,
)
from netbell.errors import NegativeEntry, SearchSpaceTooLarge, ShapeMismatch
from netbell.functionals import (
    LINEAR,
    Kind,
    _roots,
    build_functional,
    classical_bound,
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
        with pytest.raises(ShapeMismatch):
            eval_strategy(CHSH, DeterministicStrategy(((1, 1, 1),), (1, 1)))
        with pytest.raises(ShapeMismatch):
            eval_strategy(CHSH, DeterministicStrategy(((1, 2),), (1, 1)))

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
        with pytest.raises(SearchSpaceTooLarge, match="rows"):
            enumerate_deterministic_max(build_functional(Kind.STAR, 2, 26))

    def test_response_table_budget(self):
        # gm m=12: 2^11 rows x 2^11 terms is within the row guard, but the
        # (1, 2^11, 2^11) response table is four times the float budget.
        assert classical._FLOAT_BUDGET == 2**20
        with pytest.raises(SearchSpaceTooLarge, match="response table"):
            enumerate_deterministic_max(build_functional(Kind.GM, 12))


def full_sweep_max(f):
    """Reference: sweep all (2^m)^parties edge tables in lexicographic order
    (-1 before +1) and keep the first maximizer, as the sweep did before it
    was cut to one table per sign orbit."""
    tables = list(itertools.product((-1, 1), repeat=f.m))
    best_value, best_edge, best_prod = -np.inf, None, None
    for edge in itertools.product(tables, repeat=f.parties):
        prod = np.ones(f.n_terms)
        for k, row in enumerate(edge):
            prod *= f.coefficients[k] @ np.array(row, dtype=float)
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
    """Reference: one eval_model per trial, on the trial's own seed child."""
    return max(
        eval_model(f, random_model(f, support_size, np.random.default_rng(c)))
        for c in np.random.SeedSequence(seed).spawn(trials)
    )


def assert_batched_rows_exact(f, support, count, seed):
    """Batched _mixture_terms rows equal one-model calls bit for bit."""
    models = [
        random_model(f, support, np.random.default_rng(c))
        for c in np.random.SeedSequence(seed).spawn(count)
    ]
    batched = classical._mixture_terms(
        f,
        [np.stack([mo.weights[k] for mo in models]) for k in range(f.parties)],
        [np.stack([mo.edge_responses[k] for mo in models]) for k in range(f.parties)],
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
        # Chunks of 32 // (4 * 2) = 4 models: the counts 1..30 end on a last
        # chunk of every possible length.
        monkeypatch.setattr(classical, "_CHUNK", 32)
        values = [
            eval_model(BILOCAL, random_model(BILOCAL, 2, np.random.default_rng(c)))
            for c in np.random.SeedSequence(3).spawn(30)
        ]
        for trials in range(1, 31):
            assert sample_nlocal_value(BILOCAL, trials, 2, seed=3) == max(values[:trials])


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

    def test_never_exceeds_deterministic_max(self):
        rng = np.random.default_rng(21)
        for f in (CHSH, BILOCAL, XI32):
            det_max, _ = enumerate_deterministic_max(f)
            for _ in range(100):
                assert eval_model(f, random_model(f, 3, rng)) <= det_max + 1e-12


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
        with pytest.raises(NegativeEntry):
            root_sum_lemma_check(np.array([[1.0, -0.1]]), 1)
