import dataclasses
import math

import numpy as np
import pytest

from netbell import functionals as fn
from netbell import serialize
from netbell.errors import (
    DimensionMismatch,
    InvalidScenario,
    MissingObservable,
    OutOfRange,
)
from netbell.functionals import (
    Kind,
    ObservableAssignment,
    build_functional,
    build_sign_table,
    classical_bound,
    eval_correlator,
    eval_functional,
    quantum_bound,
)
from netbell.states import (
    SIGMA_X,
    SIGMA_Z,
    Observable,
    QuantumState,
    maximally_entangled,
    network_product_state,
)

SQ2 = math.sqrt(2)
PHI_PLUS = maximally_entangled(2)
SINGLET = QuantumState.pure(np.array([0, 1, -1, 0]) / SQ2, (2, 2))


def diag_obs():
    """CHSH-optimal partner observables (sigma_z +/- sigma_x)/sqrt(2)."""
    return (
        Observable((SIGMA_Z + SIGMA_X) / SQ2),
        Observable((SIGMA_Z - SIGMA_X) / SQ2),
    )


class TestSignTable:
    def test_m2_rows(self):
        assert build_sign_table(2).rows == ((1, 1), (1, -1))

    def test_m3_first_row_all_plus(self):
        table = build_sign_table(3)
        assert len(table.rows) == 4
        assert table.rows[0] == (1, 1, 1)

    def test_m3_row4_binary_order(self):
        # Row 4 encodes the bit string 011 (integer 3 on the trailing bits).
        assert build_sign_table(3).rows[3] == (1, -1, -1)

    def test_rows_distinct_and_first_entry_plus(self):
        for m in (2, 3, 4, 5):
            rows = build_sign_table(m).rows
            assert len(set(rows)) == len(rows) == 2 ** (m - 1)
            assert all(r[0] == 1 for r in rows)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            build_sign_table(17)
        with pytest.raises(OutOfRange):
            build_sign_table(1)


class TestBuildFunctional:
    def test_chsh_terms(self):
        f = build_functional(Kind.CHSH, 2, 1)
        assert f.combiner == fn.LINEAR
        assert [t.signs for t in f.terms] == [((1, 1),), ((1, -1),)]
        assert [t.central_input for t in f.terms] == [0, 1]

    def test_xi_3_2_terms(self):
        f = build_functional(Kind.XI, 3, 2)
        assert f.combiner == fn.ROOT_SUM and f.n == 2
        expected = [(1, 1, 0), (0, 1, 1), (-1, 0, 1)]
        for term, row in zip(f.terms, expected):
            assert term.signs == (row, row)

    def test_delta_m2_matches_star(self):
        for n in (2, 3):
            assert build_functional(Kind.DELTA, 2, n).terms == build_functional(
                Kind.STAR, 2, n
            ).terms

    def test_idempotent(self):
        assert build_functional("chained", 4) == build_functional("chained", 4)

    def test_invalid_scenarios(self):
        with pytest.raises(InvalidScenario):
            build_functional(Kind.CHSH, 3, 1)
        with pytest.raises(InvalidScenario):
            build_functional(Kind.CHSH, 2, 2)
        with pytest.raises(InvalidScenario):
            build_functional(Kind.BILOCAL, 2, 3)
        with pytest.raises(InvalidScenario):
            build_functional(Kind.STAR, 3, 2)

    def test_term_must_own_its_central_input(self):
        # gm m=3 with every term on input 0 would let enumeration and the
        # evaluators disagree (6.0 against 4.0 by brute force).
        gm = build_functional(Kind.GM, 3, 1)
        shared = tuple(dataclasses.replace(t, central_input=0) for t in gm.terms)
        with pytest.raises(InvalidScenario, match="term 1"):
            dataclasses.replace(gm, terms=shared)

    def test_json_with_swapped_central_inputs(self):
        data = serialize.functional_to_json(build_functional(Kind.CHSH, 2, 1))
        for term, x in zip(data["terms"], (1, 0)):
            term["central_input"] = x
        with pytest.raises(InvalidScenario, match="term 0"):
            serialize.functional_from_json(data)


class TestEvalCorrelator:
    def test_two_singlets_optimal_term(self):
        psi = network_product_state([SINGLET, SINGLET])
        a1, a2 = diag_obs()
        edge = [a1.matrix + a2.matrix, a1.matrix + a2.matrix]
        central = Observable(np.kron(SIGMA_Z, SIGMA_Z))
        # Product state factorizes: each wing contributes sqrt(2) * (-1),
        # so the 16x16 expectation is (-sqrt 2)(-sqrt 2) = 2.
        assert eval_correlator(psi, edge, central) == pytest.approx(2.0)

    def test_product_state_factorizes(self):
        vec = np.zeros(16)
        vec[0] = 1.0
        psi = QuantumState.pure(vec, (2, 2, 4))
        edge = [SIGMA_Z + SIGMA_X, SIGMA_Z - SIGMA_X]
        central = Observable(np.kron(SIGMA_Z, SIGMA_X))
        got = eval_correlator(psi, edge, central)
        single = [1.0 + 0.0, 1.0 - 0.0, 1.0 * 0.0]  # <op> on |0> per slot
        assert got == pytest.approx(single[0] * single[1] * single[2])

    def test_all_zero_coefficients(self):
        psi = network_product_state([SINGLET, SINGLET])
        edge = [np.zeros((2, 2)), np.zeros((2, 2))]
        assert eval_correlator(psi, edge, Observable(np.eye(4))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_correlator(SINGLET, [SIGMA_Z, SIGMA_Z], Observable(SIGMA_X))


def chsh_assignment():
    y1, y2 = diag_obs()
    return ObservableAssignment(
        edge=((Observable(SIGMA_Z), Observable(SIGMA_X)),),
        central=(y1, y2),
    )


def bilocal_assignment():
    a1, a2 = diag_obs()
    return ObservableAssignment(
        edge=(((a1, a2)), (a1, a2)),
        central=(
            Observable(np.kron(SIGMA_Z, SIGMA_Z)),
            Observable(np.kron(SIGMA_X, SIGMA_X)),
        ),
    )


class TestEvalFunctional:
    def test_chsh_optimum(self):
        f = build_functional(Kind.CHSH, 2, 1)
        value, correlators = eval_functional(f, PHI_PLUS, chsh_assignment())
        assert value == pytest.approx(2 * SQ2, abs=1e-12)
        assert correlators.values == pytest.approx((SQ2, SQ2))

    def test_bilocal_optimum(self):
        f = build_functional(Kind.BILOCAL, 2, 2)
        psi = network_product_state([PHI_PLUS, PHI_PLUS])
        value, correlators = eval_functional(f, psi, bilocal_assignment())
        assert value == pytest.approx(2 * SQ2, abs=1e-12)
        assert correlators.values == pytest.approx((2.0, 2.0))

    def test_chsh_on_product_state(self):
        f = build_functional(Kind.CHSH, 2, 1)
        vec = np.zeros(4)
        vec[0] = 1.0
        psi = QuantumState.pure(vec, (2, 2))
        assignment = ObservableAssignment(
            edge=((Observable(SIGMA_Z), Observable(SIGMA_X)),),
            central=(Observable(SIGMA_Z), Observable(SIGMA_X)),
        )
        value, _ = eval_functional(f, psi, assignment)
        assert value == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        f = build_functional(Kind.CHSH, 2, 1)
        phased = QuantumState.pure(np.exp(0.7j) * PHI_PLUS.data, (2, 2))
        v1, _ = eval_functional(f, PHI_PLUS, chsh_assignment())
        v2, _ = eval_functional(f, phased, chsh_assignment())
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_correlator_ceiling(self):
        f = build_functional(Kind.BILOCAL, 2, 2)
        psi = network_product_state([PHI_PLUS, PHI_PLUS])
        _, correlators = eval_functional(f, psi, bilocal_assignment())
        for term, value in zip(f.terms, correlators.values):
            ceiling = 1.0
            for row in term.signs:
                ceiling *= sum(abs(c) for c in row)
            assert abs(value) <= ceiling + 1e-12

    def test_missing_observable(self):
        f = build_functional(Kind.CHSH, 2, 1)
        broken = ObservableAssignment(
            edge=((Observable(SIGMA_Z),),), central=(Observable(SIGMA_Z),) * 2
        )
        with pytest.raises(MissingObservable):
            eval_functional(f, PHI_PLUS, broken)

    def test_root_sum_monotone_in_each_term(self):
        f = build_functional(Kind.XI, 3, 2)
        base = [1.0, 2.0, 0.5]
        bumped = [1.0, 2.5, 0.5]
        assert fn.combine(f, bumped) > fn.combine(f, base)


COMBINE_SCENARIOS = [
    (Kind.CHSH, 2, 1),
    (Kind.CHAINED, 5, 1),
    (Kind.GM, 4, 1),
    (Kind.GM, 5, 1),
    (Kind.BILOCAL, 2, 2),
    (Kind.STAR, 2, 3),
    (Kind.DELTA, 4, 3),
    (Kind.XI, 3, 5),
]


class TestCombine:
    @pytest.mark.parametrize("batch", [1, 3, 1000])
    @pytest.mark.parametrize(
        "kind,m,n", COMBINE_SCENARIOS, ids=lambda v: getattr(v, "value", str(v))
    )
    def test_batch_equals_rows(self, kind, m, n, batch):
        f = build_functional(kind, m, n)
        rng = np.random.default_rng(batch * 31 + m * 7 + n)
        # Random correlators plus exact n-th powers of integers, signed.
        stack = rng.standard_normal((batch, f.n_terms)) * 4.0
        powers = rng.integers(0, 6, size=stack.shape).astype(float) ** n
        stack = np.where(rng.random(stack.shape) < 0.3, powers, stack)
        stack *= rng.choice([-1.0, 1.0], size=stack.shape)
        values = fn.combine(f, stack)
        assert values.shape == (batch,)
        rows = [fn.combine(f, row) for row in stack]
        assert all(type(v) is float for v in rows)
        assert values.tolist() == rows
        # A Fortran-ordered batch would be reduced across rows, in another order.
        assert fn.combine(f, np.asfortranarray(stack)).tolist() == rows
        assert fn.combine(f, stack.tolist()[0]) == rows[0]

    def test_exact_roots(self):
        # numpy's vectorised power misses most integer cube roots on long
        # arrays (27 ** (1/3) gives 3.0000000000000004 there).
        f = build_functional(Kind.XI, 3, 3)
        k = np.arange(201.0).reshape(67, 3)
        assert np.array_equal(fn.combine(f, -(k**3)), k.sum(axis=1))
        assert fn.combine(f, [8.0, -27.0, 0.0]) == 5.0


ALL_SEVEN = [
    (Kind.CHSH, 2, 1),
    (Kind.CHAINED, 4, 1),
    (Kind.GM, 3, 1),
    (Kind.BILOCAL, 2, 2),
    (Kind.STAR, 2, 3),
    (Kind.DELTA, 3, 3),
    (Kind.XI, 4, 2),
]


def _ragged_row(data):
    data["terms"][1]["signs"][0] = data["terms"][1]["signs"][0][:-1]


def _extra_party_in_one_term(data):
    data["terms"][2]["signs"].append(data["terms"][2]["signs"][0])


def _extra_party_in_every_term(data):
    for term in data["terms"]:
        term["signs"].append(term["signs"][0])


def _m_disagrees(data):
    data["m"] = 4


class TestCoefficients:
    @pytest.mark.parametrize("kind,m,n", ALL_SEVEN, ids=[k.value for k, _, _ in ALL_SEVEN])
    def test_read_only_table_of_term_signs(self, kind, m, n):
        f = build_functional(kind, m, n)
        c = f.coefficients
        assert c.shape == (f.parties, f.n_terms, m)
        assert c.dtype == float
        for i, term in enumerate(f.terms):
            for k in range(f.parties):
                assert tuple(c[k, i]) == term.signs[k]
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0, 0] = 2.0

    @pytest.mark.parametrize(
        "mutate",
        [_ragged_row, _extra_party_in_one_term, _extra_party_in_every_term, _m_disagrees],
    )
    def test_json_refuses_ragged_or_missized_tables(self, mutate):
        data = serialize.functional_to_json(build_functional(Kind.XI, 3, 2))
        mutate(data)
        with pytest.raises(InvalidScenario, match="sign rows"):
            serialize.functional_from_json(data)

    @pytest.mark.parametrize(
        "kind,m,n,key,value,match",
        [
            (Kind.CHSH, 2, 1, "combiner", "bogus", "'linear', got 'bogus'"),
            (Kind.CHSH, 2, 1, "combiner", "root_sum", "'linear', got 'root_sum'"),
            (Kind.BILOCAL, 2, 2, "combiner", "linear", "'root_sum', got 'linear'"),
            (Kind.XI, 3, 2, "terms", [], "at least one term"),
        ],
        ids=["unknown-combiner", "chsh-root-sum", "bilocal-linear", "no-terms"],
    )
    def test_json_refuses_wrong_combiner_or_no_terms(self, kind, m, n, key, value, match):
        data = serialize.functional_to_json(build_functional(kind, m, n))
        data[key] = value
        with pytest.raises(InvalidScenario, match=match):
            serialize.functional_from_json(data)

    def test_bipartite_table_has_one_party(self):
        data = serialize.functional_to_json(build_functional(Kind.CHSH, 2, 1))
        _extra_party_in_every_term(data)
        with pytest.raises(InvalidScenario, match="1 sign rows"):
            serialize.functional_from_json(data)


class TestBounds:
    def test_classical_values(self):
        assert classical_bound(build_functional(Kind.CHAINED, 4)) == 6
        assert classical_bound(build_functional(Kind.DELTA, 3, 2)) == 6
        assert classical_bound(build_functional(Kind.STAR, 2, 5)) == 2
        assert classical_bound(build_functional(Kind.CHSH, 2)) == 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_sign_family_bound_equals_binomial_sum(self, m):
        # The closed form m*C(m-1, floor((m-1)/2)) must equal the
        # explicit sum over j of C(m, j)(m - 2j).
        explicit = sum(math.comb(m, j) * (m - 2 * j) for j in range(m // 2 + 1))
        assert fn.sign_family_classical_bound(m) == explicit

    def test_gm_and_delta_share_classical_bound(self):
        for m in (2, 3, 4, 5):
            gm = classical_bound(build_functional(Kind.GM, m))
            delta = classical_bound(build_functional(Kind.DELTA, m, 3))
            assert gm == delta

    def test_quantum_values(self):
        assert quantum_bound(build_functional(Kind.CHAINED, 3)) == pytest.approx(
            3 * math.sqrt(3)
        )
        assert quantum_bound(build_functional(Kind.CHAINED, 4)) == pytest.approx(
            4 * math.sqrt(2 + SQ2)
        )
        assert quantum_bound(build_functional(Kind.GM, 3)) == pytest.approx(
            4 * math.sqrt(3)
        )

    def test_network_quantum_bounds_independent_of_n(self):
        for n in (1, 2, 3, 4):
            assert quantum_bound(build_functional(Kind.XI, 3, n)) == pytest.approx(
                3 * math.sqrt(3)
            )
        for n in (1, 2, 3):
            assert quantum_bound(build_functional(Kind.STAR, 2, n)) == pytest.approx(
                2 * SQ2
            )
