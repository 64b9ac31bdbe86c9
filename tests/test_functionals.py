import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbell import functionals as fn
from netbell import serialize
from netbell.errors import (
    DimensionMismatch,
    InvalidScenario,
    MissingObservable,
    OutOfRange,
    SearchSpaceTooLarge,
)
from netbell.functionals import (
    Kind,
    ObservableAssignment,
    build_functional,
    build_sign_table,
    classical_bound,
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
        assert build_sign_table(2) == ((1, 1), (1, -1))

    def test_m3_first_row_all_plus(self):
        rows = build_sign_table(3)
        assert len(rows) == 4
        assert rows[0] == (1, 1, 1)

    def test_m3_row4_binary_order(self):
        # Row 4 encodes the bit string 011 (integer 3 on the trailing bits).
        assert build_sign_table(3)[3] == (1, -1, -1)

    def test_rows_distinct_and_first_entry_plus(self):
        for m in (2, 3, 4, 5):
            rows = build_sign_table(m)
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
        assert f.coefficients.tolist() == [[1, 1], [1, -1]]

    def test_xi_3_2_terms(self):
        f = build_functional(Kind.XI, 3, 2)
        assert f.combiner == fn.ROOT_SUM and f.n == 2
        expected = [(1, 1, 0), (0, 1, 1), (-1, 0, 1)]
        assert f.n_terms == len(expected)
        for i, row in enumerate(expected):
            assert f.coefficients[i].tolist() == list(row)

    def test_delta_m2_matches_star(self):
        for n in (2, 3):
            assert np.array_equal(
                build_functional(Kind.DELTA, 2, n).coefficients,
                build_functional(Kind.STAR, 2, n).coefficients,
            )

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

    def test_json_with_swapped_central_inputs(self):
        data = serialize.functional_to_json(build_functional(Kind.CHSH, 2, 1))
        for term, x in zip(data["terms"], (1, 0)):
            term["central_input"] = x
        with pytest.raises(InvalidScenario, match="functional.terms"):
            serialize.functional_from_json(data)

    @pytest.mark.parametrize(
        "kind,m,n,size",
        [(Kind.GM, 16, 1, 2**19), (Kind.DELTA, 16, 2, 2**20), (Kind.CHAINED, 1024, 1, 2**20)],
    )
    def test_table_within_budget_builds(self, kind, m, n, size):
        f = build_functional(kind, m, n)
        assert f.parties * f.coefficients.size == size

    @pytest.mark.parametrize(
        "kind,m,n",
        [(Kind.DELTA, 16, 3), (Kind.CHAINED, 1025, 1), (Kind.XI, 2, 2**18 + 1)],
    )
    def test_table_over_budget_refused(self, kind, m, n):
        with pytest.raises(SearchSpaceTooLarge, match=str(fn.TABLE_BUDGET)):
            build_functional(kind, m, n)

    def test_sign_table_range_checked_before_budget(self):
        with pytest.raises(OutOfRange):
            build_functional(Kind.GM, 17, 1)
        with pytest.raises(OutOfRange):
            build_functional(Kind.DELTA, 10**9, 10**9)


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
        assert correlators == pytest.approx((SQ2, SQ2))

    def test_bilocal_optimum(self):
        f = build_functional(Kind.BILOCAL, 2, 2)
        psi = network_product_state([PHI_PLUS, PHI_PLUS])
        value, correlators = eval_functional(f, psi, bilocal_assignment())
        assert value == pytest.approx(2 * SQ2, abs=1e-12)
        assert correlators == pytest.approx((2.0, 2.0))

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
        for i, value in enumerate(correlators):
            ceiling = np.abs(f.coefficients[i]).sum() ** f.parties
            assert abs(value) <= ceiling + 1e-12

    def test_all_zero_signed_sum(self):
        # Equal settings cancel in chsh's second term, A_0 - A_1 = 0.
        f = build_functional(Kind.CHSH, 2, 1)
        y1, y2 = diag_obs()
        same = ObservableAssignment(edge=((Observable(SIGMA_Z),) * 2,), central=(y1, y2))
        _, correlators = eval_functional(f, SINGLET, same)
        assert correlators[1] == 0.0

    def test_dimension_mismatch(self):
        f = build_functional(Kind.CHSH, 2, 1)
        wide = Observable(np.kron(SIGMA_Z, SIGMA_X))
        broken = ObservableAssignment(edge=chsh_assignment().edge, central=(wide, wide))
        with pytest.raises(DimensionMismatch, match="central party observable 0"):
            eval_functional(f, SINGLET, broken)

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
        assert c.shape == (f.n_terms, m)
        assert c.dtype == float
        rows = fn._chained_signs(m) if kind in (Kind.CHAINED, Kind.XI) else build_sign_table(m)
        assert c.tolist() == [list(row) for row in rows]
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 2.0

    @pytest.mark.parametrize(
        "mutate",
        [_ragged_row, _extra_party_in_one_term, _extra_party_in_every_term, _m_disagrees],
    )
    def test_json_refuses_ragged_or_missized_tables(self, mutate):
        data = serialize.functional_to_json(build_functional(Kind.XI, 3, 2))
        mutate(data)
        with pytest.raises(InvalidScenario, match="functional.terms"):
            serialize.functional_from_json(data)

    @pytest.mark.parametrize(
        "kind,m,n,key,value,match",
        [
            (Kind.CHSH, 2, 1, "combiner", "bogus", "functional.combiner"),
            (Kind.CHSH, 2, 1, "combiner", "root_sum", "functional.combiner"),
            (Kind.BILOCAL, 2, 2, "combiner", "linear", "functional.combiner"),
            (Kind.XI, 3, 2, "terms", [], "functional.terms"),
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
        with pytest.raises(InvalidScenario, match="functional.terms"):
            serialize.functional_from_json(data)


GOLDEN_JSON = {
    (Kind.CHSH, 2, 1): (
        '{"combiner": "linear", "kind": "chsh", "m": 2, "n": 1, "terms": ['
        '{"central_input": 0, "signs": [[1, 1]]}, '
        '{"central_input": 1, "signs": [[1, -1]]}]}'
    ),
    (Kind.XI, 3, 2): (
        '{"combiner": "root_sum", "kind": "xi", "m": 3, "n": 2, "terms": ['
        '{"central_input": 0, "signs": [[1, 1, 0], [1, 1, 0]]}, '
        '{"central_input": 1, "signs": [[0, 1, 1], [0, 1, 1]]}, '
        '{"central_input": 2, "signs": [[-1, 0, 1], [-1, 0, 1]]}]}'
    ),
    (Kind.STAR, 2, 3): (
        '{"combiner": "root_sum", "kind": "star", "m": 2, "n": 3, "terms": ['
        '{"central_input": 0, "signs": [[1, 1], [1, 1], [1, 1]]}, '
        '{"central_input": 1, "signs": [[1, -1], [1, -1], [1, -1]]}]}'
    ),
    (Kind.DELTA, 3, 2): (
        '{"combiner": "root_sum", "kind": "delta", "m": 3, "n": 2, "terms": ['
        '{"central_input": 0, "signs": [[1, 1, 1], [1, 1, 1]]}, '
        '{"central_input": 1, "signs": [[1, 1, -1], [1, 1, -1]]}, '
        '{"central_input": 2, "signs": [[1, -1, 1], [1, -1, 1]]}, '
        '{"central_input": 3, "signs": [[1, -1, -1], [1, -1, -1]]}]}'
    ),
}


@st.composite
def admissible_functionals(draw):
    kind = draw(st.sampled_from(list(Kind)))
    m = 2 if kind in (Kind.CHSH, Kind.BILOCAL, Kind.STAR) else draw(st.integers(2, 6))
    if kind in fn.BIPARTITE_KINDS:
        n = 1
    else:
        n = 2 if kind is Kind.BILOCAL else draw(st.integers(1, 5))
    return build_functional(kind, m, n)


class TestJson:
    @pytest.mark.parametrize("key", list(GOLDEN_JSON), ids=lambda k: k[0].value)
    def test_golden_document(self, key):
        doc = serialize.functional_to_json(build_functional(*key))
        assert json.dumps(doc, sort_keys=True) == GOLDEN_JSON[key]

    @pytest.mark.parametrize("field", ["m", "n"])
    @pytest.mark.parametrize("value", [2.7, "3", True], ids=["float", "string", "bool"])
    def test_non_integer_m_or_n_refused(self, field, value):
        data = serialize.functional_to_json(build_functional(Kind.CHSH, 2, 1))
        data[field] = value
        with pytest.raises(InvalidScenario, match=f"functional.{field}: must be an integer"):
            serialize.functional_from_json(data)

    @pytest.mark.parametrize("sign", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_sign_refused(self, sign):
        data = serialize.functional_to_json(build_functional(Kind.CHSH, 2, 1))
        data["terms"][0]["signs"][0][0] = sign
        with pytest.raises(InvalidScenario, match="functional.terms"):
            serialize.functional_from_json(data)

    @settings(max_examples=60, deadline=None)
    @given(f=admissible_functionals(), data=st.data())
    def test_round_trip_and_single_edits_refused(self, f, data):
        doc = serialize.functional_to_json(f)
        back = serialize.functional_from_json(json.loads(json.dumps(doc)))
        assert back == f
        assert np.array_equal(back.coefficients, f.coefficients)

        flipped = json.loads(json.dumps(doc))
        i, x = data.draw(st.sampled_from(np.argwhere(f.coefficients != 0).tolist()))
        k = data.draw(st.integers(0, f.parties - 1))
        flipped["terms"][i]["signs"][k][x] *= -1
        with pytest.raises(InvalidScenario, match="functional.terms"):
            serialize.functional_from_json(flipped)

        moved = json.loads(json.dumps(doc))
        i = data.draw(st.integers(0, f.n_terms - 1))
        shift = data.draw(st.integers(1, f.n_terms - 1))
        moved["terms"][i]["central_input"] = (i + shift) % f.n_terms
        with pytest.raises(InvalidScenario, match="functional.terms"):
            serialize.functional_from_json(moved)


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
