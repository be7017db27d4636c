"""Metric kernels: golden values, algebraic properties, ordinal predicates."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordsim.metrics
from ordsim import (
    BoundChain,
    BoundViolationError,
    DegenerateInputError,
    DenseVector,
    DimensionMismatchError,
    InvalidVectorError,
    MetricKind,
    bound_chain,
    cosine,
    decos,
    decos_from_tanimoto,
    dot,
    is_oppositely_ordered,
    is_similarly_ordered,
    load_experts,
    norm,
    rearrangement_bound,
    recos,
    similarity,
    tanimoto,
)

# Golden values pinned by exact rational hand computation over the
# worked-example vectors (see tests/test_io.py for the fixture itself).
E1 = DenseVector([1, 5.5, 2, 4])
E2 = DenseVector([2, 6.0, 3, 5])
E3 = DenseVector([9, 4.5, 8, 6])
E4 = DenseVector([2, 5.5, 1, 4])
E5 = DenseVector([1.225, 6.7375, 2.45, 4.9])
E6 = DenseVector([1, 8.5, 2, 4])

RECOS_E1_E4 = 201 / 205          # 0.9804878048780488
COS_E1_E4 = 201 / 205
DECOS_E1_E4 = 201 / 205
DECOS_E1_E5 = 3920 / 4001        # 0.9797550612346914
COS_E1_E6 = 0.9800267825959529   # 67.75 / sqrt(51.25 * 93.25)

# Component pool keeps products within float range: zero or |x| in [1e-6, 1e6].
component = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@st.composite
def vector_pairs(draw, min_dim=1, max_dim=16, elements=component):
    d = draw(st.integers(min_dim, max_dim))
    u = draw(st.lists(elements, min_size=d, max_size=d))
    v = draw(st.lists(elements, min_size=d, max_size=d))
    return DenseVector(u), DenseVector(v)


int_component = st.integers(-5, 5).map(float)


class TestDenseVector:
    def test_basic_accessors(self):
        v = DenseVector([3.0, 1.0, 2.0])
        assert v.dim == 3
        assert len(v) == 3
        assert list(v) == [3.0, 1.0, 2.0]
        assert v[1] == 1.0

    def test_equality_and_hash(self):
        assert DenseVector([1, 2]) == DenseVector([1.0, 2.0])
        assert DenseVector([1, 2]) != DenseVector([2, 1])
        assert DenseVector([1, 2]) != [1, 2]
        assert hash(DenseVector([1, 2])) == hash(DenseVector([1.0, 2.0]))

    def test_signed_zeros_are_equal_and_hash_alike(self):
        plus, minus = DenseVector([0.0, 1.0]), DenseVector([-0.0, 1.0])
        assert plus == minus and hash(plus) == hash(minus)
        assert len({plus, minus}) == 1
        assert minus.components.tobytes() != plus.components.tobytes()  # kept as given

    def test_components_are_read_only(self):
        v = DenseVector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.components[0] = 9.0

    def test_does_not_alias_caller_array(self):
        arr = np.array([1.0, 2.0])
        v = DenseVector(arr)
        arr[0] = 9.0
        assert v[0] == 1.0

    @pytest.mark.parametrize(
        "bad",
        [[], [1.0, float("nan")], [float("inf")], np.zeros((2, 2)), ["a", "b"]],
    )
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(InvalidVectorError):
            DenseVector(bad)


class TestDotAndNorm:
    def test_dot_examples(self):
        assert dot([1, 0], [0, 1]) == 0.0
        assert dot(E1, E6) == 67.75
        assert dot([1, 2, 3], [1, 2, 3]) == 14.0

    def test_dot_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dot([1, 2], [1])

    def test_norm_examples(self):
        assert norm([3, 4]) == 5.0
        assert norm([0, 0, 0]) == 0.0
        assert norm(E1) == pytest.approx(math.sqrt(51.25), rel=1e-15)

    def test_norm_survives_subnormal_components(self):
        tiny = 5e-324
        n = norm([tiny, tiny])
        assert n > 0.0
        assert n == pytest.approx(tiny * math.sqrt(2.0), rel=1e-9)


class TestGoldenValues:
    def test_recos_goldens(self):
        assert recos(E1, E6) == 1.0
        assert recos(E1, E4) == pytest.approx(RECOS_E1_E4, abs=1e-12)

    def test_cosine_goldens(self):
        assert cosine(E1, E5) == pytest.approx(1.0, abs=1e-12)
        assert cosine(E1, E4) == pytest.approx(COS_E1_E4, abs=1e-12)
        assert cosine(E1, E6) == pytest.approx(COS_E1_E6, abs=1e-12)

    def test_decos_goldens(self):
        assert decos(E1, E5) == pytest.approx(DECOS_E1_E5, abs=1e-12)
        assert decos(E1, E4) == pytest.approx(DECOS_E1_E4, abs=1e-12)

    def test_goldens_round_to_098(self):
        for value in (
            recos(E1, E4),
            cosine(E1, E4),
            cosine(E1, E6),
            decos(E1, E4),
            decos(E1, E5),
        ):
            assert round(value, 2) == 0.98

    def test_fixture_file_matches_literals(self):
        experts = load_experts()
        assert experts["e1"] == E1
        assert experts["e4"] == E4
        assert experts["e5"] == E5
        assert experts["e6"] == E6


class TestRecos:
    def test_orthogonal_returns_exact_zero(self):
        assert recos([1, 0], [0, 1]) == 0.0
        assert recos([1, -1], [1, 1]) == 0.0

    def test_zero_vector_returns_zero(self):
        assert recos([0, 0], [1, 2]) == 0.0

    def test_trivial_cases(self):
        assert recos([1, 2], [1, 2]) == pytest.approx(1.0, abs=1e-12)
        assert recos([1, 2], [-1, -2]) == pytest.approx(-1.0, abs=1e-12)
        assert recos([1, 2], [2, 1]) == pytest.approx(4 / 5, abs=1e-12)

    def test_negative_dot_uses_opposing_sort(self):
        # u.v < 0: denominator is sort_asc(u) . sort_desc(v).
        u, v = [1, 2, 3], [-3, -2, -1]
        assert recos(u, v) == pytest.approx(-10 / 14, abs=1e-12)

    def test_reference_variant_equivalence(self):
        # The descending-u-against-ascending-v denominator is the same bound.
        def reference(u, v):
            a = np.asarray(u, dtype=np.float64)
            b = np.asarray(v, dtype=np.float64)
            d = float(np.dot(a, b))
            if d >= 0.0:
                den = float(np.dot(np.sort(a), np.sort(b)))
            else:
                den = float(np.dot(np.sort(a)[::-1], np.sort(b)))
            den = abs(den)
            if den == 0.0:
                den = 1e-6
            return float(np.clip(d / den, -1.0, 1.0))

        rng = np.random.default_rng(2024)
        for _ in range(500):
            d = int(rng.integers(1, 33))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            if float(np.dot(u, v)) > 0.0:
                v = -v  # exercise the negative-dot branch
            assert recos(u, v) == pytest.approx(reference(u, v), abs=1e-12)

    def test_cancelled_denominator_stays_in_range(self):
        # u.v is 1.0 but the sorted product can cancel to 0.0: then the
        # zero-denominator guard decides the value, which must still be in range.
        r = recos([1e16, -1e16, 1.0], [1.0, 1.0, 1.0])
        assert -1.0 <= r <= 1.0

    @given(vector_pairs())
    @settings(max_examples=200)
    def test_symmetry(self, pair):
        u, v = pair
        assert recos(u, v) == pytest.approx(recos(v, u), abs=1e-12)

    @given(vector_pairs())
    @settings(max_examples=200)
    def test_range(self, pair):
        u, v = pair
        assert -1.0 <= recos(u, v) <= 1.0

    @given(vector_pairs())
    @settings(max_examples=200)
    def test_sign_matches_dot(self, pair):
        u, v = pair
        d = dot(u, v)
        r = recos(u, v)
        if d > 0:
            assert r > 0
        elif d < 0:
            assert r < 0
        else:
            assert r == 0.0

    @given(
        vector_pairs(),
        st.floats(0.001, 1000.0),
        st.floats(0.001, 1000.0),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_scale_behavior(self, pair, a, b, neg_a, neg_b):
        u, v = pair
        a = -a if neg_a else a
        b = -b if neg_b else b
        scaled = recos(a * u.components, b * v.components)
        expected = math.copysign(1.0, a * b) * recos(u, v)
        assert scaled == pytest.approx(expected, abs=1e-12)

    @given(st.lists(component.filter(lambda x: x != 0.0), min_size=1, max_size=16))
    @settings(max_examples=200)
    def test_self_similarity(self, comps):
        u = DenseVector(comps)
        assert recos(u, u) == pytest.approx(1.0, abs=1e-12)


class TestCosine:
    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine([0, 0], [1, 2])
        with pytest.raises(DegenerateInputError):
            cosine([1, 2], [0, 0])

    def test_trivial(self):
        assert cosine([1, 2], [1, 2]) == pytest.approx(1.0, abs=1e-12)
        assert cosine([1, 0], [0, 1]) == 0.0
        assert cosine([1, 2], [-1, -2]) == pytest.approx(-1.0, abs=1e-12)

    @given(vector_pairs())
    @settings(max_examples=200)
    def test_symmetry_range_and_sign(self, pair):
        u, v = pair
        if norm(u) == 0.0 or norm(v) == 0.0:
            with pytest.raises(DegenerateInputError):
                cosine(u, v)
            return
        c = cosine(u, v)
        assert c == cosine(v, u)
        assert -1.0 <= c <= 1.0
        d = dot(u, v)
        assert (c > 0) == (d > 0) and (c < 0) == (d < 0)


class TestDecos:
    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            decos([0, 0], [0.0, 0.0])

    def test_one_zero_allowed(self):
        assert decos([0, 0], [1, 2]) == 0.0

    def test_the_smallest_subnormal_squared_norm_divides(self):
        # |u|^2 rounds to 5e-324, whose half rounds to 0.0; the true value is 0.
        assert decos([2.2e-162], [0.0]) == 0.0
        assert decos([0.0], [2.2e-162]) == 0.0

    def test_self_similarity_exact(self):
        assert decos([3.7, -1.2], [3.7, -1.2]) == 1.0
        assert decos([3.7, -1.2], [-3.7, 1.2]) == -1.0

    def test_norm_identity_after_unit_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(1, 65))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            un = u / np.linalg.norm(u)
            vn = v / np.linalg.norm(v)
            assert decos(un, vn) == pytest.approx(cosine(un, vn), abs=1e-12)

    @given(vector_pairs())
    @settings(max_examples=200)
    def test_symmetry_and_range(self, pair):
        u, v = pair
        if norm(u) == 0.0 and norm(v) == 0.0:
            return
        value = decos(u, v)
        assert value == decos(v, u)
        assert -1.0 <= value <= 1.0


class TestTanimoto:
    def test_not_clipped_below_minus_one_third(self):
        assert tanimoto([1, 2], [-1, -2]) == pytest.approx(-1 / 3, abs=1e-15)

    def test_self_similarity_exact(self):
        assert tanimoto([2.5, -1.0], [2.5, -1.0]) == 1.0

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            tanimoto([0.0], [0.0])

    def test_bijection_on_positive_dot_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(1, 65))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            if float(np.dot(u, v)) < 0.0:
                v = -v
            if float(np.dot(u, v)) == 0.0:
                continue
            t = tanimoto(u, v)
            assert 0.0 <= t <= 1.0
            assert decos(u, v) == pytest.approx(decos_from_tanimoto(t), abs=1e-12)


class TestDecosFromTanimoto:
    def test_examples(self):
        assert decos_from_tanimoto(0.0) == 0.0
        assert decos_from_tanimoto(1.0) == 1.0
        assert decos_from_tanimoto(1 / 3) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, -1.0, 2.0])
    def test_domain_enforced(self, bad):
        with pytest.raises(DegenerateInputError):
            decos_from_tanimoto(bad)

    @pytest.mark.parametrize("bad", ["x", "", None, [0.5]])
    def test_a_value_that_is_not_a_number_is_a_typed_error(self, bad):
        with pytest.raises(DegenerateInputError) as err:
            decos_from_tanimoto(bad)
        assert str(err.value) == f"tanimoto value is not a number: {bad!r}"

    @given(st.floats(0.0, 1.0))
    def test_monotone_into_unit_interval(self, t):
        y = decos_from_tanimoto(t)
        assert 0.0 <= y <= 1.0


class TestHierarchy:
    def test_on_seeded_pairs(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 500:
            d = int(rng.integers(1, 65))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            if float(np.dot(u, v)) == 0.0:
                continue
            lo = abs(decos(u, v))
            mid = abs(cosine(u, v))
            hi = abs(recos(u, v))
            assert lo <= mid + 1e-9
            assert mid <= hi + 1e-9
            checked += 1


def _clip_reference(x):
    return float(min(1.0, max(-1.0, x)))


class TestClipUnit:
    """``_clip_unit`` gives the bits of the builtin min/max clip it replaced."""

    EDGES = [
        0.0, -0.0, 1.0, -1.0,
        math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
        math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0),
        math.inf, -math.inf, math.nan,
        5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
        2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    ]

    @pytest.mark.parametrize("x", EDGES, ids=float.hex)
    def test_edge_values(self, x):
        got = ordsim.metrics._clip_unit(x)
        assert type(got) is float
        assert float.hex(got) == float.hex(_clip_reference(x))

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @settings(max_examples=500, deadline=None)
    def test_any_float(self, x):
        assert float.hex(ordsim.metrics._clip_unit(x)) == float.hex(_clip_reference(x))


class TestSimilarityDispatch:
    def test_matches_direct_calls(self):
        u, v = [1, 5.5, 2, 4], [1, 8.5, 2, 4]
        assert similarity(MetricKind.RECOS, u, v) == recos(u, v)
        assert similarity("cos", u, v) == cosine(u, v)
        assert similarity("decos", u, v) == decos(u, v)
        assert similarity("tanimoto", u, v) == tanimoto(u, v)

    def test_metric_kind_round_trip(self):
        for kind in MetricKind:
            assert MetricKind(kind.value) is kind
        with pytest.raises(ValueError):
            MetricKind("euclid")

    @pytest.mark.parametrize("bad", ["euclid", "COS", "", None, ["cos"]])
    def test_unknown_kind_is_a_typed_error(self, bad):
        message = f"unknown metric kind {bad!r}; expected one of recos, cos, decos, tanimoto"
        for call in (lambda: MetricKind(bad), lambda: similarity(bad, [1.0, 2.0], [2.0, 1.0])):
            with pytest.raises(DegenerateInputError) as err:
                call()
            assert str(err.value) == message


def _order(x, y):
    """The sign of x - y, by comparison, so that no difference can overflow."""
    return (x > y) - (x < y)


def _brute_similar(u, v):
    n = len(u)
    return all(
        _order(u[i], u[j]) * _order(v[i], v[j]) >= 0 for i in range(n) for j in range(n)
    )


def _brute_opposite(u, v):
    n = len(u)
    return all(
        _order(u[i], u[j]) * _order(v[i], v[j]) <= 0 for i in range(n) for j in range(n)
    )


# Signed zeros, the smallest subnormals and values near the largest double,
# drawn from few values so that ties are common.
_edge_order_component = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 5.0, -5.0, 5e-324,
                                         -5e-324, 1e308, -1e308])


class TestOrdinalPredicates:
    def test_worked_examples(self):
        assert is_similarly_ordered(E1, E2)
        assert not is_similarly_ordered(E1, E3)
        assert is_similarly_ordered(E1, E6)
        assert is_oppositely_ordered(E1, [-x for x in E2])

    def test_ties_allowed(self):
        assert is_similarly_ordered([1, 1, 2], [3, 5, 7])
        assert not is_similarly_ordered([1, 1, 2], [5, 3, 4])
        assert is_similarly_ordered([1, 2], [7, 7])

    def test_single_component(self):
        assert is_similarly_ordered([4], [9])
        assert is_oppositely_ordered([4], [9])

    @given(
        st.tuples(st.integers(1, 8), st.sampled_from([int_component, _edge_order_component]))
        .flatmap(
            lambda dc: st.tuples(
                st.lists(dc[1], min_size=dc[0], max_size=dc[0]),
                st.lists(dc[1], min_size=dc[0], max_size=dc[0]),
            )
        )
    )
    @settings(max_examples=300)
    def test_matches_quadratic_oracle(self, pair):
        u, v = pair
        assert is_similarly_ordered(u, v) == _brute_similar(u, v)
        assert is_oppositely_ordered(u, v) == _brute_opposite(u, v)

    @given(
        st.integers(1, 8).flatmap(
            lambda d: st.tuples(
                st.lists(int_component, min_size=d, max_size=d),
                st.lists(int_component, min_size=d, max_size=d),
            )
        )
    )
    @settings(max_examples=200)
    def test_duality(self, pair):
        u, v = pair
        negated = [-x for x in v]
        assert is_similarly_ordered(u, v) == is_oppositely_ordered(u, negated)

    def test_random_floats_with_ties_match_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            u = np.round(rng.standard_normal(d), 1)
            v = np.round(rng.standard_normal(d), 1)
            assert is_similarly_ordered(u, v) == _brute_similar(u.tolist(), v.tolist())
            assert is_oppositely_ordered(u, v) == _brute_opposite(u.tolist(), v.tolist())

    def test_an_overflowing_dot_is_not_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_similarly_ordered([1e308, 1.0], [1e308, 1.0])
            assert is_oppositely_ordered([1e308, 1.0], [-1e308, -1.0])

    def test_the_callers_errstate_changes_nothing(self):
        with np.errstate(all="raise"):
            assert not is_similarly_ordered([1e200, 2e200], [3e200, 1e200])
            assert is_oppositely_ordered([1e200, 2e200], [3e200, 1e200])
            assert is_similarly_ordered([1e-200, 2e-200], [1e-200, 3e-200])
        with np.errstate(all="raise"), pytest.raises(DimensionMismatchError):
            is_oppositely_ordered([1e200, 2e200], [3e200])

    def test_similarly_ordered_implies_recos_saturation(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(1, 33))
            u = np.abs(rng.standard_normal(d)) + 0.1
            v = np.exp(u * 0.5)
            assert is_similarly_ordered(u, v)
            assert recos(u, v) == pytest.approx(1.0, abs=1e-9)
            assert recos(u, -v) == pytest.approx(-1.0, abs=1e-9)


class TestDimensionMismatch:
    @pytest.mark.parametrize("func", [recos, cosine, decos, tanimoto, is_similarly_ordered])
    def test_rejected(self, func):
        with pytest.raises(DimensionMismatchError):
            func([1, 2], [1, 2, 3])


PAIR_FUNCS = [
    recos,
    cosine,
    decos,
    tanimoto,
    dot,
    bound_chain,
    rearrangement_bound,
    is_similarly_ordered,
    is_oppositely_ordered,
]


def bits(value):
    """A float result as its exact bits; a bool as itself."""
    return value if isinstance(value, bool) else float.hex(value)


class TestInputForms:
    METRIC_FUNCS = [
        recos, cosine, decos, tanimoto, dot, is_similarly_ordered, is_oppositely_ordered
    ]

    def test_every_form_gives_the_dense_vector_bits(self, form_pairs, vector_forms):
        for u, v in form_pairs:
            du, dv = DenseVector(u), DenseVector(v)
            want = [bits(f(du, dv)) for f in self.METRIC_FUNCS] + [bits(norm(du))]
            fu, fv = vector_forms(u), vector_forms(v)
            for form in fu.keys() & fv.keys():
                a, b = fu[form], fv[form]
                got = [bits(f(a, b)) for f in self.METRIC_FUNCS] + [bits(norm(a))]
                assert got == want, (form, u, v)
                assert bits(recos(a, dv)) == want[0], (form, u, v)

    def test_caller_arrays_are_not_written(self, form_pairs, vector_forms):
        for u, v in form_pairs:
            fu, fv = vector_forms(u), vector_forms(v)
            for form in ("ndarray", "strided", "column", "reversed", "float32", "byteswapped", "subclass"):
                a, b = fu[form], fv[form]
                before = (a.copy(), b.copy())
                for f in PAIR_FUNCS:
                    f(a, b)
                norm(a)
                assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])

    def test_plain_float64_arrays_are_used_as_they_are(self, vector_forms):
        # Exactly the forms that need no cast are returned as they are; the
        # others come back as a new array of the same values.
        x = np.array([1.0, -2.0, 4.0, 3.0])
        as_is = {"ndarray", "readonly", "unaligned"}
        forms = vector_forms(x)
        assert as_is < forms.keys()
        for form, value in forms.items():
            arr = ordsim.metrics._operand(value)
            assert (arr is value) == (form in as_is), form
            assert type(arr) is np.ndarray and arr.dtype == np.float64, form
            assert arr.flags.c_contiguous and np.array_equal(arr, x), form

    @pytest.mark.parametrize("scalar", [3.0, 4, np.float64(2.0), np.array(5.0)])
    def test_zero_d_input_rejected(self, scalar):
        for f in PAIR_FUNCS:
            with pytest.raises(InvalidVectorError, match="1-d"):
                f(scalar, scalar)
        with pytest.raises(InvalidVectorError, match="1-d"):
            norm(scalar)

    def test_arrays_are_scored_without_dense_vectors(self, monkeypatch):
        built = []
        post_init = DenseVector.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(DenseVector, "__post_init__", counting)
        DenseVector([1.0])
        assert len(built) == 1
        built.clear()
        u = np.array([1.0, -2.0, 3.0])
        v = np.array([2.0, 0.5, 1.0])
        for f in PAIR_FUNCS:
            f(u, v)
        norm(u)
        assert built == []

    def test_clean_pairs_skip_the_full_check(self, monkeypatch):
        checked = []
        full_check = ordsim.metrics._vector

        def counting(value):
            checked.append(value)
            return full_check(value)

        u = np.array([1.0, -2.0, 3.0])
        v = np.array([2.0, 0.5, 1.0])
        du, dv = DenseVector(u), DenseVector(v)
        nan = np.array([1.0, np.nan, 3.0])
        huge = np.array([1e200, 2e200, 1.0])
        monkeypatch.setattr(ordsim.metrics, "_vector", counting)
        for a, b in ((u, v), (du, dv), (u, dv), (u.tolist(), v.tolist())):
            for f in PAIR_FUNCS:
                f(a, b)
        assert checked == []
        for f in PAIR_FUNCS:
            checked.clear()
            with pytest.raises(InvalidVectorError):
                f(u, nan)
            assert [id(x) for x in checked] == [id(u), id(nan)], f
            checked.clear()
            f(huge, huge)  # a finite pair whose dot overflows
            assert len(checked) == 2, f

    def test_an_overflowing_dot_is_taken_once(self):
        # The full checks pass on this pair, and the fast path's dot stands:
        # the dot is not taken again, so numpy warns about it once.  The
        # ordinal predicates read no dot and take it with numpy's warnings off.
        lines, first = inspect.getsourcelines(ordsim.metrics._pair)
        in_pair = range(first, first + len(lines))
        huge = np.array([1e200, 2e200])
        for f in PAIR_FUNCS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome(f, huge, huge)
            from_pair = [
                w for w in caught
                if w.filename == ordsim.metrics.__file__ and w.lineno in in_pair
            ]
            quiet = f in (is_similarly_ordered, is_oppositely_ordered)
            assert len(from_pair) == (0 if quiet else 1), f


FINITE_MESSAGE = "vector components must be finite"
MALFORMED = {
    "non-numeric": (["a", "b", "c"], "not a numeric vector: could not convert string to float: 'a'"),
    "0-d": (2.0, "expected a 1-d vector, got shape ()"),
    "2-d": ([[1.0, 2.0, 3.0]], "expected a 1-d vector, got shape (1, 3)"),
    "empty": ([], "vector must have at least one component"),
}

# (x, sign) -> results of PAIR_FUNCS on (x, sign * x), in order: float.hex of
# a float, a bool, the hex of BoundChain's four fields, or (exception type, message).
_INF, _NEG1, _NAN = "inf", "-0x1.0000000000000p+0", "nan"
_CHAIN_INF = (_INF,) * 4
EDGE_RESULTS = {
    ((1e200, 2e200), 1): (_NEG1, _NEG1, _NEG1, _NAN, _INF, _CHAIN_INF, _INF, True, False),
    ((1e200, 2e200), -1): (_NEG1, _NEG1, _NEG1, _NAN, "-inf", _CHAIN_INF, _INF, False, True),
    ((1e154, 1e154), 1): (_NEG1, _NEG1, _NEG1, _NAN, _INF, _CHAIN_INF, _INF, True, True),
    ((1e154, 1e154), -1): (_NEG1, _NEG1, _NEG1, _NAN, "-inf", _CHAIN_INF, _INF, True, True),
    ((1e308, -1e308), 1): (_NEG1, _NEG1, _NEG1, _NAN, _INF, _CHAIN_INF, _INF, True, False),
    ((1e308, -1e308), -1): (_NEG1, _NEG1, _NEG1, _NAN, "-inf", _CHAIN_INF, _INF, False, True),
}
for _sign in (1, -1):
    EDGE_RESULTS[((1e-170, 1e-170), _sign)] = (
        "0x0.0p+0",
        ("ZeroDivisionError", "float division by zero"),
        ("DegenerateInputError", "decos is undefined when both vectors are zero"),
        ("DegenerateInputError", "tanimoto is undefined when both vectors are zero"),
        "0x0.0p+0",
        ("0x0.0p+0",) * 4,
        "0x0.0p+0",
        True,
        True,
    )


def outcome(f, u, v):
    """f(u, v) as exact bits, or the type name and message of what it raised."""
    try:
        value = f(u, v)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, BoundChain):
        return tuple(float.hex(x) for x in dataclasses.astuple(value))
    return bits(value)


class TestErrorsAndEdgeValues:
    """Every rejection's type and message, and the exact results on pairs
    whose dot overflows or underflows, for every pair function and form."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["u", "v", "both", "u, v shorter", "v, u shorter", "u, v longer"])
    def test_non_finite_operand(self, vector_forms, bad, where):
        ok = np.array([1.0, -2.0, 3.0])
        x = ok.copy()
        x[1] = bad
        u, v = {
            "u": (x, ok),
            "v": (ok, x),
            "both": (x, x),
            "u, v shorter": (x, ok[:2]),
            "v, u shorter": (ok[:2], x),
            "u, v longer": (x, np.append(ok, 1.0)),
        }[where]
        fu, fv = vector_forms(u), vector_forms(v)
        for form in fu.keys() & fv.keys():
            for f in PAIR_FUNCS:
                assert outcome(f, fu[form], fv[form]) == ("InvalidVectorError", FINITE_MESSAGE)

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_malformed_operand_next_to_a_non_finite_one(self, vector_forms, kind):
        malformed, message = MALFORMED[kind]
        forms = vector_forms(np.array([1.0, np.nan, 3.0]))
        for x in forms.values():
            for f in PAIR_FUNCS:
                assert outcome(f, x, malformed) == ("InvalidVectorError", FINITE_MESSAGE)
                assert outcome(f, malformed, x) == ("InvalidVectorError", message)

    @pytest.mark.parametrize("pair", EDGE_RESULTS, ids=lambda p: f"{p[0]}*{p[1]}")
    def test_overflow_and_underflow_results(self, pair):
        (x, sign), want = pair, EDGE_RESULTS[pair]
        u = np.array(x)
        for form in (np.array, list, DenseVector):
            got = tuple(outcome(f, form(u), form(sign * u)) for f in PAIR_FUNCS)
            assert got == want, form


# Components across the float64 range: zero, subnormals, the extremes, and
# m * 10**e with |m| < 10 and |e| <= 300.
wide_component = st.one_of(
    st.just(0.0),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([5e-324, -5e-324, 1e308, -1e308]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-300, 300)),
)


@st.composite
def wide_pairs(draw):
    d = draw(st.integers(1, 12))
    u = draw(st.lists(wide_component, min_size=d, max_size=d))
    v = draw(st.one_of(
        st.lists(wide_component, min_size=d, max_size=d),
        st.sampled_from([0.0, 5e-324, 1e308, -1e308]).map(lambda c: [c] * d),
    ))
    return np.array(u), np.array(v)


class TestFiniteCertificate:
    """A pair is accepted exactly when all its components are finite,
    whatever the magnitudes of the components."""

    @given(wide_pairs())
    @settings(max_examples=300, deadline=None)
    def test_finite_pairs_are_never_rejected_as_invalid(self, pair):
        u, v = pair
        for a, b in ((u, v), (v, u)):
            for f in PAIR_FUNCS:
                try:
                    f(a, b)
                except InvalidVectorError as exc:
                    pytest.fail(f"{f.__name__}({a!r}, {b!r}) raised {exc!r}")
                except (ArithmeticError, BoundViolationError, DegenerateInputError):
                    pass

    @given(wide_pairs(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_non_finite_component_is_always_rejected(self, pair, bad, data):
        u, v = pair
        target = (u, v)[data.draw(st.integers(0, 1))]
        target[data.draw(st.integers(0, target.size - 1))] = bad
        for f in PAIR_FUNCS:
            for a, b in ((u, v), (v, u)):
                assert outcome(f, a, b) == ("InvalidVectorError", FINITE_MESSAGE)
