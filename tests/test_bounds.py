"""Bound chain: hand cases, equality conditions, brute-force oracle agreement."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsim import (
    BoundChain,
    BoundViolationError,
    DegenerateInputError,
    DenseVector,
    bound_chain,
    brute_force_rearrangement,
    dot,
    norm,
    rearrangement_bound,
)

component = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


def _chain_tuple(u, v):
    c = bound_chain(u, v)
    return (c.abs_dot, c.rearrangement, c.cauchy_schwarz, c.arithmetic_quadratic)


class TestHandCases:
    def test_two_one(self):
        assert _chain_tuple([1, 2], [2, 1]) == pytest.approx((4, 5, 5, 5), abs=1e-12)

    def test_scaled_pair(self):
        assert _chain_tuple([1, 2], [2, 4]) == pytest.approx((10, 10, 10, 12.5), abs=1e-12)

    def test_identical_unit(self):
        assert _chain_tuple([1, 0], [1, 0]) == pytest.approx((1, 1, 1, 1), abs=1e-12)

    def test_negative_dot_rearrangement(self):
        u, v = [1, 2, 3], [-3, -2, -1]
        assert dot(u, v) == -10.0
        assert rearrangement_bound(u, v) == pytest.approx(14.0, abs=1e-12)
        assert brute_force_rearrangement(u, v) == pytest.approx(14.0, abs=1e-12)

    def test_orthogonal_takes_larger_orientation(self):
        u, v = [1, 0], [0, 1]
        assert dot(u, v) == 0.0
        assert rearrangement_bound(u, v) == 1.0
        assert brute_force_rearrangement(u, v) == 1.0


class TestBoundChainType:
    def test_ordering_enforced(self):
        with pytest.raises(BoundViolationError):
            BoundChain(5.0, 4.0, 6.0, 7.0)
        with pytest.raises(BoundViolationError):
            BoundChain(1.0, 2.0, 3.0, 2.5)

    def test_tolerates_rounding_slack(self):
        BoundChain(1.0, 1.0 - 5e-10, 1.0, 1.0)

    LINKS = ("abs_dot", "rearrangement", "cauchy_schwarz", "arithmetic_quadratic")

    @pytest.mark.parametrize("link", range(3))
    @pytest.mark.parametrize("hi", [0.5, 1.0, 3.0, 1e12, -2.0])
    def test_each_link_and_its_tolerance(self, link, hi):
        # Every field below the link is -inf and every field above it +inf,
        # so only this link can fail.
        tol = 1e-9 * max(1.0, abs(hi))
        lo_name, hi_name = self.LINKS[link], self.LINKS[link + 1]
        for lo in (hi + 2 * tol, math.nextafter(hi + 1.01 * tol, math.inf)):
            fields = [-math.inf] * link + [lo, hi] + [math.inf] * (2 - link)
            message = f"bound ordering violated: {lo_name}={lo!r} > {hi_name}={hi!r}"
            with pytest.raises(BoundViolationError) as caught:
                BoundChain(*fields)
            assert str(caught.value) == message
        for lo in (hi + 0.5 * tol, hi + 0.99 * tol, math.nextafter(hi, math.inf)):
            fields = [-math.inf] * link + [lo, hi] + [math.inf] * (2 - link)
            assert list(dataclasses.astuple(BoundChain(*fields))) == fields

    @staticmethod
    def _by_links(fields):
        # Each link checked against the tolerance, the first failure raised.
        for (lo_name, lo), (hi_name, hi) in itertools.pairwise(zip(TestBoundChainType.LINKS, fields)):
            if lo > hi + 1e-9 * max(1.0, abs(hi)):
                return f"bound ordering violated: {lo_name}={lo!r} > {hi_name}={hi!r}"
        return None

    def test_non_finite_and_extreme_fields(self):
        values = [-math.inf, -1.0, -0.0, 0.0, 1.0, 1.0 + 5e-10, 2.0, 1e308, math.inf, math.nan]
        for fields in itertools.product(values, repeat=4):
            want = self._by_links(fields)
            try:
                BoundChain(*fields)
                got = None
            except BoundViolationError as exc:
                got = str(exc)
            assert got == want, fields

    def test_chain_is_frozen(self):
        c = BoundChain(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(AttributeError):
            c.abs_dot = 0.0


class TestChainOrdering:
    def test_seeded_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            d = int(rng.integers(1, 65))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            a, r, cs, am = _chain_tuple(u, v)
            assert a <= r + 1e-9 * max(1.0, r)
            assert r <= cs + 1e-9 * max(1.0, cs)
            assert cs <= am + 1e-9 * max(1.0, am)

    @given(
        st.integers(1, 12).flatmap(
            lambda d: st.tuples(
                st.lists(component, min_size=d, max_size=d),
                st.lists(component, min_size=d, max_size=d),
            )
        )
    )
    @settings(max_examples=200)
    def test_hypothesis_pairs(self, pair):
        u, v = pair
        a, r, cs, am = _chain_tuple(u, v)
        assert a <= r + 1e-9 * max(1.0, r)
        assert r <= cs + 1e-9 * max(1.0, cs)
        assert cs <= am + 1e-9 * max(1.0, am)


class TestEqualityConditions:
    def test_similarly_ordered_saturates_first_link(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            d = int(rng.integers(1, 33))
            u = np.abs(rng.standard_normal(d)) + 0.1
            v = u * 2.0 + 1.0
            c = bound_chain(u, v)
            assert c.abs_dot == pytest.approx(c.rearrangement, rel=1e-12)

    def test_oppositely_ordered_saturates_first_link(self):
        u = np.array([1.0, 2.0, 5.0])
        v = np.array([-1.0, -4.0, -9.0])
        c = bound_chain(u, v)
        assert c.abs_dot == pytest.approx(c.rearrangement, rel=1e-12)

    def test_scaled_permutation_saturates_second_link(self):
        rng = np.random.default_rng(41)
        for i in range(200):
            d = int(rng.integers(2, 33))
            u = np.abs(rng.standard_normal(d)) + 0.1
            pu = u[rng.permutation(d)]
            k = float(rng.uniform(0.25, 4.0)) * (1.0 if i % 2 else -1.0)
            v = k * pu
            c = bound_chain(u, v)
            assert c.rearrangement == pytest.approx(c.cauchy_schwarz, rel=1e-9)

    def test_generic_pair_keeps_second_link_strict(self):
        c = bound_chain([1.0, 2.0], [1.0, 3.0])
        # rearrangement 7, Cauchy-Schwarz sqrt(5*10) = 7.0710...
        assert c.rearrangement < c.cauchy_schwarz - 1e-3

    def test_equal_norms_saturate_third_link(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            d = int(rng.integers(1, 33))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            v = v * (norm(u) / norm(v))
            c = bound_chain(u, v)
            assert c.cauchy_schwarz == pytest.approx(c.arithmetic_quadratic, rel=1e-12)

    def test_unequal_norms_keep_third_link_strict(self):
        c = bound_chain([1.0, 2.0], [2.0, 4.0])
        assert c.cauchy_schwarz == pytest.approx(10.0, abs=1e-9)
        assert c.arithmetic_quadratic == pytest.approx(12.5, abs=1e-9)
        assert c.cauchy_schwarz < c.arithmetic_quadratic - 1.0

    def test_signed_permutation_saturates_am_link(self):
        rng = np.random.default_rng(47)
        for i in range(200):
            d = int(rng.integers(2, 33))
            u = np.abs(rng.standard_normal(d)) + 0.1
            v = u[rng.permutation(d)] * (1.0 if i % 2 else -1.0)
            c = bound_chain(u, v)
            assert c.rearrangement == pytest.approx(c.arithmetic_quadratic, rel=1e-9)


class TestBruteForce:
    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            brute_force_rearrangement(list(range(9)), list(range(9)))

    def test_dimension_cap_is_a_typed_error(self):
        with pytest.raises(DegenerateInputError, match="dimension <= 8, got 9"):
            brute_force_rearrangement(list(range(9)), list(range(9)))

    def test_exhaustive_agreement(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            d = int(rng.integers(2, 8))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            fast = rearrangement_bound(u, v)
            slow = brute_force_rearrangement(u, v)
            assert fast == pytest.approx(slow, abs=1e-9 * max(1.0, abs(slow)))

    def test_nonnegative_and_dominates_dot(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            b = brute_force_rearrangement(u, v)
            assert b >= 0.0
            assert abs(dot(u, v)) <= b + 1e-12

    def test_truly_exhaustive_on_small_case(self):
        u, v = [1.0, 2.0, 3.0], [1.0, 5.0, 2.0]
        best = max(
            abs(sum(x * y for x, y in zip(u, p)))
            for p in itertools.permutations(v)
        )
        assert brute_force_rearrangement(u, v) == pytest.approx(best, abs=1e-12)


class TestPermutationInvariance:
    def test_bound_invariant_under_shared_permutation(self):
        # A shared permutation preserves u.v, so the same orientation is
        # selected and the bound is unchanged.
        rng = np.random.default_rng(61)
        for _ in range(200):
            d = int(rng.integers(2, 33))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            p = rng.permutation(d)
            assert rearrangement_bound(u[p], v[p]) == pytest.approx(
                rearrangement_bound(u, v), rel=1e-12
            )

    def test_oriented_products_invariant_under_independent_permutations(self):
        # Independent permutations may flip sign(u.v) and hence which
        # orientation rearrangement_bound selects, but the two oriented
        # sorted products themselves only depend on the component multisets.
        rng = np.random.default_rng(71)
        for _ in range(200):
            d = int(rng.integers(2, 33))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            pu = u[rng.permutation(d)]
            pv = v[rng.permutation(d)]
            for a, b in ((u, v), (pu, pv)):
                same = abs(dot(np.sort(a), np.sort(b)))
                opposite = abs(dot(np.sort(a), np.sort(b)[::-1]))
                assert same == pytest.approx(
                    abs(dot(np.sort(u), np.sort(v))), rel=1e-12
                )
                assert opposite == pytest.approx(
                    abs(dot(np.sort(u), np.sort(v)[::-1])), rel=1e-12
                )

    def test_symmetry(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            d = int(rng.integers(1, 33))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            assert rearrangement_bound(u, v) == pytest.approx(
                rearrangement_bound(v, u), rel=1e-12
            )


class TestInputForms:
    @staticmethod
    def _bits(u, v):
        return [float.hex(x) for x in (*_chain_tuple(u, v), rearrangement_bound(u, v))]

    def test_every_form_gives_the_dense_vector_bits(self, form_pairs, vector_forms):
        for u, v in form_pairs:
            want = self._bits(DenseVector(u), DenseVector(v))
            fu, fv = vector_forms(u), vector_forms(v)
            for form in fu.keys() & fv.keys():
                assert self._bits(fu[form], fv[form]) == want, (form, u, v)
