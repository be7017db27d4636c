"""Ranking and Spearman correlation against independent oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsim import DegenerateInputError, InvalidVectorError, average_ranks, spearman_rho
from ordsim.ranks import _centered_ranks


def _ranks_quadratic(xs):
    # Independent O(n^2) fractional ranking.
    out = []
    for xi in xs:
        less = sum(1 for x in xs if x < xi)
        equal = sum(1 for x in xs if x == xi)
        out.append(less + (equal + 1) / 2)
    return out


def _stable_sort_ranks(xs):
    # Reference ranker: a stable sort, with tie groups built on every call.
    arr = np.asarray(xs, dtype=np.float64)
    n = arr.size
    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    boundaries = np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
    starts = np.flatnonzero(boundaries)
    counts = np.diff(np.append(starts, n))
    group_rank = starts + (counts + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = group_rank[np.cumsum(boundaries) - 1]
    return ranks


def _stable_sort_centered_ranks(xs):
    # Reference ``_centered_ranks``: the ranks above minus their mean.
    r = _stable_sort_ranks(xs)
    dr = r - r.mean()
    return dr, float(np.dot(dr, dr))


def _pearson_fsum(a, b):
    # Independent Pearson correlation with compensated summation.
    n = len(a)
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    num = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = math.fsum((x - ma) ** 2 for x in a)
    db = math.fsum((y - mb) ** 2 for y in b)
    return num / math.sqrt(da * db)


def _spearman_oracle(x, y):
    return _pearson_fsum(_ranks_quadratic(x), _ranks_quadratic(y))


values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
# Every finite float64, subnormals included.
finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


class TestAverageRanks:
    def test_example_with_ties(self):
        assert average_ranks([3, 1, 4, 1]).tolist() == [3.0, 1.5, 4.0, 1.5]

    def test_all_tied(self):
        assert average_ranks([7, 7, 7]).tolist() == [2.0, 2.0, 2.0]

    def test_strictly_increasing(self):
        assert average_ranks([10, 20, 30]).tolist() == [1.0, 2.0, 3.0]

    def test_single_value(self):
        assert average_ranks([5.0]).tolist() == [1.0]

    def test_extreme_values_raise_no_warning(self):
        xs = [5e-324, 0.0, -0.0, 1.7e308, -1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert average_ranks(xs).tolist() == [4.0, 2.5, 2.5, 5.0, 1.0]
            assert _centered_ranks(xs)[1] == 9.5

    @pytest.mark.parametrize("bad", [[], [float("nan")], [1.0, float("inf")]])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidVectorError):
            average_ranks(bad)

    @given(st.lists(values, min_size=1, max_size=50))
    @settings(max_examples=300)
    def test_sum_invariant_and_range(self, xs):
        ranks = average_ranks(xs)
        n = len(xs)
        assert math.fsum(ranks) == pytest.approx(n * (n + 1) / 2, abs=1e-9)
        assert np.all(ranks >= 1.0) and np.all(ranks <= n)

    @given(st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=30))
    @settings(max_examples=300)
    def test_matches_quadratic_oracle(self, xs):
        # Average ranks are half-integers, so they match exactly.
        assert average_ranks(xs).tolist() == _ranks_quadratic(xs)

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            xs = np.round(rng.standard_normal(n), 1)
            expected = scipy.stats.rankdata(xs, method="average")
            assert average_ranks(xs).tobytes() == expected.tobytes()


class TestMatchesStableSortRanker:
    """Bit for bit the ranks of the stable-sort ranker, on every input."""

    def _assert_same(self, xs):
        assert average_ranks(xs).tobytes() == _stable_sort_ranks(xs).tobytes()
        dr, sum_sq = _centered_ranks(xs)
        ref_dr, ref_sum_sq = _stable_sort_centered_ranks(xs)
        assert dr.tobytes() == ref_dr.tobytes()
        assert sum_sq.hex() == ref_sum_sq.hex()

    @given(st.lists(finite, min_size=1, max_size=600, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_tie_free(self, xs):
        self._assert_same(xs)

    @given(
        st.lists(finite, min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=600)
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_heavy_ties(self, xs):
        self._assert_same(xs)

    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]), max_size=60
        ).flatmap(lambda xs: st.permutations(xs + [0.0, -0.0]))
    )
    @settings(max_examples=200, deadline=None)
    def test_signed_zeros_tie(self, xs):
        ranks = average_ranks(xs)
        zeros = [i for i, x in enumerate(xs) if x == 0.0]
        assert len(set(ranks[zeros].tolist())) == 1
        self._assert_same(xs)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 500, 5000])
    def test_seeded_sizes(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        self._assert_same(x)
        self._assert_same(np.round(x, 1))
        self._assert_same(np.full(n, 0.25))


class TestSpearman:
    def test_examples(self):
        assert spearman_rho([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0
        assert spearman_rho([1, 1, 2], [1, 2, 3]) == pytest.approx(
            math.sqrt(3) / 2, abs=1e-12
        )

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            spearman_rho([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            spearman_rho([1, 2, 3], [4, 4, 4])
        with pytest.raises(DegenerateInputError):
            spearman_rho([1], [1])
        with pytest.raises(DegenerateInputError):
            spearman_rho([1, 2], [1, 2, 3])

    def test_matches_independent_oracle_with_ties(self):
        rng = np.random.default_rng(79)
        for _ in range(400):
            n = int(rng.integers(2, 51))
            x = np.round(rng.standard_normal(n), 1)
            y = np.round(rng.standard_normal(n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman_rho(x, y) == pytest.approx(
                _spearman_oracle(x.tolist(), y.tolist()), abs=1e-12
            )

    def test_matches_scipy(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x = np.round(rng.standard_normal(n), 1)
            y = np.round(rng.standard_normal(n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            expected = float(scipy.stats.spearmanr(x, y).statistic)
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.uniform(-10, 10, n)
            y = rng.uniform(-10, 10, n)
            base = spearman_rho(x, y)
            assert spearman_rho(np.exp(x / 4), y) == pytest.approx(base, abs=1e-12)
            assert spearman_rho(x, 3 * y + 2) == pytest.approx(base, abs=1e-12)
            assert spearman_rho(x**3 + x, np.arctan(y)) == pytest.approx(
                base, abs=1e-12
            )

    def test_symmetry(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            x = rng.standard_normal(20)
            y = rng.standard_normal(20)
            assert spearman_rho(x, y) == pytest.approx(spearman_rho(y, x), abs=1e-15)

    @given(
        st.integers(2, 30).flatmap(
            lambda n: st.tuples(
                st.lists(values, min_size=n, max_size=n),
                st.lists(values, min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=200)
    def test_bounded(self, pair):
        x, y = pair
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert -1.0 <= spearman_rho(x, y) <= 1.0
