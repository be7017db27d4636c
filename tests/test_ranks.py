"""Ranking and Spearman correlation against independent oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsim import (
    DegenerateInputError,
    DenseVector,
    InvalidVectorError,
    MetricKind,
    PairDataset,
    PairRecord,
    average_ranks,
    evaluate,
    similarity,
    spearman_rho,
)
from ordsim.ranks import _Ranked, _sorted_centered_ranks


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
    # Reference ``_Ranked``: the ranks above minus their mean.
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
            assert _Ranked(np.array(xs)).sum_sq == 9.5

    @pytest.mark.parametrize("bad", [[], [float("nan")], [1.0, float("inf")]])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidVectorError):
            average_ranks(bad)

    @pytest.mark.parametrize("bad", [["a"], [1.0, "x"], [[1.0], [2.0, 3.0]], [object()]])
    def test_non_numeric_input_is_a_typed_error(self, bad):
        with pytest.raises(InvalidVectorError, match="^x must be numeric: "):
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
        ranked = _Ranked(np.asarray(xs, dtype=np.float64))
        dr, sum_sq = ranked.centered, ranked.sum_sq
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

    def test_non_numeric_input_is_a_typed_error(self):
        with pytest.raises(InvalidVectorError, match="^x must be numeric: "):
            spearman_rho(["a", "b"], [1, 2])
        with pytest.raises(InvalidVectorError, match="^y must be numeric: "):
            spearman_rho([1, 2], [None, [3]])

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


def _scatter_rho(x, y):
    # Reference Spearman rho: ranks in row order (average_ranks), centred,
    # and Pearson's formula by np.dot, with the same float operations.
    n = len(x)
    dx = average_ranks(x) - (n + 1) / 2.0
    dy = average_ranks(y) - (n + 1) / 2.0
    ssx, ssy = float(np.dot(dx, dx)), float(np.dot(dy, dy))
    rho = float(np.dot(dx, dy)) / float(np.sqrt(ssx * ssy))
    return float(min(1.0, max(-1.0, rho)))


def _twice_centered(x):
    # 2 * (rank - (n + 1) / 2) as exact integers, from the stable-sort ranker.
    return (2 * _stable_sort_ranks(x)).astype(np.int64) - (len(x) + 1)


@st.composite
def _samples(draw, max_n=3000):
    """A pair of samples of one size: tie-heavy (a few integers) or tie-free."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample():
        if draw(st.booleans()):
            return rng.integers(0, draw(st.integers(1, 8)), n).astype(np.float64)
        return rng.permutation(n) * 0.5 - rng.standard_normal() * n

    return sample(), sample()


class TestSortedOrderCorrelation:
    """Spearman's numerator is taken in x's sorted order: dx_sorted . dy[order].
    Every product and partial sum is a multiple of 1/4 below n^3/12, so for
    n <= 2^18 both dot products are exact and rho is the scatter-based one."""

    def _assert_exact(self, x, y):
        order, dx = _sorted_centered_ranks(x)
        ranked = _Ranked(y)
        dy, ssy = ranked.centered, ranked.sum_sq
        a, b = _twice_centered(x), _twice_centered(y)
        assert 4 * float(np.dot(dx, dy[order])) == int(np.dot(a, b))
        assert 4 * float(np.dot(dx, dx)) == int(np.dot(a, a))
        assert 4 * ssy == int(np.dot(b, b))
        if np.all(x == x[0]) or np.all(y == y[0]):
            with pytest.raises(DegenerateInputError, match="constant sequence"):
                spearman_rho(x, y)
        else:
            assert spearman_rho(x, y).hex() == _scatter_rho(x, y).hex()

    @given(_samples())
    @settings(max_examples=150, deadline=None)
    def test_sums_are_exact_and_rho_is_the_scatter_rho(self, xy):
        self._assert_exact(*xy)

    @pytest.mark.parametrize("ties", [False, True])
    def test_at_two_to_the_eighteen(self, ties):
        n = 2**18
        rng = np.random.default_rng(18)
        x = rng.integers(0, 40, n).astype(np.float64) if ties else rng.standard_normal(n)
        y = x + rng.standard_normal(n) * 0.3
        self._assert_exact(x, y)
        # Equal samples make the largest sums, (n^3 - n) / 12 without ties.
        self._assert_exact(x, x.copy())

    def test_evaluate_with_duplicated_rows_is_spearman_of_the_scores(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((250, 2, 6))
        rows = np.concatenate([base] * 4)  # each pair 4 times: tied scores
        gold = np.round(rng.uniform(0, 5, rows.shape[0]), 1)
        ds = PairDataset(
            "dup",
            6,
            [PairRecord(g, DenseVector(u), DenseVector(v)) for g, (u, v) in zip(gold, rows)],
        )
        for kind in MetricKind:
            scores = [similarity(kind, u, v) for u, v in zip(ds.U, ds.V)]
            assert len(set(scores)) <= 250
            want = 100.0 * spearman_rho(scores, ds.gold)
            assert evaluate(ds, kind).rho_x100.hex() == want.hex()


# The two helpers that ``_Ranked`` replaced, as they were: gold's centered
# ranks in row order with their sum of squares, and rho from x's sort, with
# the tie-free positions that only ``evaluate`` passed.
def _replaced_sorted_centered(sorted_vals, ties):
    n = sorted_vals.size
    if np.count_nonzero(ties):
        boundaries = np.concatenate(([True], ~ties))
        starts = np.flatnonzero(boundaries)
        counts = np.diff(np.append(starts, n))
        group_rank = starts + (counts + 1) / 2.0
        return (group_rank - (n + 1) / 2.0)[np.cumsum(boundaries) - 1]
    return np.arange(-(n - 1) / 2.0, (n + 1) / 2.0)


def _replaced_centered_ranks(arr):
    order = arr.argsort()
    sorted_vals = arr[order]
    centered = _replaced_sorted_centered(sorted_vals, sorted_vals[1:] == sorted_vals[:-1])
    dr = np.empty(arr.size)
    dr[order] = centered
    return dr, float(np.dot(centered, centered))


def _replaced_sorted_rank_correlation(order, ordered, y, tie_free=None):
    ties = ordered[1:] == ordered[:-1]
    if tie_free is None or np.count_nonzero(ties):
        dx = _replaced_sorted_centered(ordered, ties)
        ssx = float(dx.dot(dx))
    else:
        dx, ssx = tie_free
    dy, ssy = y
    if ssx == 0.0 or ssy == 0.0:
        raise DegenerateInputError("spearman_rho is undefined for a constant sequence")
    rho = float(dx.dot(dy[order])) / math.sqrt(ssx * ssy)
    return min(1.0, max(-1.0, rho))


def _rho_outcome(call):
    # A rho as its exact bits, or the message of its DegenerateInputError.
    try:
        return ("rho", call().hex())
    except DegenerateInputError as exc:
        return ("error", str(exc))


@st.composite
def _shaped_samples(draw):
    """Two samples of one size n >= 2 (often exactly 2), each tied,
    tie-free or constant."""
    n = draw(st.just(2) | st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample():
        shape = draw(st.sampled_from(["tied", "tie-free", "constant"]))
        if shape == "tied":
            return rng.integers(0, draw(st.integers(2, 8)), n).astype(np.float64)
        if shape == "constant":
            return np.full(n, rng.standard_normal())
        return rng.permutation(n) * 0.5 - rng.standard_normal() * n

    return sample(), sample()


class TestRanked:
    """``_Ranked`` keeps the fixed side y of Spearman correlations."""

    @given(_shaped_samples())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_helpers_it_replaced(self, xy):
        x, y = xy
        ranked = _Ranked(y)
        dy, ssy = _replaced_centered_ranks(y)
        assert ranked.centered.tobytes() == dy.tobytes()
        assert ranked.sum_sq.hex() == ssy.hex()
        order = x.argsort()
        ordered = x[order]
        positions = np.arange(-(x.size - 1) / 2.0, (x.size + 1) / 2.0)
        tie_free = positions, float(positions.dot(positions))
        # evaluate passed the tie-free positions; spearman_rho did not.
        assert _rho_outcome(lambda: ranked.rho(order, ordered)) == _rho_outcome(
            lambda: _replaced_sorted_rank_correlation(order, ordered, (dy, ssy), tie_free)
        )
        assert _rho_outcome(lambda: spearman_rho(x, y)) == _rho_outcome(
            lambda: _replaced_sorted_rank_correlation(order, ordered, (dy, ssy))
        )

    def test_kept_arrays_are_read_only(self):
        ranked = _Ranked(np.array([3.0, 1.0, 4.0, 1.0]))
        assert ranked.centered.tolist() == [0.5, -1.0, 1.5, -1.0]
        assert ranked.sum_sq == 4.5
        positions, sum_sq = ranked.tie_free
        assert positions.tolist() == [-1.5, -0.5, 0.5, 1.5] and sum_sq == 5.0
        for arr in (ranked.centered, positions):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert ranked.tie_free[0] is positions
