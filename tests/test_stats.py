"""Paired statistics: hand-computed cases, scipy/mpmath oracles, invariants."""

import dataclasses
import itertools
import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import ordsim.stats
from ordsim import (
    DegenerateInputError,
    PairedDiffs,
    benjamini_hochberg,
    cohens_d_pooled,
    descriptive_stats,
    leave_one_dataset_out,
    paired_t_test,
    sign_test,
    wilcoxon_signed_rank,
)
from ordsim import TestResult as StatsTestResult
from ordsim.ranks import average_ranks
from ordsim.stats import (
    DescriptiveStats,
    _binomial_head_sum,
    _linear_quantile,
    _norm_sf,
    _student_t_sf,
)


def diffs(*values, datasets=None):
    return PairedDiffs.from_values(values, datasets=datasets)


class TestPairedDiffs:
    def test_label_length_enforced(self):
        with pytest.raises(DegenerateInputError):
            PairedDiffs((1.0, 2.0), (("m", "d"),))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            PairedDiffs((), ())

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateInputError):
            diffs(1.0, float("nan"))

    def test_from_values_with_datasets(self):
        d = diffs(0.1, 0.2, datasets=["A", "B"])
        assert d.labels == (("", "A"), ("", "B"))
        assert d.n == 2

    def test_values_are_a_read_only_copy_outside_the_value(self):
        labels = (("m", "A"), ("m", "B"))
        d = PairedDiffs((0.5, -0.25), labels)
        assert d._values.dtype == np.float64 and d._values.tolist() == [0.5, -0.25]
        assert not d._values.flags.writeable
        with pytest.raises(ValueError):
            d._values[0] = 1.0
        assert [f.name for f in dataclasses.fields(d)] == ["diffs", "labels"]
        assert repr(d) == f"PairedDiffs(diffs=(0.5, -0.25), labels={labels!r})"
        twin = PairedDiffs((0.5, -0.25), labels)
        assert d == twin and hash(d) == hash(twin)
        assert d != PairedDiffs((0.5, -0.5), labels)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=40
        )
    )
    @settings(max_examples=200)
    def test_from_array_equals_the_constructor(self, values):
        labels = tuple(("m", str(i)) for i in range(len(values)))
        built = PairedDiffs(tuple(values), labels)
        array = np.array(values)
        from_array = PairedDiffs(array, labels)
        assert repr(from_array) == repr(built)
        assert from_array == built and hash(from_array) == hash(built)
        assert from_array._values is not array and array.flags.writeable
        assert from_array._values.tobytes() == built._values.tobytes()
        from_list = PairedDiffs(list(values), labels)
        assert from_list == built and hash(from_list) == hash(built)

    @pytest.mark.parametrize(
        "values, n_labels",
        [([1.0, 2.0], 1), ([], 0), ([1.0, float("nan")], 2), ([float("-inf")], 1)],
    )
    def test_from_array_raises_as_the_constructor(self, values, n_labels):
        labels = (("m", "d"),) * n_labels
        with pytest.raises(DegenerateInputError) as want:
            PairedDiffs(tuple(values), labels)
        with pytest.raises(DegenerateInputError) as got:
            PairedDiffs(np.array(values, dtype=np.float64), labels)
        assert str(got.value) == str(want.value)

    def test_array_and_list_input_hash_and_compare(self):
        labels = (("m", "A"), ("m", "B"))
        want = PairedDiffs((1.0, 2.0), labels)
        for diffs in ([1, 2], np.array([1.0, 2.0]), np.array([1, 2])):
            got = PairedDiffs(diffs, labels)
            assert type(got.diffs) is tuple and got.diffs == (1.0, 2.0)
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want)
        assert PairedDiffs(np.array([1.0, 2.5]), labels) != want

    @pytest.mark.parametrize(
        "values, message",
        [
            (["x", "y"], "^differences must be numeric: "),
            ([[1.0, 2.0], [3.0, 4.0]], r"^differences must be 1-d, got shape \(2, 2\)$"),
            (1.0, r"^differences must be 1-d, got shape \(\)$"),
            ([1.0, None], "^differences must be finite$"),
        ],
    )
    def test_malformed_input_is_a_typed_error(self, values, message):
        with pytest.raises(DegenerateInputError, match=message):
            PairedDiffs(values, (("m", "A"), ("m", "B")))

    def test_stats_agree_across_constructions(self):
        ints = [3, -1, 0, 2, 2, -4, 1, 0, 5]
        datasets = ["A", "B", "A", "C", "B", "C", "A", "B", "C"]
        labels = tuple(("", ds) for ds in datasets)
        forms = [
            PairedDiffs(tuple(float(v) for v in ints), labels),
            PairedDiffs(list(ints), labels),
            PairedDiffs.from_values(ints, datasets=datasets),
        ]
        for alternative in ("greater", "two-sided"):
            for test in (wilcoxon_signed_rank, sign_test, paired_t_test, leave_one_dataset_out):
                assert len({repr(test(d, alternative)) for d in forms}) == 1
        assert len({repr(descriptive_stats(d)) for d in forms}) == 1

    def test_labels_are_normalized_to_tuples_of_str(self):
        want = PairedDiffs((1.0, 2.0), (("m", "d1"), ("m", "d2")))
        forms = (
            [("m", "d1"), ("m", "d2")],
            [["m", "d1"], ["m", "d2"]],
            (("m", np.str_("d1")), ("m", "d2")),
            (label for label in [("m", "d1"), ("m", "d2")]),
        )
        for labels in forms:
            got = PairedDiffs((1.0, 2.0), labels)
            assert got.labels == want.labels and type(got.labels) is tuple
            assert all(type(part) is str for label in got.labels for part in label)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        single = PairedDiffs((1.0,), [("m", "d")])
        assert hash(single) == hash(PairedDiffs((1.0,), (("m", "d"),)))

    @pytest.mark.parametrize(
        "labels",
        [None, 3, "md", [("m",)], [("m", "d", "x")], ["md"], [("m", 1)], [(b"m", "d")], [None]],
    )
    def test_malformed_labels_are_a_typed_error(self, labels):
        with pytest.raises(DegenerateInputError, match="label"):
            PairedDiffs((1.0,), labels)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150),
            min_size=1,
            max_size=60,
        )
    )
    def test_moments_equal_numpy_mean_and_std(self, values):
        d = PairedDiffs(values, tuple(("m", str(i)) for i in range(len(values))))
        mean, sd, scale = d._moments
        arr = np.array(values)
        assert scale == 1.0
        assert mean.hex() == float(arr.mean()).hex()
        want_sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        assert sd.hex() == want_sd.hex()

    def test_moments_rescale_only_when_the_squares_overflow(self):
        k = np.arange(1.0, 13.0)
        huge = PairedDiffs(k * 2e305, tuple(("m", str(i)) for i in range(12)))
        small = PairedDiffs(k, tuple(("m", str(i)) for i in range(12)))
        mean, sd, scale = huge._moments
        assert scale == 2.0 ** math.frexp(24e305)[1]  # the largest difference is 24e305
        assert mean * scale == pytest.approx(6.5 * 2e305, rel=1e-15)
        assert sd * scale == pytest.approx(small._moments[1] * 2e305, rel=1e-15)
        assert small._moments[2] == 1.0


class TestNearTheFloat64Limit:
    """Magnitudes of 2**1023 and above: the power-of-two rescale must itself
    stay finite."""

    def test_moments_and_t_test(self):
        values = [1e308, -1e308, 5e307, 1.0]
        exact = [mpmath.mpf(v) for v in values]
        mean = sum(exact) / 4
        sd = mpmath.sqrt(sum((v - mean) ** 2 for v in exact) / 3)
        d = PairedDiffs.from_values(values)
        s = descriptive_stats(d)
        assert s.mean == pytest.approx(float(mean), rel=1e-15)
        assert s.sd == pytest.approx(float(sd), rel=1e-12)
        t = paired_t_test(d, "two-sided")
        assert t.statistic == pytest.approx(float(mean / (sd / 2)), rel=1e-12)
        assert t.effect_size == pytest.approx(float(mean / sd), rel=1e-12)

    def test_pooled_d(self):
        a, b = [1e308, -1e308, 3.0], [1.0, 2.0, 3.0]
        with mpmath.workdps(50):
            xa, xb = [mpmath.mpf(v) for v in a], [mpmath.mpf(v) for v in b]
            ma, mb = sum(xa) / 3, sum(xb) / 3
            pooled = (sum((v - ma) ** 2 for v in xa) + sum((v - mb) ** 2 for v in xb)) / 4
            want = float((ma - mb) / mpmath.sqrt(pooled))
        assert cohens_d_pooled(a, b) == pytest.approx(want, rel=1e-12)


class TestDescriptiveStats:
    def test_hand_case(self):
        s = descriptive_stats(diffs(1.0, 2.0, 3.0, 4.0))
        assert s.n == 4
        assert s.mean == 2.5
        assert s.sd == pytest.approx(math.sqrt(5 / 3), abs=1e-15)
        assert s.se == pytest.approx(s.sd / 2, abs=1e-15)
        assert s.median == 2.5
        assert s.q1 == 1.75
        assert s.q3 == 3.25
        assert s.iqr == 1.5
        assert (s.min, s.max) == (1.0, 4.0)
        assert (s.wins, s.ties, s.losses) == (4, 0, 0)
        assert s.win_rate_excl_ties == 1.0

    def test_win_tie_loss_counting(self):
        s = descriptive_stats(diffs(0.5, 0.0, -0.25, 0.0, 0.75))
        assert (s.wins, s.ties, s.losses) == (2, 2, 1)
        assert s.win_rate_excl_ties == pytest.approx(2 / 3, abs=1e-15)

    def test_single_observation(self):
        s = descriptive_stats(diffs(0.3))
        assert s.n == 1
        assert s.sd == 0.0 and s.se == 0.0
        assert s.median == s.min == s.max == 0.3

    def test_all_ties(self):
        s = descriptive_stats(diffs(0.0, 0.0))
        assert (s.wins, s.ties, s.losses) == (0, 2, 0)
        assert s.win_rate_excl_ties == 0.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_invariants(self, values):
        s = descriptive_stats(PairedDiffs.from_values(values))
        assert s.wins + s.ties + s.losses == s.n
        assert s.iqr == pytest.approx(s.q3 - s.q1, abs=1e-12)
        assert s.se == pytest.approx(s.sd / math.sqrt(s.n), abs=1e-12)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max

    def test_quartiles_match_numpy_linear_interpolation(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            xs = rng.standard_normal(int(rng.integers(1, 30)))
            s = descriptive_stats(PairedDiffs.from_values(xs.tolist()))
            assert s.q1 == float(np.quantile(xs, 0.25))
            assert s.q3 == float(np.quantile(xs, 0.75))


def _bits(value):
    """A result's fields with every float as its hex, so -0.0 differs from 0.0."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    return value


def _descriptive_stats_by_quantile(d):
    """descriptive_stats as written before the shared sort: np.quantile, the
    array's min and max, and the counts by comparison."""
    arr = d._values
    n = arr.size
    mean, sd, scale = d._moments
    mean *= scale
    sd *= scale
    with np.errstate(over="ignore", invalid="ignore"):  # b - a can overflow
        q1, med, q3 = (float(q) for q in np.quantile(arr, (0.25, 0.5, 0.75)))
    wins = int(np.count_nonzero(arr > 0.0))
    ties = int(np.count_nonzero(arr == 0.0))
    losses = n - wins - ties
    decided = wins + losses
    return DescriptiveStats(
        n=n, mean=mean, sd=sd, se=sd / math.sqrt(n), median=med, q1=q1, q3=q3,
        iqr=q3 - q1, min=float(arr.min()), max=float(arr.max()), wins=wins, ties=ties,
        losses=losses, win_rate_excl_ties=wins / decided if decided else 0.0,
    )


def _numpy_linear_quantile(ascending, q):
    """numpy's linear quantile of values already in ascending order, in
    float64 scalars: the virtual index (n - 1) * q, its clamp to the last
    value with weight index + 1, and the two branches of its interpolation."""
    n = ascending.size
    index = np.float64(n - 1) * q
    i = int(np.floor(index))
    if index >= n - 1:
        below, above, t = ascending[-1], ascending[-1], index + 1
    else:
        below, above, t = ascending[i], ascending[i + 1], index - i
    diff = above - below
    return float(above - diff * (1 - t) if t >= 0.5 else below + diff * t)


def _sign_test_by_counts(d, alternative):
    """sign_test as written before the shared sort: k and n by comparison."""
    diffs = d._values
    k = int(np.count_nonzero(diffs > 0.0))
    n = k + int(np.count_nonzero(diffs < 0.0))
    if n == 0:
        raise DegenerateInputError("all differences are zero")
    total = 2**n
    if alternative == "greater":
        p = _binomial_head_sum(n, n - k) / total
    else:
        p = min(1.0, 2.0 * (_binomial_head_sum(n, min(k, n - k)) / total))
    return StatsTestResult(float(k), p, k / n, n, "sign")


def _wilcoxon_by_average_ranks(d, alternative):
    """wilcoxon_signed_rank as written before the shared sort: V from
    average_ranks, the tie counts from a bincount of the doubled ranks."""
    diffs = d._values
    nonzero = diffs[diffs != 0.0]
    n = nonzero.size
    if n == 0:
        raise DegenerateInputError("all differences are zero")
    ranks = average_ranks(np.abs(nonzero))
    v_stat = float(ranks[nonzero > 0.0].sum())
    mu = n * (n + 1) / 4.0
    tie_counts = np.bincount((2.0 * ranks).astype(np.intp))
    tie_counts = tie_counts[tie_counts > 0]
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts)) / 48.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    if alternative == "greater":
        z = (v_stat - mu - 0.5) / sigma
        p = _norm_sf(z)
    else:
        shift = 0.5 * float(np.sign(v_stat - mu))
        z = (v_stat - mu - shift) / sigma
        p = min(1.0, 2.0 * _norm_sf(abs(z)))
    return StatsTestResult(v_stat, p, abs(z) / math.sqrt(n), n, "wilcoxon")


def _outcome_bits(test, *args):
    try:
        return _bits(test(*args))
    except DegenerateInputError as exc:
        return repr(exc)


_DIFF_KINDS = {
    # kind: (a strategy for one value, a numpy draw of m more of that kind)
    "cents": (
        st.integers(-100_000, 100_000).map(lambda c: c / 100.0),
        lambda rng, pool, m: rng.integers(-100_000, 100_001, m) / 100.0,
    ),
    "few": (
        st.just(0.0) | st.integers(-300, 300).map(lambda c: c / 100.0) | st.floats(-1e308, 1e308),
        lambda rng, pool, m: rng.choice(pool, m),
    ),
    "wide": (
        st.floats(-1e308, 1e308),
        lambda rng, pool, m: rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.integers(-300, 309, m),
    ),
    "tiny": (
        st.floats(-1e-300, 1e-300) | st.floats(-5e-324, 5e-324),
        lambda rng, pool, m: rng.integers(-(2**20), 2**20, m) * 5e-324,
    ),
}


@st.composite
def _diff_lists(draw):
    """Differences with no -0.0, n from 1 to 600: cents; at most 4 distinct
    values, so heavy ties and all-zero lists; magnitudes up to 1e308; and
    subnormals.  Past the first values Hypothesis draws, numpy draws the
    rest of the same kind, which keeps long lists quick to make."""
    n = draw(st.integers(1, 600))
    kind = draw(st.sampled_from(sorted(_DIFF_KINDS)))
    value, more = _DIFF_KINDS[kind]
    pool = draw(st.lists(value, min_size=1, max_size=4 if kind == "few" else min(n, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.concatenate((pool, more(rng, pool, max(0, n - len(pool)))))[:n]
    # x + 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
    return (values + 0.0).tolist()


class TestSharedSortMatchesReferenceCode:
    """descriptive_stats, sign_test and wilcoxon_signed_rank read one sorted
    copy of the differences; each equals its earlier code bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_diff_lists(), st.sampled_from(["greater", "two-sided"]))
    def test_bit_identical(self, values, alternative):
        d = PairedDiffs.from_values(values)
        got, want = descriptive_stats(d), _descriptive_stats_by_quantile(d)
        # Where numpy's interpolation overflows, np.quantile's quartile is inf
        # or NaN and descriptive_stats' is finite; every other field matches.
        overflowed = {
            name for name in ("q1", "median", "q3") if not math.isfinite(getattr(want, name))
        }
        if overflowed:
            overflowed.add("iqr")
            assert all(math.isfinite(getattr(got, name)) for name in overflowed - {"iqr"})
            assert _bits(got.iqr) == _bits(got.q3 - got.q1)
        for field in dataclasses.fields(got):
            if field.name not in overflowed:
                assert _bits(getattr(got, field.name)) == _bits(getattr(want, field.name))
        for test, reference in (
            (sign_test, _sign_test_by_counts),
            (wilcoxon_signed_rank, _wilcoxon_by_average_ranks),
        ):
            want = _outcome_bits(reference, d, alternative)
            assert _outcome_bits(test, d, alternative) == want

    @pytest.mark.parametrize(
        "values",
        [[0.0], [0.0] * 7, [2.5], [-1e308] * 3, [1e308, -5e307], [1.7e308, -1.7e308, 0.0],
         [5e-324, -5e-324, 0.0, 5e-324]],
    )
    def test_edge_cases(self, values):
        d = PairedDiffs.from_values(values)
        assert _bits(descriptive_stats(d)) == _bits(_descriptive_stats_by_quantile(d))
        for alternative in ("greater", "two-sided"):
            for test, reference in (
                (sign_test, _sign_test_by_counts),
                (wilcoxon_signed_rank, _wilcoxon_by_average_ranks),
            ):
                want = _outcome_bits(reference, d, alternative)
                assert _outcome_bits(test, d, alternative) == want

    @pytest.mark.parametrize(
        "values",
        [[1e308, -1e308], [-1.7e308, 1.7e308, 1.6e308],
         [-1.7e308, -1.6e308, 1.5e308, 1.6e308, 1.7e308],
         [1.7976931348623157e308, -1.7976931348623157e308] * 3],
    )
    def test_quartiles_stay_finite_where_numpy_overflows(self, values):
        # In each list numpy's above - below overflows for some quartile,
        # which np.quantile gives as inf, or NaN where the weight t is 0; the
        # exact interpolation is finite.  In the last list q3 - q1 itself
        # exceeds float64, so descriptive_stats raises, and the quartiles are
        # checked on _linear_quantile, which it calls.
        ascending = sorted(values)
        quartiles, exact_quartiles = [], []
        for q in (0.25, 0.5, 0.75):
            got = _linear_quantile(np.array(ascending), q)
            index = (len(values) - 1) * Fraction(q)
            i = int(index)
            t = index - i
            below, above = Fraction(ascending[i]), Fraction(ascending[i + 1])
            exact = below * (1 - t) + above * t
            assert math.isfinite(got)
            # Two roundings of the products and one of their sum.
            assert abs(Fraction(got) - exact) <= 3 * 2**-53 * (abs(below) * (1 - t) + abs(above) * t)
            quartiles.append(got)
            exact_quartiles.append(exact)
        d = PairedDiffs.from_values(values)
        if exact_quartiles[2] - exact_quartiles[0] > Fraction(sys.float_info.max):
            with pytest.raises(DegenerateInputError, match="interquartile range overflows float64"):
                descriptive_stats(d)
        else:
            s = descriptive_stats(d)
            assert [s.q1, s.median, s.q3] == quartiles
            assert s.iqr == s.q3 - s.q1

    def test_single_negative_zero_matches_numpy(self):
        # n = 1 takes the clamped branch of numpy's interpolation, b - diff * (1 - t).
        s = descriptive_stats(diffs(-0.0))
        want = [float(q).hex() for q in np.quantile([-0.0], (0.25, 0.5, 0.75))]
        assert [s.q1.hex(), s.median.hex(), s.q3.hex()] == want == ["-0x0.0p+0"] * 3
        assert s.min.hex() == s.max.hex() == "-0x0.0p+0"
        assert (s.wins, s.ties, s.losses) == (0, 1, 0)

    @pytest.mark.parametrize(
        "values",
        [[0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, 0.0, 0.0, -0.0],
         [-0.0, 1.0, -0.0, -1.0, 0.0, -0.0], [0.0, -0.0, 2.0, -0.0, 0.0, 0.0, -3.0]],
    )
    def test_mixed_zero_signs_follow_np_sort(self, values):
        # Where the diffs hold both -0.0 and 0.0, the quartiles are numpy's
        # linear interpolation between the values in np.sort's order, and
        # min and max are its ends; np.quantile's zero sign follows its
        # partition order instead, so it can differ from these in the sign.
        for order in set(itertools.permutations(range(len(values)))):
            shuffled = [values[i] for i in order]
            ascending = np.sort(shuffled)
            d = PairedDiffs.from_values(shuffled)
            s = descriptive_stats(d)
            want = [_numpy_linear_quantile(ascending, q).hex() for q in (0.25, 0.5, 0.75)]
            assert [s.q1.hex(), s.median.hex(), s.q3.hex()] == want
            assert [s.min.hex(), s.max.hex()] == [ascending[0].hex(), ascending[-1].hex()]
            assert (s.wins, s.ties, s.losses) == (
                sum(v > 0 for v in values), sum(v == 0 for v in values), sum(v < 0 for v in values)
            )
            by_quantile = _descriptive_stats_by_quantile(d)
            assert (s.q1, s.median, s.q3, s.min, s.max) == (
                by_quantile.q1, by_quantile.median, by_quantile.q3, by_quantile.min,
                by_quantile.max,
            )

    def test_sorted_copy_is_read_only_and_outside_the_value(self):
        d = diffs(3.0, 0.0, -1.0, 0.0)
        ascending, neg, pos = d._sorted
        assert ascending.tolist() == [-1.0, 0.0, 0.0, 3.0] and (neg, pos) == (1, 3)
        assert not ascending.flags.writeable
        assert d._sorted[0] is ascending
        assert d == diffs(3.0, 0.0, -1.0, 0.0) and hash(d) == hash(diffs(3.0, 0.0, -1.0, 0.0))
        assert repr(d) == repr(diffs(3.0, 0.0, -1.0, 0.0))


class TestResultType:
    def test_p_value_domain_enforced(self):
        with pytest.raises(DegenerateInputError):
            StatsTestResult(1.0, 1.5, 0.0, 3, "x")
        with pytest.raises(DegenerateInputError):
            StatsTestResult(1.0, -0.1, 0.0, 3, "x")


class TestWilcoxon:
    def test_hand_case_positive_pair(self):
        r = wilcoxon_signed_rank(diffs(2.0, -1.0))
        assert r.statistic == 2.0
        assert r.n_used == 2

    def test_hand_case_all_positive(self):
        r = wilcoxon_signed_rank(diffs(1.0, 2.0, 3.0))
        assert r.statistic == 6.0

    def test_zeros_discarded(self):
        r = wilcoxon_signed_rank(diffs(0.0, 1.0, -2.0, 0.0, 3.0))
        assert r.n_used == 3
        assert r.statistic == 4.0  # ranks of |1| and |3| among (1, 2, 3)

    def test_tied_magnitudes_average_ranks(self):
        r = wilcoxon_signed_rank(diffs(1.0, -1.0, 2.0))
        assert r.statistic == 4.5  # 1.5 + 3

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            wilcoxon_signed_rank(diffs(0.0, 0.0))

    def test_invalid_alternative_rejected(self):
        with pytest.raises(DegenerateInputError):
            wilcoxon_signed_rank(diffs(1.0, 2.0), alternative="less")

    def test_effect_size_is_z_over_sqrt_n(self):
        d = diffs(*np.random.default_rng(3).standard_normal(30).tolist())
        r = wilcoxon_signed_rank(d)
        arr = np.array(d.diffs)
        nz = arr[arr != 0]
        n = nz.size
        ranks = scipy.stats.rankdata(np.abs(nz))
        v = float(ranks[nz > 0].sum())
        _, counts = np.unique(np.abs(nz), return_counts=True)
        sigma = math.sqrt(
            n * (n + 1) * (2 * n + 1) / 24 - float(np.sum(counts**3 - counts)) / 48
        )
        z = (v - n * (n + 1) / 4 - 0.5) / sigma
        assert r.effect_size == pytest.approx(abs(z) / math.sqrt(n), abs=1e-12)

    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_matches_scipy_normal_approximation(self, alternative):
        rng = np.random.default_rng(107)
        for _ in range(100):
            n = int(rng.integers(6, 40))
            values = np.round(rng.standard_normal(n) + 0.3, 1)
            values = values[values != 0.0]
            if values.size < 2 or np.all(values > 0) or np.all(values < 0):
                continue
            d = PairedDiffs.from_values(values.tolist())
            ours = wilcoxon_signed_rank(d, alternative)
            ref = scipy.stats.wilcoxon(
                values, alternative=alternative, method="approx", correction=True
            )
            # Our statistic is always V = sum of positive ranks; scipy reports
            # min(T+, T-) for the two-sided alternative.
            n_used = ours.n_used
            if alternative == "greater":
                assert ours.statistic == float(ref.statistic)
            else:
                total = n_used * (n_used + 1) / 2
                assert float(ref.statistic) == min(ours.statistic, total - ours.statistic)
            assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_sign_flip_antisymmetry(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            values = rng.standard_normal(15)
            values = values[values != 0.0]
            n = values.size
            v_pos = wilcoxon_signed_rank(PairedDiffs.from_values(values)).statistic
            v_neg = wilcoxon_signed_rank(PairedDiffs.from_values((-values))).statistic
            assert v_pos + v_neg == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_statistic_range(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            values = rng.standard_normal(12)
            values = values[values != 0.0]
            n = values.size
            v = wilcoxon_signed_rank(PairedDiffs.from_values(values)).statistic
            assert 0.0 <= v <= n * (n + 1) / 2


class TestSignTest:
    def test_hand_case(self):
        r = sign_test(diffs(1.0, -1.0))
        assert r.statistic == 1.0
        assert r.p_value == 0.75
        assert r.n_used == 2
        assert r.effect_size == 0.5

    def test_all_positive(self):
        r = sign_test(diffs(1.0, 2.0, 3.0))
        assert r.p_value == pytest.approx(0.125, abs=0)
        assert r.effect_size == 1.0

    def test_zeros_discarded(self):
        r = sign_test(diffs(0.0, 1.0, 1.0, -1.0))
        assert r.n_used == 3
        assert r.statistic == 2.0

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            sign_test(diffs(0.0))

    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_exact_binomial_matches_scipy(self, alternative):
        rng = np.random.default_rng(127)
        for _ in range(80):
            n = int(rng.integers(1, 31))
            k = int(rng.integers(0, n + 1))
            values = [1.0] * k + [-1.0] * (n - k)
            r = sign_test(PairedDiffs.from_values(values), alternative)
            ref = scipy.stats.binomtest(
                k, n, 0.5, alternative="greater" if alternative == "greater" else "two-sided"
            )
            assert r.p_value == pytest.approx(ref.pvalue, abs=1e-14)

    def test_equals_math_comb_tail_sums(self):
        # Every n in 1..400 and every k: the same integers, so the same floats.
        for n in range(1, 401):
            coeffs = [math.comb(n, i) for i in range(n + 1)]
            lowers = list(itertools.accumulate(coeffs))  # C(n, 0) + ... + C(n, k)
            uppers = list(itertools.accumulate(reversed(coeffs)))[::-1]  # C(n, k) + ... + C(n, n)
            labels = (("", ""),) * n
            for k in range(n + 1):
                d = PairedDiffs((1.0,) * k + (-1.0,) * (n - k), labels)
                upper, lower = uppers[k], lowers[k]
                assert sign_test(d, "greater").p_value == upper / 2**n
                assert sign_test(d, "two-sided").p_value == min(
                    1.0, 2.0 * (min(upper, lower) / 2**n)
                )

    def test_exact_arithmetic_at_scale(self):
        # 71 successes out of 72 at rate 1/2, computed with integer arithmetic.
        values = [1.0] * 71 + [-1.0]
        r = sign_test(PairedDiffs.from_values(values))
        expected = (math.comb(72, 71) + math.comb(72, 72)) / 2**72
        assert r.p_value == expected
        assert r.p_value == pytest.approx(1.5458e-20, rel=1e-3)


class TestPairedT:
    def test_hand_case(self):
        r = paired_t_test(diffs(1.0, 3.0))
        assert r.statistic == pytest.approx(2.0, abs=1e-12)
        assert r.n_used == 2
        assert r.effect_size == pytest.approx(math.sqrt(2), abs=1e-12)
        assert r.p_value == pytest.approx(0.14758361765043326, abs=1e-12)

    def test_constant_diffs_rejected(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test(diffs(0.5, 0.5, 0.5))

    def test_too_small_rejected(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test(diffs(1.0))

    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_matches_scipy_one_sample(self, alternative):
        rng = np.random.default_rng(131)
        for _ in range(60):
            n = int(rng.integers(3, 50))
            values = rng.standard_normal(n) + 0.2
            r = paired_t_test(PairedDiffs.from_values(values.tolist()), alternative)
            ref = scipy.stats.ttest_1samp(
                values,
                0.0,
                alternative="greater" if alternative == "greater" else "two-sided",
            )
            assert r.statistic == pytest.approx(float(ref.statistic), abs=1e-12)
            assert r.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_tail_function_against_mpmath(self):
        # Accuracy target: 1e-10 absolute for df <= 1000.  df = 319 is the
        # 8-model x 40-dataset grid that compare runs in the benchmark.
        mpmath.mp.dps = 40
        for df in (1, 2, 5, 10, 76, 200, 319, 1000):
            for t in (-7.5, -2.2, -0.5, 0.0, 0.5, 2.2, 7.2006, 25.0):
                x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
                half = mpmath.betainc(
                    mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True
                ) / 2
                expected = float(half if t >= 0 else 1 - half)
                assert _student_t_sf(t, df) == pytest.approx(expected, abs=1e-10)


class TestCohensD:
    def test_hand_case(self):
        assert cohens_d_pooled([0.0, 2.0], [-1.0, 1.0]) == pytest.approx(
            math.sqrt(0.5), abs=1e-15
        )

    def test_zero_pooled_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            cohens_d_pooled([1.0, 1.0], [2.0, 2.0])

    def test_small_samples_rejected(self):
        with pytest.raises(DegenerateInputError):
            cohens_d_pooled([1.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "a, b",
        [
            (["a", "b"], [1.0, 2.0]),
            ([1.0, 2.0], ["a", "b"]),
            ([[1.0], [2.0, 3.0]], [1.0, 2.0]),
            ([1.0, 2.0], [object(), 1.0]),
        ],
    )
    def test_non_numeric_samples_are_a_typed_error(self, a, b):
        with pytest.raises(DegenerateInputError, match="^samples must be numeric: "):
            cohens_d_pooled(a, b)

    def test_shift_and_scale_behavior(self):
        rng = np.random.default_rng(137)
        a = rng.standard_normal(20)
        b = rng.standard_normal(25) - 0.4
        base = cohens_d_pooled(a, b)
        assert cohens_d_pooled(a + 3, b + 3) == pytest.approx(base, abs=1e-12)
        assert cohens_d_pooled(2 * a, 2 * b) == pytest.approx(base, abs=1e-12)
        assert cohens_d_pooled(b, a) == pytest.approx(-base, abs=1e-12)


class TestBenjaminiHochberg:
    def test_hand_case(self):
        assert benjamini_hochberg([0.01, 0.04, 0.03, 0.005]) == pytest.approx(
            [0.02, 0.04, 0.04, 0.02], abs=1e-15
        )

    def test_single_p_unchanged(self):
        assert benjamini_hochberg([0.2]) == [0.2]

    def test_domain_enforced(self):
        with pytest.raises(DegenerateInputError):
            benjamini_hochberg([])
        with pytest.raises(DegenerateInputError):
            benjamini_hochberg([0.5, 1.2])
        with pytest.raises(DegenerateInputError):
            benjamini_hochberg([-0.1])

    @pytest.mark.parametrize("ps", [["x"], [0.1, "0.x"], [[0.1], [0.2, 0.3]], [None, []]])
    def test_non_numeric_p_values_are_a_typed_error(self, ps):
        with pytest.raises(DegenerateInputError, match="^p-values must be numeric: "):
            benjamini_hochberg(ps)

    def test_matches_scipy(self):
        rng = np.random.default_rng(139)
        for _ in range(100):
            m = int(rng.integers(1, 12))
            ps = rng.uniform(0, 1, m).tolist()
            expected = scipy.stats.false_discovery_control(ps, method="bh")
            assert benjamini_hochberg(ps) == pytest.approx(expected.tolist(), abs=1e-13)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_monotonicity_invariants(self, ps):
        adjusted = benjamini_hochberg(ps)
        for raw, adj in zip(ps, adjusted):
            assert adj >= raw - 1e-15
            assert adj <= 1.0
        # Order-preserving: sorting by raw p sorts adjusted p.
        order = sorted(range(len(ps)), key=lambda i: ps[i])
        adj_in_order = [adjusted[i] for i in order]
        assert adj_in_order == sorted(adj_in_order)


class TestLeaveOneDatasetOut:
    def test_hand_case(self):
        d = diffs(0.2, 0.2, 0.4, 0.4, datasets=["A", "A", "B", "B"])
        r = leave_one_dataset_out(d)
        # Exclusion means: drop A -> 0.4, drop B -> 0.2; t = 0.3 / (sd/sqrt(2)) = 3.
        assert r.statistic == pytest.approx(3.0, abs=1e-12)
        assert r.n_used == 2
        assert r.p_value == pytest.approx(0.10241638234956671, abs=1e-12)
        assert r.method_name == "lodo-t"

    def test_requires_two_datasets(self):
        with pytest.raises(DegenerateInputError):
            leave_one_dataset_out(diffs(0.1, 0.2, datasets=["A", "A"]))

    def test_exclusion_means_against_manual_computation(self):
        rng = np.random.default_rng(149)
        datasets = ["A", "B", "C", "D"]
        values = rng.standard_normal(20) + 0.5
        labels = [datasets[i % 4] for i in range(20)]
        d = PairedDiffs.from_values(values.tolist(), datasets=labels)
        r = leave_one_dataset_out(d)
        means = []
        for ds in datasets:
            kept = [v for v, lab in zip(values, labels) if lab != ds]
            means.append(sum(kept) / len(kept))
        ref = scipy.stats.ttest_1samp(means, 0.0, alternative="greater")
        assert r.statistic == pytest.approx(float(ref.statistic), abs=1e-12)
        assert r.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)
        assert r.n_used == 4

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C", "STS12", "STS-B", "b", ""]),
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
                | st.integers(-10_000, 10_000).map(lambda c: c / 100.0),
            ),
            min_size=1,
            max_size=300,
        ),
        st.sampled_from(["greater", "two-sided"]),
    )
    def test_equals_per_label_loop(self, cells, alternative):
        d = PairedDiffs.from_values([v for _, v in cells], datasets=[ds for ds, _ in cells])
        try:
            want = repr(_lodo_per_label_loop(d, alternative))
        except DegenerateInputError as exc:
            want = repr(exc)
        try:
            got = repr(leave_one_dataset_out(d, alternative))
        except DegenerateInputError as exc:
            got = repr(exc)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 12).map(lambda i: f"D{i}"),
                st.integers(-10_000, 10_000).map(lambda c: c / 100.0),
            ),
            min_size=2,
            max_size=120,
        ),
        st.integers(1, 400),
    )
    def test_blocks_do_not_change_the_result(self, cells, block_cells):
        # Small blocks split each group of equal-count datasets into many.
        d = PairedDiffs.from_values([v for _, v in cells], datasets=[ds for ds, _ in cells])
        try:
            want = repr(_lodo_per_label_loop(d, "greater"))
        except DegenerateInputError as exc:
            want = repr(exc)
        with mock.patch.object(ordsim.stats, "_LODO_BLOCK_CELLS", block_cells):
            try:
                got = repr(leave_one_dataset_out(d))
            except DegenerateInputError as exc:
                got = repr(exc)
        assert got == want


def _lodo_per_label_loop(d, alternative):
    """leave_one_dataset_out as first written: a string compare and a mean per label."""
    datasets = []
    for _, ds in d.labels:
        if ds not in datasets:
            datasets.append(ds)
    if len(datasets) < 2:
        raise DegenerateInputError("leave-one-dataset-out requires >= 2 datasets")
    arr = np.asarray(d.diffs, dtype=np.float64)
    ds_labels = np.asarray([ds for _, ds in d.labels])
    means = [float(arr[ds_labels != ds].mean()) for ds in datasets]
    result = paired_t_test(PairedDiffs.from_values(means), alternative)
    return dataclasses.replace(result, method_name="lodo-t")
