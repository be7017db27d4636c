"""Paired statistics: hand-computed cases, scipy/mpmath oracles, invariants."""

import dataclasses
import itertools
import math
import sys
import timeit
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ordsim.stats
from ordsim import (
    DegenerateInputError,
    InvalidVectorError,
    PairedDiffs,
    benjamini_hochberg,
    cohens_d_pooled,
    compare,
    descriptive_stats,
    fixture_path,
    leave_one_dataset_out,
    load_results,
    paired_t_test,
    sign_test,
    spearman_rho,
    wilcoxon_signed_rank,
)
from ordsim import TestResult as StatsTestResult
from ordsim.ranks import average_ranks
from ordsim.stats import (
    DescriptiveStats,
    _binomial_head_sum,
    _linear_quantile,
    _norm_sf,
    _PEAK_LIMIT,
    _power_of_two_scale,
    _product_error,
    _scale,
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

    def test_from_values_checks_the_values_first(self):
        with pytest.raises(DegenerateInputError, match="^differences must be numeric: "):
            PairedDiffs.from_values(iter([1.0, 2.0]))
        with pytest.raises(DegenerateInputError, match="^differences must be 1-d, got shape"):
            PairedDiffs.from_values(3.0)
        values = np.array([0.1, -0.0, 5e-324])
        d = PairedDiffs.from_values(values)
        assert d._values.tobytes() == values.tobytes() and d._values is not values
        assert d.labels == (("", "0"), ("", "1"), ("", "2"))

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

    def test_both_ways_of_building_keep_the_same_arrays(self):
        values = [0.5, -0.0, 0.0, -1.25, 3.0, 0.5, 0.0]
        public = PairedDiffs.from_values(values, datasets="ABACBCA")
        codes = np.array([0, 1, 0, 2, 1, 2, 0])
        kept = PairedDiffs._from_columns(
            np.array(values), lambda: public.labels, codes, np.bincount(codes)
        )
        assert kept == public
        (ascending, neg, pos), (want, want_neg, want_pos) = kept._sorted, public._sorted
        assert (ascending.tobytes(), neg, pos) == (want.tobytes(), want_neg, want_pos)
        assert _bits(kept._ends) == _bits(public._ends)
        assert kept._counts.tolist() == public._counts.tolist() == [3, 2, 2]
        assert kept._datasets.tolist() == public._datasets.tolist()
        for array in (kept._values, kept._datasets, kept._counts, ascending, want):
            assert not array.flags.writeable

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
        peak = float(np.abs(arr).max())
        if arr.size > 1 and arr.var(ddof=1) < 2.0**-1022 and arr.min() < arr.max():
            # The squared deviations may underflow: numpy's values of the
            # differences scaled by a power of two (TestUnderflowingVariance).
            assert scale == _power_of_two_scale(peak) < 1.0
        else:
            # 1.0 below a peak of 2**480, a power of two from it on.
            assert scale == _scale(peak)
        arr = arr / scale
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


class TestUnderflowingVariance:
    """Spreads below about 1e-154, whose squared deviations underflow: the
    power-of-two rescale must keep the variance, as it does for overflow."""

    def test_paired_t(self):
        t = paired_t_test(diffs(2e-172, 0.0, 1e-172))
        assert t.statistic == pytest.approx(math.sqrt(3), rel=1e-15)
        assert t.p_value == pytest.approx(paired_t_test(diffs(2.0, 0.0, 1.0)).p_value, rel=1e-14)

    def test_sd(self):
        assert descriptive_stats(diffs(2e-172, 0.0, 1e-172)).sd == pytest.approx(1e-172, rel=1e-15)

    def test_lodo(self):
        r = leave_one_dataset_out(diffs(2.06e-172, 0.0, datasets="AB"))
        normal = leave_one_dataset_out(diffs(2.06, 0.0, datasets="AB"))
        assert r.statistic == pytest.approx(normal.statistic, rel=1e-15)
        assert r.p_value == pytest.approx(normal.p_value, rel=1e-14)

    def test_pooled_d(self):
        d = cohens_d_pooled([1e-170, 2e-170, 3e-170], [0.0, 1e-171, 0.0])
        assert d == pytest.approx(cohens_d_pooled([1.0, 2.0, 3.0], [0.0, 0.1, 0.0]), rel=1e-14)

    @pytest.mark.parametrize("c", [0.5, 1e-160, 1e-300, 5e-324])
    def test_exactly_constant_values_still_raise(self, c):
        with pytest.raises(DegenerateInputError, match="constant differences"):
            paired_t_test(diffs(*[c] * 7))
        with pytest.raises(DegenerateInputError, match="exclusion means are equal"):
            leave_one_dataset_out(diffs(c, c, c, datasets="ABC"))
        with pytest.raises(DegenerateInputError, match="pooled variance is zero"):
            cohens_d_pooled([c] * 7, [c] * 3)
        assert descriptive_stats(diffs(*[c] * 7)).sd == 0.0


class TestConstantSamples:
    """Exactly constant values have no t-test, whatever the rounding of
    their mean: the smallest and the largest value decide, not the
    deviations from a mean that rounds off the common value (0.1 * 3 / 3 is
    not 0.1)."""

    @pytest.mark.parametrize(
        "values",
        [[0.1] * 3, [0.1] * 5, [1 / 3] * 3, [2.0] * 3, [0.7] * 3, [-0.1] * 3],
        ids=["0.1x3", "0.1x5", "third-x3", "2x3", "0.7x3", "-0.1x3"],
    )
    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_paired_t(self, values, alternative):
        d = PairedDiffs.from_values(values)
        message = "^paired t-test is undefined for constant differences$"
        with pytest.raises(DegenerateInputError, match=message):
            paired_t_test(d, alternative)
        # The summary keeps the sd of the deviations, as numpy computes it.
        assert descriptive_stats(d).sd.hex() == float(np.std(values, ddof=1)).hex()

    def test_rounded_mean_gives_a_nonzero_sd(self):
        # Without the rule, [0.1] * 3 would have t = 1.02e16.
        assert PairedDiffs.from_values([0.1] * 3)._moments[1] > 0.0

    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_lodo_equal_means_with_a_nonzero_sd(self, alternative):
        # Each exclusion mean is (1/3 + 1/3) / 2, the same float three times,
        # but their own mean rounds off it: without the rule, t = 8.49e15.
        d = PairedDiffs.from_values([1 / 3] * 3, datasets=["A", "B", "C"])
        means = ordsim.stats._exclusion_means(d._values, d._datasets, d._counts)
        assert means.min() == means.max()
        assert ordsim.stats._mean_var(means)[1] > 0.0
        message = "^leave-one-dataset-out t-test is undefined: all 3 exclusion means are equal$"
        with pytest.raises(DegenerateInputError, match=message):
            leave_one_dataset_out(d, alternative)

    def test_one_unequal_value_keeps_the_test(self):
        values = [0.1] * 4 + [math.nextafter(0.1, 1.0)]
        assert math.isfinite(paired_t_test(PairedDiffs.from_values(values)).statistic)

    @pytest.mark.parametrize("a, b", [([0.1] * 3, [0.2] * 3), ([0.7] * 3, [1.7] * 5)])
    def test_pooled_d_of_two_constant_samples(self, a, b):
        # Without the rule, d would be -3.72e15 and -1.27e16.
        with pytest.raises(DegenerateInputError, match="^pooled variance is zero$"):
            cohens_d_pooled(a, b)

    def test_one_unequal_value_keeps_the_pooled_d(self):
        b = [0.2, 0.2, math.nextafter(0.2, 1.0)]
        assert math.isfinite(cohens_d_pooled([0.1] * 3, b))


def _all_finite(result):
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all())
    return all(map(math.isfinite, result))


def _rescaled(compute, arr):
    """(result, scale) as the statistics once scaled every sum: ``compute``
    of the values and 1.0, unless a value of its result is not finite; then
    ``compute`` of the values divided by the power of two just above their
    peak, and that power."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = compute(arr)
    if _all_finite(result):
        return result, 1.0
    scale = _power_of_two_scale(float(np.abs(arr).max()))
    return compute(arr / scale), scale


def _old_mean_sd_scale(arr):
    """(mean, sd, scale) as the statistics once computed them: ``_mean_var``
    at the scale ``_rescaled`` picks, then the underflow rescale."""
    stats = ordsim.stats
    (mean, var), scale = _rescaled(stats._mean_var, arr)
    if var < stats._SMALLEST_NORMAL and arr.min() < arr.max():
        scale = _power_of_two_scale(float(np.abs(arr).max()))
        mean, var = stats._mean_var(arr / scale)
    return mean, math.sqrt(var), scale


def _old_paired_t(d, alternative):
    """paired_t_test on ``_old_mean_sd_scale`` of the differences."""
    constant = "paired t-test is undefined for constant differences"
    if d._ends[0] == d._ends[1]:
        raise DegenerateInputError(constant)
    moments = _old_mean_sd_scale(d._values)
    return ordsim.stats._t_test(moments, d.n, alternative, "paired-t", constant)


def _old_lodo(d, alternative):
    """leave_one_dataset_out with the sums ``_rescaled`` scales, on d's
    codes and counts."""
    stats = ordsim.stats
    codes, counts = d._datasets, d._counts
    means, _ = _rescaled(lambda arr: stats._exclusion_means(arr, codes, counts), d._values)
    constant = f"leave-one-dataset-out t-test is undefined: all {counts.size} exclusion means are equal"
    if means.min() == means.max():
        raise DegenerateInputError(constant)
    return stats._t_test(_old_mean_sd_scale(means), counts.size, alternative, "lodo-t", constant)


class TestPeakLimit:
    """Every sum is taken at scale 1.0 below a peak magnitude of 2**480,
    where none can overflow, and at the power of two just above the peak
    from it on.  On either side of that peak, on values whose mean is not
    carried by a value subnormal at that scale, the public results are
    those of scaling only the sums that overflow (``_rescaled``), bit for
    bit, also between 2**480 and 2**512, where no sum overflows."""

    @pytest.mark.parametrize(
        "exponent", [-600, -540, 0, 470, 478, 479, 480, 481, 490, 505, 511, 600, 1000]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_rescaled_path(self, exponent, seed):
        rng = np.random.default_rng(seed)
        # Magnitudes in [1, 2), so the peak is 2**exponent times at most 2.
        base = rng.uniform(1.0, 2.0, 60) * rng.choice([-1.0, 1.0], 60)
        base[0] = math.copysign(2.0 - 2.0**-52, base[0])
        values = base * 2.0**exponent
        datasets = [f"D{i % 7}" for i in range(60)]
        d = PairedDiffs.from_values(values.tolist(), datasets=datasets)
        s = descriptive_stats(d)
        mean, sd, scale = _old_mean_sd_scale(d._values)
        assert (s.mean.hex(), s.sd.hex()) == ((mean * scale).hex(), (sd * scale).hex())
        for alternative in ("greater", "two-sided"):
            for test, old in ((paired_t_test, _old_paired_t), (leave_one_dataset_out, _old_lodo)):
                want = _outcome_bits(old, d, alternative)
                assert _outcome_bits(test, d, alternative) == want, test

    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_results_are_power_of_two_equivariant_across_the_limit(self, alternative):
        # x's squares sum below 2**1024 and x * 2**20's do not; both are
        # taken at the power of two just above their peak, where 2**-600
        # and 2**-580 are both below the smallest subnormal.
        x = np.array([2.0**500, -(2.0**500), 2.0**-600])
        y = np.array([1.0, 2.0, 4.0])
        k = 2.0**20
        d, dk = (PairedDiffs.from_values(v, datasets="ABC") for v in (x, x * k))
        s, sk = descriptive_stats(d), descriptive_stats(dk)
        for field in ("mean", "sd", "se", "median", "q1", "q3", "iqr", "min", "max"):
            assert getattr(sk, field).hex() == (getattr(s, field) * k).hex(), field
        for test in (paired_t_test, leave_one_dataset_out):
            assert _outcome_bits(test, dk, alternative) == _outcome_bits(test, d, alternative)
        assert cohens_d_pooled(x * k, y * k).hex() == cohens_d_pooled(x, y).hex()

    @pytest.mark.parametrize("exponent", [-1074, -600, 0, 479, 480, 481, 600, 1022, 1023])
    def test_the_scale_is_one_below_the_limit_and_a_power_of_two_above(self, exponent):
        for peak in (2.0**exponent, math.nextafter(2.0**exponent, 0.0)):
            scale = _scale(peak)
            if peak < _PEAK_LIMIT:
                assert scale == 1.0
            else:
                # The power of two just above the peak, at most 2**1023.
                assert math.frexp(scale)[0] == 0.5
                assert peak < scale <= 2.0 * peak or scale == 2.0**1023
            if exponent >= 0:  # a variance too large to have underflowed
                d = PairedDiffs.from_values([peak, -peak / 2, 0.0], datasets="ABC")
                assert d._moments[2] == scale


def _two_pass_encode(values):
    """The encoder as it was: the distinct values, then a lookup per value."""
    names = tuple(dict.fromkeys(values))
    code_of = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(code_of.__getitem__, values), np.intp, len(values))


class TestEncode:
    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(st.text(max_size=3), st.integers(-3, 3), st.sampled_from(["A", "B", ""])),
            max_size=80,
        )
    )
    def test_one_pass_equals_two_passes(self, values):
        names, codes = ordsim.stats._encode(values)
        want_names, want_codes = _two_pass_encode(values)
        assert names == want_names and type(names) is tuple
        assert codes.dtype == np.intp and codes.tolist() == want_codes.tolist()


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


def _head_sum_from_zero(n, m):
    """C(n, 0) + ... + C(n, m) by the recurrence from C(n, 0) alone."""
    term = total = 1
    for i in range(m):
        term = term * (n - i) // (i + 1)
        total += term
    return total


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

    def test_head_sum_equals_math_comb_sums(self):
        # Every n up to 150 and every m: walks from C(n, 0), and up and down
        # from the middle, for odd and even n.
        for n in range(151):
            for m in range(n + 1):
                assert _binomial_head_sum(n, m) == sum(math.comb(n, i) for i in range(m + 1))

    @pytest.mark.parametrize("n", [10_000, 10_001])
    def test_head_sum_spot_checks_at_ten_thousand(self, n):
        h = n // 2
        for m in (0, 1, 2, h // 2, h // 2 + 1, h - 1, h, h + 1, h + 2, n - h // 2, n - 1, n):
            assert _binomial_head_sum(n, m) == _head_sum_from_zero(n, m), m
        # The middle itself: half of 2**n, and for even n half of C(n, h) more.
        assert _binomial_head_sum(n, h) == (2**n + (math.comb(n, h) if n % 2 == 0 else 0)) // 2

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

    @staticmethod
    def _mpmath_sf(t, df):
        # P(T > t) at the float t, from 40-digit mpmath.
        with mpmath.workdps(40):
            x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
            half = mpmath.betainc(
                mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True
            ) / 2
            return half if t >= 0 else 1 - half

    def test_tail_function_against_mpmath(self):
        # Accuracy target for df <= 1000: 1e-14 absolute, and 1e-12 relative
        # where p <= 1e-3.  df = 319 and 39 are the paired and leave-one-
        # dataset-out t-tests of the benchmark's 8-model x 40-dataset grid.
        # |t| = 1e-9 at df >= 319 makes df / (df + t²) round to 1, which an
        # incomplete beta of that argument turns into a p-value of exactly
        # 0.5, 4e-10 off; (5.84, 918) has p = 3.7e-9, where a head/tail switch
        # taken too late loses relative accuracy.
        rng = np.random.default_rng(2026)
        cases = [
            (t, df)
            for df in (1, 2, 3, 4, 5, 10, 39, 76, 200, 319, 320, 918, 1000)
            for t in (-7.5, -2.2, -0.5, -1e-4, -1e-9, 0.0, 1e-9, 1e-4, 0.5, 2.2, 7.2006, 25.0)
        ]
        cases.append((5.84, 918))
        cases += [
            (float(rng.normal(0.0, 1.0) * rng.choice([1.0, 3.0, 8.0])), int(rng.integers(1, 1001)))
            for _ in range(200)
        ]
        for t, df in cases:
            expected = self._mpmath_sf(t, df)
            p = _student_t_sf(t, df)
            assert abs(p - expected) <= 1e-14, (t, df)
            if expected <= 1e-3:
                assert abs(p - expected) <= 1e-12 * expected, (t, df)

    @pytest.mark.parametrize("df", [1, 2, 10**5, 10**6])
    def test_tail_function_at_large_df_and_extreme_t(self, df):
        for t in (0.0, 1e-300, -1e-300, 1e300, -1e300, 40.0, -40.0):
            p = _student_t_sf(t, df)
            assert 0.0 <= p <= 1.0
            assert abs(p - float(scipy.stats.t.sf(t, df))) <= 1e-12, t
        assert _student_t_sf(0.0, df) == 0.5

    def test_tail_function_past_one_ratio_block_against_mpmath(self):
        # Here the series runs past the 65,536-term ratio table, in blocks
        # of that many terms (the tail form at every df, the head form from
        # df = 131,076 on); worst relative error 5.4e-12, at (3, 200,001).
        for df in (65_535, 65_536, 131_073, 200_001, 1_000_000):
            for t in (2.0, 3.0, 4.5, 5.0, 7.5):
                expected = self._mpmath_sf(t, df)
                assert abs(_student_t_sf(t, df) - expected) <= 1e-11 * expected, (t, df)

    def test_tail_function_cost_at_df_100000(self):
        # The series has df / 2 terms at most near t = 0 (0.2-0.3 ms); the
        # first call grows the coefficient tables, so it is left out.
        for t in (0.0, 1e-300, 1.0, 3.0, 40.0):
            _student_t_sf(t, 10**5)
            best = min(timeit.repeat(lambda: _student_t_sf(t, 10**5), number=1, repeat=5))
            assert best < 1e-3, (t, best)

    def test_bundled_table_t_tails_against_mpmath(self):
        # Both t-tests of every compare on table2.csv (df 76 and 6) come
        # within a few units in the last place of mpmath; scipy's betainc at
        # a rounded df / (df + t²) was up to 1.8e-15 relative off here.
        table = load_results(fixture_path("table2.csv"))
        for a, b in itertools.permutations(["recos", "cos", "decos"], 2):
            for alternative in ("greater", "two-sided"):
                report = compare(table, a, b, alternative)
                for result in (report.t_test, report.lodo):
                    t, df = result.statistic, result.n_used - 1
                    if alternative == "greater":
                        expected = self._mpmath_sf(t, df)
                    else:
                        expected = min(1, 2 * self._mpmath_sf(abs(t), df))
                    assert abs(result.p_value - expected) <= 1e-15 * expected, (a, b, alternative)


_SPLITTER = 2.0**27 + 1
_FACTORS = st.one_of(
    st.floats(min_value=-(2.0**996), max_value=2.0**996, exclude_min=True, exclude_max=True),
    # Powers of two, and Veltkamp's splitter and its neighbours, scaled.
    st.builds(
        lambda base, k, sign: sign * math.ldexp(base, k),
        st.sampled_from([1.0, _SPLITTER, math.nextafter(_SPLITTER, 0.0),
                         math.nextafter(_SPLITTER, math.inf), 1 + 2.0**-52, 2 - 2.0**-52]),
        st.integers(-900, 900),
        st.sampled_from([1.0, -1.0]),
    ),
)


class TestProductError:
    # x·y - fl(x·y) is a multiple of ulp(x)·ulp(y), so a double once the
    # product is at least 2^-968; a normal product nearer the underflow can
    # have an error below 2^-1074.
    @staticmethod
    def _check(x, y):
        p = x * y
        assume(math.isfinite(p) and abs(p) >= 2.0**-968)
        assert Fraction(x) * Fraction(y) - Fraction(p) == Fraction(_product_error(x, y, p))

    @given(_FACTORS, _FACTORS)
    @example(_SPLITTER, math.nextafter(_SPLITTER, 0.0))
    @example(-math.nextafter(_SPLITTER, math.inf), 0.1)
    @example(2.0**500, 2.0**-700)
    @settings(max_examples=500)
    def test_is_the_exact_error_of_the_product(self, x, y):
        self._check(x, y)

    @given(_FACTORS)
    @example(_SPLITTER)
    @example(math.nextafter(_SPLITTER, math.inf) * 2.0**400)
    @settings(max_examples=300)
    def test_is_the_exact_error_of_a_square(self, a):
        self._check(a, a)


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

    @given(
        st.lists(
            st.floats(0, 1) | st.sampled_from([0.0, 5e-324, 0.05, 1.0]), min_size=1, max_size=40
        )
    )
    @settings(max_examples=300)
    def test_bit_identical_to_a_per_element_conversion(self, ps):
        # The range check by min and max, and out.tolist(), as the earlier
        # elementwise mask and float() per element.
        p = np.asarray(ps, dtype=np.float64)
        m = p.size
        order = np.argsort(p, kind="stable")
        adjusted = np.minimum(np.minimum.accumulate((p[order] * m / np.arange(1, m + 1))[::-1])[::-1], 1.0)
        out = np.empty(m)
        out[order] = adjusted
        got = benjamini_hochberg(ps)
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [float(x).hex() for x in out]

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


# The five functions that take a sample, the name each gives it and the error
# each raises; they share ranks._as_array, so the same malformed sample gets
# the same message from all five.
SAMPLE_TAKERS = [
    ("average_ranks", average_ranks, "x", InvalidVectorError),
    ("spearman_rho", lambda xs: spearman_rho(xs, [0.1, 0.2]), "x", InvalidVectorError),
    (
        "PairedDiffs",
        lambda xs: PairedDiffs(xs, tuple(("m", f"d{i}") for i in range(len(xs)))),
        "differences",
        DegenerateInputError,
    ),
    ("cohens_d_pooled", lambda xs: cohens_d_pooled(xs, [0.1, 0.2]), "samples", DegenerateInputError),
    ("benjamini_hochberg", benjamini_hochberg, "p-values", DegenerateInputError),
]


@pytest.mark.parametrize(
    "values, message",
    [
        (["a", "b"], " must be numeric: "),
        ([[0.5, 0.5]], r" must be 1-d, got shape \(1, 2\)$"),
        ([], " must be non-empty$"),
        ([0.5, math.nan], " must be finite$"),
    ],
    ids=["non-numeric", "2-d", "empty", "nan"],
)
@pytest.mark.parametrize(
    "call, name, error", [t[1:] for t in SAMPLE_TAKERS], ids=[t[0] for t in SAMPLE_TAKERS]
)
def test_every_sample_taker_gives_the_same_four_messages(call, name, error, values, message):
    with pytest.raises(error, match="^" + name + message):
        call(values)


@st.composite
def _lodo_tables(draw):
    """(datasets, values): cent-valued or wide float values, sometimes with
    one dataset's values scaled to dwarf the rest."""
    n = draw(st.integers(1, 300))
    labels = st.sampled_from(["A", "B", "C", "STS12", "STS-B", "b", ""])
    datasets = draw(st.lists(labels, min_size=n, max_size=n))
    value = draw(
        st.sampled_from(
            [
                st.integers(-10_000, 10_000).map(lambda c: c / 100.0),
                # Subnormals and tiny values included.
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                # 53-bit mantissas times 2^-70 .. 2^-20: magnitudes 1e-21 .. 9e9.
                st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-70, -20)),
            ]
        )
    )
    values = draw(st.lists(value, min_size=n, max_size=n))
    if draw(st.booleans()):
        big = draw(st.sampled_from(datasets))
        scale = draw(st.sampled_from([1e4, 1e8, 1e12]))
        values = [x * scale if ds == big else x for x, ds in zip(values, datasets)]
    return datasets, values


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

    def test_codes_number_datasets_in_order_of_first_appearance(self):
        # One exclusion mean per distinct dataset, whatever its name or count.
        d = diffs(0.1, 0.5, 0.2, 0.9, 0.3, 0.4, datasets=["C", "A", "C", "", "A", "C"])
        assert d._datasets.tolist() == [0, 1, 0, 2, 1, 0]
        r = leave_one_dataset_out(d)
        assert r.n_used == 3
        # Drop C -> mean(0.5, 0.9, 0.3), drop A -> mean(0.1, 0.2, 0.9, 0.4),
        # drop "" -> mean(0.1, 0.5, 0.2, 0.3, 0.4).
        means = [(0.5 + 0.9 + 0.3) / 3, (0.1 + 0.2 + 0.9 + 0.4) / 4, 1.5 / 5]
        ref = scipy.stats.ttest_1samp(means, 0.0, alternative="greater")
        assert r.statistic == pytest.approx(float(ref.statistic), rel=1e-12)
        assert r.p_value == pytest.approx(float(ref.pvalue), rel=1e-12)

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

    def test_equal_exclusion_means_name_the_lodo_test(self):
        # Drop A -> mean(2, 2) = 2, drop B -> mean(1, 3) = 2; the paired t is 4.90.
        d = diffs(1.0, 3.0, 2.0, 2.0, datasets=["A", "A", "B", "B"])
        assert paired_t_test(d).statistic == pytest.approx(2 / math.sqrt(2 / 3 / 4))
        message = "leave-one-dataset-out t-test is undefined: all 2 exclusion means are equal"
        for alternative in ("greater", "two-sided"):
            with pytest.raises(DegenerateInputError, match=f"^{message}$"):
                leave_one_dataset_out(d, alternative)

    def test_bundled_table_lodo_t_is_correctly_rounded(self):
        # The exact t over the Fraction exclusion means of the float diffs is
        # 69.7836299330098914...; a sum of the kept cells per exclusion gave
        # 69.78362993300995.
        table = load_results(fixture_path("table2.csv"))
        assert compare(table, "recos", "decos").lodo.statistic == 69.78362993300989
        assert compare(table, "decos", "recos").lodo.statistic == -69.78362993300989

    def test_cost_with_one_dataset_per_value(self):
        # Each value its own dataset: one bincount over the codes, a few ms
        # with the PairedDiffs built, where a kept-cell sum per exclusion
        # took 1 s.
        x = np.random.default_rng(20_000).standard_normal(20_000)
        leave_one_dataset_out(PairedDiffs.from_values(x))
        best = min(
            timeit.repeat(
                lambda: leave_one_dataset_out(PairedDiffs.from_values(x)), number=1, repeat=3
            )
        )
        assert best < 0.05, best

    def test_overflowing_exclusion_sum_is_rescaled(self):
        # The total 1e308 is finite, but dropping B leaves 1e308 + 1e308.
        values = [1e308, -1e308, 1e308]
        r = leave_one_dataset_out(diffs(*values, datasets="ABC"))
        scaled = leave_one_dataset_out(diffs(*(x * 2**-4 for x in values), datasets="ABC"))
        assert math.isfinite(r.statistic)
        assert r == scaled

    @settings(max_examples=300, deadline=None)
    @given(_lodo_tables(), st.sampled_from(["greater", "two-sided"]))
    def test_within_forward_error_bound_of_exact_arithmetic(self, exact_lodo, cells, alternative):
        datasets, values = cells
        d = PairedDiffs.from_values(values, datasets=datasets)
        try:
            outcome = leave_one_dataset_out(d, alternative)
        except DegenerateInputError as exc:
            outcome = exc
        exact_lodo(d, alternative, outcome)
