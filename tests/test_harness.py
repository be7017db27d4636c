"""Evaluation and comparison harness mechanics."""

import dataclasses
import itertools
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordsim.harness
import ordsim.io
import ordsim.metrics
import ordsim.ranks
import ordsim.stats
from ordsim import (
    ComparisonReport,
    CoverageMismatchError,
    DegenerateInputError,
    DenseVector,
    EvalReport,
    InvalidVectorError,
    MetricKind,
    PairDataset,
    PairedDiffs,
    PairRecord,
    ResultsRow,
    ResultsTable,
    benjamini_hochberg,
    cohens_d_pooled,
    compare,
    cosine,
    descriptive_stats,
    evaluate,
    fixture_path,
    leave_one_dataset_out,
    load_pairs,
    load_results,
    paired_t_test,
    recos,
    save_pairs,
    save_results,
    sign_test,
    similarity,
    spearman_rho,
    wilcoxon_signed_rank,
)


def _dataset_from_sims(golds, pairs, name="synth"):
    records = tuple(
        PairRecord(gold=g, u=DenseVector(u), v=DenseVector(v))
        for g, (u, v) in zip(golds, pairs)
    )
    return PairDataset(name=name, dim=len(pairs[0][0]), records=records)


def _rank_then_pearson(sims, golds):
    def ranks(xs):
        return [
            sum(1 for x in xs if x < xi) + (sum(1 for x in xs if x == xi) + 1) / 2
            for xi in xs
        ]

    ra, rb = ranks(sims), ranks(golds)
    n = len(ra)
    ma, mb = math.fsum(ra) / n, math.fsum(rb) / n
    num = math.fsum((a - ma) * (b - mb) for a, b in zip(ra, rb))
    da = math.fsum((a - ma) ** 2 for a in ra)
    db = math.fsum((b - mb) ** 2 for b in rb)
    return num / math.sqrt(da * db)


def _stable_sort_rho(x, y):
    """Reference spearman_rho: average ranks from a stable sort with tie
    groups built on every call, centered by their mean."""

    def centered(xs):
        order = np.argsort(xs, kind="stable")
        sorted_vals = xs[order]
        boundaries = np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
        starts = np.flatnonzero(boundaries)
        counts = np.diff(np.append(starts, xs.size))
        ranks = np.empty(xs.size)
        ranks[order] = (starts + (counts + 1) / 2.0)[np.cumsum(boundaries) - 1]
        dr = ranks - ranks.mean()
        return dr, float(np.dot(dr, dr))

    (dx, ssx), (dy, ssy) = centered(x), centered(y)
    rho = float(np.dot(dx, dy)) / float(np.sqrt(ssx * ssy))
    return min(1.0, max(-1.0, rho))


class TestEvaluate:
    def test_perfect_agreement(self):
        rng = np.random.default_rng(163)
        pairs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(6)]
        golds = [cosine(u, v) for u, v in pairs]
        report = evaluate(_dataset_from_sims(golds, pairs), MetricKind.COS)
        assert report.rho_x100 == 100.0
        assert report.n_pairs == 6
        assert report.metric is MetricKind.COS

    def test_reversed_agreement(self):
        rng = np.random.default_rng(167)
        pairs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(6)]
        golds = [-cosine(u, v) for u, v in pairs]
        report = evaluate(_dataset_from_sims(golds, pairs), "cos")
        assert report.rho_x100 == -100.0

    def test_five_pair_oracle(self):
        rng = np.random.default_rng(173)
        pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(5)]
        golds = rng.uniform(0, 5, 5).tolist()
        report = evaluate(_dataset_from_sims(golds, pairs), MetricKind.RECOS)
        from ordsim import recos

        sims = [recos(u, v) for u, v in pairs]
        assert report.rho_x100 == pytest.approx(
            100 * _rank_then_pearson(sims, golds), abs=1e-9
        )

    def test_deterministic(self):
        rng = np.random.default_rng(179)
        pairs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(8)]
        golds = rng.uniform(0, 5, 8).tolist()
        ds = _dataset_from_sims(golds, pairs)
        assert evaluate(ds, "recos") == evaluate(ds, "recos")

    def test_constant_sims_degenerate(self):
        u = [1.0, 2.0]
        pairs = [(u, u), (u, u), (u, u)]
        ds = _dataset_from_sims([1.0, 2.0, 3.0], pairs)
        with pytest.raises(DegenerateInputError):
            evaluate(ds, "cos")

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_a_constant_side_is_named_scores_first(self, kind):
        constant = "spearman_rho is undefined for a constant sequence"
        # One-component rows with u = v score exactly 1.0 under every kind.
        same = [([x], [x]) for x in (1.0, 2.0, -3.0)]
        # Distinct scores under every kind: recos 0.8, 1, -1 and so on.
        spread = [([1.0, 2.0], v) for v in ([2.0, 1.0], [1.0, 2.0], [-1.0, -2.0])]
        scores = f"{kind.value} scores of dataset"
        for golds, pairs, name, message in [
            ([1.0, 2.0, 3.0], same, "same", f"{scores} 'same' are all equal"),
            ([2.0, 2.0, 2.0], same, "both", f"{scores} 'both' are all equal"),
            ([2.0, 2.0, 2.0], spread, "flat", "gold of dataset 'flat' is constant"),
        ]:
            with pytest.raises(DegenerateInputError) as err:
                evaluate(_dataset_from_sims(golds, pairs, name), kind)
            assert str(err.value) == f"{message}: {constant}"

    @pytest.mark.parametrize(
        "value",
        [*MetricKind, *(k.value for k in MetricKind), np.str_("cos"), "COS", "", None, 1, ["cos"]],
    )
    def test_kind_lookup_answers_as_the_enum_call(self, value):
        want = _outcome(lambda: MetricKind(value))
        got = _outcome(lambda: ordsim.metrics._metric_kind(value))
        assert got is want if isinstance(want, MetricKind) else got == want

    def test_unknown_kind_is_a_typed_error(self):
        ds = _dataset_from_sims([1.0, 2.0], [([1.0, 2.0], [2.0, 1.0])] * 2)
        with pytest.raises(DegenerateInputError) as err:
            evaluate(ds, "euclid")
        assert str(err.value) == (
            "unknown metric kind 'euclid'; expected one of recos, cos, decos, tanimoto"
        )

    def test_reports_match_the_stable_sort_ranker(self):
        # 500 pairs at d=768 with 0-10 gold in steps of 0.1 (so gold ties),
        # built as the eval-d768 benchmark workload builds its dataset.
        rng = np.random.default_rng(768)
        n, d = 500, 768
        U = rng.standard_normal((n, d))
        sign = np.where(rng.random((n, 1)) < 0.25, -1.0, 1.0)
        V = sign * U + rng.uniform(0.2, 3.0, (n, 1)) * rng.standard_normal((n, d))
        cos = np.einsum("ij,ij->i", U, V) / (
            np.linalg.norm(U, axis=1) * np.linalg.norm(V, axis=1)
        )
        gold = np.round(5.0 + 5.0 * np.clip(cos + rng.normal(0.0, 0.1, n), -1.0, 1.0), 1)
        ds = PairDataset._from_columns("eval", gold, U, V)
        for kind in MetricKind:
            sims = np.array([similarity(kind, u, v) for u, v in zip(U, V)])
            want = 100.0 * _stable_sort_rho(sims, gold)
            assert evaluate(ds, kind).rho_x100.hex() == want.hex()

    def test_decos_scores_a_row_whose_halved_squared_norm_underflows(self):
        # Row 0's |u|^2 + |v|^2 is 5e-324, whose half rounds to 0.0, and its
        # u.v == 0 makes it a branch row; decos is 0.0 there, the true value.
        pairs = [([2.2e-162], [0.0]), ([1.0], [2.0]), ([1.0], [-1.0])]
        report = evaluate(_dataset_from_sims([1.0, 2.0, 0.0], pairs), "decos")
        assert report.rho_x100 == 100.0

    def test_non_finite_score_names_its_row(self):
        # tanimoto's aa + bb - d is inf - inf on row 4, so its score is NaN.
        rng = np.random.default_rng(181)
        U = rng.standard_normal((10, 3))
        V = rng.standard_normal((10, 3))
        U[4] = V[4] = [1e200, 2e200, -1e200]
        ds = PairDataset._from_columns("wide", np.arange(10.0), U, V)
        with pytest.raises(InvalidVectorError) as err:
            evaluate(ds, "tanimoto")
        assert str(err.value) == "tanimoto score of row 4 of dataset 'wide' is not finite: nan"


def _outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def _per_pair(ds, kind):
    """Scores and report from one ``similarity`` call per pair: the reference."""
    sims = []

    def run():
        for u, v in zip(ds.U, ds.V):
            sims.append(similarity(kind, u, v))
        # evaluate names the first pair whose score cannot be ranked.
        bad = [i for i, s in enumerate(sims) if not math.isfinite(s)]
        if bad:
            raise InvalidVectorError(
                f"{MetricKind(kind).value} score of row {bad[0]} of dataset "
                f"{ds.name!r} is not finite: {sims[bad[0]]!r}"
            )
        # evaluate names the constant side, the scores first.
        constant = "spearman_rho is undefined for a constant sequence"
        if min(sims) == max(sims):
            raise DegenerateInputError(
                f"{MetricKind(kind).value} scores of dataset {ds.name!r} are all equal: "
                f"{constant}"
            )
        if ds.gold.min() == ds.gold.max():
            raise DegenerateInputError(f"gold of dataset {ds.name!r} is constant: {constant}")
        rho = spearman_rho(sims, ds.gold)
        return EvalReport(ds.name, MetricKind(kind), 100.0 * rho, ds.n)

    report = _outcome(run)
    return (np.array(sims) if len(sims) == ds.n else None), report


def _evaluated(ds, kind):
    """``evaluate``'s report, with the scores it ranked, in row order, as
    ``_RowValues.sorted_scores`` hands them over before evaluate checks
    that they are finite."""
    seen = []
    real = ordsim.metrics._RowValues.sorted_scores

    def spy(rows, kind, rescore):
        out = real(rows, kind, rescore)
        seen.append(np.array(out[0], dtype=np.float64))
        return out

    with mock.patch.object(ordsim.metrics._RowValues, "sorted_scores", spy):
        report = _outcome(lambda: evaluate(ds, kind))
    return (seen[0] if seen else None), report


def _assert_parity(ds):
    """Every kind's report and scores equal the per-pair loop's, whatever the
    dataset has computed and kept: on two fresh datasets with ds's columns,
    the four kinds run in two orders each, and every kind twice in a row."""
    want = {kind: _per_pair(ds, kind) for kind in MetricKind}
    kinds = list(MetricKind)
    for first in (kinds, kinds[::-1]):
        fresh = PairDataset._from_columns(ds.name, ds.gold, ds.U, ds.V)
        for kind in first + first[::-1]:
            want_sims, want_report = want[kind]
            for _ in range(2):
                got_sims, got = _evaluated(fresh, kind)
                assert got == want_report, kind
                if want_sims is None:
                    assert got_sims is None, kind
                else:
                    assert got_sims.tobytes() == want_sims.tobytes(), kind


def _columns_dataset(gold, U, V):
    records = [PairRecord(g, DenseVector(u), DenseVector(v)) for g, u, v in zip(gold, U, V)]
    return PairDataset("parity", U.shape[1], records)


def _seeded_columns(seed, n, d):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n, d)) * np.exp2(rng.integers(-30, 31, (n, 1)))
    sign = np.where(rng.random((n, 1)) < 0.3, -1.0, 1.0)
    V = sign * U + rng.uniform(0.1, 3.0, (n, 1)) * rng.standard_normal((n, d))
    gold = np.round(rng.uniform(0, 5, n), 1)
    return gold, U, V


@st.composite
def _datasets(draw):
    n = draw(st.integers(2, 150))
    d = draw(st.integers(1, 50))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scales = draw(st.sampled_from(["integers", "one", "two"]))
    if scales == "integers":
        # Small integers: exact zero dots, zero rows, ties and repeats.
        U = rng.integers(-2, 3, (n, d)).astype(np.float64)
        V = rng.integers(-2, 3, (n, d)).astype(np.float64)
    else:
        # Most exponents near 1; the rest reach overflow and subnormals.
        # Two exponents can overflow one norm and underflow the other while
        # u.v stays finite.
        exponents = st.one_of(st.integers(-60, 60), st.integers(-1100, 1000))
        ku = draw(exponents)
        kv = ku if scales == "one" else draw(exponents)
        U = np.ldexp(rng.standard_normal((n, d)), ku)
        V = np.ldexp(rng.standard_normal((n, d)), kv)
    gold = rng.integers(0, 6, n).astype(np.float64)
    return _columns_dataset(gold, U, V)


class TestBlockParity:
    """evaluate scores blocks of rows at once, bit for bit as similarity does per pair."""

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 128, 129, 150])
    @pytest.mark.parametrize("d", [1, 2, 7, 50])
    def test_seeded(self, n, d):
        _assert_parity(_columns_dataset(*_seeded_columns(1000 * n + d, n, d)))

    @given(_datasets())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis(self, ds):
        _assert_parity(ds)

    def test_loaded_dataset(self, tmp_path):
        path = tmp_path / "pairs.csv"
        save_pairs(_columns_dataset(*_seeded_columns(7, 130, 48)), path)
        _assert_parity(load_pairs(path))

    def test_exact_zero_dots_and_repeated_rows(self):
        gold, U, V = _seeded_columns(11, 70, 3)
        U[5], V[5] = [1.0, 2.0, 0.0], [2.0, -1.0, 5.0]  # u.v == 0 exactly
        U[66], V[66] = [3.0, 0.0, -4.0], [4.0, 9.0, 3.0]
        U[20:40], V[20:40] = U[19], V[19]  # ties across the whole run
        ds = _columns_dataset(gold, U, V)
        assert recos(U[5], V[5]) == 0.0
        _assert_parity(ds)

    def test_zero_row_raises_as_before(self):
        gold, U, V = _seeded_columns(13, 100, 4)
        U[70] = 0.0
        ds = _columns_dataset(gold, U, V)
        with pytest.raises(DegenerateInputError, match="cosine is undefined for a zero vector"):
            evaluate(ds, "cos")
        _assert_parity(ds)

    def test_zero_row_errors_come_before_constant_gold(self):
        gold, U, V = _seeded_columns(29, 100, 4)
        gold[:] = 2.5
        U[70] = 0.0
        ds = _columns_dataset(gold, U, V)
        for _ in range(2):
            with pytest.raises(DegenerateInputError, match="cosine is undefined for a zero vector"):
                evaluate(ds, "cos")
        with pytest.raises(DegenerateInputError, match="undefined for a constant sequence"):
            evaluate(ds, "recos")
        _assert_parity(ds)

    def test_overflowing_pair_keeps_scalar_value(self):
        # u.v overflows to inf; the per-pair metrics answer -1.0 for recos.
        gold, U, V = _seeded_columns(17, 66, 2)
        U[65] = V[65] = [1e200, 2e200]
        ds = _columns_dataset(gold, U, V)
        assert recos(U[65], V[65]) == -1.0
        _assert_parity(ds)

    def test_split_scale_rows_stay_in_the_row_path(self):
        # |u|^2 overflows and |v|^2 underflows to 0 while u.v stays finite:
        # decos and tanimoto divide by inf, which gives the scalar +/-0.0,
        # and cos by inf * 0 = NaN, a branch row.
        gold, U, V = _seeded_columns(47, 90, 6)
        U[40:50] *= 2.0**600
        V[40:50] *= 2.0**-600
        ds = _columns_dataset(gold, U, V)
        _assert_parity(ds)
        calls = {}
        for kind in MetricKind:
            spy = mock.Mock(wraps=similarity)
            with mock.patch.object(ordsim.harness, "similarity", spy):
                evaluate(ds, kind)
            calls[kind] = spy.call_count
        assert calls == {
            MetricKind.RECOS: 0, MetricKind.COS: 10, MetricKind.DECOS: 0, MetricKind.TANIMOTO: 0
        }

    def test_overflowing_dataset_warns_from_neither_io_nor_harness(self):
        gold, U, V = _seeded_columns(31, 130, 3)
        U[100] = V[100] = [1e200, 2e200, -1e200]
        ds = _columns_dataset(gold, U, V)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for kind in MetricKind:
                _outcome(lambda: evaluate(ds, kind))  # tanimoto's score is NaN here
        sources = {Path(w.filename).name for w in caught}
        assert not sources & {"io.py", "harness.py"}, sources

    def test_each_row_dot_pass_runs_once_per_dataset(self, monkeypatch):
        gold, U, V = _seeded_columns(37, 150, 20)
        ds = _columns_dataset(gold, U, V)
        full, block_rows = [], []
        real_dots = ordsim.metrics._row_dots

        def counted(a, b):
            if a.shape[0] == ds.n:
                full.append((a, b))
            else:
                block_rows.append(a.shape[0])
            return real_dots(a, b)

        ranked = []
        real_ranks = ordsim.ranks._sorted_centered_ranks
        real_scores = ordsim.metrics._RowValues.sorted_scores

        def counted_ranks(x):
            ranked.append(x)
            return real_ranks(x)

        def counted_scores(rows, kind, rescore):
            out = real_scores(rows, kind, rescore)
            ranked.append(out[0])
            return out

        monkeypatch.setattr(ordsim.metrics, "_row_dots", counted)
        # Gold is ranked once, by its ranks._Ranked, the scores by evaluate
        # from the sort that _RowValues.sorted_scores makes.
        monkeypatch.setattr(ordsim.ranks, "_sorted_centered_ranks", counted_ranks)
        monkeypatch.setattr(ordsim.metrics._RowValues, "sorted_scores", counted_scores)
        for _ in range(2):
            for kind in MetricKind:
                evaluate(ds, kind)
        # One pass each for u.v, u.u and v.v; recos sorts in blocks of at
        # most 64 rows, every row once per dataset.
        assert [(a is ds.U, b is ds.V, a is b) for a, b in full] == [
            (True, True, False), (True, False, True), (False, True, True)
        ]
        assert max(block_rows) <= 64 and sum(block_rows) == ds.n
        assert sum(x is ds.gold for x in ranked) == 1 and len(ranked) == 9

    def test_kept_values_are_read_only_and_not_part_of_the_value(self):
        ds = _columns_dataset(*_seeded_columns(41, 80, 5))
        twin = PairDataset._from_columns(ds.name, ds.gold.copy(), ds.U.copy(), ds.V.copy())
        for kind in MetricKind:
            evaluate(ds, kind)
        rows = ds._rows
        kept = [
            rows.dots, *rows.squared_norms, rows.sorted_dots, ds._ranked.centered,
            ds._ranked.tie_free[0],
        ]
        assert not any(arr.flags.writeable for arr in kept)
        positions, sum_sq = ds._ranked.tie_free
        assert positions.tolist() == [i - (ds.n - 1) / 2 for i in range(ds.n)]
        assert sum_sq == (ds.n**3 - ds.n) / 12
        assert vars(rows)["has_zero_dot"] is False
        assert not {"_rows", "_ranked"} & set(vars(twin))
        assert ds == twin and hash(ds) == hash(twin) and repr(ds) == repr(twin)
        evaluate(twin, "cos")
        assert ds == twin and hash(ds) == hash(twin) and repr(ds) == repr(twin)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_each_kind_keeps_only_what_it_reads(self, kind):
        # recos needs no norms and the other kinds no sort, so a fresh
        # dataset scored once by one kind does no work for another.
        ds = _columns_dataset(*_seeded_columns(43, 70, 5))
        evaluate(ds, kind)
        kept = set(vars(ds._rows))
        if kind is MetricKind.RECOS:
            assert kept >= {"dots", "sorted_dots"} and "squared_norms" not in kept
        else:
            assert kept >= {"dots", "squared_norms"} and "sorted_dots" not in kept

    def test_only_tied_scores_build_their_ranks(self):
        # Row 7 is (2u, v) for row 3's (u, v).  Doubling is exact, so recos
        # and cos score the two rows alike, and decos and tanimoto do not.
        rng = np.random.default_rng(53)
        U, V = rng.standard_normal((2, 40, 5))
        U[7], V[7] = 2.0 * U[3], V[3]
        ds = _columns_dataset(np.round(rng.uniform(0, 5, 40), 1), U, V)
        tied = {
            kind: similarity(kind, U[3], V[3]) == similarity(kind, U[7], V[7])
            for kind in MetricKind
        }
        assert tied == {
            MetricKind.RECOS: True, MetricKind.COS: True,
            MetricKind.DECOS: False, MetricKind.TANIMOTO: False,
        }
        _assert_parity(ds)
        ds._ranked  # gold is ranked through _sorted_centered as well
        for kind in MetricKind:
            spy = mock.Mock(wraps=ordsim.ranks._sorted_centered)
            with mock.patch.object(ordsim.ranks, "_sorted_centered", spy):
                evaluate(ds, kind)
            assert spy.call_count == tied[kind], kind

    def test_clean_rows_never_call_similarity(self):
        ds = _columns_dataset(*_seeded_columns(19, 150, 50))
        calls = mock.Mock(wraps=similarity)
        with mock.patch.object(ordsim.harness, "similarity", calls):
            for kind in MetricKind:
                evaluate(ds, kind)
        assert calls.call_count == 0

    def test_branch_rows_go_through_similarity(self):
        gold, U, V = _seeded_columns(23, 100, 3)
        U[80], V[80] = [1.0, 1.0, 0.0], [1.0, -1.0, 7.0]  # u.v == 0 exactly
        ds = _columns_dataset(gold, U, V)
        calls = mock.Mock(wraps=similarity)
        with mock.patch.object(ordsim.harness, "similarity", calls):
            evaluate(ds, "recos")
        assert calls.call_count == 1
        kind, u, v = calls.call_args.args
        assert kind is MetricKind.RECOS
        assert np.array_equal(u, U[80]) and np.array_equal(v, V[80])


def _quotients(rows, kind):
    """The row quotients u.v / den of ``rows`` under ``kind``, before any
    rescore or clip, and whether ``kind`` clips."""
    denominator, clip = ordsim.metrics._ROW_FORMULAS[kind]
    with np.errstate(all="ignore"):
        return rows.dots / denominator(rows), clip


def _past_unit_row(kind, sign):
    """A row (u, v = sign * u) whose row quotient under ``kind`` is a few
    ulps past sign * 1, so that only the clip makes it the score.  decos'
    u = v quotient is exactly 1, so its v is scaled by 1 + 2^-52 as well."""
    U = np.random.default_rng(59).standard_normal((64, 4))
    V = sign * U * (1.0 + 2.0**-52 if kind is MetricKind.DECOS else 1.0)
    quotients, clip = _quotients(ordsim.metrics._RowValues(U, V), kind)
    i = int(np.flatnonzero(sign * quotients > 1.0)[0])
    assert clip and sign * quotients[i] - 1.0 < 1e-14
    return U[i], V[i]


_WIDE = [1e200, 2e200, -1e200, 1e200]

# (case, dimension, row, whether it is a branch row): each dataset is
# _seeded_columns(61, 80, d) with row 50 replaced.  A branch row (u.v == 0
# or a quotient that is not finite) is rescored by _RowValues._repair under
# every kind; a quotient past +/-1 is clipped without it.
_GATE_CASES = [
    *[
        (f"{kind.value} past {sign:+.0f}", 4, _past_unit_row(kind, sign), False)
        for kind in (MetricKind.RECOS, MetricKind.COS, MetricKind.DECOS)
        for sign in (1.0, -1.0)
    ],
    ("zero row, quotient NaN", 4, ([0.0] * 4, [0.0] * 4), True),
    ("u.v = inf", 4, (_WIDE, _WIDE), True),
    ("u.v = -inf", 4, (_WIDE, [-x for x in _WIDE]), True),
    ("finite quotient over u.v == 0", 4, ([1.0, 2.0, 0.0, 3.0], [2.0, -1.0, 5.0, 0.0]), True),
    # np.dot gives -3 * 0 = -0.0, the matmul +0.0: only the zero test keeps the sign.
    ("finite quotient over u.v == -0.0", 1, ([-3.0], [0.0]), True),
]


class TestEndsGate:
    """evaluate takes the row quotients as its scores when every u.v is
    nonzero and the sorted ends are finite and, for a clipped kind, inside
    [-1, 1].  Any other dataset is repaired or clipped, and gets the
    per-pair loop's scores and report or error."""

    @staticmethod
    def _dataset(d, row):
        gold, U, V = _seeded_columns(61, 80, d)
        U[50], V[50] = row
        return _columns_dataset(gold, U, V)

    @staticmethod
    def _repairs(ds, kind):
        calls = []
        real = ordsim.metrics._RowValues._repair

        def spy(rows, sims, rescore):
            calls.append(rows)
            return real(rows, sims, rescore)

        with mock.patch.object(ordsim.metrics._RowValues, "_repair", spy):
            _outcome(lambda: evaluate(ds, kind))
        return len(calls)

    @pytest.mark.parametrize("case, d, row, branch", _GATE_CASES, ids=[c[0] for c in _GATE_CASES])
    def test_a_dataset_that_fails_the_gate_gets_the_per_pair_scores(self, case, d, row, branch):
        ds = self._dataset(d, row)
        _assert_parity(ds)
        for kind in MetricKind:
            fresh = PairDataset._from_columns(ds.name, ds.gold, ds.U, ds.V)
            assert self._repairs(fresh, kind) == int(branch), kind

    def test_one_repair_before_the_sort_rescores_every_branch_row(self):
        # A zero u.v sends the dataset to _repair before the sort; the same
        # pass rescores the row whose quotient is not finite, so no sorted
        # end calls for a second one.
        gold, U, V = _seeded_columns(61, 80, 4)
        U[20], V[20] = [1.0, 2.0, 0.0, 3.0], [2.0, -1.0, 5.0, 0.0]
        U[50], V[50] = _WIDE, _WIDE
        ds = _columns_dataset(gold, U, V)
        _assert_parity(ds)
        for kind in MetricKind:
            fresh = PairDataset._from_columns(ds.name, ds.gold, ds.U, ds.V)
            assert self._repairs(fresh, kind) == 1, kind

    def test_the_zero_test_alone_catches_a_finite_quotient_over_a_zero_dot(self):
        ds = self._dataset(1, ([-3.0], [0.0]))
        for kind in (MetricKind.DECOS, MetricKind.TANIMOTO):
            quotients, _ = _quotients(ds._rows, kind)
            assert np.isfinite(quotients).all() and np.abs(quotients).max() <= 1.0
            assert quotients[50].hex() == "0x0.0p+0"
            assert similarity(kind, ds.U[50], ds.V[50]).hex() == "-0x0.0p+0"

    def test_the_zero_dot_flag_is_kept_with_the_dots(self):
        clean = _columns_dataset(*_seeded_columns(61, 80, 4))
        zero = self._dataset(4, ([1.0, 2.0, 0.0, 3.0], [2.0, -1.0, 5.0, 0.0]))
        for ds, flag in ((clean, False), (zero, True)):
            evaluate(ds, "decos")
            assert vars(ds._rows)["has_zero_dot"] is flag
            assert [self._repairs(ds, kind) for kind in MetricKind] == [int(flag)] * 4

    def test_a_dataset_without_branch_rows_is_never_repaired(self):
        # Rows scaled by up to 2^30 against unit noise put quotients a few
        # ulps past +/-1 under the clipped kinds; the clip needs no repair.
        ds = _columns_dataset(*_seeded_columns(19, 150, 50))
        assert [self._repairs(ds, kind) for kind in MetricKind for _ in range(2)] == [0] * 8
        past = [kind for kind in MetricKind if np.abs(_quotients(ds._rows, kind)[0]).max() > 1.0]
        assert past == [MetricKind.RECOS, MetricKind.COS, MetricKind.DECOS]


def _table(rows):
    return ResultsTable(tuple(ResultsRow(*r) for r in rows))


class TestCompareMechanics:
    def _synthetic(self):
        # Cent diffs m1 - m2: +10, 0, +30, -20 across 2 models x 2 datasets.
        return _table(
            [
                ("A", "m1", "D1", 50),
                ("A", "m1", "D2", 30),
                ("B", "m1", "D1", 40),
                ("B", "m1", "D2", 10),
                ("A", "m2", "D1", 40),
                ("A", "m2", "D2", 30),
                ("B", "m2", "D1", 10),
                ("B", "m2", "D2", 30),
            ]
        )

    def test_counts_and_micro_averages(self):
        r = compare(self._synthetic(), "m1", "m2")
        d = r.descriptive
        assert (d.n, d.wins, d.ties, d.losses) == (4, 2, 1, 1)
        assert r.micro_avg_a == pytest.approx(0.325, abs=1e-12)
        assert r.micro_avg_b == pytest.approx(0.275, abs=1e-12)
        assert r.method_a == "m1" and r.method_b == "m2"

    def test_wilcoxon_and_sign_hand_values(self):
        r = compare(self._synthetic(), "m1", "m2")
        # Nonzero diffs ~ (+0.1, +0.3, -0.2): magnitude ranks 1, 3, 2 -> V = 4.
        assert r.wilcoxon.statistic == 4.0
        assert r.wilcoxon.n_used == 3
        assert r.sign.statistic == 2.0
        assert r.sign.p_value == 0.5

    def test_lodo_over_datasets(self):
        r = compare(self._synthetic(), "m1", "m2")
        # Excluding D1 leaves diffs (0, -0.2); excluding D2 leaves (0.1, 0.3).
        assert r.lodo.n_used == 2

    def test_bh_covers_exactly_the_three_tests(self):
        r = compare(self._synthetic(), "m1", "m2")
        assert set(r.bh_adjusted) == {"wilcoxon", "sign", "t_test"}
        raw = {
            "wilcoxon": r.wilcoxon.p_value,
            "sign": r.sign.p_value,
            "t_test": r.t_test.p_value,
        }
        for name, adj in r.bh_adjusted.items():
            assert adj >= raw[name] - 1e-15
            assert adj <= 1.0

    def test_exact_zero_ties_from_equal_cents(self):
        r = compare(self._synthetic(), "m1", "m2")
        assert r.descriptive.ties == 1

    def test_antisymmetry_of_descriptives(self):
        t = self._synthetic()
        fwd = compare(t, "m1", "m2").descriptive
        rev = compare(t, "m2", "m1").descriptive
        assert (fwd.wins, fwd.losses) == (rev.losses, rev.wins)
        assert fwd.mean == pytest.approx(-rev.mean, abs=1e-15)

    def test_two_sided_alternative_plumbed(self):
        t = self._synthetic()
        one = compare(t, "m1", "m2", alternative="greater")
        two = compare(t, "m1", "m2", alternative="two-sided")
        assert two.sign.p_value == 1.0  # 2 of 3 successes is as central as it gets
        assert one.sign.p_value == 0.5

    def test_all_ties_degenerate(self):
        t = self._synthetic()
        with pytest.raises(DegenerateInputError):
            compare(t, "m1", "m1")

    def test_coverage_mismatch(self):
        rows = [
            ("A", "m1", "D1", 50),
            ("B", "m1", "D1", 40),
            ("A", "m2", "D1", 40),
        ]
        with pytest.raises(CoverageMismatchError, match="cover different cells"):
            compare(_table(rows), "m1", "m2")

    @pytest.mark.parametrize("a, b", [("missing", "m1"), ("m1", "missing")])
    def test_unknown_method(self, a, b):
        with pytest.raises(CoverageMismatchError) as err:
            compare(self._synthetic(), a, b)
        assert str(err.value) == "no cells for method 'missing'"


def _reference_compare(results, a, b, alternative="greater"):
    """``compare`` as it was before score columns: rows looked up cell by cell.

    Copied verbatim, except that it leaves leave-one-dataset-out to the
    caller: it returns the report with ``lodo`` None, and the diffs.
    """
    cells_a = results.cells(a)
    cells_b = results.cells(b)
    if not cells_a:
        raise CoverageMismatchError(f"no cells for method {a!r}")
    if not cells_b:
        raise CoverageMismatchError(f"no cells for method {b!r}")
    only_a = len(cells_a.keys() - cells_b.keys())
    only_b = len(cells_b.keys() - cells_a.keys())
    if only_a or only_b:
        raise CoverageMismatchError(
            f"methods {a!r} and {b!r} cover different cells: "
            f"{only_a} only in {a!r}, {only_b} only in {b!r}"
        )
    keys = list(cells_a)
    # ResultsRow.score, without a property call per cell.
    scores_a = [cells_a[k].score_cents / 100.0 for k in keys]
    scores_b = [cells_b[k].score_cents / 100.0 for k in keys]
    diffs = PairedDiffs(
        tuple(sa - sb for sa, sb in zip(scores_a, scores_b)),
        tuple(keys),
    )
    wil = wilcoxon_signed_rank(diffs, alternative)
    sgn = sign_test(diffs, alternative)
    t = paired_t_test(diffs, alternative)
    adjusted = benjamini_hochberg([wil.p_value, sgn.p_value, t.p_value])
    return ComparisonReport(
        method_a=a,
        method_b=b,
        descriptive=descriptive_stats(diffs),
        wilcoxon=wil,
        sign=sgn,
        t_test=t,
        pooled_d=cohens_d_pooled(scores_a, scores_b),
        bh_adjusted={
            "wilcoxon": adjusted[0],
            "sign": adjusted[1],
            "t_test": adjusted[2],
        },
        lodo=None,
        micro_avg_a=sum(scores_a) / len(scores_a),
        micro_avg_b=sum(scores_b) / len(scores_b),
    ), diffs


def _compare_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (CoverageMismatchError, DegenerateInputError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def _two_method_tables(draw):
    """Rows of methods "a" and "b" over a random subset of a model x dataset
    grid, so datasets hold unequal numbers of cells, with b's scores random,
    partly tied to a's, all tied, or a constant shift; every row order is
    drawn, so b's cells need not come in a's order."""
    grid = [
        (f"m{i}", f"D{j}")
        for i in range(draw(st.integers(1, 4)))
        for j in range(draw(st.integers(1, 7)))
    ]
    cells = draw(st.lists(st.sampled_from(grid), min_size=min(3, len(grid)), unique=True))
    n = len(cells)
    cents = st.lists(st.integers(-20_000, 20_000), min_size=n, max_size=n)
    a = draw(cents)
    shape = draw(st.sampled_from(["random", "some ties", "all tied", "constant"]))
    if shape == "random":
        b = draw(cents)
    elif shape == "some ties":
        tied = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        b = [x if t else y for x, y, t in zip(a, draw(cents), tied)]
    elif shape == "all tied":
        b = list(a)
    else:
        shift = draw(st.integers(-500, 500))
        b = [x - shift for x in a]
    rows = [ResultsRow(m, "a", ds, c) for (m, ds), c in zip(cells, a)]
    b_rows = [ResultsRow(m, "b", ds, c) for (m, ds), c in zip(cells, b)]
    if draw(st.integers(0, 4)) == 4:  # sometimes a coverage mismatch
        b_rows = draw(st.lists(st.sampled_from(b_rows), min_size=1, unique=True))
    rows = draw(st.permutations(rows + b_rows))
    return ResultsTable(tuple(rows))


class TestCompareMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_two_method_tables(), st.sampled_from(["greater", "two-sided"]))
    def test_same_report_or_error(self, exact_lodo, table, alternative):
        # Every field outside lodo is bit-identical to the reference's; lodo
        # is checked against exact arithmetic on the reference's diffs.
        for a, b in (("a", "b"), ("b", "a")):
            try:
                want, diffs = _reference_compare(table, a, b, alternative)
            except (CoverageMismatchError, DegenerateInputError) as exc:
                want = f"{type(exc).__name__}: {exc}"
                assert _compare_outcome(compare, table, a, b, alternative) == want
                continue
            try:
                got = compare(table, a, b, alternative)
            except DegenerateInputError as exc:
                exact_lodo(diffs, alternative, exc)
            else:
                assert repr(dataclasses.replace(got, lodo=None)) == repr(want)
                exact_lodo(diffs, alternative, got.lodo)

    def test_other_key_order_is_aligned(self):
        rows = [
            ("A", "m1", "D1", 50),
            ("B", "m1", "D2", 10),
            ("A", "m1", "D2", 30),
            ("B", "m1", "D1", 40),
            ("B", "m2", "D2", 30),
            ("A", "m2", "D1", 40),
            ("B", "m2", "D1", 10),
            ("A", "m2", "D2", 35),
        ]
        table = _table(rows)
        assert table.scores("m1")[0] != table.scores("m2")[0]
        r = compare(table, "m1", "m2")
        want, _ = _reference_compare(table, "m1", "m2")
        assert repr(dataclasses.replace(r, lodo=None)) == repr(want)
        d = r.descriptive
        assert (d.wins, d.ties, d.losses) == (2, 0, 2)
        assert r.micro_avg_b == (0.3 + 0.4 + 0.1 + 0.35) / 4


class TestPublishedTableBehavior:
    def test_double_subtraction_breaks_decimal_magnitude_ties(self):
        # Two cent-equal magnitudes coming from different subtractions need
        # not tie in double arithmetic; the published ranking depends on it.
        a = 50.28 - 49.97
        b = -(31.88 - 32.19)
        assert round(a, 2) == round(b, 2) == 0.31
        assert a != b

    def test_fixture_diff_extremes_print_as_published(self):
        table = load_results(fixture_path("table2.csv"))
        r = compare(table, "recos", "cos")
        assert f"{r.descriptive.min:.2f}" == "-0.31"
        assert f"{r.descriptive.max:.2f}" == "1.36"


def _public_compare(results, a, b, alternative):
    """``compare`` from the public functions alone, on
    ``PairedDiffs(scores_a - scores_b, labels)`` with b lined up to a's cells."""
    keys, scores_a = results.scores(a)
    keys_b, scores_b = results.scores(b)
    if not keys or not keys_b:
        raise CoverageMismatchError("no cells")
    if set(keys) != set(keys_b):
        raise CoverageMismatchError("cover different cells")
    position = {cell: i for i, cell in enumerate(keys_b)}
    scores_b = scores_b[[position[cell] for cell in keys]]
    diffs = PairedDiffs(scores_a - scores_b, list(keys))
    wil = wilcoxon_signed_rank(diffs, alternative)
    sgn = sign_test(diffs, alternative)
    t = paired_t_test(diffs, alternative)
    adjusted = benjamini_hochberg([wil.p_value, sgn.p_value, t.p_value])
    return ComparisonReport(
        method_a=a,
        method_b=b,
        descriptive=descriptive_stats(diffs),
        wilcoxon=wil,
        sign=sgn,
        t_test=t,
        pooled_d=cohens_d_pooled(scores_a, scores_b),
        bh_adjusted={"wilcoxon": adjusted[0], "sign": adjusted[1], "t_test": adjusted[2]},
        lodo=leave_one_dataset_out(diffs, alternative),
        micro_avg_a=sum(scores_a.tolist()) / len(keys),
        micro_avg_b=sum(scores_b.tolist()) / len(keys),
    )


def _report_bits(fn, *args):
    """repr of the report with every float as hex, or the error type."""
    try:
        report = fn(*args)
    except (CoverageMismatchError, DegenerateInputError) as exc:
        return type(exc).__name__

    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if dataclasses.is_dataclass(value):
            return tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
        if isinstance(value, dict):
            return tuple((k, bits(v)) for k, v in value.items())
        return value

    return bits(report)


@st.composite
def _shuffled_method_tables(draw):
    """Methods over the same model x dataset cells, each listing its cells,
    and so its datasets, in its own order."""
    models = [f"m{i}" for i in range(draw(st.integers(1, 3)))]
    datasets = [f"D{j}" for j in range(draw(st.integers(2, 6)))]
    grid = [(m, ds) for m in models for ds in datasets]
    cells = draw(st.lists(st.sampled_from(grid), min_size=2, unique=True))
    rows = []
    for method in ("a", "b", "c"):
        order = draw(st.permutations(cells))
        for model, dataset in order:
            rows.append(ResultsRow(model, method, dataset, draw(st.integers(-3000, 3000))))
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return ResultsTable(tuple(rows))


class TestCompareMatchesPublicFunctions:
    @settings(max_examples=300, deadline=None)
    @given(_shuffled_method_tables(), st.sampled_from(["greater", "two-sided"]))
    def test_bit_identical_reports(self, table, alternative):
        for a, b in (("a", "b"), ("b", "c"), ("c", "a")):
            want = _report_bits(_public_compare, table, a, b, alternative)
            assert _report_bits(compare, table, a, b, alternative) == want

    def test_published_table(self):
        table = load_results(fixture_path("table2.csv"))
        for a in table.methods():
            for b in table.methods():
                for alternative in ("greater", "two-sided"):
                    want = _report_bits(_public_compare, table, a, b, alternative)
                    assert _report_bits(compare, table, a, b, alternative) == want


def _exclusion_means_and_lodo(d, alternative):
    """The exclusion means of d, and its leave-one-dataset-out result, as hex."""
    codes = d._datasets
    means = ordsim.stats._exclusion_means(d._values, codes, np.bincount(codes))
    return [m.hex() for m in means.tolist()], _report_bits(leave_one_dataset_out, d, alternative)


def _compare_lodo(*args):
    return compare(*args).lodo


def _unequal_table(methods=("a", "b", "c", "d")):
    """3 models; D0 and D1 have 3 cells each, D2 has 2, D3 has 1.  Each
    method lists its cells in its own order, so compare takes the reorder path."""
    cells = [(f"m{i}", f"D{j}") for i in range(3) for j in range(4) if i < 3 - max(0, j - 1)]
    rng = np.random.default_rng(5)
    rows = []
    for method in methods:
        for k in rng.permutation(len(cells)):
            model, dataset = cells[k]
            rows.append(ResultsRow(model, method, dataset, int(rng.integers(-3000, 3000))))
    return ResultsTable(tuple(rows))


class TestLodoColumns:
    def test_exclusion_means_and_t_are_bit_identical(self):
        # A column-built PairedDiffs, with the table's read-only dataset
        # codes, and a public one over the same values give the same bits.
        table = _unequal_table()
        for a, b in (("a", "b"), ("c", "a"), ("d", "b")):
            col_a, col_b = table._method_columns(a), table._method_columns(b)
            assert not col_a.datasets.flags.writeable
            keys, _ = table.scores(b)
            order = [keys.index(cell) for cell in col_a.cells]
            values = col_a.scores - col_b.scores[order]
            kept = ordsim.stats.PairedDiffs._from_columns(
                values, lambda: col_a.cells, col_a.datasets, col_a.dataset_counts
            )
            public = PairedDiffs(values, col_a.cells)
            assert public._datasets.tolist() == col_a.datasets.tolist()
            for alternative in ("greater", "two-sided"):
                want = _exclusion_means_and_lodo(public, alternative)
                assert _exclusion_means_and_lodo(kept, alternative) == want
                assert want[1] == _report_bits(_compare_lodo, table, a, b, alternative)

    def test_table_builds_codes_once_per_method(self):
        # A table numbers its models, methods and datasets once each, and
        # each distinct cell order's dataset codes once; compare hands the
        # table's codes to its diffs: it never numbers them again, and never
        # encodes the dataset names of the labels.
        methods = ("a", "b", "c", "d")
        pairs = [(a, b) for a in methods for b in methods if a != b]
        encode = ordsim.stats._encode
        with mock.patch.object(ordsim.io, "_encode", wraps=encode) as numbered, mock.patch.object(
            ordsim.stats, "_encode", wraps=encode
        ) as encoded:
            # Each method lists its cells in its own order.
            table = _unequal_table(methods)
            assert numbered.call_count == 3 + len(methods)
            for a, b in pairs:
                for alternative in ("greater", "two-sided"):
                    compare(table, a, b, alternative)
            assert numbered.call_count == 3 + len(methods)
            assert encoded.call_count == 0
            # Methods that list their cells in one order share one numbering:
            # this table's columns, and its one cell order.
            rows = itertools.product(methods, ("m0", "m1"), ("D1", "D0", "D2"))
            _table([(model, method, ds, 10 * i) for i, (method, model, ds) in enumerate(rows)])
            assert numbered.call_count == 3 + len(methods) + 3 + 1
            d = PairedDiffs.from_values([1.0, 2.0, 4.0], datasets=["A", "B", "A"])
            leave_one_dataset_out(d)
            leave_one_dataset_out(d)
            assert (numbered.call_count, encoded.call_count) == (3 + len(methods) + 4, 1)

    def test_codes_are_read_only_and_outside_the_value(self):
        table = _unequal_table()
        fresh = _unequal_table()
        compare(table, "a", "b")
        compare(table, "c", "d")
        for method in ("a", "c"):
            codes = table._method_columns(method).datasets
            assert codes.dtype == np.intp and not codes.flags.writeable
            with pytest.raises(ValueError):
                codes[0] = 0
        assert table == fresh and hash(table) == hash(fresh) and repr(table) == repr(fresh)
        d = PairedDiffs.from_values([1.0, 2.0, 4.0], datasets=["A", "B", "A"])
        same = PairedDiffs.from_values([1.0, 2.0, 4.0], datasets=["A", "B", "A"])
        leave_one_dataset_out(d)
        assert not d._datasets.flags.writeable
        with pytest.raises(ValueError):
            d._datasets[0] = 1
        assert d == same and hash(d) == hash(same) and repr(d) == repr(same)


def _scaled_table(scale, values=range(1, 13), models=3, datasets=4):
    """models x datasets cells; in cell k, A scores values[k] * scale and B
    scores -values[k] * scale (scale a power of ten of at least 1)."""
    cents = [v * scale * 100 for v in values]
    cells = [(f"m{i}", f"D{j}") for i in range(models) for j in range(datasets)]
    return ResultsTable(
        tuple(ResultsRow(m, "A", ds, c) for (m, ds), c in zip(cells, cents))
        + tuple(ResultsRow(m, "B", ds, -c) for (m, ds), c in zip(cells, cents))
    )


@st.composite
def _separated_tables(draw):
    """(A cents, diff cents) on a models x datasets grid, with B = A - diff.

    Dataset j's diffs lie within 20 cents of 300 + 200 j cents, so the
    diffs, their dataset means and the leave-one-dataset-out means are
    spread by at least 0.2 against scores below 100.  A common scale of
    10^k rounds each score by up to 2**-53 of its size, and that spread
    keeps what this does to t, p, d_z, the pooled d and the LODO t below
    1e-12 relative.
    """
    models, datasets = draw(st.integers(2, 4)), draw(st.integers(3, 6))
    cells = models * datasets
    a = draw(st.lists(st.integers(-8000, 8000), min_size=cells, max_size=cells))
    noise = draw(st.lists(st.integers(-20, 20), min_size=cells, max_size=cells))
    diff = [300 + 200 * (i % datasets) + e for i, e in enumerate(noise)]
    return models, datasets, a, diff


def _grid_table(models, datasets, a, diff, scale):
    rows = []
    for i, (ca, cd) in enumerate(zip(a, diff)):
        model, dataset = f"m{i // datasets}", f"D{i % datasets}"
        rows.append(ResultsRow(model, "A", dataset, ca * scale))
        rows.append(ResultsRow(model, "B", dataset, (ca - cd) * scale))
    return ResultsTable(tuple(rows))


class TestLargeScores:
    """Squares of differences near 1e306 overflow; the statistics must not."""

    @settings(max_examples=150, deadline=None)
    @given(
        _separated_tables(),
        st.integers(0, 304),  # every score stays below the loader's limit, about 1.8e306
        st.sampled_from(["greater", "two-sided"]),
    )
    def test_scale_invariance(self, grid, k, alternative):
        base = compare(_grid_table(*grid, 1), "A", "B", alternative)
        scaled = compare(_grid_table(*grid, 10**k), "A", "B", alternative)
        for name, value in [
            ("t", lambda r: r.t_test.statistic),
            ("p", lambda r: r.t_test.p_value),
            ("d_z", lambda r: r.t_test.effect_size),
            ("pooled d", lambda r: r.pooled_d),
            ("lodo t", lambda r: r.lodo.statistic),
        ]:
            assert value(scaled) == pytest.approx(value(base), rel=1e-12), name

    def test_huge_scores_give_the_scaled_statistics(self):
        huge = compare(_scaled_table(10**305), "A", "B")
        small = compare(_scaled_table(10**5), "A", "B")
        d, s = huge.descriptive, small.descriptive
        for name in ("mean", "sd", "se", "median", "q1", "q3", "iqr", "min", "max"):
            assert getattr(d, name) == pytest.approx(getattr(s, name) * 1e300, rel=1e-12), name
        assert d.sd == pytest.approx(2e305 * math.sqrt(13), rel=1e-12)
        for test in ("t_test", "lodo", "wilcoxon", "sign"):
            got, want = getattr(huge, test), getattr(small, test)
            assert got.statistic == pytest.approx(want.statistic, rel=1e-12), test
            assert got.p_value == pytest.approx(want.p_value, rel=1e-12), test
            assert got.effect_size == pytest.approx(want.effect_size, rel=1e-12), test
        assert huge.t_test.statistic == pytest.approx(6.5 / math.sqrt(13 / 12), rel=1e-12)
        assert huge.pooled_d == pytest.approx(small.pooled_d, rel=1e-12)
        assert huge.pooled_d == pytest.approx(13 / math.sqrt(13), rel=1e-12)
        assert huge.micro_avg_a == pytest.approx(6.5e305, rel=1e-12)

    def test_overflowing_sums_give_the_scaled_statistics(self):
        # 150 differences near 1.55e306: the sum of all of them, and of the
        # 125 that each leave-one-dataset-out mean keeps, overflow.
        values = [70 + (k * 37) % 16 for k in range(150)]
        huge = compare(_scaled_table(10**304, values, 25, 6), "A", "B")
        small = compare(_scaled_table(10**4, values, 25, 6), "A", "B")
        assert huge.descriptive.mean == pytest.approx(small.descriptive.mean * 1e300, rel=1e-12)
        assert huge.descriptive.sd == pytest.approx(small.descriptive.sd * 1e300, rel=1e-12)
        for test in ("t_test", "lodo"):
            got, want = getattr(huge, test), getattr(small, test)
            assert got.statistic == pytest.approx(want.statistic, rel=1e-12), test
            assert got.p_value == pytest.approx(want.p_value, rel=1e-12), test
        assert huge.pooled_d == pytest.approx(small.pooled_d, rel=1e-12)

    def test_ordinary_data_never_rescales(self, monkeypatch):
        def fail(*arrays):
            raise AssertionError("rescaled")

        monkeypatch.setattr(ordsim.stats, "_power_of_two_scale", fail)
        table = load_results(fixture_path("table2.csv"))
        for a in table.methods():
            for b in table.methods():
                if a != b:
                    compare(table, a, b, "two-sided")
        compare(_scaled_table(10**100), "A", "B")


def _method_grid(seed, shuffle):
    """6 methods over 4 models x 5 datasets, a fifth of b's cells tied to a's;
    rows in grid order, so every method lists its cells in one order, or
    shuffled, so none does."""
    rng = np.random.default_rng(seed)
    cents = rng.integers(2000, 8000, (4, 5, 6))
    cents[:, :, 1] = np.where(rng.random((4, 5)) < 0.2, cents[:, :, 0], cents[:, :, 1])
    rows = [
        ResultsRow(f"m{mo}", f"x{me}", f"D{da}", int(cents[mo, da, me]))
        for mo in range(4)
        for da in range(5)
        for me in range(6)
    ]
    if shuffle:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    return ResultsTable(tuple(rows))


class TestSharedCellOrder:
    """Methods whose cells come in one order share one read-only array of
    cell codes, and with it one of dataset codes and one of counts, so
    compare sees one order by identity; shuffled rows take the reorder path
    with the reference's reports, bit for bit."""

    def _assert_shared(self, table):
        columns = [table._method_columns(method) for method in table.methods()]
        first = columns[0]
        for column in columns:
            assert column.cell_codes is first.cell_codes
            assert column.datasets is first.datasets
            assert column.dataset_counts is first.dataset_counts
        for array in (first.cell_codes, first.datasets, first.dataset_counts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert first.dataset_counts.tolist() == np.bincount(first.datasets).tolist()

    def test_one_cell_order_shares_one_array(self, tmp_path):
        table = _method_grid(0, shuffle=False)
        self._assert_shared(table)
        path = tmp_path / "grid.csv"
        save_results(table, path)
        self._assert_shared(load_results(path))

    def test_other_orders_keep_their_own(self):
        table = _unequal_table()
        codes = [table._method_columns(method).cell_codes for method in table.methods()]
        assert len({id(c) for c in codes}) == len(codes)

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_rows_take_the_reorder_path(self, seed):
        table = _method_grid(seed, shuffle=True)
        pairs = [("x0", "x1"), ("x1", "x0"), ("x2", "x5"), ("x4", "x3")]
        for a, b in pairs:
            assert table._method_columns(a).cell_codes is not table._method_columns(b).cell_codes
        # The reorder path makes the pooled d with cohens_d_pooled.
        assert TestKeptMoments()._reports(table, pairs) == 2 * len(pairs)

    def test_overflowing_differences_raise_at_the_sorted_ends(self):
        # 7.5e307 - (-1.5e308) is inf, and its negation -inf: the sorted
        # copy's last or first value.
        table = _table(
            [
                ("m", "a", "d1", 75 * 10**308),
                ("m", "b", "d1", -15 * 10**309),
                ("m", "a", "d2", 200),
                ("m", "b", "d2", 100),
                ("m", "a", "d3", 300),
                ("m", "b", "d3", 150),
            ]
        )
        for a, b in (("a", "b"), ("b", "a")):
            for alternative in ("greater", "two-sided"):
                want = _compare_outcome(_public_compare, table, a, b, alternative)
                assert want == "DegenerateInputError: differences must be finite"
                assert _compare_outcome(compare, table, a, b, alternative) == want


class TestKeptMoments:
    """compare makes the pooled d from the mean and variance each method
    keeps, and calls cohens_d_pooled on the scores where b was reordered or
    a method's peak is at or above 2**480.  Either way the report is
    _public_compare's, bit for bit."""

    def _reports(self, table, pairs):
        calls = mock.Mock(wraps=cohens_d_pooled)
        with mock.patch.object(ordsim.harness, "cohens_d_pooled", calls):
            for a, b in pairs:
                for alternative in ("greater", "two-sided"):
                    want = _report_bits(_public_compare, table, a, b, alternative)
                    assert _report_bits(compare, table, a, b, alternative) == want
        return calls.call_count

    def test_tables_in_one_cell_order_use_the_kept_moments(self):
        table = load_results(fixture_path("table2.csv"))
        pairs = [(a, b) for a in table.methods() for b in table.methods() if a != b]
        for a, b in pairs:
            compare(table, a, b)
        for method in table.methods():
            column = table._method_columns(method)
            assert column.mean_var == ordsim.stats._mean_var(column.scores)
            assert "cells" not in vars(column)  # no report reads the labels
        assert self._reports(table, pairs) == 0

    def test_reordered_cells_fall_back(self):
        # Each method lists its cells in its own order.
        assert self._reports(_unequal_table(), [("a", "b"), ("c", "a"), ("d", "b")]) == 6

    def test_kept_values_that_are_not_finite_fall_back(self):
        # Deviations near 1e306 would square to inf, and near 1e146 they
        # would not; from a peak of 2**480 on, either way, cohens_d_pooled
        # takes d from the scores and no kept mean or variance is made.
        for scale in (10**145, 10**305):
            table = _scaled_table(scale)
            assert table._method_columns("A").peak >= ordsim.stats._PEAK_LIMIT
            assert self._reports(table, [("A", "B"), ("B", "A")]) == 4
            for method in ("A", "B"):
                assert "mean_var" not in vars(table._method_columns(method))

    def test_a_pooled_variance_that_is_not_finite_falls_back(self):
        # Each method's variance, 1.28e308, is finite, and their sum is not.
        cents = 16 * 10**155
        table = _table(
            [
                ("m", "A", "D0", 0),
                ("m", "A", "D1", cents),
                ("m", "B", "D0", 0),
                ("m", "B", "D1", -cents),
            ]
        )
        for method in ("A", "B"):
            assert all(map(math.isfinite, table._method_columns(method).mean_var))
        assert self._reports(table, [("A", "B"), ("B", "A")]) == 4
        assert math.isfinite(compare(table, "A", "B").pooled_d)

    @pytest.mark.parametrize(
        "b_cents, message",
        [(50, "all differences are zero"), (40, "paired t-test requires at least 2 differences")],
    )
    def test_one_cell_raises_the_tests_error_first(self, b_cents, message):
        table = _table([("m", "a", "D", 50), ("m", "b", "D", b_cents)])
        for alternative in ("greater", "two-sided"):
            want = _compare_outcome(_public_compare, table, "a", "b", alternative)
            assert want == f"DegenerateInputError: {message}"
            assert _compare_outcome(compare, table, "a", "b", alternative) == want

    def test_labels_are_made_on_first_access(self):
        table = _unequal_table()
        column = table._method_columns("a")
        made = []

        def labels():
            made.append(1)
            return column.cells

        values = column.scores - column.scores[::-1]
        d = ordsim.stats.PairedDiffs._from_columns(
            values, labels, column.datasets, column.dataset_counts
        )
        assert made == []
        assert d.labels == column.cells and d.labels is column.cells and made == [1]
        assert d == PairedDiffs(values, column.cells) and made == [1]
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            d.nope
