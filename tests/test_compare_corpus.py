"""Bit identity of ``compare`` over a fixed corpus of results tables.

One sha256 covers the float.hex of every report field that no libm call
touches, for every ordered method pair (a == b included) under both
alternatives.  p-values go through ``erfc`` and ``atan2`` and may move by an
ulp between platforms, so they are left out.  So are the micro-averages:
Python 3.12 made ``sum`` of floats compensated, so their bits differ between
Python versions; each is checked instead against Python's own ``sum`` of the
scores in a's cell order, divided by the cell count.

The corpus is the bundled table2.csv and three seeded 8 x 40 x 6 grids, each
also with its rows shuffled, so that compare reorders b's scores, and each
of those also scaled by 10**150 and by 10**300.  Unscaled, every magnitude
is below 2**480, the peak from which the statistics may rescale; scaled by
10**150 the differences' peak is above it but their squares still sum below
2**1024; scaled by 10**300 they do not.
"""

import hashlib
import itertools

import numpy as np

from ordsim import (
    DegenerateInputError,
    ResultsRow,
    ResultsTable,
    compare,
    fixture_path,
    load_results,
)

CORPUS_SHA256 = "4261268574bac4a536b43719dc505b94dc2f711ff153b1f0888fe01ea65170d1"


def _grid_rows(seed):
    """8 models x 40 datasets x 6 methods, in grid order; some methods
    repeat the previous method's score on a cell, so there are exact ties."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(20.0, 80.0, (8, 40, 1))
    scores = base + rng.normal(0.0, 1.5, 6) + rng.normal(0.0, 2.0, (8, 40, 6))
    cents = np.rint(scores * 100.0).astype(np.int64)
    repeat = rng.random(cents.shape) < 0.15
    for m in range(1, 6):
        cents[:, :, m] = np.where(repeat[:, :, m], cents[:, :, m - 1], cents[:, :, m])
    return [
        (f"model{mo}", f"method{me}", f"data{da:02d}", int(cents[mo, da, me]))
        for mo in range(8)
        for da in range(40)
        for me in range(6)
    ]


def _corpus():
    """(name, table) for every table of the corpus."""
    table2 = load_results(fixture_path("table2.csv"))
    bases = [("table2", [(r.model, r.method, r.dataset, r.score_cents) for r in table2.rows])]
    bases += [(f"grid{seed}", _grid_rows(seed)) for seed in (1, 2, 3)]
    for name, rows in bases:
        shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        for order, ordered in (("", rows), ("-shuffled", shuffled)):
            for power in (0, 150, 300):
                scale = 10**power
                table = ResultsTable(
                    tuple(ResultsRow(m, me, ds, c * scale) for m, me, ds, c in ordered)
                )
                yield f"{name}{order}-e{power}", table


def _report_fields(report):
    """The fields of a report that no libm call touches, as float.hex."""
    s = report.descriptive
    fields = [
        s.n, s.mean, s.sd, s.se, s.median, s.q1, s.q3, s.iqr, s.min, s.max,
        s.wins, s.ties, s.losses, s.win_rate_excl_ties,
        report.wilcoxon.statistic, report.wilcoxon.n_used,
        report.sign.statistic, report.sign.n_used,
        report.t_test.statistic, report.t_test.effect_size, report.t_test.n_used,
        report.lodo.statistic, report.lodo.effect_size, report.lodo.n_used,
        report.pooled_d,
    ]
    return [v.hex() if isinstance(v, float) else repr(v) for v in fields]


def _micro_average(table, a, method):
    """Python's sum of the method's scores in a's cell order, over their count."""
    cells, _ = table.scores(a)
    cells_m, scores_m = table.scores(method)
    by_cell = dict(zip(cells_m, scores_m.tolist()))
    scores = [by_cell[cell] for cell in cells]
    return sum(scores) / len(scores)


def test_compare_reports_are_bit_identical_over_the_corpus():
    digest = hashlib.sha256()
    reports = 0
    for name, table in _corpus():
        for a, b in itertools.product(table.methods(), repeat=2):
            for alternative in ("greater", "two-sided"):
                try:
                    report = compare(table, a, b, alternative)
                except DegenerateInputError as exc:
                    outcome = [f"DegenerateInputError: {exc}"]
                else:
                    outcome = _report_fields(report)
                    assert report.micro_avg_a.hex() == _micro_average(table, a, a).hex()
                    assert report.micro_avg_b.hex() == _micro_average(table, a, b).hex()
                    reports += 1
                digest.update(repr((name, a, b, alternative, outcome)).encode())
    assert reports == 3 * 2 * 3 * (6 * 5 * 2) + 2 * 3 * (3 * 2 * 2)
    assert digest.hexdigest() == CORPUS_SHA256
