"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test covers one numbered criterion, asserts the documented tolerances,
and enforces the documented wall-time budget.  A one-line verdict per
criterion is printed in the terminal summary (see conftest.py).
"""

import itertools
import math
import time

import numpy as np

from ordsim import (
    DenseVector,
    bound_chain,
    brute_force_rearrangement,
    compare,
    cosine,
    decos,
    decos_from_tanimoto,
    load_experts,
    load_results,
    fixture_path,
    rearrangement_bound,
    recos,
    spearman_rho,
    tanimoto,
)

REL_TOL = 1e-9


def rel_close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def random_pair(rng, d):
    u = rng.normal(size=d)
    v = rng.normal(size=d)
    return u, v


def elapsed_under(t0, budget, label):
    dt = time.perf_counter() - t0
    assert dt < budget, f"{label} took {dt:.2f}s, budget {budget}s"
    return dt


# --- criterion 1: golden scores on the worked-example vectors, < 1 s ---


def test_criterion_01_golden_values():
    t0 = time.perf_counter()
    experts = load_experts(fixture_path("experts.csv"))
    e1, e4, e5, e6 = (experts[k] for k in ("e1", "e4", "e5", "e6"))

    assert abs(recos(e1, e6) - 1.0) <= 1e-9
    assert abs(cosine(e1, e5) - 1.0) <= 1e-9

    # exact pins: e1 and e4 have equal norms, so decos = cos = recos = 201/205
    pinned = [
        (decos(e1, e5), 3920 / 4001),
        (decos(e1, e4), 201 / 205),
        (cosine(e1, e4), 201 / 205),
        (cosine(e1, e6), 0.9800267825959529),
        (recos(e1, e4), 201 / 205),
    ]
    for got, want in pinned:
        assert abs(got - want) <= 1e-9, (got, want)
        assert round(got, 2) == 0.98

    elapsed_under(t0, 1.0, "criterion 1")


# --- criterion 2: bound chain on 10,000 seeded pairs, rel tol 1e-9, < 10 s ---


def test_criterion_02_bound_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240201)
    dims = (2, 3, 8, 64, 512)
    violations = 0
    for i in range(10_000):
        u, v = random_pair(rng, dims[i % len(dims)])
        ch = bound_chain(u, v)  # raises BoundViolationError on any breach
        links = (ch.abs_dot, ch.rearrangement, ch.cauchy_schwarz, ch.arithmetic_quadratic)
        for lo, hi in itertools.pairwise(links):
            if lo > hi + REL_TOL * max(1.0, abs(hi)):
                violations += 1
    assert violations == 0
    elapsed_under(t0, 10.0, "criterion 2")


# --- criterion 3: equality constructions, 500 instances each, < 5 s ---


def test_criterion_03_equality_constructions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240203)
    dims = (2, 3, 8, 64, 512)

    for i in range(500):
        d = dims[i % len(dims)]

        # (a) similarly ordered positive-dot pairs: |recos| = 1
        u = np.sort(np.abs(rng.normal(size=d)) + 0.1)
        v = np.sort(rng.normal(size=d) ** 2 + 0.5)
        assert np.dot(u, v) > 0
        assert abs(abs(recos(u, v)) - 1.0) <= 1e-9

        # (b) v = k * P(u) with sign(u.v) = sign(k): bound meets Cauchy-Schwarz
        # and |recos| = |cos|.  Build u with u . P(u) > 0 by taking u positive.
        u = np.abs(rng.normal(size=d)) + 0.1
        p = rng.permutation(d)
        k = rng.uniform(0.25, 4.0) * (1.0 if i % 2 == 0 else -1.0)
        v = k * u[p]
        assert np.dot(u, v) * k > 0
        bound = rearrangement_bound(u, v)
        cs = math.sqrt(np.dot(u, u)) * math.sqrt(np.dot(v, v))
        assert abs(bound - cs) <= 1e-9 * max(1.0, cs)
        assert abs(abs(recos(u, v)) - abs(cosine(u, v))) <= 1e-9

        # (c) v = +/- P(u) under the same sign condition: bound meets the
        # arithmetic mean of squared norms.  Positive u gives u . P(u) > 0,
        # so both signs satisfy sign(k) = sign(u.v).
        u = np.abs(rng.normal(size=d)) + 0.1
        v = u[rng.permutation(d)] * (1.0 if i % 2 == 0 else -1.0)
        am = 0.5 * (np.dot(u, u) + np.dot(v, v))
        assert abs(rearrangement_bound(u, v) - am) <= 1e-9 * max(1.0, am)

        # (d) v = +/- u: |decos| = 1 to 1e-12
        u = rng.normal(size=d)
        while not np.any(u):
            u = rng.normal(size=d)
        assert abs(abs(decos(u, u)) - 1.0) <= 1e-12
        assert abs(abs(decos(u, -u)) - 1.0) <= 1e-12

    elapsed_under(t0, 5.0, "criterion 3")


# --- criterion 4: brute-force oracle, 1,000 pairs, d in 2..7, < 30 s ---


def test_criterion_04_brute_force_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240204)
    dims = (2, 3, 4, 5, 6, 7)
    for i in range(1_000):
        d = dims[i % len(dims)]
        u, v = random_pair(rng, d)
        fast = rearrangement_bound(u, v)
        slow = brute_force_rearrangement(u, v)
        assert rel_close(fast, slow), (d, fast, slow)
    elapsed_under(t0, 30.0, "criterion 4")


# --- criterion 5: |decos| <= |cos| <= |recos|, 10,000 pairs, < 5 s ---


def test_criterion_05_metric_hierarchy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240205)
    dims = (2, 3, 8, 64, 512)
    for i in range(10_000):
        u, v = random_pair(rng, dims[i % len(dims)])
        while np.dot(u, v) == 0.0:
            u, v = random_pair(rng, dims[i % len(dims)])
        lo, mid, hi = abs(decos(u, v)), abs(cosine(u, v)), abs(recos(u, v))
        assert lo <= mid + 1e-9
        assert mid <= hi + 1e-9
    elapsed_under(t0, 5.0, "criterion 5")


# --- criterion 6: unit-norm identity and tanimoto bijection, < 5 s ---


def test_criterion_06_norm_identity_and_bijection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240206)
    dims = (2, 3, 8, 64, 512)
    for i in range(10_000):
        d = dims[i % len(dims)]
        u, v = random_pair(rng, d)
        un = u / np.linalg.norm(u)
        vn = v / np.linalg.norm(v)
        assert abs(decos(un, vn) - cosine(un, vn)) < 1e-12

        t = tanimoto(u, v)
        if 0.0 <= t <= 1.0:
            assert abs(decos(u, v) - 2.0 * t / (1.0 + t)) < 1e-12
            assert abs(decos_from_tanimoto(t) - decos(u, v)) < 1e-12
    elapsed_under(t0, 5.0, "criterion 6")


# --- criterion 7: bundled score-table statistics, < 2 s ---


def test_criterion_07_score_table_reproduction():
    t0 = time.perf_counter()
    table = load_results(fixture_path("table2.csv"))

    report = compare(table, "recos", "cos")
    stats = report.descriptive

    assert (stats.wins, stats.ties, stats.losses) == (71, 5, 1)
    assert abs(stats.mean - 0.292) <= 0.002
    assert abs(stats.sd - 0.356) <= 0.002
    assert abs(stats.median - 0.160) <= 0.005

    # extremes are exact under 2-decimal score arithmetic
    assert abs(stats.min - (-0.31)) < 1e-12
    assert abs(stats.max - 1.36) < 1e-12
    assert f"{stats.min:.2f}" == "-0.31"
    assert f"{stats.max:.2f}" == "1.36"

    assert abs(report.micro_avg_a - 66.12) <= 0.01
    assert abs(report.micro_avg_b - 65.83) <= 0.01
    decos_scores = [row.score for row in table.cells("decos").values()]
    assert abs(sum(decos_scores) / len(decos_scores) - 65.65) <= 0.01

    assert report.wilcoxon.statistic == 2581.0
    assert abs(report.wilcoxon.effect_size - 0.835) <= 0.01

    assert report.sign.statistic == 71.0
    assert report.sign.n_used == 72
    assert report.sign.p_value < 1e-15

    assert abs(report.t_test.statistic - 7.201) <= 0.01
    assert report.t_test.n_used == 77  # df = 76
    assert report.t_test.p_value < 1e-9

    assert abs(report.lodo.statistic - 75.349) <= 0.5
    assert report.lodo.n_used == 7  # df = 6

    assert abs(report.pooled_d - 0.027) <= 0.005

    vs_decos = compare(table, "cos", "decos")
    assert vs_decos.descriptive.wins == 58

    elapsed_under(t0, 2.0, "criterion 7")


# --- criterion 8: spearman vs independent oracle, 1,000 sequences, < 5 s ---


def _oracle_ranks(values):
    n = len(values)
    out = [0.0] * n
    for i, x in enumerate(values):
        less = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        out[i] = less + (equal + 1) / 2.0
    return out


def _oracle_spearman(x, y):
    rx, ry = _oracle_ranks(x), _oracle_ranks(y)
    n = len(rx)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def test_criterion_08_spearman_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240208)
    for _ in range(1_000):
        n = int(rng.integers(3, 51))
        # round to one decimal so ties occur often
        x = np.round(rng.normal(size=n), 1)
        y = np.round(rng.normal(size=n), 1)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        got = spearman_rho(x, y)
        want = _oracle_spearman(x.tolist(), y.tolist())
        assert abs(got - want) <= 1e-12, (n, got, want)

        # invariance under strictly monotone transforms
        assert abs(spearman_rho(np.exp(x), y) - got) <= 1e-12
        assert abs(spearman_rho(x, 3.0 * y + 7.0) - got) <= 1e-12
        assert abs(spearman_rho(x**3 + x, y) - got) <= 1e-12
    elapsed_under(t0, 5.0, "criterion 8")


# --- criterion 9: selftest determinism, exit 0, byte-identical, < 15 s ---


def test_criterion_09_selftest_determinism(fresh_python):
    t0 = time.perf_counter()
    cmd = ["-m", "ordsim", "selftest", "--seed", "42", "--trials", "1000"]
    first = fresh_python(*cmd)
    second = fresh_python(*cmd)
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == ""
    elapsed_under(t0, 15.0, "criterion 9")


# --- criterion 10: recos within 10x cosine wall time, 100,000 pairs, d=768 ---


def test_criterion_10_performance_smoke(capsys):
    rng = np.random.default_rng(20240210)
    pool = [DenseVector(rng.normal(size=768)) for _ in range(2_000)]
    pairs = rng.integers(0, len(pool), size=(100_000, 2))

    t0 = time.perf_counter()
    acc_cos = 0.0
    for i, j in pairs:
        acc_cos += cosine(pool[i], pool[j])
    t_cos = time.perf_counter() - t0

    t0 = time.perf_counter()
    acc_recos = 0.0
    for i, j in pairs:
        acc_recos += recos(pool[i], pool[j])
    t_recos = time.perf_counter() - t0

    assert math.isfinite(acc_cos) and math.isfinite(acc_recos)
    assert t_recos < 10.0 * t_cos, (t_recos, t_cos)

    # profile numbers are informational, not a gate
    with capsys.disabled():
        rate_cos = 100_000 / t_cos
        rate_recos = 100_000 / t_recos
        print(
            f"\n[criterion 10 profile] cosine {t_cos:.2f}s ({rate_cos:,.0f} pairs/s), "
            f"recos {t_recos:.2f}s ({rate_recos:,.0f} pairs/s), "
            f"ratio {t_recos / t_cos:.2f}x"
        )
