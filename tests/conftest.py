"""Prints a one-line verdict per acceptance criterion at the end of a run.

Fails any test that leaves running a thread it started.  Also provides
``fresh_python``, which runs a new interpreter that imports the ordsim under
test, ``form_pairs``/``vector_forms``, which give the vector functions
the same components in every input form they accept, and ``exact_lodo``,
which checks a leave-one-dataset-out outcome against exact arithmetic.
"""

import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import ordsim

CRITERIA = {
    "test_criterion_01_golden_values": "1 golden scores on the worked-example vectors",
    "test_criterion_02_bound_chain": "2 bound chain ordering on 10,000 seeded pairs",
    "test_criterion_03_equality_constructions": "3 equality-condition constructions (500 each)",
    "test_criterion_04_brute_force_oracle": "4 rearrangement bound vs exhaustive oracle (1,000 pairs)",
    "test_criterion_05_metric_hierarchy": "5 |decos| <= |cos| <= |recos| on 10,000 seeded pairs",
    "test_criterion_06_norm_identity_and_bijection": "6 unit-norm identity and tanimoto bijection (10,000 pairs)",
    "test_criterion_07_score_table_reproduction": "7 bundled score-table statistics reproduction",
    "test_criterion_08_spearman_oracle": "8 spearman vs independent oracle (1,000 sequences)",
    "test_criterion_09_selftest_determinism": "9 selftest determinism (byte-identical, exit 0)",
    "test_criterion_10_performance_smoke": "10 recos within 10x cosine wall time (100,000 pairs, d=768)",
}

_results: dict[str, str] = {}
# A criterion that failed or errored is FAIL; one that never ran is not.
_VERDICTS = {"passed": "PASS", "skipped": "skipped", "not run": "not run"}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if name in CRITERIA:
        if report.when == "call":
            _results[name] = report.outcome
        elif report.when == "setup" and report.outcome != "passed":
            _results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in CRITERIA.items():
        outcome = _results.get(name, "not run")
        verdict = _VERDICTS.get(outcome, "FAIL")
        terminalreporter.write_line(f"criterion {label}: {verdict}")


@pytest.fixture(autouse=True)
def _no_thread_left_running():
    """Fail the test if a thread it started is still running once its other
    fixtures are torn down."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert left == [], f"the test left threads running: {left}"


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a new interpreter that imports this ordsim."""
    env = dict(os.environ, PYTHONPATH=str(Path(ordsim.__file__).resolve().parents[1]))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    return run


@pytest.fixture(scope="session")
def form_pairs():
    """Vector pairs with float32-exact components, of both dot signs, with zero
    dots and ties; no vector is zero."""
    rng = np.random.default_rng(97)

    def f32(x):
        return x.astype(np.float32).astype(np.float64)

    pairs = [
        (np.array([1.0, 2.0]), np.array([2.0, -1.0])),
        (np.array([3.0, 3.0, -1.0]), np.array([-2.0, 5.0, 5.0])),
        (np.array([7.0]), np.array([-4.0])),
    ]
    for d in (2, 5, 8, 33, 200):
        u, w = f32(rng.standard_normal(d)), f32(rng.standard_normal(d))
        pairs += [(u, w), (u, f32(-u + w / 4)), (u, f32(u + w / 4))]
        ints = rng.integers(1, 4, (2, d)) * rng.choice((-1.0, 1.0), (2, d))
        pairs.append((ints[0], ints[1]))
    return pairs


class _Subclass(np.ndarray):
    """A trivial ndarray subclass: the same values, another type."""


def _vector_forms(x):
    strided = np.empty(2 * x.size)
    strided[::2] = x
    matrix = np.zeros((x.size, 3))
    matrix[:, 1] = x
    readonly = x.copy()
    readonly.setflags(write=False)
    forms = {
        "ndarray": x.copy(),
        "list": x.tolist(),
        "strided": strided[::2],
        "column": matrix[:, 1],
        "reversed": x[::-1].copy()[::-1],
        "readonly": readonly,
        "float32": x.astype(np.float32),
        "byteswapped": x.astype(">f8"),
        "subclass": x.copy().view(_Subclass),
        # Read-only, and misaligned by one byte.
        "unaligned": np.frombuffer(b"\0" + x.tobytes(), np.float64, offset=1),
    }
    if np.isfinite(x).all() and np.array_equal(x, np.rint(x)):
        forms["int"] = [int(c) for c in x]
    return forms


@pytest.fixture
def vector_forms():
    """Map a float64 vector with float32-exact components to each input form
    holding the same values; the ``int`` form only where the values are
    finite integers.  Only ``ndarray``, ``readonly`` and ``unaligned`` are
    plain C-contiguous float64 arrays, which the metrics use as they are."""
    return _vector_forms


def _gamma(m):
    """Higham's γ_m = m·u / (1 - m·u), u = 2^-53: the bound on the relative
    error of m roundings, and of a sum of m + 1 terms relative to the sum of
    their magnitudes, in any order."""
    u = mpmath.mpf(2) ** -53
    return m * u / (1 - m * u)


def _student_sf(t, df):
    """P(T > t) from 40-digit mpmath."""
    x = df / (df + t**2)
    half = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
    return half if t >= 0 else 1 - half


def _check_lodo_against_exact(d, alternative, outcome):
    """Check ``leave_one_dataset_out(d, alternative)``'s outcome, a
    ``TestResult`` or the ``DegenerateInputError`` it raised, against exact
    arithmetic on the float differences of d.

    The forward error bound, in the standard model with gradual underflow:
    a rounded sum or difference is within a relative u = 2^-53 of exact, and
    a product or quotient also within an absolute η = 2^-1074.  With n
    values x_i, dataset k's sum S_k over n_k values, A = Σ|x_i| and
    A_k = Σ_k |x_i|, numpy's total and bincount's S_k are within γ_{n-1}·A
    and γ_{n_k-1}·A_k of exact; one subtraction and one division add a
    relative (1 + u)² - 1 and η.  So each computed exclusion mean E_k is
    within

        ε_k = ((1 + u)² - 1)·|e_k| + (1 + u)²·(γ_{n-1}·A + γ_{n_k-1}·A_k) / (n - n_k) + η

    of the exact e_k; let ε = max ε_k.  Over the K means, the computed mean
    is within ε + δ of the exact mean m, with δ = γ_K·(max|e_k| + ε) + η for
    its own sum and division.  The sd is a norm of the centred means over
    √(K - 1): the perturbation moves it by at most √(K/(K-1))·ε <= √2·ε, a
    mean off by δ moves it by at most √2·δ, and its own roundings add a
    relative γ_{K+4}, and at most √((K + 1)·η) for the K squares and the
    division that may underflow.  The division of the sd by √K may lose
    η more.  So with s the exact sd and e = ε + δ, the computed sd over √K
    is within b·s/√K, where

        b = √2·e·(1 + γ_{K+4}) / s + γ_{K+4} + (√((K + 1)·η) + 2·√K·η) / s.

    Then |m'/s' - m/s| <= (e + |m|·b) / (s·(1 - b)), and t = √K·m/s and
    d_z = m/s take three and one more roundings, and η.  p, a monotone
    function of t, must lie between its exact values at the ends of t's
    interval, widened by the tail function's own accuracy: 1e-14 absolute,
    or 1e-12 relative where p <= 1e-3 (doubled for two-sided).

    Where the exact exclusion means are all equal, or b >= 1/2 (they are
    equal to within rounding), either the typed error or a result is
    accepted.
    """
    values = d.diffs
    sums, counts, magnitudes = {}, {}, {}
    for x, (_, ds) in zip(values, d.labels):
        sums[ds] = sums.get(ds, 0) + Fraction(x)
        counts[ds] = counts.get(ds, 0) + 1
        magnitudes[ds] = magnitudes.get(ds, 0) + Fraction(abs(x))
    k = len(sums)
    if k < 2:
        assert isinstance(outcome, ordsim.DegenerateInputError), outcome
        assert str(outcome) == "leave-one-dataset-out requires >= 2 datasets"
        return
    n = len(values)
    total = sum(sums.values())
    means = [(total - sums[ds]) / (n - counts[ds]) for ds in sums]
    mean = sum(means) / k
    var = sum((e - mean) ** 2 for e in means) / (k - 1)

    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(40):
        u = mpmath.mpf(2) ** -53
        eta = mpmath.mpf(2) ** -1074
        a = mp(sum(magnitudes.values()))
        eps = max(
            ((1 + u) ** 2 - 1) * abs(mp(e))
            + (1 + u) ** 2 * (_gamma(n - 1) * a + _gamma(counts[ds] - 1) * mp(magnitudes[ds]))
            / (n - counts[ds])
            + eta
            for e, ds in zip(means, sums)
        )
        err = eps + _gamma(k) * (max(abs(mp(e)) for e in means) + eps) + eta
        sd = mpmath.sqrt(mp(var))
        b = 1
        if var:
            spread = mpmath.sqrt(2) * err * (1 + _gamma(k + 4)) + mpmath.sqrt((k + 1) * eta)
            b = (spread + 2 * mpmath.sqrt(k) * eta) / sd + _gamma(k + 4)
        if b >= 0.5:
            assert isinstance(outcome, (ordsim.DegenerateInputError, ordsim.TestResult)), outcome
            if isinstance(outcome, ordsim.DegenerateInputError):
                assert str(outcome) == (
                    f"leave-one-dataset-out t-test is undefined: all {k} exclusion means are equal"
                )
            return
        assert isinstance(outcome, ordsim.TestResult), outcome
        assert (outcome.n_used, outcome.method_name) == (k, "lodo-t")
        ratio = (err + abs(mp(mean)) * b) / (sd * (1 - b))
        dz = mp(mean) / sd
        t = mpmath.sqrt(k) * dz
        t_bound = mpmath.sqrt(k) * ratio * (1 + _gamma(3)) + _gamma(3) * abs(t) + eta
        d_bound = ratio * (1 + u) + u * abs(dz) + eta
        assert abs(outcome.statistic - t) <= t_bound, (outcome.statistic, t, t_bound)
        assert abs(outcome.effect_size - dz) <= d_bound, (outcome.effect_size, dz, d_bound)
        if alternative == "greater":
            ends = [_student_sf(t + t_bound, k - 1), _student_sf(t - t_bound, k - 1)]
            factor = 1
        else:
            ends = [
                min(1, 2 * _student_sf(abs(t) + t_bound, k - 1)),
                min(1, 2 * _student_sf(max(0, abs(t) - t_bound), k - 1)),
            ]
            factor = 2
        absolute = 0 if ends[1] <= 1e-3 else factor * 1e-14
        low = ends[0] * (1 - factor * 1e-12) - absolute
        high = ends[1] * (1 + factor * 1e-12) + absolute
        assert low <= outcome.p_value <= high, (outcome.p_value, low, high)


@pytest.fixture(scope="session")
def exact_lodo():
    """``_check_lodo_against_exact``: check a leave-one-dataset-out outcome
    on a ``PairedDiffs`` against exact arithmetic, within a forward error
    bound."""
    return _check_lodo_against_exact
