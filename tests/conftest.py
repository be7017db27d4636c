"""Prints a one-line verdict per acceptance criterion at the end of a run.

Fails any test that leaves running a thread it started.  Also provides
``fresh_python``, which runs a new interpreter that imports the ordsim under
test, and ``form_pairs``/``vector_forms``, which give the vector functions
the same components in every input form they accept.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

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
