"""Prints a one-line verdict per acceptance criterion at the end of a run.

Also provides ``fresh_python``, which runs a new interpreter that imports the
ordsim under test.
"""

import os
import subprocess
import sys
from pathlib import Path

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
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {label}: {verdict}")


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a new interpreter that imports this ordsim."""
    env = dict(os.environ, PYTHONPATH=str(Path(ordsim.__file__).resolve().parents[1]))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    return run
