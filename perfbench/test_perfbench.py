"""Tests of the benchmark's own parts: the oracle, the checks, the spec and
the defects of ordsim that the benchmark pins.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ordsim  # noqa: E402
import oracle  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_oracle_agrees_with_ordsim_on_unit_scale():
    rng = np.random.default_rng(0)
    for d in (2, 3, 17, 64, 768):
        u = rng.standard_normal((20, d))
        v = 0.5 * u + rng.standard_normal((20, d))
        sims = oracle.metric_values(u, v)
        chain = oracle.chain_values(u, v)
        for i in range(20):
            for kind in oracle.KINDS:
                assert getattr(ordsim, kind)(u[i], v[i]) == pytest.approx(sims[kind][i], abs=1e-12)
            c = ordsim.bound_chain(u[i], v[i])
            got = [c.abs_dot, c.rearrangement, c.cauchy_schwarz, c.arithmetic_quadratic]
            assert got == pytest.approx(chain[i], rel=1e-12)


def test_oracle_spearman_handles_ties():
    x = [1, 2, 2, 3, 5, 5, 5, 8]
    y = [2, 1, 4, 4, 3, 9, 9, 7]
    assert oracle.spearman(x, y) == pytest.approx(ordsim.spearman_rho(x, y), abs=1e-15)


@pytest.mark.parametrize("name", ["eval-d768", "pairsfile-d768", "compare-grid"])
def test_no_failures_outside_widemag(name, tmp_path):
    wl = workloads.make(name, 1, tmp_path, write=True)
    wl.reference()
    for i in range(wl.cycle):
        assert {outcome for _, outcome in wl.check(i, wl.op(i))} == {"ok"}


def test_widemag_fails_only_on_scaled_pairs(tmp_path):
    wl = workloads.make("widemag-smalld", 1, tmp_path, write=True)
    wl.reference()
    failed = [i for i in range(wl.cycle) if any(o != "ok" for _, o in wl.check(i, wl.op(i)))]
    assert all(wl.known_defect(i) for i in failed)
    # Pinned defect: ordsim does not scale safely yet, so fail_ratio is above 0.
    # When it does, this becomes ``failed == []`` and fail_ratio drops to 0.
    assert len(failed) > wl.cycle // 40


def test_failure_counts_do_not_depend_on_run_length(tmp_path):
    import run

    wl = workloads.make("widemag-smalld", 1, tmp_path, write=True)
    wl.reference()
    start = time.perf_counter()
    short = run.measure(wl, 0.0)
    longer = run.measure(wl, 1.2 * (time.perf_counter() - start))  # ends after the second cycle
    assert len(longer.latency_ns) > len(short.latency_ns) == wl.cycle
    assert len(short.inputs) == len(longer.inputs) == wl.cycle
    assert short.failed == longer.failed and short.failed
    assert not short.unexpected and not longer.unexpected


@pytest.mark.parametrize(
    "pair, expected",
    [
        # recos, cosine and decos return -1.0, tanimoto NaN, bound_chain four infs.
        ([1e200, 2e200], ["wrong", "wrong", "wrong", "wrong", "wrong"]),
        # u.v underflows: recos 0.0, cosine ZeroDivisionError, decos and tanimoto
        # "both vectors are zero".  The chain's true values (2e-340) round to
        # 0.0, so bound_chain's zeros are right.
        ([1e-170, 1e-170], ["wrong", "untyped", "typed", "typed", "ok"]),
    ],
)
def test_roadmap_pairs_count_as_failures(pair, expected):
    u = np.array([pair])
    want_metrics = oracle.metric_values(u, u)
    assert [want_metrics[kind][0] for kind in oracle.KINDS] == pytest.approx([1.0] * 4, abs=1e-15)
    out = workloads.score_pair(u[0], u[0].copy())
    metric_ref = np.array([want_metrics[kind][0] for kind in oracle.KINDS])
    outcomes = workloads.grade_pair(out, metric_ref, oracle.chain_values(u, u)[0])
    assert outcomes == expected  # pinned at the seed commit; safe scaling makes these "ok"


def test_span_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer._span(lambda: time.sleep(0.02), lambda args: "inner")
    outer = tracer._span(lambda: (inner(), time.sleep(0.01)), lambda args: "outer")
    tracer.stack[0] = 0
    outer()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.self_ns["inner"] >= 0.02e9
    assert 0.01e9 <= tracer.self_ns["outer"] < 0.02e9
    assert tracer.stack == [tracer.self_ns["inner"] + tracer.self_ns["outer"]]


def test_importtime_split():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        70 |        120 |   scipy.special",
        "import time:        30 |         30 |   ordsim.errors",
        "import time:        40 |        490 | ordsim",
    ])
    assert tracing.parse_importtime(text) == {
        "import.total_s": 490e-6,
        "import.numpy_s": 300e-6,
        "import.scipy_s": 120e-6,
        "import.ordsim_self_s": 70e-6,
    }


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-d768", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
