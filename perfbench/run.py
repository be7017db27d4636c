"""ordsim benchmark: one seeded workload, closed loop, one caller, one process.

    python3 perfbench/run.py --workload eval-d768 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ordsim is imported from its ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every op is checked
against an independent oracle; ``attempted`` and ``failed`` count distinct
inputs, so they do not depend on how many ops the machine ran.  ``--write-spec`` writes ``BENCHMARK.json``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One caller on a 2-core machine: keep BLAS from adding threads of its own.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spec  # noqa: E402
from calibration import NOMINAL_NS, Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so that op_p90_ms has at least 10 samples beyond it
MAX_MEASURE_S = 120.0  # hard stop, well inside the 180 s a run may take
SETUP_SPAWNS = 7
THROUGHPUT_CHUNKS = 10
WARMUP_S = 0.3
CALIBRATE_EVERY_NS = 5_000_000
MAX_CALIBRATE_REPEATS = 10


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def take_setup_s(workload: str, seed: int, workdir: Path, cal: Calibration) -> tuple[float, float, float]:
    """Median over fresh interpreters of import time plus the first, cold op, calibrated.

    Returns the calibrated total and the raw import and first-op medians.
    """
    runs = []
    before = cal.measure_ns(MAX_CALIBRATE_REPEATS)
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload, str(seed), str(workdir)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = cal.measure_ns(MAX_CALIBRATE_REPEATS)
        run = json.loads(proc.stdout.splitlines()[-1])
        if Path(run["ordsim"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"cold-start probe imported ordsim from {run['ordsim']}")
        run["scale"] = 2 * NOMINAL_NS / (before + after)
        runs.append(run)
        before = after
    total = statistics.median((r["import_s"] + r["first_op_s"]) * r["scale"] for r in runs)
    return total, statistics.median(r["import_s"] for r in runs), statistics.median(r["first_op_s"] for r in runs)


class Run:
    """Latencies and check outcomes of one measured loop."""

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.scale: list[float] = []  # calibration factor of each op, 1.0 when traced
        self.traced: list[bool] = []
        self.inputs: set[int] = set()  # distinct inputs graded
        self.failed: set[int] = set()  # distinct inputs on which an op failed
        self.unexpected: set[int] = set()  # failed inputs outside the known-defect ones
        self.failing_inputs: dict[tuple[str, str], set[int]] = defaultdict(set)
        self.bytes_traced = 0
        self.rows_traced = 0
        self.bench_ns = 0  # traced op time outside every span

    def calibrated_ns(self) -> list[float]:
        return [ns * f for ns, f in zip(self.latency_ns, self.scale)]


def measure(wl, seconds: float, tracer=None) -> Run:
    """Run ops until ``seconds`` have passed, at least MIN_OPS ran and a cycle is complete.

    Untraced, the calibration runs between ops after every CALIBRATE_EVERY_NS
    of op time, once per CALIBRATE_EVERY_NS of the window up to
    MAX_CALIBRATE_REPEATS times, and the ops in the window are scaled by the
    mean of the calibrations on either side of it.  With a tracer, blocks of ``wl.block`` ops
    alternate between untraced and traced, so both see the same inputs and
    the same drift of the machine.
    """
    run = Run()
    clock = time.perf_counter_ns
    cal = Calibration() if tracer is None else None
    last_cal = cal.measure_ns(MAX_CALIBRATE_REPEATS) if cal else NOMINAL_NS
    since_cal = 0
    gc.collect()
    start = clock()
    deadline, hard_stop = start + int(seconds * 1e9), start + int(MAX_MEASURE_S * 1e9)
    i = 0
    while True:
        traced = tracer is not None and (i // wl.block) % 2 == 1
        if tracer is not None:
            tracer.set_installed(traced)
            tracer.stack[0] = 0
        t0 = clock()
        try:
            out = wl.op(i)
        except Exception as exc:  # graded by check(), never aborts the run
            out = exc
        t1 = clock()
        run.latency_ns.append(t1 - t0)
        run.traced.append(traced)
        since_cal += t1 - t0
        if traced:
            run.bench_ns += (t1 - t0) - tracer.stack[0]
            run.bytes_traced += wl.bytes_read(i)
            run.rows_traced += wl.rows_read(i)
        failures = [(call, outcome) for call, outcome in wl.check(i, out) if outcome != "ok"]
        input_id = wl.input_id(i)
        run.inputs.add(input_id)
        if failures:
            run.failed.add(input_id)
            if not wl.known_defect(i):
                run.unexpected.add(input_id)
            for key in failures:
                run.failing_inputs[key].add(input_id)
        i += 1
        done = (t1 >= deadline and i >= MIN_OPS and i % wl.cycle == 0) or t1 >= hard_stop
        if since_cal >= CALIBRATE_EVERY_NS or done:
            repeats = min(MAX_CALIBRATE_REPEATS, 1 + since_cal // CALIBRATE_EVERY_NS)
            now_cal = cal.measure_ns(repeats) if cal else NOMINAL_NS
            run.scale += [2 * NOMINAL_NS / (last_cal + now_cal)] * (i - len(run.scale))
            last_cal, since_cal = now_cal, 0
        if done:
            break
    if tracer is not None:
        tracer.set_installed(False)
    return run


def warm_up(wl) -> None:
    end = time.perf_counter() + WARMUP_S
    i = 0
    while i == 0 or time.perf_counter() < end:
        try:
            wl.op(i)
        except Exception:  # the measured loop grades the same ops
            pass
        i += 1


def percentile_ms(latency_ns: list[float], q: float) -> float:
    return float(np.percentile(latency_ns, q)) / 1e6


def end_to_end(wl, run: Run, setup_s: float) -> dict[str, float]:
    latency = run.calibrated_ns()
    chunks = np.array_split(np.asarray(latency), THROUGHPUT_CHUNKS)
    ops_per_s = statistics.median(chunk.size / (chunk.sum() / 1e9) for chunk in chunks)
    attempted = len(run.inputs)
    return {
        "setup_s": setup_s,
        "pairs_per_s": ops_per_s * wl.pairs_per_op,
        "cells_per_s": ops_per_s * wl.cells_per_op,
        "op_p50_ms": percentile_ms(latency, 50),
        "op_p90_ms": percentile_ms(latency, 90),
        "ok_ratio": (attempted - len(run.failed)) / attempted,
    }


OUTCOMES = {"wrong": "wrong", "typed_errors": "typed", "untyped_errors": "untyped"}


def per_layer(run: Run, tracer, floors: dict[str, float], imports: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of ``spec.PER_LAYER``, from the traced ops of ``run``.

    A span that never ran reports 0.  Failure counters count distinct inputs.
    """
    calls, self_ns = tracer.calls, tracer.self_ns
    traced = [ns for ns, t in zip(run.latency_ns, run.traced) if t]
    untraced = [ns for ns, t in zip(run.latency_ns, run.traced) if not t]
    layer_ns = defaultdict(int, bench=run.bench_ns)
    for span, ns in self_ns.items():
        layer_ns[span.split(".")[0]] += ns

    def mean_self(span: str, unit_ns: float) -> float:
        return self_ns[span] / calls[span] / unit_ns if calls[span] else 0.0

    def per_self_second(amount: float, span: str) -> float:
        return amount / (self_ns[span] / 1e9) if self_ns[span] else 0.0

    out = dict(imports)
    out["io.load_pairs.mb_per_s"] = per_self_second(run.bytes_traced / 1e6, "io.load_pairs")
    out["io.load_results.rows_per_s"] = per_self_second(run.rows_traced, "io.load_results")
    out["trace.overhead_ratio"] = percentile_ms(traced, 50) / percentile_ms(untraced, 50)
    for name, _, _ in spec.PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in out:
            continue
        if field == "self_us":
            out[name] = mean_self(span, 1e3)
        elif field == "self_ms":
            out[name] = mean_self(span, 1e6)
        elif field == "calls":
            out[name] = calls[span]
        elif field in OUTCOMES:
            out[name] = len(run.failing_inputs[(span, OUTCOMES[field])])
        elif field == "floor_ratio":
            kind = span.split(".")[1]
            out[name] = mean_self(span, 1e3) / floors[kind] if kind in floors else 0.0
        elif field == "share":
            out[name] = layer_ns[span] / sum(traced)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return {name: out[name] for name, _, _ in spec.PER_LAYER}


def dominant_layer_line(workload: str, metrics: dict[str, float]) -> str:
    predicted = next(layer for name, layer, _ in spec.WORKLOADS if name == workload)
    group = predicted.split("+")
    shares = {layer: metrics[f"{layer}.share"] for layer in spec.LAYERS}
    others = max(share for layer, share in shares.items() if layer not in group)
    ranked = ", ".join(f"{layer} {share:.3f}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]))
    verdict = "as predicted" if sum(shares[layer] for layer in group) > others else "NOT as predicted"
    return f"dominant layer: predicted {predicted}, {verdict} (shares: {ranked})"


def environment_line() -> str:
    import scipy

    return (
        f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas_threads=1"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[name for name, _, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "ordsim" / "__init__.py").is_file():
        print(f"error: no ordsim sources under {SRC}; run from the root of an ordsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        import workloads

        wl = workloads.make(args.workload, args.seed, workdir, write=True)
        if args.trace:
            import tracing

            imports = tracing.import_breakdown(sys.executable, child_env(), str(ROOT))
        else:
            setup_s, import_s, first_op_s = take_setup_s(args.workload, args.seed, workdir, Calibration())
        wl.reference()
        warm_up(wl)
        if args.trace:
            sample = wl.sample_pairs()
            floors = tracing.metric_floor_us(sample) if sample else {}
            tracer = tracing.Tracer()
            run = measure(wl, args.seconds, tracer)
            metrics = per_layer(run, tracer, floors, imports)
        else:
            run = measure(wl, args.seconds)
            metrics = end_to_end(wl, run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(run.inputs), len(run.failed)
    print(f"ordsim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(environment_line())
    print(f"ops: {len(run.latency_ns)} timed (the latency sample count)")
    print(f"inputs: {attempted} attempted, {failed} failed, {len(run.unexpected)} outside the known-defect inputs")
    print(f"fail_ratio {failed / attempted:.6g} ratio")
    if not args.trace:
        print(f"raw setup: import {import_s:.4f} s + first op {first_op_s:.4f} s (medians of {SETUP_SPAWNS} spawns)")
        print(f"raw op_p50_ms {percentile_ms(run.latency_ns, 50):.6g}, op_p90_ms {percentile_ms(run.latency_ns, 90):.6g}; "
              f"calibration factor median {statistics.median(run.scale):.4f}")
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if args.trace:
        print(dominant_layer_line(args.workload, metrics))
    result = {
        "correct": not run.unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
