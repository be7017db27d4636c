"""Per-layer measurement: call spans, the import breakdown and the kernel floor.

Spans wrap ordsim's functions at the module attributes their callers look
up, from the benchmark's side; nothing inside ``src/`` changes.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import time
from collections import defaultdict

import numpy as np

from spec import STATS_FUNCS
from workloads import FUNC_NAMES

# (module, attribute, span name): every place an ordsim caller looks a layer up.
SPANS = (
    [
        ("ordsim", "load_pairs", "io.load_pairs"),
        ("ordsim", "load_results", "io.load_results"),
        ("ordsim", "evaluate", "harness.evaluate"),
        ("ordsim", "compare", "harness.compare"),
        ("ordsim", "recos", "metrics.recos"),
        ("ordsim", "cosine", "metrics.cosine"),
        ("ordsim", "decos", "metrics.decos"),
        ("ordsim", "tanimoto", "metrics.tanimoto"),
        ("ordsim", "bound_chain", "bounds.bound_chain"),
        ("ordsim.bounds", "rearrangement_bound", "bounds.rearrangement_bound"),
        ("ordsim.harness", "spearman_rho", "ranks.spearman_rho"),
        ("ordsim.ranks", "average_ranks", "ranks.average_ranks"),
        ("ordsim.stats", "average_ranks", "ranks.average_ranks"),
        ("ordsim.stats", "paired_t_test", "stats.paired_t_test"),
    ]
    + [("ordsim.harness", fn, f"stats.{fn}") for fn in STATS_FUNCS]
)

# ``harness.similarity`` dispatches on its first argument, a MetricKind or its value.
SIMILARITY_SPANS = {kind: f"metrics.{name}" for kind, name in FUNC_NAMES.items()}


class Tracer:
    """Aggregates call counts and self time per span name while installed.

    ``stack[0]`` collects the time of top-level spans inside one op; the
    runner resets it before the op and reads it after.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.stack = [0]
        self._patches = []
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._span(original, lambda args, n=name: n)))
        import ordsim
        import ordsim.harness

        names = {kind: SIMILARITY_SPANS[kind.value] for kind in ordsim.MetricKind}
        names.update(SIMILARITY_SPANS)
        original = ordsim.harness.similarity
        self._patches.append((ordsim.harness, "similarity", original, self._span(original, lambda args: names[args[0]])))
        self.installed = False

    def _span(self, fn, name_of):
        stack, calls, self_ns, clock = self.stack, self.calls, self.self_ns, time.perf_counter_ns

        def traced(*args, **kwargs):
            name = name_of(args)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_ns[name] += elapsed - children

        return traced

    def set_installed(self, on: bool) -> None:
        if on != self.installed:
            for module, attr, original, traced in self._patches:
                setattr(module, attr, traced if on else original)
            self.installed = on


def parse_importtime(text: str) -> dict[str, float]:
    """Split ``python -X importtime -c "import ordsim"`` output into seconds.

    Each module's self time goes to the first of numpy or scipy on its import
    chain below ``ordsim``; ordsim's own modules make ``ordsim_self_s``.
    """
    pending: list[tuple[int, dict]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, field = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        node = {"name": field.strip(), "self": int(self_us), "cum": int(cum_us), "children": []}
        while pending and pending[-1][0] > depth:
            node["children"].insert(0, pending.pop()[1])
        pending.append((depth, node))
    root = next(node for _, node in pending if node["name"] == "ordsim")
    totals: dict[str, int] = defaultdict(int)

    def walk(node: dict, bucket: str | None) -> None:
        top = node["name"].split(".")[0]
        if bucket is None and top in ("numpy", "scipy"):
            bucket = top
        totals[bucket or ("ordsim" if top == "ordsim" else "other")] += node["self"]
        for child in node["children"]:
            walk(child, bucket)

    walk(root, None)
    return {
        "import.total_s": root["cum"] / 1e6,
        "import.numpy_s": totals["numpy"] / 1e6,
        "import.scipy_s": totals["scipy"] / 1e6,
        "import.ordsim_self_s": totals["ordsim"] / 1e6,
    }


def import_breakdown(python: str, env: dict, cwd: str, repeats: int = 3) -> dict[str, float]:
    """Median over fresh interpreters of each ``parse_importtime`` figure."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import ordsim"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


# Bare numpy primitives each metric's formula needs, per call.
FLOOR_FORMULAS = {
    "recos": {"sort": 2, "dot": 2},
    "cosine": {"dot": 1, "norm": 2},
    "decos": {"dot": 3},
    "tanimoto": {"dot": 3},
}


def metric_floor_us(pairs: list[tuple[np.ndarray, np.ndarray]], repeats: int = 7) -> dict[str, float]:
    """Per-call microseconds of each metric's bare numpy primitives on ``pairs``.

    Times np.sort, np.dot and np.linalg.norm on the same inputs the workload
    scores and adds them up as ``FLOOR_FORMULAS`` says.
    """
    primitives = {
        "sort": lambda a, b: (np.sort(a), np.sort(b)),
        "dot": lambda a, b: np.dot(a, b),
        "norm": lambda a, b: (np.linalg.norm(a), np.linalg.norm(b)),
    }
    calls_per_pair = {"sort": 2, "dot": 1, "norm": 2}
    out = {}
    for name, prim in primitives.items():
        times = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for a, b in pairs:
                prim(a, b)
            times.append(time.perf_counter_ns() - start)
        out[name] = statistics.median(times) / 1e3 / (len(pairs) * calls_per_pair[name])
    return {kind: sum(n * out[p] for p, n in formula.items()) for kind, formula in FLOOR_FORMULAS.items()}
