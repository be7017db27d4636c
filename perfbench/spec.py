"""What the benchmark measures: workloads, metrics and bounds.

``python3 perfbench/run.py --write-spec`` writes ``BENCHMARK.json`` from this
module; ``test_perfbench.py`` checks that the committed file matches.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20
DEFAULT_SEED = 1
CLAIM_SEED = 1001  # a second seed, kept out of tuning, for checking a claimed gain

# (name, predicted dominant layer, why)
WORKLOADS = [
    ("eval-d768", "metrics",
     "in-memory PairDataset, 500 pairs at d=768, evaluate under all four kinds; metric kernels and "
     "validation do ~95% of the work, io none. Dominant layer: metrics"),
    ("pairsfile-d768", "io",
     "3 seeded 6 MB pair CSVs at d=768, load_pairs then evaluate with one kind, as ordsim bench does; "
     "the CSV parser does ~95% of the work. Dominant layer: io"),
    ("widemag-smalld", "metrics+bounds",
     "ndarray pairs at d=2..64, 1 in 8 scaled by 2^k, |k|<=1000; per-call overhead, the only bounds "
     "and wrong-result workload. Dominant layer: metrics+bounds"),
    ("compare-grid", "stats+harness",
     "8 models x 40 datasets x 6 methods results CSV, load_results then 30 ordered compares; the only "
     "stats and load_results workload. Dominant layer: stats+harness"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("pairs_per_s", "pairs/s", "higher", 0.2),
    ("cells_per_s", "cells/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_p90_ms", "ms", "lower", 0.2),
    ("ok_ratio", "ratio", "higher", 0.01),
]

KIND_NAMES = ("recos", "cosine", "decos", "tanimoto")
LAYERS = ("io", "metrics", "bounds", "ranks", "stats", "harness", "bench")
STATS_FUNCS = (
    "wilcoxon_signed_rank",
    "sign_test",
    "paired_t_test",
    "leave_one_dataset_out",
    "descriptive_stats",
    "cohens_d_pooled",
    "benjamini_hochberg",
)

# (name, unit, better)
PER_LAYER = (
    [
        ("io.load_pairs.self_ms", "ms", "lower"),
        ("io.load_pairs.mb_per_s", "MB/s", "higher"),
        ("io.load_results.self_ms", "ms", "lower"),
        ("io.load_results.rows_per_s", "rows/s", "higher"),
    ]
    + [
        (f"metrics.{kind}.{field}", unit, "lower")
        for kind in KIND_NAMES
        for field, unit in (
            ("calls", "count"),
            ("self_us", "us"),
            ("floor_ratio", "ratio"),
            ("wrong", "count"),
            ("typed_errors", "count"),
            ("untyped_errors", "count"),
        )
    ]
    + [
        ("bounds.bound_chain.self_us", "us", "lower"),
        ("bounds.rearrangement_bound.self_us", "us", "lower"),
        ("bounds.bound_chain.wrong", "count", "lower"),
        ("bounds.bound_chain.typed_errors", "count", "lower"),
        ("bounds.bound_chain.untyped_errors", "count", "lower"),
        ("ranks.spearman_rho.self_us", "us", "lower"),
        ("ranks.average_ranks.self_us", "us", "lower"),
    ]
    + [(f"stats.{fn}.self_us", "us", "lower") for fn in STATS_FUNCS]
    + [
        ("harness.evaluate.self_ms", "ms", "lower"),
        ("harness.compare.self_us", "us", "lower"),
        ("import.total_s", "s", "lower"),
        ("import.numpy_s", "s", "lower"),
        ("import.scipy_s", "s", "lower"),
        ("import.ordsim_self_s", "s", "lower"),
    ]
    + [(f"{layer}.share", "ratio", "lower") for layer in LAYERS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, _, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }
