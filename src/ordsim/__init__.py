"""Similarity metrics from a sorted-components bound chain, with benchmark tooling.

Public surface: the vector type and four metrics (``metrics``), the bound
chain and its brute-force oracle (``bounds``), fractional ranking and
Spearman correlation (``ranks``), paired-comparison statistics (``stats``),
dataset IO with bundled fixtures (``io``), the evaluation harness
(``harness``), the property self-test (``selftest``) and the CLI (``cli``).
"""

from .bounds import BoundChain, bound_chain, brute_force_rearrangement, rearrangement_bound
from .errors import (
    BoundViolationError,
    CoverageMismatchError,
    DatasetFormatError,
    DegenerateInputError,
    DimensionMismatchError,
    InvalidVectorError,
)
from .harness import ComparisonReport, EvalReport, compare, evaluate
from .io import (
    PairDataset,
    PairRecord,
    ResultsRow,
    ResultsTable,
    fixture_path,
    format_vector,
    load_experts,
    load_pairs,
    load_results,
    parse_vector,
    save_pairs,
    save_results,
)
from .metrics import (
    DenseVector,
    MetricKind,
    cosine,
    decos,
    decos_from_tanimoto,
    dot,
    is_oppositely_ordered,
    is_similarly_ordered,
    norm,
    recos,
    similarity,
    tanimoto,
)
from .ranks import average_ranks, spearman_rho
from .selftest import SelftestReport, run_selftest
from .stats import (
    DescriptiveStats,
    PairedDiffs,
    TestResult,
    benjamini_hochberg,
    cohens_d_pooled,
    descriptive_stats,
    leave_one_dataset_out,
    paired_t_test,
    sign_test,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"

__all__ = [
    "BoundChain",
    "BoundViolationError",
    "ComparisonReport",
    "CoverageMismatchError",
    "DatasetFormatError",
    "DegenerateInputError",
    "DenseVector",
    "DescriptiveStats",
    "DimensionMismatchError",
    "EvalReport",
    "InvalidVectorError",
    "MetricKind",
    "PairDataset",
    "PairRecord",
    "PairedDiffs",
    "ResultsRow",
    "ResultsTable",
    "SelftestReport",
    "TestResult",
    "average_ranks",
    "benjamini_hochberg",
    "bound_chain",
    "brute_force_rearrangement",
    "cohens_d_pooled",
    "compare",
    "cosine",
    "decos",
    "decos_from_tanimoto",
    "descriptive_stats",
    "dot",
    "evaluate",
    "fixture_path",
    "format_vector",
    "is_oppositely_ordered",
    "is_similarly_ordered",
    "leave_one_dataset_out",
    "load_experts",
    "load_pairs",
    "load_results",
    "norm",
    "paired_t_test",
    "parse_vector",
    "rearrangement_bound",
    "recos",
    "run_selftest",
    "save_pairs",
    "save_results",
    "sign_test",
    "similarity",
    "spearman_rho",
    "tanimoto",
    "wilcoxon_signed_rank",
]
