"""The public API: what ``import ordsim`` exports, and the typed-error base."""

import importlib

import pytest

import ordsim
import ordsim.cli as cli
import ordsim.errors
from ordsim.errors import OrdsimError

MODULES = ("bounds", "errors", "harness", "io", "metrics", "ranks", "selftest", "stats")

# The names ordsim exported before OrdsimError, PropertyResult and VectorLike
# joined them; every one of them stays public.
PINNED = {
    "BoundChain", "BoundViolationError", "ComparisonReport", "CoverageMismatchError",
    "DatasetFormatError", "DegenerateInputError", "DenseVector", "DescriptiveStats",
    "DimensionMismatchError", "EvalReport", "InvalidVectorError", "MetricKind",
    "PairDataset", "PairRecord", "PairedDiffs", "ResultsRow", "ResultsTable",
    "SelftestReport", "TestResult", "average_ranks", "benjamini_hochberg",
    "bound_chain", "brute_force_rearrangement", "cohens_d_pooled", "compare",
    "cosine", "decos", "decos_from_tanimoto", "descriptive_stats", "dot",
    "evaluate", "fixture_path", "format_vector", "is_oppositely_ordered",
    "is_similarly_ordered", "leave_one_dataset_out", "load_experts", "load_pairs",
    "load_results", "norm", "paired_t_test", "parse_vector", "rearrangement_bound",
    "recos", "run_selftest", "save_pairs", "save_results", "sign_test",
    "similarity", "spearman_rho", "tanimoto", "wilcoxon_signed_rank",
}

ERROR_CLASSES = [
    obj
    for obj in vars(ordsim.errors).values()
    if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == "ordsim.errors"
]


def _module(name):
    return importlib.import_module(f"ordsim.{name}")


def test_package_exports_the_module_lists_in_order():
    expected = [name for module in MODULES for name in _module(module).__all__]
    assert ordsim.__all__ == expected
    assert len(set(ordsim.__all__)) == len(ordsim.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_exports_are_the_module_objects(module):
    mod = _module(module)
    for name in mod.__all__:
        assert getattr(ordsim, name) is getattr(mod, name), name


def test_pinned_names_stay_exported():
    assert len(PINNED) == 52
    assert set(ordsim.__all__) == PINNED | {"OrdsimError", "PropertyResult", "VectorLike"}


def test_star_import():
    namespace = {}
    exec("from ordsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ordsim.__all__)


@pytest.mark.parametrize(
    "module, name, defined_in",
    [("stats", "average_ranks", "ranks"), ("harness", "spearman_rho", "ranks")],
)
def test_tracer_hook_points_stay_importable(module, name, defined_in):
    # perfbench/tracing.py wraps these module attributes even where the module
    # does not call them; its Tracer raises AttributeError if one is gone.
    assert getattr(_module(module), name) is getattr(_module(defined_in), name)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_is_a_public_ordsim_error(cls):
    assert issubclass(cls, OrdsimError)
    assert issubclass(cls, ValueError)
    assert cls.__name__ in ordsim.errors.__all__


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_cli_reports_every_error_as_a_data_error(capsys, monkeypatch, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_sim", fail)
    code = cli.main(["sim", "--metric", "cos", "--u", "1,2", "--v", "1,2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA_ERROR
    assert captured.out == ""
    assert captured.err == "error: boom\n"
