"""The public API: what ``import ordsim`` exports, and the typed-error base."""

import ast
import importlib
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import ordsim
import ordsim.cli as cli
import ordsim.errors
from ordsim import DenseVector, PairDataset, PairRecord
from ordsim.errors import DegenerateInputError, InvalidVectorError, OrdsimError

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


# (module, name, module that defines it) for each attribute that
# perfbench/tracing.py wraps outside the module that defines it.
TRACER_HOOK_POINTS = [
    ("stats", "average_ranks", "ranks"),
    ("harness", "spearman_rho", "ranks"),
    ("harness", "similarity", "metrics"),
]


@pytest.mark.parametrize("module, name, defined_in", TRACER_HOOK_POINTS)
def test_tracer_hook_points_stay_importable(module, name, defined_in):
    # perfbench/tracing.py wraps these module attributes even where the module
    # does not call them; its Tracer raises AttributeError if one is gone.
    assert getattr(_module(module), name) is getattr(_module(defined_in), name)


def test_benchmark_tracer_counts_branch_rows_as_metric_calls(monkeypatch):
    # perfbench/tracing.py counts evaluate's similarity calls on branch rows
    # as calls of the metric, and puts every attribute back when removed.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    vectors = [([1.0, 2.0], [2.0, 1.0]), ([1.0, 0.0], [0.0, 3.0]),  # u.v == 0
               ([2.0, 1.0], [1.0, 3.0]), ([3.0, -1.0], [1.0, 2.0])]
    records = [PairRecord(g, DenseVector(u), DenseVector(v)) for g, (u, v) in enumerate(vectors)]
    dataset = PairDataset("tiny", 2, records)
    tracer.set_installed(True)
    try:
        ordsim.evaluate(dataset, "recos")
    finally:
        tracer.set_installed(False)
    assert tracer.calls["metrics.recos"] == 1
    assert tracer.calls["harness.evaluate"] == 1
    for module, attr, original, _ in tracer._patches:
        assert getattr(module, attr) is original, (module.__name__, attr)


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


# Every public function that takes numbers, called with one operand z and, if
# it takes two, REAL as the other.  z has three components whose real parts
# lie in [0, 1], so that a cast that dropped the imaginary part would pass.
REAL = [3.0, 1.0, 2.0]
NUMBER_TAKERS = [
    ("recos", lambda z: ordsim.recos(z, REAL), InvalidVectorError),
    ("recos, second operand", lambda z: ordsim.recos(REAL, z), InvalidVectorError),
    ("cosine", lambda z: ordsim.cosine(z, REAL), InvalidVectorError),
    ("decos", lambda z: ordsim.decos(REAL, z), InvalidVectorError),
    ("tanimoto", lambda z: ordsim.tanimoto(z, REAL), InvalidVectorError),
    ("similarity", lambda z: ordsim.similarity("recos", z, REAL), InvalidVectorError),
    ("dot", lambda z: ordsim.dot(z, REAL), InvalidVectorError),
    ("norm", ordsim.norm, InvalidVectorError),
    ("DenseVector", DenseVector, InvalidVectorError),
    ("format_vector", ordsim.format_vector, InvalidVectorError),
    ("bound_chain", lambda z: ordsim.bound_chain(z, REAL), InvalidVectorError),
    ("rearrangement_bound", lambda z: ordsim.rearrangement_bound(REAL, z), InvalidVectorError),
    ("is_similarly_ordered", lambda z: ordsim.is_similarly_ordered(z, REAL), InvalidVectorError),
    ("average_ranks", ordsim.average_ranks, InvalidVectorError),
    ("spearman_rho", lambda z: ordsim.spearman_rho(REAL, z), InvalidVectorError),
    ("PairedDiffs", lambda z: ordsim.PairedDiffs(z, (("m", "a"), ("m", "b"), ("m", "c"))),
     DegenerateInputError),
    ("cohens_d_pooled", lambda z: ordsim.cohens_d_pooled(z, REAL), DegenerateInputError),
    ("benjamini_hochberg", ordsim.benjamini_hochberg, DegenerateInputError),
]
COMPLEX_FORMS = {
    "complex128 array": np.array([0.25 + 1j, 0.5, 0.75]),
    "complex64 array": np.array([0.25 + 1j, 0.5, 0.75], dtype=np.complex64),
    "list of numpy complex scalars": [np.complex128(0.25 + 1j), 0.5, 0.75],
}


@pytest.mark.filterwarnings("ignore:Casting complex values")
@pytest.mark.parametrize("form", COMPLEX_FORMS)
@pytest.mark.parametrize("call, error", [t[1:] for t in NUMBER_TAKERS], ids=[t[0] for t in NUMBER_TAKERS])
def test_complex_input_is_a_typed_error(call, error, form):
    # A cast to float64 would drop the imaginary part with only numpy's
    # ComplexWarning (which the metrics' fast path may print first).
    with pytest.raises(error, match="complex values have no float64 value"):
        call(COMPLEX_FORMS[form])


@pytest.mark.parametrize("call, error", [t[1:] for t in NUMBER_TAKERS], ids=[t[0] for t in NUMBER_TAKERS])
def test_an_int_beyond_float64_is_a_typed_error(call, error):
    # float(10**400) raises OverflowError, which the checks report as theirs.
    with pytest.raises(error, match="int too large to convert to float"):
        call([10**400, 0.5, 0.75])


@pytest.mark.parametrize("category", [RuntimeWarning, DeprecationWarning])
@pytest.mark.parametrize(
    "module", ["ordsim"] + [f"ordsim.{m.name}" for m in pkgutil.iter_modules(ordsim.__path__)]
)
def test_the_suite_fails_on_a_warning_from_any_module(module, category):
    # pyproject.toml's filterwarnings.  metrics' pair functions still let
    # numpy warn at a dot that overflows, so its RuntimeWarning is let through.
    def warn():
        warnings.warn_explicit("injected", category, "injected.py", 1, module=module)

    if (module, category) == ("ordsim.metrics", RuntimeWarning):
        with pytest.warns(RuntimeWarning, match="injected"):
            warn()
    else:
        with pytest.raises(category, match="injected"):
            warn()


def _private_definitions(tree):
    """(name, node) for each private top-level name a module defines: a
    function, a class or an assignment whose name starts with one "_" and is
    not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(node, skip):
    """The names that ``node`` reads, imports or looks up as an attribute,
    outside the node ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, skip)


def test_every_private_top_level_name_is_used():
    # A helper that a refactor leaves behind is a private top-level name
    # that nothing in the package reads outside its own definition.
    package = Path(ordsim.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if not any(name in set(_uses(other, node)) for other in trees.values())
    ]
    assert unused == []


def test_every_name_imported_from_ordsim_is_read():
    # An import that a refactor leaves behind is a name a module imports
    # from another ordsim module and never reads.  The tracer hook points
    # are imported only to be wrapped.
    hook_points = {(module, name) for module, name, _ in TRACER_HOOK_POINTS}
    unused = []
    for path in Path(ordsim.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level > 0):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name != "*" and name not in read and (path.stem, name) not in hook_points:
                    unused.append(f"{path.stem}:{name}")
    assert unused == []
