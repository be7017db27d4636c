"""Cold start: no path imports scipy, the t-tests included.

That includes ``ordsim bench`` on a plain pair file, which numpy parses in one call,
and neither imports ``concurrent.futures`` (and with it ``logging``): only a file
of two parts or more starts the thread pool.  ``ordsim compare`` also runs in an
interpreter where ``import scipy`` fails.

pytest's own process has scipy loaded already, so the checks run in a fresh
interpreter.
"""

import json

import numpy as np

from ordsim import DenseVector, PairDataset, PairRecord, cosine, fixture_path, save_pairs

_PROBE = """
import json, sys

import numpy

# Count the pair files that each of numpy's readers parses.
reader_calls = []
def counting(name, parse):
    def counted(*args, **kwargs):
        reader_calls.append(name)
        return parse(*args, **kwargs)
    return counted
for name in ("fromstring", "loadtxt"):
    setattr(numpy, name, counting(name, getattr(numpy, name)))

import ordsim
from ordsim import (
    MetricKind, PairedDiffs, bound_chain, compare, evaluate, fixture_path, leave_one_dataset_out,
    load_pairs, load_results, paired_t_test, run_selftest,
)
from ordsim.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

path = sys.argv[1]
dataset = load_pairs(path)
for kind in MetricKind:
    evaluate(dataset, kind)
bound_chain([1.0, 5.5, 2.0, 4.0], [2.0, 5.5, 1.0, 4.0])
assert run_selftest(seed=3, trials=5).passed
codes = [
    main(["sim", "--metric", "recos", "--u", "1,5.5,2,4", "--v", "1,8.5,2,4"]),
    main(["bounds", "--u", "1,5.5,2,4", "--v", "2,5.5,1,4"]),
    main(["bench", "--pairs", path, "--metric", "recos"]),
]
before = scipy_modules()
# A one-part load, evaluate and bench start no thread pool, which imports logging.
pool_modules = sorted(
    m for m in sys.modules if m.split(".")[0] in ("concurrent", "logging")
)
p_value = paired_t_test(PairedDiffs.from_values([1.0, 3.0])).p_value
table2 = str(fixture_path("table2.csv"))
compare(load_results(table2), "recos", "cos")
leave_one_dataset_out(PairedDiffs.from_values([0.5, 1.5, 0.25, 2.0], datasets="AABC"))
codes.append(main(["compare", "--results", table2, "--a", "recos", "--b", "cos"]))
print(json.dumps({
    "codes": codes, "before": before, "after": scipy_modules(), "p": p_value,
    "pool_modules": pool_modules,
    "reader_calls": reader_calls, "x87": ordsim.io._X87_LONG_DOUBLE,
}))
"""


def test_no_path_imports_scipy(fresh_python, tmp_path):
    rng = np.random.default_rng(5)
    records = []
    for _ in range(8):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        records.append(PairRecord(cosine(u, v), DenseVector(u), DenseVector(v)))
    path = tmp_path / "pairs.csv"
    save_pairs(PairDataset("pairs", 4, tuple(records)), path)

    proc = fresh_python("-c", _PROBE, str(path))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0, 0, 0]
    assert probe["before"] == []
    assert probe["pool_modules"] == []
    # load_pairs and bench both took the fast reader: the file is plain.
    reader = "fromstring" if probe["x87"] else "loadtxt"
    assert probe["reader_calls"] == [reader] * 2
    # compare, paired_t_test, leave_one_dataset_out and `ordsim compare` ran.
    assert probe["after"] == []
    assert probe["p"] == 0.14758361765043326


# Runs the CLI with every import of scipy failing, as where it is not installed.
_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"no module named {name!r}")
        return None

sys.meta_path.insert(0, NoScipy())
from ordsim.cli import main

sys.exit(main(sys.argv[1:]))
"""


def test_compare_runs_where_scipy_cannot_be_imported(fresh_python):
    table2 = str(fixture_path("table2.csv"))
    args = ["compare", "--results", table2, "--a", "recos", "--b", "cos"]
    proc = fresh_python("-c", _WITHOUT_SCIPY, *args)
    assert proc.returncode == 0, proc.stderr
    assert "t-test    t(76) = 7.201" in proc.stdout
    # The blocker works: importing scipy itself fails under it.
    probe = _WITHOUT_SCIPY.replace("from ordsim.cli", "import scipy\nfrom ordsim.cli")
    blocked = fresh_python("-c", probe, *args)
    assert blocked.returncode == 1 and "ImportError" in blocked.stderr
