"""Cold start: everything but the paired t-test runs without importing scipy.

That includes ``ordsim bench`` on a plain pair file, which numpy's reader parses.

pytest's own process has scipy loaded already, so the check runs in a fresh
interpreter.
"""

import json

import numpy as np

from ordsim import DenseVector, PairDataset, PairRecord, cosine, save_pairs

_PROBE = """
import json, sys

import numpy

# Count the pair files that numpy's reader parses.
loadtxt_calls = []
def counting_loadtxt(*args, _loadtxt=numpy.loadtxt, **kwargs):
    loadtxt_calls.append(1)
    return _loadtxt(*args, **kwargs)
numpy.loadtxt = counting_loadtxt

import ordsim
from ordsim import MetricKind, PairedDiffs, bound_chain, evaluate, load_pairs, paired_t_test, run_selftest
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
p_value = paired_t_test(PairedDiffs.from_values([1.0, 3.0])).p_value
print(json.dumps({
    "codes": codes, "before": before, "after": scipy_modules(), "p": p_value,
    "loadtxt_calls": len(loadtxt_calls),
}))
"""


def test_scipy_is_imported_only_by_the_t_test(fresh_python, tmp_path):
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
    assert probe["codes"] == [0, 0, 0]
    assert probe["before"] == []
    # load_pairs and bench both took numpy's reader: the file is plain.
    assert probe["loadtxt_calls"] == 2
    assert "scipy.special" in probe["after"]
    assert probe["p"] == 0.14758361765043326
