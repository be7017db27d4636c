"""Cold start: everything but the paired t-test runs without importing scipy.

That includes ``ordsim bench`` on a plain pair file, which numpy parses in one call.

pytest's own process has scipy loaded already, so the check runs in a fresh
interpreter.
"""

import json

import numpy as np

from ordsim import DenseVector, PairDataset, PairRecord, cosine, save_pairs

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
    "reader_calls": reader_calls, "x87": ordsim.io._X87_LONG_DOUBLE,
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
    # load_pairs and bench both took the fast reader: the file is plain.
    reader = "fromstring" if probe["x87"] else "loadtxt"
    assert probe["reader_calls"] == [reader] * 2
    assert "scipy.special" in probe["after"]
    assert probe["p"] == 0.14758361765043326
