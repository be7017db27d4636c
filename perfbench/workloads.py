"""Seeded inputs, ops and output checks of the four benchmark workloads.

Each workload is a closed loop with one caller: ``op(i)`` runs the i-th op
through ordsim's public functions, looked up on the ``ordsim`` package at
call time so that the tracer can wrap them, and ``check(i, out)`` grades
every call of that op against the reference in ``oracle``.  A call's
outcome is ``ok``, ``wrong`` (a value outside the tolerance), ``typed`` (an
ordsim error where the true result is defined and representable) or
``untyped`` (any other exception).

The oracle is imported only by ``reference()``, which the runner calls after
it has taken ``setup_s``, so the cold-start probe imports nothing but
ordsim, numpy and this module.
"""

from __future__ import annotations

import itertools
import math
import zlib
from pathlib import Path

import numpy as np

import ordsim
import ordsim.errors
from spec import KIND_NAMES

KINDS = ("recos", "cos", "decos", "tanimoto")  # values of ordsim.MetricKind
FUNC_NAMES = dict(zip(KINDS, KIND_NAMES))  # the function each kind calls

METRIC_ATOL = 1e-9  # metric values lie in [-1, 1]
RHO_X100_ATOL = 1e-7
CHAIN_RTOL = 1e-9
CHAIN_ATOL = 2.0**-1073  # two units of the smallest subnormal
STAT_RTOL, STAT_ATOL = 1e-9, 1e-12

TYPED_ERRORS = tuple(
    obj
    for obj in vars(ordsim.errors).values()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == "ordsim.errors"
)


def error_outcome(exc: BaseException) -> str:
    return "typed" if isinstance(exc, TYPED_ERRORS) else "untyped"


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want) + atol


def metric_outcome(got, want: float) -> str:
    if isinstance(got, BaseException):
        return error_outcome(got)
    return "ok" if _close(got, want, 0.0, METRIC_ATOL) else "wrong"


def chain_outcome(got, want: np.ndarray) -> str:
    """A typed error is right only when a true chain value exceeds the float64 range."""
    beyond_range = bool(np.any(np.isinf(want)))
    if isinstance(got, BaseException):
        outcome = error_outcome(got)
        return "ok" if outcome == "typed" and beyond_range else outcome
    values = (got.abs_dot, got.rearrangement, got.cauchy_schwarz, got.arithmetic_quadratic)
    if beyond_range:
        return "wrong"
    ok = all(_close(float(g), float(w), CHAIN_RTOL, CHAIN_ATOL) for g, w in zip(values, want))
    return "ok" if ok else "wrong"


def scored_pairs(rng: np.random.Generator, n: int, d: int):
    """``v`` is ``u`` (sign-flipped for a quarter of the pairs) plus noise.

    Gold is a noisy monotone function of the true cosine on a 0-10 scale
    with one decimal, as human similarity ratings are, so it has ties.
    """
    u = rng.standard_normal((n, d))
    sign = np.where(rng.random((n, 1)) < 0.25, -1.0, 1.0)
    v = sign * u + rng.uniform(0.2, 3.0, (n, 1)) * rng.standard_normal((n, d))
    cos = np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    gold = np.round(5.0 + 5.0 * np.clip(cos + rng.normal(0.0, 0.1, n), -1.0, 1.0), 1)
    return gold, u, v


def pair_dataset(name: str, gold, u, v) -> "ordsim.PairDataset":
    records = tuple(
        ordsim.PairRecord(float(g), ordsim.DenseVector(a), ordsim.DenseVector(b))
        for g, a, b in zip(gold, u, v)
    )
    return ordsim.PairDataset(name, u.shape[1], records)


def _rho_refs(gold, u, v) -> dict[str, float]:
    from oracle import metric_values, spearman

    sims = metric_values(u, v)
    return {kind: 100.0 * spearman(sims[FUNC_NAMES[kind]], gold) for kind in KINDS}


def _eval_outcome(report, kind: str, n: int, want: float) -> str:
    if isinstance(report, BaseException):
        return error_outcome(report)
    ok = report.metric.value == kind and report.n_pairs == n
    return "ok" if ok and _close(report.rho_x100, want, 0.0, RHO_X100_ATOL) else "wrong"


class Workload:
    """Inputs and ops of one workload; subclasses fill in the class attributes."""

    name = ""
    pairs_per_op = 0  # vector pairs, or paired (A, B) cells on compare-grid
    cells_per_op = 0  # results handed back: EvalReports, metric values or compared cells
    block = 1  # ops per traced / untraced block in a traced run
    cycle = 1  # the loop ends on a multiple of this many ops

    def op(self, i: int):
        raise NotImplementedError

    def reference(self) -> None:
        """Compute the oracle values that ``check`` compares against."""
        raise NotImplementedError

    def check(self, i: int, out) -> list[tuple[str, str]]:
        """(call name, outcome) for every ordsim call op ``i`` made."""
        raise NotImplementedError

    def input_id(self, i: int) -> int:
        """Which distinct input op ``i`` used; failure counters count these."""
        return i % self.cycle

    def known_defect(self, i: int) -> bool:
        """Whether op ``i`` ran on inputs where ordsim is known to fail at the seed commit."""
        return False

    def bytes_read(self, i: int) -> int:
        return 0

    def rows_read(self, i: int) -> int:
        return 0

    def sample_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Pairs, as float64 arrays, for the kernel-floor probe."""
        return []


class EvalD768(Workload):
    """An in-memory PairDataset evaluated under each of the four kinds per op.

    One op runs all four kinds: their costs differ up to fourfold, so with one
    kind per op the median latency would fall in the gap between kinds.
    """

    name = "eval-d768"
    n, d = 500, 768
    pairs_per_op = len(KINDS) * n
    cells_per_op = len(KINDS)

    def __init__(self, seed: int, workdir: Path, write: bool):
        self.gold, self.u, self.v = scored_pairs(_rng(seed, self.name), self.n, self.d)
        self.dataset = pair_dataset(self.name, self.gold, self.u, self.v)

    def op(self, i):
        return [ordsim.evaluate(self.dataset, kind) for kind in KINDS]

    def reference(self):
        self.rho = _rho_refs(self.gold, self.u, self.v)

    def check(self, i, out):
        if isinstance(out, BaseException):
            return [("harness.evaluate", error_outcome(out))]
        return [
            (f"metrics.{FUNC_NAMES[kind]}", _eval_outcome(rep, kind, self.n, self.rho[kind]))
            for kind, rep in zip(KINDS, out)
        ]

    def sample_pairs(self):
        return list(zip(self.u[:64], self.v[:64]))


class PairsFileD768(Workload):
    """Seeded pair CSVs, loaded and evaluated with one kind per op, as ``ordsim bench`` does."""

    name = "pairsfile-d768"
    files, n, d = 3, 200, 768
    pairs_per_op = n
    cells_per_op = 1
    block = cycle = 12  # every (file, kind) combination once

    def __init__(self, seed: int, workdir: Path, write: bool):
        rng = _rng(seed, self.name)
        self.data = [scored_pairs(rng, self.n, self.d) for _ in range(self.files)]
        self.paths = [workdir / f"pairs{f}.csv" for f in range(self.files)]
        if write:
            for path, (gold, u, v) in zip(self.paths, self.data):
                ordsim.save_pairs(pair_dataset(path.stem, gold, u, v), path)
        self.sizes = [path.stat().st_size for path in self.paths]

    def op(self, i):
        dataset = ordsim.load_pairs(self.paths[i % self.files])
        return ordsim.evaluate(dataset, KINDS[i % len(KINDS)])

    def reference(self):
        self.rho = [_rho_refs(*data) for data in self.data]

    def check(self, i, out):
        kind = KINDS[i % len(KINDS)]
        want = self.rho[i % self.files][kind]
        return [(f"metrics.{FUNC_NAMES[kind]}", _eval_outcome(out, kind, self.n, want))]

    def bytes_read(self, i):
        return self.sizes[i % self.files]

    def sample_pairs(self):
        gold, u, v = self.data[0]
        return list(zip(u[:64], v[:64]))


def widemag_pairs(rng: np.random.Generator, n: int):
    """Pairs at d in 2..64; every 8th is scaled by a common 2**k, |k| <= 1000.

    Components span 2**-40..1 within a vector, so the most negative k push
    some of them into the subnormal range.  The k values are a shuffled
    even grid over [-1000, 1000], so every seed covers the whole range alike.
    """
    scaled = np.arange(n) % 8 == 7
    ks = np.rint(np.linspace(-1000, 1000, int(scaled.sum()))).astype(int)
    rng.shuffle(ks)
    ks = iter(ks)
    pairs = []
    for i in range(n):
        d = int(rng.integers(2, 65))
        u = rng.standard_normal(d) * np.exp2(-rng.integers(0, 41, d))
        u /= np.max(np.abs(u))
        w = rng.standard_normal(d) * np.exp2(-rng.integers(0, 41, d))
        v = rng.choice((-1.0, 1.0)) * u + rng.uniform(0.1, 2.0) * w / np.max(np.abs(w))
        if scaled[i]:
            k = int(next(ks))
            u, v = np.ldexp(u, k), np.ldexp(v, k)
        pairs.append((u, v))
    return pairs, scaled


PAIR_CALLS = tuple(f"metrics.{FUNC_NAMES[k]}" for k in KINDS) + ("bounds.bound_chain",)


def score_pair(a: np.ndarray, b: np.ndarray) -> list:
    """The four metrics and the bound chain of one pair, each a value or the exception raised."""
    out = []
    for fn in (ordsim.recos, ordsim.cosine, ordsim.decos, ordsim.tanimoto, ordsim.bound_chain):
        try:
            out.append(fn(a, b))
        except Exception as exc:  # graded by grade_pair(), never aborts the run
            out.append(exc)
    return out


def grade_pair(out: list, metric_ref: np.ndarray, chain_ref: np.ndarray) -> list[str]:
    """Outcomes of ``score_pair`` against the oracle's metric values and chain."""
    outcomes = [metric_outcome(got, want) for got, want in zip(out, metric_ref)]
    return outcomes + [chain_outcome(out[-1], chain_ref)]


class WideMagSmallD(Workload):
    """Plain-ndarray pairs passed straight to the four metrics and ``bound_chain``."""

    name = "widemag-smalld"
    n = 8000
    pairs_per_op = 1
    cells_per_op = len(KINDS)
    cycle = n  # every pair once per cycle, so failure counts do not depend on speed

    def __init__(self, seed: int, workdir: Path, write: bool):
        rng = _rng(seed, self.name)
        self.pairs, self.scaled = widemag_pairs(rng, self.n)
        self.order = rng.permutation(self.n)

    def op(self, i):
        return score_pair(*self.pairs[self.order[i % self.n]])

    def reference(self):
        from oracle import chain_values, metric_values

        self.metric_ref = np.empty((self.n, len(KINDS)))
        self.chain_ref = np.empty((self.n, 4))
        dims = np.array([a.size for a, _ in self.pairs])
        for d in np.unique(dims):
            idx = np.flatnonzero(dims == d)
            u = np.stack([self.pairs[j][0] for j in idx])
            v = np.stack([self.pairs[j][1] for j in idx])
            sims = metric_values(u, v)
            self.metric_ref[idx] = np.stack([sims[FUNC_NAMES[k]] for k in KINDS], axis=1)
            self.chain_ref[idx] = chain_values(u, v)

    def check(self, i, out):
        p = self.order[i % self.n]
        return list(zip(PAIR_CALLS, grade_pair(out, self.metric_ref[p], self.chain_ref[p])))

    def input_id(self, i):
        return int(self.order[i % self.n])

    def known_defect(self, i):
        return bool(self.scaled[self.order[i % self.n]])

    def sample_pairs(self):
        return [self.pairs[p] for p in self.order[:512]]


class CompareGrid(Workload):
    """A results CSV loaded and compared over all 30 ordered method pairs per op."""

    name = "compare-grid"
    models, datasets, methods = 8, 40, 6
    method_pairs = list(itertools.permutations(range(methods), 2))
    alternatives = ("greater", "two-sided")
    pairs_per_op = cells_per_op = len(method_pairs) * models * datasets
    block = cycle = 2  # every pair under both alternatives

    def __init__(self, seed: int, workdir: Path, write: bool):
        rng = _rng(seed, self.name)
        base = rng.uniform(20.0, 80.0, (self.models, self.datasets, 1))
        effect = rng.normal(0.0, 1.5, self.methods)
        scores = base + effect + rng.normal(0.0, 2.0, (self.models, self.datasets, self.methods))
        cents = np.rint(scores * 100.0).astype(int)
        # Exact ties: some methods repeat the previous method's score on a cell.
        repeat = rng.random(cents.shape) < 0.15
        repeat[:, :, 0] = False
        for m in range(1, self.methods):
            cents[:, :, m] = np.where(repeat[:, :, m], cents[:, :, m - 1], cents[:, :, m])
        self.cents = cents
        self.method_names = [f"method{m}" for m in range(self.methods)]
        self.path = workdir / "results.csv"
        if write:
            rows = tuple(
                ordsim.ResultsRow(f"model{mo}", self.method_names[me], f"data{da:02d}", int(cents[mo, da, me]))
                for mo in range(self.models)
                for da in range(self.datasets)
                for me in range(self.methods)
            )
            ordsim.save_results(ordsim.ResultsTable(rows), self.path)
        self.size = self.path.stat().st_size

    def _alternative(self, i: int, j: int) -> str:
        return self.alternatives[(i + j) % 2]

    def op(self, i):
        table = ordsim.load_results(self.path)
        names = self.method_names
        return [
            ordsim.compare(table, names[a], names[b], self._alternative(i, j))
            for j, (a, b) in enumerate(self.method_pairs)
        ]

    def reference(self):
        from oracle import compare_reference

        labels = [f"data{da:02d}" for _ in range(self.models) for da in range(self.datasets)]
        self.ref = {
            (a, b, alt): compare_reference(
                self.cents[:, :, a].ravel().tolist(), self.cents[:, :, b].ravel().tolist(), labels, alt
            )
            for a, b in self.method_pairs
            for alt in self.alternatives
        }

    def check(self, i, out):
        if isinstance(out, BaseException):
            return [("harness.compare", error_outcome(out))]
        return [
            ("harness.compare", self._report_outcome(report, self.ref[(a, b, self._alternative(i, j))]))
            for j, ((a, b), report) in enumerate(zip(self.method_pairs, out))
        ]

    @staticmethod
    def _report_outcome(report, want: dict[str, float]) -> str:
        for path, expected in want.items():
            obj = report
            for part in path.split("."):
                obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
            if isinstance(expected, int):
                if obj != expected:
                    return "wrong"
            elif not _close(float(obj), expected, STAT_RTOL, STAT_ATOL):
                return "wrong"
        return "ok"

    def bytes_read(self, i):
        return self.size

    def rows_read(self, i):
        return self.models * self.datasets * self.methods


WORKLOADS = {cls.name: cls for cls in (EvalD768, PairsFileD768, WideMagSmallD, CompareGrid)}


def make(name: str, seed: int, workdir: Path, write: bool) -> Workload:
    """Build a workload's inputs; ``write`` also writes its data files to ``workdir``."""
    if write:
        workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir, write)
