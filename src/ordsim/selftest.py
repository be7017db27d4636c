"""Seeded randomized self-checks of the library's own mathematical claims.

Each property draws deterministic inputs from one PCG64 stream, so a given
(seed, trials) pair always produces byte-identical results:

- bound-chain: the four bound values are correctly ordered.
- metric-hierarchy: |decos| <= |cos| <= |recos| for nonzero dot products.
- saturation: the equality conditions of the chain, by construction
  (monotone pairs, scaled permutations, sign flips).
- norm-identity: after unit normalization, decos equals cosine.
- tanimoto-bijection: decos equals the 2t/(1+t) image of tanimoto.
- rearrangement-oracle: the sort-based bound matches exhaustive permutation
  search at dimensions 2..7.

A typed ``ordsim`` error raised in a trial is a failure of that property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bound_chain, brute_force_rearrangement, rearrangement_bound
from .errors import BoundViolationError, OrdsimError
from .metrics import cosine, decos, decos_from_tanimoto, recos, tanimoto

__all__ = ["PropertyResult", "SelftestReport", "run_selftest"]

_DIMS = (2, 3, 8, 64, 512)
_ORACLE_DIMS = (2, 3, 4, 5, 6, 7)
_REL_TOL = 1e-9
_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    first_failure: str | None


@dataclass(frozen=True)
class SelftestReport:
    seed: int
    trials: int
    results: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 for r in self.results)


def _nonzero_dot_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    for _ in range(100):
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        if float(np.dot(u, v)) != 0.0:
            return u, v
    return np.ones(d), np.ones(d)


def _positive_perm(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    # A permutation of u with u . Pu > 0; falls back to a positive vector.
    for _ in range(100):
        pu = u[rng.permutation(u.size)]
        if float(np.dot(u, pu)) > 0.0:
            return pu
    u[:] = np.abs(u) + 0.1
    return u[rng.permutation(u.size)]


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _chain_trial(rng: np.random.Generator, i: int, d: int):
    u = rng.standard_normal(d)
    v = rng.standard_normal(d)
    try:
        bound_chain(u, v)
    except BoundViolationError as exc:
        return str(exc), u, v
    return None, u, v


def _hierarchy_trial(rng: np.random.Generator, i: int, d: int):
    u, v = _nonzero_dot_pair(rng, d)
    lo = abs(decos(u, v))
    mid = abs(cosine(u, v))
    hi = abs(recos(u, v))
    if lo > mid + _REL_TOL or mid > hi + _REL_TOL:
        return f"|decos|={lo!r} |cos|={mid!r} |recos|={hi!r}", u, v
    return None, u, v


def _saturation_trial(rng: np.random.Generator, i: int, d: int):
    kind = i % 5
    msg = None
    if kind == 0:
        # Similarly ordered with positive dot: recos saturates at +1.
        u = np.abs(rng.standard_normal(d)) + 0.1
        v = u * u + 0.5
        r = recos(u, v)
        if abs(r - 1.0) > _REL_TOL:
            msg = f"similarly ordered pair gave recos={r!r}"
    elif kind == 1:
        # Oppositely ordered with negative dot: recos saturates at -1.
        u = np.abs(rng.standard_normal(d)) + 0.1
        v = -(u * u + 0.5)
        r = recos(u, v)
        if abs(r + 1.0) > _REL_TOL:
            msg = f"oppositely ordered pair gave recos={r!r}"
    elif kind == 2:
        # v = k Pu with sgn(u.v) = sgn(k): rearrangement meets Cauchy-Schwarz.
        u = rng.standard_normal(d)
        pu = _positive_perm(rng, u)
        k = float(rng.uniform(0.25, 4.0)) * (1.0 if i % 2 else -1.0)
        v = k * pu
        chain = bound_chain(u, v)
        if not _rel_close(chain.rearrangement, chain.cauchy_schwarz):
            msg = (
                f"rearrangement={chain.rearrangement!r} != "
                f"cauchy_schwarz={chain.cauchy_schwarz!r}"
            )
        elif abs(abs(recos(u, v)) - abs(cosine(u, v))) > _REL_TOL:
            msg = f"|recos|={abs(recos(u, v))!r} != |cos|={abs(cosine(u, v))!r}"
    elif kind == 3:
        # v = +/-Pu (unit |k|): rearrangement meets the arithmetic bound.
        u = rng.standard_normal(d)
        pu = _positive_perm(rng, u)
        v = pu * (1.0 if i % 2 else -1.0)
        chain = bound_chain(u, v)
        if not _rel_close(chain.rearrangement, chain.arithmetic_quadratic):
            msg = (
                f"rearrangement={chain.rearrangement!r} != "
                f"am_qm={chain.arithmetic_quadratic!r}"
            )
        elif abs(abs(recos(u, v)) - abs(decos(u, v))) > _REL_TOL:
            msg = f"|recos|={abs(recos(u, v))!r} != |decos|={abs(decos(u, v))!r}"
    else:
        # v = +/-u: decos saturates at +/-1 exactly.
        u = rng.standard_normal(d)
        if not np.any(u):
            u[0] = 1.0
        v = u * (1.0 if i % 2 else -1.0)
        value = decos(u, v)
        if abs(abs(value) - 1.0) > _EXACT_TOL:
            msg = f"v=+/-u gave decos={value!r}"
    return msg, u, v


def _norm_identity_trial(rng: np.random.Generator, i: int, d: int):
    u, v = _nonzero_dot_pair(rng, d)
    un = u / np.linalg.norm(u)
    vn = v / np.linalg.norm(v)
    gap = abs(decos(un, vn) - cosine(un, vn))
    if gap > _EXACT_TOL:
        return f"unit-norm decos/cos gap {gap!r}", un, vn
    return None, un, vn


def _bijection_trial(rng: np.random.Generator, i: int, d: int):
    u, v = _nonzero_dot_pair(rng, d)
    if float(np.dot(u, v)) < 0.0:
        v = -v
    t = tanimoto(u, v)
    if not (0.0 <= t <= 1.0):
        return None, u, v  # rounding nudged t past an endpoint; not this property's claim
    gap = abs(decos(u, v) - decos_from_tanimoto(t))
    if gap > _EXACT_TOL:
        return f"bijection gap {gap!r} at t={t!r}", u, v
    return None, u, v


def _oracle_trial(rng: np.random.Generator, i: int, d: int):
    u, v = _nonzero_dot_pair(rng, d)
    fast = rearrangement_bound(u, v)
    slow = brute_force_rearrangement(u, v)
    if not _rel_close(fast, slow):
        return f"sort route {fast!r} != brute {slow!r}", u, v
    return None, u, v


# (name, dims cycled over the trials, trial); trial(rng, i, d) draws one pair and
# returns (failure message or None, u, v). The row index seeds the stream.
_PROPERTIES = (
    ("bound-chain", _DIMS, _chain_trial),
    ("metric-hierarchy", _DIMS, _hierarchy_trial),
    ("saturation", _DIMS, _saturation_trial),
    ("norm-identity", _DIMS, _norm_identity_trial),
    ("tanimoto-bijection", _DIMS, _bijection_trial),
    ("rearrangement-oracle", _ORACLE_DIMS, _oracle_trial),
)


def run_selftest(seed: int = 42, trials: int = 1000) -> SelftestReport:
    """Run every property for ``trials`` iterations; deterministic in ``seed``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    results = []
    for index, (name, dims, trial) in enumerate(_PROPERTIES):
        rng = np.random.default_rng([seed, index])
        failures = 0
        first = None
        for i in range(trials):
            d = dims[i % len(dims)]
            try:
                msg, u, v = trial(rng, i, d)
            except OrdsimError as exc:
                msg, u = f"{type(exc).__name__}: {exc}", None
            if msg is None:
                continue
            failures += 1
            if first is None:
                inputs = "" if u is None else f"; u={u.tolist()!r}; v={v.tolist()!r}"
                first = f"trial {i} (d={d}): {msg}{inputs}"
        results.append(PropertyResult(name, trials, failures, first))
    return SelftestReport(seed=seed, trials=trials, results=tuple(results))
