"""Independent reference values that the benchmark checks every op against.

Nothing here imports ``ordsim``.  The metric and bound references rescale
each pair exactly by a power of two (``np.ldexp``) before any dot product or
sort, so they stay right across the whole float64 range, subnormals
included.  Spearman and the paired-comparison references use ``scipy.stats``
and the ``statistics`` module where their conventions match the ones
``ordsim`` documents.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import scipy.stats as st

KINDS = ("recos", "cosine", "decos", "tanimoto")


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, y)


def _exponent(x: np.ndarray) -> np.ndarray:
    """Per-row e with max|x| = f * 2**e, f in [0.5, 1)."""
    return np.frexp(np.max(np.abs(x), axis=1))[1]


def _common_scale(u: np.ndarray, v: np.ndarray):
    e = np.maximum(_exponent(u), _exponent(v))[:, None]
    return np.ldexp(u, -e), np.ldexp(v, -e), e[:, 0]


def _sorted_dots(us: np.ndarray, vs: np.ndarray):
    su, sv = np.sort(us, axis=1), np.sort(vs, axis=1)
    return _rowdot(su, sv), _rowdot(su, sv[:, ::-1])


def metric_values(u: np.ndarray, v: np.ndarray) -> dict[str, np.ndarray]:
    """The four metrics for each row pair of ``u`` and ``v`` (n x d, finite, nonzero).

    recos, decos and tanimoto do not change when both vectors are scaled by
    one positive factor; cosine does not change when each is scaled on its own.
    """
    with np.errstate(all="ignore"):
        us, vs, _ = _common_scale(u, v)
        dot = _rowdot(us, vs)
        same, opposite = _sorted_dots(us, vs)
        den = np.where(dot > 0.0, np.abs(same), np.abs(opposite))
        recos = np.where(dot == 0.0, 0.0, dot / den)  # den is 0 only where dot is
        uu, vv = _rowdot(us, us), _rowdot(vs, vs)
        ua = np.ldexp(u, -_exponent(u)[:, None])
        vb = np.ldexp(v, -_exponent(v)[:, None])
        cosine = _rowdot(ua, vb) / (np.sqrt(_rowdot(ua, ua)) * np.sqrt(_rowdot(vb, vb)))
        return {
            "recos": np.clip(recos, -1.0, 1.0),
            "cosine": np.clip(cosine, -1.0, 1.0),
            "decos": np.clip(dot / (0.5 * (uu + vv)), -1.0, 1.0),
            "tanimoto": dot / (uu + vv - dot),
        }


def chain_values(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bound-chain values (|u.v|, rearrangement, |u||v|, (|u|^2+|v|^2)/2) per row.

    Computed on the rescaled pair and scaled back with ``np.ldexp``, so a
    value beyond the float64 range comes out as ``inf`` and a value below it
    as the correctly rounded subnormal or zero.  The rearrangement term
    follows the sign of u.v: sorted the same way when it is positive, the
    opposite way when it is negative, the larger of the two when it is zero.
    """
    with np.errstate(all="ignore"):
        us, vs, e = _common_scale(u, v)
        dot = _rowdot(us, vs)
        same, opposite = np.abs(_sorted_dots(us, vs))
        rearrangement = np.where(
            dot > 0.0, same, np.where(dot < 0.0, opposite, np.maximum(same, opposite))
        )
        uu, vv = _rowdot(us, us), _rowdot(vs, vs)
        scaled = np.stack(
            [np.abs(dot), rearrangement, np.sqrt(uu) * np.sqrt(vv), 0.5 * (uu + vv)], axis=1
        )
        return np.ldexp(scaled, 2 * e[:, None])


def spearman(x, y) -> float:
    """Spearman correlation with average ranks for ties."""
    return float(st.spearmanr(x, y).statistic)


def compare_reference(
    cents_a: list[int], cents_b: list[int], datasets: list[str], alternative: str
) -> dict[str, float]:
    """Every number of a paired comparison of method a against method b.

    Scores are integer hundredths; as ``ordsim`` documents, each is turned
    into ``cents / 100.0`` and the pair is differenced in double precision.
    Keys are the dotted attribute paths of ``ordsim.harness.ComparisonReport``.
    """
    sa = [c / 100.0 for c in cents_a]
    sb = [c / 100.0 for c in cents_b]
    diffs = np.array([a - b for a, b in zip(sa, sb)])
    n = diffs.size
    out: dict[str, float] = {}

    sd = statistics.stdev(diffs)
    q1, med, q3 = statistics.quantiles(diffs, n=4, method="inclusive")
    wins, ties = int(np.sum(diffs > 0)), int(np.sum(diffs == 0))
    out.update({
        "descriptive.n": n,
        "descriptive.mean": statistics.fmean(diffs),
        "descriptive.sd": sd,
        "descriptive.se": sd / math.sqrt(n),
        "descriptive.median": med,
        "descriptive.q1": q1,
        "descriptive.q3": q3,
        "descriptive.iqr": q3 - q1,
        "descriptive.min": float(diffs.min()),
        "descriptive.max": float(diffs.max()),
        "descriptive.wins": wins,
        "descriptive.ties": ties,
        "descriptive.losses": n - wins - ties,
        "descriptive.win_rate_excl_ties": wins / (n - ties),
    })

    nonzero = diffs[diffs != 0.0]
    m = nonzero.size
    ranks = st.rankdata(np.abs(nonzero))
    wil = st.wilcoxon(
        nonzero, zero_method="wilcox", correction=True, method="approx", alternative=alternative
    )
    k = int(np.sum(nonzero > 0))
    ttest = st.ttest_1samp(diffs, 0.0, alternative=alternative)
    p_sign = st.binomtest(k, m, 0.5, alternative=alternative).pvalue
    out.update({
        "wilcoxon.statistic": float(ranks[nonzero > 0].sum()),
        "wilcoxon.p_value": float(wil.pvalue),
        "wilcoxon.effect_size": abs(float(wil.zstatistic)) / math.sqrt(m),
        "wilcoxon.n_used": m,
        "sign.statistic": k,
        "sign.p_value": float(p_sign),
        "sign.effect_size": k / m,
        "sign.n_used": m,
        "t_test.statistic": float(ttest.statistic),
        "t_test.p_value": float(ttest.pvalue),
        "t_test.effect_size": statistics.fmean(diffs) / sd,
        "t_test.n_used": n,
    })

    pooled = ((len(sa) - 1) * statistics.variance(sa) + (len(sb) - 1) * statistics.variance(sb)) / (
        len(sa) + len(sb) - 2
    )
    out["pooled_d"] = (statistics.fmean(sa) - statistics.fmean(sb)) / math.sqrt(pooled)
    adjusted = st.false_discovery_control([out["wilcoxon.p_value"], p_sign, out["t_test.p_value"]])
    out.update({f"bh_adjusted.{name}": float(p) for name, p in zip(("wilcoxon", "sign", "t_test"), adjusted)})

    labels = np.array(datasets)
    exclusion = [statistics.fmean(diffs[labels != ds]) for ds in dict.fromkeys(datasets)]
    lodo = st.ttest_1samp(exclusion, 0.0, alternative=alternative)
    out.update({
        "lodo.statistic": float(lodo.statistic),
        "lodo.p_value": float(lodo.pvalue),
        "lodo.effect_size": statistics.fmean(exclusion) / statistics.stdev(exclusion),
        "lodo.n_used": len(exclusion),
        "micro_avg_a": statistics.fmean(sa),
        "micro_avg_b": statistics.fmean(sb),
    })
    return out
