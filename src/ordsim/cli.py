"""Command-line interface.

Commands: ``sim`` (score one pair), ``bounds`` (print the bound chain),
``bench`` (rank-correlate a metric against gold scores on a pair file),
``compare`` (paired statistics between two methods of a results table) and
``selftest`` (seeded property suite).

Exit codes: 0 success, 1 data error, 2 usage error, 3 self-test failure.
All numeric output uses ``.`` as the decimal point regardless of locale.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import Sequence

from .bounds import bound_chain
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidVectorError,
    OrdsimError,
)
from .harness import ComparisonReport, compare, evaluate
from .io import _check_results_field, load_pairs, load_results, parse_vector
from .metrics import DenseVector, MetricKind, similarity
from .selftest import run_selftest

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_SELFTEST_FAILURE = 3


def _fmt_fixed(x: float, places: int) -> str:
    """Fixed-point display with ties rounded away from zero.

    A value that is not finite is a data error, not a number to print.
    """
    if not math.isfinite(x):
        raise DegenerateInputError(f"result is not finite: {float(x)!r}")
    # A finite float64 has at most 309 integer digits; the default 28-digit
    # context would make quantize fail from about 1e22 on.
    context = Context(prec=309 + places, rounding=ROUND_HALF_UP)
    q = Decimal(repr(float(x))).quantize(Decimal(1).scaleb(-places), context=context)
    if q == 0:
        q = abs(q)
    return f"{q:.{places}f}"


def _fmt_p(p: float) -> str:
    return f"{p:.2e}"


def _fmt_stat(x: float) -> str:
    # Integral statistics (V, sign successes) print without a fraction part.
    return f"{x:g}"


def _parse_vector_arg(literal: str, arg_name: str) -> DenseVector:
    try:
        return parse_vector(literal)
    except InvalidVectorError as exc:
        raise InvalidVectorError(f"argument {arg_name}: {exc}") from exc


def _pair_args(args: argparse.Namespace) -> tuple[DenseVector, DenseVector]:
    u = _parse_vector_arg(args.u, "--u")
    v = _parse_vector_arg(args.v, "--v")
    if u.dim != v.dim:
        raise DimensionMismatchError(
            f"arguments --u/--v: dimension mismatch: {u.dim} vs {v.dim}"
        )
    return u, v


def _cmd_sim(args: argparse.Namespace) -> int:
    u, v = _pair_args(args)
    score = similarity(MetricKind(args.metric), u, v)
    print(_fmt_fixed(score, 6))
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    u, v = _pair_args(args)
    chain = bound_chain(u, v)
    lines = [
        f"{label:<16}{_fmt_fixed(value, 6)}"
        for label, value in (
            ("|u·v|", chain.abs_dot),
            ("rearrangement", chain.rearrangement),
            ("cauchy_schwarz", chain.cauchy_schwarz),
            ("am_qm", chain.arithmetic_quadratic),
        )
    ]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    dataset = load_pairs(args.pairs)
    report = evaluate(dataset, MetricKind(args.metric))
    if args.format == "csv":
        _check_results_field("dataset", report.dataset)
        print("model,method,dataset,score")
        print(
            f"{args.model},{report.metric.value},{report.dataset},"
            f"{_fmt_fixed(report.rho_x100, 2)}"
        )
    else:
        print(
            f"dataset={report.dataset} metric={report.metric.value} "
            f"n_pairs={report.n_pairs} rho_x100={_fmt_fixed(report.rho_x100, 2)}"
        )
    return EXIT_OK


def _print_compare_table(r: ComparisonReport, alternative: str) -> None:
    d = r.descriptive
    print(
        f"compare {r.method_a} vs {r.method_b}: {d.n} cells, "
        f"micro-average {r.method_a} {_fmt_fixed(r.micro_avg_a, 2)}, "
        f"{r.method_b} {_fmt_fixed(r.micro_avg_b, 2)}"
    )
    print(f"diffs ({r.method_a} - {r.method_b}):")
    print(f"  n {d.n}  wins {d.wins}  ties {d.ties}  losses {d.losses}")
    print(
        f"  mean {_fmt_fixed(d.mean, 3)}  sd {_fmt_fixed(d.sd, 3)}"
        f"  se {_fmt_fixed(d.se, 3)}"
    )
    print(
        f"  median {_fmt_fixed(d.median, 3)}  q1 {_fmt_fixed(d.q1, 3)}"
        f"  q3 {_fmt_fixed(d.q3, 3)}  iqr {_fmt_fixed(d.iqr, 3)}"
    )
    print(f"  min {_fmt_fixed(d.min, 3)}  max {_fmt_fixed(d.max, 3)}")
    decided = d.wins + d.losses
    print(
        f"  win rate {_fmt_fixed(100.0 * d.wins / d.n, 1)}% of {d.n} cells, "
        f"{_fmt_fixed(100.0 * d.win_rate_excl_ties, 1)}% of {decided} non-tied"
    )
    print(f"tests (alternative: {alternative}):")
    print(
        f"  wilcoxon  V = {_fmt_stat(r.wilcoxon.statistic)}"
        f"  p = {_fmt_p(r.wilcoxon.p_value)}"
        f"  p_adj = {_fmt_p(r.bh_adjusted['wilcoxon'])}"
        f"  r = {_fmt_fixed(r.wilcoxon.effect_size, 3)}"
    )
    print(
        f"  sign      {_fmt_stat(r.sign.statistic)}/{r.sign.n_used} successes"
        f"  p = {_fmt_p(r.sign.p_value)}"
        f"  p_adj = {_fmt_p(r.bh_adjusted['sign'])}"
    )
    print(
        f"  t-test    t({r.t_test.n_used - 1}) = {_fmt_fixed(r.t_test.statistic, 3)}"
        f"  p = {_fmt_p(r.t_test.p_value)}"
        f"  p_adj = {_fmt_p(r.bh_adjusted['t_test'])}"
        f"  d_z = {_fmt_fixed(r.t_test.effect_size, 3)}"
    )
    print(
        f"  lodo      t({r.lodo.n_used - 1}) = {_fmt_fixed(r.lodo.statistic, 3)}"
        f"  p = {_fmt_p(r.lodo.p_value)}"
        f"  over {r.lodo.n_used} exclusion means"
    )
    print(f"effect size: pooled cohen d = {_fmt_fixed(r.pooled_d, 3)}")


def _print_compare_csv(r: ComparisonReport) -> None:
    d = r.descriptive
    rows: list[tuple[str, object]] = [
        ("method_a", r.method_a),
        ("method_b", r.method_b),
        ("n", d.n),
        ("wins", d.wins),
        ("ties", d.ties),
        ("losses", d.losses),
        ("mean", d.mean),
        ("sd", d.sd),
        ("se", d.se),
        ("median", d.median),
        ("q1", d.q1),
        ("q3", d.q3),
        ("iqr", d.iqr),
        ("min", d.min),
        ("max", d.max),
        ("win_rate_excl_ties", d.win_rate_excl_ties),
        ("micro_avg_a", r.micro_avg_a),
        ("micro_avg_b", r.micro_avg_b),
        ("wilcoxon_v", r.wilcoxon.statistic),
        ("wilcoxon_p", r.wilcoxon.p_value),
        ("wilcoxon_p_adj", r.bh_adjusted["wilcoxon"]),
        ("wilcoxon_r", r.wilcoxon.effect_size),
        ("sign_successes", int(r.sign.statistic)),
        ("sign_n", r.sign.n_used),
        ("sign_p", r.sign.p_value),
        ("sign_p_adj", r.bh_adjusted["sign"]),
        ("t_stat", r.t_test.statistic),
        ("t_df", r.t_test.n_used - 1),
        ("t_p", r.t_test.p_value),
        ("t_p_adj", r.bh_adjusted["t_test"]),
        ("t_dz", r.t_test.effect_size),
        ("pooled_d", r.pooled_d),
        ("lodo_t", r.lodo.statistic),
        ("lodo_df", r.lodo.n_used - 1),
        ("lodo_p", r.lodo.p_value),
    ]
    print("statistic,value")
    for key, value in rows:
        print(f"{key},{value!r}" if isinstance(value, float) else f"{key},{value}")


def _cmd_compare(args: argparse.Namespace) -> int:
    table = load_results(args.results)
    alternative = "two-sided" if args.two_sided else "greater"
    try:
        report = compare(table, args.a, args.b, alternative)
    except DegenerateInputError as exc:
        # compare checked coverage first, so both methods have every cell.
        cells_a, scores_a = table.scores(args.a)
        cells_b, scores_b = table.scores(args.b)
        all_ties = dict(zip(cells_a, scores_a.tolist())) == dict(zip(cells_b, scores_b.tolist()))
        print(
            f"compare {args.a} vs {args.b}: {exc}; "
            f"statistical tests not applicable{' (all ties)' if all_ties else ''}"
        )
        return EXIT_DATA_ERROR
    if args.format == "csv":
        _print_compare_csv(report)
    else:
        _print_compare_table(report, alternative)
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    report = run_selftest(seed=args.seed, trials=args.trials)
    print(f"selftest seed={report.seed} trials={report.trials}")
    failed = []
    for result in report.results:
        status = "pass" if result.failures == 0 else "FAIL"
        passes = result.trials - result.failures
        print(f"{result.name:<22}{status}  {passes}/{result.trials}")
        if result.failures:
            failed.append(result)
    if failed:
        for result in failed:
            print(f"failing input for {result.name}: {result.first_failure}")
        print(f"selftest failed: {', '.join(r.name for r in failed)} (seed={report.seed})")
        return EXIT_SELFTEST_FAILURE
    print("all properties passed")
    return EXIT_OK


def _unsigned(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = _unsigned(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _model_name(text: str) -> str:
    try:
        _check_results_field("model", text)
    except DegenerateInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordsim",
        description="Similarity metrics, bound inspection and benchmark statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    metric_values = [m.value for m in MetricKind]

    p_sim = sub.add_parser("sim", help="score one vector pair with a metric")
    p_sim.add_argument("--metric", required=True, choices=metric_values)
    p_sim.add_argument("--u", required=True, help="comma-separated components")
    p_sim.add_argument("--v", required=True, help="comma-separated components")
    p_sim.set_defaults(func=_cmd_sim)

    p_bounds = sub.add_parser("bounds", help="print the bound chain for a pair")
    p_bounds.add_argument("--u", required=True)
    p_bounds.add_argument("--v", required=True)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_bench = sub.add_parser("bench", help="evaluate a metric on a pair-dataset file")
    p_bench.add_argument("--pairs", required=True, help="pair-dataset CSV path")
    p_bench.add_argument("--metric", required=True, choices=metric_values)
    p_bench.add_argument(
        "--model", type=_model_name, default="-", help="model name for csv output"
    )
    p_bench.add_argument("--format", choices=("table", "csv"), default="table")
    p_bench.set_defaults(func=_cmd_bench)

    p_cmp = sub.add_parser("compare", help="paired statistics between two methods")
    p_cmp.add_argument("--results", required=True, help="results-table CSV path")
    p_cmp.add_argument("--a", required=True, help="method A (the hypothesized winner)")
    p_cmp.add_argument("--b", required=True, help="method B")
    p_cmp.add_argument("--two-sided", action="store_true")
    p_cmp.add_argument("--format", choices=("table", "csv"), default="table")
    p_cmp.set_defaults(func=_cmd_compare)

    p_self = sub.add_parser("selftest", help="run the seeded property suite")
    p_self.add_argument("--seed", type=_unsigned, default=42)
    p_self.add_argument("--trials", type=_positive, default=1000)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrdsimError, ArithmeticError) as exc:
        # An ArithmeticError is float arithmetic the library does not guard
        # yet, such as a norm product that underflows to zero.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
