"""CLI behavior: output formats, golden example commands, exit codes."""

import hashlib

import numpy as np
import pytest

import ordsim.cli as cli
import ordsim.selftest
from ordsim import (
    DegenerateInputError,
    DenseVector,
    PairDataset,
    PairRecord,
    cosine,
    fixture_path,
    load_results,
    save_pairs,
)
from ordsim.selftest import PropertyResult, SelftestReport


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def table2():
    return str(fixture_path("table2.csv"))


class TestSim:
    def test_recos_golden_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "sim", "--metric", "recos", "--u", "1,5.5,2,4", "--v", "1,8.5,2,4"
        )
        assert code == 0
        assert out == "1.000000\n"

    def test_cos_identical(self, capsys):
        code, out, _ = run_cli(capsys, "sim", "--metric", "cos", "--u", "1,2", "--v", "1,2")
        assert code == 0
        assert out == "1.000000\n"

    def test_six_decimal_formatting(self, capsys):
        code, out, _ = run_cli(capsys, "sim", "--metric", "recos", "--u", "1,2", "--v", "2,1")
        assert code == 0
        assert out == "0.800000\n"

    def test_dimension_mismatch_names_arguments(self, capsys):
        code, out, err = run_cli(capsys, "sim", "--metric", "cos", "--u", "1,2", "--v", "1")
        assert code == 1
        assert "--u/--v" in err
        assert "dimension mismatch" in err

    def test_bad_vector_literal_names_argument(self, capsys):
        code, _, err = run_cli(capsys, "sim", "--metric", "cos", "--u", "1,,2", "--v", "1,2,3")
        assert code == 1
        assert "--u" in err

    def test_unknown_metric_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sim", "--metric", "euclid", "--u", "1", "--v", "1"])
        assert exc.value.code == 2

    def test_zero_vector_cosine_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "sim", "--metric", "cos", "--u", "0,0", "--v", "1,2")
        assert code == 1
        assert "zero" in err


@pytest.mark.parametrize(
    "command",
    [["bounds"], ["sim", "--metric", "tanimoto"]],
)
def test_non_finite_result_is_data_error(fresh_python, command):
    # u.v and |u|^2 overflow float64, so the chain and tanimoto are inf or NaN.
    proc = fresh_python("-m", "ordsim", *command, "--u", "1e200,2e200", "--v", "1e200,2e200")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("error: result is not finite")
    assert "Traceback" not in proc.stderr


class TestBounds:
    def test_hand_case_output(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--u", "1,2", "--v", "2,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("|u·v|") and lines[0].endswith("4.000000")
        assert lines[1].startswith("rearrangement") and lines[1].endswith("5.000000")
        assert lines[2].startswith("cauchy_schwarz") and lines[2].endswith("5.000000")
        assert lines[3].startswith("am_qm") and lines[3].endswith("5.000000")

    def test_strict_last_link(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--u", "1,2", "--v", "2,4")
        assert code == 0
        assert out.splitlines()[3].endswith("12.500000")

    def test_unit_case(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--u", "1,0", "--v", "1,0")
        assert code == 0
        assert all(line.endswith("1.000000") for line in out.splitlines())

    def test_large_finite_values_print_in_full(self, capsys):
        # About 2e30 and 1e40: beyond the 28 digits of Decimal's default context.
        code, out, err = run_cli(capsys, "bounds", "--u", "1e20,1e20", "--v", "1e10,1e10")
        assert (code, err) == (0, "")
        assert out == (
            "|u·v|           2000000000000000000000000000000.000000\n"
            "rearrangement   2000000000000000000000000000000.000000\n"
            "cauchy_schwarz  2000000000000000300000000000000.000000\n"
            "am_qm           1" + "0" * 40 + ".000000\n"
        )


class TestFixedPoint:
    def test_largest_float_formats_in_full(self):
        text = cli._fmt_fixed(1.7976931348623157e308, 6)
        assert text == "17976931348623157" + "0" * 292 + ".000000"
        assert cli._fmt_fixed(-1e22, 6) == "-1" + "0" * 22 + ".000000"

    @pytest.mark.parametrize(
        "x, places, text",
        [(2.675, 2, "2.68"), (-0.0005, 3, "-0.001"), (-1e-9, 3, "0.000"), (0.8, 6, "0.800000")],
    )
    def test_ties_round_away_from_zero(self, x, places, text):
        assert cli._fmt_fixed(x, places) == text


@pytest.fixture
def perfect_pairs(tmp_path):
    rng = np.random.default_rng(181)
    records = []
    for _ in range(6):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        records.append(PairRecord(cosine(u, v), DenseVector(u), DenseVector(v)))
    path = tmp_path / "perfect.csv"
    save_pairs(PairDataset("perfect", 3, tuple(records)), path)
    return path


class TestBench:
    def test_table_output(self, capsys, perfect_pairs):
        code, out, _ = run_cli(capsys, "bench", "--pairs", str(perfect_pairs), "--metric", "cos")
        assert code == 0
        assert out == "dataset=perfect metric=cos n_pairs=6 rho_x100=100.00\n"

    def test_csv_output_uses_results_schema(self, capsys, perfect_pairs):
        code, out, _ = run_cli(
            capsys,
            "bench", "--pairs", str(perfect_pairs), "--metric", "cos",
            "--format", "csv", "--model", "demo",
        )
        assert code == 0
        assert out.splitlines() == ["model,method,dataset,score", "demo,cos,perfect,100.00"]

    def test_csv_output_loads_as_results(self, capsys, tmp_path, perfect_pairs):
        code, out, _ = run_cli(
            capsys,
            "bench", "--pairs", str(perfect_pairs), "--metric", "cos",
            "--format", "csv", "--model", "m x",
        )
        assert code == 0
        path = tmp_path / "results.csv"
        path.write_text(out, encoding="utf-8")
        (row,) = load_results(path).rows
        assert (row.model, row.method, row.dataset, row.score_cents) == (
            "m x", "cos", "perfect", 10000,
        )

    @pytest.mark.parametrize("model", ["m,x", "", " m", "m ", "  ", "m\nx"])
    def test_bad_model_name_is_usage_error(self, capsys, perfect_pairs, model):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["bench", "--pairs", str(perfect_pairs), "--metric", "cos",
                 "--format", "csv", "--model", model]
            )
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err

    def test_comma_in_dataset_name_is_data_error(self, capsys, tmp_path, perfect_pairs):
        path = tmp_path / "a,b.csv"
        path.write_bytes(perfect_pairs.read_bytes())
        code, out, err = run_cli(
            capsys, "bench", "--pairs", str(path), "--metric", "cos", "--format", "csv"
        )
        assert code == 1
        assert out == ""
        assert err == "error: dataset must be non-empty and comma-free, got 'a,b'\n"

    def test_reversed_gold(self, capsys, tmp_path, perfect_pairs):
        from ordsim import load_pairs

        ds = load_pairs(perfect_pairs)
        flipped = PairDataset(
            "reversed",
            ds.dim,
            [
                PairRecord(-gold, DenseVector(u), DenseVector(v))
                for gold, u, v in zip(ds.gold, ds.U, ds.V)
            ],
        )
        path = tmp_path / "reversed.csv"
        save_pairs(flipped, path)
        code, out, _ = run_cli(capsys, "bench", "--pairs", str(path), "--metric", "cos")
        assert code == 0
        assert "rho_x100=-100.00" in out

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bench", "--pairs", str(tmp_path / "nope.csv"), "--metric", "cos"
        )
        assert code == 1
        assert "error:" in err

    def test_non_finite_score_is_data_error(self, capsys, tmp_path):
        rng = np.random.default_rng(191)
        U = rng.standard_normal((10, 3))
        V = rng.standard_normal((10, 3))
        U[4] = V[4] = [1e200, 2e200, -1e200]
        path = tmp_path / "wide.csv"
        save_pairs(PairDataset._from_columns("wide", np.arange(10.0), U, V), path)
        code, out, err = run_cli(capsys, "bench", "--pairs", str(path), "--metric", "tanimoto")
        assert code == 1
        assert out == ""
        assert err == "error: tanimoto score of row 4 of dataset 'wide' is not finite: nan\n"


class TestCompare:
    def test_published_table_summary(self, capsys, table2):
        code, out, _ = run_cli(capsys, "compare", "--results", table2, "--a", "recos", "--b", "cos")
        assert code == 0
        assert "V = 2581" in out
        assert "71/72 successes" in out
        assert "mean 0.292" in out
        assert "t(76) = 7.201" in out
        assert "t(6) = 75.349" in out
        assert "pooled cohen d = 0.027" in out
        assert "min -0.310" in out and "max 1.360" in out
        assert "wins 71" in out and "ties 5" in out and "losses 1" in out

    def test_cos_vs_decos_wins(self, capsys, table2):
        code, out, _ = run_cli(capsys, "compare", "--results", table2, "--a", "cos", "--b", "decos")
        assert code == 0
        assert "wins 58" in out

    def test_self_compare_reports_ties_and_fails(self, capsys, table2):
        code, out, _ = run_cli(capsys, "compare", "--results", table2, "--a", "recos", "--b", "recos")
        assert code == 1
        assert "not applicable" in out
        assert "zero" in out

    def test_constant_nonzero_difference_is_not_all_ties(self, capsys, tmp_path):
        # a beats b by exactly 1.00 on every cell: no ties, but the t-test is undefined.
        path = tmp_path / "results.csv"
        rows = ["model,method,dataset,score"]
        for model in ("m1", "m2"):
            for i, dataset in enumerate(("D1", "D2", "D3")):
                rows += [f"{model},a,{dataset},{50 + i}.25", f"{model},b,{dataset},{49 + i}.25"]
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "compare", "--results", str(path), "--a", "a", "--b", "b")
        assert code == 1
        assert err == ""
        assert out == (
            "compare a vs b: paired t-test is undefined for constant differences; "
            "statistical tests not applicable\n"
        )

    def test_oversized_score_is_data_error(self, fresh_python, tmp_path):
        score = "1" + "0" * 400
        path = tmp_path / "big.csv"
        path.write_text(
            f"model,method,dataset,score\nm,a,d1,{score}\nm,b,d1,1.00\nm,a,d2,2.00\nm,b,d2,1.00\n"
        )
        proc = fresh_python("-m", "ordsim", "compare", "--results", str(path), "--a", "a", "--b", "b")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {path}:2: score is too large for a float64: {score!r}\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("score_b", ["1.00", "-150" + "0" * 306], ids=["finite-diffs", "inf-diff"])
    def test_scores_above_1e306_compare(self, fresh_python, tmp_path, score_b):
        # 7.5e307 is a finite float64 score; a - b overflows only in the second case.
        path = tmp_path / "big.csv"
        path.write_text(
            f"model,method,dataset,score\nm,a,d1,75{'0' * 306}\nm,b,d1,{score_b}\n"
            "m,a,d2,2.00\nm,b,d2,1.00\nm,a,d3,3.00\nm,b,d3,1.50\n"
        )
        proc = fresh_python("-m", "ordsim", "compare", "--results", str(path), "--a", "a", "--b", "b")
        assert proc.stderr == ""
        if score_b == "1.00":
            assert proc.returncode == 0
            assert "micro-average a 25" in proc.stdout
        else:
            assert proc.returncode == 1
            assert "differences must be finite" in proc.stdout

    def test_csv_output(self, capsys, table2):
        code, out, _ = run_cli(
            capsys, "compare", "--results", table2, "--a", "recos", "--b", "cos",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "statistic,value"
        rows = dict(line.split(",", 1) for line in lines[1:])
        assert rows["wilcoxon_v"] == "2581.0"
        assert rows["n"] == "77"
        assert rows["sign_successes"] == "71"
        assert rows["t_df"] == "76"
        assert float(rows["mean"]) == pytest.approx(0.2924675, abs=1e-6)

    def test_two_sided_flag(self, capsys, table2):
        code, out, _ = run_cli(
            capsys, "compare", "--results", table2, "--a", "recos", "--b", "cos", "--two-sided"
        )
        assert code == 0
        assert "alternative: two-sided" in out

    def test_unknown_method_is_data_error(self, capsys, table2):
        code, _, err = run_cli(capsys, "compare", "--results", table2, "--a", "recos", "--b", "zzz")
        assert code == 1
        assert "zzz" in err


def _huge_scores_file(path):
    """3 models x 4 datasets; in cell k = 1..12, A scores k * 1e305 and B
    scores -k * 1e305, so every squared difference overflows a float64."""
    lines = ["model,method,dataset,score"]
    for k in range(1, 13):
        model, dataset = f"m{(k - 1) // 4}", f"D{(k - 1) % 4}"
        lines += [f"{model},A,{dataset},{k}{'0' * 305}", f"{model},B,{dataset},-{k}{'0' * 305}"]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCompareLargeScores:
    def test_csv_and_table_print_the_same_finite_values(self, fresh_python, tmp_path):
        path = _huge_scores_file(tmp_path / "huge.csv")
        runs = {
            fmt: fresh_python("-m", "ordsim", "compare", "--results", path,
                              "--a", "A", "--b", "B", "--format", fmt)
            for fmt in ("csv", "table")
        }
        for proc in runs.values():
            assert (proc.returncode, proc.stderr) == (0, "")
        csv = dict(line.split(",", 1) for line in runs["csv"].stdout.splitlines()[1:])
        keys = ("mean", "sd", "se", "t_stat", "t_dz", "lodo_t", "pooled_d", "micro_avg_a")
        values = {key: float(csv[key]) for key in keys}
        assert all(np.isfinite(v) and v != 0.0 for v in values.values())
        assert values["t_stat"] == pytest.approx(6.5 / (13 / 12) ** 0.5, rel=1e-12)
        assert values["pooled_d"] == pytest.approx(13**0.5, rel=1e-12)
        assert float(csv["t_p"]) < 1e-4 and float(csv["lodo_p"]) < 1e-4
        table = runs["table"].stdout
        for key, label, places in [
            ("mean", "mean", 3), ("sd", "sd", 3), ("se", "se", 3),
            ("t_stat", "t(11) =", 3), ("t_dz", "d_z =", 3), ("lodo_t", "t(3) =", 3),
            ("pooled_d", "pooled cohen d =", 3), ("micro_avg_a", "A", 2),
        ]:
            assert f"{label} {cli._fmt_fixed(values[key], places)}" in table, key

    def test_overflowing_micro_average_sums_print_in_both_formats(self, fresh_python, tmp_path):
        # 240 cells of about 1.3e306: each method's scores sum past 1.8e308.
        # B's rows come in reverse order, so its average is taken in A's order.
        values = [120 + k % 21 for k in range(240)]
        cells = [(f"m{k // 6}", f"D{k % 6}", f"{v}{'0' * 304}") for k, v in enumerate(values)]
        lines = ["model,method,dataset,score"]
        lines += [f"{model},A,{dataset},{score}" for model, dataset, score in cells]
        lines += [f"{model},B,{dataset},-{score}" for model, dataset, score in cells[::-1]]
        path = tmp_path / "sums.csv"
        path.write_text("\n".join(lines) + "\n")
        runs = {
            fmt: fresh_python("-m", "ordsim", "compare", "--results", str(path),
                              "--a", "A", "--b", "B", "--format", fmt)
            for fmt in ("csv", "table")
        }
        for proc in runs.values():
            assert (proc.returncode, proc.stderr) == (0, "")
        csv = dict(line.split(",", 1) for line in runs["csv"].stdout.splitlines()[1:])
        avg_a, avg_b = float(csv["micro_avg_a"]), float(csv["micro_avg_b"])
        assert avg_a == pytest.approx(sum(values) / 240 * 1e304, rel=1e-12)
        assert avg_b == pytest.approx(-avg_a, rel=1e-12)
        assert (
            f"micro-average A {cli._fmt_fixed(avg_a, 2)}, B {cli._fmt_fixed(avg_b, 2)}"
            in runs["table"].stdout
        )

    def test_the_cli_reads_columns_not_rows(self, capsys, monkeypatch, tmp_path, table2):
        tables = []

        def load(path):
            tables.append(load_results(path))
            return tables[-1]

        monkeypatch.setattr(cli, "load_results", load)
        code, out, _ = run_cli(capsys, "compare", "--results", table2, "--a", "recos", "--b", "cos")
        assert code == 0
        code, out, _ = run_cli(capsys, "compare", "--results", table2, "--a", "cos", "--b", "cos")
        assert code == 1 and "(all ties)" in out
        assert len(tables) == 2 and all("rows" not in vars(t) for t in tables)


# sha256 of `ordsim compare` stdout on the bundled table2.csv, for every
# ordered pair of distinct methods, both alternatives and both formats.
COMPARE_OUTPUT_SHA256 = {
    ("recos", "cos", "greater", "table"): "54e6f4fea9e9a1ae6d776bb77011c7e95130bbd1cbddf791250ba8c1527a8d73",
    ("recos", "cos", "greater", "csv"): "9e3e37a09cc4b732dd6f0c51764e84fdc07a711c7f7c739427b9895cf4e424bc",
    ("recos", "cos", "two-sided", "table"): "68980dffb48104774a6471a6b6421506d297ae6252bd226c6116da3b8bfcacb4",
    ("recos", "cos", "two-sided", "csv"): "1f241aad8f308f74b620d56cb5de53e9c553f76beaeceb1fcc6d4f7307ac9fee",
    ("recos", "decos", "greater", "table"): "34ee6e7adfd84f1a352264b7b4184f46b8f94b06d1b9881557b595764831d559",
    ("recos", "decos", "greater", "csv"): "04f1fc55bd939f7bad150e8a3bb0a928d464455e534e2e0637d7ea38979a0b62",
    ("recos", "decos", "two-sided", "table"): "a7da75ae4ee42bf44124cff2c41adf4cb8f45a208777e9328bb99e26ab2cbf9f",
    ("recos", "decos", "two-sided", "csv"): "56d8090b31030910a79161a5a3a4afb476b71b1b0de46c7b8f9db08de31e1139",
    ("cos", "recos", "greater", "table"): "e160b2fe1b21fba6fa6cfd2011b3ad6c130837cd11a74d347bf68023781667dd",
    ("cos", "recos", "greater", "csv"): "343c63cc04a5b283b1c67bd38f24b0e615846ba4415eaa51de5995d6c23a272c",
    ("cos", "recos", "two-sided", "table"): "e7cf420e15bd488926160f8d9e4513ce8dcbf1856d35e9ac888d6291388c0f00",
    ("cos", "recos", "two-sided", "csv"): "83326772710727be7f1b61e902cf5ee1ddf47a9cb71f11abb2b72f7c11b6c2b8",
    ("cos", "decos", "greater", "table"): "f82d6a11af8e5af3d1e9b62950c56caf850697b4681a71ecf1ec57245c6983a2",
    ("cos", "decos", "greater", "csv"): "fd4adbb5dbd64c650d40ba048a0d69d6c744e3a44793121aea1267aa1002ef4b",
    ("cos", "decos", "two-sided", "table"): "9f0353ed9b6510dde88d2f0ef974d4ae222ef1d96c6c3373dc34e8f7e5f05064",
    ("cos", "decos", "two-sided", "csv"): "06a61e25985b4b4d423323ca6d53d553baade5815d7d763dd0d7e5158bc74721",
    ("decos", "recos", "greater", "table"): "a8ae09876cb0c744501be2a3282fef97dfcbdfbf6e141c940318c0423745a10e",
    ("decos", "recos", "greater", "csv"): "4b7c692b9d047c43dbb2f671fd6c7f32ae3d25637f81869f80ed29fae40533fe",
    ("decos", "recos", "two-sided", "table"): "1def52aacf61fd886211c61057b68f47adacbbdfa0fc180e9c40600246e151bf",
    ("decos", "recos", "two-sided", "csv"): "3a2861fc8f818d705007a7af02f965e557a1eaa22ce0cd9464850aabfa22c15c",
    ("decos", "cos", "greater", "table"): "cd73bf47d45f3228cfec0eb5c962da3773d93d02efcd9e21c575698f647da108",
    ("decos", "cos", "greater", "csv"): "f5fcbe1e1f8364590c2b395447b63af3d61c9a55722a68822d28e8b32722639d",
    ("decos", "cos", "two-sided", "table"): "c41d54413902d96a58452ccae6e27665094a97fcd3fe9bee960286313a536dd8",
    ("decos", "cos", "two-sided", "csv"): "613bb838681ad635c096307b1f872737175666b09c83e95004e75aeb58187443",
}


class TestCompareOutputPinned:
    @pytest.mark.parametrize("a, b, alternative, fmt", sorted(COMPARE_OUTPUT_SHA256))
    def test_output_hash(self, capsys, table2, a, b, alternative, fmt):
        args = ["compare", "--results", table2, "--a", a, "--b", b, "--format", fmt]
        if alternative == "two-sided":
            args.append("--two-sided")
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == COMPARE_OUTPUT_SHA256[a, b, alternative, fmt]


class TestArithmeticErrors:
    def test_unguarded_float_error_is_a_data_error(self, fresh_python):
        # cos of (1e-170, 1e-170) with itself: the norm product underflows to 0.
        pair = "1e-170,1e-170"
        proc = fresh_python("-m", "ordsim", "sim", "--metric", "cos", "--u", pair, "--v", pair)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: float division by zero\n"


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "command, flag, extra",
        [
            ("bench", "--pairs", ["--metric", "recos"]),
            ("compare", "--results", ["--a", "recos", "--b", "cos"]),
        ],
    )
    def test_data_error_without_traceback(self, fresh_python, tmp_path, command, flag, extra):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"gold,u_0,v_0\n\xff1,2,3\n")
        proc = fresh_python("-m", "ordsim", command, flag, str(path), *extra)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path}:2: not valid UTF-8: invalid start byte\n"
        assert "Traceback" not in proc.stderr


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "7", "--trials", "30")
        assert code == 0
        for name in (
            "bound-chain",
            "metric-hierarchy",
            "saturation",
            "norm-identity",
            "tanimoto-bijection",
            "rearrangement-oracle",
        ):
            assert name in out
        assert "all properties passed" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "selftest", "--seed", "7", "--trials", "25")
        _, out2, _ = run_cli(capsys, "selftest", "--seed", "7", "--trials", "25")
        assert out1 == out2

    def test_zero_trials_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--trials", "0"])
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--seed", "-1"])
        assert exc.value.code == 2

    def test_failure_exit_code_and_reporting(self, capsys, monkeypatch):
        failing = SelftestReport(
            seed=42,
            trials=5,
            results=(
                PropertyResult("bound-chain", 5, 0, None),
                PropertyResult("saturation", 5, 2, "trial 1 (d=2): gap; u=[1.0]; v=[2.0]"),
            ),
        )
        monkeypatch.setattr(cli, "run_selftest", lambda seed, trials: failing)
        code, out, _ = run_cli(capsys, "selftest", "--seed", "42", "--trials", "5")
        assert code == 3
        assert "saturation" in out and "FAIL" in out
        assert "seed=42" in out
        assert "trial 1 (d=2)" in out

    def test_typed_error_in_a_property_is_a_selftest_failure(self, capsys, monkeypatch):
        def degenerate(u, v):
            raise DegenerateInputError("injected")

        monkeypatch.setattr(ordsim.selftest, "decos", degenerate)
        code, out, err = run_cli(capsys, "selftest", "--seed", "3", "--trials", "5")
        assert code == 3
        assert err == ""
        assert "failing input for metric-hierarchy: trial 0 (d=2): DegenerateInputError: injected\n" in out
        assert out.endswith("selftest failed: metric-hierarchy, saturation, norm-identity, "
                            "tanimoto-bijection (seed=3)\n")


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sim", "--metric", "cos", "--u", "1,2"])
        assert exc.value.code == 2
