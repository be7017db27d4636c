"""CLI behavior: output formats, golden example commands, exit codes."""

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
            tuple(PairRecord(-r.gold, r.u, r.v) for r in ds.records),
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
