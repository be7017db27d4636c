"""The per-criterion verdicts that ``conftest.py`` prints at the end of a run."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_criteria_that_did_not_run_are_not_failures(fresh_python):
    proc = fresh_python(
        "-m", "pytest", str(ROOT / "tests" / "test_acceptance.py"),
        "-k", "criterion_01", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line for line in proc.stdout.splitlines() if line.startswith("criterion ")]
    assert len(verdicts) == 10
    assert verdicts[0] == "criterion 1 golden scores on the worked-example vectors: PASS"
    assert all(line.endswith(": not run") for line in verdicts[1:])
