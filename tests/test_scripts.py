"""The experiment drivers in scripts/ run end to end and write the CSV they name."""

import csv
import runpy
from pathlib import Path

import pytest

from shadowlab.cli import RESULT_FIELDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, csv_name, header", [
    ("run_jm_sweep.py", "jm_sweep.csv", list(RESULT_FIELDS)),
    ("run_bhm.py", "bhm_runs.csv", ["run_id", "b", "guess", "samples_used"]),
    ("run_estimator_comparison.py", "estimator_comparison.csv",
     ["s", "var_linear", "var_quadratic", "ratio", "pred_linear", "pred_quadratic"]),
    ("run_verification.py", None, None),
], ids=["jm", "bhm", "compare", "verify-moments"])
def test_script_runs_and_writes_its_csv(tmp_path, monkeypatch, capsys, script, csv_name, header):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if csv_name is None:
        assert out.splitlines()[-1] == "41/41 checks passed"
        assert list(tmp_path.iterdir()) == []
        return
    with open(tmp_path / csv_name, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == header and len(rows) > 1
