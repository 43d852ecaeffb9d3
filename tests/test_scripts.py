"""The experiment drivers in scripts/ run end to end and write the CSV they name;
estimate_from_outcomes.py reads recorded outcomes."""

import csv
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from shadowlab import RngStream, batch_estimates, random_observable, sample_haar_state
from shadowlab.cli import RESULT_FIELDS
from shadowlab.measurement import measure_independent_batch

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


def _run_estimate(monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", ["estimate_from_outcomes.py", *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "estimate_from_outcomes.py"), run_name="__main__")
    return exc.value.code


def test_estimate_from_outcomes_reads_recorded_outcomes(tmp_path, monkeypatch, capsys):
    rng = RngStream(3)
    d, k, n = 4, 5, 40
    phi = sample_haar_state(d, rng)
    O = random_observable(d, 2, rng)
    outcomes = measure_independent_batch(phi, rng, k * n).reshape(k, n, d)
    np.save(tmp_path / "outcomes.npy", outcomes)
    np.save(tmp_path / "O.npy", O.matrix)
    monkeypatch.chdir(tmp_path)
    assert _run_estimate(monkeypatch, "outcomes.npy", "O.npy", "--kind", "quadratic") == 0
    want = batch_estimates(O, outcomes, "quadratic")  # O from its own factor, not the matrix
    assert capsys.readouterr().out == f"median of 5 batch estimates: {np.sort(want)[2]:.6f}\n"


@pytest.mark.parametrize("outcomes, observable", [
    (np.eye(2, dtype=complex), np.diag([1.0, 0.0])),  # outcomes are (k, n, d), not (n, d)
    (np.eye(2, dtype=complex)[:, None], np.array([[1.0, 1.0], [0.0, 1.0]])),  # not Hermitian
    (np.eye(2, dtype=complex)[:, None] * 2, np.diag([1.0, 0.0])),  # not unit vectors
], ids=["2-d-outcomes", "non-hermitian", "off-unit-norm"])
def test_estimate_from_outcomes_rejects_bad_input(tmp_path, monkeypatch, capsys,
                                                  outcomes, observable):
    np.save(tmp_path / "outcomes.npy", outcomes)
    np.save(tmp_path / "O.npy", observable)
    monkeypatch.chdir(tmp_path)
    assert _run_estimate(monkeypatch, "outcomes.npy", "O.npy") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
