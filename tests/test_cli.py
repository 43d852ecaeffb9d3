import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import shadowlab
from shadowlab import linalg
from shadowlab.cli import (
    ExperimentConfig,
    RESULT_FIELDS,
    compare_estimators,
    main,
    plan_linear_batches,
    plan_quadratic_batches,
    run_sweep,
    verify_all,
    wilson_interval,
    write_rows,
)


def read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(mode="jm", d=4, B=8.0)  # B > d
    with pytest.raises(ValueError):
        ExperimentConfig(mode="jm", d=1)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="jm", eps=0.0)
    cfg = ExperimentConfig(mode="jm", d=4, B=2.0, eps=0.3, trials=5)
    assert cfg.delta == 0.05


def test_wilson_interval_basics():
    lo, hi = wilson_interval(95, 100)
    assert lo < 0.95 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0, abs=1e-12)


def test_plan_helpers_meet_their_targets():
    p = 0.25
    for B, eps in ((1, 0.4), (4, 0.25)):
        lin = plan_linear_batches(B, eps, 0.05)
        assert (B + 8) / lin.s <= p * eps**2 + 1e-12
        quad = plan_quadratic_batches(B, 8, eps, 0.05)
        assert 16 * (B * 8 / quad.s**2 + 1 / quad.s) <= p * eps**2 + 1e-12
        assert 16 * (B * 8 / (quad.s - 1) ** 2 + 1 / (quad.s - 1)) > p * eps**2


def test_run_sweep_success_predicate_and_schema(tmp_path):
    cfg = ExperimentConfig(mode="jm", d=4, B=2.0, eps=0.3, delta=0.1, trials=8, seed=5)
    rows = run_sweep(cfg)
    assert len(rows) == 8
    for row in rows:
        assert row.abs_error == abs(row.estimate - row.truth)
        assert row.success == (row.abs_error < cfg.eps)
    out = tmp_path / "rows.csv"
    write_rows(str(out), rows)
    data = read_csv(str(out))
    assert data[0] == list(RESULT_FIELDS)
    assert len(data) == 9


def test_run_sweep_zero_trials_header_only(tmp_path):
    rows = run_sweep(ExperimentConfig(mode="jm", d=4, B=2.0, eps=0.3, trials=0))
    out = tmp_path / "empty.csv"
    write_rows(str(out), rows)
    assert read_csv(str(out)) == [list(RESULT_FIELDS)]


def test_run_sweep_deterministic(tmp_path):
    cfg = dict(mode="jm", d=4, B=2.0, eps=0.3, trials=6, seed=99)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(str(a), run_sweep(ExperimentConfig(**cfg)))
    write_rows(str(b), run_sweep(ExperimentConfig(**cfg)))
    assert a.read_bytes() == b.read_bytes()


# Estimates and truths of the per-outcome Shadow and einsum code that the
# estimator kernel replaced, at the same seeds; the kernel must keep them.
PINNED_SWEEPS = {
    ("jm", 4.0, 0.3, 11): (
        (0.2879732806763617, 0.4922231706849389, 0.27395275876138203),
        (0.2881713310125625, 0.4952159195424911, 0.254851375929691),
    ),
    ("im-linear", 2.0, 0.4, 12): (
        (0.1884189813358136, 0.42657176956926207, 0.2624413908899293),
        (0.18124575699410542, 0.4296400787306794, 0.27698910454165515),
    ),
    ("im-quadratic", 4.0, 0.4, 13): (
        (0.636276904294825, 0.6616054912914824, 0.291575175430441),
        (0.6267327873824926, 0.7073847317351589, 0.3441464177756939),
    ),
}


def test_run_sweep_fixed_seed_estimates_pinned():
    for (mode, B, eps, seed), (estimates, truths) in PINNED_SWEEPS.items():
        rows = run_sweep(
            ExperimentConfig(mode=mode, d=8, B=B, eps=eps, delta=0.1, trials=3, seed=seed)
        )
        assert [r.mode for r in rows] == [mode] * 3
        assert np.abs(np.array([r.estimate for r in rows]) - estimates).max() <= 1e-12
        assert np.abs(np.array([r.truth for r in rows]) - truths).max() <= 1e-12


def test_run_sweep_im_modes():
    for mode, kind in (("im-linear", "im-linear"), ("im-quadratic", "im-quadratic")):
        rows = run_sweep(
            ExperimentConfig(mode=mode, d=4, B=2.0, eps=0.4, delta=0.1, trials=4, seed=2)
        )
        assert all(r.mode == kind for r in rows)
    # auto selection: eps <= sqrt(B/d) -> quadratic
    rows = run_sweep(
        ExperimentConfig(mode="im", d=4, B=4.0, eps=0.5, delta=0.1, trials=2, seed=2)
    )
    assert rows[0].mode == "im-quadratic"


def test_compare_estimators_s2_runs():
    rows = compare_estimators(d=4, B=4.0, eps=0.5, N=200, seed=1, s_grid=(2, 8))
    assert len(rows) == 2
    assert rows[0][0] == 2 and all(np.isfinite(v) for v in rows[0][1:])


def test_compare_estimators_ratio_trend():
    # quadratic/linear variance ratio falls as s grows, tracking
    # (Bd/s^2 + 1/s) vs B/s
    rows = compare_estimators(d=16, B=16.0, eps=0.2, N=1500, seed=7)
    ratios = [r[3] for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert rows[-1][2] <= rows[-1][1]  # quadratic wins at s=64, B=d


def test_verify_all_passes_and_fault_injection():
    assert verify_all(quiet=True) == 0
    assert verify_all(perturbation=1e-3, quiet=True) == 1


def test_cli_exit_codes(tmp_path):
    assert main(["jm", "--d", "4", "--B", "2", "--eps", "0.4",
                 "--trials", "2", "--seed", "1"]) == 0
    # usage error: invalid config value
    assert main(["jm", "--d", "4", "--B", "9", "--trials", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 4\nB = 2\neps = 0.4\ndelta = 0.1\ntrials = 3\nseed = 11\n")
    out1 = tmp_path / "one.csv"
    assert main(["jm", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = read_csv(str(out1))
    assert len(rows) == 4 and rows[1][1] == "4"
    # a flag beats the file
    out2 = tmp_path / "two.csv"
    assert main(["jm", "--config", str(cfg), "--trials", "1", "--out", str(out2)]) == 0
    assert len(read_csv(str(out2))) == 2
    # unknown keys are a usage error
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    assert main(["jm", "--config", str(bad)]) == 2


def test_cli_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    monkeypatch.setenv("SHADOWLAB_SEED", "123")
    assert main(["jm", "--d", "4", "--B", "2", "--eps", "0.4", "--trials", "3",
                 "--out", str(out1)]) == 0
    monkeypatch.delenv("SHADOWLAB_SEED")
    assert main(["jm", "--d", "4", "--B", "2", "--eps", "0.4", "--trials", "3",
                 "--seed", "123", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_bhm_subcommand(tmp_path):
    out = tmp_path / "bhm.csv"
    assert main(["bhm", "--n", "8", "--alpha", "0.25", "--delta", "0.1",
                 "--runs", "6", "--seed", "4", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert rows[0] == ["run_id", "b", "guess", "samples_used"]
    assert len(rows) == 7
    for row in rows[1:]:
        assert row[1] in "01" and row[2] in "01"


def test_cli_cov_check_subcommand():
    assert main(["cov-check", "--d", "2", "--trials", "20000", "--seed", "9"]) == 0


def test_cli_cov_check_prints_nothing_before_an_error(monkeypatch, capsys):
    # with d^3 over budget the last dense pattern fails after three succeed
    monkeypatch.setattr(linalg, "DIM_BUDGET", 30)
    assert main(["cov-check", "--d", "4", "--trials", "1000", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert "exceeds budget" in err


def test_cli_compare_subcommand(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--d", "8", "--B", "8", "--trials", "300",
                 "--seed", "3", "--out", str(out)]) == 0
    assert len(read_csv(str(out))) == 5


def test_console_entry_point():
    # the installed script must resolve; run the module form for portability,
    # from the same source tree this test imported shadowlab from
    src = os.path.dirname(os.path.dirname(shadowlab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    res = subprocess.run(
        [sys.executable, "-m", "shadowlab.cli", "jm", "--d", "4", "--B", "2",
         "--eps", "0.4", "--trials", "1", "--seed", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0
    assert "trials=1" in res.stdout


def test_float_formatting_roundtrip(tmp_path):
    rows = run_sweep(ExperimentConfig(mode="jm", d=4, B=2.0, eps=0.3, trials=2, seed=8))
    out = tmp_path / "fmt.csv"
    write_rows(str(out), rows)
    data = read_csv(str(out))
    # 17 significant digits round-trip doubles exactly
    assert float(data[1][8]) == rows[0].estimate
    assert float(data[1][9]) == rows[0].truth
