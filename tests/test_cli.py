import csv
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shadowlab
from shadowlab import bhm as bhm_mod, cli, ensembles, linalg, measurement, moments
from shadowlab.cli import (
    ExperimentConfig,
    RESULT_FIELDS,
    _MOMENT_GRID,
    compare_estimators,
    main,
    plan_linear_batches,
    plan_quadratic_batches,
    run_sweep,
    verify_all,
    wilson_interval,
    write_rows,
)
from shadowlab.ensembles import CHUNK_FLOATS, RngStream, stream_aligned_posterior_states
from shadowlab.estimators import plan_batches


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
    # mode is jm or im; estimator picks the im kind, and jm takes only auto
    for mode in ("jm", "im"):
        for estimator in ("auto", "linear", "quadratic", "bogus"):
            ok = estimator == "auto" or (mode == "im" and estimator != "bogus")
            if ok:
                ExperimentConfig(mode=mode, estimator=estimator)
            else:
                with pytest.raises(ValueError):
                    ExperimentConfig(mode=mode, estimator=estimator)
    for mode in ("im-linear", "im-quadratic", "bhm", ""):
        with pytest.raises(ValueError):
            ExperimentConfig(mode=mode)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(95, 100)
    assert lo < 0.95 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0, abs=1e-12)


@given(
    d=st.integers(2, 4096),
    b_frac=st.floats(0, 1),
    eps=st.floats(1e-3, 1),
    delta=st.floats(1e-12, 0.999),
)
@settings(max_examples=300, deadline=None)
def test_plan_helpers_meet_their_targets(d, b_frac, eps, delta):
    B = 1 + b_frac * (d - 1)
    target = 0.25 * eps**2
    r = math.sqrt(4 * 0.25 * 0.75)  # sqrt(4p(1-p)) at p = 1/4
    planners = (
        (plan_batches(B, eps, delta), lambda s: (B + 8 * s) / s**2, 1),
        (plan_linear_batches(B, eps, delta), lambda s: (B + 8) / s, 1),
        (plan_quadratic_batches(B, d, eps, delta), lambda s: 16 * (B * d / s**2 + 1 / s), 2),
    )
    for plan, bound, s_min in planners:
        # s is the least s >= s_min meeting the per-batch bound
        assert plan.s >= s_min and bound(plan.s) <= target
        assert plan.s == s_min or bound(plan.s - 1) > target
        # k is the least odd count with r^k <= delta
        assert plan.k % 2 == 1 and r**plan.k <= delta
        assert plan.k == 1 or r ** (plan.k - 2) > delta


# (B, d, eps, delta) -> (s, k) of plan_batches, plan_linear_batches and
# plan_quadratic_batches; the benchmark's sweep operating points are among
# them, so a planner change that moves a plan changes what they measure
PINNED_PLANS = [
    ((1.0, 4, 0.5, 0.05), (129, 21), (144, 21), (260, 21)),
    ((4.0, 8, 0.4, 0.1), (201, 17), (300, 17), (430, 17)),
    ((4.0, 256, 0.2, 0.05), (801, 21), (1200, 21), (2310, 21)),
    ((4.0, 64, 0.3, 0.05), (357, 21), (534, 21), (911, 21)),
    ((4.0, 32, 0.2, 0.05), (801, 21), (1200, 21), (1720, 21)),
    ((2.5, 16, 0.33, 0.2), (295, 13), (386, 13), (626, 13)),
    ((16.0, 64, 0.1, 0.001), (3202, 49), (9600, 49), (7298, 49)),
    ((1.0, 2, 1.0, 0.5), (33, 5), (36, 5), (66, 5)),
]


@pytest.mark.parametrize("point, joint, linear, quadratic", PINNED_PLANS)
def test_plans_pinned(point, joint, linear, quadratic):
    B, d, eps, delta = point
    plans = (plan_batches(B, eps, delta), plan_linear_batches(B, eps, delta),
             plan_quadratic_batches(B, d, eps, delta))
    assert [(p.s, p.k) for p in plans] == [joint, linear, quadratic]
    # the linear s is the least one meeting (B + 8)/s <= eps^2 / 4
    s = plans[1].s
    assert (B + 8) / s <= 0.25 * eps**2 and (s == 1 or (B + 8) / (s - 1) > 0.25 * eps**2)


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


# Estimates of the one-draw outcome sampler, its phi and rest coordinates
# lifted to real moduli, its phi-aligned records mapped to C^d by the Householder reflection of
# ensembles.reflect (jm: the records reflected; im: O's factor reflected,
# reduced for linear, the records drawn in groups of one batch, a stream over
# CHUNK_FLOATS floats in chunks of whole batches from keyed children: here
# both im streams, not jm's), and their truths, all on SFC64 streams.  phi and O are
# drawn before any outcome, so a change of sampler moves the estimates but
# not the truths; a change of bit generator moves both.
PINNED_SWEEPS = {
    ("jm", 4.0, 0.3, 11): (
        (0.2856453571522603, 0.4765951644045935, 0.5073012687669233),
        (0.2872026572436713, 0.4814179054304376, 0.49875665459921603),
    ),
    ("im-linear", 2.0, 0.4, 12): (
        (0.37167889703591755, 0.37262429945033226, 0.05673098348304347),
        (0.3900515828401903, 0.37004412323687824, 0.08262083341720963),
    ),
    ("im-quadratic", 4.0, 0.4, 13): (
        (0.5005570061153415, 0.7680672331805845, 0.38633208673673625),
        (0.5261431069019927, 0.7514670006758659, 0.37261972850541564),
    ),
}


def test_run_sweep_fixed_seed_estimates_pinned():
    for (label, B, eps, seed), (estimates, truths) in PINNED_SWEEPS.items():
        mode, _, estimator = label.partition("-")  # "im-linear" -> im with linear
        rows = run_sweep(ExperimentConfig(
            mode=mode, estimator=estimator or "auto",
            d=8, B=B, eps=eps, delta=0.1, trials=3, seed=seed,
        ))
        assert [r.mode for r in rows] == [label] * 3
        assert np.abs(np.array([r.estimate for r in rows]) - estimates).max() <= 1e-12
        assert np.abs(np.array([r.truth for r in rows]) - truths).max() <= 1e-12


def test_run_sweep_never_diagonalises(monkeypatch):
    # observables carry their eigen-factor, so the sweep path needs no eigh
    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition on the sweep path")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for mode, estimator, label in (
        ("jm", "auto", "jm"), ("im", "linear", "im-linear"), ("im", "quadratic", "im-quadratic")
    ):
        rows = run_sweep(ExperimentConfig(
            mode=mode, estimator=estimator, d=8, B=4.0, eps=0.4, delta=0.1, trials=2, seed=3,
        ))
        assert [r.mode for r in rows] == [label] * 2


def test_linear_paths_never_sample_full_outcome_vectors(monkeypatch):
    # every sweep and compare run on phi-aligned records, reduced for the
    # single-copy linear estimate: none samples outcome vectors in C^d, and
    # jm reads d-wide records through the reflected frame.  compare's linear
    # streams are ids 1..n and its quadratic ones n+1..2n for n grid entries
    def refuse(*args):
        raise AssertionError("sampled full outcome vectors")

    streams = []

    def record(s, rng, d, m, groups, group_rows, reduce):
        streams.append((rng.stream_id, m))
        return stream_aligned_posterior_states(s, rng, d, m, groups, group_rows, reduce)

    monkeypatch.setattr(measurement, "sample_posterior_states", refuse)
    monkeypatch.setattr(cli, "stream_aligned_posterior_states", record)
    for estimator in ("linear", "quadratic"):
        rows = run_sweep(ExperimentConfig(
            mode="im", estimator=estimator, d=8, B=4.0, eps=0.4, delta=0.1, trials=2, seed=3,
        ))
        assert [r.mode for r in rows] == [f"im-{estimator}"] * 2
    # linear records are min(d, r + 2) = 6 wide, quadratic ones d = 8
    assert streams == [(1, 6), (2, 6), (1, 8), (2, 8)]  # one stream per trial
    streams.clear()
    rows = run_sweep(ExperimentConfig(mode="jm", d=8, B=4.0, eps=0.4, delta=0.1, trials=2, seed=3))
    assert [r.mode for r in rows] == ["jm"] * 2
    assert streams == [(1, 8), (2, 8)]  # one (k, d) draw per trial
    streams.clear()
    monkeypatch.setattr(cli, "_COMPARE_S_GRID", (2, 8))
    compare_estimators(d=4, B=4.0, N=50, seed=1)
    assert streams == [(1, 4), (3, 4), (2, 4), (4, 4)]


def test_run_sweep_im_modes():
    for estimator in ("linear", "quadratic"):
        rows = run_sweep(ExperimentConfig(
            mode="im", estimator=estimator, d=4, B=2.0, eps=0.4, delta=0.1, trials=4, seed=2,
        ))
        assert all(r.mode == f"im-{estimator}" for r in rows)
    # auto selection: eps <= sqrt(B/d) -> quadratic
    rows = run_sweep(
        ExperimentConfig(mode="im", d=4, B=4.0, eps=0.5, delta=0.1, trials=2, seed=2)
    )
    assert rows[0].mode == "im-quadratic"


def test_compare_estimators_s2_runs(monkeypatch):
    monkeypatch.setattr(cli, "_COMPARE_S_GRID", (2, 8))
    rows = compare_estimators(d=4, B=4.0, N=200, seed=1)
    assert len(rows) == 2
    assert rows[0][0] == 2 and all(np.isfinite(v) for v in rows[0][1:])


def test_compare_estimators_stream_ids_are_distinct(monkeypatch):
    # 150 grid entries: the linear and quadratic stream ids must not meet
    seen = []

    def recorder(seed, stream_id=0):
        seen.append(stream_id)
        return RngStream(seed, stream_id)

    monkeypatch.setattr(cli, "RngStream", recorder)
    monkeypatch.setattr(cli, "_COMPARE_S_GRID", (2,) * 150)
    compare_estimators(d=2, B=2.0, N=2, seed=0)
    assert len(seen) == 301 and len(set(seen)) == len(seen)


def test_compare_estimators_ratio_trend():
    # quadratic/linear variance ratio falls as s grows, tracking
    # (Bd/s^2 + 1/s) vs B/s
    rows = compare_estimators(d=16, B=16.0, N=1500, seed=7)
    ratios = [r[3] for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert rows[-1][2] <= rows[-1][1]  # quadratic wins at s=64, B=d


def test_compare_predictions_read_the_drawn_observable_at_fractional_B(capsys):
    # B = 1.5 draws a signature observable with Tr(O^2) = floor(B) = 1, so
    # the predictions are 1/s and d/s^2 + 1/s, not 1.5/s and 1.5 d/s^2 + 1/s
    d = 2
    rows = compare_estimators(d=d, B=1.5, N=50, seed=1)
    assert [r[0] for r in rows] == list(cli._COMPARE_S_GRID)
    for s, *_, pred_l, pred_q in rows:
        assert pred_l == 1 / s and pred_q == d / s**2 + 1 / s
    assert main(["compare", "--d", "2", "--B", "1.5", "--trials", "50", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-2:] == ["0.125", "0.15625"]


def test_compare_rejects_inputs_it_cannot_handle(monkeypatch, capsys):
    # one batch has no sample variance, and with B > d the observable drawn
    # has Tr(O^2) <= d, not the B the pred_* columns assume
    monkeypatch.setattr(cli, "_COMPARE_S_GRID", (2,))
    for kwargs in (dict(d=4, B=2.0, N=1), dict(d=4, B=9.0, N=50), dict(d=4, B=0.5, N=50)):
        with pytest.raises(ValueError):
            compare_estimators(seed=0, **kwargs)
    for argv in (["--d", "4", "--B", "2", "--trials", "1"], ["--d", "4", "--B", "9"]):
        capsys.readouterr()
        assert main(["compare", *argv, "--seed", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err


def test_moment_grid_checks_each_pair_once():
    grid = list(_MOMENT_GRID)
    assert len(grid) == len(set(grid))
    assert set(grid) == {(s, 2) for s in (1, 2, 3, 4)} | {(s, 3) for s in (1, 2, 3)}


def test_verify_all_passes_and_fault_injection(monkeypatch, capsys):
    capsys.readouterr()
    assert verify_all() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "41/41 checks passed"
    # offset the closed-form moments: first with cold permutation-class
    # tables, then with warm ones, where the gate must still see a small fault
    moments._class_table.cache_clear()
    for offset in (1e-3, 1e-6):
        with monkeypatch.context() as m:
            for name in ("exact_first_moment", "exact_second_moment"):
                exact = getattr(moments, name)
                m.setattr(moments, name, lambda *args, f=exact, o=offset: f(*args) + o)
            assert verify_all(quiet=True) == 1
        assert moments._class_table.cache_info().currsize > 0


def test_verify_all_passes_at_several_seeds():
    # a change of generator or sampler must not pass the gate on one lucky seed
    for seed in range(5):
        assert verify_all(rng_seed=seed, quiet=True) == 0, seed


def test_verify_all_sees_a_nontrivial_observable(monkeypatch):
    # exact covariances taken at O = I must disagree with the Monte Carlo
    # estimates, which they cannot do if the gate itself only draws O = I
    exact = moments.exact_covariance
    monkeypatch.setattr(
        moments, "exact_covariance", lambda pattern, rho, O, d: exact(pattern, rho, np.eye(d), d)
    )
    assert verify_all(quiet=True) == 1


def test_covariance_gates_fail_when_o_squared_is_misread(monkeypatch, capsys):
    # O^2 reaches the covariances only through Tr O^2 and <phi|O^2|phi>; a
    # gate instance with O^2 = I passes a formula that reads the latter as 1,
    # and one with O^2 = O passes one that reads it as <phi|O|phi>.  The gate
    # instance puts half of phi's weight on the -1/2 eigenvector, so the two
    # differ by 3/8 and every misreading fails at d = 2 and d = 3 alike.
    scalars = moments._scalars
    mutants = {  # name: the misread scalars
        "b := 1": lambda t1, t2, a, b, d: (t1, t2, a, 1.0),
        "b := a": lambda t1, t2, a, b, d: (t1, t2, a, a),
        "t2 := d": lambda t1, t2, a, b, d: (t1, float(d), a, b),
    }
    for name, mutant in mutants.items():
        with monkeypatch.context() as m:
            m.setattr(moments, "_scalars", lambda rho, O, d, f=mutant: f(*scalars(rho, O, d), d))
            capsys.readouterr()
            assert verify_all() == 1, name
            failed = {line.split()[3] for line in capsys.readouterr().out.splitlines()
                      if line.startswith("FAIL  cov_")}
            for d in (2, 3):
                assert f"d={d}" in failed, (name, d)
                argv = ["cov-check", "--d", str(d), "--trials", "20000", "--seed", "1"]
                assert main(argv) == 1, (name, d)


def test_covariance_gates_fail_at_large_d_when_a_formula_is_broken(monkeypatch, capsys):
    # the conditioned ij_jk and ij_kj keep an error of order 1/sqrt(trials) at
    # every d, where the plain pair products' grows with d and from d = 16 on
    # passed an exact value of 0; each mutant fails cov-check at d = 16 and
    # 64 on the rows named, at 5000 trials (6 sigma about 0.02)
    exact, scalars = moments.exact_covariance, moments._scalars
    source = inspect.getsource(exact)
    line = "c, e, aa = (d + 1) / (d + 2), 1 / (d + 2), a * a"
    assert line in source
    swapped = dict(vars(moments))
    exec(source.replace(line, "e, c, aa = (d + 1) / (d + 2), 1 / (d + 2), a * a"), swapped)

    def zeroed(pattern, rho, O, d):
        return 0.0 if pattern in ("ij_jk", "ij_kj", "ij_ji") else exact(pattern, rho, O, d)

    def b_as_a(rho, O, d):
        t1, t2, a, _ = scalars(rho, O, d)
        return t1, t2, a, a

    mutants = {  # name: (the attribute, its mutant, the rows that must fail)
        "ij_jk, ij_kj, ij_ji := 0": ("exact_covariance", zeroed, {"ij_jk", "ij_kj"}),
        "b := a": ("_scalars", b_as_a, {"ij_kj"}),
        "c <-> e": ("exact_covariance", swapped["exact_covariance"], {"ij_jk", "ij_kj"}),
    }
    for d in ("16", "64"):
        argv = ["cov-check", "--d", d, "--trials", "5000", "--seed", "1"]
        assert main(argv) == 0, d
        for name, (attr, mutant, rows) in mutants.items():
            with monkeypatch.context() as m:
                m.setattr(moments, attr, mutant)
                capsys.readouterr()
                assert main(argv) == 1, (name, d)
            failed = {line.split()[1] for line in capsys.readouterr().out.splitlines()
                      if line.startswith("FAIL")}
            assert rows <= failed, (name, d, failed)


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["jm", "--d", "4", "--B", "2", "--eps", "0.4",
                 "--trials", "2", "--seed", "1"]) == 0
    # usage error: invalid config value
    assert main(["jm", "--d", "4", "--B", "9", "--trials", "1"]) == 2
    # a negative run count is a usage error that prints no result line
    capsys.readouterr()
    assert main(["bhm", "--runs", "-3", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    assert main(["bhm", "--runs", "0", "--seed", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["jm", "--d", "4", "--B", "2", "--eps", "0.4", "--trials", "2"],
    ["bhm", "--n", "8", "--runs", "2"],
    ["cov-check", "--d", "2", "--trials", "1000"],
    ["compare", "--d", "4", "--B", "4", "--trials", "20"],
])
def test_cli_unwritable_out_exits_2_with_no_output(tmp_path, capsys, argv):
    # the CSV is written before anything is printed
    out = tmp_path / "missing-dir" / "out.csv"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "error:" in err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e-160", "1e-170", "5e-324"])
@pytest.mark.parametrize("cmd", ["jm", "im"])
def test_cli_sweep_at_unplannable_eps_exits_2_with_no_output(tmp_path, capsys, cmd, eps):
    out = tmp_path / "never.csv"
    assert main([cmd, "--d", "4", "--B", "2", "--eps", eps, "--trials", "1",
                 "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "error:" in err and "eps" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["jm", "--d", "4", "--trials", "1"],
    ["im", "--d", "4", "--eps", "1", "--trials", "1"],
    ["bhm", "--n", "4", "--runs", "1"],
], ids=["jm", "im", "bhm"])
def test_cli_subnormal_delta_plans_and_runs(tmp_path, capsys, argv):
    # 1/delta overflows to inf below about 5.6e-309; the plan reads -log(delta)
    out = tmp_path / "out.csv"
    assert main([*argv, "--delta", "1e-320", "--seed", "1", "--out", str(out)]) == 0
    stdout, err = capsys.readouterr()
    assert err == "" and "rate=1.0000" in stdout and out.exists()


def test_cli_config_file_and_flag_override(tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 4\nB = 2\neps = 0.4\ndelta = 0.1\ntrials = 3\nseed = 11\n")
    out1 = tmp_path / "one.csv"
    assert main(["jm", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = read_csv(str(out1))
    assert len(rows) == 4 and rows[1][1] == "4"
    # the file's seed is used, and beats SHADOWLAB_SEED
    flags = ["--d", "4", "--B", "2", "--eps", "0.4", "--delta", "0.1", "--trials", "3"]
    seeded = {}
    for seed in ("11", "12"):
        seeded[seed] = tmp_path / f"seed{seed}.csv"
        assert main(["jm", *flags, "--seed", seed, "--out", str(seeded[seed])]) == 0
    assert out1.read_bytes() == seeded["11"].read_bytes() != seeded["12"].read_bytes()
    monkeypatch.setenv("SHADOWLAB_SEED", "12")
    env_out = tmp_path / "env.csv"
    assert main(["jm", "--config", str(cfg), "--out", str(env_out)]) == 0
    assert env_out.read_bytes() == seeded["11"].read_bytes()
    monkeypatch.delenv("SHADOWLAB_SEED")
    # a flag beats the file, --seed included
    out2 = tmp_path / "two.csv"
    assert main(["jm", "--config", str(cfg), "--trials", "1", "--out", str(out2)]) == 0
    assert len(read_csv(str(out2))) == 2
    flag_out = tmp_path / "flag.csv"
    assert main(["jm", "--config", str(cfg), "--seed", "12", "--out", str(flag_out)]) == 0
    assert flag_out.read_bytes() == seeded["12"].read_bytes()
    # unknown keys are a usage error
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    assert main(["jm", "--config", str(bad)]) == 2
    # so is mode: the subcommand alone picks the sweep
    bad.write_text("mode = im\n" + cfg.read_text())
    out3 = tmp_path / "three.csv"
    assert main(["jm", "--config", str(bad), "--out", str(out3)]) == 2
    assert not out3.exists()
    # an unknown estimator, or one under jm, fails before anything is sampled
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a state for an invalid config")

    monkeypatch.setattr(cli, "sample_haar_state", refuse)
    for cmd, estimator in (("im", "bogus"), ("jm", "quadratic")):
        bad.write_text(f"estimator = {estimator}\n" + cfg.read_text())
        assert main([cmd, "--config", str(bad), "--out", str(out3)]) == 2
        assert not out3.exists()


@pytest.mark.parametrize("line, named", [
    ("d = abc", "config key 'd' must be int, got 'abc'"),
    ("trials = 1.5", "config key 'trials' must be int, got '1.5'"),
    ("eps = small", "config key 'eps' must be float, got 'small'"),
    ("out", "config line 2 has no '=': 'out'"),
    ("B = 3", "config key 'B' is set on lines 2 and 3"),
], ids=["int", "int-not-float", "float", "no-equals", "repeated-key"])
def test_cli_bad_config_value_exits_2_naming_it(tmp_path, monkeypatch, capsys, line, named):
    # a value that does not parse, a line with no "=", or a key set twice is
    # a usage error naming the key or the lines, before anything is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a state for an invalid config")

    monkeypatch.setattr(cli, "sample_haar_state", refuse)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# one bad line\n{line}\nB = 2\n")
    out = tmp_path / "never.csv"
    for cmd in ("jm", "im"):
        assert main([cmd, "--config", str(cfg), "--d", "4", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err.splitlines() == [f"error: {named}"]


def test_cli_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2, out3 = tmp_path / "e1.csv", tmp_path / "e2.csv", tmp_path / "e3.csv"
    monkeypatch.setenv("SHADOWLAB_SEED", "123")
    assert main(["jm", "--d", "4", "--B", "2", "--eps", "0.4", "--trials", "3",
                 "--out", str(out1)]) == 0
    # surrounding whitespace is not part of the seed, as in the config file
    monkeypatch.setenv("SHADOWLAB_SEED", " 123\n")
    assert main(["jm", "--d", "4", "--B", "2", "--eps", "0.4", "--trials", "3",
                 "--out", str(out3)]) == 0
    monkeypatch.delenv("SHADOWLAB_SEED")
    assert main(["jm", "--d", "4", "--B", "2", "--eps", "0.4", "--trials", "3",
                 "--seed", "123", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


# Each subcommand at a size that would finish at once with a valid seed.
_QUICK_ARGV = {
    "jm": ["jm", "--trials", "0"],
    "im": ["im", "--trials", "0"],
    "bhm": ["bhm", "--runs", "0"],
    "verify-moments": ["verify-moments"],
    "cov-check": ["cov-check", "--d", "2", "--trials", "1000"],
    "compare": ["compare", "--d", "4", "--B", "4", "--trials", "2"],
}
_BAD_SEEDS = [("--seed", "-1"), ("--seed", "1.5"), ("SHADOWLAB_SEED", "abc"),
              ("SHADOWLAB_SEED", "-1"), ("the config file's seed", "-4"),
              ("the config file's seed", "x")]


@pytest.mark.parametrize("cmd, source, raw", [
    (cmd, source, raw) for cmd in _QUICK_ARGV for source, raw in _BAD_SEEDS
    if "config" not in source or cmd in ("jm", "im")
])
def test_cli_bad_seed_exits_2_naming_its_source(tmp_path, monkeypatch, capsys, cmd, source, raw):
    # a negative or non-integer seed is a usage error before any output,
    # from whichever of the three sources supplies it
    argv = list(_QUICK_ARGV[cmd])
    monkeypatch.delenv("SHADOWLAB_SEED", raising=False)
    if source == "--seed":
        argv += ["--seed", raw]
    elif source == "SHADOWLAB_SEED":
        monkeypatch.setenv("SHADOWLAB_SEED", raw)
    else:
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"seed = {raw}\n")
        argv += ["--config", str(cfg)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a non-integer --seed itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert source in err.splitlines()[-1]


@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_cli_cov_check_below_d_2_exits_2_naming_d(monkeypatch, capsys, d):
    def refuse(*args):
        raise AssertionError("drew a covariance instance at d < 2")

    monkeypatch.setattr(cli, "_covariance_rows", refuse)
    assert main(["cov-check", "--d", d, "--trials", "1000", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: cov-check needs d >= 2, got --d {d}"]


@pytest.mark.parametrize("trials", ["10", "999", "0", "-5"])
def test_cli_cov_check_below_the_trial_floor_exits_2_naming_trials(monkeypatch, capsys, trials):
    def refuse(*args):
        raise AssertionError("drew a covariance instance below the trial floor")

    monkeypatch.setattr(cli, "_covariance_rows", refuse)
    assert main(["cov-check", "--d", "3", "--trials", trials, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: cov-check needs --trials >= {moments.MC_MIN_TRIALS} for a stable "
        f"covariance estimate, got --trials {trials}"
    ]


def test_cli_bhm_subcommand(tmp_path):
    out = tmp_path / "bhm.csv"
    assert main(["bhm", "--n", "8", "--alpha", "0.25", "--delta", "0.1",
                 "--runs", "6", "--seed", "4", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert rows[0] == ["run_id", "b", "guess", "samples_used"]
    assert len(rows) == 7
    for row in rows[1:]:
        assert row[1] in "01" and row[2] in "01"


# b per run of `bhm --n 16 --alpha 0.25 --runs 50`, recorded on SFC64
# streams.  Every guess equalled b, and every run used the same plan of 10773
# samples.
PINNED_BHM = {
    1: "01010001100001010011101101111100001000010110101010",
    2: "11110111110000110101001010001101010011011110010101",
}


@pytest.mark.parametrize("seed", sorted(PINNED_BHM))
def test_cli_bhm_fixed_seed_runs_pinned(tmp_path, seed):
    out = tmp_path / "bhm.csv"
    assert main(["bhm", "--n", "16", "--alpha", "0.25", "--runs", "50",
                 "--seed", str(seed), "--out", str(out)]) == 0
    rows = read_csv(str(out))[1:]
    assert [int(r[0]) for r in rows] == list(range(50))
    assert "".join(r[1] for r in rows) == PINNED_BHM[seed]
    assert "".join(r[2] for r in rows) == PINNED_BHM[seed]
    assert {r[3] for r in rows} == {"10773"}


def test_cli_bhm_refuses_oversized_shadows_before_drawing(monkeypatch, capsys, tmp_path):
    # k = 21 dense 2048 x 2048 shadows are 1344 MiB; gen_instance is a
    # tripwire, so a guard that ran after the first draw fails here
    def refuse(*args):
        raise AssertionError("drew an instance past the memory guard")

    monkeypatch.setattr(bhm_mod, "gen_instance", refuse)
    out = tmp_path / "bhm.csv"
    assert main(["bhm", "--n", "2048", "--seed", "1", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and "MiB" in err
    assert not out.exists()
    with pytest.raises(AssertionError, match="past the memory guard"):  # 336 MiB fits
        main(["bhm", "--n", "1024", "--seed", "1"])


@pytest.mark.parametrize("alpha", ["inf", "1e308", "nan"])
def test_cli_bhm_non_finite_alpha_exits_2_with_one_error_line(capsys, alpha):
    capsys.readouterr()
    assert main(["bhm", "--n", "16", "--alpha", alpha, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: alpha * n = ") and err.count("\n") == 1
    assert "alpha = " in err


def test_package_exports_resolve():
    assert shadowlab.__all__
    for name in shadowlab.__all__:
        assert getattr(shadowlab, name) is not None
    for gone in ("Shadow", "single_copy_shadow", "quadratic_shadow"):
        assert gone not in shadowlab.__all__


def test_cli_cov_check_subcommand():
    assert main(["cov-check", "--d", "2", "--trials", "20000", "--seed", "9"]) == 0


def test_cli_cov_check_sees_a_nontrivial_observable(monkeypatch):
    # an exact covariance taken at O = I must disagree with the Monte Carlo
    # estimate, which it cannot do if the gate itself only draws O = I
    exact = moments.exact_covariance
    monkeypatch.setattr(
        moments, "exact_covariance", lambda pattern, rho, O, d: exact(pattern, rho, np.eye(d), d)
    )
    assert main(["cov-check", "--d", "3", "--trials", "20000"]) == 1


def test_cli_cov_check_runs_past_the_dense_operator_budget():
    # 24^3 = 13824 exceeds linalg.DIM_BUDGET; the exact covariances never build d^3 operators
    assert 24**3 > linalg.DIM_BUDGET
    assert main(["cov-check", "--d", "24", "--trials", "2000", "--seed", "1"]) == 0


def test_cli_cov_check_prints_nothing_before_an_error(monkeypatch, capsys):
    # the fourth pattern fails after three succeed; one Monte Carlo draw
    # serves every pattern, so the failure is injected per pattern into the
    # exact covariance
    exact = moments.exact_covariance

    def fail_fourth(pattern, *args):
        if pattern == moments.COV_PATTERNS[3]:
            raise ValueError("injected exact-covariance failure")
        return exact(pattern, *args)

    monkeypatch.setattr(moments, "exact_covariance", fail_fourth)
    assert main(["cov-check", "--d", "4", "--trials", "1000", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert "injected exact-covariance failure" in err


def test_cli_cov_check_outcome_memory_guard_exits_2_with_no_output(monkeypatch, capsys):
    # at d = 8192 the guard's figure counts eight dense d x d arrays, 8 GiB; the
    # instance draws and the sampler are tripwires, so a guard that ran late
    # (after the O(d^3) work on the state and the observable) fails here
    def refuse(*args):
        raise AssertionError("drew past the memory guard")

    monkeypatch.setattr(cli, "sample_haar_state", refuse)
    monkeypatch.setattr(cli, "random_projector_observable", refuse)
    monkeypatch.setattr(moments, "stream_aligned_posterior_states", refuse)
    assert main(["cov-check", "--d", "8192", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "MiB" in err and err.count("\n") == 1


class _FirstDraw(Exception):
    pass


@pytest.mark.parametrize("config, m, groups, group_rows", [
    # s = 7111240 per batch, k = 21: d-wide records
    (dict(mode="im", estimator="quadratic", d=32, eps=0.003), 32, 21, 7111240),
    # s = 12000000 per batch, k = 21: 6-wide reduced records
    (dict(mode="im", estimator="linear", d=64, eps=0.002), 6, 21, 12000000),
    # k = 3203 batches of one d-wide joint outcome
    (dict(mode="jm", d=32768, B=1.0, eps=0.9, delta=1e-200), 32768, 3203, 1),
], ids=["im-quadratic-d32", "im-linear-d64", "jm-d32768"])
def test_large_batch_sweeps_reach_their_first_draw(monkeypatch, config, m, groups, group_rows):
    # a trial holds one chunk per participant whatever s is, so no request
    # whose frame fits is refused for its batches: each reaches the stream,
    # here a tripwire that raises before it draws anything
    streams = []

    def tripwire(s, rng, d, m, groups, group_rows, reduce):
        streams.append((m, groups, group_rows))
        raise _FirstDraw

    monkeypatch.setattr(cli, "stream_aligned_posterior_states", tripwire)
    with pytest.raises(_FirstDraw):
        run_sweep(ExperimentConfig(**{"B": 4.0, **config}, trials=1, seed=1))
    assert streams == [(m, groups, group_rows)]


class _RefusingGenerator:
    def __getattr__(self, name):
        raise AssertionError(f"drew ({name}) past the memory guard")


def _stream_that_never_draws(seed, stream_id=0):
    rng = RngStream(seed, stream_id)
    rng.gen = _RefusingGenerator()
    return rng


@pytest.mark.parametrize("argv", [
    # a d = 10^11 state is 1490 GiB; O's 4- and 16-frames, checked first, more
    ["jm", "--d", "100000000000", "--trials", "1"],
    ["im", "--d", "100000000000", "--trials", "1"],
    ["compare", "--d", "100000000000"],
    # compare's two columns of 10^11 estimates are 1490 GiB
    ["compare", "--trials", "100000000000"],
    # the 512 MiB state fits, O's 2048 MiB 4-frame does not
    ["jm", "--d", "33554432", "--trials", "1"],
], ids=["jm", "im", "compare-d", "compare-trials", "jm-frame"])
def test_cli_oversized_instance_exits_2_before_any_draw(tmp_path, monkeypatch, capsys, argv):
    # every stream's generator is a tripwire, so a check that ran after the
    # state or the frame was drawn fails here without allocating
    monkeypatch.setattr(cli, "RngStream", _stream_that_never_draws)
    out = tmp_path / "never.csv"
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("error: ") and "MiB" in err and err.count("\n") == 1


def _record_streams(monkeypatch):
    """Lists of the (m, groups, group_rows) of each stream cli starts and of
    the (stream, g0, g1, part rows, width) of each part it hands to the
    reduction, stream counting the streams."""
    streams, parts_seen = [], []

    def stream(s, rng, d, m, groups, group_rows, reduce):
        i = len(streams)
        streams.append((m, groups, group_rows))

        def recording(g0, g1, parts):
            def seen():
                for part in parts:
                    parts_seen.append((i, g0, g1, *part.shape))
                    yield part
            reduce(g0, g1, seen())

        return stream_aligned_posterior_states(s, rng, d, m, groups, group_rows, recording)

    monkeypatch.setattr(cli, "stream_aligned_posterior_states", stream)
    return streams, parts_seen


def _assert_whole_group_chunks(streams, parts_seen):
    """Each part is at most CHUNK_FLOATS floats, or one row, and not empty;
    each chunk is whole groups, in one part, or one group in parts; each
    stream's chunks cover its groups once."""
    for i, (m, groups, group_rows) in enumerate(streams):
        mine = [(g0, g1, n, w) for j, g0, g1, n, w in parts_seen if j == i]
        assert all(w == m and 1 <= n <= max(1, CHUNK_FLOATS // (2 * m)) for *_, n, w in mine)
        chunks = {}
        for g0, g1, n, _ in mine:
            chunks.setdefault((g0, g1), []).append(n)
        for (g0, g1), rows in chunks.items():
            assert sum(rows) == (g1 - g0) * group_rows and (len(rows) == 1 or g1 == g0 + 1)
        edges = sorted(chunks)
        assert [g0 for g0, _ in edges] == [0, *(g1 for _, g1 in edges[:-1])]
        assert edges[-1][1] == groups


@pytest.mark.parametrize("mode, estimator, d, B, eps", [
    ("jm", "auto", 8, 4.0, 0.4),
    ("im", "linear", 8, 2.0, 0.4),  # r = 2: records of width 4
    ("im", "linear", 4, 4.0, 0.6),  # r = d: records of width d
    ("im", "quadratic", 8, 4.0, 0.4),  # s = 430: 4 batches per chunk
    ("im", "quadratic", 4, 4.0, 0.05),  # s = 25616 > 4096 rows: one batch in 7 parts
])
def test_sweep_hands_the_reduction_one_chunk_at_a_time(monkeypatch, mode, estimator, d, B, eps):
    streams, parts_seen = _record_streams(monkeypatch)
    (row,) = run_sweep(ExperimentConfig(
        mode=mode, estimator=estimator, d=d, B=B, eps=eps, delta=0.1, trials=1, seed=5,
    ))
    n = 1 if mode == "jm" else row.s
    ((_, groups, group_rows),) = streams
    assert (groups, group_rows) == (row.k, n)
    _assert_whole_group_chunks(streams, parts_seen)


def test_jm_at_d_16384_draws_one_outcome_a_chunk(monkeypatch, capsys):
    # k = 21 rows of 2^15 floats each fill a chunk: 21 chunks of one row
    streams, parts_seen = _record_streams(monkeypatch)
    assert main(["jm", "--d", "16384", "--trials", "1"]) == 0
    assert streams == [(16384, 21, 1)] and len(parts_seen) == 21
    _assert_whole_group_chunks(streams, parts_seen)
    assert capsys.readouterr().out.startswith("trials=1 ")


def test_compare_hands_the_kernel_one_block_at_a_time(monkeypatch):
    # N s = 6000 and 24000 outcomes per estimator and s, in groups of one
    # batch; the reduction gets them one chunk of whole batches at a time,
    # each batch once
    streams, parts_seen = _record_streams(monkeypatch)
    monkeypatch.setattr(cli, "_COMPARE_S_GRID", (2, 8))
    compare_estimators(d=4, B=4.0, N=3000, seed=1)
    assert streams == [(4, 3000, 2), (4, 3000, 2), (4, 3000, 8), (4, 3000, 8)]
    _assert_whole_group_chunks(streams, parts_seen)


@pytest.mark.parametrize("d, eps, label", [
    (32, (0.1, 0.05), "im-quadratic"),  # s = 6526, then 25727
    (64, (0.1, 0.03), "im-linear"),  # s = 4800, then 53334
], ids=["quadratic", "linear"])
def test_im_trial_peak_does_not_grow_with_s(monkeypatch, d, eps, label):
    # a trial holds one part per participant and its batches' statistics,
    # never a batch, so its allocations peak within 1.25x as high at the
    # larger s as at the smaller, at 1, 2 and 4 participants on real pool
    # threads; at both s each batch is a chunk in parts, 21 chunks
    config = dict(mode="im", estimator=label[3:], d=d, B=4.0, trials=1)
    for cores in (1, 2, 4):
        pool = ThreadPoolExecutor(cores - 1) if cores > 1 else None
        monkeypatch.setattr(ensembles, "_cores", lambda cores=cores: cores)
        monkeypatch.setattr(ensembles, "_pool", lambda pool=pool: pool)
        # first-call allocations, the pool's threads among them, are not the trial's
        run_sweep(ExperimentConfig(**config, eps=eps[0], seed=3))
        peaks, sizes = [], []
        for e in eps:
            tracemalloc.start()
            try:
                (row,) = run_sweep(ExperimentConfig(**config, eps=e, seed=4))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert row.mode == label and row.k == 21
            sizes.append(row.s)
        if pool:
            pool.shutdown()
        assert sizes[1] > 3 * sizes[0] and peaks[1] <= 1.25 * peaks[0], (cores, peaks)


def test_cli_compare_subcommand(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--d", "8", "--B", "8", "--trials", "300",
                 "--seed", "3", "--out", str(out)]) == 0
    assert len(read_csv(str(out))) == 5


def test_cli_compare_has_no_eps_flag():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--eps", "0.2"])
    assert exc.value.code == 2


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
