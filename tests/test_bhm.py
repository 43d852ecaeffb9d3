import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.bhm import (
    BHMInstance,
    alice_shadows,
    bob_guess,
    expected_value,
    gen_instance,
    matching_observable,
    protocol_plan,
    run_protocol,
    sign_state,
)
from shadowlab.ensembles import RngStream
from shadowlab.estimators import BatchPlan, plan_batches


def test_instance_promise_validation():
    # n=4, x=0110, edge (0,1), b=0 forces w = 0^0^1 = 1
    inst = BHMInstance(n=4, alpha=0.25, x=(0, 1, 1, 0), matching=((0, 1),), w=(1,), b=0)
    assert inst.w == (1,)
    with pytest.raises(ValueError):
        BHMInstance(n=4, alpha=0.25, x=(0, 1, 1, 0), matching=((0, 1),), w=(0,), b=0)


def test_instance_rejects_overlapping_edges():
    with pytest.raises(ValueError):
        BHMInstance(
            n=4, alpha=0.5, x=(0, 0, 0, 0), matching=((0, 1), (1, 2)), w=(0, 0), b=0
        )


def test_gen_instance_feasibility():
    with pytest.raises(ValueError):
        gen_instance(4, 0.3, 0, RngStream(71))  # alpha n not integer
    with pytest.raises(ValueError):
        gen_instance(2, 1.0, 0, RngStream(71))  # needs 2 alpha n <= n


@given(st.integers(0, 500), st.integers(0, 1))
@settings(max_examples=50, deadline=None)
def test_gen_instance_promise_always_holds(seed, b):
    inst = gen_instance(16, 0.25, b, RngStream(seed))
    assert inst.b == b
    for (i, j), wk in zip(inst.matching, inst.w):
        assert inst.x[i] ^ inst.x[j] ^ wk == b


def test_sign_state():
    psi = sign_state((0, 0, 0, 0))
    assert np.abs(psi - 0.5).max() < 1e-12  # uniform superposition
    psi = sign_state((0, 1))
    assert np.abs(psi - np.array([1, -1]) / math.sqrt(2)).max() < 1e-12
    assert abs(np.linalg.norm(sign_state((1, 0, 1))) - 1) < 1e-12


def test_matching_observable_is_projector():
    rng = RngStream(72)
    inst = gen_instance(16, 0.25, 1, rng)
    O = matching_observable(inst.matching, inst.w, inst.n).matrix
    assert np.abs(O @ O - O).max() < 1e-10
    m = len(inst.matching)
    assert abs(np.trace(O @ O).real - m) < 1e-10  # rank alpha n
    assert np.abs(np.linalg.eigvalsh(O)).max() == pytest.approx(1.0)


def test_matching_observable_single_edge():
    O = matching_observable([(0, 1)], [0], 2).matrix
    target = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    assert np.abs(O - target).max() < 1e-12


def test_expected_value_is_2_alpha_b():
    for seed in range(200):
        b = seed % 2
        inst = gen_instance(8, 0.25, b, RngStream(1000 + seed))
        val = expected_value(inst)
        assert abs(val - 2 * inst.alpha * b) < 1e-12


def test_expected_value_b1_quarter():
    inst = gen_instance(16, 0.25, 1, RngStream(73))
    assert expected_value(inst) == pytest.approx(0.5)  # 2 * 1/4 * 1


def test_noiseless_shadows_always_round_correctly():
    # replace the shadows with the exact state: Bob must always answer b
    for seed in range(20):
        b = seed % 2
        inst = gen_instance(8, 0.25, b, RngStream(2000 + seed))
        rho = np.outer(sign_state(inst.x), sign_state(inst.x).conj())
        assert bob_guess([rho], inst.matching, inst.w, inst.n) == b


def test_rounding_threshold():
    # any estimate within alpha of 2 alpha b rounds to b
    n, m = 8, 2
    inst = gen_instance(n, m / n, 1, RngStream(74))
    alpha = m / n
    for err in np.linspace(-alpha * 0.999, alpha * 0.999, 21):
        est = 2 * alpha * inst.b + err
        scaled = est / (2 * alpha)
        guess = 0 if scaled < 0.5 else 1
        assert guess == inst.b


def test_alice_side_only_sees_x_bob_only_outcomes():
    inst = gen_instance(8, 0.25, 1, RngStream(75))
    plan = BatchPlan(s=16, k=3)
    shadows = alice_shadows(inst.x, plan, RngStream(76))
    assert len(shadows) == 3
    for sh in shadows:
        assert isinstance(sh, np.ndarray) and sh.shape == (8, 8)
    # bob_guess signature takes only (shadows, matching, w, n) -- never x
    guess = bob_guess(shadows, inst.matching, inst.w, inst.n)
    assert guess in (0, 1)


def test_run_protocol_sample_count():
    inst = gen_instance(8, 0.25, 0, RngStream(77))
    m = len(inst.matching)
    plan = plan_batches(B=float(m), eps=m / inst.n, delta=0.1)
    guess, used = run_protocol(inst, 0.1, RngStream(78))
    assert used == plan.total
    assert guess in (0, 1)


def test_protocol_plan_holds_the_shadow_memory_rule():
    # Alice's k dense n x n shadows: 21 at n = 2048 are 1344 MiB, 21 at n = 1024 fit
    assert protocol_plan(1024, 0.25, 0.05).k == 21
    with pytest.raises(ValueError, match="1344 MiB"):
        protocol_plan(2048, 0.25, 0.05)


@pytest.mark.parametrize("seed", range(3))
def test_protocol_at_n256_guesses_b(seed):
    b = seed % 2
    inst = gen_instance(256, 0.25, b, RngStream(5000 + seed))
    guess, used = run_protocol(inst, 0.05, RngStream(6000 + seed))
    assert (guess, used) == (b, protocol_plan(256, 0.25, 0.05).total)


def test_protocol_success_rate_small():
    # quick functional check; the full 400-run criterion lives in the
    # acceptance suite
    correct = 0
    runs = 40
    for seed in range(runs):
        b = seed % 2
        inst = gen_instance(8, 0.25, b, RngStream(3000 + seed))
        guess, _ = run_protocol(inst, 0.05, RngStream(4000 + seed))
        correct += guess == b
    assert correct >= runs * 0.85
