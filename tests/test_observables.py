import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import observable_from_matrix, traceless_part
from shadowlab.ensembles import RngStream, sample_haar_state
from shadowlab.linalg import density, trace_distance
from shadowlab.observables import (
    Observable,
    distinguishing_observable,
    helstrom_success,
    random_observable,
    random_projector_observable,
    random_signature_observable,
)

ZERO = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)


class _RefusingStream:
    @property
    def gen(self):
        raise AssertionError("drew past the memory guard")


def test_state_and_frame_are_size_checked_before_the_draw():
    # 16 d bytes for the state and 16 d r for the frame, against the 1 GiB
    # limit; the stream is a tripwire, so a late check fails here
    with pytest.raises(ValueError, match="2048 MiB"):
        sample_haar_state(2**27, _RefusingStream())
    with pytest.raises(ValueError, match="2048 MiB"):
        random_projector_observable(2**25, 4, _RefusingStream())
    with pytest.raises(AssertionError, match="past the memory guard"):  # 1024 MiB fits
        random_projector_observable(2**25, 2, _RefusingStream())


def test_observable_validation():
    with pytest.raises(ValueError):
        observable_from_matrix(np.diag([2.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        observable_from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize(
    "vecs, evals",
    [
        (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 0.0])),  # not orthonormal
        (np.eye(2) * (1 + 1e-8), np.array([1.0, 0.0])),  # columns off unit norm
        (np.eye(2), np.array([1.0, 0.5j])),  # complex eigenvalues
        (np.eye(3)[:, :2], np.ones(3)),  # shape mismatch
        (np.ones(3), np.ones(1)),  # vecs not (d, r)
        (np.eye(3)[:, :0], np.ones(0)),  # empty factor
        (np.eye(2), np.array([0.5, 0.5])),  # max |lambda| != 1
        (np.eye(2), np.array([1.0, -1.0 - 2e-9])),  # max |lambda| just past 1
        (np.eye(2), np.array([1.0, np.nan])),  # NaN eigenvalue
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)),  # NaN eigenvector
    ],
)
def test_observable_rejects_bad_factors(vecs, evals):
    with pytest.raises(ValueError):
        Observable(vecs=vecs, evals=evals)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    norm_offset=st.sampled_from((-1e-6, -2e-9, -5e-10, 0.0, 5e-10, 2e-9, 1e-6)),
)
@settings(max_examples=60, deadline=None)
def test_from_matrix_accepts_exactly_the_eigvalsh_rule(seed, d, norm_offset):
    # offsets sit well clear of the 1e-9 tolerance, so rounding cannot flip a verdict
    rng = RngStream(seed)
    z = rng.gen.standard_normal((d, d)) + 1j * rng.gen.standard_normal((d, d))
    M = (z + z.conj().T) / 2
    M *= (1 + norm_offset) / np.abs(np.linalg.eigvalsh(M)).max()
    evals = np.linalg.eigvalsh(M)
    old_rule = abs(np.abs(evals).max() - 1) <= 1e-9
    try:
        obs = observable_from_matrix(M)
    except ValueError:
        assert not old_rule
    else:
        assert old_rule
        assert np.abs(obs.matrix - M).max() < 1e-12


def test_constructors_carry_their_factor():
    rng = RngStream(40)
    proj = random_projector_observable(8, 3, rng)
    assert proj.vecs.shape == (8, 3) and np.array_equal(proj.evals, np.ones(3))
    sig = random_signature_observable(8, 5, rng)
    assert sig.vecs.shape == (8, 5) and np.array_equal(sig.evals, [1, -1, 1, -1, 1])
    obs, _ = distinguishing_observable(
        density(sample_haar_state(5, rng)), density(sample_haar_state(5, rng))
    )
    assert obs.vecs.shape == (5, 1)


def test_random_projector_eigenvalues():
    rng = RngStream(41)
    obs = random_projector_observable(8, 3, rng)
    evals = np.sort(np.linalg.eigvalsh(obs.matrix))
    assert np.abs(evals[:5]).max() < 1e-9
    assert np.abs(evals[5:] - 1).max() < 1e-9
    assert abs(np.trace(obs.matrix @ obs.matrix).real - 3) < 1e-9


def test_random_projector_extremes():
    rng = RngStream(42)
    full = random_projector_observable(4, 4, rng)
    assert np.abs(full.matrix - np.eye(4)).max() < 1e-9
    rank1 = random_projector_observable(4, 1, rng)
    assert abs(np.trace(rank1.matrix).real - 1) < 1e-9
    with pytest.raises(ValueError):
        random_projector_observable(4, 5, rng)


def test_random_observable_rank_floor():
    rng = RngStream(43)
    obs = random_observable(8, 3.7, rng)
    assert abs(np.trace(obs.matrix).real - 3) < 1e-9  # rank floor(3.7) = 3


def test_random_signature_observable():
    rng = RngStream(44)
    obs = random_signature_observable(8, 8, rng)
    evals = np.sort(np.linalg.eigvalsh(obs.matrix))
    assert np.abs(np.abs(evals) - 1).max() < 1e-9  # all +-1
    assert abs(np.trace(obs.matrix).real) < 1e-9  # balanced split, traceless
    assert abs(np.trace(obs.matrix @ obs.matrix).real - 8) < 1e-9
    partial = random_signature_observable(8, 5, rng)
    assert abs(np.trace(partial.matrix @ partial.matrix).real - 5) < 1e-9


def test_traceless_part_examples():
    assert np.abs(traceless_part(np.eye(3))).max() < 1e-12
    out = traceless_part(np.diag([1.0, 0.0]))
    assert np.abs(out - np.diag([0.5, -0.5])).max() < 1e-12
    assert abs(np.trace(out @ out).real - 0.5) < 1e-12


def test_traceless_part_frobenius_formula():
    rng = RngStream(45)
    O = random_projector_observable(4, 2, rng).matrix
    O0 = traceless_part(O)
    assert abs(np.trace(O0).real) < 1e-9
    # Tr(O0^2) = Tr(O^2) - Tr(O)^2/d = 2 - 4/4 = 1
    assert abs(np.trace(O0 @ O0).real - 1) < 1e-9
    # operator norm of the traceless part at most doubles
    assert np.abs(np.linalg.eigvalsh(O0)).max() <= 2 + 1e-9


def test_distinguishing_orthogonal_states():
    rho = density(np.array([1, 0], dtype=complex))
    sigma = density(np.array([0, 1], dtype=complex))
    obs, gap = distinguishing_observable(rho, sigma)
    assert abs(gap - 1) < 1e-12
    assert np.abs(obs.matrix - rho).max() < 1e-9


def test_distinguishing_gap_equals_trace_distance():
    rng = RngStream(46)
    for _ in range(25):
        rho = density(sample_haar_state(6, rng))
        sigma = density(sample_haar_state(6, rng))
        _, gap = distinguishing_observable(rho, sigma)
        assert abs(gap - trace_distance(rho, sigma)) < 1e-9


def test_distinguishing_low_rank_option():
    rng = RngStream(47)
    rho = density(sample_haar_state(5, rng))
    sigma = density(sample_haar_state(5, rng))
    obs, _ = distinguishing_observable(rho, sigma)
    # difference of two pure states has one positive and one negative
    # eigenvalue, so the positive eigenprojector is already rank 1
    assert abs(np.trace(obs.matrix).real - 1) < 1e-9


def test_distinguishing_equal_states_rejected():
    rho = density(ZERO)
    with pytest.raises(ValueError):
        distinguishing_observable(rho, rho.copy())


def test_distinguishing_argmax_margin():
    # any estimate within gap/2 of Tr(O rho_b) still identifies b
    rng = RngStream(48)
    rho = density(sample_haar_state(4, rng))
    sigma = density(sample_haar_state(4, rng))
    obs, gap = distinguishing_observable(rho, sigma)
    t_rho = np.trace(obs.matrix @ rho).real
    t_sigma = np.trace(obs.matrix @ sigma).real
    for _ in range(100):
        eps = rng.gen.uniform(-gap / 2, gap / 2) * 0.999
        est = t_rho + eps
        assert abs(est - t_rho) < abs(est - t_sigma)


def test_helstrom_values():
    assert helstrom_success(density(ZERO), density(ZERO)) == pytest.approx(0.5)
    assert helstrom_success(
        density(ZERO), density(np.array([0, 1], dtype=complex))
    ) == pytest.approx(1.0)
    # |0> vs |+>: 1/2 + sqrt(2)/4
    assert helstrom_success(density(ZERO), density(PLUS)) == pytest.approx(
        0.8535533905932737, abs=1e-12
    )


def test_tensor_power_trace_identity():
    # Tr(rho0^(x s) rho1^(x s)) = Tr(rho0 rho1)^s, evaluated without d^s
    # matrices via the scalar overlap
    rng = RngStream(49)
    a, b = sample_haar_state(3, rng), sample_haar_state(3, rng)
    overlap = abs(np.vdot(a, b)) ** 2
    for s in range(1, 6):
        # s-fold product trace factorizes exactly
        assert abs(overlap**s - np.trace(
            np.linalg.matrix_power(density(a) @ density(b), s)
        ).real) < 1e-9
