import numpy as np
import pytest

from shadowlab.ensembles import RngStream, sample_haar_state
from shadowlab.linalg import density
from shadowlab.measurement import (
    as_state_vector,
    measure_independent_batch,
    measure_joint_batch,
)
from shadowlab.moments import exact_second_moment


def test_as_state_vector_takes_vectors_only():
    v = np.array([3.0, 4.0], dtype=complex)
    out = as_state_vector(v)
    assert abs(np.linalg.norm(out) - 1) < 1e-12
    # a pure density matrix is rejected, not diagonalised
    rho = density(out)
    for call in (lambda: as_state_vector(rho),
                 lambda: measure_joint_batch(rho, 2, RngStream(0), 1),
                 lambda: measure_independent_batch(rho, RngStream(0), 1)):
        with pytest.raises(ValueError, match="state vector"):
            call()


def test_as_state_vector_rejects_mixed():
    with pytest.raises(ValueError):
        as_state_vector(np.eye(2) / 2)


def test_as_state_vector_rejects_zero_and_non_finite():
    # each of these once normalized to NaN (or passed as a state) and sent
    # the orthogonal-complement resampler into an endless loop
    for bad in (np.zeros(4), np.array([np.nan, 1.0]), np.array([np.inf, 0.0]),
                np.full(2, 1e200)):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            as_state_vector(bad)
    for bad in (np.zeros((2, 2)), np.eye(2), np.array([[np.nan, 0], [0, 1]])):
        with pytest.raises(ValueError):
            as_state_vector(bad)
    with pytest.raises(ValueError):
        measure_independent_batch(np.zeros(4), RngStream(1), 2)
    with pytest.raises(ValueError):
        measure_joint_batch(np.zeros((4, 4)), 3, RngStream(1), 2)


def test_measure_joint_first_moment():
    # E[Psi] = (I + s rho)/(d + s) at d=4, s=3
    d, s, n = 4, 3, 100_000
    rng = RngStream(21)
    phi = sample_haar_state(d, rng)
    rho = density(phi)
    psis = measure_joint_batch(phi, s, rng, n)
    mean = np.einsum("ni,nj->ij", psis, psis.conj()) / n
    assert np.abs(mean - (np.eye(d) + s * rho) / (d + s)).max() < 5 / np.sqrt(n)


def test_measure_joint_concentrates_for_large_s():
    # E[|<phi|psi>|^2] = (1 + s)/(d + s) -> 201/202 at s=200, d=2
    d, s, n = 2, 200, 50_000
    rng = RngStream(22)
    phi = sample_haar_state(d, rng)
    psis = measure_joint_batch(phi, s, rng, n)
    overlap = np.abs(psis @ phi.conj()) ** 2
    assert abs(overlap.mean() - 201 / 202) < 5 * overlap.std() / np.sqrt(n)


def test_measure_joint_second_moment():
    d, s, n = 2, 2, 100_000
    rng = RngStream(23)
    phi = sample_haar_state(d, rng)
    psis = measure_joint_batch(phi, s, rng, n)
    # E[Psi x Psi] entrywise: (psi psi^dag) x (psi psi^dag)
    kron_mean = np.einsum("ni,nj,nk,nl->ikjl", psis, psis.conj(), psis, psis.conj())
    kron_mean = kron_mean.reshape(d * d, d * d) / n
    target = exact_second_moment(density(phi), s, d)
    assert np.abs(kron_mean - target).max() < 4 / np.sqrt(n)


def test_measure_independent_is_s1():
    # the same draws as the joint measurement on one copy
    phi = sample_haar_state(3, RngStream(24))
    out = measure_independent_batch(phi, RngStream(24, 1), 5)
    assert out.shape == (5, 3)
    assert np.array_equal(out, measure_joint_batch(phi, 1, RngStream(24, 1), 5))
    assert not np.array_equal(out, measure_joint_batch(phi, 2, RngStream(24, 1), 5))


def test_independent_streams_uncorrelated():
    d, n = 3, 20_000
    phi = sample_haar_state(d, RngStream(25))
    O = np.diag([1.0, -1.0, 0.0]).astype(complex)
    a = measure_independent_batch(phi, RngStream(26), n)
    b = measure_independent_batch(phi, RngStream(27), n)
    ta = np.einsum("ni,ij,nj->n", a.conj(), O, a).real
    tb = np.einsum("ni,ij,nj->n", b.conj(), O, b).real
    corr = np.corrcoef(ta, tb)[0, 1]
    assert abs(corr) < 4 / np.sqrt(n)


def test_measure_joint_rejects_bad_s():
    phi = sample_haar_state(2, RngStream(28))
    for s in (0, -1):
        with pytest.raises(ValueError):
            measure_joint_batch(phi, s, RngStream(28), 1)
