import numpy as np
import pytest
from scipy import stats

from shadowlab.ensembles import (
    OverlapSample,
    RngStream,
    sample_haar_state,
    sample_posterior_overlap,
    sample_posterior_state,
    sample_posterior_states,
)

N_BIG = 100_000


def rejection_sample_overlap(s, d, rng, n):
    """Independent oracle: accept-reject t ~ t^s (1-t)^(d-2) on [0, 1]."""
    out = np.empty(0)
    # density peak at t* = s/(s+d-2) (or an endpoint); bound the density by
    # its value there
    def f(t):
        return t**s * (1 - t) ** (d - 2)

    grid = np.linspace(0, 1, 10_001)
    fmax = f(grid).max()
    while out.size < n:
        t = rng.uniform(0, 1, size=4 * n)
        u = rng.uniform(0, fmax, size=4 * n)
        out = np.concatenate([out, t[u <= f(t)]])
    return out[:n]


def test_rng_stream_reproducible():
    a = RngStream(42, 7).gen.standard_normal(5)
    b = RngStream(42, 7).gen.standard_normal(5)
    c = RngStream(42, 8).gen.standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_overlap_sample_range_check():
    with pytest.raises(ValueError):
        OverlapSample(t=1.5, theta=0.0)


def test_haar_state_norm_and_shape():
    rng = RngStream(0)
    psi = sample_haar_state(5, rng)
    assert psi.shape == (5,)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    batch = sample_haar_state(5, rng, size=64)
    assert batch.shape == (64, 5)
    assert np.abs(np.linalg.norm(batch, axis=1) - 1).max() < 1e-12


def test_haar_mean_projector_is_maximally_mixed():
    d = 3
    rng = RngStream(2)
    psis = sample_haar_state(d, rng, size=N_BIG)
    mean = np.einsum("ni,nj->ij", psis, psis.conj()) / N_BIG
    assert np.abs(mean - np.eye(d) / d).max() < 5 / np.sqrt(N_BIG)


def test_haar_overlap_marginal_ks():
    # |<e1|psi>|^2 under Haar has density (d-1)(1-t)^(d-2); compare against
    # the rejection-sampling oracle with a two-sample KS test
    d = 4
    rng = RngStream(3)
    psis = sample_haar_state(d, rng, size=N_BIG)
    t_haar = np.abs(psis[:, 0]) ** 2
    t_oracle = rejection_sample_overlap(0, d, np.random.default_rng(99), N_BIG)
    assert stats.ks_2samp(t_haar, t_oracle).statistic < 0.01


def test_posterior_overlap_mean():
    # E[t] = (s+1)/(s+d); at d=2, s=1 this is the 2/3 diagonal of the
    # first-moment formula
    from shadowlab.ensembles import _sample_overlaps

    rng = RngStream(4)
    n = 50_000
    for s, d in ((1, 2), (3, 5), (0, 4)):
        ts, _ = _sample_overlaps(s, d, rng, n)
        expected = (s + 1) / (s + d)
        assert abs(ts.mean() - expected) < 5 * ts.std() / np.sqrt(n)
    single = sample_posterior_overlap(1, 2, rng)
    assert 0 <= single.t <= 1 and 0 <= single.theta < 2 * np.pi


def test_posterior_overlap_distribution_ks():
    s, d = 3, 5
    rng = RngStream(5)
    from shadowlab.ensembles import _sample_overlaps

    ts, thetas = _sample_overlaps(s, d, rng, N_BIG)
    oracle = rejection_sample_overlap(s, d, np.random.default_rng(123), N_BIG)
    assert stats.ks_2samp(ts, oracle).statistic < 0.01
    # theta uniform on [0, 2 pi)
    assert stats.kstest(thetas / (2 * np.pi), "uniform").statistic < 0.01


def test_posterior_state_overlap_matches_t_by_construction():
    rng = RngStream(6)
    phi = sample_haar_state(4, rng)
    psis = sample_posterior_states(phi, 3, rng, 100)
    # each outcome decomposes as sqrt(t) e^{i theta} phi + sqrt(1-t) chi,
    # so |<phi|psi>|^2 in [0,1] and the state is unit norm
    assert np.abs(np.linalg.norm(psis, axis=1) - 1).max() < 1e-10
    overlaps = np.abs(psis @ phi.conj()) ** 2
    assert overlaps.min() >= 0 and overlaps.max() <= 1 + 1e-12


def test_posterior_first_moment_formula():
    # E[|psi><psi|] = (I + s rho)/(d + s) at d=3, s=2
    d, s = 3, 2
    rng = RngStream(7)
    phi = sample_haar_state(d, rng)
    rho = np.outer(phi, phi.conj())
    psis = sample_posterior_states(phi, s, rng, N_BIG)
    mean = np.einsum("ni,nj->ij", psis, psis.conj()) / N_BIG
    target = (np.eye(d) + s * rho) / (d + s)
    assert np.abs(mean - target).max() < 5 / np.sqrt(N_BIG)


def test_posterior_phase_covariance():
    # multiplying phi by a global phase leaves the outcome projector law
    # unchanged (the uniform relative phase absorbs it); check via
    # first-moment statistics on independent streams
    d, s, n = 3, 2, 50_000
    phi = sample_haar_state(d, RngStream(8))
    a = sample_posterior_states(phi, s, RngStream(9), n)
    b = sample_posterior_states(np.exp(0.7j) * phi, s, RngStream(19), n)
    ma = np.einsum("ni,nj->ij", a, a.conj()) / n
    mb = np.einsum("ni,nj->ij", b, b.conj()) / n
    assert np.abs(ma - mb).max() < 5 * np.sqrt(2 / n)


def test_posterior_single_draw():
    rng = RngStream(10)
    phi = sample_haar_state(2, rng)
    psi = sample_posterior_state(phi, 5, rng)
    assert psi.shape == (2,)
    assert abs(np.linalg.norm(psi) - 1) < 1e-10


def test_dimension_guard():
    with pytest.raises(ValueError):
        sample_haar_state(1, RngStream(0))
