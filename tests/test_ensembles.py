from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from oracles import sample_posterior_states as oracle_posterior_states
from shadowlab.ensembles import (
    RngStream,
    _rescale_phi_coordinates,
    aligned_frame,
    phi_basis,
    sample_aligned_posterior_states,
    sample_haar_state,
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


def overlaps(phi, s, rng, n):
    """(t, theta): |<phi|psi>|^2 and arg <phi|psi> in [0, 2 pi) of n outcomes."""
    amp = sample_posterior_states(phi, s, rng, n) @ phi.conj()
    return np.abs(amp) ** 2, np.mod(np.angle(amp), 2 * np.pi)


def test_overlap_sample_range_check():
    # t in [0, 1] and theta in [0, 2 pi), at the extreme shapes s = 0 and
    # s >> d as well
    rng = RngStream(1)
    for s, d in ((0, 2), (1, 2), (500, 2), (0, 64)):
        t, theta = overlaps(sample_haar_state(d, rng), s, rng, 2000)
        assert t.min() >= 0 and t.max() <= 1
        assert theta.min() >= 0 and theta.max() < 2 * np.pi


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
    rng = RngStream(4)
    n = 50_000
    for s, d in ((1, 2), (3, 5), (0, 4)):
        ts, _ = overlaps(sample_haar_state(d, rng), s, rng, n)
        expected = (s + 1) / (s + d)
        assert abs(ts.mean() - expected) < 5 * ts.std() / np.sqrt(n)


def test_posterior_overlap_distribution_ks():
    s, d = 3, 5
    rng = RngStream(5)
    ts, thetas = overlaps(sample_haar_state(d, rng), s, rng, N_BIG)
    oracle = rejection_sample_overlap(s, d, np.random.default_rng(123), N_BIG)
    assert stats.ks_2samp(ts, oracle).statistic < 0.01
    # theta uniform on [0, 2 pi)
    assert stats.kstest(thetas / (2 * np.pi), "uniform").statistic < 0.01


def aligned_states(phi, s, rng, n):
    """Outcomes of the phi-aligned sampler, rotated back to the standard basis."""
    d = phi.shape[0]
    records = sample_aligned_posterior_states(s, rng, np.empty((n, d), dtype=complex), d)
    return records @ phi_basis(phi).T


def reduced_records(phi, vecs, s, rng, n):
    """(records, frame): aligned records reduced to what <psi|vecs> reads."""
    frame = aligned_frame(phi, vecs)
    out = np.empty((n, frame.shape[0]), dtype=complex)
    return sample_aligned_posterior_states(s, rng, out, phi.shape[0]), frame


@pytest.mark.parametrize("s, d", [(0, 2), (1, 8), (3, 64), (500, 16)])
def test_posterior_states_match_oracle_sampler(s, d):
    # two-sample KS tests against the two-Gamma, complement-resampling
    # sampler: on t = |<phi|psi>|^2, and on |<psi|v>|^2 for a fixed unit
    # v orthogonal to phi, which sees the law of the complement direction.
    # The full-vector sampler and the phi-aligned one, at full and at
    # reduced width, each face the oracle.
    n = 20_000
    phi = sample_haar_state(d, RngStream(20))
    v = sample_haar_state(d, RngStream(21))
    v -= (phi.conj() @ v) * phi
    v /= np.linalg.norm(v)
    old = oracle_posterior_states(phi, s, RngStream(23, s), n)
    records, frame = reduced_records(phi, v[:, None], s, RngStream(24, s), n)
    overlaps = {
        "full": [np.abs(sample_posterior_states(phi, s, RngStream(22, s), n) @ w.conj()) ** 2
                 for w in (phi, v)],
        "aligned": [np.abs(aligned_states(phi, s, RngStream(25, s), n) @ w.conj()) ** 2
                    for w in (phi, v)],
        "reduced": [np.abs(records[:, 0]) ** 2, np.abs(records @ frame.conj())[:, 0] ** 2],
    }
    for new in overlaps.values():
        for w, got in zip((phi, v), new):
            assert stats.ks_2samp(got, np.abs(old @ w.conj()) ** 2).pvalue > 1e-3
    # the phi-amplitude rule alone: |a|^2/2 against Gamma(s+1) draws, and
    # a phase that stays uniform
    c = RngStream(26, s).gen.standard_normal((n, 2)).view(complex)[:, 0]
    a = _rescale_phi_coordinates(c.copy(), s, RngStream(27, s))
    gammas = np.random.default_rng(28 + s).gamma(s + 1, size=n)
    assert stats.ks_2samp(np.abs(a) ** 2 / 2, gammas).pvalue > 1e-3
    assert np.allclose(np.angle(a), np.angle(c))


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
    psis = sample_posterior_states(phi, 5, rng, 1)
    assert psis.shape == (1, 2)
    assert abs(np.linalg.norm(psis[0]) - 1) < 1e-10


def test_dimension_guard():
    with pytest.raises(ValueError):
        sample_haar_state(1, RngStream(0))
    with pytest.raises(ValueError):
        sample_posterior_states(np.ones(1, dtype=complex), 1, RngStream(0), 3)
    with pytest.raises(ValueError):
        sample_posterior_states(np.array([1, 0], dtype=complex), -1, RngStream(0), 3)


@pytest.mark.parametrize("s, d, r", [(0, 2, 1), (1, 8, 2), (3, 64, 4), (1, 5, 5), (2, 6, 4)])
def test_reduced_records_match_full_overlaps(s, d, r):
    # |<psi|v_j>|^2 read from aligned records of width m = min(d, r + 2)
    # against full outcome vectors, for each column of a fixed frame V and
    # for phi itself: two-sample KS.  (1, 5, 5) and (2, 6, 4) are m = d
    n = 20_000
    phi = sample_haar_state(d, RngStream(40))
    vecs = np.linalg.qr(sample_haar_state(d, RngStream(41), size=r).T)[0]
    records, frame = reduced_records(phi, vecs, s, RngStream(42, s), n)
    m = min(d, r + 2)
    assert records.shape == (n, m) and frame.shape == (m, r)
    assert np.abs(np.linalg.norm(records, axis=1) - 1).max() < 1e-12
    full = sample_posterior_states(phi, s, RngStream(43, s), n)
    new = np.abs(records @ frame.conj()) ** 2
    old = np.abs(full @ vecs.conj()) ** 2
    for j in range(r):
        assert stats.ks_2samp(new[:, j], old[:, j]).pvalue > 1e-3
    t_new = np.abs(records[:, 0]) ** 2  # phi is the first basis vector
    assert stats.ks_2samp(t_new, np.abs(full @ phi.conj()) ** 2).pvalue > 1e-3
    if r + 1 == d - 1:  # the rest is one coordinate, with a uniform phase
        phase = np.mod(np.angle(records[:, -1]), 2 * np.pi) / (2 * np.pi)
        assert stats.kstest(phase, "uniform").pvalue > 1e-3


@pytest.mark.parametrize("phi", [np.zeros(4), np.array([np.nan, 1, 0, 0]), np.array([np.inf, 1, 0, 0])])
def test_reduced_sampler_rejects_a_state_it_cannot_normalise(phi):
    vecs = np.eye(4, 2, dtype=complex)
    for full in (False, True):
        with pytest.raises(ValueError):
            aligned_frame(phi, vecs, full)


def test_reduced_sampler_guards():
    phi = np.array([1, 0, 0], dtype=complex)
    with pytest.raises(ValueError):  # vecs must live in phi's dimension
        aligned_frame(phi, np.eye(4, 2))
    with pytest.raises(ValueError):  # d = 1
        aligned_frame(np.ones(1), np.ones((1, 1)))
    for m, d in ((4, 3), (1, 3)):  # records are 2 to d wide
        with pytest.raises(ValueError):
            sample_aligned_posterior_states(1, RngStream(0), np.empty((3, m), dtype=complex), d)
    # an unnormalised phi is normalised, as by measure_joint_batch
    assert np.allclose(aligned_frame(3 * phi, np.eye(3, 2)), aligned_frame(phi, np.eye(3, 2)))
    # widths: span{phi, V} plus the rest, or every coordinate
    vecs = np.eye(8, 2, 3)
    assert aligned_frame(np.eye(8)[0], vecs).shape == (4, 2)
    assert aligned_frame(np.eye(8)[0], vecs, full=True).shape == (8, 2)
    assert not aligned_frame(np.eye(8)[0], vecs)[-1].any()  # the rest has no overlap


class _ZeroPhiGenerator:
    """Stub generator: every normal draw is 1 except the first complex
    coordinate of each row, which is 0; every Gamma variate is 1."""

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = 1.0
        out[:, :2] = 0.0
        return out

    def gamma(self, shape, size=None):
        return np.ones(size)


@pytest.mark.parametrize("s", [0, 1, 4])
def test_samplers_give_a_unit_row_when_the_phi_coordinate_is_zero(s):
    # c = 0 has probability zero, but must not become NaN: with s >= 1 the
    # phi amplitude is sqrt(2 Gamma(s)) = sqrt(2) here, and with s = 0 it stays 0
    d = 4
    rng = SimpleNamespace(gen=_ZeroPhiGenerator())
    phi = np.eye(d, dtype=complex)[0]
    full = sample_posterior_states(phi, s, rng, 3)
    aligned = sample_aligned_posterior_states(s, rng, np.empty((3, d), dtype=complex), d)
    reduced = sample_aligned_posterior_states(s, rng, np.empty((3, 3), dtype=complex), d)
    for rows in (full, aligned, reduced):
        assert np.isfinite(rows).all()
        assert np.abs(np.linalg.norm(rows, axis=1) - 1).max() < 1e-12
    want = np.sqrt(2 * (s > 0) / (2 * (s > 0) + 2 * (d - 1)))  # |a| / |(a, 1+1j, ...)|
    assert np.allclose(full[:, 0], want) and np.allclose(aligned[:, 0], want)
    # the reduced row is (a, 1+1j, sqrt(2 Gamma(d - 2))) = (a, 1+1j, sqrt(2))
    assert np.allclose(reduced[:, 0], np.sqrt(2 * (s > 0) / (2 * (s > 0) + 4)))


def test_aligned_sampler_guards():
    rng = RngStream(0)
    with pytest.raises(ValueError):  # d = 1
        sample_aligned_posterior_states(1, rng, np.empty((3, 1), dtype=complex), 1)
    with pytest.raises(ValueError):
        sample_aligned_posterior_states(-1, rng, np.empty((3, 2), dtype=complex), 2)
    for out in (np.empty((3, 4)), np.empty((4, 3), dtype=complex).T, np.empty(4, dtype=complex)):
        with pytest.raises(ValueError):  # complex, C-contiguous and (n, m) only
            sample_aligned_posterior_states(1, rng, out, 4)
    # the draws fill out in place, and do not depend on phi
    out = np.empty((5, 3), dtype=complex)
    assert sample_aligned_posterior_states(2, RngStream(1), out, 3) is out
    assert np.abs(np.linalg.norm(out, axis=1) - 1).max() < 1e-12


def test_phi_basis_is_unitary_with_phi_first():
    phi = sample_haar_state(6, RngStream(3))
    q = phi_basis(phi)
    assert q.shape == (6, 6) and np.allclose(q.conj().T @ q, np.eye(6))
    assert np.array_equal(q[:, 0], phi)
    vecs = np.linalg.qr(sample_haar_state(6, RngStream(4), size=2).T)[0]
    q = phi_basis(phi, vecs)
    assert q.shape == (6, 3) and np.allclose(q @ (q.conj().T @ vecs), vecs)
