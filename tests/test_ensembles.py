import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from oracles import aligned_records, haar_states, sample_posterior_states as oracle_posterior_states
import shadowlab
from shadowlab import bhm, cli, ensembles, moments
from shadowlab.ensembles import (
    CHUNK_FLOATS,
    RngStream,
    _lift,
    aligned_frame,
    reflect,
    sample_haar_state,
    sample_posterior_states,
    stream_aligned_posterior_states,
)
from shadowlab.estimators import BatchReduction
from shadowlab.observables import random_observable

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
    """(t, theta): |<phi|psi>|^2 and arg <phi|psi><psi|v> in [0, 2 pi) of n
    outcomes, for a fixed unit v orthogonal to phi.  theta is a phase of the
    projector |psi><psi|, which a global phase of psi leaves unchanged."""
    v = sample_haar_state(phi.size, RngStream(99, phi.size))
    v -= np.vdot(phi, v) * phi
    psis = sample_posterior_states(phi, s, rng, n)
    amp = psis @ phi.conj()
    return np.abs(amp) ** 2, np.mod(np.angle(amp * (psis @ v.conj()).conj()), 2 * np.pi)


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
    # the tests' batched draw reproduces it row for row
    assert np.array_equal(haar_states(5, RngStream(0), 1)[0], sample_haar_state(5, RngStream(0)))


def test_haar_mean_projector_is_maximally_mixed():
    d = 3
    rng = RngStream(2)
    psis = haar_states(d, rng, N_BIG)
    mean = np.einsum("ni,nj->ij", psis, psis.conj()) / N_BIG
    assert np.abs(mean - np.eye(d) / d).max() < 5 / np.sqrt(N_BIG)


def test_haar_overlap_marginal_ks():
    # |<e1|psi>|^2 under Haar has density (d-1)(1-t)^(d-2); compare against
    # the rejection-sampling oracle with a two-sample KS test
    d = 4
    rng = RngStream(3)
    psis = haar_states(d, rng, N_BIG)
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
    """Outcomes of the phi-aligned sampler, reflected to the standard basis."""
    d = phi.shape[0]
    records = aligned_records(s, rng, d, d, n)
    return reflect(phi, records)


def reduced_records(phi, vecs, s, rng, n):
    """(records, frame): aligned records reduced to what <psi|vecs> reads."""
    frame = aligned_frame(phi, vecs)
    return aligned_records(s, rng, phi.shape[0], frame.shape[0], n), frame


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


@pytest.mark.parametrize("k", [0, 1, 5, 500])
def test_lift_gives_the_phi_amplitude_law(k):
    # the phi coordinate lifted by k = s: a real modulus a >= 0 with a^2/2
    # against Gamma(s+1) draws
    n = 20_000
    c = RngStream(26, k).gen.standard_normal((n, 2)).view(complex)[:, 0]
    a = c.copy()
    _lift(a, k, RngStream(27, k).gen)
    assert not a.imag.any() and (a.real >= 0).all()
    gammas = np.random.default_rng(28 + k).gamma(k + 1, size=n)
    assert stats.ks_2samp(a.real**2 / 2, gammas).pvalue > 1e-3


def test_reduced_records_lift_the_rest_coordinate():
    # at d = 16 and m = 4 the rest is lifted by k = d - m: rest^2/2 against
    # Gamma(d - m + 1) draws; in the records it is real, and its ratio to the
    # two middle coordinates' squared norm, which the normalisation keeps,
    # is Gamma(d - m + 1)/Gamma(2)
    d, m, n = 16, 4, 20_000
    c = RngStream(29).gen.standard_normal((n, 2)).view(complex)[:, 0]
    _lift(c, d - m, RngStream(30).gen)
    ref = np.random.default_rng(31)
    assert stats.ks_2samp(c.real**2 / 2, ref.gamma(d - m + 1, size=n)).pvalue > 1e-3
    records = aligned_records(2, RngStream(32), d, m, n)
    assert not records[:, -1].imag.any() and (records[:, -1].real >= 0).all()
    ratio = records[:, -1].real ** 2 / (np.abs(records[:, 1:-1]) ** 2).sum(axis=1)
    want = ref.gamma(d - m + 1, size=n) / ref.gamma(m - 2, size=n)
    assert stats.ks_2samp(ratio, want).pvalue > 1e-3


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
    vecs = np.linalg.qr(haar_states(d, RngStream(41), r).T)[0]
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
            aligned_records(1, RngStream(0), d, m, 3)
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
    # phi amplitude is sqrt(0 + 2 Gamma(s)) = sqrt(2) here, and with s = 0 it stays 0
    d = 4
    rng = SimpleNamespace(gen=_ZeroPhiGenerator())
    phi = np.eye(d, dtype=complex)[0]
    full = sample_posterior_states(phi, s, rng, 3)
    aligned = aligned_records(s, rng, d, d, 3)
    reduced = aligned_records(s, rng, d, 3, 3)
    for rows in (full, aligned, reduced):
        assert np.isfinite(rows).all()
        assert np.abs(np.linalg.norm(rows, axis=1) - 1).max() < 1e-12
    want = np.sqrt(2 * (s > 0) / (2 * (s > 0) + 2 * (d - 1)))  # |a| / |(a, 1+1j, ...)|
    # the reflection for phi = e_0 is I - 2 e_0 e_0^H: H e_0 = -phi
    assert np.allclose(np.abs(full[:, 0]), want) and np.allclose(aligned[:, 0], want)
    # the reduced row is (a, 1+1j, sqrt(|1+1j|^2 + 2 Gamma(d - 3))) = (a, 1+1j, 2)
    assert np.allclose(reduced[:, 0], np.sqrt(2 * (s > 0) / (2 * (s > 0) + 6)))
    assert np.allclose(reduced[:, 2], 2 / np.sqrt(2 * (s > 0) + 6))


def test_aligned_sampler_guards():
    rng = RngStream(0)
    with pytest.raises(ValueError):  # d = 1
        aligned_records(1, rng, 1, 1, 3)
    with pytest.raises(ValueError):
        aligned_records(-1, rng, 2, 2, 3)
    # the draws do not depend on phi
    out = aligned_records(2, RngStream(1), 3, 3, 5)
    assert np.abs(np.linalg.norm(out, axis=1) - 1).max() < 1e-12


def _dense_reflection(phi):
    """I - 2 u u^H / |u|^2 for u = phi + e^(i arg phi_0) e_0, formed densely."""
    u = phi.astype(complex)
    u[0] += np.exp(1j * np.angle(phi[0]))
    return np.eye(phi.size) - 2 * np.outer(u, u.conj()) / np.vdot(u, u).real


@pytest.mark.parametrize("phi", [
    sample_haar_state(6, RngStream(3)),
    np.array([0, 0.6, 0.8j, 0], dtype=complex),  # phi_0 = 0
    np.eye(5, dtype=complex)[0],  # phi = e_0
    -1j * np.eye(3, dtype=complex)[0],
], ids=["haar", "phi0_zero", "e0", "minus_i_e0"])
def test_reflection_is_the_householder_unitary_with_phi_first(phi):
    d = phi.size
    h = reflect(phi, np.eye(d, dtype=complex)).T  # row i of I becomes H e_i
    assert np.isfinite(h).all()
    assert np.abs(h - _dense_reflection(phi)).max() <= 1e-12
    assert np.abs(h - h.conj().T).max() <= 1e-12  # Hermitian
    assert np.abs(h @ h.conj().T - np.eye(d)).max() <= 1e-12  # unitary
    x = haar_states(d, RngStream(5), 3)
    assert np.abs(reflect(phi, reflect(phi, x.copy())) - x).max() <= 1e-12  # involutive
    assert np.abs(reflect(phi, x.copy()) - x @ h.T).max() <= 1e-12  # row r becomes H r
    # the first column is phi up to a unit phase
    phase = np.vdot(phi, h[:, 0])
    assert abs(abs(phase) - 1) <= 1e-12 and np.abs(h[:, 0] - phase * phi).max() <= 1e-12
    # a vector reflects as the rows of an array do
    assert np.abs(reflect(phi, x[0].copy()) - h @ x[0]).max() <= 1e-12


@pytest.mark.parametrize("s, size", [(0, 4), (3, 7)])
def test_posterior_states_are_the_aligned_draw_reflected(s, size):
    # the same generator calls in the same order: the same state afterwards,
    # and the outcomes are the aligned records reflected
    d = 5
    phi = sample_haar_state(d, RngStream(50))
    a, b = RngStream(51, s), RngStream(51, s)
    full = sample_posterior_states(phi, s, a, size)
    records = aligned_records(s, b, d, d, size)
    np.testing.assert_equal(a.gen.bit_generator.state, b.gen.bit_generator.state)
    assert np.abs(full - reflect(phi, records)).max() <= 1e-15
    with pytest.raises(ValueError):  # phi must be a unit vector
        sample_posterior_states(2 * phi, s, a, size)


def test_frames_and_mc_covariances_run_no_qr_on_the_full_space(monkeypatch):
    # the full frame and the Monte Carlo covariances reflect with phi; only
    # the reduced frame factors its (d - 1, r) block
    d = 6
    phi = sample_haar_state(d, RngStream(60))
    vecs = np.linalg.qr(haar_states(d, RngStream(61), 2).T)[0]
    o = vecs @ np.diag([1.0, -0.5]) @ vecs.conj().T
    qr = np.linalg.qr
    shapes = []

    def recording_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("QR on the full frame or covariance path")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    frame = aligned_frame(phi, vecs, full=True)
    assert np.abs(frame - _dense_reflection(phi) @ vecs).max() <= 1e-12
    moments.mc_covariances(("ij_ji",), np.outer(phi, phi.conj()), o, d, 1000, RngStream(62))
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    aligned_frame(phi, vecs)
    assert shapes == [(d - 1, 2)]
    with pytest.raises(ValueError, match="state vector"):  # vectors only
        aligned_frame(np.outer(phi, phi.conj()), vecs)


class _InlinePool:
    """A stand-in for the draw pool that runs each submitted participant at
    once on the calling thread, so a pool of any size starts no thread."""

    def submit(self, fn):
        fn()


def _two_blocks(rng, n, m, d):
    """Two consecutive draws of (n, m) records from one stream."""
    return [aligned_records(3, rng, d, m, n) for _ in "ab"]


# Participant counts, each with a draw pool: one is the caller alone; the
# inline pool runs the other participants on the caller with no thread, and
# a thread pool on real threads
_PARTICIPANTS = ((1, _InlinePool), (2, _InlinePool), (3, _InlinePool), (20, _InlinePool),
                 (2, lambda: ThreadPoolExecutor(1)), (8, lambda: ThreadPoolExecutor(7)))


def _each_participant_count(monkeypatch):
    """Yield each entry of _PARTICIPANTS after making it ensembles' cores and pool."""
    for cores, make in _PARTICIPANTS:
        pool = make()
        monkeypatch.setattr(ensembles, "_cores", lambda cores=cores: cores)
        monkeypatch.setattr(ensembles, "_pool", lambda pool=pool: pool)
        yield cores
        if isinstance(pool, ThreadPoolExecutor):
            pool.shutdown()


@pytest.mark.parametrize("m, d", [(4, 64), (32, 32)], ids=["reduced", "full"])
def test_draw_does_not_depend_on_the_thread_count(monkeypatch, m, d):
    # 4 * CHUNK_FLOATS floats plus one row: 5 chunks of unequal size
    n = 2 * CHUNK_FLOATS // m + 1
    default = _two_blocks(RngStream(70, 2), n, m, d)
    keys = _recording_draws(monkeypatch)
    for _ in _each_participant_count(monkeypatch):
        for got, want in zip(_two_blocks(RngStream(70, 2), n, m, d), default):
            assert np.array_equal(got, want)
    assert not np.array_equal(*default)
    assert np.abs(np.linalg.norm(default[1], axis=1) - 1).max() <= 1e-12
    # chunk j of a stream's i-th call is keyed (stream_id, i, j, 0): distinct,
    # and never an RngStream's (stream_id,); the caller alone, and an inline
    # pool, draw them in stream order
    assert keys[:10] == [(2, i, j, 0) for i in range(2) for j in range(5)]
    assert keys[10:20] == keys[:10]
    assert RngStream(70, 2).gen.bit_generator.seed_seq.spawn_key == (2,)


def test_streams_and_their_chunks_draw_from_sfc64():
    # a call of two chunks reads two keyed generators, a call of one chunk
    # the stream itself: every one an SFC64 generator, as RngStream's own is
    m = 4
    rng = RngStream(75, 3)
    keys = [key for n in (CHUNK_FLOATS // (2 * m) + 1, 1)
            for *_, parts in ensembles._chunks(rng, n, 1, m)[2] for *_, key in parts]
    gens = [ensembles._generator(rng, key) for key in keys]
    assert keys == [(3, 0, 0, 0), (3, 0, 1, 0), None] and gens[2] is rng.gen
    assert all(type(gen.bit_generator) is np.random.SFC64 for gen in gens)


def test_a_draw_of_one_chunk_reads_the_stream_itself():
    # at or below CHUNK_FLOATS floats, the parent stream's own calls: the
    # Gaussian fill, then the phi coordinate's Gamma(s)
    n, m, d, s = CHUNK_FLOATS // 8, 4, 4, 3
    out = aligned_records(s, RngStream(71), d, m, n)
    gen = RngStream(71).gen
    z = gen.standard_normal((n, 2 * m)).view(complex)
    a = np.sqrt(np.abs(z[:, 0]) ** 2 + 2 * gen.gamma(s, size=n))
    assert np.allclose(out[:, 0].real, a / np.sqrt(a**2 + (np.abs(z[:, 1:]) ** 2).sum(axis=1)))


def _call_keys(rng, groups, group_rows, m):
    """The spawn keys of every part of one stream call on rng; draws nothing."""
    return [key for *_, parts in ensembles._chunks(rng, groups, group_rows, m)[2]
            for *_, key in parts]


def test_chunk_keys_are_injective_across_each_subcommand_s_streams():
    # each subcommand's streams and calls, at a multi-chunk layout of its
    # own: run_sweep's trials t + 1 (im-linear-d64: 21 batches of 534 rows,
    # 6 wide), compare's ids 0 to 2n (n = 4 grid entries; 0 draws only the
    # instance), verify_all's 777 streamed twice (d = 2 and 3 covariance
    # trials), cov-check's 5 and bhm's runs r + 1, each drawn twice (full
    # 64-wide rows).  No key repeats within a subcommand, two calls on one
    # stream share none, and none is an RngStream's (stream_id,)
    subcommands = {
        "im": [(t + 1, [(21, 534, 6)]) for t in range(3)],
        "compare": [(i, [(200, 8, 16)]) for i in range(1, 9)],
        "verify-moments": [(777, [(20_000, 3, 2), (20_000, 3, 3)])],
        "cov-check": [(5, [(50_000, 5, 3)])],
        "bhm": [(r + 1, [(600, 1, 64), (600, 1, 64)]) for r in range(3)],
    }
    for name, streams in subcommands.items():
        keys = []
        for stream_id, calls in streams:
            rng = RngStream(1, stream_id)
            mine = [_call_keys(rng, *call) for call in calls]
            assert all(len(call) > 1 for call in mine), name  # multi-chunk layouts
            if len(mine) == 2:
                assert set(mine[0]).isdisjoint(mine[1]), name
            keys += sum(mine, [])
        assert len(set(keys)) == len(keys), name
        assert set(keys).isdisjoint({(stream_id,) for stream_id, _ in streams}), name


def test_a_group_wider_than_a_chunk_is_drawn_in_even_parts_by_one_participant():
    # 3 groups of 5000 rows, 8 wide (2048 rows a chunk): each group is a
    # chunk of 3 parts of 1666 or 1667 rows, in order, keyed (id, 0, g, p)
    count, longest, chunks = ensembles._chunks(RngStream(76, 4), 3, 5000, 8)
    chunks = list(chunks)
    assert count == 3 and longest == 1667
    assert chunks[1] == (1, 2, [(5000, 6666, (4, 0, 1, 0)), (6666, 8333, (4, 0, 1, 1)),
                                (8333, 10000, (4, 0, 1, 2))])
    # 7 groups of 700 rows fit 2 to a chunk: 4 chunks of 1 or 2 groups
    count, longest, chunks = ensembles._chunks(RngStream(76, 4), 7, 700, 8)
    assert count == 4 and longest == 1400
    assert [chunk[:2] for chunk in chunks] == [(0, 1), (1, 3), (3, 5), (5, 7)]


def _recording_draws(monkeypatch):
    """The spawn keys of the generator of every part drawn, in draw order:
    (stream_id, i, j, p) for a keyed part, (stream_id,) for the stream itself."""
    keys, draw, lock = [], ensembles._draw_chunk, threading.Lock()

    def recording(out, s, d, gen):
        with lock:
            keys.append(gen.bit_generator.seed_seq.spawn_key)
        return draw(out, s, d, gen)

    monkeypatch.setattr(ensembles, "_draw_chunk", recording)
    return keys


# (width, d, s, groups k, group rows n, B, kind): 7 batches of 700 rows, 8
# wide, are 4 chunks of whole batches; 3 batches of 5000 rows are a chunk
# each, drawn in 3 parts; 4 batches of 96 rows, 16 wide, fit in one chunk,
# drawn from the stream itself
_STREAMS = {
    "multi-chunk": (8, 8, 1, 7, 700, 2, "quadratic"),
    "sub-chunked": (8, 8, 1, 3, 5000, 2, "quadratic"),
    "one-chunk": (4, 16, 3, 4, 96, 2, "linear"),
}


def _reduction(case, seed):
    """A BatchReduction of the case's batches, for an observable drawn from seed."""
    m, d, s, k, n, B, kind = _STREAMS[case]
    phi = sample_haar_state(d, RngStream(seed, 1))
    O = random_observable(d, B, RngStream(seed, 2))
    return BatchReduction(O, kind, n, k, s, aligned_frame(phi, O.vecs, full=m == d))


def _stream(case, seed):
    """(records, per-batch estimates) of one stream of the case, the records
    gathered part by part."""
    m, d, s, k, n, *_ = _STREAMS[case]
    reduction = _reduction(case, seed)
    records = np.full((k * n, m), np.nan, dtype=complex)

    def reduce(g0, g1, parts):
        def gathered():
            row = g0 * n
            for part in parts:
                records[row:row + len(part)] = part
                row += len(part)
                yield part
        reduction.add(g0, g1, gathered())

    stream_aligned_posterior_states(s, RngStream(seed, 3), d, m, k, n, reduce)
    return records, reduction.estimates


@pytest.mark.parametrize("case", sorted(_STREAMS))
def test_stream_does_not_depend_on_the_participant_count(monkeypatch, case):
    m, d, s, k, n, *_ = _STREAMS[case]
    keys = _recording_draws(monkeypatch)
    # each part's records are drawn from its key alone, the one chunk from the stream itself
    rng = RngStream(80, 3)
    count, _, chunks = ensembles._chunks(RngStream(80, 3), k, n, m)
    want = np.concatenate([ensembles._draw_chunk(np.empty((hi - lo, m), complex), s, d,
                                                 ensembles._generator(rng, key))
                           for *_, parts in chunks for lo, hi, key in parts])
    want_keys = keys[:]
    records, estimates = _stream(case, 80)
    assert np.array_equal(records, want) and sorted(keys[len(want_keys):]) == want_keys
    assert (count, len(want_keys)) == {"multi-chunk": (4, 4), "sub-chunked": (3, 9),
                                       "one-chunk": (1, 1)}[case]
    whole = _reduction(case, 80)  # the batches reduced at once
    whole.add(0, k, [want])
    assert np.abs(estimates - whole.estimates).max() <= 1e-12 * np.abs(whole.estimates).max()
    for _ in _each_participant_count(monkeypatch):
        got_records, got_estimates = _stream(case, 80)
        assert np.array_equal(got_records, records) and np.array_equal(got_estimates, estimates)


@pytest.mark.parametrize("pool", ["default", "caller", "inline"])
def test_a_failing_chunk_stops_the_stream(monkeypatch, pool):
    # 20 groups of 1024 rows, 8 wide, are 10 chunks.  Chunk 5 raises after a
    # while, chunk 7 at once; the other chunks are quick.  No chunk starts
    # after chunk 5 raises; none is running once the call returns; and the
    # exception raised is chunk 5's, the lowest-numbered
    if pool != "default":  # the caller draws every chunk, or the pool draws its share inline
        monkeypatch.setattr(ensembles, "_cores", lambda: 1 if pool == "caller" else 2)
        monkeypatch.setattr(ensembles, "_pool", _InlinePool)
    lock, busy, events = threading.Lock(), [0], []
    draw = ensembles._draw_chunk

    def slow_draw(chunk, s, d, gen):
        key = gen.bit_generator.seed_seq.spawn_key
        with lock:
            busy[0] += 1
            events.append(("start", key))
        try:
            if key in ((2, 0, 5, 0), (2, 0, 7, 0)):
                if key[2] == 5:
                    time.sleep(0.2)
                with lock:
                    events.append(("raise", key))
                raise RuntimeError(f"chunk {key[2]}")
            return draw(chunk, s, d, gen)
        finally:
            with lock:
                busy[0] -= 1

    monkeypatch.setattr(ensembles, "_draw_chunk", slow_draw)
    with pytest.raises(RuntimeError, match="chunk 5"):
        stream_aligned_posterior_states(1, RngStream(72, 2), 8, 8, 20, 1024,
                                        lambda g0, g1, parts: list(parts))
    assert busy[0] == 0
    raised = events.index(("raise", (2, 0, 5, 0)))
    assert all(kind == "start" or key[2] == 7 for kind, key in events[:raised])
    assert events[raised + 1:] == []
    assert {(2, 0, j, 0) for j in range(6)} <= {key for _, key in events[:raised]}


def test_zero_records_return_at_once():
    # a stream of no chunks still has its caller as a participant, so it
    # ends: the calls run on a daemon thread, and a hang fails the join
    # instead of stalling the test run
    phi = sample_haar_state(5, RngStream(84))
    got, reduced = [], []

    def draw():
        got.append(sample_posterior_states(phi, 1, RngStream(85), 0))
        stream_aligned_posterior_states(1, RngStream(86), 5, 5, 0, 3,
                                        lambda *chunk: reduced.append(chunk))

    thread = threading.Thread(target=draw, daemon=True)
    thread.start()
    thread.join(30)
    assert not thread.is_alive(), "a zero-record draw did not return"
    assert got[0].shape == (0, 5) and reduced == []


def test_one_chunk_streams_create_no_pool(monkeypatch):
    # on two cores, a jm trial, a bhm run and a one-chunk draw each run
    # their one chunk on the caller: none asks for the draw pool
    def tripwire():
        raise AssertionError("a one-chunk stream asked for the draw pool")

    monkeypatch.setattr(ensembles, "_cores", lambda: 2)
    monkeypatch.setattr(ensembles, "_pool", tripwire)
    config = cli.ExperimentConfig(mode="jm", d=16, B=4.0, eps=0.2, delta=0.05, trials=1,
                                  seed=87, estimator="auto")
    (row,) = cli.run_sweep(config)
    assert row.mode == "jm"
    rng = RngStream(88, 1)
    bhm.run_protocol(bhm.gen_instance(16, 0.25, 1, rng), 0.05, rng)
    records = sample_posterior_states(sample_haar_state(8, rng), 2, rng, 100)
    assert records.shape == (100, 8)


def test_threads_that_make_their_first_draw_at_once_share_one_pool(monkeypatch):
    # a slow constructor holds the first caller inside _pool while the
    # other three arrive; each must get the one pool it made
    made = []

    def slow_executor(*args):
        time.sleep(0.05)
        made.append(object())
        return made[-1]

    monkeypatch.setattr(ensembles, "_draw_pool", None)
    monkeypatch.setattr(ensembles, "_Pool", slow_executor)
    barrier, got = threading.Barrier(4), []

    def first_draw():
        barrier.wait()
        got.append(ensembles._pool())

    threads = [threading.Thread(target=first_draw) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(made) == 1 and got == made * 4


def test_a_pool_thread_outlives_a_task_that_raises(capsys):
    # an exception that escapes a task is reported and does not end its
    # thread: the next task on the pool's one thread still runs
    pool, ran = ensembles._Pool(1), threading.Event()

    def fails():
        raise RuntimeError("escapes its task")

    pool.submit(fails)
    pool.submit(ran.set)
    assert ran.wait(10)
    assert "RuntimeError: escapes its task" in capsys.readouterr().err


def test_a_multi_chunk_trial_imports_neither_logging_nor_concurrent_futures():
    # the draw pool runs on threading and a queue.SimpleQueue; pytest itself
    # imports logging, so a fresh interpreter runs one multi-chunk im trial,
    # with two cores allowed whatever the host has, so that the pool is made
    src = os.path.dirname(os.path.dirname(shadowlab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "\n".join([
        "import sys",
        "from shadowlab import cli, ensembles",
        "ensembles._cores = lambda: 2",
        "assert cli.main(['im', '--d', '64', '--eps', '0.3', '--trials', '1']) == 0",
        "assert ensembles._draw_pool is not None",
        "print(sorted({'logging', 'concurrent.futures'} & set(sys.modules)))",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_without_the_parent_s_pool_threads():
    # a child forked after a multi-chunk draw inherits none of the pool's
    # threads; its own multi-chunk draw must make a new pool, not wait on them
    n, m, d = 4 * CHUNK_FLOATS // 8, 8, 8
    want = aligned_records(2, RngStream(73), d, m, n)
    pid = os.fork()
    if pid == 0:  # the child: exit 0 if the draw returns the parent's records
        got = aligned_records(2, RngStream(73), d, m, n)
        os._exit(0 if np.array_equal(got, want) else 1)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
