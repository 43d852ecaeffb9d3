"""Reference implementations that the tests compare the library against.

The outcome sampler below is the two-Gamma, complement-resampling sampler
that shadowlab.ensembles.sample_posterior_states replaced.  It draws the
same law through a different construction, so two-sample tests between the
two check the one-draw sampler without sharing its code.
"""

from __future__ import annotations

import numpy as np

from shadowlab.ensembles import RngStream, sample_haar_state


def _sample_overlaps(s: int, d: int, rng: RngStream, n: int):
    """Vectorized (t, theta) arrays for the outcome overlap law."""
    # t = G1/(G1+G2) with G1 ~ Gamma(s+1), G2 ~ Gamma(d-1) is an exact
    # (non-rejection) Beta(s+1, d-1) sampler for any s, d.
    g1 = rng.gen.gamma(s + 1, size=n)
    g2 = rng.gen.gamma(d - 1, size=n)
    t = g1 / (g1 + g2)
    theta = rng.gen.uniform(0.0, 2 * np.pi, size=n)
    return t, theta


def _orthogonal_complement_states(phi: np.ndarray, rng: RngStream, n: int) -> np.ndarray:
    """Haar-random unit vectors orthogonal to phi; shape (n, d)."""
    d = phi.shape[0]
    if d < 2:
        raise ValueError("orthogonal complement is empty for d < 2")
    out = np.empty((n, d), dtype=complex)
    todo = np.arange(n)
    while todo.size:
        raw = sample_haar_state(d, rng, size=todo.size)
        raw -= np.outer(raw @ phi.conj(), phi)
        norms = np.linalg.norm(raw, axis=1)
        ok = norms > 1e-12
        out[todo[ok]] = raw[ok] / norms[ok, None]
        todo = todo[~ok]  # measure-zero event; resample
    return out


def sample_posterior_states(phi: np.ndarray, s: int, rng: RngStream, size: int) -> np.ndarray:
    """size outcomes of the joint measurement on phi^(x s); shape (size, d)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    d = phi.shape[0]
    t, theta = _sample_overlaps(s, d, rng, size)
    chi = _orthogonal_complement_states(phi, rng, size)
    amp = np.exp(1j * theta) * np.sqrt(t)
    return amp[:, None] * phi[None, :] + np.sqrt(1 - t)[:, None] * chi
