"""Seeded sampling of Haar states and of the joint-measurement outcome law.

The outcome of the symmetric joint measurement on s copies of a pure state
phi is a state psi whose density w.r.t. Haar is proportional to
|<psi|phi>|^(2s).  Decomposing psi = e^(i theta) sqrt(t) phi + sqrt(1-t) chi
with chi Haar in the orthogonal complement, the squared overlap t follows a
Beta(s+1, d-1) law, theta is uniform, and chi is unreweighted.  We sample
that decomposition directly, so cost is O(d) per outcome independent of s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RngStream:
    """One reproducible random stream per Monte Carlo trial.

    Identical (seed, stream_id) pairs reproduce identical sample sequences.
    A stream must not be shared across threads; spawn one per trial.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class OverlapSample:
    """Squared overlap t = |<psi|phi>|^2 and relative phase theta."""

    t: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"overlap t={self.t} outside [0, 1]")


def sample_haar_state(d: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Haar-random unit vectors in C^d; shape (d,) or (size, d).

    Normalizing i.i.d. standard complex Gaussians is exactly unitary
    invariant.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    n = 1 if size is None else size
    z = rng.gen.standard_normal((n, d)) + 1j * rng.gen.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z[0] if size is None else z


def _sample_overlaps(s: int, d: int, rng: RngStream, n: int):
    """Vectorized (t, theta) arrays for the outcome overlap law."""
    # t = G1/(G1+G2) with G1 ~ Gamma(s+1), G2 ~ Gamma(d-1) is an exact
    # (non-rejection) Beta(s+1, d-1) sampler for any s, d.
    g1 = rng.gen.gamma(s + 1, size=n)
    g2 = rng.gen.gamma(d - 1, size=n)
    t = g1 / (g1 + g2)
    theta = rng.gen.uniform(0.0, 2 * np.pi, size=n)
    return t, theta


def sample_posterior_overlap(s: int, d: int, rng: RngStream) -> OverlapSample:
    """Draw the squared overlap between measurement outcome and true state.

    t has density proportional to t^s (1-t)^(d-2) on [0, 1], with mean
    (s+1)/(s+d); theta is uniform on [0, 2*pi).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")
    t, theta = _sample_overlaps(s, d, rng, 1)
    return OverlapSample(float(t[0]), float(theta[0]))


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


def sample_posterior_state(phi: np.ndarray, s: int, rng: RngStream) -> np.ndarray:
    """One outcome of the joint measurement on phi^(x s)."""
    return sample_posterior_states(phi, s, rng, 1)[0]
