"""Seeded sampling of Haar states and of the joint-measurement outcome law.

The outcome of the symmetric joint measurement on s copies of a pure state
phi is a state psi whose density w.r.t. Haar is proportional to
|<psi|phi>|^(2s).  Writing psi = e^(i theta) sqrt(t) phi + sqrt(1-t) chi
with chi in the orthogonal complement, the squared overlap t follows a
Beta(s+1, d-1) law, theta is uniform, and chi is Haar in the complement.
One draw gives all three: G ~ Gamma(s+1), theta uniform and one complex
Gaussian vector g with N(0, 1) real and imaginary parts; psi is the
normalised e^(i theta) sqrt(2G) phi + h, where h is g with its phi
component removed.  |h|^2/2 ~ Gamma(d-1) independently of h's direction,
so t = G/(G + |h|^2/2) is Beta(s+1, d-1) exactly.  There is no rejection
step, and the cost is O(d) per outcome independent of s.
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


def sample_posterior_states(phi: np.ndarray, s: int, rng: RngStream, size: int) -> np.ndarray:
    """size outcomes of the joint measurement on phi^(x s); shape (size, d).

    phi must be a unit vector.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    d = phi.shape[0]
    if d < 2:
        raise ValueError("d must be >= 2")
    big_g = rng.gen.gamma(s + 1, size=size)
    theta = rng.gen.uniform(0.0, 2 * np.pi, size=size)
    g = rng.gen.standard_normal((size, 2 * d)).view(complex)
    # psi = g + (a - <phi|g>) phi with a = e^(i theta) sqrt(2 G): the phi
    # component of g is replaced by a, and the rest h = g - <phi|g> phi
    # stays, so |h|^2 / 2 ~ Gamma(d-1)
    g += (np.exp(1j * theta) * np.sqrt(2 * big_g) - g @ phi.conj())[:, None] * phi
    flat = g.view(float)
    g /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    return g
