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

An estimate that reads psi only through <psi|v_j> for the columns of a
(d, r) matrix V needs less: with Q an orthonormal basis of span{phi, V}
whose first column is phi, those overlaps depend only on the coordinates of
psi along Q and on the norm of the rest, whose square is half a
Gamma(d - w) variate for w = Q.shape[1].  sample_reduced_posterior_states
draws that (w+1)-vector at O(r) cost per outcome, with the same law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import is_hermitian

PURITY_TOL = 1e-8


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


def pure_state_vector(rho: np.ndarray) -> np.ndarray:
    """The unit vector of a pure density matrix; anything else is a ValueError.

    rho must be square, finite, Hermitian, of unit trace and idempotent, each
    to PURITY_TOL; the negated comparisons reject NaN.  The zero matrix fails
    the trace test.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(rho, PURITY_TOL):
        raise ValueError("density matrix must be Hermitian")
    if not abs(np.trace(rho) - 1.0) <= PURITY_TOL:
        raise ValueError("density matrix must have trace 1")
    if not np.abs(rho @ rho - rho).max() <= PURITY_TOL:
        raise ValueError("mixed states are not supported; input must be pure")
    return np.linalg.eigh(rho)[1][:, -1]


def as_state_vector(state: np.ndarray) -> np.ndarray:
    """Accept a state vector or a pure density matrix; reject mixed states.

    A state vector is normalized; a zero or non-finite one raises ValueError,
    since normalizing it would yield NaN.  A matrix goes to pure_state_vector.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        return pure_state_vector(state)
    norm = np.linalg.norm(state)
    if not 0 < norm < np.inf:  # zero, NaN, or an entry too large to square
        raise ValueError(f"state vector norm {norm} cannot be normalized")
    return state / norm


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
    d = phi.shape[0]
    a = _phi_amplitudes(d, s, rng, size)
    g = rng.gen.standard_normal((size, 2 * d)).view(complex)
    # psi = g + (a - <phi|g>) phi: the phi component of g is replaced by a,
    # and the rest h = g - <phi|g> phi stays, so |h|^2 / 2 ~ Gamma(d-1)
    g += (a - g @ phi.conj())[:, None] * phi
    return _normalize_rows(g)


def sample_reduced_posterior_states(
    phi: np.ndarray, vecs: np.ndarray, s: int, rng: RngStream, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """size outcomes of the joint measurement on phi^(x s), reduced to what
    their overlaps with the columns of vecs (d, r) depend on.

    Returns (records, frame): records is (size, w+1) with w = min(d, r+1),
    unit rows, and frame is (w+1, r), so that records @ frame.conj() has the
    law of sample_posterior_states(phi, s, ...) @ vecs.conj().  With Q the
    (d, w) orthonormal basis of span{phi, vecs} whose first column is phi, a
    record is the normalised (a, x, sqrt(2 R)): a = e^(i theta) sqrt(2 G) as
    in sample_posterior_states, x a (w-1,) complex Gaussian for the other
    columns of Q, and R ~ Gamma(d - w) for the squared norm of the rest
    (0 when w = d); frame is Q^H vecs over a zero row.  phi is validated and
    normalised by as_state_vector.
    """
    phi = as_state_vector(phi)
    vecs = np.asarray(vecs, dtype=complex)
    d = phi.shape[0]
    if vecs.ndim != 2 or vecs.shape[0] != d:
        raise ValueError(f"vecs must have shape ({d}, r), got {vecs.shape}")
    a = _phi_amplitudes(d, s, rng, size)
    # the first column of any QR factor of [phi, vecs] is phi up to a phase
    q = np.linalg.qr(np.column_stack([phi, vecs]))[0]
    q[:, 0] = phi
    w = q.shape[1]
    records = np.empty((size, w + 1), dtype=complex)
    records[:, 0] = a
    records[:, 1:w] = rng.gen.standard_normal((size, 2 * (w - 1))).view(complex)
    records[:, w] = np.sqrt(2 * rng.gen.gamma(d - w, size=size)) if w < d else 0.0
    frame = np.vstack([q.conj().T @ vecs, np.zeros((1, vecs.shape[1]))])
    return _normalize_rows(records), frame


def _phi_amplitudes(d: int, s: int, rng: RngStream, size: int) -> np.ndarray:
    """e^(i theta) sqrt(2 G) with G ~ Gamma(s+1), theta ~ U[0, 2 pi): the
    unnormalised phi coordinate of each outcome in C^d; shape (size,)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")
    big_g = rng.gen.gamma(s + 1, size=size)
    theta = rng.gen.uniform(0.0, 2 * np.pi, size=size)
    return np.exp(1j * theta) * np.sqrt(2 * big_g)


def _normalize_rows(z: np.ndarray) -> np.ndarray:
    """Divide each row of the complex array z by its norm, in place."""
    flat = z.view(float)
    z /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    return z
