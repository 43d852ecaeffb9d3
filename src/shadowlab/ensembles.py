"""Seeded sampling of Haar states and of the joint-measurement outcome law.

The outcome of the symmetric joint measurement on s copies of a pure state
phi is a state psi whose density w.r.t. Haar is proportional to
|<psi|phi>|^(2s).  Writing psi = e^(i theta) sqrt(t) phi + sqrt(1-t) chi
with chi in the orthogonal complement, the squared overlap t follows a
Beta(s+1, d-1) law, theta is uniform, and chi is Haar in the complement.
One draw gives all three.  Take a complex Gaussian vector g with N(0, 1)
real and imaginary parts and split it into its phi coordinate c and the
rest h.  |c|^2/2 ~ Gamma(1) with a uniform phase, and |h|^2/2 ~ Gamma(d-1)
independently of h's direction.  Lift c to the real modulus a with
a^2/2 = |c|^2/2 + Gamma(s) ~ Gamma(s+1): the normalised a phi + h then has
t = (a^2/2)/(a^2/2 + |h|^2/2), which is Beta(s+1, d-1) exactly.  c's phase
is dropped: an outcome is read only through |psi><psi|, and h's uniform
phase keeps the relative phases uniform.  There is no rejection step, and
the cost is O(d) per outcome independent of s.

sample_aligned_posterior_states draws psi in coordinates whose first basis
vector is phi, straight into the caller's array and independently of phi.
One rule maps them to C^d: reflect applies the Householder reflection H,
Hermitian and unitary with first column phi up to a phase, at O(d) per
vector.  sample_posterior_states reflects the records themselves; a caller
that reads them only through a few vectors reflects those instead
(aligned_frame, moments.mc_covariances).  Overlaps <psi|v_j> with the r
columns of V need only m = min(d, r + 2) coordinates, drawn at O(r) cost
per outcome: the phi one, r along a basis of the column span of H V without
its first row, and, below d, the rest's norm, lifted as c is to Gamma(d-m+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import is_hermitian

PURITY_TOL = 1e-8

# Largest | ||psi|| - 1 | of an outcome state, and | |phi|^2 - 1 | of a sampled one.
UNIT_NORM_TOL = 1e-10

# Largest outcome array, in bytes, that any caller samples at once.
MAX_OUTCOME_BYTES = 2**30

# Outcome rows drawn and reduced per step where a caller streams blocks.
BLOCK_ROWS = 2**12


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


def require_pure_state(rho: np.ndarray) -> np.ndarray:
    """rho as a complex array if it is a pure density matrix, else a ValueError.

    rho must be square, finite, Hermitian, of unit trace and idempotent, each
    to PURITY_TOL; the negated comparisons reject NaN.  The zero matrix fails
    the trace test.  No eigendecomposition is taken.
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
    return rho


def pure_state_vector(rho: np.ndarray) -> np.ndarray:
    """The unit vector of a pure density matrix, after require_pure_state."""
    return np.linalg.eigh(require_pure_state(rho))[1][:, -1]


def as_state_vector(state: np.ndarray) -> np.ndarray:
    """The state vector normalized; anything but a finite nonzero vector
    (a matrix, a zero or a non-finite vector) raises ValueError."""
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError(f"expected a state vector, got shape {state.shape}")
    norm = np.linalg.norm(state)
    if not 0 < norm < np.inf:  # zero, NaN, or an entry too large to square
        raise ValueError(f"state vector norm {norm} cannot be normalized")
    return state / norm


def sample_haar_state(d: int, rng: RngStream) -> np.ndarray:
    """A Haar-random unit vector in C^d.

    Normalizing i.i.d. standard complex Gaussians is exactly unitary
    invariant.  The draw is one (1, d) row normalised along its axis, which
    fixes both the stream it consumes and the rounding of its norm.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    require_outcome_budget(16 * d, f"a Haar state in d = {d} would", "use a smaller d")
    z = rng.gen.standard_normal((1, d)) + 1j * rng.gen.standard_normal((1, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z[0]


def sample_posterior_states(phi: np.ndarray, s: int, rng: RngStream, size: int) -> np.ndarray:
    """size outcomes of the joint measurement on phi^(x s); shape (size, d).

    The aligned draw at full width, reflected in place: the same generator
    calls in the same order.  phi must be a unit vector, to UNIT_NORM_TOL.
    """
    if phi.ndim != 1 or not abs(np.vdot(phi, phi).real - 1.0) <= UNIT_NORM_TOL:
        raise ValueError("phi must be a unit vector")
    d = phi.shape[0]
    return reflect(phi, sample_aligned_posterior_states(s, rng, np.empty((size, d), complex), d))


def reflect(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row r of the complex (n, d) array x, or the vector x, replaced in
    place by H r; returns x.  O(d n); columns of M reflect as rows of M.T.

    H = I - 2 u u^H / |u|^2 = I - w w^H, u = phi + e^(i arg phi_0) e_0 and
    w = u / sqrt(1 + |phi_0|), for the unit vector phi: Hermitian, unitary,
    and H e_0 = -e^(-i arg phi_0) phi.  A phi_0 of 0 takes the phase 1.
    """
    p0 = complex(phi[0])
    a = abs(p0)
    w = np.multiply(phi, 1 / math.sqrt(1 + a), dtype=complex)
    w[0] += (p0 / a if a else 1.0) / math.sqrt(1 + a)
    x -= np.multiply.outer(x @ w.conj(), w)
    return x


def sample_aligned_posterior_states(s: int, rng: RngStream, out: np.ndarray, d: int) -> np.ndarray:
    """Fill out, a C-contiguous complex (n, m) array with 2 <= m <= d, with
    n outcomes of the joint measurement on phi^(x s) in C^d, as coordinates
    in a basis whose first vector is phi; returns out.

    Row i is a standard complex Gaussian drawn in place, then normalised on
    the float view (a real divisor).  Before that its first coordinate is
    lifted by k = s, to the phi amplitude.  At m = d its outcome is H row
    (reflect); below d the first m - 1 coordinates are those aligned_frame
    reads, and the last is lifted by k = d - m, to the norm of the rest.
    There is no (n, m) temporary.
    """
    if out.ndim != 2 or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous complex (n, m) array")
    _check_outcome_law(d, s)
    m = out.shape[1]
    if not 2 <= m <= d:
        raise ValueError(f"records must be 2 to d = {d} wide, not {m}")
    flat = out.view(float)
    rng.gen.standard_normal(out=flat)
    _lift(out[:, 0], s, rng)
    if m < d:
        _lift(out[:, -1], d - m, rng)
    flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    return out


def aligned_frame(phi: np.ndarray, vecs: np.ndarray, full: bool = False) -> np.ndarray:
    """The (m, r) frame with which records of sample_aligned_posterior_states
    give the overlaps with the columns of vecs (d, r): records @ frame.conj()
    has the law of sample_posterior_states(phi, ...) @ vecs.conj().

    The full frame (m = d) is H vecs, for H of reflect.  Otherwise m =
    min(d, r + 2): the rows of H vecs after the first become the R factor of
    their QR, over a zero row for the rest coordinate if m has room.  phi is
    validated and normalised by as_state_vector.
    """
    phi = as_state_vector(phi)
    vecs = np.array(vecs, dtype=complex, order="F")  # a copy, its columns the rows of vecs.T
    d = phi.shape[0]
    if vecs.ndim != 2 or vecs.shape[0] != d:
        raise ValueError(f"vecs must have shape ({d}, r), got {vecs.shape}")
    _check_outcome_law(d, 0)
    frame = reflect(phi, vecs.T).T
    if full:
        return frame
    frame = np.vstack([frame[:1], np.linalg.qr(frame[1:], mode="r")])
    m = min(d, vecs.shape[1] + 2)
    return np.vstack([frame, np.zeros((m - frame.shape[0], vecs.shape[1]))])


def require_outcome_budget(nbytes: int, what: str, remedy: str) -> None:
    """ValueError, with the size, unless nbytes fits in MAX_OUTCOME_BYTES."""
    if nbytes > MAX_OUTCOME_BYTES:
        raise ValueError(
            f"{what} need {nbytes / 2**20:.0f} MiB, over the "
            f"{MAX_OUTCOME_BYTES / 2**20:.0f} MiB limit; {remedy}"
        )


def _check_outcome_law(d: int, s: int) -> None:
    if s < 0:
        raise ValueError("s must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")


def _lift(c: np.ndarray, k: int, rng: RngStream) -> None:
    """Each standard complex Gaussian of c, in place, becomes the real modulus
    sqrt(|c|^2 + 2 Gamma(k)), half whose square is Gamma(k + 1); k = 0 draws
    no Gamma."""
    m2 = c.real**2 + c.imag**2
    if k:
        m2 += 2 * rng.gen.gamma(k, size=m2.shape)
    c[:] = np.sqrt(m2)
