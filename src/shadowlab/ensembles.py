"""Seeded sampling of Haar states and of the joint-measurement outcome law.

The outcome of the symmetric joint measurement on s copies of a pure state
phi is a state psi whose density w.r.t. Haar is proportional to
|<psi|phi>|^(2s).  Writing psi = e^(i theta) sqrt(t) phi + sqrt(1-t) chi
with chi in the orthogonal complement, the squared overlap t follows a
Beta(s+1, d-1) law, theta is uniform, and chi is Haar in the complement.
One draw gives all three.  Take a complex Gaussian vector g with N(0, 1)
real and imaginary parts and split it into its phi coordinate c and the
rest h.  |c|^2/2 ~ Gamma(1) with a uniform phase, and |h|^2/2 ~ Gamma(d-1)
independently of h's direction.  Rescale c's modulus to a with
|a|^2/2 = |c|^2/2 + Gamma(s), which is Gamma(s+1), and keep its phase: the
normalised a phi + h then has t = (|a|^2/2)/(|a|^2/2 + |h|^2/2), which is
Beta(s+1, d-1) exactly.  There is no rejection step, and the cost is O(d)
per outcome independent of s.  Every sampler below applies this one rule
to the phi coordinate of its own Gaussian draw.

The draw is simplest in a basis whose first vector is phi (phi_basis):
sample_aligned_posterior_states writes those coordinates straight into the
caller's array.  An estimate that reads psi only through <psi|v_j> for the
columns of a (d, r) matrix V needs fewer: with Q an orthonormal basis of
span{phi, V} whose first column is phi, those overlaps depend only on the
coordinates of psi along Q and on the norm of the rest, whose square is
half a Gamma(d - w) variate for w = Q.shape[1].  The same sampler then
fills m = min(d, w + 1) columns at O(r) cost per outcome: below d the last
one is that norm, and at d the draw is the full one.  aligned_frame gives
the (m, r) frame the records are read with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import is_hermitian

PURITY_TOL = 1e-8

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
    _check_outcome_law(d, s)
    g = rng.gen.standard_normal((size, 2 * d)).view(complex)
    c = g @ phi.conj()
    a = _rescale_phi_coordinates(c.copy(), s, rng)
    # psi = g + (a - c) phi: the phi component c of g becomes a, and the
    # rest h = g - c phi stays, so |h|^2 / 2 ~ Gamma(d-1)
    g += (a - c)[:, None] * phi
    return _normalize_rows(g)


def phi_basis(phi: np.ndarray, vecs: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of span{phi, vecs} whose first column is the unit
    vector phi: (d, min(d, r+1)) for vecs (d, r); vecs None gives a d x d
    unitary."""
    d = phi.shape[0]
    vecs = np.eye(d) if vecs is None else vecs
    # the first column of any QR factor of [phi, vecs] is phi up to a phase
    q = np.linalg.qr(np.column_stack([phi, vecs]))[0]
    q[:, 0] = phi
    return q


def sample_aligned_posterior_states(s: int, rng: RngStream, out: np.ndarray, d: int) -> np.ndarray:
    """Fill out, a C-contiguous complex (n, m) array with 2 <= m <= d, with
    n outcomes of the joint measurement on phi^(x s) in C^d, as coordinates
    in a basis whose first vector is phi; returns out.

    Row i is a standard complex Gaussian drawn in place, its first
    coordinate rescaled by the phi-amplitude rule, then normalised.  With
    m = d it is Q^H psi_i for a unitary Q such as phi_basis(phi).  With
    m < d the first m - 1 coordinates are those along the columns of a
    (d, m - 1) Q such as phi_basis(phi, V), and the last is the norm of
    the rest of C^d, sqrt(2 Gamma(d - m + 1)) before the normalisation.
    There is no (n, m) temporary, and the draws do not depend on phi, so
    callers rotate O (or its factor) by Q once instead.
    """
    if out.ndim != 2 or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous complex (n, m) array")
    _check_outcome_law(d, s)
    m = out.shape[1]
    if not 2 <= m <= d:
        raise ValueError(f"records must be 2 to d = {d} wide, not {m}")
    rng.gen.standard_normal(out=out.view(float))
    _rescale_phi_coordinates(out[:, 0], s, rng)
    if m < d:
        out[:, -1] = np.sqrt(2 * rng.gen.gamma(d - m + 1, size=out.shape[0]))
    return _normalize_rows(out)


def aligned_frame(phi: np.ndarray, vecs: np.ndarray, full: bool = False) -> np.ndarray:
    """The (m, r) frame with which records of sample_aligned_posterior_states
    give the overlaps with the columns of vecs (d, r): records @ frame.conj()
    has the law of sample_posterior_states(phi, ...) @ vecs.conj().

    With Q = phi_basis(phi, vecs), or the unitary phi_basis(phi) when full,
    m = min(d, Q.shape[1] + 1) and the frame is Q^H vecs over m - Q.shape[1]
    zero rows: the rest coordinate, if any, has no overlap with vecs.  Full
    records (m = d) also carry the overlaps between outcomes.  phi is
    validated and normalised by as_state_vector.
    """
    phi = as_state_vector(phi)
    vecs = np.asarray(vecs, dtype=complex)
    d = phi.shape[0]
    if vecs.ndim != 2 or vecs.shape[0] != d:
        raise ValueError(f"vecs must have shape ({d}, r), got {vecs.shape}")
    _check_outcome_law(d, 0)
    q = phi_basis(phi, None if full else vecs)
    m = min(d, q.shape[1] + 1)
    return np.vstack([q.conj().T @ vecs, np.zeros((m - q.shape[1], vecs.shape[1]))])


def require_outcome_budget(nbytes: int, what: str, remedy: str) -> None:
    """ValueError, with the size, unless nbytes fits in MAX_OUTCOME_BYTES."""
    if nbytes > MAX_OUTCOME_BYTES:
        raise ValueError(
            f"{what} need {nbytes / 2**20:.0f} MiB of outcomes, over the "
            f"{MAX_OUTCOME_BYTES / 2**20:.0f} MiB limit; {remedy}"
        )


def _check_outcome_law(d: int, s: int) -> None:
    if s < 0:
        raise ValueError("s must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")


def _rescale_phi_coordinates(c: np.ndarray, s: int, rng: RngStream) -> np.ndarray:
    """The phi-amplitude rule, in place on c and returned.

    c holds the standard complex Gaussian phi coordinates of the draws, so
    |c|^2/2 ~ Gamma(1) with a uniform phase.  Each modulus becomes |a| with
    |a|^2/2 = |c|^2/2 + Gamma(s) ~ Gamma(s+1), and the phase stays.  A c of
    exactly 0 (probability zero) gets phase 0 rather than a NaN.
    """
    if s == 0:
        return c
    m2 = c.real**2 + c.imag**2
    target = m2 + 2 * rng.gen.gamma(s, size=m2.shape)
    zero = m2 == 0
    c[zero], m2[zero] = 1.0, 1.0
    c *= np.sqrt(target / m2)
    return c


def _normalize_rows(z: np.ndarray) -> np.ndarray:
    """Divide each row of the complex array z by its norm, in place.

    The division runs on the float view: a real divisor, not a complex one.
    """
    flat = z.view(float)
    flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    return z
