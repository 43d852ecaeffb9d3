"""Observables with unit operator norm and bounded squared Frobenius norm.

An Observable is stored as its spectral factor O = V diag(evals) V^H, the
form every constructor here already holds, so building one never
re-diagonalises a d x d matrix.  Random rank-r projectors saturate the norm
constraints exactly, and the eigenprojector construction gives the optimal
distinguishing observable between two states (gap equal to the trace
distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensembles import RngStream, require_outcome_budget
from .linalg import hermitize

EIGENVALUE_CUTOFF = 1e-10
SPECTRAL_TOL = 1e-9


@dataclass(frozen=True)
class Observable:
    """Hermitian O = V diag(evals) V^H with ||O|| = 1, so Tr(O^2) = sum(evals^2).

    vecs is (d, r) with orthonormal columns and evals is (r,) and real, so
    evals are eigenvalues of O and the checks below are the eigenvalue
    checks, at O(d r^2) cost.  Eigenvalues of O outside the factor are 0.
    """

    vecs: np.ndarray
    evals: np.ndarray

    def __post_init__(self):
        vecs, evals = np.asarray(self.vecs), np.asarray(self.evals)
        if vecs.ndim != 2 or evals.shape != (vecs.shape[1],) or evals.size == 0:
            raise ValueError("need vecs of shape (d, r) and evals of shape (r,), r >= 1")
        if np.iscomplexobj(evals):
            raise ValueError("eigenvalues must be real")
        # the negated comparisons also reject NaN
        if not np.abs(vecs.conj().T @ vecs - np.eye(evals.size)).max() <= SPECTRAL_TOL:
            raise ValueError("eigenvectors must be orthonormal")
        if not abs(np.abs(evals).max() - 1.0) <= SPECTRAL_TOL:
            raise ValueError("operator norm must equal 1")
        object.__setattr__(self, "vecs", vecs)
        object.__setattr__(self, "evals", evals)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense d x d matrix, formed on first use."""
        return hermitize((self.vecs * self.evals) @ self.vecs.conj().T)


def frame_rank(d: int, B: float) -> int:
    """floor(B) clipped to [1, d], the rank of the budget-B observables below,
    once their (d, rank) frame passes its size check; it draws nothing."""
    r = max(1, min(d, math.floor(B)))
    require_outcome_budget(16 * d * r, f"O's {r}-frame in d = {d} would", "use a smaller d or B")
    return r


def _haar_frame(d: int, r: int, rng: RngStream) -> np.ndarray:
    """Orthonormal (d, r) basis of a Haar-random r-dimensional subspace."""
    frame_rank(d, r)  # its size check before the draw; r is already in [1, d]
    z = rng.gen.standard_normal((d, r)) + 1j * rng.gen.standard_normal((d, r))
    return np.linalg.qr(z)[0]


def random_projector_observable(d: int, r: int, rng: RngStream) -> Observable:
    """Rank-r projector onto a Haar-random r-dimensional subspace.

    Eigenvalues are exactly 0/1, so ||O|| = 1 and Tr(O^2) = r.
    """
    if not 1 <= r <= d:
        raise ValueError(f"rank r={r} out of range [1, {d}]")
    return Observable(vecs=_haar_frame(d, r, rng), evals=np.ones(r))


def random_observable(d: int, B: float, rng: RngStream) -> Observable:
    """Random member of the budget-B class: a rank-floor(B) projector."""
    return random_projector_observable(d, frame_rank(d, B), rng)


def random_signature_observable(d: int, B: float, rng: RngStream) -> Observable:
    """Haar-random O with eigenvalues +1/-1 split over floor(B) dimensions.

    Tr(O^2) = floor(B) exactly and Tr(O) ∈ {0, 1}, so for even B this is a
    traceless budget-saturating observable — the worst case for the variance
    of the plain linear estimator, unlike projectors whose traceless part
    can be tiny.
    """
    r = frame_rank(d, B)
    evals = np.where(np.arange(r) % 2 == 0, 1.0, -1.0)
    return Observable(vecs=_haar_frame(d, r, rng), evals=evals)


def distinguishing_observable(rho: np.ndarray, sigma: np.ndarray) -> tuple[Observable, float]:
    """Optimal 0 <= O <= I separating rho from sigma, and its gap.

    Returns the positive eigenprojector of rho - sigma, or the negative one
    if there is no positive eigenvalue; the gap Tr(O (rho - sigma)) equals
    half the trace norm of rho - sigma.
    """
    diff = hermitize(rho - sigma)
    evals, evecs = np.linalg.eigh(diff)
    if np.abs(evals).max() <= EIGENVALUE_CUTOFF:
        raise ValueError("states are equal; no distinguishing observable")
    pos = evals > EIGENVALUE_CUTOFF
    neg = evals < -EIGENVALUE_CUTOFF
    gap = float(evals[pos].sum())  # = half the trace norm of the difference
    keep = pos if pos.any() else neg
    return Observable(vecs=evecs[:, keep], evals=np.ones(int(keep.sum()))), gap


def helstrom_success(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Success probability 1/2 + ||rho - sigma||_1 / 4 of the optimal discriminator."""
    evals = np.linalg.eigvalsh(hermitize(rho - sigma))
    return float(0.5 + np.abs(evals).sum() / 4)
