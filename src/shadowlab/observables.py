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

from .ensembles import RngStream
from .linalg import hermitize

EIGENVALUE_CUTOFF = 1e-10
SPECTRAL_TOL = 1e-9


@dataclass(frozen=True)
class Observable:
    """Hermitian O = V diag(evals) V^H with ||O|| = 1 and Tr(O^2) <= b_budget.

    vecs is (d, r) with orthonormal columns and evals is (r,) and real, so
    evals are eigenvalues of O and the checks below are the eigenvalue
    checks, at O(d r^2) cost.  Eigenvalues of O outside the factor are 0.
    """

    vecs: np.ndarray
    evals: np.ndarray
    b_budget: float

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
        if not (evals**2).sum() <= self.b_budget + SPECTRAL_TOL:
            raise ValueError("Tr(O^2) exceeds budget")
        object.__setattr__(self, "vecs", vecs)
        object.__setattr__(self, "evals", evals)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense d x d matrix, formed on first use."""
        return hermitize((self.vecs * self.evals) @ self.vecs.conj().T)


def _haar_frame(d: int, r: int, rng: RngStream) -> np.ndarray:
    """Orthonormal (d, r) basis of a Haar-random r-dimensional subspace."""
    z = rng.gen.standard_normal((d, r)) + 1j * rng.gen.standard_normal((d, r))
    return np.linalg.qr(z)[0]


def random_projector_observable(d: int, r: int, rng: RngStream) -> Observable:
    """Rank-r projector onto a Haar-random r-dimensional subspace.

    Eigenvalues are exactly 0/1, so ||O|| = 1 and Tr(O^2) = r.
    """
    if not 1 <= r <= d:
        raise ValueError(f"rank r={r} out of range [1, {d}]")
    return Observable(vecs=_haar_frame(d, r, rng), evals=np.ones(r), b_budget=float(r))


def random_observable(d: int, B: float, rng: RngStream) -> Observable:
    """Random member of the budget-B class: a rank-floor(B) projector."""
    return random_projector_observable(d, max(1, min(d, math.floor(B))), rng)


def random_signature_observable(d: int, B: float, rng: RngStream) -> Observable:
    """Haar-random O with eigenvalues +1/-1 split over floor(B) dimensions.

    Tr(O^2) = floor(B) exactly and Tr(O) ∈ {0, 1}, so for even B this is a
    traceless budget-saturating observable — the worst case for the variance
    of the plain linear estimator, unlike projectors whose traceless part
    can be tiny.
    """
    r = max(1, min(d, math.floor(B)))
    evals = np.where(np.arange(r) % 2 == 0, 1.0, -1.0)
    return Observable(vecs=_haar_frame(d, r, rng), evals=evals, b_budget=float(r))


def distinguishing_observable(
    rho: np.ndarray, sigma: np.ndarray, pick_low_rank: bool = False
) -> tuple[Observable, float]:
    """Optimal 0 <= O <= I separating rho from sigma, and its gap.

    Returns the positive or negative eigenprojector of rho - sigma; the gap
    Tr(O (rho - sigma)) equals half the trace norm of rho - sigma for both
    choices.  With pick_low_rank, the projector of smaller rank is returned
    (ties go to the positive one, for determinism).
    """
    diff = hermitize(rho - sigma)
    evals, evecs = np.linalg.eigh(diff)
    if np.abs(evals).max() <= EIGENVALUE_CUTOFF:
        raise ValueError("states are equal; no distinguishing observable")
    pos = evals > EIGENVALUE_CUTOFF
    neg = evals < -EIGENVALUE_CUTOFF
    gap = float(evals[pos].sum())  # = half the trace norm of the difference
    use_neg = pick_low_rank and neg.sum() < pos.sum()
    keep = neg if use_neg else pos
    if not keep.any():
        keep = pos if use_neg else neg
    rank = int(keep.sum())
    return Observable(vecs=evecs[:, keep], evals=np.ones(rank), b_budget=float(rank)), gap


def helstrom_success(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Success probability 1/2 + ||rho - sigma||_1 / 4 of the optimal discriminator."""
    evals = np.linalg.eigvalsh(hermitize(rho - sigma))
    return float(0.5 + np.abs(evals).sum() / 4)
