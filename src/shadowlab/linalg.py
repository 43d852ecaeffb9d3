"""Dense complex linear algebra on small Hilbert spaces.

Permutation operators on tensor powers, symmetric-subspace projectors and
state-distance functionals.  Everything that builds an explicit operator on
(C^d)^s is a brute-force oracle and is capped by DIM_BUDGET, past which it
is a ValueError; protocol-scale code works in dimension d only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Hard cap on d**s for explicitly materialized tensor-power operators.
DIM_BUDGET = 10_000

HERMITICITY_TOL = 1e-9


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., size-1}; images[i] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a bijection on range({n}): {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        return Permutation(tuple(self.images[j] for j in other.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle starting at its smallest element."""
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def same_cycle(self, a: int, b: int) -> bool:
        j = self.images[a]
        while j != a:
            if j == b:
                return True
            j = self.images[j]
        return a == b

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        images = list(range(n))
        images[a], images[b] = images[b], images[a]
        return cls(tuple(images))


def all_permutations(n: int) -> Iterator[Permutation]:
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


def kappa(s: int, d: int) -> int:
    """Dimension of the symmetric subspace of s qudits: binom(s+d-1, d-1)."""
    return math.comb(s + d - 1, d - 1)


def _check_budget(d: int, s: int) -> int:
    dim = d**s
    if dim > DIM_BUDGET:
        raise ValueError(f"d^s = {d}^{s} = {dim} exceeds budget {DIM_BUDGET}")
    return dim


def perm_operator(pi: Permutation, d: int) -> np.ndarray:
    """0/1 matrix sending basis state |x_0 ... x_{s-1}> to |x_{pi^-1(0)} ...>."""
    if d < 2:
        raise ValueError("d must be >= 2")
    s = pi.size
    dim = _check_budget(d, s)
    # digit i of column x moves to digit pi(i) of its row
    rows = np.arange(dim).reshape((d,) * s).transpose(pi.images).ravel()
    W = np.zeros((dim, dim), dtype=complex)
    W[rows, np.arange(dim)] = 1.0
    return W


def sym_projector(s: int, d: int) -> np.ndarray:
    """Projector onto the permutation-invariant subspace of (C^d)^s."""
    dim = _check_budget(d, s)
    P = np.zeros((dim, dim), dtype=complex)
    for pi in all_permutations(s):
        P += perm_operator(pi, d)
    P /= math.factorial(s)
    return hermitize(P)


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize (M + M^dag)/2 to stop Hermiticity drift after arithmetic."""
    return (M + M.conj().T) / 2


def is_hermitian(M: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    scale = max(np.abs(M).max(), 1.0)
    return np.abs(M - M.conj().T).max() <= tol * scale


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma."""
    if not is_hermitian(rho) or not is_hermitian(sigma):
        raise ValueError("trace_distance requires Hermitian inputs")
    evals = np.linalg.eigvalsh(hermitize(rho - sigma))
    return float(np.abs(evals).sum() / 2)


def density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a state vector."""
    return np.outer(psi, psi.conj())
