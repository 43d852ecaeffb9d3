#!/usr/bin/env python
"""Median-of-means estimate of Tr(O rho) from recorded measurement outcomes.

    python scripts/estimate_from_outcomes.py OUTCOMES.npy OBSERVABLE.npy \\
        [--kind linear|quadratic] [--copies C]

OUTCOMES.npy holds a complex (k, n, d) array: k batches of n unit outcome
vectors, each of one joint measurement on C copies of rho (the default,
C = 1, is one copy each).  OBSERVABLE.npy holds a Hermitian (d, d) matrix
of operator norm 1.  The per-batch estimates are shadowlab.batch_estimates
of the chosen estimator, and the script prints their median, the middle
one of an odd k.  Bad input is an error line on stderr and exit status 2.
"""

import argparse
import sys

import numpy as np

from shadowlab import Observable, batch_estimates
from shadowlab.linalg import is_hermitian
from shadowlab.observables import EIGENVALUE_CUTOFF


def observable(matrix: np.ndarray) -> Observable:
    """The Observable of a Hermitian matrix, from its nonzero eigenpairs."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"the observable must be a (d, d) matrix, got shape {matrix.shape}")
    if not is_hermitian(matrix):
        raise ValueError("the observable must be Hermitian")
    evals, vecs = np.linalg.eigh(matrix)
    keep = np.abs(evals) > EIGENVALUE_CUTOFF
    return Observable(vecs[:, keep], evals[keep])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outcomes")
    parser.add_argument("observable")
    parser.add_argument("--kind", choices=("linear", "quadratic"), default="linear")
    parser.add_argument("--copies", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        O = observable(np.load(args.observable))
        vals = batch_estimates(O, np.load(args.outcomes), args.kind, args.copies)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"median of {len(vals)} batch estimates: {np.sort(vals)[len(vals) // 2]:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
