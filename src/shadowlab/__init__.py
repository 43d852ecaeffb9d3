"""Simulation and validation toolkit for pure-state classical shadows.

The classical record of k batches is k n outcome states, n per batch, each
of a joint measurement on `copies` copies (jm: one of s copies; im: s of
one copy); a BatchReduction maps it and an Observable to the per-batch
linear or quadratic estimates, from runs of rows in any order, and
batch_estimates does so for a whole (k, n, m) record at once.  The sweeps
stream each trial's outcomes through
ensembles.stream_aligned_posterior_states, in a basis whose first vector is
the state, one buffer of a block of batches reused as a ring, each chunk
reduced on the core that drew it.  The single-copy
linear estimate reads an outcome only through its overlaps with O's
eigenvectors, so its records keep only min(d, r+2) coordinates with the
same law; the quadratic estimate and jm take all d.
affine_shadow and median_estimate are the dense d x d form of the joint
estimator, kept for the Boolean Hidden Matching protocol.

Submodules:
  linalg       permutation operators, symmetric projectors, state distances
  ensembles    seeded Haar sampling and the joint-measurement outcome law
  measurement  joint and single-copy measurements, as (n, d) outcome arrays
  estimators   outcome-array estimator kernel, dense affine shadows, batch planning
  observables  bounded-norm observables and optimal state discrimination
  moments      closed-form moments/covariances with brute-force oracles
  bhm          Boolean Hidden Matching instances and the one-way protocol
  cli          experiment sweeps, verification suites, CSV reporting
"""

from .ensembles import RngStream, sample_haar_state
from .estimators import (
    BatchPlan,
    BatchReduction,
    affine_shadow,
    batch_estimates,
    choose_estimator,
    median_estimate,
    plan_batches,
)
from .observables import Observable, distinguishing_observable, random_observable

__all__ = [
    "BatchPlan",
    "BatchReduction",
    "Observable",
    "RngStream",
    "affine_shadow",
    "batch_estimates",
    "choose_estimator",
    "distinguishing_observable",
    "median_estimate",
    "plan_batches",
    "random_observable",
    "sample_haar_state",
]

__version__ = "0.1.0"
