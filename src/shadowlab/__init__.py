"""Simulation and validation toolkit for pure-state classical shadows.

The classical record of a batch of measurements is the (n, d) outcome array
from measurement.measure_joint_batch or measure_independent_batch;
batch_estimates maps it and an Observable to the per-batch estimates.  The
linear estimate reads an outcome only through its overlaps with O's
eigenvectors, so im samples it from ensembles.sample_reduced_posterior_states,
a (w+1)-dimensional record per outcome with the same law, w = min(d, r+1).
The quadratic estimate needs every coordinate, so im samples it from
ensembles.sample_aligned_posterior_states, in a basis whose first vector is
the state, one block of batches at a time.
affine_shadow and median_estimate are the dense d x d form of the affine
joint estimator, kept for the Boolean Hidden Matching protocol; a shadow
there is a plain ndarray.

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
    affine_shadow,
    batch_estimates,
    choose_estimator,
    median_estimate,
    plan_batches,
)
from .observables import Observable, distinguishing_observable, random_observable

__all__ = [
    "BatchPlan",
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
