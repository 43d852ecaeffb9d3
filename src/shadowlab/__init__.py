"""Simulation and validation toolkit for pure-state classical shadows.

Submodules:
  linalg       permutation operators, symmetric projectors, partial traces
  ensembles    seeded Haar sampling and the joint-measurement outcome law
  measurement  joint and single-copy measurement primitives
  estimators   outcome-array estimator kernel, dense reference shadows, batch planning
  observables  bounded-norm observables and optimal state discrimination
  moments      closed-form moments/covariances with brute-force oracles
  bhm          Boolean Hidden Matching instances and the one-way protocol
  cli          experiment sweeps, verification suites, CSV reporting
"""

from .ensembles import RngStream, sample_haar_state, sample_posterior_state
from .estimators import (
    BatchPlan,
    Shadow,
    affine_shadow,
    batch_estimates,
    choose_estimator,
    median_estimate,
    plan_batches,
    quadratic_shadow,
    single_copy_shadow,
)
from .measurement import JointOutcome, measure_independent, measure_joint
from .observables import Observable, distinguishing_observable, random_observable

__all__ = [
    "BatchPlan",
    "JointOutcome",
    "Observable",
    "RngStream",
    "Shadow",
    "affine_shadow",
    "batch_estimates",
    "choose_estimator",
    "distinguishing_observable",
    "measure_independent",
    "measure_joint",
    "median_estimate",
    "plan_batches",
    "quadratic_shadow",
    "random_observable",
    "sample_haar_state",
    "sample_posterior_state",
    "single_copy_shadow",
]

__version__ = "0.1.0"
