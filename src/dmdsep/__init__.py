"""dmdsep: time-series blind source separation with dynamic-mode estimators.

A multivariate series whose channels are fixed linear mixtures of latent
signals can be unmixed by eigendecomposing the least-squares propagator
between time-shifted snapshot matrices, provided the latent signals have
distinct autocorrelations at the chosen lag.  This package implements
that estimator family (plain, higher-lag, and truncated-SVD fill-in for
missing data), a mean-aware factorization for raw data, AMUSE and PCA
baselines, alignment-aware error metrics, and a reproducible simulation
harness.
"""

from . import baselines, dmd, experiments, lagstats, linalg, metrics, plots, signals

__version__ = "0.1.0"

__all__ = [
    "baselines", "dmd", "experiments", "lagstats", "linalg", "metrics", "plots", "signals",
]
