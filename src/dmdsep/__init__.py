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

from .baselines import UnmixResult, amuse, pca_unmix
from .dmd import (
    DmdResult,
    DmfResult,
    dmd_fit,
    dmd_fits,
    dmf,
    recover_signals,
    tsvd_dmd_fit,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    default_config,
    run_experiment,
)
from .lagstats import (
    LagCov,
    cosine_cross_theory,
    cosine_lag_theory,
    empirical_acf,
    lag_cov,
)
from .linalg import (
    ComplexEig,
    NumericalError,
    SvdResult,
    eig_nonsymmetric,
    eig_symmetric,
    pinv,
    svd,
)
from .metrics import Alignment, align_columns, eig_error, rate_fit, s_error
from .plots import emit_plots
from .signals import (
    ArmaSpec,
    CosineSpec,
    MaskSpec,
    SourceModel,
    apply_mask,
    assemble,
    gen_arma,
    gen_changepoint_suite,
    gen_cosines,
    random_unit_columns,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "ArmaSpec",
    "ComplexEig",
    "CosineSpec",
    "DmdResult",
    "DmfResult",
    "ExperimentConfig",
    "ExperimentRecord",
    "LagCov",
    "MaskSpec",
    "NumericalError",
    "SourceModel",
    "SvdResult",
    "UnmixResult",
    "align_columns",
    "amuse",
    "apply_mask",
    "assemble",
    "cosine_cross_theory",
    "cosine_lag_theory",
    "default_config",
    "dmd_fit",
    "dmd_fits",
    "dmf",
    "eig_error",
    "eig_nonsymmetric",
    "eig_symmetric",
    "emit_plots",
    "empirical_acf",
    "gen_arma",
    "gen_changepoint_suite",
    "gen_cosines",
    "lag_cov",
    "pca_unmix",
    "pinv",
    "random_unit_columns",
    "rate_fit",
    "recover_signals",
    "run_experiment",
    "s_error",
    "svd",
    "tsvd_dmd_fit",
]
