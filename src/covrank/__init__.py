"""Covariance-matrix rank estimation by sequential spectral testing.

The pipeline: form the sample covariance of an n x p data matrix, take its
descending eigenvalues, and test the nested hypotheses "rank <= k-1" for
k = 1, 2, ... with a conditional singular-value statistic whose null
distribution is asymptotically Unif(0,1). The number of rejections before
the first acceptance estimates the rank. A Monte Carlo harness reproduces
the reference simulation design and checks the uniformity claim.
"""

from .dgp import SimulationConfig, generate_dataset, make_loadings, sample_factors_t
from .errors import CovrankError, NumericalError, ValidationError
from .montecarlo import (
    NullSample,
    RejectionTable,
    collect_null_statistics,
    ks_distance,
    ks_pvalue_approx,
    run_rejection_table,
)
from .sequential import SequentialResult, StepOutcome, rank_from_data, run_sequence
from .spectrum import Spectrum, sample_covariance, symmetric_eigen
from .statistic import QuadratureSettings, csv_statistic, log_integral, plug_in_scale

__version__ = "0.1.0"

__all__ = [
    "CovrankError",
    "NullSample",
    "NumericalError",
    "QuadratureSettings",
    "RejectionTable",
    "SequentialResult",
    "SimulationConfig",
    "Spectrum",
    "StepOutcome",
    "ValidationError",
    "collect_null_statistics",
    "csv_statistic",
    "generate_dataset",
    "ks_distance",
    "ks_pvalue_approx",
    "log_integral",
    "make_loadings",
    "plug_in_scale",
    "rank_from_data",
    "run_rejection_table",
    "run_sequence",
    "sample_covariance",
    "sample_factors_t",
    "symmetric_eigen",
]
