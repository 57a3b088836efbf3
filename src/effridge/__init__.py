"""Random-feature ridge regression and its effective-ridge theory.

Fitting linear regression on P features sampled from a Gaussian process with
covariance K approximates kernel ridge regression, but with a larger
*effective* ridge: finite feature sampling regularizes implicitly.  This
package implements the predictors, the fixed-point theory of the effective
ridge, the Stieltjes-transform machinery behind it, and a seeded Monte Carlo
harness plus CLI that verify the theory numerically at desk scale.
"""

from .errors import (
    AtThresholdError,
    CsvParseError,
    DuplicateRowError,
    EffridgeError,
    InfeasibleTargetError,
    InvalidInputError,
    NumericError,
)
from .kernels import (
    Dataset,
    GramSpectrum,
    KernelSpec,
    Spectrum,
    apply_inverse,
    coordinates,
    gram_matrix,
    spectral_decompose,
    spectral_sum,
    sqrt_gram,
)
from .features import SeedPolicy, derive_stream_seed
from .effective_ridge import (
    EffectiveRidge,
    calibrate_ridge,
    solve_effective_ridge,
    theta_norm_theory,
)
from .stieltjes import (
    StieltjesSolution,
    empirical_expected_A,
    empirical_stieltjes,
    expected_A_theoretical,
    sample_wishart,
    stieltjes_moments,
    theoretical_stieltjes,
)
from .montecarlo import TrialStats, run_trials
from .datasets import (
    generate_clusters,
    generate_sinusoid,
    generate_spectrum,
)

__version__ = "0.1.0"
