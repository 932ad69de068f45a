"""Stable numerical differentiation of bivariate functions from noisy
Fourier-Legendre coefficients.

The method expands f on the tensor orthonormal Legendre basis, keeps only
coefficients inside a hyperbolic-cross index set matched to the noise
level, and differentiates the truncated series exactly in coefficient
space. Truncation is the only regularization; no penalty terms are used.

The command line (``crossdiff``, or ``python -m crossdiff.cli``) and its
config schema live in ``crossdiff.cli``, which importing the package does
not load.
"""

from .legendre import (
    gauss_rule,
    iterate_derivative,
    phi_matrix,
    synthesize,
)
from .coeffs import (
    CoeffGrid,
    NoiseSpec,
    add_noise,
    exact_coeffs,
    load_grid,
    lp_norm,
    save_grid,
    trapezoid_coeffs,
)
from .truncation import (
    CrossSet,
    SmoothnessParams,
    build_cross,
    cardinality_growth,
    choose_gamma,
    choose_n,
    class_norm,
    theoretical_slope,
    truncate,
)
from .analysis import (
    CosFactor,
    PiecewisePoly,
    RateStudyResult,
    TestFunction,
    c_error,
    example1_F,
    example2_F,
    l2_error,
    make_class_function,
    rate_study,
)

__version__ = "0.1.0"

__all__ = [
    "gauss_rule",
    "iterate_derivative",
    "phi_matrix",
    "synthesize",
    "CoeffGrid",
    "NoiseSpec",
    "add_noise",
    "exact_coeffs",
    "load_grid",
    "lp_norm",
    "save_grid",
    "trapezoid_coeffs",
    "CrossSet",
    "SmoothnessParams",
    "build_cross",
    "cardinality_growth",
    "choose_gamma",
    "choose_n",
    "class_norm",
    "truncate",
    "CosFactor",
    "PiecewisePoly",
    "RateStudyResult",
    "TestFunction",
    "c_error",
    "example1_F",
    "example2_F",
    "l2_error",
    "make_class_function",
    "rate_study",
    "theoretical_slope",
    "__version__",
]
