"""Retractions on the compact Stiefel manifold St(n, p).

Implements the classical polar factor retraction, the polar-light
retraction with its closed-form inverse, a Cayley-approximated variant,
and the Riemannian exponential for the one-parameter metric family,
plus a benchmark harness comparing them against the geodesics.
"""

from .core import (
    BETA_CANONICAL,
    BETA_EUCLIDEAN,
    StiefelPoint,
    TangentVector,
    canonical_point,
    check_point,
    check_tangent,
    exp_beta,
    inner,
    project_tangent,
    rand_point,
    rand_tangent,
)
from .matfun import (
    DomainError,
    ValidationError,
    cay,
    cay_inv,
    expm_skew,
    invsqrtm_spd,
    logm_so,
    solve_pf_sylvester,
)
from .retractions import (
    RETRACTION_PAIRS,
    ChartCoordinates,
    chart_at_E,
    param_at_E,
    pf_inv,
    pf_ret,
    pl_cay_inv,
    pl_cay_ret,
    pl_inv,
    pl_ret,
)

__all__ = [
    "BETA_CANONICAL",
    "BETA_EUCLIDEAN",
    "ChartCoordinates",
    "DomainError",
    "RETRACTION_PAIRS",
    "StiefelPoint",
    "TangentVector",
    "ValidationError",
    "canonical_point",
    "cay",
    "cay_inv",
    "chart_at_E",
    "check_point",
    "check_tangent",
    "exp_beta",
    "expm_skew",
    "inner",
    "invsqrtm_spd",
    "logm_so",
    "param_at_E",
    "pf_inv",
    "pf_ret",
    "pl_cay_inv",
    "pl_cay_ret",
    "pl_inv",
    "pl_ret",
    "project_tangent",
    "rand_point",
    "rand_tangent",
    "solve_pf_sylvester",
]

__version__ = "0.1.0"
