"""Retraction / inverse-retraction pairs on the Stiefel manifold.

Three invertible pairs are provided:

* PF: the classical polar factor retraction, inverted by solving a
  symmetric Sylvester equation.
* PL: the polar-light retraction, which twists the p-by-p block by a
  matrix exponential and has a closed-form inverse built from one small
  SVD and one principal log.
* PL-Cayley: the PL pair with exp/log replaced by the Cayley transform
  and its inverse.

Every retraction is the polar factor of U K + Xi: K = I for PF and
K = twist(A) - A, A = U.T Xi, for PL and PL-Cayley, which share one
implementation; the chart at E = [I; 0] is the PL pair at E. All O(n)
work is plain matrix-matrix multiplication; decompositions only touch
p-by-p blocks.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import matfun
from .core import (
    StiefelPoint,
    TangentVector,
    _skew_block,
    canonical_point,
    check_point,
    check_tangent,
)
from .matfun import DomainError, cay, cay_inv, expm_skew, invsqrtm_spd, logm_so

# Floor on the singular values of U0.T @ U1 below which the PL chart
# (and its inverse) is treated as degenerate.
SIGMA_MIN = 1e-8

# A p-by-p twist map of the PL pair: expm_skew/logm_so or cay/cay_inv.
_Twist = Callable[[np.ndarray], np.ndarray]


def _polar(M: np.ndarray) -> StiefelPoint:
    """Orthonormal polar factor M (M.T M)^{-1/2} of a full-rank n-by-p M."""
    # numpy computes M.T @ M with BLAS syrk, so it is exactly symmetric, as
    # invsqrtm_spd's symmetry check needs when ||M.T M|| is large.
    return StiefelPoint(M @ invsqrtm_spd(M.T @ M))


def pf_ret(xi: TangentVector) -> StiefelPoint:
    """Polar factor retraction: the polar factor of U + Xi."""
    return _polar(xi.base.U + xi.Xi)


def pf_inv(base: StiefelPoint, U1: StiefelPoint) -> TangentVector:
    """Inverse polar factor retraction via the Sylvester equation.

    With C = U0.T U1 and X the symmetric solution of C X + X C.T = 2 I,
    the preimage is Xi = U1 X - U0. Since pf_ret(Xi) = U1 sign(X), X must
    also be positive definite; it is not when, for example, U0.T U1 is a
    rotation with an angle above pi/2 (X = I / cos(angle) on its block).
    """
    C = base.U.T @ U1.U
    try:
        X = matfun.solve_pf_sylvester(C)
    except DomainError as exc:
        raise DomainError(f"pf_inv: outside PF injectivity domain ({exc})") from exc
    try:
        np.linalg.cholesky(X)
    except np.linalg.LinAlgError as exc:
        raise DomainError(
            "pf_inv: outside PF injectivity domain (Sylvester solution not "
            "positive definite, so U1 X - U0 is not a preimage)"
        ) from exc
    return TangentVector(base, U1.U @ X - base.U)


def _pl_ret(xi: TangentVector, twist: _Twist) -> StiefelPoint:
    """Polar factor of U (twist(A) - A) + Xi; A = U.T Xi must be skew."""
    A = _skew_block(xi.base, xi.Xi)
    return _polar(xi.base.U @ (twist(A) - A) + xi.Xi)


def _pl_inv(base: StiefelPoint, U1: StiefelPoint, untwist: _Twist) -> TangentVector:
    """U0 (untwist(M R.T) - M R.T) + U1 R diag(1/s) R.T.

    M diag(s) R.T is the SVD of U0.T U1 and M R.T its polar (Procrustes)
    factor, which must be in SO(p); U0.T U1 must be finite and well away
    from singular.
    """
    M, s, Rt = np.linalg.svd(matfun._check_square(base.U.T @ U1.U, "C"))
    if s[-1] <= SIGMA_MIN:
        raise DomainError(
            "pl_inv: U0.T U1 nearly singular, outside chart neighborhood"
        )
    ortho = M @ Rt
    if np.linalg.det(ortho) < 0:
        raise DomainError(
            "pl_inv: polar factor has negative determinant, "
            "outside the path-connected chart neighborhood"
        )
    Xi = base.U @ (untwist(ortho) - ortho) + U1.U @ ((Rt.T * (1.0 / s)) @ Rt)
    return TangentVector(base, Xi)


def pl_ret(xi: TangentVector) -> StiefelPoint:
    """Polar-light retraction: the PL map with twist exp(A), A = U.T Xi."""
    return _pl_ret(xi, expm_skew)


def pl_inv(base: StiefelPoint, U1: StiefelPoint) -> TangentVector:
    """Closed-form inverse of pl_ret: one p-by-p SVD and one principal log."""
    return _pl_inv(base, U1, logm_so)


def pl_cay_ret(xi: TangentVector) -> StiefelPoint:
    """Polar-light retraction with exp(A) replaced by the Cayley transform."""
    return _pl_ret(xi, cay)


def pl_cay_inv(base: StiefelPoint, U1: StiefelPoint) -> TangentVector:
    """Inverse of pl_cay_ret, with the log replaced by the inverse Cayley."""
    return _pl_inv(base, U1, cay_inv)


class ChartCoordinates(NamedTuple):
    """Coordinates (A skew, B rectangular) of the chart at E = [I; 0]."""

    A: np.ndarray
    B: np.ndarray


def chart_at_E(U: StiefelPoint) -> ChartCoordinates:
    """Chart at the canonical point: pl_inv(E, U) split after its first p rows.

    A is the principal log of the polar factor of the upper p-by-p block;
    B is the lower block times the inverse of the symmetric factor.
    """
    Xi = pl_inv(canonical_point(U.n, U.p), U).Xi
    return ChartCoordinates(Xi[: U.p], Xi[U.p :])


def param_at_E(c: ChartCoordinates) -> StiefelPoint:
    """Inverse of chart_at_E: pl_ret(E, [A; B]) = [exp(A); B](I + B.T B)^{-1/2}."""
    A, B = np.asarray(c.A, dtype=float), np.asarray(c.B, dtype=float)
    E = canonical_point(A.shape[0] + B.shape[0], A.shape[0])
    return check_point(pl_ret(check_tangent(E, np.vstack([A, B]))).U)


RetractFn = Callable[[TangentVector], StiefelPoint]
InverseFn = Callable[[StiefelPoint, StiefelPoint], TangentVector]

# Invertible retractions available to the benchmark harness.
RETRACTION_PAIRS: dict[str, tuple[RetractFn, InverseFn]] = {
    "pf": (pf_ret, pf_inv),
    "pl": (pl_ret, pl_inv),
    "pl_cayley": (pl_cay_ret, pl_cay_inv),
}
