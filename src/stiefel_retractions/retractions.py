"""Retraction / inverse-retraction pairs on the Stiefel manifold.

Three invertible pairs are provided:

* PF: the classical polar factor retraction, inverted by solving a
  symmetric Sylvester equation.
* PL: the polar-light retraction, which twists the p-by-p block by a
  matrix exponential and has a closed-form inverse built from the polar
  decomposition of one p-by-p matrix and one principal log. The polar
  decomposition is one eigh when that matrix is well conditioned, as
  it is between nearby points, and one SVD otherwise.
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
from .core import StiefelPoint, TangentVector, _skew_block, canonical_point
from .matfun import DomainError, ValidationError, cay, cay_inv, expm_skew, invsqrtm_spd, logm_so

# Floor on the singular values of U0.T @ U1 below which the PL chart
# (and its inverse) is treated as degenerate.
SIGMA_MIN = 1e-8

# A p-by-p twist map of the PL pair: expm_skew/logm_so or cay/cay_inv.
_Twist = Callable[[np.ndarray], np.ndarray]


def _polar(M: np.ndarray) -> StiefelPoint:
    """Orthonormal polar factor M (M.T M)^{-1/2} of a well-conditioned n-by-p M."""
    return StiefelPoint(M @ invsqrtm_spd(M.T @ M))


def pf_ret(xi: TangentVector) -> StiefelPoint:
    """Polar factor retraction: the polar factor of U + Xi (tangency unchecked)."""
    return _polar(xi.base.U + xi.Xi)


def _cross(base: StiefelPoint, U1: StiefelPoint) -> np.ndarray:
    """C = U0.T U1, once U1 is checked to lie on the St(n, p) of base and C to be finite."""
    if U1.U.shape != base.U.shape:
        raise ValidationError(f"U1 shape {U1.U.shape} does not match base shape {base.U.shape}")
    return matfun._check_finite(base.U.T @ U1.U, "C")


def pf_inv(base: StiefelPoint, U1: StiefelPoint) -> TangentVector:
    """Inverse polar factor retraction via the Sylvester equation.

    With C = U0.T U1 and X the symmetric solution of C X + X C.T = 2 I,
    the preimage is Xi = U1 X - U0. Since pf_ret(Xi) = U1 sign(X), X must
    also be positive definite, which holds exactly when C is positive
    stable; it is not when, for example, U0.T U1 is a rotation with an
    angle above pi/2 (X = I / cos(angle) on its block).
    """
    try:
        X = matfun.solve_pf_sylvester(_cross(base, U1))
    except matfun._Undecided as exc:
        raise DomainError(f"pf_inv: Sylvester solve failed ({exc})") from exc
    except DomainError as exc:
        raise DomainError(f"pf_inv: outside PF injectivity domain ({exc})") from exc
    return TangentVector(base, U1.U @ X - base.U)


def _pl_ret(xi: TangentVector, twist: _Twist) -> StiefelPoint:
    """Polar factor of U (twist(A) - A) + Xi; A = U.T Xi must be skew."""
    A = _skew_block(xi)
    return _polar(xi.base.U @ (twist(A) - A) + xi.Xi)


def _pl_inv(base: StiefelPoint, U1: StiefelPoint, untwist: _Twist) -> TangentVector:
    """U0 (untwist(W) - W) + U1 H^-1, with W H the polar decomposition of U0.T U1.

    The polar (Procrustes) factor W must be in SO(p): untwist refuses
    det -1. U0.T U1 must be finite and well away from singular; a
    well-conditioned one takes matfun's Gram route, any other its SVD.
    """
    W, H_inv, sigma_min = matfun._polar_parts(_cross(base, U1))
    if sigma_min <= SIGMA_MIN:
        raise DomainError(
            "pl_inv: U0.T U1 nearly singular, outside chart neighborhood"
        )
    Xi = base.U @ (untwist(W) - W) + U1.U @ H_inv
    return TangentVector(base, Xi)


def pl_ret(xi: TangentVector) -> StiefelPoint:
    """Polar-light retraction: the PL map with twist exp(A), A = U.T Xi."""
    return _pl_ret(xi, expm_skew)


def pl_inv(base: StiefelPoint, U1: StiefelPoint) -> TangentVector:
    """Closed-form inverse of pl_ret: one p-by-p polar decomposition and one principal log.

    The polar decomposition of U0.T U1 comes from one eigh of its Gram
    matrix when U0.T U1 is well conditioned, and from its SVD otherwise.
    """
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
    A, B = matfun._check_square(c.A, "A"), np.asarray(c.B, dtype=float)
    if B.ndim != 2 or B.shape[1] != A.shape[0]:
        raise ValidationError(f"B must be m-by-{A.shape[0]}, got shape {B.shape}")
    matfun._check_finite(B, "B")
    E = canonical_point(A.shape[0] + B.shape[0], A.shape[0])
    return pl_ret(TangentVector(E, np.vstack([A, B])))


RetractFn = Callable[[TangentVector], StiefelPoint]
InverseFn = Callable[[StiefelPoint, StiefelPoint], TangentVector]

# Invertible retractions available to the benchmark harness.
RETRACTION_PAIRS: dict[str, tuple[RetractFn, InverseFn]] = {
    "pf": (pf_ret, pf_inv),
    "pl": (pl_ret, pl_inv),
    "pl_cayley": (pl_cay_ret, pl_cay_inv),
}
