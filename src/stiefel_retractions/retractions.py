"""Retraction / inverse-retraction pairs on the Stiefel manifold.

Three invertible pairs are provided:

* PF: the classical polar factor retraction, inverted by solving a
  symmetric Sylvester equation.
* PL: the polar-light retraction, which twists the p-by-p block by a
  matrix exponential and has a closed-form inverse built from the polar
  decomposition of one p-by-p matrix and one principal log. Between
  nearby points both are short power series; otherwise the polar
  decomposition is one SVD.
* PL-Cayley: the PL pair with exp/log replaced by the Cayley transform
  and its inverse.

Every retraction is the polar factor of U K + Xi: K = I for PF and
K = twist(A) - A, A = U.T Xi, for PL and PL-Cayley, which share one
implementation; the chart at E = [I; 0] is the PL pair at E. All O(n)
work is plain matrix-matrix multiplication; decompositions only touch
p-by-p blocks. For the deviation experiments, _curve factors a whole
retraction curve t -> R(E, t X) at E in chart coordinates X = [A; B],
normalizer and twist (core._skew_flow), once for all t.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import matfun
from .core import (
    StiefelPoint,
    TangentVector,
    _exp_angles,
    _skew_block,
    _skew_flow,
    _skew_part,
    canonical_point,
)
from .matfun import DomainError, ValidationError, cay, cay_inv, expm_skew, invsqrtm_spd, logm_so

# Floor on the singular values of U0.T @ U1 below which the PL chart
# (and its inverse) is treated as degenerate. It is absolute because both
# frames are orthonormal, so U0.T U1 carries an absolute rounding error of
# about eps: for U1 orthogonal to U0 it is all rounding noise, with a
# condition number of order 10 that a floor on the condition number would accept.
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
    """C = U0.T U1, once U1 is checked to lie on the St(n, p) of base; the kernels check C."""
    if U1.U.shape != base.U.shape:
        raise ValidationError(f"U1 shape {U1.U.shape} does not match base shape {base.U.shape}")
    return base.U.T @ U1.U


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
    det -1. U0.T U1 must be finite and well away from singular; off
    matfun's series route it takes one SVD.
    """
    W, H_inv, sigma_min = matfun._polar_parts(_cross(base, U1))
    if sigma_min <= SIGMA_MIN:
        raise DomainError("U0.T U1 nearly singular, outside chart neighborhood")
    Xi = base.U @ (untwist(W) - W) + U1.U @ H_inv
    return TangentVector(base, Xi)


def _cay_angles(t: float, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos phi - 1, sin phi / w): cay(t S) turns each plane of S by phi = 2 atan(t w / 2)."""
    x2 = (0.5 * t * w) ** 2
    return -2.0 * x2 / (1.0 + x2), t / (1.0 + x2)


def _curve(kind: str, X: np.ndarray) -> Callable[[float], np.ndarray]:
    """t -> RETRACTION_PAIRS[kind][0](TangentVector(E, t X)).U, factored once for all t.

    X = [A; B] is a tangent's m-by-p chart coordinates at E = [I_p; 0], A =
    X[:p] skew: the deviation experiments' [A; R] of core._frame, or an
    inverse's preimage at E. With N = X (PF) or X - [A; 0] (PL, PL-Cayley),
    the retraction is the polar factor of M = t N with I (PF) or twist(t A)
    added to its top p rows. A is skew and N's top block is 0 for PL, so
    M.T M = I + t^2 N.T N, and one eigh N.T N = W diag(lam) W.T gives
    M (M.T M)^(-1/2) = M W diag((1 + t^2 lam)^(-1/2)) W.T at every t
    (Higham, 1986), as core._flow factors the geodesic. M W is t N W, formed
    once, with W or twist(t A) W added to its top rows. While t^2 lam <= 1
    the polar factor is formed as M + M W diag(delta) W.T, delta = (1 + t^2
    lam)^(-1/2) - 1 written without cancellation, so the curve is exactly E
    at t = 0; above, that increment would cancel. Per t this is one m-by-p
    by p-by-p product, and for PL two more p-by-p ones: the twist, which is
    core._skew_flow of A with exp's or cay's angles, and its product with W.
    ValidationError when A is not skew; DomainError wherever the public map
    would refuse: by expm_skew's norm test, matfun._check_expm_norm (cay has
    none that a skew A can meet), and invsqrtm_spd's condition test,
    matfun._check_spd_condition, on the eigenvalues 1 + t^2 lam of M.T M.
    """
    p = X.shape[1]
    A = _skew_part(X[:p], np.linalg.norm(X), "chart block A")
    angles = _exp_angles if kind == "pl" else _cay_angles
    twist = None if kind == "pf" else _skew_flow(A, p, angles)
    N = X if twist is None else np.vstack([X[:p] - A, X[p:]])
    lam, W = np.linalg.eigh(N.T @ N)
    lam = np.maximum(lam, 0.0)
    NW = N @ W
    eye = np.eye(p)
    norm = np.linalg.norm(A)

    def at(t: float) -> np.ndarray:
        if kind == "pl":
            matfun._check_expm_norm(abs(t) * norm)
        top = eye if twist is None else twist(t)
        MW = t * NW
        MW[:p] += W if twist is None else top @ W
        d = 1.0 + t * t * lam
        matfun._check_spd_condition(d[0], d[-1])
        if t * t * lam[-1] > 1.0:
            return (MW * d**-0.5) @ W.T
        delta = -t * t * lam / (np.sqrt(d) * (1.0 + np.sqrt(d)))
        M = t * N
        M[:p] += top
        M += (MW * delta) @ W.T
        return M

    return at


def pl_ret(xi: TangentVector) -> StiefelPoint:
    """Polar-light retraction: the PL map with twist exp(A), A = U.T Xi."""
    return _pl_ret(xi, expm_skew)


def pl_inv(base: StiefelPoint, U1: StiefelPoint) -> TangentVector:
    """Closed-form inverse of pl_ret: one p-by-p polar decomposition and one principal log.

    The polar decomposition of U0.T U1 comes from a power series when it
    is close to a multiple of an orthogonal matrix, and from its SVD
    otherwise.
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
    A, B = matfun._check_square(c.A, "A"), np.asarray(c.B)
    if B.ndim != 2 or B.shape[1] != A.shape[0]:
        raise ValidationError(f"B must be m-by-{A.shape[0]}, got shape {B.shape}")
    B = matfun._check_entries(B, "B")
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
