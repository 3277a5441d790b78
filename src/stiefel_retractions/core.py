"""Stiefel manifold core: points, tangent vectors, metrics, exponential.

A point on St(n, p) is an n-by-p matrix with orthonormal columns. A
tangent vector at U is an n-by-p matrix Xi with U.T @ Xi skew-symmetric;
writing Xi = U A + U_perp B, the p-by-p skew block A and the
(n-p)-by-p block B carry the independent parameters.

The exponential exp_beta is the factored geodesic _geodesic at t = 1;
both skew flows under it come from one real symmetric eigh each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matfun import ValidationError, _check_finite, tol_struct

# Metric family parameter values for the two standard metrics.
BETA_CANONICAL = 0.5
BETA_EUCLIDEAN = 1.0


@dataclass(frozen=True)
class StiefelPoint:
    """Point on St(n, p), built by check_point or rand_point. Public maps
    trust a StiefelPoint and do not re-check its orthonormality."""

    U: np.ndarray

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def p(self) -> int:
        return self.U.shape[1]


# Largest Frobenius norm of a tangent that the maps accept. They form Gram
# matrices M.T M with ||M||_F <= 2 ||Xi||_F + sqrt(p) and take Frobenius norms
# of those, fourth powers of ||M||_F, which stay finite below this bound.
_TANGENT_MAX_NORM = np.finfo(float).max ** 0.25 / 4


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector Xi attached to a base point.

    Construction checks that Xi has the base's shape, is finite and has
    norm at most _TANGENT_MAX_NORM; the maps that form U.T Xi check that
    it is skew. ||Xi||_F is bounded by sqrt(size) max |Xi|, which squares
    no entry, so the check itself cannot overflow. A NaN or inf entry
    fails the same comparison, so the common case costs one max and one min.
    """

    base: StiefelPoint
    Xi: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.Xi) != self.base.U.shape:
            raise ValidationError(
                f"tangent shape {np.shape(self.Xi)} does not match base shape {self.base.U.shape}"
            )
        big = np.maximum(np.max(self.Xi), -np.min(self.Xi))
        if not big <= _TANGENT_MAX_NORM / np.sqrt(self.base.U.size):
            _check_finite(self.Xi, "tangent")
            raise ValidationError(
                f"tangent too large: largest entry {big:.3e}, so products with it would overflow"
            )

    @property
    def norm(self) -> float:
        """Frobenius (Euclidean-metric) norm of Xi."""
        return float(np.linalg.norm(self.Xi))

    def scaled(self, t: float) -> "TangentVector":
        return TangentVector(self.base, t * self.Xi)


def _check_sizes(n: int, p: int) -> None:
    if n < 1 or p < 1:
        raise ValidationError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if p > n:
        raise ValidationError(f"need p <= n, got n={n}, p={p}")


def _check_beta(beta: float) -> None:
    if not (np.isfinite(beta) and beta > 0):
        raise ValidationError("beta must be positive and finite")


def canonical_point(n: int, p: int) -> StiefelPoint:
    """The point E = [I_p; 0], center of the canonical chart."""
    _check_sizes(n, p)
    U = np.zeros((n, p))
    U[:p, :p] = np.eye(p)
    return StiefelPoint(U)


def check_point(U: np.ndarray) -> StiefelPoint:
    """Validate column-orthonormality and wrap U as a StiefelPoint."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValidationError(f"expected a matrix, got shape {U.shape}")
    n, p = U.shape
    _check_sizes(n, p)
    _check_finite(U, "point")
    defect = np.linalg.norm(U.T @ U - np.eye(p))
    if defect > tol_struct(p):
        raise ValidationError(
            f"columns not orthonormal: ||U.T U - I||_F = {defect:.3e}"
        )
    return StiefelPoint(U)


def _skew_block(xi: TangentVector) -> np.ndarray:
    """The exactly skew block A = U.T Xi of a tangent xi.

    Raises ValidationError when U.T Xi has a symmetric part above roundoff,
    i.e. when Xi is not tangent at its base.
    """
    A = xi.base.U.T @ xi.Xi
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(xi.base.p):
        raise ValidationError(f"U.T Xi not skew-symmetric (defect {defect:.3e})")
    return 0.5 * (A - A.T)


def check_tangent(base: StiefelPoint, Xi: np.ndarray) -> TangentVector:
    """Validate that base.T @ Xi is skew and wrap as a TangentVector."""
    xi = TangentVector(base, np.asarray(Xi, dtype=float))
    _skew_block(xi)
    return xi


def project_tangent(base: StiefelPoint, Z: np.ndarray) -> TangentVector:
    """Orthogonal projection Z -> Z - U sym(U.T Z) onto the tangent space."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != base.U.shape:
        raise ValidationError(f"Z shape {Z.shape} does not match base shape {base.U.shape}")
    M = base.U.T @ _check_finite(Z, "Z")
    Xi = Z - base.U @ (0.5 * (M + M.T))
    return TangentVector(base, Xi)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def rand_point(n: int, p: int, seed) -> StiefelPoint:
    """Seeded pseudo-random Stiefel point.

    QR-orthonormalization of a Gaussian matrix with the sign of the
    triangular factor's diagonal fixed, which makes the draw a
    deterministic function of the seed.
    """
    _check_sizes(n, p)
    rng = _as_rng(seed)
    G = rng.standard_normal((n, p))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diagonal(R))
    signs[signs == 0] = 1.0
    return StiefelPoint(Q * signs)


def rand_tangent(base: StiefelPoint, norm_target: float, seed) -> TangentVector:
    """Seeded pseudo-random tangent vector with ||Xi||_F = norm_target."""
    if not (np.isfinite(norm_target) and norm_target >= 0):
        raise ValidationError(f"norm_target must be finite and nonnegative, got {norm_target}")
    if norm_target > 0 and base.n == base.p == 1:
        raise ValidationError(f"norm_target must be 0 on St(1, 1), got {norm_target}")
    rng = _as_rng(seed)
    xi = project_tangent(base, rng.standard_normal(base.U.shape))
    if norm_target == 0:
        return TangentVector(base, np.zeros_like(base.U))
    return xi.scaled(norm_target / xi.norm)


def inner(xi: TangentVector, eta: TangentVector, beta: float = BETA_EUCLIDEAN) -> float:
    """Inner product of the one-parameter metric family, for any finite beta > 0.

    tr(xi.T eta) + (beta - 1) tr((U.T xi).T (U.T eta)), the metric whose
    geodesics exp_beta computes: beta = 1 is the Euclidean metric and
    beta = 1/2 the canonical metric.
    """
    _check_beta(beta)
    if xi.base is not eta.base and not np.array_equal(xi.base.U, eta.base.U):
        raise ValidationError("inner: tangent vectors have different base points")
    Ax = xi.base.U.T @ xi.Xi
    Ay = eta.base.U.T @ eta.Xi
    return float(np.sum(xi.Xi * eta.Xi)) + (beta - 1.0) * float(np.sum(Ax * Ay))


def exp_beta(xi: TangentVector, beta: float = BETA_EUCLIDEAN) -> StiefelPoint:
    """Riemannian exponential for the one-parameter metric family.

    The geodesic of _geodesic at t = 1: O(n p^2) work, one real eigh of a
    2p-by-2p and one of a p-by-p symmetric matrix. Defined on the whole
    tangent space; raises ValidationError when Xi is not tangent or beta
    is not positive and finite.
    """
    return StiefelPoint(_geodesic(xi, beta)(1.0))


def _skew_flow(S: np.ndarray, k: int) -> Callable[[float], np.ndarray]:
    """t -> exp(t S)[:, :k] for a real skew S, from one real eigh of -S^2.

    -S^2 = S.T S = V diag(w^2) V.T commutes with S, so (Gallier & Xu, 2002)
    exp(t S) = V cos(t w) V.T + S V diag(sin(t w) / w) V.T. Written as
    I + V diag(-2 sin^2(t w / 2)) V.T + ..., the small-t increment keeps
    its relative accuracy; np.sinc is exact at w = 0, and at S = 0 the
    flow is exactly I.
    """
    w2, V = np.linalg.eigh(S.T @ S)
    w = np.sqrt(np.maximum(w2, 0.0))
    SV = S @ V
    V_top = V[:k].T
    eye = np.eye(S.shape[0], k)

    def at(t: float) -> np.ndarray:
        cos_minus_one = -2.0 * np.sin(0.5 * t * w) ** 2
        return eye + (V * cos_minus_one + SV * (t * np.sinc(t * w / np.pi))) @ V_top

    return at


def _geodesic(xi: TangentVector, beta: float) -> Callable[[float], np.ndarray]:
    """t -> Exp_beta(t xi) as an n-by-p array, factored once for all t.

    With A = U.T Xi, the thin QR Q R = Xi - U A and the skew 2p-by-2p
    L = [[2 beta A, -R.T], [R, 0]], Exp_beta(t xi) = [U Q] exp(t L)[:, :p]
    exp(t (1 - 2 beta) A) (Edelman, Arias & Smith, 1998). Both flows are
    factored once; each t then costs products of p- and 2p-sized matrices
    and one n-by-2p times 2p-by-p product.
    """
    _check_beta(beta)
    U = xi.base.U
    p = xi.base.p
    A = _skew_block(xi)
    Q, R = np.linalg.qr(xi.Xi - U @ A)
    basis = np.hstack([U, Q])
    head = _skew_flow(np.block([[2.0 * beta * A, -R.T], [R, np.zeros((p, p))]]), p)
    twist = _skew_flow((1.0 - 2.0 * beta) * A, p)
    return lambda t: basis @ (head(t) @ twist(t))
