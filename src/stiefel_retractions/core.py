"""Stiefel manifold core: points, tangent vectors, metrics, exponential.

A point on St(n, p) is an n-by-p matrix with orthonormal columns. A
tangent vector at U is an n-by-p matrix Xi with U.T @ Xi skew-symmetric;
writing Xi = U A + U_perp B, the p-by-p skew block A and the
(n-p)-by-p block B carry the independent parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matfun import (
    ValidationError,
    expm_skew,
    tol_struct,
)

# Metric family parameter values for the two standard metrics.
BETA_CANONICAL = 0.5
BETA_EUCLIDEAN = 1.0


@dataclass(frozen=True)
class StiefelPoint:
    """Validated point on St(n, p). Construct via check_point or rand_point."""

    U: np.ndarray

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def p(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector Xi attached to a base point."""

    base: StiefelPoint
    Xi: np.ndarray

    @property
    def norm(self) -> float:
        """Frobenius (Euclidean-metric) norm of Xi."""
        return float(np.linalg.norm(self.Xi))

    def scaled(self, t: float) -> "TangentVector":
        return TangentVector(self.base, t * self.Xi)


def canonical_point(n: int, p: int) -> StiefelPoint:
    """The point E = [I_p; 0], center of the canonical chart."""
    U = np.zeros((n, p))
    U[:p, :p] = np.eye(p)
    return StiefelPoint(U)


def check_point(U: np.ndarray) -> StiefelPoint:
    """Validate column-orthonormality and wrap U as a StiefelPoint."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValidationError(f"expected a matrix, got shape {U.shape}")
    n, p = U.shape
    if p > n:
        raise ValidationError(f"need p <= n, got n={n}, p={p}")
    if not np.all(np.isfinite(U)):
        raise ValidationError("point contains non-finite entries")
    defect = np.linalg.norm(U.T @ U - np.eye(p))
    if defect > tol_struct(p):
        raise ValidationError(
            f"columns not orthonormal: ||U.T U - I||_F = {defect:.3e}"
        )
    return StiefelPoint(U)


def _skew_block(base: StiefelPoint, Xi: np.ndarray) -> np.ndarray:
    """The exactly skew block A = U.T Xi of a tangent Xi.

    Raises ValidationError when U.T Xi has a symmetric part above
    roundoff, i.e. when Xi is not tangent at base.
    """
    A = base.U.T @ Xi
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(base.p):
        raise ValidationError(f"U.T Xi not skew-symmetric (defect {defect:.3e})")
    return 0.5 * (A - A.T)


def check_tangent(base: StiefelPoint, Xi: np.ndarray) -> TangentVector:
    """Validate that base.T @ Xi is skew and wrap as a TangentVector."""
    Xi = np.asarray(Xi, dtype=float)
    if Xi.shape != base.U.shape:
        raise ValidationError(
            f"tangent shape {Xi.shape} does not match base shape {base.U.shape}"
        )
    _skew_block(base, Xi)
    return TangentVector(base, Xi)


def project_tangent(base: StiefelPoint, Z: np.ndarray) -> TangentVector:
    """Orthogonal projection Z -> Z - U sym(U.T Z) onto the tangent space."""
    Z = np.asarray(Z, dtype=float)
    M = base.U.T @ Z
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
    if p > n:
        raise ValidationError(f"need p <= n, got n={n}, p={p}")
    rng = _as_rng(seed)
    G = rng.standard_normal((n, p))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diagonal(R))
    signs[signs == 0] = 1.0
    return StiefelPoint(Q * signs)


def rand_tangent(base: StiefelPoint, norm_target: float, seed) -> TangentVector:
    """Seeded pseudo-random tangent vector with ||Xi||_F = norm_target."""
    if norm_target < 0:
        raise ValidationError("norm_target must be nonnegative")
    rng = _as_rng(seed)
    xi = project_tangent(base, rng.standard_normal(base.U.shape))
    if norm_target == 0:
        return TangentVector(base, np.zeros_like(base.U))
    return xi.scaled(norm_target / xi.norm)


def inner(xi: TangentVector, eta: TangentVector, beta: float = BETA_EUCLIDEAN) -> float:
    """Inner product of the one-parameter metric family, for any beta > 0.

    tr(xi.T eta) + (beta - 1) tr((U.T xi).T (U.T eta)), the metric whose
    geodesics exp_beta computes: beta = 1 is the Euclidean metric and
    beta = 1/2 the canonical metric.
    """
    if beta <= 0:
        raise ValidationError("beta must be positive")
    if xi.base is not eta.base and not np.array_equal(xi.base.U, eta.base.U):
        raise ValidationError("inner: tangent vectors have different base points")
    Ax = xi.base.U.T @ xi.Xi
    Ay = eta.base.U.T @ eta.Xi
    return float(np.sum(xi.Xi * eta.Xi)) + (beta - 1.0) * float(np.sum(Ax * Ay))


def exp_beta(xi: TangentVector, beta: float = BETA_EUCLIDEAN) -> StiefelPoint:
    """Riemannian exponential for the one-parameter metric family.

    Compact O(n p^2) evaluation: with A = U.T Xi and the thin QR
    Q R = (I - U U.T) Xi, exponentiate the skew 2p-by-2p block matrix
    [[2 beta A, -R.T], [R, 0]], combine with U and Q, and post-multiply
    by exp((1 - 2 beta) A). Defined on the whole tangent space; raises
    ValidationError when Xi is not tangent.
    """
    if beta <= 0:
        raise ValidationError("beta must be positive")
    U = xi.base.U
    p = xi.base.p
    A = _skew_block(xi.base, xi.Xi)
    Q, R = np.linalg.qr(xi.Xi - U @ A)
    L = np.block([[2.0 * beta * A, -R.T], [R, np.zeros((p, p))]])
    W = expm_skew(L)
    out = (U @ W[:p, :p] + Q @ W[p:, :p]) @ expm_skew((1.0 - 2.0 * beta) * A)
    return StiefelPoint(out)
