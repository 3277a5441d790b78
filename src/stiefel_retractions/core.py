"""Stiefel manifold core: points, tangent vectors, metrics, exponential.

A point on St(n, p) is an n-by-p matrix with orthonormal columns. A
tangent vector at U is an n-by-p matrix Xi with U.T @ Xi skew-symmetric;
writing Xi = U A + U_perp B, the p-by-p skew block A and the
(n-p)-by-p block B carry the independent parameters.

_frame is the one factorization of a tangent, and exp_beta is its basis
times _flow at t = 1. _skew_flow is the package's one closed form of a
skew flow t -> f(t S), from one real symmetric eigh: both flows of the
geodesic, and the retraction curves' twists, whose angle law it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matfun import DomainError, ValidationError, _check_entries, tol_struct

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


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector Xi attached to a base point.

    Construction checks that Xi has the base's shape and, by
    matfun._check_entries, that it is real, finite and of norm at most
    matfun._MAX_NORM, and keeps it as a float array; the maps that form
    U.T Xi check that it is skew.
    """

    base: StiefelPoint
    Xi: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.Xi) != self.base.U.shape:
            raise ValidationError(
                f"tangent shape {np.shape(self.Xi)} does not match base shape {self.base.U.shape}"
            )
        object.__setattr__(self, "Xi", _check_entries(self.Xi, "tangent"))

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
    U = np.asarray(U)
    if U.ndim != 2:
        raise ValidationError(f"expected a matrix, got shape {U.shape}")
    n, p = U.shape
    _check_sizes(n, p)
    U = _check_entries(U, "point")
    defect = np.linalg.norm(U.T @ U - np.eye(p))
    if defect > tol_struct(p):
        raise ValidationError(
            f"columns not orthonormal: ||U.T U - I||_F = {defect:.3e}"
        )
    return StiefelPoint(U)


def _skew_block(xi: TangentVector) -> np.ndarray:
    """The exactly skew block A = U.T Xi of a tangent xi.

    Raises ValidationError when U.T Xi has a symmetric part above roundoff,
    i.e. when Xi is not tangent at its base. Roundoff in U.T Xi, and in
    any projection that made Xi, scales with ||Xi||_F, so the bound does too.
    """
    A = xi.base.U.T @ xi.Xi
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(xi.base.p) * max(1.0, xi.norm):
        raise ValidationError(f"U.T Xi not skew-symmetric (defect {defect:.3e})")
    return 0.5 * (A - A.T)


def check_tangent(base: StiefelPoint, Xi: np.ndarray) -> TangentVector:
    """Validate that base.T @ Xi is skew and wrap as a TangentVector."""
    xi = TangentVector(base, Xi)
    _skew_block(xi)
    return xi


def project_tangent(base: StiefelPoint, Z: np.ndarray) -> TangentVector:
    """Orthogonal projection Z -> Z - U sym(U.T Z) onto the tangent space."""
    if np.shape(Z) != base.U.shape:
        raise ValidationError(f"Z shape {np.shape(Z)} does not match base shape {base.U.shape}")
    Z = _check_entries(Z, "Z")
    M = base.U.T @ Z
    Xi = Z - base.U @ (0.5 * (M + M.T))
    return TangentVector(base, Xi)


def rand_point(n: int, p: int, seed) -> StiefelPoint:
    """Seeded pseudo-random Stiefel point.

    QR-orthonormalization of a Gaussian matrix with the sign of the
    triangular factor's diagonal fixed, which makes the draw a
    deterministic function of the seed.
    """
    _check_sizes(n, p)
    G = np.random.default_rng(seed).standard_normal((n, p))
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
    xi = project_tangent(base, np.random.default_rng(seed).standard_normal(base.U.shape))
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

    [U Q] _flow(A, R, beta)(1) from _frame: O(n p^2) work, one real eigh of a
    2p-by-2p and one of a p-by-p symmetric matrix. Raises ValidationError
    when Xi is not tangent or beta is not positive and finite, and
    DomainError when the result misses orthonormality by more than
    tol_struct(p): the eigh of S.T S in _skew_flow errs by eps ||S||^2, an
    angle error of up to sqrt(eps) ||S|| on a slowly turned plane, which can
    pass that bound from about ||Xi||_F = 1e6 on, or 1e4 for Xi = U A at odd p.
    """
    basis, A, R = _frame(xi)
    Y = basis @ _flow(A, R, beta)(1.0)
    _check_exp_defect(Y, xi)
    return StiefelPoint(Y)


def _check_exp_defect(Y: np.ndarray, xi: TangentVector) -> None:
    """Refuse, with exp_beta's DomainError, an Exp(xi) whose ||Y.T Y - I||_F passes tol_struct(p).

    Y is exp_beta's output or, as ||Y.T Y - I||_F is the same there up to
    rounding, its coordinates _flow(A, R, beta)(1) in _frame's basis.
    """
    defect = np.linalg.norm(Y.T @ Y - np.eye(xi.base.p))
    if defect > tol_struct(xi.base.p):
        raise DomainError(
            f"exp_beta: tangent norm {xi.norm:.3e} too large to exponentiate accurately "
            f"(||Y.T Y - I||_F = {defect:.3e})"
        )


def _exp_angles(t: float, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos(t w) - 1, sin(t w) / w): exp(t S) turns each plane of S by the angle t w."""
    return -2.0 * np.sin(0.5 * t * w) ** 2, t * np.sinc(t * w / np.pi)


def _skew_flow(S: np.ndarray, k: int, angles: Callable = _exp_angles) -> Callable[[float], np.ndarray]:
    """t -> f(t S)[:, :k] for a real skew S, from one real eigh of -S^2.

    -S^2 = S.T S = V diag(w^2) V.T commutes with S, so (Gallier & Xu, 2002)
    a map f that turns the plane of S turned at rate w by an angle phi
    gives f(t S) = I + V diag(cos phi - 1) V.T + S V diag(sin phi / w) V.T,
    whose two diagonals angles(t, w) returns: exp's by default. A skew S of
    odd order is singular, so there the least w^2 is exactly 0, not the
    eigh's eps ||S||^2, which would turn its null direction by up to
    sqrt(eps) ||S||. The cos phi - 1 form keeps the small-t increment's
    relative accuracy, and at S = 0 the flow is exactly I.
    """
    w2, V = np.linalg.eigh(S.T @ S)
    if len(w2) % 2:
        w2[0] = 0.0
    w = np.sqrt(np.maximum(w2, 0.0))
    SV = S @ V
    V_top = V[:k].T
    eye = np.eye(S.shape[0], k)

    def at(t: float) -> np.ndarray:
        cos_minus_one, sin_over_w = angles(t, w)
        return eye + (V * cos_minus_one + SV * sin_over_w) @ V_top

    return at


def _flow(A: np.ndarray, R: np.ndarray, beta: float) -> Callable[[float], np.ndarray]:
    """t -> exp(t L)[:, :p] exp(t (1 - 2 beta) A), L = [[2 beta A, -R.T], [R, 0]].

    For A = U.T Xi and the thin QR Q R = Xi - U A of _frame, [U Q] times
    this is Exp_beta(t xi) (Edelman, Arias & Smith, 1998). Both
    flows are factored once, the second only when 1 - 2 beta is not 0.
    """
    _check_beta(beta)
    r, p = R.shape
    head = _skew_flow(np.block([[2.0 * beta * A, -R.T], [R, np.zeros((r, r))]]), p)
    if 1.0 - 2.0 * beta == 0.0:  # the canonical metric: the twist flow is exactly I
        return head
    twist = _skew_flow((1.0 - 2.0 * beta) * A, p)
    return lambda t: head(t) @ twist(t)


def _frame(xi: TangentVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis, A, R): A = U.T Xi, the thin QR Q R = Xi - U A and basis = [U Q].

    basis @ _flow(A, R, beta)(t) is Exp_beta(t xi). [U Q] is not orthonormal
    when Xi - U A is rank-deficient, but it keeps the norm of every [a; R b],
    as Q R b = (Xi - U A) b is orthogonal to U; every column that _flow, the
    inverses and the retraction curves form from E = [I_p; 0] and [A; R] is
    such a vector.
    """
    A = _skew_block(xi)
    Q, R = np.linalg.qr(xi.Xi - xi.base.U @ A)
    return np.hstack([xi.base.U, Q]), A, R
