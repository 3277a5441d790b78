"""Dense matrix functions on small square matrices.

Everything here operates on p-by-p (or 2p-by-2p) arrays; the manifold
routines reduce their work to these kernels plus tall-skinny matrix
products. All functions are pure and validate their structural
preconditions (skewness, orthogonality, positive definiteness) before
computing.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class ValidationError(ValueError):
    """Input violates a structural precondition (shape, skewness, SPD, ...)."""


class DomainError(ValueError):
    """Input is outside the domain of the requested map (chart, log branch, ...)."""


# Rotation angles above pi - ANGLE_GUARD are rejected by the principal log.
ANGLE_GUARD = 1e-6

# Largest rotation angle logm_so takes on its eigh route; above it the
# route's error grows as 1/(pi - theta) (about 2e-11 at pi - 1e-2 and
# 2e-9 at pi - 1e-3 for p=400) and the complex Schur route takes over.
_EIGH_MAX_ANGLE = 2.0


# Largest Frobenius defect accepted for orthonormality, skewness or symmetry.
def tol_struct(p: int) -> float:
    return 1e-8 * np.sqrt(p)


EPS_SPD = 1e-12


def _check_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def expm_skew(A: np.ndarray) -> np.ndarray:
    """Exponential of a skew-symmetric matrix; the result is in SO(p).

    Uses scaling-and-squaring on the skew input; the output is returned
    as computed, without re-orthogonalization.
    """
    A = _check_square(A, "A")
    p = A.shape[0]
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(p):
        raise ValidationError(f"expm_skew: input not skew-symmetric (defect {defect:.3e})")
    return scipy.linalg.expm(A)


def _theta_over_sin(c: np.ndarray) -> np.ndarray:
    """phi(c) = arccos(c) / sqrt(1 - c^2), i.e. theta / sin(theta) at c = cos(theta).

    Below theta = 1e-4 the Taylor branch 1 + theta^2/6 replaces the 0/0 quotient.
    """
    c = np.minimum(c, 1.0)
    theta = np.arccos(c)
    small = theta < 1e-4
    sin = np.where(small, 1.0, np.sqrt((1.0 - c) * (1.0 + c)))
    return np.where(small, 1.0 + theta**2 / 6.0, theta / sin)


def logm_so(Q: np.ndarray) -> np.ndarray:
    """Principal logarithm of a special orthogonal matrix.

    Two routes, chosen by the largest rotation angle theta_max of Q:

    * theta_max <= _EIGH_MAX_ANGLE (2 rad), the usual case: one real
      symmetric eigendecomposition. With C = (Q + Q.T)/2 and
      S = (Q - Q.T)/2, which commute because Q is normal, the log is
      S phi(C) with phi(c) = arccos(c)/sqrt(1 - c^2) (Gallier & Xu,
      2002), evaluated on the eigenvalues cos(theta) of C.
    * Larger angles: Q's complex Schur form is diagonal, and the log is
      reassembled from the principal logs i*theta of its unit-modulus
      eigenvalues. This route stays accurate up to the branch boundary,
      where the eigh route loses digits as 1/(pi - theta).

    Both routes skew-symmetrize the result, so it is exactly skew.

    Raises DomainError when a rotation angle reaches pi (the principal
    branch boundary); this also catches det(Q) = -1 inputs. Both
    decisions are made on the Schur route only.
    """
    Q = _check_square(Q, "Q")
    p = Q.shape[0]
    defect = np.linalg.norm(Q.T @ Q - np.eye(p))
    if defect > tol_struct(p):
        raise ValidationError(f"logm_so: input not orthogonal (defect {defect:.3e})")
    w, V = np.linalg.eigh(0.5 * (Q + Q.T))
    if w[0] > np.cos(_EIGH_MAX_ANGLE):
        A = (0.5 * (Q - Q.T)) @ ((V * _theta_over_sin(w)) @ V.T)
        return 0.5 * (A - A.T)
    T, Z = scipy.linalg.schur(Q, output="complex")
    theta = np.angle(np.diagonal(T))
    if np.max(np.abs(theta)) > np.pi - ANGLE_GUARD:
        raise DomainError(
            "logm_so: rotation angle at or near pi, outside principal-log domain"
        )
    A = ((Z * (1j * theta)) @ Z.conj().T).real
    return 0.5 * (A - A.T)


def invsqrtm_spd(S: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix.

    Computed by symmetric eigendecomposition; the result T is the unique
    SPD matrix with T @ S @ T = I.
    """
    S = _check_square(S, "S")
    p = S.shape[0]
    defect = np.linalg.norm(S - S.T)
    if defect > tol_struct(p):
        raise ValidationError(f"invsqrtm_spd: input not symmetric (defect {defect:.3e})")
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    if w[0] <= EPS_SPD:
        raise ValidationError(
            f"invsqrtm_spd: input not positive definite (smallest eigenvalue {w[0]:.3e})"
        )
    T = (V * w**-0.5) @ V.T
    return 0.5 * (T + T.T)


def solve_pf_sylvester(C: np.ndarray) -> np.ndarray:
    """Solve C @ X + X @ C.T = 2*I for symmetric X.

    Route: Bartels-Stewart on one real Schur form C = Z T Z.T (Bartels &
    Stewart, CACM 1972). With X = Z Y Z.T the equation becomes
    T Y + Y T.T = 2 I, which LAPACK's trsyl solves by back substitution
    on the quasi-triangular T. Only orthogonal transformations are
    involved, so the residual stays at roundoff level even when C is
    nearly defective and its eigenvector basis ill-conditioned. Rejects
    eigenvalue pairs of T with d_i + d_j near zero, where the equation
    is singular and the inverse polar factor retraction is undefined.
    """
    C = _check_square(C, "C")
    T, Z = scipy.linalg.schur(C)
    d = np.linalg.eigvals(T)
    pair_sums = np.abs(d[:, None] + d[None, :])
    eps_sylv = 1e-10 * np.linalg.norm(C, 2)
    if np.min(pair_sums) <= eps_sylv:
        raise DomainError(
            "solve_pf_sylvester: eigenvalue pair sum near zero, "
            "inverse PF retraction undefined/ill-conditioned"
        )
    Y, scale, _ = scipy.linalg.lapack.dtrsyl(T, T, 2.0 * np.eye(C.shape[0]), tranb="T")
    X = Z @ (Y / scale) @ Z.T
    return 0.5 * (X + X.T)


def cay(A: np.ndarray) -> np.ndarray:
    """Cayley transform (I - A/2)^{-1} (I + A/2); orthogonal for skew A."""
    A = _check_square(A, "A")
    p = A.shape[0]
    try:
        return np.linalg.solve(np.eye(p) - 0.5 * A, np.eye(p) + 0.5 * A)
    except np.linalg.LinAlgError as exc:
        raise DomainError("cay: I - A/2 is singular") from exc


def cay_inv(Q: np.ndarray) -> np.ndarray:
    """Inverse Cayley transform, 2 (Q - I)(Q + I)^{-1}.

    The result is skew-symmetrized, so it is exactly skew (A == -A.T)
    rather than skew up to roundoff.
    """
    Q = _check_square(Q, "Q")
    p = Q.shape[0]
    try:
        A = 2.0 * np.linalg.solve((np.eye(p) + Q).T, (Q - np.eye(p)).T).T
    except np.linalg.LinAlgError as exc:
        raise DomainError("cay_inv: I + Q is singular") from exc
    return 0.5 * (A - A.T)
