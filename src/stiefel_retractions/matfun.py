"""Dense matrix functions on small square matrices.

Everything here operates on p-by-p arrays; the manifold
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

# logm_so sends rotation angles from 2 rad up to complex Schur, split off at
# an eigenvalue gap of at least _SPLIT_GAP: the split's error is ~1e-15/gap.
# The cut sits 1e-10 above cos 2 in C's spectrum, so that eigh's rounding
# (~1e-15) cannot move a plane at exactly 2 rad out of the block.
_EIGH_MAX_ANGLE = 2.0
_SPLIT_GAP = 1e-2


# Largest Frobenius defect accepted for orthonormality, skewness or symmetry.
def tol_struct(p: int) -> float:
    return 1e-8 * np.sqrt(p)


EPS_SPD = 1e-12


def _check_finite(M: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def _check_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {M.shape}")
    return _check_finite(M, name)


def expm_skew(A: np.ndarray) -> np.ndarray:
    """Exponential of a skew-symmetric matrix; the result is in SO(p).

    Uses Pade scaling-and-squaring on the skew input; the output is
    returned as computed, without re-orthogonalization. Its output feeds
    logm_so roundtrips near pi, where the real eigh form of the geodesic
    flow in core is less accurate.
    """
    A = _check_square(A, "A")
    p = A.shape[0]
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(p):
        raise ValidationError(f"expm_skew: input not skew-symmetric (defect {defect:.3e})")
    return scipy.linalg.expm(A)


def logm_so(Q: np.ndarray) -> np.ndarray:
    """Principal logarithm of a special orthogonal matrix.

    C = (Q + Q.T)/2 commutes with S = (Q - Q.T)/2, so each eigenspace of C
    is Q-invariant, and one real symmetric eigh of C splits Q in two. On the
    eigenvalues cos(theta) of C with theta below 2 rad (usually all) the log
    is S phi(C), phi(c) = arccos(c)/sqrt(1 - c^2) (Gallier & Xu, 2002). The
    rest, with eigenvectors Vb, is logged from the complex Schur form of the
    small block Vb.T Q Vb, which stays accurate up to the branch boundary.
    The split moves up to the next wide gap in C's spectrum, so it never
    cuts a rotation plane. The result is exactly skew.

    Raises DomainError, decided on the block, when a rotation angle
    reaches pi; this also catches det(Q) = -1, whose eigenvalue -1 always
    lands in the block.
    """
    Q = _check_square(Q, "Q")
    p = Q.shape[0]
    defect = np.linalg.norm(Q.T @ Q - np.eye(p))
    if defect > tol_struct(p):
        raise ValidationError(f"logm_so: input not orthogonal (defect {defect:.3e})")
    w, V = np.linalg.eigh(0.5 * (Q + Q.T))
    k = np.searchsorted(w, np.cos(_EIGH_MAX_ANGLE) + 1e-10, side="right")
    if k:
        k += np.argmax(np.append(np.diff(w[k - 1 :]) >= _SPLIT_GAP, True))
    Va, Vb = V[:, k:], V[:, :k]
    # phi = theta / sin(theta) at theta = arccos(w); np.sinc is exact at 0
    phi = 1.0 / np.sinc(np.arccos(np.minimum(w[k:], 1.0)) / np.pi)
    A = (0.5 * (Q - Q.T)) @ ((Va * phi) @ Va.T)
    if k:
        T, Z = scipy.linalg.schur(Vb.T @ Q @ Vb, output="complex")
        theta = np.angle(np.diagonal(T))
        if np.max(np.abs(theta)) > np.pi - ANGLE_GUARD:
            raise DomainError(
                "logm_so: rotation angle at or near pi, outside principal-log domain"
            )
        W = Vb @ Z
        A += ((W * (1j * theta)) @ W.conj().T).real
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
    eigenvalue pairs of T with |d_i + d_j| <= 1e-10 ||C||_F, where the
    equation is singular and the inverse polar factor retraction is
    undefined. ||C||_F needs no SVD and is never below ||C||_2.
    """
    C = _check_square(C, "C")
    T, Z = scipy.linalg.schur(C)
    d = np.linalg.eigvals(T)
    pair_sums = np.abs(d[:, None] + d[None, :])
    eps_sylv = 1e-10 * np.linalg.norm(C)
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
