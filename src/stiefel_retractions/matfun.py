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


def _check_finite(M: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} contains non-finite entries")
    return M


def _check_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValidationError(f"{name} must be square and non-empty, got shape {M.shape}")
    return _check_finite(M, name)


def expm_skew(A: np.ndarray) -> np.ndarray:
    """Exponential of a skew-symmetric matrix; the result is in SO(p).

    Uses Pade scaling-and-squaring on the skew input; the output is
    returned as computed, without re-orthogonalization. Its output feeds
    logm_so roundtrips near pi, where the real eigh form of the geodesic
    flow in core is less accurate.
    """
    A = _check_square(A, "A")
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(A.shape[0]) * np.linalg.norm(A):
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

    Computed from S = V diag(w) V.T as T = Y Y.T with Y = V diag(w)^(-1/4),
    the unique SPD matrix with T @ S @ T = I; numpy forms Y @ Y.T with BLAS
    syrk, so T is exactly symmetric. Its relative error is about
    eps * cond(S) (Higham, 1986), so S is refused with DomainError once
    that exceeds tol_struct(1).
    """
    S = _check_square(S, "S")
    defect = np.linalg.norm(S - S.T)
    if defect > tol_struct(S.shape[0]) * np.linalg.norm(S):
        raise ValidationError(f"invsqrtm_spd: input not symmetric (defect {defect:.3e})")
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    if w[0] <= 0:
        raise ValidationError(
            f"invsqrtm_spd: input not positive definite (smallest eigenvalue {w[0]:.3e})"
        )
    if np.finfo(float).eps * w[-1] > tol_struct(1) * w[0]:
        raise DomainError(f"invsqrtm_spd: condition number {w[-1] / w[0]:.3e} too large")
    Y = V * w**-0.25
    return Y @ Y.T


# _polar_parts takes the Gram route only up to this condition number of C.T C.
# For ||C||_2 = 1 its error is about eps * cond(C.T C) = eps / sigma_min^2,
# within the SVD's 10 eps / sigma_min exactly when cond(C.T C) <= 1e2.
_GRAM_KAPPA = 1e2


def _polar_parts(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Polar factors of a square C: (C H^-1, H^-1, sigma_min), with H = (C.T C)^(1/2).

    A well-conditioned C takes the Gram route (Higham, 1986): H^-1 = Y Y.T
    with Y = V diag(w)^(-1/4) from S = C.T C = V diag(w) V.T, about half the
    cost of an SVD. Its error grows as eps * cond(S), so a Cholesky factor
    of S and its LAPACK 1-norm condition estimate (dpotrf, dpocon) gate the
    eigh, and the exact cond(S) = w[-1] / w[0] checks it again, since the
    estimate can fall short. Every other C takes the SVD C = M diag(s) R.T,
    with H^-1 = R diag(1/s) R.T, which is huge or not finite when C is
    (nearly) singular, so a caller checks sigma_min before using it.
    """
    S = C.T @ C
    chol, info = scipy.linalg.lapack.dpotrf(S)
    if info == 0 and scipy.linalg.lapack.dpocon(chol, np.linalg.norm(S, 1))[0] * _GRAM_KAPPA >= 1:
        w, V = np.linalg.eigh(S)
        if w[-1] <= _GRAM_KAPPA * w[0]:
            Y = V * w**-0.25
            T = Y @ Y.T
            return C @ T, T, float(np.sqrt(w[0]))
    M, s, Rt = np.linalg.svd(C)
    with np.errstate(all="ignore"):
        T = (Rt.T * (1.0 / s)) @ Rt
    return M @ Rt, T, float(s[-1])


# solve_pf_sylvester's Newton steps converge quadratically: a step d leaves
# an error of about d^2 ||C_k^-1||, and it stops once that is below _SIGN_TOL.
_SIGN_TOL = 1e-14
_SIGN_MAX_STEPS = 50
_SIGN_MAX_ROUNDING = 1e-2  # largest eps ||C||_F ||X||_F that leaves X certainly SPD
_NOT_STABLE = "C is not positive stable, so C X + X C.T = 2 I has no positive definite solution"


class _Undecided(DomainError):
    """solve_pf_sylvester could not decide whether C is positive stable."""


def solve_pf_sylvester(C: np.ndarray) -> np.ndarray:
    """Solve C @ X + X @ C.T = 2*I for a symmetric positive definite X.

    Such an X exists exactly when C is positive stable: every eigenvalue has
    a positive real part (Lyapunov). The determinant-scaled Newton iteration
    for sign(C) (Roberts, 1980; Byers, 1987) decides this and finds X: with
    c = |det C_k|^(-1/p) from the LU in _inv, the steps C_{k+1} = (c C_k +
    C_k^-1 / c) / 2 and Y_{k+1} = (c Y_k + C_k^-1 Y_k C_k^-T / c) / 2 from
    C_0 = C, Y_0 = 2 I keep C_k X + X C_k.T = Y_k, so X = Y_k / 2 once C_k
    reaches sign(C) = I. Each Y_k is SPD, but the computed X has errors of
    order eps ||X|| against eigenvalues of at least 1/||C||_2.

    Raises DomainError when an LU is exactly singular or trace(sign(C)) =
    p - 2 #{Re(eigenvalue) < 0} is below p - 1; its subclass _Undecided when
    the iteration does not converge or X is not finite or too
    ill-conditioned to be certified positive definite.
    """
    C = _check_square(C, "C")
    p, C_norm = C.shape[0], np.linalg.norm(C)
    Y = 2.0 * np.eye(p)
    with np.errstate(all="ignore"):  # overflow is caught as a non-finite X
        for _ in range(_SIGN_MAX_STEPS):
            C_inv, u_diag = _inv(C, f"solve_pf_sylvester: {_NOT_STABLE}")
            c = np.exp(-np.mean(np.log(np.abs(u_diag))))
            C_prev, C = C, 0.5 * (c * C + C_inv / c)
            Y = 0.5 * (c * Y + (C_inv @ Y @ C_inv.T) / c)
            err = np.linalg.norm(C - C_prev, 1) ** 2 * np.linalg.norm(C_inv, 1)
            if not np.isfinite(err) or err <= _SIGN_TOL * np.linalg.norm(C, 1):
                break
        else:
            raise _Undecided(
                f"solve_pf_sylvester: sign iteration did not converge in {_SIGN_MAX_STEPS} steps"
            )
    if np.trace(C) < p - 1:
        raise DomainError(f"solve_pf_sylvester: {_NOT_STABLE}")
    X = 0.25 * (Y + Y.T)
    rounding = np.finfo(float).eps * C_norm * np.linalg.norm(X)
    if not np.isfinite(rounding) or rounding > _SIGN_MAX_ROUNDING:
        raise _Undecided(
            f"solve_pf_sylvester: X not finite or ill-conditioned (eps |C| |X| = {rounding:.1e})"
        )
    return X


def _inv(M: np.ndarray, singular_message: str) -> tuple[np.ndarray, np.ndarray]:
    """M^-1 and the diagonal of M's upper LU factor, from one LAPACK dgetrf and dgetri.

    Raises DomainError(singular_message) when the LU is exactly singular.
    With OpenBLAS the blocked dgetri is quicker than a getrs solve with
    p right-hand sides: at p = 400 (1 thread) cay takes 9-12 ms this way
    and 15-16 ms by np.linalg.solve.
    """
    lu, piv, info = scipy.linalg.lapack.dgetrf(M)
    if info > 0:
        raise DomainError(singular_message)
    lwork = int(scipy.linalg.lapack.dgetri_lwork(M.shape[0])[0])
    return scipy.linalg.lapack.dgetri(lu, piv, lwork=lwork)[0], np.diagonal(lu)


def cay(A: np.ndarray) -> np.ndarray:
    """Cayley transform (I - A/2)^{-1} (I + A/2) = 2 (I - A/2)^{-1} - I; orthogonal for skew A."""
    A = _check_square(A, "A")
    eye = np.eye(A.shape[0])
    return 2.0 * _inv(eye - 0.5 * A, "cay: I - A/2 is singular")[0] - eye


def cay_inv(Q: np.ndarray) -> np.ndarray:
    """Inverse Cayley transform, 2 (Q - I)(Q + I)^{-1} = 2 I - 4 (I + Q)^{-1}.

    The result is skew-symmetrized, so it is exactly skew (A == -A.T)
    rather than skew up to roundoff. Raises DomainError when det(Q) < 0:
    Q then has the eigenvalue -1, so Q + I is singular.
    """
    Q = _check_square(Q, "Q")
    eye = np.eye(Q.shape[0])
    if np.linalg.det(Q) < 0:
        raise DomainError("cay_inv: Q has negative determinant, so I + Q is singular")
    A = 2.0 * eye - 4.0 * _inv(eye + Q, "cay_inv: I + Q is singular")[0]
    return 0.5 * (A - A.T)
