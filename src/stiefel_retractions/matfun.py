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


# Blocks of the triangular Lyapunov solve at or below this size go to
# LAPACK's unblocked trsyl; larger ones are split and updated by GEMMs.
_LEAF = 32


def _cut(T: np.ndarray, lo: int, hi: int) -> int:
    """Midpoint of lo:hi, moved down one row so that no 2-by-2 block is cut."""
    m = (lo + hi) // 2
    return m + 1 if T[m, m - 1] != 0.0 else m


def _sylvester(T: np.ndarray, Y: np.ndarray, a0: int, a1: int, b0: int, b1: int) -> None:
    """Overwrite F = Y[a, b] with the X of T[a, a] X + X T[b, b].T = F.

    Recursive blocked Bartels-Stewart (Jonsson & Kagstrom, ACM TOMS 2002):
    the longer side is split, the trailing half solved first, and its
    contribution removed from the leading half by one GEMM. A trsyl that
    has to rescale or perturb the equation raises DomainError.
    """
    if max(a1 - a0, b1 - b0) <= _LEAF:
        X, scale, info = scipy.linalg.lapack.dtrsyl(
            T[a0:a1, a0:a1], T[b0:b1, b0:b1], Y[a0:a1, b0:b1], tranb="T"
        )
        if info or scale != 1.0:
            raise DomainError(
                f"solve_pf_sylvester: triangular solve rescaled or perturbed "
                f"(info {info}, scale {scale:.3e})"
            )
        Y[a0:a1, b0:b1] = X
    elif a1 - a0 >= b1 - b0:
        c = _cut(T, a0, a1)
        _sylvester(T, Y, c, a1, b0, b1)
        Y[a0:c, b0:b1] -= T[a0:c, c:a1] @ Y[c:a1, b0:b1]
        _sylvester(T, Y, a0, c, b0, b1)
    else:
        c = _cut(T, b0, b1)
        _sylvester(T, Y, a0, a1, c, b1)
        Y[a0:a1, b0:c] -= Y[a0:a1, c:b1] @ T[b0:c, c:b1].T
        _sylvester(T, Y, a0, a1, b0, c)


def _lyapunov(T: np.ndarray, Y: np.ndarray, lo: int, hi: int) -> None:
    """Overwrite the symmetric R = Y[s, s] with the Y of T[s, s] Y + Y T[s, s].T = R.

    With T = [[T11, T12], [0, T22]] split at _cut: Y22 solves the trailing
    Lyapunov equation, Y12 the Sylvester equation T11 Y12 + Y12 T22.T =
    R12 - T12 Y22, and Y11 the leading Lyapunov equation with right side
    R11 - (T12 Y12.T + Y12 T12.T). Y21 is Y12.T, so it is never solved for.
    """
    if hi - lo <= _LEAF:
        return _sylvester(T, Y, lo, hi, lo, hi)
    m = _cut(T, lo, hi)
    _lyapunov(T, Y, m, hi)
    Y[lo:m, m:hi] -= T[lo:m, m:hi] @ Y[m:hi, m:hi]
    _sylvester(T, Y, lo, m, m, hi)
    U = T[lo:m, m:hi] @ Y[lo:m, m:hi].T
    Y[lo:m, lo:m] -= U + U.T
    _lyapunov(T, Y, lo, m)
    Y[m:hi, lo:m] = Y[lo:m, m:hi].T


def solve_pf_sylvester(C: np.ndarray) -> np.ndarray:
    """Solve C @ X + X @ C.T = 2*I for symmetric X.

    Route: Bartels-Stewart on one real Schur form C = Z T Z.T (Bartels &
    Stewart, CACM 1972). With X = Z Y Z.T the equation becomes
    T Y + Y T.T = 2 I on the quasi-triangular T, solved by the recursive
    blocked algorithm of Jonsson & Kagstrom (ACM TOMS 2002): halve T,
    update by matrix products, and back-substitute with LAPACK's trsyl
    only on blocks of at most _LEAF rows. Only orthogonal transformations
    are involved, so the residual stays at roundoff level even when C is
    nearly defective and its eigenvector basis ill-conditioned.

    The eigenvalues d of C come from the same LAPACK gees call as T.
    Rejects pairs with |d_i + d_j| <= 1e-10 ||C||_F, where the equation
    is singular and the inverse polar factor retraction is undefined;
    ||C||_F needs no SVD and is never below ||C||_2. Raises DomainError
    too if the Schur iteration does not converge or a trsyl block has to
    be rescaled, so a partial solution is never returned.
    """
    C = _check_square(C, "C")
    # scipy.linalg.schur drops wr, wi; sort_t = 0, so no_sort is never called
    gees, no_sort = scipy.linalg.lapack.dgees, lambda wr, wi: None
    lwork = int(gees(no_sort, C, lwork=-1)[-2][0])
    T, _, wr, wi, Z, _, info = gees(no_sort, C, lwork=lwork)
    if info:
        raise DomainError(f"solve_pf_sylvester: real Schur form not found (info {info})")
    d = wr + 1j * wi
    pair_sums = np.abs(d[:, None] + d[None, :])
    eps_sylv = 1e-10 * np.linalg.norm(C)
    if np.min(pair_sums) <= eps_sylv:
        raise DomainError(
            "solve_pf_sylvester: eigenvalue pair sum near zero, "
            "inverse PF retraction undefined/ill-conditioned"
        )
    p = C.shape[0]
    Y = 2.0 * np.eye(p)
    _lyapunov(T, Y, 0, p)
    X = Z @ Y @ Z.T
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
