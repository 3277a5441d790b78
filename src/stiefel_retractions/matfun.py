"""Dense matrix functions on small square matrices.

Everything here operates on p-by-p arrays; the manifold
routines reduce their work to these kernels plus tall-skinny matrix
products. All functions are pure and validate their structural
preconditions (skewness, orthogonality, positive definiteness) before
computing; every argument must be real, finite and of norm at most
_MAX_NORM. invsqrtm_spd and logm_so sum a short power series in a
symmetric or skew X (_sym_series; X X.T = +-X^2) in place of their eigh,
and _polar_parts in place of its SVD, when the argument is provably close
to a multiple of I, and expm_skew in A / 2^s before s squarings; from
degree 8 on it sums in chunks of four powers by Horner's rule in X^4, to
the degree that the smaller of two certified bounds on ||X||_2 needs.
solve_pf_sylvester sums a Stein series by squared Smith doubling in place
of its Newton iteration when ||I - C||_2 is provably small. Both routes
take their proof from _norm_bound; expm_skew forms that bound once, before
it scales A. Every kernel runs in real arithmetic, and _inv, the only
direct LAPACK call, is scipy's only use.
"""

from __future__ import annotations

import bisect
import contextvars

import numpy as np
import scipy.linalg


class ValidationError(ValueError):
    """Input violates a structural precondition (shape, skewness, SPD, ...)."""


class DomainError(ValueError):
    """Input is outside the domain of the requested map (chart, log branch, ...)."""


# Rotation angles above pi - ANGLE_GUARD are rejected by the principal log.
ANGLE_GUARD = 1e-6

# logm_so logs rotation angles from 2 rad up through -Q, on a block cut off at
# C's widest eigenvalue gap at angles from pi/2 to 2 rad: the cut's error is
# ~1e-15/gap, and the log through -Q loses digits as a block angle goes to 0.
# The block starts 1e-10 above cos 2 in C's spectrum, so that eigh's rounding
# (~1e-15) cannot move a plane at exactly 2 rad out of it.
_EIGH_MAX_ANGLE = 2.0


# Largest Frobenius defect accepted for orthonormality, skewness or symmetry.
def tol_struct(p: int) -> float:
    return 1e-8 * np.sqrt(p)


# Largest Frobenius norm of an argument. The maps form Gram matrices M.T M
# with ||M||_F <= 2 ||Xi||_F + sqrt(p) and take Frobenius norms of those,
# fourth powers of ||M||_F, which stay finite below this bound.
_MAX_NORM = np.finfo(float).max ** 0.25 / 4

# While set to a list, each kernel appends (kernel, route, size) as it commits to
# a route, before any work that can raise; size is a series' degree m, logm_so's
# block or _inv's p.
_ROUTES: contextvars.ContextVar[list | None] = contextvars.ContextVar("_ROUTES", default=None)


def _note(kernel: str, route: str, size: int = 0) -> None:
    if (log := _ROUTES.get()) is not None:
        log.append((kernel, route, size))


def _check_entries(M: np.ndarray, name: str) -> np.ndarray:
    """M as a float array, once it is real, finite and of norm at most _MAX_NORM (or empty).

    Only bool, integer and float dtypes count as real; complex, string and
    object arrays are refused before any cast. ||M||_F is bounded by
    sqrt(size) max |M|, which squares no entry, so the check itself cannot
    overflow. A NaN or inf entry fails the same comparison, so the common
    case costs one max and one min.
    """
    M = np.asarray(M)
    if M.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be real, got dtype {M.dtype}")
    M = M.astype(float, copy=False)
    if not M.size:
        return M
    big = np.maximum(np.max(M), -np.min(M))
    if not big <= _MAX_NORM / np.sqrt(M.size):
        if not np.all(np.isfinite(M)):
            raise ValidationError(f"{name} contains non-finite entries")
        raise ValidationError(
            f"{name} too large: largest entry {big:.3e}, so products with it would overflow"
        )
    return M


def _check_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValidationError(f"{name} must be square and non-empty, got shape {M.shape}")
    return _check_entries(M, name)


# _sym_series sums at most this degree: 2 syrks and 4 p-by-p products (the cap was
# set at 8, at p = 400 about an eigh); its series reach ||X||_2 ~ 0.1.
_SERIES_DEGREE = 15
_EXP_DEGREE = 18  # the exponential's: one product more reaches 0.947, not 0.617
_B = np.cumprod(np.r_[1.0, 1.0 - 0.5 / np.arange(1, _SERIES_DEGREE + 2)])  # |binom(-1/2, k)|
_INVSQRT_COEFFS = _B * (-1.0) ** np.arange(_B.size)  # (1 + x)^(-1/2)
# theta / sin(theta) at y = sin^2(theta/2): arcsin(sqrt y) / sqrt(y) times (1 - y)^(-1/2)
_THETA_OVER_SIN_COEFFS = np.convolve(_B / (2 * np.arange(_B.size) + 1), _B)[: _B.size]
# exp(A) = sum_j (A A.T)^j (c_2j I + c_2j+1 A) for a skew A, as A A.T = -A^2
_EXP_COEFFS = (-1.0) ** (np.arange(_EXP_DEGREE + 2) // 2) / np.cumprod(np.r_[1.0, 1:_EXP_DEGREE + 2])


def _degree_limits(coeffs: np.ndarray) -> list[float]:
    """Per degree m, the largest r in [0, 1] with |c[m+1]| r^(m+1) <= 2^-54 (1 - r), by bisection.

    The limits do not decrease with m, as |c_k| does not grow.
    """
    limits = []
    for k in range(1, coeffs.size):
        c, lo, hi = abs(float(coeffs[k])), 0.0, 1.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if c * mid**k <= 2.0**-54 * (1.0 - mid) else (lo, mid)
        limits.append(lo)
    return limits


# _sym_series's degree table, per coefficient set by identity.
_DEGREE_LIMITS = {id(c): _degree_limits(c)
                  for c in (_INVSQRT_COEFFS, _THETA_OVER_SIN_COEFFS, _EXP_COEFFS)}


def _series_degree(coeffs: np.ndarray, rho: float) -> int | None:
    """The least m whose tail bound holds at r = rho, or None above the set's cap."""
    limits = _DEGREE_LIMITS[id(coeffs)]
    m = bisect.bisect_left(limits, rho)
    return m if m < len(limits) else None


def _norm_bound(X: np.ndarray, limit: float) -> tuple[np.ndarray, float] | None:
    """(X @ X.T, rho) with rho = sqrt(||X X.T||_1) >= ||X||_2 and rho <= limit, or None.

    ||X||_2 is at least the largest column norm, which refuses most X above
    the limit without a product; X @ X.T is one BLAS syrk.
    """
    if np.sqrt(np.max(np.einsum("ij,ij->j", X, X))) > limit:
        return None
    XXt = X @ X.T
    rho = float(np.sqrt(np.linalg.norm(XXt, 1)))
    return (XXt, rho) if rho <= limit else None


def _sym_series(X: np.ndarray, coeffs: np.ndarray, bound: tuple[np.ndarray, float] | None = None
                ) -> tuple[np.ndarray, float, int] | None:
    """(sum_k coeffs[k] X^k, rho, m) for a symmetric or skew X with ||X||_2 <= rho, or None.

    X^k stands for Y^(k // 2) X^(k % 2), Y = X X.T, which is X^2 for a
    symmetric X and -X^2 for a skew one. |c_k| must not grow: the degree m
    is then the least with a tail bound |c[m+1]| r^(m+1) / (1 - r) <= eps/4
    = 2^-54 at r >= ||X||_2, looked up by _series_degree in a table made at
    import; coeffs must be one of this module's coefficient sets. None
    means m > _SERIES_DEGREE at r = rho = sqrt(||Y||_1), from _norm_bound,
    whose Y the sum reuses; a caller that has already formed it passes
    bound = (Y, rho), with rho within the set's reach. Horner's rule
    over chunks of s powers (Paterson & Stockmeyer, 1973) then takes
    ceil((m + 1)/s) - 1 products, one fewer when the top chunk is c_m I
    alone: in Z = Y over the pairs c_2j I + c_2j+1 X (s = 2) or, once m is
    at least 8, in Z = Y^2 = Y Y.T, a second syrk, over the chunks c_4i I +
    c_4i+1 X + c_4i+2 Y + c_4i+3 Y X (s = 4; one more product for Y X).
    Y^2 also gives rho_2 = ||Y^2||_1^(1/4) >= ||X||_2, and m is then taken
    at r = min(rho, rho_2).
    """
    if bound is None and (bound := _norm_bound(X, _DEGREE_LIMITS[id(coeffs)][-1])) is None:
        return None
    Y, rho = bound
    p, m = X.shape[0], _series_degree(coeffs, rho)
    s, Z, powers = 2, Y, (X,)
    if m >= 8:  # below, at p = 400, the syrk costs more than the chunks save
        Z = Y @ Y.T
        m = _series_degree(coeffs, min(rho, float(np.linalg.norm(Z, 1)) ** 0.25))
        s, powers = 4, (X, Y, Y @ X)

    def add_chunk(R: np.ndarray, k: int, stop: int) -> None:  # R += c_j X^(j-k), k <= j < stop
        for c, P in zip(coeffs[k + 1 : stop], powers):
            R += c * P
        R.flat[:: p + 1] += coeffs[k]

    top = max(m, 1)  # R starts as c_top X^(top-k), or as c_top Z when c_top I is a chunk
    k = top - (top % s or s)
    R = coeffs[top] * (powers[top % s - 1] if top % s else Z)
    add_chunk(R, k, top)
    while k:
        k -= s
        R = Z @ R
        add_chunk(R, k, k + s)
    return R, rho, m


def _check_expm_norm(A_norm: float) -> None:
    """Refuse, with DomainError, the exponential of a skew matrix of Frobenius norm A_norm
    once its orthogonality defect, about eps A_norm, passes tol_struct(1)."""
    if np.finfo(float).eps * A_norm > tol_struct(1):
        raise DomainError(f"expm_skew: norm {A_norm:.3e} too large to exponentiate accurately")


def expm_skew(A: np.ndarray) -> np.ndarray:
    """Exponential of a skew-symmetric matrix; the result is in SO(p).

    exp(A) = exp(A / 2^s)^(2^s) (Moler & Van Loan, 2003) for the least s
    with rho / 2^s within the series' reach (about 0.95), rho = sqrt(||Y||_1)
    from one syrk Y = A A.T. Halving A quarters Y exactly, so _sym_series
    takes (Y / 4^s, rho / 2^s) as the bound of A / 2^s and sums the Taylor
    series sum_j (A A.T)^j (c_2j I + c_2j+1 A), c_k = (-1)^(k // 2) / k!,
    as A A.T = -A^2; s squarings follow. The output is returned as
    computed, without re-orthogonalization. It feeds logm_so roundtrips
    near pi, where the real eigh form of the geodesic flow in core is less
    accurate. Its orthogonality defect grows as eps ||A||, so A is refused
    with DomainError once that exceeds tol_struct(1), at ||A||_F above
    about 4.5e7.
    """
    A = _check_square(A, "A")
    A_norm = np.linalg.norm(A)
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(A.shape[0]) * A_norm:
        raise ValidationError(f"expm_skew: input not skew-symmetric (defect {defect:.3e})")
    _check_expm_norm(A_norm)
    Y = A @ A.T
    rho, s = float(np.sqrt(np.linalg.norm(Y, 1))), 0
    while rho * 0.5**s > _DEGREE_LIMITS[id(_EXP_COEFFS)][-1]:
        s += 1
    R, _, m = _sym_series(A * 0.5**s, _EXP_COEFFS, (Y * 0.25**s, rho * 0.5**s))
    _note("expm_skew", *(("squared", s) if s else ("series", m)))
    return np.linalg.matrix_power(R, 2**s)


def logm_so(Q: np.ndarray) -> np.ndarray:
    """Principal logarithm of a special orthogonal matrix.

    C = (Q + Q.T)/2 commutes with S = (Q - Q.T)/2, so each eigenspace of C
    is Q-invariant. On the eigenvalues cos(theta) of C with theta below 2
    rad (usually all) the log is S phi(C), phi = theta / sin(theta)
    (Gallier & Xu, 2002). When every angle is below about 0.66 rad,
    _sym_series sums phi as a series in Y = (I - C)/2, of eigenvalues
    sin^2(theta/2), and neither refusal below can apply. Otherwise one
    real symmetric eigh of C splits Q in two. The rest, the block with
    eigenvectors Vb and eigenvalues w_b, is logged through -Qb, Qb = Vb.T Q
    Vb, which turns each plane by pi - theta and whose symmetric part is
    -diag(w_b): the same formula gives L = log(-Qb) = -(Vb.T S Vb)
    phi(-w_b), and log(Qb) = L - pi polar(L), with the polar factor from
    one SVD of L, accurate up to the branch boundary. The cut sits at C's
    widest eigenvalue gap at angles from pi/2 to 2 rad, so it never cuts a
    rotation plane and keeps small angles, where L loses digits, out of
    the block. The result is exactly skew.

    Raises DomainError, decided on the block, when a rotation angle
    reaches pi - ANGLE_GUARD: sigma_min(L) = pi - theta_max. This also
    catches det(Q) = -1, whose eigenvalue -1 always lands in the block and
    leaves L a zero singular value.
    """
    Q = _check_square(Q, "Q")
    p = Q.shape[0]
    defect = np.linalg.norm(Q.T @ Q - np.eye(p))
    if defect > tol_struct(p):
        raise ValidationError(f"logm_so: input not orthogonal (defect {defect:.3e})")
    C, S = 0.5 * (Q + Q.T), 0.5 * (Q - Q.T)
    Y = -0.5 * C
    Y.flat[:: p + 1] += 0.5
    series = _sym_series(Y, _THETA_OVER_SIN_COEFFS)
    if series is not None:
        _note("logm_so", "series", series[2])
        A = S @ series[0]
        return 0.5 * (A - A.T)
    w, V = np.linalg.eigh(C)
    k = np.searchsorted(w, np.cos(_EIGH_MAX_ANGLE) + 1e-10, side="right")
    if k:  # the np.inf gap lets the block take all of Q when every angle is >= pi/2
        k += np.argmax(np.diff(np.append(w, np.inf)[k - 1 : np.searchsorted(w, 0.0, "right") + 1]))
    _note("logm_so", "eigh", int(k))
    Va, Vb = V[:, k:], V[:, :k]
    # phi = theta / sin(theta) at theta = arccos(w), and in the block at pi - theta =
    # arccos(-w); np.sinc is exact at 0
    phi = 1.0 / np.sinc(np.arccos(np.minimum(np.r_[-w[:k], w[k:]], 1.0)) / np.pi)
    A = S @ ((Va * phi[k:]) @ Va.T)
    if k:
        L = -(Vb.T @ S @ Vb) * phi[:k]
        M, s, Rt = np.linalg.svd(L)
        if s[-1] < ANGLE_GUARD:
            raise DomainError(
                "logm_so: rotation angle at or near pi, outside principal-log domain"
            )
        A += Vb @ (L - np.pi * (M @ Rt)) @ Vb.T
    return 0.5 * (A - A.T)


def _invsqrt_series(S: np.ndarray) -> tuple[np.ndarray, float, int] | None:
    """(S^(-1/2), exactly symmetric, a lower bound on sqrt(lambda_min(S)), the degree), or None.

    _sym_series in E = S/mu - I, mu = trace(S)/p: ||E||_2 <= rho < 1 proves
    S positive definite with eigenvalues in [mu (1 - rho), mu (1 + rho)].
    |S_ij| < 2 mu is necessary for that and keeps S/mu finite.
    """
    p = S.shape[0]
    mu = np.trace(S) / p
    if not np.maximum(np.max(S), -np.min(S)) < 2.0 * mu:
        return None
    E = S / mu
    E.flat[:: p + 1] -= 1.0
    series = _sym_series(E, _INVSQRT_COEFFS)
    if series is None:
        return None
    R, rho, m = series
    return (0.5 / np.sqrt(mu)) * (R + R.T), float(np.sqrt(mu * (1.0 - rho))), m


def _check_spd_condition(w_min: float, w_max: float) -> None:
    """Refuse, with DomainError, an SPD inverse square root whose error eps w_max / w_min
    passes tol_struct(1), for the matrix's extreme eigenvalues w_min and w_max."""
    if np.finfo(float).eps * w_max > tol_struct(1) * w_min:
        raise DomainError(f"invsqrtm_spd: condition number {w_max / w_min:.3e} too large")


def invsqrtm_spd(S: np.ndarray) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix.

    An S close to a multiple of I takes _invsqrt_series. Any other is
    computed from S = V diag(w) V.T as T = Y Y.T with Y = V diag(w)^(-1/4),
    the unique SPD matrix with T @ S @ T = I; numpy forms Y @ Y.T with BLAS
    syrk, so T is exactly symmetric. Its relative error is about
    eps * cond(S) (Higham, 1986), so S is refused with DomainError once
    that exceeds tol_struct(1).
    """
    S = _check_square(S, "S")
    defect = np.linalg.norm(S - S.T)
    if defect > tol_struct(S.shape[0]) * np.linalg.norm(S):
        raise ValidationError(f"invsqrtm_spd: input not symmetric (defect {defect:.3e})")
    S = 0.5 * (S + S.T)
    series = _invsqrt_series(S)
    if series is not None:
        _note("invsqrtm_spd", "series", series[2])
        return series[0]
    _note("invsqrtm_spd", "eigh")
    w, V = np.linalg.eigh(S)
    if w[0] <= 0:
        raise ValidationError(
            f"invsqrtm_spd: input not positive definite (smallest eigenvalue {w[0]:.3e})"
        )
    _check_spd_condition(w[0], w[-1])
    Y = V * w**-0.25
    return Y @ Y.T


def _polar_parts(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Polar factors of a square C: (C H^-1, H^-1, sigma_min), with H = (C.T C)^(1/2).

    When S = C.T C is close to mu I, H^-1 comes from _invsqrt_series and
    sigma_min is its lower bound sqrt(mu (1 - rho)). Every other C takes
    the SVD C = M diag(s) R.T, with H^-1 = R diag(1/s) R.T, whose error
    stays first order in 1/sigma_min. H^-1 is huge or not finite when C is
    (nearly) singular, so a caller checks sigma_min before using it.
    """
    C = _check_square(C, "C")
    series = _invsqrt_series(C.T @ C)
    if series is not None:
        _note("_polar_parts", "series", series[2])
        return C @ series[0], series[0], series[1]
    _note("_polar_parts", "svd")
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

# _smith_doubling takes C only when its Cayley transform A is certified below
# this cap in norm: at p = 400 and C = I - 0.46 W, W orthogonal (||A||_2 = 0.3),
# 5 doublings take 55 ms against Newton's 85 (1 OpenBLAS thread, 2-core Xeon VM).
# The cap also keeps the route accurate: its error grows as eps / (1 - ||A||_2),
# to 9e-5 relative on C = diag(1 ... 0.5, 1e-12), where Newton's stays below 1e-15.
_SMITH_CAP = 0.3


class _Undecided(DomainError):
    """solve_pf_sylvester could not decide whether C is positive stable."""


def _smith_doubling(C: np.ndarray) -> np.ndarray | None:
    """The SPD X with C X + X C.T = 2 I by squared Smith doubling, or None.

    With G = (I + C)^-1 and the Cayley transform A = G (I - C) = 2 G - I,
    the equation is the Stein equation X - A X A.T = 4 G G.T, whose
    solution X_inf is sum_j A^j 4 G G.T A.T^j (Smith, 1968; Penzl, 2000).
    Before any LU, _norm_bound gives d >= ||D||_2, D = I - C, most often
    from a column norm alone, and C is taken only when d / (2 - d) <=
    _SMITH_CAP, equality included. As A = D (2 I - D)^-1, that bounds
    ||A||_2 by the cap, which proves C positive stable, X SPD
    (X >= 4 G G.T > 0) and ||X||_2, ||C||_2 < 1.86, far inside
    solve_pf_sylvester's rounding check; and
    sigma_min(I + C) >= 2 - d > 1.5, so the LU cannot be singular. Doubling
    i, X <- X + A_i X A_i.T with A_i = A^(2^i), leaves a tail A_(i+1) X_inf
    A_(i+1).T of norm at most ||A_i||_F^4 ||X_inf||, so the sum stops once
    ||A_i||_F^4 <= 2^-54: within 5 doublings for p up to 1e8.
    """
    p = C.shape[0]
    D = -C
    D.flat[:: p + 1] += 1.0
    if _norm_bound(D, 2.0 * _SMITH_CAP / (1.0 + _SMITH_CAP)) is None:
        return None
    _note("solve_pf_sylvester", "smith")
    G = _inv(np.eye(p) + C, "I + C is singular")
    A = 2.0 * G
    A.flat[:: p + 1] -= 1.0
    X = 4.0 * (G @ G.T)
    while True:
        X += A @ X @ A.T
        if np.linalg.norm(A) ** 4 <= 2.0**-54:
            return 0.5 * (X + X.T)
        A = A @ A


def solve_pf_sylvester(C: np.ndarray) -> np.ndarray:
    """Solve C @ X + X @ C.T = 2*I for a symmetric positive definite X.

    Such an X exists exactly when C is positive stable: every eigenvalue has
    a positive real part (Lyapunov). A C close to I takes _smith_doubling,
    which proves that. Any other C takes the Newton iteration for sign(C)
    (Roberts, 1980; Byers, 1987), which decides it and finds X: from C_0 =
    C, Y_0 = 2 I the steps C_{k+1} = (c C_k + C_k^-1 / c) / 2 and Y_{k+1} =
    (c Y_k + C_k^-1 Y_k C_k^-T / c) / 2 keep C_k X + X C_k.T = Y_k, so X =
    Y_k / 2 once C_k reaches sign(C) = I. The scale c = (||C_k^-1||_1 /
    ||C_k||_1)^(1/2) takes the 1-norms of the stopping test (Kenney & Laub,
    1992; Higham, 2008, sec. 5.5). Each Y_k is SPD, but the computed X has
    errors of order eps ||X|| against eigenvalues of at least 1/||C||_2.

    Raises DomainError when an LU is exactly singular or trace(sign(C)) =
    p - 2 #{Re(eigenvalue) < 0} is below p - 1; its subclass _Undecided when
    the iteration does not converge or X is not finite or too ill-conditioned
    to be certified positive definite. Only the Newton iteration raises.
    """
    C = _check_square(C, "C")
    p = C.shape[0]
    with np.errstate(all="ignore"):  # overflow is caught as a non-finite X
        X = _smith_doubling(C)
        if X is not None:
            return X
        _note("solve_pf_sylvester", "newton")
        Y, C_norm, C_1norm = 2.0 * np.eye(p), np.linalg.norm(C), np.linalg.norm(C, 1)
        for _ in range(_SIGN_MAX_STEPS):
            C_inv = _inv(C, f"solve_pf_sylvester: {_NOT_STABLE}")
            C_inv_1norm = np.linalg.norm(C_inv, 1)
            c = np.sqrt(C_inv_1norm / C_1norm)
            C_prev, C = C, 0.5 * (c * C + C_inv / c)
            Y = 0.5 * (c * Y + (C_inv @ Y @ C_inv.T) / c)
            C_1norm = np.linalg.norm(C, 1)
            err = np.linalg.norm(C - C_prev, 1) ** 2 * C_inv_1norm
            if not np.isfinite(err) or err <= _SIGN_TOL * C_1norm:
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


def _inv(M: np.ndarray, singular_message: str) -> np.ndarray:
    """M^-1 from one LAPACK dgetrf and dgetri; DomainError(singular_message) if exactly singular.

    Not scipy.linalg.inv: scipy 1.17 warns LinAlgWarning on an ill-conditioned
    M ("rcond = 1e+17" on diag(1, 1e-17)), a RuntimeWarning and so an error
    under the tests' filter. Not np.linalg.solve with p right-hand sides: at
    p = 400 (OpenBLAS, 1 thread) cay takes 15-16 ms that way and 9-12 ms here.
    Not np.linalg.inv, which solves against I (8/3 p^3 flops to dgetri's 2
    p^3): pinned to one core and one OpenBLAS thread (2-core Xeon VM) it takes
    0.29-0.33 ms against 0.19 ms here at p = 100, and 11.7-12.8 ms against
    7.0-8.4 ms at p = 400. Swapped in here, it moved pf_inv's p75 on the
    geodesic_edge benchmark's seed-1 edge pairs from 4.27-4.48 to 5.29-5.43
    ms (+22-25%), over three rounds of 5 passes. This is scipy's only use.
    """
    _note("_inv", "lu", M.shape[0])
    lu, piv, info = scipy.linalg.lapack.dgetrf(M)
    if info > 0:
        raise DomainError(singular_message)
    lwork = int(scipy.linalg.lapack.dgetri_lwork(M.shape[0])[0])
    return scipy.linalg.lapack.dgetri(lu, piv, lwork=lwork)[0]


def cay(A: np.ndarray) -> np.ndarray:
    """Cayley transform (I - A/2)^{-1} (I + A/2) = 2 (I - A/2)^{-1} - I; orthogonal for skew A.

    A must be skew up to tol_struct(p) relative to its norm, as in expm_skew.
    """
    A = _check_square(A, "A")
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(A.shape[0]) * np.linalg.norm(A):
        raise ValidationError(f"cay: input not skew-symmetric (defect {defect:.3e})")
    eye = np.eye(A.shape[0])
    return 2.0 * _inv(eye - 0.5 * A, "cay: I - A/2 is singular") - eye


def cay_inv(Q: np.ndarray) -> np.ndarray:
    """Inverse Cayley transform, 2 (Q - I)(Q + I)^{-1} = 2 I - 4 (I + Q)^{-1}.

    The result is skew-symmetrized, so it is exactly skew (A == -A.T)
    rather than skew up to roundoff. Raises DomainError when det(Q) < 0:
    Q then has the eigenvalue -1, so Q + I is singular. As (I + Q)^-1 +
    (I + Q)^-T = I exactly when Q.T Q = I, Q is refused as not orthogonal
    once ||A + A.T||_F exceeds tol_struct(p) max(1, ||A||_F).
    """
    Q = _check_square(Q, "Q")
    eye = np.eye(Q.shape[0])
    if np.linalg.slogdet(Q)[0] < 0:
        raise DomainError("cay_inv: Q has negative determinant, so I + Q is singular")
    A = 2.0 * eye - 4.0 * _inv(eye + Q, "cay_inv: I + Q is singular")
    defect = np.linalg.norm(A + A.T)
    if defect > tol_struct(Q.shape[0]) * max(1.0, np.linalg.norm(A)):
        raise ValidationError(f"cay_inv: input not orthogonal (defect {defect:.3e})")
    return 0.5 * (A - A.T)
