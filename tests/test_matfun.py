import numpy as np
import pytest
import scipy.linalg

from stiefel_retractions import matfun
from stiefel_retractions.core import rand_point, rand_tangent
from stiefel_retractions.matfun import (
    DomainError,
    ValidationError,
    cay,
    cay_inv,
    expm_skew,
    invsqrtm_spd,
    logm_so,
    solve_pf_sylvester,
)
from stiefel_retractions.retractions import pl_ret


def random_skew(p, rng, scale=1.0):
    A = rng.standard_normal((p, p))
    return scale * 0.5 * (A - A.T)


def planar_rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def skew_with_angles(angles, p, rng):
    """Skew p-by-p matrix with the given rotation angles in a random orthonormal basis."""
    J = np.zeros((p, p))
    for k, theta in enumerate(angles):
        J[2 * k + 1, 2 * k] = theta
        J[2 * k, 2 * k + 1] = -theta
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    A = Q @ J @ Q.T
    return 0.5 * (A - A.T)


def skew_with_largest_angle(theta_max, p, rng):
    """skew_with_angles: angles uniform in [0, pi/2), the first set to theta_max."""
    angles = rng.uniform(0.0, np.pi / 2, p // 2)
    angles[0] = theta_max
    return skew_with_angles(angles, p, rng)


class TestExpmSkew:
    def test_zero(self):
        assert np.allclose(expm_skew(np.zeros((3, 3))), np.eye(3))

    def test_planar_rotation(self):
        theta = np.pi / 2
        A = np.array([[0.0, -theta], [theta, 0.0]])
        assert np.allclose(expm_skew(A), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_group_inverse(self):
        rng = np.random.default_rng(0)
        A = random_skew(5, rng)
        Q = expm_skew(A) @ expm_skew(-A)
        assert np.linalg.norm(Q - np.eye(5)) < 1e-12

    def test_output_special_orthogonal(self):
        rng = np.random.default_rng(1)
        A = random_skew(7, rng, scale=2.0)
        Q = expm_skew(A)
        assert np.linalg.norm(Q.T @ Q - np.eye(7)) < 1e-8 * np.sqrt(7)
        assert np.linalg.det(Q) > 0

    def test_rejects_non_skew(self):
        with pytest.raises(ValidationError):
            expm_skew(np.eye(3))

    def test_skew_defect_relative_to_norm(self):
        # a symmetric part of 1e-5, far above the absolute tol_struct(4) but
        # at roundoff of ||A|| ~ 2.6e7, is accepted; 1e7 is the largest
        # decade whose norm is still exponentiated accurately
        A = random_skew(4, np.random.default_rng(2), scale=1e7)
        A[0, 1] += 1e-5
        expm_skew(A)

    @pytest.mark.parametrize("norm", [1.0, 3.0, 10.0, 100.0, 1e4])
    @pytest.mark.parametrize("p", [10, 100])
    def test_squared_route_matches_scipy_expm(self, p, norm, routes):
        # the least s with rho / 2^s, rho = sqrt(||A A.T||_1), within the series
        # limit, as halving A halves rho exactly; every norm here needs s >= 1.
        # Seeded runs read ||Q - expm(A)||_F at most 2.2 eps ||A||_2 sqrt(p)
        A = random_skew(p, np.random.default_rng(p))
        A *= norm / np.linalg.norm(A, 2)
        rho = np.sqrt(np.linalg.norm(A @ A.T, 1))
        s = int(np.ceil(np.log2(rho / series_limit(matfun._EXP_COEFFS))))
        with routes() as log:
            Q = expm_skew(A)
        assert s >= 1 and log == [("expm_skew", "squared", s)]
        err = np.linalg.norm(Q - scipy.linalg.expm(A))
        assert err <= 10.0 * np.finfo(float).eps * norm * np.sqrt(p)
        assert np.linalg.norm(Q.T @ Q - np.eye(p)) <= matfun.tol_struct(p)


def column_norm_expm_skew(A):
    """expm_skew's former scaling search, with its route: _sym_series tried at each s in turn.

    The search started at the least s whose largest column norm of A / 2^s
    is within the series' reach, and each refused try cost one syrk.
    """
    limit = matfun._DEGREE_LIMITS[id(matfun._EXP_COEFFS)][-1]
    col = np.sqrt(np.max(np.einsum("ij,ij->j", A, A))) / limit
    s = int(np.ceil(np.log2(col))) if col > 1.0 else 0
    while (series := matfun._sym_series(A * 0.5**s, matfun._EXP_COEFFS)) is None:
        s += 1
    route = ("squared", s) if s else ("series", series[2])
    return np.linalg.matrix_power(series[0], 2**s), route


class TestExpmSkewScaling:
    @pytest.mark.parametrize("p,norm", [
        *((p, norm) for p in (2, 7, 40)
          for norm in (0.0, 1e-3, 0.5, 0.94, 0.95, 1.0, 3.0, 1e2, 1e4, 1e6)),
        (100, 0.3), (100, 50.0), (400, 1.0), (400, 1e4)])
    def test_one_bound_matches_the_column_norm_search(self, p, norm, routes):
        # rho / 2^s and A A.T / 4^s are exact, so one syrk gives the same s, sum and route
        A = random_skew(p, np.random.default_rng(p))
        if norm:
            A *= norm / np.linalg.norm(A, 2)
        with routes() as log:
            Q = expm_skew(A)
        Q_old, route = column_norm_expm_skew(A)
        assert np.array_equal(Q, Q_old)
        assert log == [("expm_skew", *route)]


class TestLogmSo:
    def test_identity(self):
        assert np.allclose(logm_so(np.eye(4)), np.zeros((4, 4)))

    def test_planar_rotation(self):
        A = logm_so(planar_rotation(0.3))
        assert np.allclose(A, np.array([[0.0, -0.3], [0.3, 0.0]]))

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        A = random_skew(4, rng)
        A *= (np.pi - 0.1) / np.linalg.norm(A, 2) * rng.uniform(0.1, 1.0)
        assert np.linalg.norm(logm_so(expm_skew(A)) - A) < 1e-10

    @pytest.mark.parametrize("p", [2, 10, 25, 50, 400])
    def test_roundtrip_dimension_sweep(self, p):
        rng = np.random.default_rng(p)
        for _ in range(3):
            A = random_skew(p, rng)
            A *= rng.uniform(0.05, 1.0) * (np.pi - 0.1) / np.linalg.norm(A, 2)
            assert np.linalg.norm(logm_so(expm_skew(A)) - A) < 1e-10

    def test_result_is_skew(self):
        rng = np.random.default_rng(3)
        A = logm_so(expm_skew(random_skew(6, rng)))
        assert np.linalg.norm(A + A.T) < 1e-8 * np.sqrt(6)

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_near_pi(self, p, delta):
        # the plane at pi - delta is logged by complex Schur on its own block;
        # the eigh formula would lose digits as 1/delta there
        rng = np.random.default_rng(p)
        A = skew_with_largest_angle(np.pi - delta, p, rng)
        assert np.linalg.norm(logm_so(expm_skew(A)) - A) <= 1e-12 * np.sqrt(p)

    def test_near_pi_cluster(self):
        # five angles pi - j*1e-5: a full-size complex Schur of Q reaches
        # 3.2e-10 on this input
        p, delta = 100, 1e-5
        rng = np.random.default_rng(p)
        angles = rng.uniform(0.0, np.pi / 2, p // 2)
        angles[:5] = np.pi - delta * np.arange(1, 6)
        A = skew_with_angles(angles, p, rng)
        assert np.linalg.norm(logm_so(expm_skew(A)) - A) <= 3.2e-10

    @pytest.mark.parametrize("p", [10, 100])
    def test_near_zero_relative_accuracy(self, p):
        # every angle so small that theta/sin(theta) rounds to 1; sinc is exact at 0
        rng = np.random.default_rng(p + 1)
        A = skew_with_angles(rng.uniform(0.0, 1e-8, p // 2), p, rng)
        err = np.linalg.norm(logm_so(expm_skew(A)) - A)
        assert err <= 1e-12 * np.linalg.norm(A)

    @pytest.mark.parametrize("p", [10, 100])
    def test_small_angle_relative_accuracy(self, p):
        # angles log-uniform in [1e-5, 1e-3], on both sides of 1e-4, where a
        # Taylor branch for theta/sin(theta) would take over
        rng = np.random.default_rng(p + 2)
        A = skew_with_angles(10.0 ** rng.uniform(-5.0, -3.0, p // 2), p, rng)
        err = np.linalg.norm(logm_so(expm_skew(A)) - A)
        assert err <= 1e-12 * np.linalg.norm(A)

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_route_limit(self, p, side, routes):
        # largest angle just below 2 rad (no block) or above it (one plane)
        rng = np.random.default_rng(p + 2)
        A = skew_with_largest_angle(2.0 + side * 1e-3, p, rng)
        Q = expm_skew(A)
        with routes() as log:
            err = np.linalg.norm(logm_so(Q) - A)
        assert err <= 1e-12 * np.sqrt(p)
        assert log == [("logm_so", "eigh", 2 if side > 0 else 0)]

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize(
        "pair",
        [(2.0, 2.0), (2.0 - 1e-12, 2.0 + 1e-12), (2.0 + 1e-9, 2.0 - 1.7e-8)],
        ids=["double", "straddle", "close_pair"],
    )
    def test_split_at_gap(self, p, pair, routes):
        # two angles at or across the 2 rad limit, closer than the split gap:
        # the block takes both planes whole, and the split costs no accuracy
        rng = np.random.default_rng(p + 3)
        angles = rng.uniform(0.0, np.pi / 2, p // 2)
        angles[:2] = pair
        A = skew_with_angles(angles, p, rng)
        Q = expm_skew(A)
        with routes() as log:
            err = np.linalg.norm(logm_so(Q) - A)
        assert err <= 1e-12 * np.sqrt(p)
        assert log == [("logm_so", "eigh", 4)]

    @pytest.mark.parametrize("theta_max", [1.0, 3.0])
    def test_exactly_skew(self, theta_max):
        # theta_max = 3 also takes the Schur block
        rng = np.random.default_rng(9)
        A = logm_so(expm_skew(skew_with_largest_angle(theta_max, 9, rng)))
        assert np.array_equal(A, -A.T)

    def test_rejects_angle_at_pi(self):
        with pytest.raises(DomainError):
            logm_so(planar_rotation(np.pi))

    def test_rejects_reflection(self):
        # det = -1 implies an eigenvalue at -1
        with pytest.raises(DomainError):
            logm_so(np.diag([-1.0, 1.0, 1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValidationError):
            logm_so(2.0 * np.eye(3))


class TestInvsqrtmSpd:
    def test_identity(self):
        assert np.allclose(invsqrtm_spd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(invsqrtm_spd(np.diag([4.0, 9.0])), np.diag([0.5, 1 / 3]))

    def test_defining_identity(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((6, 6))
        S = np.eye(6) + B.T @ B
        T = invsqrtm_spd(S)
        assert np.linalg.norm(T @ S @ T - np.eye(6)) < 1e-12
        assert np.linalg.norm(T - T.T) < 1e-12

    def test_large_eigenvalue_spread(self):
        rng = np.random.default_rng(5)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        S = Q @ np.diag(np.logspace(0, 6, 5)) @ Q.T
        S = 0.5 * (S + S.T)
        T = invsqrtm_spd(S)
        assert np.linalg.norm(T @ S @ T - np.eye(5)) < 1e-12 * np.linalg.norm(S, 2)

    def test_rejects_indefinite_and_reports_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            invsqrtm_spd(np.diag([1.0, -2.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            invsqrtm_spd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_symmetry_defect_relative_to_norm(self):
        S = np.diag([1e12, 2e12])
        S[0, 1] = 1e-4
        assert np.allclose(invsqrtm_spd(S), np.diag([1e-6, 2**-0.5 * 1e-6]))

    def test_accepts_tiny_well_conditioned(self):
        # the floor is on the condition number, not on the smallest eigenvalue
        assert np.allclose(invsqrtm_spd(1e-13 * np.eye(3)), 1e-13**-0.5 * np.eye(3))

    @pytest.mark.parametrize("cond", [1e8, 1e12, 1e16])
    def test_rejects_ill_conditioned(self, cond):
        # T's relative error is about eps * cond(S), above tol_struct(1) here
        with pytest.raises(DomainError, match="condition number"):
            invsqrtm_spd(np.diag([1.0, 1.0 / cond]))


def series_limit(coeffs, m=None):
    """The largest rho, to 1e-12 relative, with |c[m+1]| rho^(m+1) <= eps/4 (1 - rho).

    The tail bound of _sym_series at degree m, by default the cap of coeffs
    (its last degree but one): the 2-norm up to which it sums coeffs to degree m.
    """
    m = coeffs.size - 2 if m is None else m
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        fits = abs(coeffs[m + 1]) * mid ** (m + 1) <= 0.25 * np.finfo(float).eps * (1 - mid)
        lo, hi = (mid, hi) if fits else (lo, mid)
    return lo


def series_degree(coeffs, r):
    """The least m with |c[m+1]| r^(m+1) <= eps/4 (1 - r), or None above the cap."""
    for m in range(coeffs.size - 1):
        if abs(coeffs[m + 1]) * r ** (m + 1) <= 0.25 * np.finfo(float).eps * (1 - r):
            return m
    return None


def dense_series(X, coeffs, m):
    """sum_k<=m coeffs[k] Y^(k // 2) X^(k % 2), Y = X X.T, one power at a time."""
    R, Yj = np.zeros_like(X), np.eye(X.shape[0])
    for k in range(m + 1):
        R += coeffs[k] * (Yj @ X if k % 2 else Yj)
        if k % 2:
            Yj = Yj @ (X @ X.T)
    return R


def near_identity_spd(p, r, rng):
    """(S, S^-1/2) for S = 2.5 Q diag(1 + r s) Q.T with signs s = -1, 1, -1, ...

    E = S / mu - I = r Q diag(s) Q.T squares to r^2 I, so the series gate
    bound sqrt(||E^2||_1) equals ||E||_2 = r, while diag(E) stays small.
    """
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    w = 2.5 * (1.0 + r * np.where(np.arange(p) % 2, 1.0, -1.0))
    S = (Q * w) @ Q.T
    return 0.5 * (S + S.T), (Q * w**-0.5) @ Q.T


class TestSeriesRoute:
    """The series route of invsqrtm_spd, _polar_parts, logm_so and expm_skew, on either side
    of its limit, and the evaluator behind it."""

    @pytest.mark.parametrize(
        "coeffs, limits",
        [(matfun._INVSQRT_COEFFS, (0.1, 0.11)), (matfun._THETA_OVER_SIN_COEFFS, (0.1, 0.11)),
         (matfun._EXP_COEFFS, (0.94, 0.95))],
        ids=["invsqrt", "phi", "exp"],
    )
    def test_coefficients_do_not_grow(self, coeffs, limits):
        # _sym_series's tail bound needs non-increasing magnitudes
        assert np.all(np.diff(np.abs(coeffs)) <= 0)
        assert limits[0] < series_limit(coeffs) < limits[1]

    @pytest.mark.parametrize(
        "coeffs", [matfun._INVSQRT_COEFFS, matfun._THETA_OVER_SIN_COEFFS, matfun._EXP_COEFFS],
        ids=["invsqrt", "phi", "exp"],
    )
    def test_degree_table_matches_tail_bound(self, coeffs):
        # on a grid over [0, 1.2] and just either side of each degree's limit
        limits = [series_limit(coeffs, m) for m in range(coeffs.size - 1)]
        rs = [*np.linspace(0.0, 1.2, 601), *(r * (1.0 + s * 1e-9) for r in limits for s in (-1, 1))]
        for r in rs:
            assert matfun._series_degree(coeffs, r) == series_degree(coeffs, r), r

    @pytest.mark.parametrize("m", range(matfun._SERIES_DEGREE + 1))
    @pytest.mark.parametrize("shape", ["symmetric", "skew"])
    @pytest.mark.parametrize(
        "coeffs", [matfun._INVSQRT_COEFFS, matfun._THETA_OVER_SIN_COEFFS, matfun._EXP_COEFFS],
        ids=["invsqrt", "phi", "exp"],
    )
    def test_sym_series_matches_dense_sum(self, coeffs, shape, m):
        # X X.T = r^2 I, so both bounds on ||X||_2 are r, chosen inside the
        # interval of r whose degree is m; m = 0 is X = 0, whose sum is exactly I.
        # m = 1 ... 7 sums pairs, of either parity; 8 ... 15 chunks of four, every m % 4
        p, rng = 6, np.random.default_rng(m)
        r = np.sqrt(series_limit(coeffs, m - 1) * series_limit(coeffs, m)) if m else 0.0
        if shape == "skew":
            X = skew_with_angles(np.full(p // 2, r), p, rng)
        else:
            Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
            X = (Q * (r * np.where(np.arange(p) % 2, 1.0, -1.0))) @ Q.T
            X = 0.5 * (X + X.T)
        R, rho, degree = matfun._sym_series(X, coeffs)
        assert degree == m and rho == pytest.approx(r, rel=1e-14)
        R_ref = dense_series(X, coeffs, m)
        assert np.linalg.norm(R - R_ref) <= 1e-15 * np.linalg.norm(R_ref)
        if not m:
            assert np.array_equal(R, np.eye(p))

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_invsqrtm_route_limit(self, p, side, routes):
        r = series_limit(matfun._INVSQRT_COEFFS) * (1.0 + side * 1e-3)
        S, T_ref = near_identity_spd(p, r, np.random.default_rng(p + 5))
        with routes() as log:
            T = invsqrtm_spd(S)
        assert log == [("invsqrtm_spd", "eigh", 0) if side > 0
                       else ("invsqrtm_spd", "series", matfun._SERIES_DEGREE)]
        assert np.linalg.norm(T - T_ref) <= 1e-14 * np.linalg.norm(T_ref)
        assert np.array_equal(T, T.T)

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_polar_parts_route_limit(self, p, side, routes):
        # C = W0 S^(1/2) has C.T C = S; on the series route sigma_min is the
        # lower bound sqrt(mu (1 - rho)), here equal to the exact one
        rng = np.random.default_rng(p + 6)
        r = series_limit(matfun._INVSQRT_COEFFS) * (1.0 + side * 1e-3)
        S, T_ref = near_identity_spd(p, r, rng)
        W0 = np.linalg.qr(rng.standard_normal((p, p)))[0]
        with routes() as log:
            W, H_inv, sigma_min = matfun._polar_parts(W0 @ np.linalg.inv(T_ref))
        assert log == [("_polar_parts", "svd", 0) if side > 0
                       else ("_polar_parts", "series", matfun._SERIES_DEGREE)]
        assert np.linalg.norm(W - W0) <= 1e-14 * np.linalg.norm(W0)
        assert np.linalg.norm(H_inv - T_ref) <= 1e-14 * np.linalg.norm(T_ref)
        assert sigma_min == pytest.approx(np.sqrt(2.5 * (1.0 - r)), rel=1e-13)

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_logm_route_limit(self, p, side, routes):
        # every plane at the angle theta with sin^2(theta/2) just below or
        # above the limit: Y = (I - (Q + Q.T)/2)/2 = sin^2(theta/2) I
        y = series_limit(matfun._THETA_OVER_SIN_COEFFS) * (1.0 + side * 1e-3)
        theta = 2.0 * np.arcsin(np.sqrt(y))
        A = skew_with_angles(np.full(p // 2, theta), p, np.random.default_rng(p + 7))
        Q = expm_skew(A)
        with routes() as log:
            L = logm_so(Q)
        assert log == [("logm_so", "eigh", 0) if side > 0
                       else ("logm_so", "series", matfun._SERIES_DEGREE)]
        assert np.linalg.norm(L - A) <= 1e-14 * np.linalg.norm(A)

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_expm_route_limit(self, p, side, routes):
        # every plane at the angle r, so A A.T = r^2 I and both bounds are r;
        # above the limit the series sums A / 2 and squares once
        r = series_limit(matfun._EXP_COEFFS) * (1.0 + side * 1e-3)
        A = skew_with_angles(np.full(p // 2, r), p, np.random.default_rng(p + 9))
        with routes() as log:
            Q = expm_skew(A)
        assert log == [("expm_skew", "squared", 1) if side > 0
                       else ("expm_skew", "series", matfun._EXP_DEGREE)]
        Q_ref = scipy.linalg.expm(A)
        assert np.linalg.norm(Q - Q_ref) <= 1e-14 * np.linalg.norm(Q_ref)
        assert np.linalg.norm(Q.T @ Q - np.eye(p)) <= matfun.tol_struct(p)

    def test_fourth_power_bound_lowers_degree(self, routes):
        # the skew block of a pullback-shaped tangent (n = 1000, p = 400,
        # ||A||_2 = 0.077): rho = sqrt(||A A.T||_1) = 0.17 alone would need
        # degree 11, rho_2 = ||(A A.T)^2||_1^(1/4) = 0.11 needs 10
        U0 = rand_point(1000, 400, 0)
        A = U0.U.T @ rand_tangent(U0, np.pi / 2, 1).Xi
        A = 0.5 * (A - A.T)
        Y = A @ A.T
        rho, rho_2 = np.sqrt(np.linalg.norm(Y, 1)), np.linalg.norm(Y @ Y, 1) ** 0.25
        coeffs = matfun._EXP_COEFFS
        assert series_degree(coeffs, rho) == 11 and series_degree(coeffs, rho_2) == 10
        with routes() as log:
            Q = expm_skew(A)
        assert log == [("expm_skew", "series", 10)]
        Q_ref = scipy.linalg.expm(A)
        assert np.linalg.norm(Q - Q_ref) <= 1e-14 * np.linalg.norm(Q_ref)


class TestPolarParts:
    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("kappa", [1e2 * (1.0 - 1e-3), 1e2 * (1.0 + 1e-3)],
                             ids=["below_1e2", "above_1e2"])
    def test_svd_route_accuracy(self, p, kappa, routes):
        # cond(C.T C) just below or above 1e2, up to which the deleted Gram
        # rung, an eigh of C.T C, matched the SVD's accuracy. Far off the
        # series, both take the SVD; this guards against bringing the rung back
        rng = np.random.default_rng(p + 4)
        s = np.sqrt(np.linspace(1.0, 1.0 / kappa, p))
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        with routes() as log:
            W, H_inv, sigma_min = matfun._polar_parts(Q * s)
        assert log == [("_polar_parts", "svd", 0)]
        assert np.linalg.norm(W - Q) <= 1e-13 * np.sqrt(p)
        assert np.linalg.norm(H_inv - np.diag(1.0 / s)) <= 1e-13 * np.sqrt(p) / s[-1]
        assert sigma_min == pytest.approx(s[-1], rel=1e-13)

    @pytest.mark.parametrize(
        "C", [np.zeros((3, 3)), np.diag([1.0, 1e-200]), np.array([[1.0, 1.0], [1.0, 1.0]])],
        ids=["zero", "tiny", "rank_one"],
    )
    def test_singular_takes_svd(self, C, routes):
        # the SVD reports sigma_min at roundoff or below, and an infinite
        # H^-1 raises no RuntimeWarning
        with routes() as log:
            sigma_min = matfun._polar_parts(C)[2]
        assert log == [("_polar_parts", "svd", 0)]
        assert sigma_min <= 1e-16


def sylvester_kron_oracle(C):
    """Solve C X + X C.T = 2 I by the dense Kronecker system (small p only)."""
    p = C.shape[0]
    K = np.kron(np.eye(p), C) + np.kron(C, np.eye(p))
    x = np.linalg.solve(K, 2.0 * np.eye(p).flatten("F"))
    return x.reshape((p, p), order="F")


def near_defective(p, eps, rng):
    """Q (J + eps diag(0, ..., p-1)) Q.T, J the p-by-p Jordan block at 1.

    Its eigenvalues are distinct but its eigenvector matrix has condition
    number of order eps^-(p-1).
    """
    J = np.eye(p) + np.diag(np.ones(p - 1), 1) + eps * np.diag(np.arange(p))
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return Q @ J @ Q.T


def complex_pair_matrix(p, rng):
    """Q (D + N) Q.T with D block diagonal: 2-by-2 blocks [[a, b], [-b, a]]
    (a in [0.5, 1.5], b in [0.3, 1]) and, for odd p, one real a; N small
    and strictly block upper triangular. Every pair sum has real part >= 1.
    """
    D = np.zeros((p, p))
    for k in range(0, p - 1, 2):
        a, b = rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.0)
        D[k : k + 2, k : k + 2] = [[a, b], [-b, a]]
    if p % 2:
        D[-1, -1] = rng.uniform(0.5, 1.5)
    N = 0.2 * np.triu(rng.standard_normal((p, p)), 2)
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return Q @ (D + N) @ Q.T


def rotation_edge(theta, p, rng):
    """Q S D S^-1 Q.T with S non-normal: D has one rotation block at angle
    theta and p - 2 eigenvalues in [0.5, 1.5].
    """
    D = np.diag(rng.uniform(0.5, 1.5, p))
    D[:2, :2] = planar_rotation(theta)
    S = np.eye(p) + 0.3 * np.triu(rng.standard_normal((p, p)), 1)
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return Q @ S @ D @ np.linalg.solve(S, Q.T)


def pf_overlap(n, p, dist, rng):
    """C = U0.T U1 for U1 the polar factor retraction of a tangent of norm dist."""
    G = np.linalg.qr(rng.standard_normal((n, p)))[0]
    Z = rng.standard_normal((n, p))
    M = G.T @ Z
    Xi = Z - G @ (0.5 * (M + M.T))
    Xi *= dist / np.linalg.norm(Xi)
    w, V = np.linalg.eigh(np.eye(p) + Xi.T @ Xi)
    return G.T @ ((G + Xi) @ ((V * w**-0.5) @ V.T))


class TestSolvePfSylvester:
    def test_identity(self):
        assert np.allclose(solve_pf_sylvester(np.eye(4)), np.eye(4))

    def test_positive_diagonal(self):
        d = np.array([1.0, 2.0, 5.0])
        assert np.allclose(solve_pf_sylvester(np.diag(d)), np.diag(1.0 / d))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_kronecker_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.integers(2, 9)
        C = np.eye(p) + 0.3 * rng.standard_normal((p, p))
        X_ref = sylvester_kron_oracle(C)
        # seed 3 draws an eigenvalue with real part -0.125: the symmetric
        # solution exists but is indefinite, so it is refused
        assert (np.min(np.linalg.eigvals(C).real) > 0) == (seed != 3)
        if seed == 3:
            assert np.min(np.linalg.eigvalsh(X_ref)) < 0
            with pytest.raises(DomainError, match="not positive stable"):
                solve_pf_sylvester(C)
        else:
            assert np.allclose(solve_pf_sylvester(C), X_ref, atol=1e-10)

    def test_residual_on_pf_structured_input(self):
        # C = U0.T U1 with U1 a polar-factor retracted point
        rng = np.random.default_rng(7)
        n, p = 40, 8
        G = np.linalg.qr(rng.standard_normal((n, p)))[0]
        Z = rng.standard_normal((n, p))
        M = G.T @ Z
        Xi = Z - G @ (0.5 * (M + M.T))
        Xi *= 0.8 / np.linalg.norm(Xi)
        w, V = np.linalg.eigh(np.eye(p) + Xi.T @ Xi)
        U1 = (G + Xi) @ ((V * w**-0.5) @ V.T)
        C = G.T @ U1
        X = solve_pf_sylvester(C)
        res = np.linalg.norm(C @ X + X @ C.T - 2 * np.eye(p))
        assert res <= 1e-10 * np.linalg.norm(X)
        # X is SPD and U1 X - U0 is tangent at U0
        assert np.min(np.linalg.eigvalsh(X)) > 0
        T = G.T @ (U1 @ X - G)
        assert np.linalg.norm(T + T.T) < 1e-10

    def test_degenerate_eigenvalue_pair(self):
        with pytest.raises(DomainError):
            solve_pf_sylvester(np.diag([1.0, -1.0]))
        # the first Newton step of an exact quarter turn is exactly singular
        with pytest.raises(DomainError, match="not positive stable"):
            solve_pf_sylvester(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    def test_near_defective_residual(self, eps):
        C = near_defective(6, eps, np.random.default_rng(0))
        X = solve_pf_sylvester(C)
        res = np.linalg.norm(C @ X + X @ C.T - 2 * np.eye(6)) / np.linalg.norm(2 * np.eye(6))
        assert res <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("p", [5, 9, 17, 30])
    def test_scaled_against_kronecker_oracle(self, p, k):
        # X(s C) = X(C) / s; at s = 1e16 the Newton iteration needs its
        # scaling to converge within _SIGN_MAX_STEPS
        s = 10.0 ** (16 * (k - 3))
        C = complex_pair_matrix(p, np.random.default_rng(100 + p))
        X, X_ref = s * solve_pf_sylvester(s * C), sylvester_kron_oracle(C)
        assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)

    def test_large_matches_single_trsyl(self):
        p = 400
        C = pf_overlap(1000, p, np.pi / 2, np.random.default_rng(11))
        T, Z = scipy.linalg.schur(C)
        Y, scale, info = scipy.linalg.lapack.dtrsyl(T, T, 2.0 * np.eye(p), tranb="T")
        assert (scale, info) == (1.0, 0)
        X_ref = Z @ Y @ Z.T
        X_ref = 0.5 * (X_ref + X_ref.T)
        X = solve_pf_sylvester(C)
        res = np.linalg.norm(C @ X + X @ C.T - 2 * np.eye(p)) / np.linalg.norm(2 * np.eye(p))
        assert res <= 1e-12
        assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_rotation_angle_just_below_half_pi(self, delta):
        p = 40
        C = rotation_edge(np.pi / 2 - delta, p, np.random.default_rng(40))
        X = solve_pf_sylvester(C)
        res = np.linalg.norm(C @ X + X @ C.T - 2 * np.eye(p))
        assert res <= 1e-13 * np.linalg.norm(C) * np.linalg.norm(X)
        assert np.min(np.linalg.eigvalsh(X)) > 0

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_rotation_angle_just_above_half_pi(self, delta):
        C = rotation_edge(np.pi / 2 + delta, 40, np.random.default_rng(40))
        with pytest.raises(DomainError, match="not positive stable"):
            solve_pf_sylvester(C)

    def test_rounding_sized_margin_is_not_a_domain_decision(self):
        # cos(pi/2) rounds to 6e-17 > 0, so X = I / 6e-17 is positive
        # definite in exact arithmetic but not certifiably in floating point
        with pytest.raises(matfun._Undecided, match="ill-conditioned"):
            solve_pf_sylvester(planar_rotation(np.pi / 2))


# The largest d >= ||I - C||_2 that _smith_doubling takes: its Cayley
# transform then has norm at most d / (2 - d) = _SMITH_CAP.
SMITH_LIMIT = 2.0 * matfun._SMITH_CAP / (1.0 + matfun._SMITH_CAP)


def shifted_orthogonal(r, p, rng):
    """C = I - r W, W orthogonal: D = I - C has D D.T = r^2 I, so _norm_bound's d is r."""
    return np.eye(p) - r * np.linalg.qr(rng.standard_normal((p, p)))[0]


def singular_inv(M, singular_message):
    """matfun._inv as it answers an exactly singular M."""
    raise DomainError(singular_message)


def newton_only(monkeypatch, C):
    """solve_pf_sylvester(C) with the squared Smith route turned off."""
    with monkeypatch.context() as m:
        m.setattr(matfun, "_smith_doubling", lambda C: None)
        return solve_pf_sylvester(C)


def outcome(solve, C):
    """X, or the class and message of the typed error solve raises."""
    try:
        return solve(C)
    except DomainError as exc:
        return type(exc), str(exc)


def edge_overlap(delta, sigma_min, seed=100):
    """C = exp(A) V diag(c) V.T, shaped as geodesic_edge's pairs at p = 100:
    a rotation angle pi - delta, or sigma_min(C) = c_0 small.
    """
    p, rng = 100, np.random.default_rng(seed)
    if delta is not None:
        angles = rng.uniform(0.0, np.pi / 2, p // 2)
        angles[0] = np.pi - delta
        b = rng.uniform(0.0, 0.1, p)
    else:
        angles = rng.uniform(0.0, 1.0, p // 2)
        b = rng.uniform(0.0, 1.0, p)
        b[0] = np.sqrt(1.0 / sigma_min**2 - 1.0)
    V = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return expm_skew(skew_with_angles(angles, p, rng)) @ (V / np.sqrt(1.0 + b**2)) @ V.T


# Inputs on both sides of the Smith route and of the PF domain: near I,
# at the route limit, not positive stable, undecidable, and near-defective.
ROUTE_CASES = {
    "near_I_0.01": lambda rng: np.eye(12) + 0.01 * rng.standard_normal((12, 12)),
    "near_I_0.05": lambda rng: np.eye(12) + 0.05 * rng.standard_normal((12, 12)),
    "near_I_0.2": lambda rng: np.eye(12) + 0.2 * rng.standard_normal((12, 12)),
    "cayley_below_cap": lambda rng: shifted_orthogonal(0.99 * SMITH_LIMIT, 12, rng),
    "pf_overlap_0.5": lambda rng: pf_overlap(40, 8, 0.5, rng),
    "pf_overlap_4": lambda rng: pf_overlap(40, 8, 4.0, rng),
    "complex_pairs": lambda rng: complex_pair_matrix(9, rng),
    "near_defective": lambda rng: near_defective(6, 1e-4, rng),
    "rotation_below_half_pi": lambda rng: rotation_edge(np.pi / 2 - 1e-4, 40, rng),
    "rotation_above_half_pi": lambda rng: rotation_edge(np.pi / 2 + 1e-4, 40, rng),
    "rotation_at_half_pi": lambda rng: planar_rotation(np.pi / 2),
    "quarter_turn": lambda rng: np.array([[0.0, -1.0], [1.0, 0.0]]),
    "indefinite": lambda rng: np.diag([1.0, -1.0]),
    "minus_identity": lambda rng: -np.eye(3),
}


class TestSmithRoute:
    """The squared Smith route of solve_pf_sylvester, and its hand-over to Newton."""

    @pytest.mark.parametrize("p", [8, 30])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_route_limit(self, p, side, routes):
        # C = I - r W: the bound d on ||I - C||_2 is exactly r; Smith takes one LU
        C = shifted_orthogonal(SMITH_LIMIT * (1.0 + side * 1e-3), p, np.random.default_rng(p + 8))
        with routes() as log:
            X = solve_pf_sylvester(C)
        lus = [("_inv", "lu", p)] * (len(log) - 1 if side > 0 else 1)
        assert log == [("solve_pf_sylvester", "newton" if side > 0 else "smith", 0), *lus]
        X_ref = sylvester_kron_oracle(C)
        assert np.linalg.norm(X - X_ref) <= 1e-13 * np.linalg.norm(X_ref)

    @pytest.mark.parametrize("case", ROUTE_CASES)
    def test_refuses_nothing_newton_accepts(self, case, monkeypatch, routes):
        # the route returns an X only where Newton returns the same X; it never raises
        C = ROUTE_CASES[case](np.random.default_rng(len(case)))
        with routes() as log:
            X = outcome(solve_pf_sylvester, C)
        X_newton = outcome(lambda C: newton_only(monkeypatch, C), C)
        smith = log[0] == ("solve_pf_sylvester", "smith", 0)
        if isinstance(X_newton, np.ndarray):
            assert np.linalg.norm(X - X_newton) <= 1e-13 * np.linalg.norm(X_newton)
        else:
            assert not smith and X == X_newton
        assert smith == case.startswith(("near_I_0.0", "cayley", "pf_overlap_0"))

    def test_singular_i_plus_c_falls_through(self, routes):
        # I + C = 0 for C = -I, but ||I - C||_2 = 2 turns it down before any
        # LU; Newton's first LU is of C itself, and Newton refuses it
        with routes() as log, pytest.raises(DomainError, match="not positive stable"):
            solve_pf_sylvester(-np.eye(3))
        assert log == [("solve_pf_sylvester", "newton", 0), ("_inv", "lu", 3)]

    @pytest.mark.parametrize(
        "delta, sigma_min",
        [(d, None) for d in (1e-1, 1e-2, 1e-3, 1e-4)]
        + [(None, s) for s in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)],
    )
    def test_edge_pairs_rejected_before_inv(self, delta, sigma_min, routes, monkeypatch):
        # on every seed D = I - C has a column longer than the limit, so
        # _norm_bound refuses C with no syrk, and the Smith route with no LU:
        # the first inverse, which refuses here, is Newton's
        monkeypatch.setattr(matfun, "_inv", singular_inv)
        seeds = (100, *range(30))
        Cs = [edge_overlap(delta, sigma_min, seed) for seed in seeds]
        with routes() as log:
            for C in Cs:
                assert np.max(np.linalg.norm(np.eye(100) - C, axis=0)) >= SMITH_LIMIT
                with pytest.raises(DomainError, match="not positive stable"):
                    solve_pf_sylvester(C)
        assert log == [("solve_pf_sylvester", "newton", 0)] * len(seeds)

    @pytest.mark.parametrize("sigma_min", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_edge_sigma_min_pairs_take_few_newton_steps(self, sigma_min, routes):
        # the norm-scaled iteration takes 7 steps (one LU each) on each,
        # however small sigma_min, and leaves a residual near eps ||C|| ||X||
        C = edge_overlap(None, sigma_min)
        with routes() as log:
            X = solve_pf_sylvester(C)
        steps = len(log) - 1
        assert log == [("solve_pf_sylvester", "newton", 0)] + [("_inv", "lu", 100)] * steps
        assert steps <= 8
        res = np.linalg.norm(C @ X + X @ C.T - 2.0 * np.eye(100))
        assert res <= 1e-15 * np.linalg.norm(C) * np.linalg.norm(X)

    @pytest.mark.parametrize("c_min", [1e-4, 1e-6, 1e-8, 1e-12])
    def test_cap_keeps_far_c_on_newton(self, c_min):
        # X = C^-1 for a diagonal C. Its Cayley transform has norm
        # (1 - c_min) / (1 + c_min), far above the cap, where the Smith sum
        # loses accuracy as eps / c_min: 2.7e-13 at c_min = 1e-4 with the cap
        # raised to 0.9999, 8.9e-5 at 1e-12 with no cap
        d = np.r_[np.linspace(1.0, 0.5, 9), c_min]
        X = solve_pf_sylvester(np.diag(d))
        assert np.linalg.norm(X - np.diag(1.0 / d)) <= 1e-14 * np.linalg.norm(1.0 / d)

    def test_pullback_pair_matches_newton(self, monkeypatch):
        # n = 1000, p = 400, U1 = pl_ret of a tangent of norm pi/2: three doublings
        U0 = rand_point(1000, 400, 0)
        C = U0.U.T @ pl_ret(rand_tangent(U0, np.pi / 2, 1)).U
        X = solve_pf_sylvester(C)
        X_newton = newton_only(monkeypatch, C)
        assert np.linalg.norm(X - X_newton) <= 1e-14 * np.linalg.norm(X_newton)
        res = np.linalg.norm(C @ X + X @ C.T - 2.0 * np.eye(400))
        assert res <= 5e-15 * np.linalg.norm(X)


class TestCayley:
    def test_zero(self):
        assert np.allclose(cay(np.zeros((3, 3))), np.eye(3))
        assert np.allclose(cay_inv(np.eye(3)), np.zeros((3, 3)))

    def test_planar_closed_form(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(cay(A), planar_rotation(2 * np.arctan(0.5)))

    def test_orthogonality_and_roundtrip(self):
        rng = np.random.default_rng(8)
        A = random_skew(4, rng)
        Q = cay(A)
        assert np.linalg.norm(Q.T @ Q - np.eye(4)) < 1e-8 * 2
        assert np.linalg.norm(cay_inv(Q) - A) < 1e-10 * 2

    def test_third_order_agreement_with_exp(self):
        rng = np.random.default_rng(9)
        A = random_skew(4, rng)
        ts = np.logspace(-3, -1, 10)
        errs = [np.linalg.norm(cay(t * A) - expm_skew(t * A)) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert abs(slope - 3.0) < 0.2

    def test_cay_inv_exactly_skew(self):
        rng = np.random.default_rng(10)
        A = cay_inv(expm_skew(random_skew(6, rng)))
        assert np.array_equal(A, -A.T)

    def test_cay_inv_singular_resolvent(self):
        with pytest.raises(DomainError):
            cay_inv(-np.eye(2))

    @pytest.mark.parametrize("p", [5, 40])
    def test_cay_inv_rejects_negative_determinant(self, p):
        # a generic reflection: I + Q is singular, but only up to roundoff
        Q = np.linalg.qr(np.random.default_rng(p).standard_normal((p, p)))[0]
        if np.linalg.det(Q) > 0:
            Q[:, 0] *= -1
        with pytest.raises(DomainError, match="negative determinant"):
            cay_inv(Q)

    def test_cay_rejects_non_skew(self):
        with pytest.raises(ValidationError, match="cay: input not skew-symmetric"):
            cay(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_cay_inv_rejects_non_orthogonal(self):
        # det = 1, so only the orthogonality test can refuse it
        with pytest.raises(ValidationError, match="cay_inv: input not orthogonal"):
            cay_inv(np.diag([2.0, 0.5]))

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_roundtrip_near_pi(self, p, delta):
        # ||cay_inv(Q)|| and the roundtrip error grow as 1/delta, but the
        # orthogonality test refuses none of these rotations
        Q = expm_skew(skew_with_largest_angle(np.pi - delta, p, np.random.default_rng(p)))
        assert np.linalg.norm(cay(cay_inv(Q)) - Q) <= 1e-15 * np.sqrt(p) / delta


def test_route_log_is_off_outside_a_block(routes):
    # None by default and after a block; no later call, on either route of a kernel, extends log
    assert matfun._ROUTES.get() is None
    with routes() as log:
        invsqrtm_spd(np.eye(2))
    for kernel in (invsqrtm_spd, matfun._polar_parts, solve_pf_sylvester, logm_so):
        kernel(np.eye(2))
        kernel(planar_rotation(3.0) if kernel is logm_so else np.diag([1.0, 4.0]))
    assert [kernel for kernel, _, _ in log] == ["invsqrtm_spd"]
    assert matfun._ROUTES.get() is None
