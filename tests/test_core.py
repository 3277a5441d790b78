import numpy as np
import pytest
import scipy.linalg

from stiefel_retractions.core import (
    BETA_CANONICAL,
    BETA_EUCLIDEAN,
    TangentVector,
    _flow,
    _frame,
    _skew_flow,
    canonical_point,
    check_point,
    check_tangent,
    exp_beta,
    inner,
    project_tangent,
    rand_point,
    rand_tangent,
)
from stiefel_retractions.matfun import ValidationError, expm_skew, tol_struct


def exp_beta_full_completion(U, Xi, beta):
    """Literal exponential formula with an explicit orthogonal completion.

    Independent reference for small n: builds Q_hat = [U, U_perp], forms
    the full n-by-n skew block matrix, and exponentiates it directly.
    """
    n, p = U.shape
    U_perp = scipy.linalg.null_space(U.T)
    A = U.T @ Xi
    B = U_perp.T @ Xi
    L = np.zeros((n, n))
    L[:p, :p] = 2 * beta * A
    L[:p, p:] = -B.T
    L[p:, :p] = B
    Q_hat = np.hstack([U, U_perp])
    W = scipy.linalg.expm(L)
    return Q_hat @ W[:, :p] @ scipy.linalg.expm((1 - 2 * beta) * A)


class TestCheckPoint:
    def test_canonical_point_valid(self):
        E = canonical_point(7, 3)
        assert check_point(E.U).U is not None
        assert E.n == 7 and E.p == 3

    def test_duplicated_column_rejected(self):
        U = canonical_point(5, 2).U
        U[:, 1] = U[:, 0]
        with pytest.raises(ValidationError, match="orthonormal"):
            check_point(U)

    def test_qr_orthonormalized_gaussian_valid(self):
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        assert check_point(Q).p == 6

    @pytest.mark.parametrize("n,p", [(2, 3), (0, 0), (3, 0), (3, -1)])
    def test_canonical_point_rejects_bad_sizes(self, n, p):
        with pytest.raises(ValidationError, match="need "):
            canonical_point(n, p)

    def test_rejects_p_greater_n(self):
        with pytest.raises(ValidationError):
            check_point(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        U = canonical_point(4, 2).U
        U[0, 0] = np.nan
        with pytest.raises(ValidationError):
            check_point(U)

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 2)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValidationError, match="expected a matrix"):
            check_point(np.zeros(shape))


class TestCheckTangent:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        U0 = rand_point(8, 3, 0)
        Xi = rand_tangent(U0, 1.0, 1).Xi.copy()
        Xi[5, 1] = bad
        with pytest.raises(ValidationError):
            check_tangent(U0, Xi)

    def test_rejects_all_nan(self):
        with pytest.raises(ValidationError):
            check_tangent(rand_point(8, 3, 0), np.full((8, 3), np.nan))


class TestProjectTangent:
    def test_tangent_unchanged(self):
        U0 = rand_point(12, 4, 1)
        xi = rand_tangent(U0, 1.0, 2)
        again = project_tangent(U0, xi.Xi)
        assert np.allclose(again.Xi, xi.Xi, atol=1e-13)

    def test_base_direction_annihilated(self):
        U0 = rand_point(10, 3, 3)
        assert np.linalg.norm(project_tangent(U0, U0.U).Xi) < 1e-13

    def test_idempotent(self):
        U0 = rand_point(15, 5, 4)
        rng = np.random.default_rng(5)
        once = project_tangent(U0, rng.standard_normal((15, 5)))
        twice = project_tangent(U0, once.Xi)
        assert np.linalg.norm(twice.Xi - once.Xi) < 1e-13

    def test_result_passes_check_tangent(self):
        U0 = rand_point(9, 3, 6)
        rng = np.random.default_rng(7)
        xi = project_tangent(U0, rng.standard_normal((9, 3)))
        check_tangent(U0, xi.Xi)


class TestRandom:
    def test_point_deterministic(self):
        a = rand_point(30, 7, 42)
        b = rand_point(30, 7, 42)
        assert np.array_equal(a.U, b.U)

    def test_tangent_deterministic_and_scaled(self):
        U0 = rand_point(30, 7, 42)
        a = rand_tangent(U0, np.pi / 2, 11)
        b = rand_tangent(U0, np.pi / 2, 11)
        assert np.array_equal(a.Xi, b.Xi)
        assert abs(a.norm - np.pi / 2) < 1e-12

    def test_large_point_valid(self):
        check_point(rand_point(1000, 400, 0).U)

    def test_zero_norm_tangent(self):
        U0 = rand_point(8, 2, 0)
        assert rand_tangent(U0, 0.0, 1).norm == 0.0

    def test_tangent_on_zero_dimensional_space(self):
        U0 = rand_point(1, 1, 0)
        assert rand_tangent(U0, 0.0, 1).norm == 0.0
        with pytest.raises(ValidationError, match="norm_target must be 0 on St"):
            rand_tangent(U0, 1.0, 1)

    @pytest.mark.parametrize("n,p", [(2, 3), (0, 0), (3, 0), (3, -1)])
    def test_point_rejects_bad_sizes(self, n, p):
        with pytest.raises(ValidationError, match="need "):
            rand_point(n, p, 0)

    @pytest.mark.parametrize("norm_target", [-1.0, np.nan, np.inf])
    def test_tangent_rejects_bad_norm(self, norm_target):
        with pytest.raises(ValidationError, match="norm_target"):
            rand_tangent(rand_point(8, 2, 0), norm_target, 1)


class TestInner:
    def test_horizontal_metrics_agree(self):
        U0 = rand_point(20, 4, 0)
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((20, 4))
        horiz = project_tangent(U0, Z - U0.U @ (U0.U.T @ Z))
        e = inner(horiz, horiz, BETA_EUCLIDEAN)
        c = inner(horiz, horiz, BETA_CANONICAL)
        assert np.isclose(e, c)
        assert np.isclose(e, np.linalg.norm(horiz.Xi) ** 2)

    def test_vertical_canonical_is_half_euclidean(self):
        # tangent with B = 0: Xi = U A has squared norm beta ||A||^2
        U0 = rand_point(20, 4, 2)
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        A = 0.5 * (A - A.T)
        xi = project_tangent(U0, U0.U @ A)
        assert np.isclose(
            inner(xi, xi, BETA_CANONICAL), 0.5 * inner(xi, xi, BETA_EUCLIDEAN)
        )
        for beta in (0.3, BETA_CANONICAL, 0.7, BETA_EUCLIDEAN, 1.6):
            assert np.isclose(inner(xi, xi, beta), beta * np.sum(A * A))

    def test_symmetry(self):
        U0 = rand_point(20, 4, 4)
        xi = rand_tangent(U0, 1.0, 5)
        eta = rand_tangent(U0, 2.0, 6)
        for beta in (BETA_CANONICAL, BETA_EUCLIDEAN):
            assert abs(inner(xi, eta, beta) - inner(eta, xi, beta)) < 1e-13

    def test_mismatched_base_rejected(self):
        xi = rand_tangent(rand_point(10, 3, 0), 1.0, 1)
        eta = rand_tangent(rand_point(10, 3, 99), 1.0, 1)
        with pytest.raises(ValidationError):
            inner(xi, eta)

    def test_nonpositive_beta_rejected(self):
        U0 = rand_point(10, 3, 0)
        xi = rand_tangent(U0, 1.0, 1)
        for beta in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValidationError, match="beta must be positive"):
                inner(xi, xi, beta)

    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.6])
    def test_geodesic_has_constant_speed(self, beta):
        # the central-difference velocity of t -> exp_beta(t xi) keeps the
        # beta-metric squared norm of xi along the curve
        U0 = rand_point(12, 4, 7)
        xi = rand_tangent(U0, 1.0, 8)
        h = 1e-5
        for t in (0.0, 0.4, 0.9):
            Ut = exp_beta(xi.scaled(t), beta)
            vel = (exp_beta(xi.scaled(t + h), beta).U
                   - exp_beta(xi.scaled(t - h), beta).U) / (2 * h)
            v = TangentVector(Ut, vel)
            assert np.isclose(inner(v, v, beta), inner(xi, xi, beta), rtol=1e-7)


class TestExpBeta:
    def test_zero_tangent_returns_base(self):
        U0 = rand_point(15, 4, 0)
        out = exp_beta(rand_tangent(U0, 0.0, 1))
        assert np.allclose(out.U, U0.U, atol=1e-14)

    def test_square_case_canonical(self):
        # n = p with beta = 1/2 collapses to U exp(A)
        U0 = rand_point(5, 5, 1)
        xi = rand_tangent(U0, 0.9, 2)
        A = U0.U.T @ xi.Xi
        A = 0.5 * (A - A.T)
        out = exp_beta(xi, BETA_CANONICAL)
        assert np.linalg.norm(out.U - U0.U @ expm_skew(A)) < 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.7])
    def test_sphere_great_circle(self, beta):
        U0 = rand_point(9, 1, 3)
        xi = rand_tangent(U0, 0.8, 4)
        r = xi.norm
        expected = U0.U * np.cos(r) + (xi.Xi / r) * np.sin(r)
        assert np.linalg.norm(exp_beta(xi, beta).U - expected) < 1e-13

    @pytest.mark.parametrize("n,p,beta,seed", [
        (10, 3, 0.5, 0), (25, 10, 1.0, 1), (40, 5, 2.0, 2), (6, 6, 1.0, 3),
    ])
    def test_output_on_manifold(self, n, p, beta, seed):
        U0 = rand_point(n, p, seed)
        xi = rand_tangent(U0, 1.5, seed + 100)
        check_point(exp_beta(xi, beta).U)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_derivative_at_zero(self, beta):
        U0 = rand_point(20, 5, 5)
        xi = rand_tangent(U0, 1.0, 6)
        h = 1e-5
        fd = (exp_beta(xi.scaled(h), beta).U - exp_beta(xi.scaled(-h), beta).U) / (2 * h)
        assert np.linalg.norm(fd - xi.Xi) / np.linalg.norm(xi.Xi) < 1e-6

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        n, p = 14, 4
        U0 = rand_point(n, p, 8)
        xi = rand_tangent(U0, 1.2, 9)
        Phi = np.linalg.qr(rng.standard_normal((n, n)))[0]
        rotated_base = check_point(Phi @ U0.U)
        rotated_xi = project_tangent(rotated_base, Phi @ xi.Xi)
        lhs = exp_beta(rotated_xi, BETA_EUCLIDEAN).U
        rhs = Phi @ exp_beta(xi, BETA_EUCLIDEAN).U
        assert np.linalg.norm(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("n,p,beta", [
        (8, 3, 0.5), (20, 6, 1.0), (30, 10, 1.3),
    ])
    def test_matches_full_completion_formula(self, n, p, beta):
        U0 = rand_point(n, p, n + p)
        xi = rand_tangent(U0, 1.1, n - p)
        full = exp_beta_full_completion(U0.U, xi.Xi, beta)
        assert np.linalg.norm(exp_beta(xi, beta).U - full) < 1e-12

    def test_rejects_nonpositive_beta(self):
        xi = rand_tangent(rand_point(6, 2, 0), 1.0, 1)
        for beta in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="beta must be positive"):
                exp_beta(xi, beta=beta)


class TestFactoredGeodesic:
    @pytest.mark.parametrize("n,p", [(30, 6), (10, 7)])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0, 1.6])
    def test_matches_exp_beta(self, n, p, beta):
        U0 = rand_point(n, p, n)
        xi = rand_tangent(U0, 1.4, p)
        basis, A, R = _frame(xi)
        flow = _flow(A, R, beta)
        for t in (0.0, 1e-3, 0.5, 1.0):
            err = np.linalg.norm(basis @ flow(t) - exp_beta_full_completion(U0.U, t * xi.Xi, beta))
            assert err <= 1e-13 * np.sqrt(p), (t, err)

    @pytest.mark.parametrize("m,k", [(2, 1), (12, 6), (40, 20)])
    def test_flow_increment_relative_accuracy(self, m, k):
        # exp(t S) - I is O(t): the flow must keep its relative accuracy as t -> 0
        rng = np.random.default_rng(m)
        S = rng.standard_normal((m, m))
        S = S - S.T
        flow = _skew_flow(S, k)
        eye = np.eye(m, k)
        for t in (1e-8, 1e-5, 1e-3, 1.0):
            ref = scipy.linalg.expm(t * S)[:, :k] - eye
            err = np.linalg.norm(flow(t) - eye - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, (t, err)

    def test_flow_of_zero_is_identity(self):
        assert np.array_equal(_skew_flow(np.zeros((5, 5)), 3)(0.7), np.eye(5, 3))

    def test_odd_order_flow_at_large_norm(self):
        # a skew S of odd order is singular: with the least eigenvalue of S.T S
        # as the eigh returns it, about eps ||S||^2, in place of an exact 0, the
        # flow at ||S||_F = 1e4 misses expm by 2.7e-9, where the exact 0 reads 9.2e-12
        S = np.random.default_rng(3).standard_normal((11, 11))
        S = (S - S.T) * (1e4 / np.linalg.norm(S - S.T))
        flow = _skew_flow(S, 11)
        for t in (0.5, 1.0):
            assert np.linalg.norm(flow(t) - scipy.linalg.expm(t * S)) <= 1e-10, t

    def test_even_order_null_space_at_large_norm(self):
        # the odd-order S above with a zero row and column: even order, two null
        # directions, whose eigenvalues of S.T S the eigh returns near eps ||S||^2;
        # zeroing only at odd order missed expm by 1.5e-9 here, every eigenvalue
        # within the eigh's error set to 0 reads 9.7e-12
        S = np.random.default_rng(3).standard_normal((11, 11))
        S = np.pad((S - S.T) * (1e4 / np.linalg.norm(S - S.T)), ((0, 1), (0, 1)))
        flow = _skew_flow(S, 12)
        for t in (0.5, 1.0):
            assert np.linalg.norm(flow(t) - scipy.linalg.expm(t * S)) <= 1e-10, t

    @pytest.mark.parametrize("norm", [1e4, 1e6, 1e7, 3e7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_euclidean_flow_at_large_norm(self, seed, norm):
        # the rates are SV's column norms, which err by about eps ||S||; square
        # roots of S.T S's eigenvalues err by up to sqrt(eps) ||S|| on a small
        # rate, and read 4.4e-7 at 1e7 and 1.1e-6 at 3e7 against this 4.5e-8
        # bound, where the column norms read 9.8e-9 and 2.6e-8
        xi = rand_tangent(rand_point(200, 20, seed), norm, seed + 10)
        _, A, R = _frame(xi)
        L = np.block([[2.0 * A, -R.T], [R, np.zeros((20, 20))]])
        want = scipy.linalg.expm(L)[:, :20] @ scipy.linalg.expm(-A)
        assert np.linalg.norm(_flow(A, R, BETA_EUCLIDEAN)(1.0) - want) <= tol_struct(20)

    def test_rejects_non_tangent(self):
        U0 = rand_point(20, 4, 0)
        with pytest.raises(ValidationError, match="not skew-symmetric"):
            _frame(TangentVector(U0, U0.U @ np.diag([0.3, 0.1, 0.0, 0.2])))
