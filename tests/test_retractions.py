import numpy as np
import pytest

from stiefel_retractions.core import (
    BETA_CANONICAL,
    BETA_EUCLIDEAN,
    StiefelPoint,
    TangentVector,
    canonical_point,
    check_point,
    exp_beta,
    project_tangent,
    rand_point,
    rand_tangent,
)
from stiefel_retractions.matfun import DomainError, ValidationError, expm_skew, logm_so
from stiefel_retractions.retractions import (
    RETRACTION_PAIRS,
    ChartCoordinates,
    chart_at_E,
    param_at_E,
    pf_inv,
    pf_ret,
    pl_cay_inv,
    pl_cay_ret,
    pl_inv,
    pl_ret,
)


def fit_slope(ts, errs):
    return np.polyfit(np.log(ts), np.log(errs), 1)[0]


def horizontal_tangent(base, seed, norm=1.0):
    """Tangent with U.T Xi = 0 (pure B-block)."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal(base.U.shape)
    Xi = Z - base.U @ (base.U.T @ Z)
    return TangentVector(base, Xi * (norm / np.linalg.norm(Xi)))


def point_with_nan(n, p, seed):
    """A random point with one entry replaced by NaN (bypasses check_point)."""
    U = rand_point(n, p, seed).U.copy()
    U[0, 0] = np.nan
    return StiefelPoint(U)


class TestPolarFactor:
    def test_zero_tangent(self):
        U0 = rand_point(10, 3, 0)
        out = pf_ret(TangentVector(U0, np.zeros((10, 3))))
        assert np.allclose(out.U, U0.U)

    def test_sphere_direct_evaluation(self):
        U0 = StiefelPoint(np.array([[1.0], [0.0]]))
        xi = TangentVector(U0, np.array([[0.0], [1.0]]))
        assert np.allclose(pf_ret(xi).U, np.array([[1.0], [1.0]]) / np.sqrt(2))

    def test_taylor_expansion_third_order(self):
        U0 = rand_point(20, 5, 1)
        xi = rand_tangent(U0, 1.0, 2)
        # second-order expansion: U + t Xi - t^2/2 U Xi.T Xi
        G = U0.U @ (xi.Xi.T @ xi.Xi)
        ts = np.logspace(-3, -1, 10)
        errs = [
            np.linalg.norm(pf_ret(xi.scaled(t)).U - (U0.U + t * xi.Xi - 0.5 * t**2 * G))
            for t in ts
        ]
        assert fit_slope(ts, errs) > 2.8

    def test_inverse_at_base(self):
        U0 = rand_point(12, 4, 3)
        assert np.linalg.norm(pf_inv(U0, U0).Xi) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_roundtrip(self, seed):
        U0 = rand_point(30, 6, seed)
        xi = rand_tangent(U0, 1.0, seed + 50)
        back = pf_inv(U0, pf_ret(xi))
        assert np.linalg.norm(back.Xi - xi.Xi) < 1e-10

    def test_inverse_roundtrip_near_defective_overlap(self):
        # U0 = E, U1 = [C; P (I - C.T C)^(1/2)] with C = 0.4 Q (J + 1e-4 diag(0..5)) Q.T,
        # J the Jordan block at 1: sigma_min(C) 0.096, but C is nearly defective
        rng = np.random.default_rng(0)
        n, p = 20, 6
        J = np.eye(p) + np.diag(np.ones(p - 1), 1) + 1e-4 * np.diag(np.arange(p))
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        C = 0.4 * Q @ J @ Q.T
        w, V = np.linalg.eigh(np.eye(p) - C.T @ C)
        P = np.linalg.qr(rng.standard_normal((n - p, p)))[0]
        U0 = canonical_point(n, p)
        U1 = check_point(np.vstack([C, P @ ((V * np.sqrt(w)) @ V.T)]))
        assert np.linalg.norm(pf_ret(pf_inv(U0, U1)).U - U1.U) <= 1e-10 * np.sqrt(p)

    def test_rejects_rotation_angle_above_half_pi(self):
        # Sylvester solution X = I / cos(2) on the rotated block: not SPD,
        # and pf_ret(U1 X - U0) = U1 sign(X) != U1
        A = np.zeros((4, 4))
        A[1, 0], A[0, 1] = 2.0, -2.0
        U1 = param_at_E(ChartCoordinates(A, np.zeros((6, 4))))
        with pytest.raises(DomainError, match="positive definite"):
            pf_inv(canonical_point(10, 4), U1)


class TestPolarLight:
    def test_zero_tangent(self):
        U0 = rand_point(10, 3, 0)
        out = pl_ret(TangentVector(U0, np.zeros((10, 3))))
        assert np.allclose(out.U, U0.U)

    def test_coincides_with_pf_for_horizontal(self):
        U0 = rand_point(25, 5, 1)
        xi = horizontal_tangent(U0, 2)
        diff = np.linalg.norm(pl_ret(xi).U - pf_ret(xi).U)
        assert diff < 1e-12 * np.sqrt(5)

    def test_taylor_blocks_at_canonical_point(self):
        rng = np.random.default_rng(3)
        n, p = 12, 4
        E = canonical_point(n, p)
        A = rng.standard_normal((p, p))
        A = 0.5 * (A - A.T)
        B = rng.standard_normal((n - p, p))
        Xi = np.vstack([A, B])
        upper2nd = lambda t: np.eye(p) + t * A + 0.5 * t**2 * (A @ A - B.T @ B)
        ts = np.logspace(-3, -1, 10)
        errs_up, errs_lo = [], []
        for t in ts:
            out = pl_ret(TangentVector(E, t * Xi)).U
            errs_up.append(np.linalg.norm(out[:p] - upper2nd(t)))
            errs_lo.append(np.linalg.norm(out[p:] - t * B))
        assert fit_slope(ts, errs_up) > 2.8
        assert fit_slope(ts, errs_lo) > 2.8

    def test_inverse_at_base(self):
        U0 = rand_point(12, 4, 4)
        assert np.linalg.norm(pl_inv(U0, U0).Xi) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_both_ways(self, seed):
        n, p = 30, 6
        U0 = rand_point(n, p, seed)
        xi = rand_tangent(U0, np.pi / 2, seed + 60)
        back = pl_inv(U0, pl_ret(xi))
        assert np.linalg.norm(back.Xi - xi.Xi) < 1e-10
        U1 = exp_beta(rand_tangent(U0, 0.8, seed + 70))
        again = pl_ret(pl_inv(U0, U1))
        assert np.linalg.norm(again.U - U1.U) < 1e-10

    def test_procrustes_identity(self):
        # the orthogonal factor inside pl_inv is the polar factor of U0.T U1
        U0 = rand_point(20, 5, 5)
        U1 = exp_beta(rand_tangent(U0, 1.0, 6))
        C = U0.U.T @ U1.U
        M, s, Rt = np.linalg.svd(C)
        w, V = np.linalg.eigh(C.T @ C)
        polar = C @ ((V * w**-0.5) @ V.T)
        assert np.linalg.norm(M @ Rt - polar) < 1e-11

    def test_svd_sign_invariance(self):
        # flipping matched singular-vector signs leaves the inverse unchanged
        rng = np.random.default_rng(7)
        U0 = rand_point(20, 5, 8)
        U1 = exp_beta(rand_tangent(U0, 1.0, 9))
        M, s, Rt = np.linalg.svd(U0.U.T @ U1.U)
        D = np.diag(rng.choice([-1.0, 1.0], size=5))
        M2, Rt2 = M @ D, D @ Rt
        assert np.allclose(M2 @ np.diag(s) @ Rt2, M @ np.diag(s) @ Rt)
        ortho = M2 @ Rt2
        Xi = U0.U @ (logm_so(ortho) - ortho) + U1.U @ ((Rt2.T * (1.0 / s)) @ Rt2)
        assert np.allclose(Xi, pl_inv(U0, U1).Xi, atol=1e-12)

    def test_rejects_singular_upper_block(self):
        # U1's projection onto span(U0) is rank deficient
        U0 = canonical_point(8, 2)
        U1 = StiefelPoint(np.array(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0],
             [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        ))
        with pytest.raises(DomainError):
            pl_inv(U0, U1)

    def test_rejects_negative_determinant(self):
        U0 = canonical_point(6, 2)
        flipped = U0.U.copy()
        flipped[:, 0] *= -1
        with pytest.raises(DomainError):
            pl_inv(U0, StiefelPoint(flipped))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            pl_inv(rand_point(10, 3, 0), point_with_nan(10, 3, 1))

    def test_completion_independence(self):
        # O(np^2) form equals Q_hat * param_E(Q_hat.T xi) for explicit completions
        import scipy.linalg

        for seed in range(3):
            n, p = 14, 4
            U0 = rand_point(n, p, seed)
            xi = rand_tangent(U0, 1.1, seed + 10)
            U_perp = scipy.linalg.null_space(U0.U.T)
            Q_hat = np.hstack([U0.U, U_perp])
            coords = Q_hat.T @ xi.Xi
            via_completion = Q_hat @ param_at_E(
                ChartCoordinates(0.5 * (coords[:p] - coords[:p].T), coords[p:])
            ).U
            assert np.linalg.norm(pl_ret(xi).U - via_completion) < 1e-12


class TestChartAtE:
    def test_center(self):
        A, B = chart_at_E(canonical_point(9, 3))
        assert np.allclose(A, 0) and np.allclose(B, 0)
        assert np.allclose(param_at_E(ChartCoordinates(A, B)).U, canonical_point(9, 3).U)

    def test_zero_skew_block(self):
        rng = np.random.default_rng(0)
        B0 = rng.standard_normal((5, 2))
        w, V = np.linalg.eigh(np.eye(2) + B0.T @ B0)
        N = (V * w**-0.5) @ V.T
        expected = np.vstack([N, B0 @ N])
        assert np.allclose(param_at_E(ChartCoordinates(np.zeros((2, 2)), B0)).U, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        p, n = 4, 12
        A = rng.standard_normal((p, p))
        A = 0.5 * (A - A.T)
        A *= rng.uniform(0.1, 1.0) / np.linalg.norm(A, 2)
        B = 0.5 * rng.standard_normal((n - p, p))
        U = param_at_E(ChartCoordinates(A, B))
        A2, B2 = chart_at_E(U)
        assert np.linalg.norm(A2 - A) < 1e-10
        assert np.linalg.norm(B2 - B) < 1e-10
        assert np.linalg.norm(param_at_E(ChartCoordinates(A2, B2)).U - U.U) < 1e-10

    def test_rejects_singular_upper_block(self):
        U = np.zeros((8, 2))
        U[1, 1] = U[2, 0] = 1.0
        with pytest.raises(DomainError):
            chart_at_E(StiefelPoint(U))

    def test_rejects_negative_determinant(self):
        U = canonical_point(6, 2).U.copy()
        U[:, 0] *= -1
        with pytest.raises(DomainError):
            chart_at_E(StiefelPoint(U))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            chart_at_E(point_with_nan(8, 2, 0))

    def test_param_rejects_non_skew_block(self):
        with pytest.raises(ValidationError):
            param_at_E(ChartCoordinates(np.eye(3), np.zeros((5, 3))))


class TestPolarLightCayley:
    def test_zero_tangent(self):
        U0 = rand_point(10, 3, 0)
        out = pl_cay_ret(TangentVector(U0, np.zeros((10, 3))))
        assert np.allclose(out.U, U0.U)

    def test_coincides_with_pf_for_horizontal(self):
        U0 = rand_point(25, 5, 1)
        xi = horizontal_tangent(U0, 2)
        assert np.linalg.norm(pl_cay_ret(xi).U - pf_ret(xi).U) < 1e-12 * np.sqrt(5)

    @pytest.mark.parametrize("seed", range(3))
    def test_mutually_inverse(self, seed):
        U0 = rand_point(30, 6, seed)
        xi = rand_tangent(U0, np.pi / 2, seed + 80)
        back = pl_cay_inv(U0, pl_cay_ret(xi))
        assert np.linalg.norm(back.Xi - xi.Xi) < 1e-10

    def test_third_order_agreement_with_pl(self):
        U0 = rand_point(20, 5, 4)
        xi = rand_tangent(U0, 1.0, 5)
        ts = np.logspace(-3, -1, 10)
        errs = [
            np.linalg.norm(pl_cay_ret(xi.scaled(t)).U - pl_ret(xi.scaled(t)).U)
            for t in ts
        ]
        assert abs(fit_slope(ts, errs) - 3.0) < 0.2

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            pl_cay_inv(rand_point(10, 3, 0), point_with_nan(10, 3, 1))

    @pytest.mark.parametrize("delta", [1e-3, 1e-4])
    def test_roundtrip_near_pi(self, delta):
        # one rotation angle pi - delta: cay_inv returns ||A|| ~ 4/delta, and
        # the retraction's normalizer must not cancel O(||A||^2) terms
        rng = np.random.default_rng(11)
        n, p = 20, 6
        J = np.zeros((p, p))
        for k, theta in enumerate([np.pi - delta, *rng.uniform(0.0, np.pi / 2, 2)]):
            J[2 * k + 1, 2 * k], J[2 * k, 2 * k + 1] = theta, -theta
        Q = rand_point(p, p, 12).U
        A = Q @ J @ Q.T
        B = 0.1 * rng.standard_normal((n - p, p))
        U1 = param_at_E(ChartCoordinates(0.5 * (A - A.T), B))
        again = pl_cay_ret(pl_cay_inv(canonical_point(n, p), U1))
        assert np.linalg.norm(again.U - U1.U) <= 1e-10 * np.sqrt(p)


class TestSharedInvariants:
    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    def test_output_on_manifold_and_inverse_tangent(self, kind):
        ret, inv = RETRACTION_PAIRS[kind]
        for seed in range(3):
            U0 = rand_point(25, 5, seed)
            xi = rand_tangent(U0, 1.3, seed + 30)
            U1 = ret(xi)
            check_point(U1.U)
            back = inv(U0, U1)
            T = U0.U.T @ back.Xi
            assert np.linalg.norm(T + T.T) < 1e-8 * np.sqrt(5)

    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    @pytest.mark.parametrize("beta", [BETA_CANONICAL, BETA_EUCLIDEAN])
    def test_first_order_for_any_beta(self, kind, beta):
        ret = RETRACTION_PAIRS[kind][0]
        U0 = rand_point(20, 5, 9)
        xi = rand_tangent(U0, 1.0, 10)
        ts = np.logspace(-3, -1, 10)
        errs = [np.linalg.norm(ret(xi.scaled(t)).U - exp_beta(xi.scaled(t), beta).U)
                for t in ts]
        assert fit_slope(ts, errs) > 1.8

    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    def test_second_order_under_euclidean_metric(self, kind):
        ret = RETRACTION_PAIRS[kind][0]
        U0 = rand_point(20, 5, 11)
        xi = rand_tangent(U0, 1.0, 12)
        ts = np.logspace(-3, -1, 10)
        errs = [np.linalg.norm(ret(xi.scaled(t)).U - exp_beta(xi.scaled(t), BETA_EUCLIDEAN).U)
                for t in ts]
        assert fit_slope(ts, errs) > 2.8

    def test_pl_only_first_order_under_canonical_metric(self):
        # the D^2 Exp correction (2 - 2 beta) B A is nonzero for generic xi
        U0 = rand_point(20, 5, 13)
        xi = rand_tangent(U0, 1.0, 14)
        ts = np.logspace(-3, -1, 10)
        errs = [np.linalg.norm(pl_ret(xi.scaled(t)).U - exp_beta(xi.scaled(t), BETA_CANONICAL).U)
                for t in ts]
        assert abs(fit_slope(ts, errs) - 2.0) < 0.2

    @pytest.mark.parametrize("retract", [pl_ret, pl_cay_ret, exp_beta],
                             ids=lambda f: f.__name__)
    def test_rejects_non_tangent(self, retract):
        # U.T Xi = diag(0.3, 0.1, 0, 0.2) is symmetric, not skew; pf_ret is
        # left unchecked, as it forms no U.T Xi
        U0 = rand_point(20, 4, 0)
        with pytest.raises(ValidationError, match="not skew"):
            retract(TangentVector(U0, U0.U * [0.3, 0.1, 0.0, 0.2]))
