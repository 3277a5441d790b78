import numpy as np
import pytest
import scipy.linalg

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
        # Schur route: the eigh route would lose digits as 1/delta here
        rng = np.random.default_rng(p)
        A = skew_with_largest_angle(np.pi - delta, p, rng)
        assert np.linalg.norm(logm_so(expm_skew(A)) - A) <= 1e-12 * np.sqrt(p)

    @pytest.mark.parametrize("p", [10, 100])
    def test_near_zero_relative_accuracy(self, p):
        # every angle in the Taylor branch of the eigh route
        rng = np.random.default_rng(p + 1)
        A = skew_with_angles(rng.uniform(0.0, 1e-8, p // 2), p, rng)
        err = np.linalg.norm(logm_so(expm_skew(A)) - A)
        assert err <= 1e-12 * np.linalg.norm(A)

    @pytest.mark.parametrize("p", [10, 100])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_route_limit(self, p, side, monkeypatch):
        # largest angle just below (eigh route) or above (Schur route) 2 rad
        schur_calls = []
        schur = scipy.linalg.schur

        def counting_schur(*args, **kwargs):
            schur_calls.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
        rng = np.random.default_rng(p + 2)
        A = skew_with_largest_angle(2.0 + side * 1e-3, p, rng)
        assert np.linalg.norm(logm_so(expm_skew(A)) - A) <= 1e-12 * np.sqrt(p)
        assert len(schur_calls) == (side > 0)

    @pytest.mark.parametrize("theta_max", [1.0, 3.0])
    def test_exactly_skew(self, theta_max):
        # theta_max = 1 takes the eigh route, 3 the Schur route
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


def sylvester_kron_oracle(C):
    """Solve C X + X C.T = 2 I by the dense Kronecker system (small p only)."""
    p = C.shape[0]
    K = np.kron(np.eye(p), C) + np.kron(C, np.eye(p))
    x = np.linalg.solve(K, 2.0 * np.eye(p).flatten("F"))
    return x.reshape((p, p), order="F")


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
        X = solve_pf_sylvester(C)
        assert np.allclose(X, sylvester_kron_oracle(C), atol=1e-10)

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
