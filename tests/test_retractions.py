import numpy as np
import pytest
import scipy.linalg

from stiefel_retractions import matfun
from stiefel_retractions.core import (
    BETA_CANONICAL,
    BETA_EUCLIDEAN,
    StiefelPoint,
    TangentVector,
    _frame,
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
    _curve,
    chart_at_E,
    param_at_E,
    pf_inv,
    pf_ret,
    pl_cay_inv,
    pl_cay_ret,
    pl_inv,
    pl_ret,
)

from test_matfun import singular_inv


def fit_slope(ts, errs):
    return np.polyfit(np.log(ts), np.log(errs), 1)[0]


def horizontal_tangent(base, seed, norm=1.0):
    """Tangent with U.T Xi = 0 (pure B-block)."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal(base.U.shape)
    Xi = Z - base.U @ (base.U.T @ Z)
    return TangentVector(base, Xi * (norm / np.linalg.norm(Xi)))


def normal_part(base, Z):
    """Z - U U.T Z: the part of Z normal to span(U)."""
    return Z - base.U @ (base.U.T @ Z)


def edge_pair(n, p, sigma_min, seed):
    """(U0, U1, Xi) with U1 = pl_ret(Xi) and sigma_min(U0.T U1) = sigma_min, in closed form.

    Xi = U0 A + P diag(b) V.T with P orthonormal and normal to U0, so
    U1 = (U0 exp(A) V + P diag(b)) diag(c) V.T with c = 1/sqrt(1 + b^2):
    U0.T U1 has singular values c, the smallest from b_0.
    """
    rng = np.random.default_rng(seed)
    U0 = rand_point(n, p, rng)
    A = rng.standard_normal((p, p))
    A = 0.5 * (A - A.T)
    A *= rng.uniform(0.5, 1.0) / np.linalg.norm(A, 2)
    P = np.linalg.qr(normal_part(U0, rng.standard_normal((n, p))))[0]
    V = rand_point(p, p, rng).U
    b = rng.uniform(0.0, 1.0, p)
    b[0] = np.sqrt(1.0 / sigma_min**2 - 1.0)
    c = 1.0 / np.sqrt(1.0 + b**2)
    U1 = (U0.U @ (expm_skew(A) @ V) * c + P * (b * c)) @ V.T
    return U0, check_point(U1), U0.U @ A + (P * b) @ V.T


def point_with_nan(n, p, seed):
    """A random point with one entry replaced by NaN (bypasses check_point)."""
    U = rand_point(n, p, seed).U.copy()
    U[0, 0] = np.nan
    return StiefelPoint(U)


def newton_route_pair():
    """(U0, U1) at distance 4, whose Cayley transform of U0.T U1 has ||A||_2 = 0.42:
    above the squared Smith cap, so solve_pf_sylvester takes the Newton iteration."""
    U0 = rand_point(40, 8, 0)
    return U0, pf_ret(rand_tangent(U0, 4.0, np.random.default_rng(1)))


def svd_route_reflection():
    """A point whose upper block C = Q diag(0.3, 0.5, 0.7, 0.9) V.T has det(Q V.T) = -1.

    S = C.T C is far from a multiple of I, so C takes the SVD, and the
    polar factor Q V.T is a reflection.
    """
    n, p, rng = 12, 4, np.random.default_rng(0)
    Q, V = (np.linalg.qr(rng.standard_normal((p, p)))[0] for _ in range(2))
    if np.linalg.det(Q @ V.T) > 0:
        Q[:, 0] *= -1
    s = np.array([0.3, 0.5, 0.7, 0.9])
    P = np.linalg.qr(rng.standard_normal((n - p, p)))[0]
    return StiefelPoint(np.vstack([(Q * s) @ V.T, (P * np.sqrt(1.0 - s**2)) @ V.T]))


def generic_reflection():
    """[Q; 0] with Q a generic reflection: I + Q is singular only up to roundoff."""
    Q = rand_point(5, 5, 3).U
    if np.linalg.det(Q) > 0:
        Q[:, 0] *= -1
    return StiefelPoint(np.vstack([Q, np.zeros((7, 5))]))


def orthogonal_frame():
    """Q.T Q[:, 4:8], Q the full QR of a random 40-by-4 frame: orthogonal to E
    up to rounding, its upper block has singular values 4e-18 to 1.7e-16."""
    Q = np.linalg.qr(rand_point(40, 4, 0).U, mode="complete")[0]
    return StiefelPoint(Q.T @ Q[:, 4:8])


# Points the PL inverses refuse at U0 = E: (point, error, message match, and
# the _polar_parts route and size taken before the refusal, None if it is refused first).
PL_REFUSALS = {
    # U1's projection onto span(E) is rank deficient
    "singular_upper_block": (lambda: StiefelPoint(np.eye(8)[:, [2, 1]]),
                             DomainError, "U0.T U1 nearly singular", ("svd", 0)),
    # C.T C = I exactly, so the series has degree 0
    "column_flip": (lambda: StiefelPoint(np.eye(6, 2) * [-1.0, 1.0]), DomainError, None,
                    ("series", 0)),
    # condition 1, so no SVD runs, and the untwist refuses the polar factor of det -1
    "generic_reflection": (generic_reflection, DomainError, None, ("series", 1)),
    "svd_route_reflection": (svd_route_reflection, DomainError, None, ("svd", 0)),
    # a condition number of only 47: the floor on sigma_min must be absolute
    "orthogonal_frame": (orthogonal_frame, DomainError, "U0.T U1 nearly singular", ("svd", 0)),
    "non_finite": (lambda: point_with_nan(10, 3, 1), ValidationError, "non-finite", None),
}

# The PL-family maps from a point to chart coordinates, all at E.
PL_INVERSES = {
    "pl_inv": lambda U: pl_inv(canonical_point(U.n, U.p), U),
    "pl_cay_inv": lambda U: pl_cay_inv(canonical_point(U.n, U.p), U),
    "chart_at_E": chart_at_E,
}

# (sigma_min, seed) of edge_pair inputs at n = 100, p = 40, all on the SVD route.
SVD_ROUTE_PAIRS = [(s, 1) for s in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)] + [
    (s, seed) for s in (2e-1, 5e-2, 3e-2, 2e-2) for seed in range(4)
]


class RoundtripContracts:
    """Contracts every retraction pair meets; each kind's class sets kind and runs them."""

    kind: str

    def test_zero_tangent(self):
        U0 = rand_point(10, 3, 0)
        out = RETRACTION_PAIRS[self.kind][0](TangentVector(U0, np.zeros((10, 3))))
        assert np.allclose(out.U, U0.U)

    def test_inverse_at_base(self):
        U0 = rand_point(12, 4, 3)
        assert np.linalg.norm(RETRACTION_PAIRS[self.kind][1](U0, U0).Xi) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_both_ways(self, seed):
        ret, inv = RETRACTION_PAIRS[self.kind]
        n, p = 30, 6
        U0 = rand_point(n, p, seed)
        xi = rand_tangent(U0, np.pi / 2, seed + 60)
        back = inv(U0, ret(xi))
        assert np.linalg.norm(back.Xi - xi.Xi) < 1e-10
        U1 = exp_beta(rand_tangent(U0, 0.8, seed + 70))
        again = ret(inv(U0, U1))
        assert np.linalg.norm(again.U - U1.U) < 1e-10


class PolarLightContracts(RoundtripContracts):
    """RoundtripContracts, and PL's and PL-Cayley's twist is I on a horizontal tangent."""

    def test_coincides_with_pf_for_horizontal(self):
        U0 = rand_point(25, 5, 1)
        xi = horizontal_tangent(U0, 2)
        diff = np.linalg.norm(RETRACTION_PAIRS[self.kind][0](xi).U - pf_ret(xi).U)
        assert diff < 1e-12 * np.sqrt(5)


class TestPolarFactor(RoundtripContracts):
    kind = "pf"

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

    @pytest.mark.parametrize("fake_inv, message", [
        (singular_inv, "^pf_inv: outside PF injectivity domain .*positive definite"),
        (lambda M, singular_message: np.full_like(M, np.nan),
         r"^pf_inv: Sylvester solve failed .*X not finite"),
    ], ids=["singular", "not_finite"])
    def test_inverse_failure_is_domain_error(self, fake_inv, message, monkeypatch):
        # an exactly singular C_k is a statement about C; a non-finite
        # inverse is a numerical failure and says so
        U0, U1 = newton_route_pair()
        monkeypatch.setattr(matfun, "_inv", fake_inv)
        with pytest.raises(DomainError, match=message):
            pf_inv(U0, U1)

    def test_iteration_cap_is_not_a_domain_refusal(self, monkeypatch):
        monkeypatch.setattr(matfun, "_SIGN_MAX_STEPS", 1)
        U0, U1 = newton_route_pair()
        with pytest.raises(
            DomainError, match="^pf_inv: Sylvester solve failed .*did not converge in 1 steps"
        ):
            pf_inv(U0, U1)

    def test_newton_route_pair_takes_newton(self, routes):
        # the two tests above exercise the Newton iteration only if the
        # squared Smith route turns their pair down
        U0, U1 = newton_route_pair()
        with routes() as log:
            pf_inv(U0, U1)
        assert [r for r in log if r[0] != "_inv"] == [("solve_pf_sylvester", "newton", 0)]


class TestPolarLight(PolarLightContracts):
    kind = "pl"

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

    def test_completion_independence(self):
        # O(np^2) form equals Q_hat * param_E(Q_hat.T xi) for explicit completions
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

    def test_square_point_has_empty_B(self):
        # n = p: B is 0-by-p and the point is the rotation exp(A)
        A = np.array([[0.0, -0.3], [0.3, 0.0]])
        U = param_at_E(ChartCoordinates(A, np.zeros((0, 2))))
        assert np.allclose(U.U, expm_skew(A))

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

    def test_param_rejects_non_skew_block(self):
        with pytest.raises(ValidationError):
            param_at_E(ChartCoordinates(np.eye(3), np.zeros((5, 3))))

    @pytest.mark.parametrize(
        "A, B, block",
        [
            (np.zeros((3, 3)), np.zeros((5, 4)), "B"),
            (np.zeros((3, 3)), np.zeros(5), "B"),
            (np.zeros((3, 2)), np.zeros((5, 2)), "A"),
            (np.zeros((3, 3)), np.full((5, 3), np.nan), "B"),
            (np.full((3, 3), np.inf), np.zeros((5, 3)), "A"),
        ],
        ids=["B_columns", "B_vector", "A_not_square", "B_nan", "A_inf"],
    )
    def test_param_rejects_bad_block(self, A, B, block):
        # the error is typed and names the offending block
        with pytest.raises(ValidationError, match=f"^{block} "):
            param_at_E(ChartCoordinates(A, B))


class TestPolarLightCayley(PolarLightContracts):
    kind = "pl_cayley"

    def test_third_order_agreement_with_pl(self):
        U0 = rand_point(20, 5, 4)
        xi = rand_tangent(U0, 1.0, 5)
        ts = np.logspace(-3, -1, 10)
        errs = [
            np.linalg.norm(pl_cay_ret(xi.scaled(t)).U - pl_ret(xi.scaled(t)).U)
            for t in ts
        ]
        assert abs(fit_slope(ts, errs) - 3.0) < 0.2

    def test_rejects_negative_determinant(self, routes):
        # the table's SVD-route reflection, moved from E to a random U0:
        # U1 = [U0, U0_perp] X, so U0.T U1 is X's upper block
        U0 = rand_point(12, 4, 0)
        W = np.hstack([U0.U, np.linalg.qr(U0.U, mode="complete")[0][:, 4:]])
        with routes() as log, pytest.raises(DomainError):
            pl_cay_inv(U0, StiefelPoint(W @ svd_route_reflection().U))
        assert log[0] == ("_polar_parts", "svd", 0)

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


class TestDomainEdges:
    """Each map returns an accurate answer or raises a typed error near its domain edges."""

    @pytest.mark.parametrize("sigma_min", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    def test_chart_edge_roundtrip(self, kind, sigma_min):
        ret, inv = RETRACTION_PAIRS[kind]
        p = 40
        U0, U1, _ = edge_pair(100, p, sigma_min, 0)
        try:
            again = ret(inv(U0, U1))
        except (DomainError, ValidationError):
            assert sigma_min < 1e-3, "refused a pair well inside the chart"
            return
        assert np.linalg.norm(again.U - U1.U) <= 1e-10 * np.sqrt(p)

    @pytest.mark.parametrize("case", PL_REFUSALS)
    @pytest.mark.parametrize("inverse", PL_INVERSES)
    def test_pl_inverse_refuses(self, inverse, case, routes):
        point, error, match, route = PL_REFUSALS[case]
        with routes() as log, pytest.raises(error, match=match):
            PL_INVERSES[inverse](point())
        assert log[:1] == ([("_polar_parts", *route)] if route else [])

    @pytest.mark.parametrize("inv", [pl_inv, pl_cay_inv], ids=lambda f: f.__name__)
    def test_rejects_negative_determinant_on_series_route(self, inv, routes):
        # the table's generic reflection, moved from E to a random U0, where
        # U0.T U1 is formed as a product: condition 1, so it takes the series
        # (degree 1: C.T C is I up to rounding) and no SVD runs, and the untwist
        # refuses the polar factor of det -1
        U0 = rand_point(12, 5, 2)
        Q = rand_point(5, 5, 3).U
        if np.linalg.det(Q) > 0:
            Q[:, 0] *= -1
        with routes() as log, pytest.raises(DomainError):
            inv(U0, StiefelPoint(U0.U @ Q))
        assert log[0] == ("_polar_parts", "series", 1)

    @pytest.mark.parametrize("sigma_min, seed", SVD_ROUTE_PAIRS)
    def test_pl_inv_accuracy_on_svd_route(self, sigma_min, seed, routes):
        # the SVD keeps the error first order in 1/sigma_min; a Gram route
        # through eigh(C.T C) would make it second order. Such a route meets
        # this bound up to cond(C.T C) = 1e2, and one taken up to 1e4 misses
        # it at sigma_min 3e-2 and 2e-2
        U0, U1, Xi = edge_pair(100, 40, sigma_min, seed)
        with routes() as log:
            err = np.linalg.norm(pl_inv(U0, U1).Xi - Xi) / np.linalg.norm(Xi)
        assert log[0] == ("_polar_parts", "svd", 0)
        assert err <= 10 * np.finfo(float).eps / sigma_min

    def test_nearby_pair_takes_no_eigh(self, routes):
        # U0.T U1 and its polar factor are close enough to I (series gate
        # bounds about 0.08 and 0.013 here) that no p-by-p eigh or SVD runs
        U0 = rand_point(200, 80, 0)
        xi = rand_tangent(U0, np.pi / 2, 10)
        U1 = pl_ret(xi)
        M, _, Rt = np.linalg.svd(U0.U + xi.Xi, full_matrices=False)
        with routes() as log:
            eta = pl_inv(U0, U1)
            Y = pf_ret(xi)
        assert log == [("_polar_parts", "series", 12), ("logm_so", "series", 7),
                       ("invsqrtm_spd", "series", 13)]
        assert np.linalg.norm(eta.Xi - xi.Xi) <= 1e-12 * xi.norm
        assert np.linalg.norm(Y.U - M @ Rt) <= 1e-13 * np.sqrt(80)

    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    def test_chart_edge_retraction_takes_eigh(self, kind, routes):
        # at sigma_min(U0.T U1) = 1e-3 the inverse returns a tangent of norm
        # ~1e3, whose retraction's Gram matrix is far outside the series gate;
        # the PL twist sums its series at half its norm and squares once
        ret, inv = RETRACTION_PAIRS[kind]
        U0, U1, _ = edge_pair(100, 40, 1e-3, 0)
        xi = inv(U0, U1)
        with routes() as log:
            again = ret(xi)
        twist = [("expm_skew", "squared", 1)] if kind == "pl" else []
        assert [r for r in log if r[0] != "_inv"] == [*twist, ("invsqrtm_spd", "eigh", 0)]
        assert np.linalg.norm(again.U - U1.U) <= 1e-10 * np.sqrt(40)

    @pytest.mark.parametrize("b", [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    @pytest.mark.parametrize("p", [2, 5, 40])
    @pytest.mark.parametrize("retract", [pf_ret, pl_ret, pl_cay_ret],
                             ids=lambda f: f.__name__)
    def test_retraction_conditioning(self, retract, p, b):
        # one normal direction of size b: cond(M.T M) is about b^2
        rng = np.random.default_rng(p)
        n = 3 * p + 5
        U0 = rand_point(n, p, rng)
        u = normal_part(U0, rng.standard_normal((n, 1)))
        v = rng.standard_normal((1, p))
        Xi = rand_tangent(U0, 1.0, rng).Xi + b * (u / np.linalg.norm(u)) @ (v / np.linalg.norm(v))
        try:
            out = retract(TangentVector(U0, Xi))
        except (DomainError, ValidationError):
            assert b > 1e3, "refused a well-conditioned tangent"
            return
        check_point(out.U)
        if retract is pf_ret:
            W, _, Zt = np.linalg.svd(U0.U + Xi, full_matrices=False)
            assert np.linalg.norm(out.U - W @ Zt) <= matfun.tol_struct(p)


def frame_curve(kind, xi):
    """t -> basis @ _curve(kind, [A; R])(t), with core._frame's basis, A and R of xi."""
    basis, A, R = _frame(xi)
    curve = _curve(kind, np.vstack([A, R]))
    return lambda t: basis @ curve(t)


class TestFactoredCurve:
    """retractions._curve, the deviation experiments' retraction curve in chart
    coordinates at E, is the public map in core._frame's basis [U Q]."""

    @pytest.mark.parametrize("norm", [np.pi / 2, 10.0, 1e5])
    @pytest.mark.parametrize("n, p", [(40, 8), (1000, 100), (40, 7), (1000, 101), (60, 11), (50, 13)])
    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    def test_matches_public_map(self, kind, n, p, norm):
        # at odd p, A = U.T Xi is singular, and the twist's core._skew_flow sets
        # the least eigenvalue of A.T A to exactly 0: left as the eigh returns
        # it, the curve at ||Xi||_F = 1e5 misses this bound by 4.8e-13 at (60, 11)
        # and 8.9e-13 at (50, 13), where the exact 0 reads 6.5e-15 and 8.1e-15
        ret = RETRACTION_PAIRS[kind][0]
        xi = rand_tangent(rand_point(n, p, 1), norm, 2)
        curve = frame_curve(kind, xi)
        for t in np.linspace(0.0, 1.0, 51):
            assert np.linalg.norm(curve(t) - ret(xi.scaled(t)).U) <= 1e-13

    @pytest.mark.parametrize("n, p", [(40, 8), (1000, 400)])
    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    def test_starts_at_the_base(self, kind, n, p):
        # the increment form adds an exact zero to M = E at t = 0, and the
        # frame's basis maps E to U exactly
        xi = rand_tangent(rand_point(n, p, 1), np.pi / 2, 2)
        basis, A, R = _frame(xi)
        at_zero = _curve(kind, np.vstack([A, R]))(0.0)
        assert np.array_equal(at_zero, canonical_point(2 * p, p).U)
        assert np.array_equal(basis @ at_zero, xi.base.U)

    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    def test_refuses_where_the_public_map_does(self, kind):
        # a normal Xi of rank p - 1: cond(M.T M) = 1 + t^2 ||Xi||_2^2 passes
        # invsqrtm_spd's limit, about 4.5e7, between t = 0.1 and t = 1
        ret = RETRACTION_PAIRS[kind][0]
        U0 = rand_point(40, 8, 1)
        P = normal_part(U0, np.random.default_rng(2).standard_normal((40, 8)))
        P[:, 0] = 0.0
        xi = TangentVector(U0, P * (1e5 / np.linalg.norm(P)))
        curve = frame_curve(kind, xi)
        for t in (1e-3, 1e-2, 0.1):
            assert np.linalg.norm(curve(t) - ret(xi.scaled(t)).U) <= 1e-13
        for at_one in (lambda: curve(1.0), lambda: ret(xi.scaled(1.0))):
            with pytest.raises(DomainError, match=r"condition number 2\.373e\+09 too large"):
                at_one()
        # Xi = U A with ||A||_F = 1e8: expm_skew refuses that norm, while cay
        # and the normalizer, at cond(M.T M) of about 1e2, do not
        S = np.random.default_rng(3).standard_normal((8, 8))
        S -= S.T
        xi = TangentVector(U0, U0.U @ (S * (1e8 / np.linalg.norm(S))))
        for at_one in (lambda: frame_curve(kind, xi)(1.0), lambda: ret(xi)):
            if kind == "pl":
                with pytest.raises(DomainError, match=r"expm_skew: norm 1\.000e\+08 too large"):
                    at_one()
            else:
                at_one()

    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    def test_rejects_non_tangent(self, kind):
        # unlike pf_ret, the PF curve needs its top block A skew: M.T M = I + t^2 X.T X;
        # this is U.T Xi = diag(0.3, 0.1, 0, 0.2) in chart coordinates
        X = np.vstack([np.diag([0.3, 0.1, 0.0, 0.2]), np.zeros((4, 4))])
        with pytest.raises(ValidationError, match="not skew"):
            _curve(kind, X)


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

    @pytest.mark.parametrize("retract", [pf_ret, pl_ret, pl_cay_ret, exp_beta],
                             ids=lambda f: f.__name__)
    def test_rejects_non_finite_tangent(self, retract):
        U0 = rand_point(8, 3, 0)
        Xi = rand_tangent(U0, 1.0, 1).Xi
        Xi[2, 1] = np.nan
        with pytest.raises(ValidationError, match="^tangent contains non-finite"):
            retract(TangentVector(U0, Xi))

    @pytest.mark.parametrize("retract", [pf_ret, pl_ret, pl_cay_ret, exp_beta],
                             ids=lambda f: f.__name__)
    def test_rejects_overflowing_tangent(self, retract):
        # ||Xi|| = 1e200: U.T Xi, its norm and the Gram matrices would overflow
        # with a RuntimeWarning, so the size is checked before any product
        U0 = rand_point(50, 10, 0)
        with pytest.raises(ValidationError, match="^tangent too large"):
            retract(rand_tangent(U0, 1e200, 1))
