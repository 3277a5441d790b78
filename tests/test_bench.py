import csv

import numpy as np
import pytest

from stiefel_retractions import bench, core
from stiefel_retractions.bench import (
    ExperimentConfig,
    convergence_slope,
    convergence_slopes,
    emit_report,
    error_curve,
    gen_tangent,
    gen_triple,
    max_errors,
    timing_run,
    timing_runs,
)
from stiefel_retractions.core import (
    BETA_CANONICAL,
    BETA_EUCLIDEAN,
    TangentVector,
    _flow,
    _frame,
    _skew_block,
    exp_beta,
    rand_point,
)
from stiefel_retractions.matfun import ValidationError
from stiefel_retractions.retractions import RETRACTION_PAIRS

from test_core import exp_beta_full_completion

SMALL = dict(n=40, p=8, seed=3, steps=11)
KINDS = ("pf", "pl", "pl_cayley")
# The rows stiefel-bench order reports: every kind at beta = 1, and pl at beta = 1/2.
ORDER_ROWS = [*((kind, BETA_EUCLIDEAN) for kind in KINDS), ("pl", BETA_CANONICAL)]
# core._frame where Xi - U A has full column rank, where n < 2p, and at Xi = 0.
FRAME_CASES = [(40, 8, np.pi / 2), (12, 8, np.pi / 2), (20, 4, 0.0)]
UNKNOWN_QR = r"unknown retraction kinds: \['qr'\]"
# error_curve and convergence_slope work in the 2p-dimensional coordinates
# [A; R] of core._frame, which changes only their rounding: against the
# full-size reference below the deviations differ by at most ~1.2e-14 and
# the slopes by ~1.2e-6.
DEVIATION_TOL = 1e-13
SLOPE_TOL = 1e-5


def reference_curve(triple, kinds, steps):
    """Deviations from the per-t full-completion expm geodesic and full n-by-p retractions."""
    U0, xi, U1 = triple
    xi_r = {kind: RETRACTION_PAIRS[kind][1](U0, U1) for kind in kinds}
    out = []
    for t in (k / (steps - 1) for k in range(steps)):
        geo = exp_beta_full_completion(U0.U, t * xi.Xi, BETA_EUCLIDEAN)
        out.append({kind: np.linalg.norm(geo - RETRACTION_PAIRS[kind][0](xi_r[kind].scaled(t)).U)
                    for kind in kinds})
    return out


def reference_slope(xi, kind, beta):
    """convergence_slope from the per-t full-completion expm geodesic and full retractions."""
    ret = RETRACTION_PAIRS[kind][0]
    ts = np.logspace(-3, -1, 12) / xi.norm
    U = xi.base.U
    errs = [np.linalg.norm(ret(xi.scaled(t)).U - exp_beta_full_completion(U, t * xi.Xi, beta))
            for t in ts]
    return np.polyfit(np.log(ts), np.log(errs), 1)[0]


def assert_matches_reference(triple, kinds, steps):
    records = error_curve(triple, kinds, steps)
    assert [rec.t for rec in records] == [k / (steps - 1) for k in range(steps)]
    for rec, ref in zip(records, reference_curve(triple, kinds, steps), strict=True):
        for kind in kinds:
            assert abs(rec.errors[kind] - ref[kind]) <= DEVIATION_TOL


class TestConfig:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n=5, p=8)

    def test_rejects_few_steps(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n=10, p=2, steps=1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n=10, p=2, kinds=("qr",))

    def test_rejects_repeated_kind(self):
        with pytest.raises(ValidationError, match=r"kinds must not repeat, got \['pf'\]"):
            ExperimentConfig(n=10, p=2, kinds=("pf", "pl", "pf"))

    def test_rejects_empty_kinds(self):
        with pytest.raises(ValidationError, match="kinds must name at least one"):
            ExperimentConfig(n=10, p=2, kinds=())

    @pytest.mark.parametrize("n,p", [(30, 0), (0, 0), (-1, -2)])
    def test_rejects_nonpositive_dims(self, n, p):
        with pytest.raises(ValidationError, match="n >= 1 and p >= 1"):
            ExperimentConfig(n=n, p=p)

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValidationError, match="repeats"):
            ExperimentConfig(n=10, p=2, repeats=0)

    @pytest.mark.parametrize("distance", [float("nan"), float("inf")])
    def test_rejects_nonfinite_distance(self, distance):
        with pytest.raises(ValidationError, match="distance"):
            ExperimentConfig(n=10, p=2, distance=distance)

    @pytest.mark.parametrize("call, message", [
        (lambda tr: error_curve(tr, KINDS, 1), "steps must be >= 2"),
        (lambda tr: error_curve(tr, KINDS, 0), "steps must be >= 2"),
        (lambda tr: error_curve(tr, ("qr",)), UNKNOWN_QR),
        (lambda tr: convergence_slopes(tr[1], [("pf", 1.0), ("qr", 1.0)]), UNKNOWN_QR),
        (lambda tr: convergence_slope(tr[1], "qr", BETA_EUCLIDEAN), UNKNOWN_QR),
        (lambda tr: timing_run(ExperimentConfig(n=30, p=5, repeats=1), "qr"), UNKNOWN_QR),
        (lambda tr: timing_runs(ExperimentConfig(n=30, p=5, repeats=1), ("pl", "qr")),
         UNKNOWN_QR),
        (lambda tr: convergence_slopes(tr[1], []), "kinds must name at least one"),
        (lambda tr: convergence_slopes(tr[1], [("pl", 1.0), ("pl", 0.5), ("pl", 1.0)]),
         r"rows must not repeat, got \[\('pl', 1.0\)\]"),
    ], ids=["curve_steps1", "curve_steps0", "curve_kind", "slopes_kind", "slope_kind",
            "timing_kind", "timing_kinds", "rows_empty", "rows_repeated"])
    def test_harness_functions_hold_its_rules(self, call, message):
        # error_curve, convergence_slopes, convergence_slope, timing_run and
        # timing_runs refuse what ExperimentConfig refuses, with its messages
        with pytest.raises(ValidationError, match=f"^{message}"):
            call(gen_triple(ExperimentConfig(**SMALL)))


class TestGenTriple:
    def test_zero_distance(self):
        U0, xi, U1 = gen_triple(ExperimentConfig(n=12, p=3, distance=0.0, seed=1))
        assert xi.norm == 0.0
        assert np.allclose(U1.U, U0.U, atol=1e-13)

    def test_norm_contract(self):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        assert abs(xi.norm - np.pi / 2) < 1e-12

    def test_deterministic_and_consistent(self):
        cfg = ExperimentConfig(**SMALL)
        U0a, xia, U1a = gen_triple(cfg)
        U0b, xib, U1b = gen_triple(cfg)
        assert np.array_equal(U0a.U, U0b.U)
        assert np.array_equal(xia.Xi, xib.Xi)
        assert np.array_equal(U1a.U, U1b.U)
        # re-evaluating the exponential reproduces the stored endpoint
        assert np.array_equal(exp_beta(xia, BETA_EUCLIDEAN).U, U1a.U)


class TestErrorCurve:
    def test_endpoints_shared(self):
        cfg = ExperimentConfig(**SMALL)
        records = error_curve(gen_triple(cfg), ("pf", "pl", "pl_cayley"), cfg.steps)
        assert len(records) == cfg.steps
        for kind in ("pf", "pl", "pl_cayley"):
            assert records[0].errors[kind] <= 1e-10
            assert records[-1].errors[kind] <= 1e-10

    def test_max_errors(self):
        recs = error_curve(gen_triple(ExperimentConfig(**SMALL)), ("pf", "pl"), 11)
        m = max_errors(recs)
        assert set(m) == {"pf", "pl"}
        assert all(v > 0 for v in m.values())

    def test_rejects_an_endpoint_off_the_geodesic(self):
        # U1 is read only to check it: the pullbacks start from the geodesic's own endpoint
        U0, xi, U1 = gen_triple(ExperimentConfig(**SMALL))
        for endpoint in (U0, rand_point(40, 8, 1), rand_point(12, 8, 1)):
            with pytest.raises(ValidationError, match="U1 is not Exp_U0"):
                error_curve((U0, xi, endpoint), KINDS, 5)
        assert len(error_curve((U0, xi, U1), KINDS, 5)) == 5

    def test_without_endpoint_matches_the_triple(self, monkeypatch):
        # U1 = None is neither formed nor checked; the records are the triple's, bit for bit
        cfg = ExperimentConfig(**SMALL)
        U0, xi, U1 = gen_triple(cfg)
        want = error_curve((U0, xi, U1), KINDS, cfg.steps)
        monkeypatch.setattr(bench, "exp_beta", lambda *args: pytest.fail("exp_beta ran"))
        monkeypatch.setattr(core, "exp_beta", lambda *args: pytest.fail("exp_beta ran"))
        assert error_curve((U0, xi, None), KINDS, cfg.steps) == want

    def test_rejects_a_base_other_than_the_tangents(self):
        U0, xi, U1 = gen_triple(ExperimentConfig(**SMALL))
        with pytest.raises(ValidationError, match="U0 is not the base point of xi"):
            error_curve((rand_point(40, 8, 1), xi, U1), KINDS, 5)


class TestConvergenceSlope:
    def test_second_order_euclidean(self):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        assert convergence_slope(xi, "pl", BETA_EUCLIDEAN) > 2.8

    def test_first_order_canonical(self):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        assert 1.8 < convergence_slope(xi, "pl", BETA_CANONICAL) < 2.4

    @pytest.mark.parametrize("distance", [1e-200, 1e-160, 1e-4, 1e6])
    def test_order_at_any_distance(self, distance):
        # the fit runs over step lengths 1e-3 to 1e-1, however long xi is,
        # also where ||xi||_F, which squares the entries, would read 0 or
        # the geodesic's eigh would meet subnormal input
        xi = gen_tangent(ExperimentConfig(**SMALL, distance=distance))
        for (_, beta), slope in convergence_slopes(xi, ORDER_ROWS).items():
            assert abs(slope - (3.0 if beta == BETA_EUCLIDEAN else 2.0)) <= 0.3

    def test_rejects_zero_tangent(self):
        xi = gen_tangent(ExperimentConfig(**SMALL, distance=0.0))
        with pytest.raises(ValidationError, match="tangent is zero"):
            convergence_slopes(xi, ORDER_ROWS)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_rejects_nonfinite_beta(self, beta):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        with pytest.raises(ValidationError, match="beta must be positive and finite"):
            convergence_slope(xi, "pl", beta)
        with pytest.raises(ValidationError, match="beta must be positive and finite"):
            convergence_slopes(xi, [(kind, beta) for kind in KINDS])


class TestDeviationReference:
    """error_curve and convergence_slope against a direct full-size per-t loop."""

    def test_error_curve(self):
        assert_matches_reference(gen_triple(ExperimentConfig(**SMALL)), KINDS, 11)

    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    @pytest.mark.parametrize("beta", [BETA_CANONICAL, BETA_EUCLIDEAN])
    def test_convergence_slope(self, kind, beta):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        assert abs(convergence_slope(xi, kind, beta) - reference_slope(xi, kind, beta)) <= SLOPE_TOL


class TestFrame:
    """core._frame's coordinates, also where its basis [U Q] is not orthonormal."""

    def test_error_curve_n_below_2p(self):
        # Xi - U A has rank n - p = 4 < p, so the basis [U Q] is not orthonormal
        assert_matches_reference(gen_triple(ExperimentConfig(n=12, p=8, seed=0)), KINDS, 11)

    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    @pytest.mark.parametrize("beta", [BETA_CANONICAL, BETA_EUCLIDEAN])
    def test_convergence_slope_n_below_2p(self, kind, beta):
        _, xi, _ = gen_triple(ExperimentConfig(n=12, p=8, seed=0))
        assert abs(convergence_slope(xi, kind, beta) - reference_slope(xi, kind, beta)) <= SLOPE_TOL

    def test_error_curve_zero_distance(self):
        assert_matches_reference(gen_triple(ExperimentConfig(n=20, p=4, distance=0.0)), KINDS, 5)

    def test_convergence_slopes_match_single_kind(self):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        for beta in (BETA_CANONICAL, BETA_EUCLIDEAN):
            rows = [(kind, beta) for kind in KINDS]
            slopes = convergence_slopes(xi, rows)
            assert list(slopes) == rows
            assert slopes == {(kind, beta): convergence_slope(xi, kind, beta) for kind in KINDS}

    def test_several_betas_match_one_beta_each(self):
        # one frame, one retraction curve per kind and one geodesic per beta
        # serve every row, bit for bit, in row order; the rows are read once
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        betas = (BETA_EUCLIDEAN, BETA_CANONICAL)
        rows = [(kind, beta) for beta in betas for kind in KINDS]
        for asked in (rows, ORDER_ROWS):
            slopes = convergence_slopes(xi, iter(asked))
            assert list(slopes) == asked
            assert slopes == {row: slope for kind, beta in asked
                              for row, slope in convergence_slopes(xi, [(kind, beta)]).items()}

    def test_rejects_non_tangent(self):
        U0 = rand_point(20, 4, 0)
        xi = TangentVector(U0, U0.U @ np.diag([0.3, 0.1, 0.0, 0.2]))
        with pytest.raises(ValidationError, match="not skew-symmetric"):
            error_curve((U0, xi, U0), KINDS, 5)

    @pytest.mark.parametrize("n,p,distance", FRAME_CASES, ids=["tall", "n_below_2p", "zero"])
    def test_frame_is_the_thin_qr_of_the_normal_part(self, n, p, distance):
        # one factorization: the skew block bit for bit, R triangular, and basis [U Q]
        _, xi, _ = gen_triple(ExperimentConfig(n=n, p=p, distance=distance))
        basis, A, R = _frame(xi)
        assert np.array_equal(A, _skew_block(xi))
        assert np.array_equal(R, np.triu(R)) and R.shape == (p, p)
        assert np.array_equal(basis[:, :p], xi.base.U) and basis.shape == (n, 2 * p)
        err = np.linalg.norm(basis[:, p:] @ R - (xi.Xi - xi.base.U @ A))
        assert err <= 1e-14 * max(1.0, xi.norm)

    @pytest.mark.parametrize("n,p,distance", [pytest.param(*case, id=name) for case, name in
                                              zip(FRAME_CASES, ["40-8", "12-8", "zero"])])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.6])
    def test_flow_in_frame_is_the_geodesic(self, n, p, distance, beta):
        # [U Q] is not orthonormal at n < 2p or xi = 0, yet it maps the flow onto the geodesic
        _, xi, _ = gen_triple(ExperimentConfig(n=n, p=p, distance=distance))
        basis, A, R = _frame(xi)
        flow = _flow(A, R, beta)
        for t in (0.0, 1e-3, 0.5, 1.0):
            ref = exp_beta_full_completion(xi.base.U, t * xi.Xi, beta)
            assert np.linalg.norm(basis @ flow(t) - ref) <= 1e-13 * np.sqrt(p), t


class TestTiming:
    def test_single_repeat(self):
        rec = timing_run(ExperimentConfig(n=30, p=5, repeats=1, seed=0), "pl")
        assert rec.mean_seconds > 0 and np.isfinite(rec.mean_seconds)
        assert rec.roundtrip_norm_mean < 1e-10

    @pytest.mark.parametrize("kinds", [KINDS, KINDS[::-1]])
    def test_several_kinds_match_one_kind_each(self, kinds):
        # every kind's inverse runs on the same seeded pairs, alone or together
        cfg = ExperimentConfig(n=30, p=5, repeats=3, seed=4)
        records = timing_runs(cfg, kinds)
        assert [rec.kind for rec in records] == list(kinds)
        assert [rec.roundtrip_norm_mean for rec in records] == [
            timing_run(cfg, kind).roundtrip_norm_mean for kind in kinds]


class TestReports:
    def test_empty_records_header_only(self, tmp_path):
        emit_report(tmp_path, ExperimentConfig(**SMALL), curve_records=[])
        assert (tmp_path / "curve.csv").read_text().strip() == "n,p,seed,kind,t,error"
        assert (tmp_path / "maxerr.csv").read_text().strip() == "n,p,seed,kind,max_error"

    def test_curve_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(**SMALL, kinds=("pf", "pl"))
        records = error_curve(gen_triple(cfg), cfg.kinds, cfg.steps)
        emit_report(tmp_path, cfg, curve_records=records)
        with open(tmp_path / "curve.csv") as f:
            rows = list(csv.DictReader(f))
        assert set(rows[0]) == {"n", "p", "seed", "kind", "t", "error"}
        assert len(rows) == cfg.steps * 2
        assert {r["kind"] for r in rows} == {"pf", "pl"}
        with open(tmp_path / "maxerr.csv") as f:
            rows = list(csv.DictReader(f))
        assert set(rows[0]) == {"n", "p", "seed", "kind", "max_error"}

    def test_timing_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(n=30, p=5, repeats=2, seed=0, kinds=("pf",))
        emit_report(tmp_path, cfg, timings=[timing_run(cfg, "pf")])
        with open(tmp_path / "timing.csv") as f:
            rows = list(csv.DictReader(f))
        assert set(rows[0]) == {"n", "p", "seed", "kind", "mean_seconds", "roundtrip_norm"}
        assert len(rows) == 1

    def test_outdir_under_a_file(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(OSError, match="cannot create output directory"):
            emit_report(tmp_path / "file" / "run", ExperimentConfig(**SMALL))

    def test_curve_csv_deterministic(self, tmp_path):
        cfg = ExperimentConfig(**SMALL)
        for sub in ("a", "b"):
            records = error_curve(gen_triple(cfg), cfg.kinds, cfg.steps)
            emit_report(tmp_path / sub, cfg, curve_records=records)
        assert (tmp_path / "a/curve.csv").read_bytes() == (tmp_path / "b/curve.csv").read_bytes()
        assert (tmp_path / "a/maxerr.csv").read_bytes() == (tmp_path / "b/maxerr.csv").read_bytes()
