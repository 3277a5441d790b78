import csv

import numpy as np
import pytest

from stiefel_retractions.bench import (
    ExperimentConfig,
    convergence_slope,
    emit_report,
    error_curve,
    gen_triple,
    max_errors,
    timing_run,
    write_curve_csv,
)
from stiefel_retractions.core import BETA_CANONICAL, BETA_EUCLIDEAN, exp_beta
from stiefel_retractions.matfun import ValidationError
from stiefel_retractions.retractions import RETRACTION_PAIRS

SMALL = dict(n=40, p=8, seed=3, steps=11)


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


class TestConvergenceSlope:
    def test_second_order_euclidean(self):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        assert convergence_slope(xi, "pl", BETA_EUCLIDEAN) > 2.8

    def test_first_order_canonical(self):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        assert 1.8 < convergence_slope(xi, "pl", BETA_CANONICAL) < 2.4


class TestDeviationReference:
    """error_curve and convergence_slope against a direct per-t loop, bitwise."""

    def test_error_curve(self):
        kinds = ("pf", "pl", "pl_cayley")
        U0, xi, U1 = triple = gen_triple(ExperimentConfig(**SMALL))
        xi_r = {kind: RETRACTION_PAIRS[kind][1](U0, U1) for kind in kinds}
        records = error_curve(triple, kinds, 11)
        assert [rec.t for rec in records] == [k / 10 for k in range(11)]
        for rec in records:
            geo = exp_beta(xi.scaled(rec.t), BETA_EUCLIDEAN).U
            for kind in kinds:
                curve = RETRACTION_PAIRS[kind][0](xi_r[kind].scaled(rec.t)).U
                assert rec.errors[kind] == np.linalg.norm(geo - curve)

    @pytest.mark.parametrize("kind", ["pf", "pl", "pl_cayley"])
    @pytest.mark.parametrize("beta", [BETA_CANONICAL, BETA_EUCLIDEAN])
    def test_convergence_slope(self, kind, beta):
        _, xi, _ = gen_triple(ExperimentConfig(**SMALL))
        ret = RETRACTION_PAIRS[kind][0]
        ts = np.logspace(-3, -1, 12)
        errs = [np.linalg.norm(ret(xi.scaled(t)).U - exp_beta(xi.scaled(t), beta).U)
                for t in ts]
        assert convergence_slope(xi, kind, beta) == np.polyfit(np.log(ts), np.log(errs), 1)[0]


class TestTiming:
    def test_single_repeat(self):
        rec = timing_run(ExperimentConfig(n=30, p=5, repeats=1, seed=0), "pl")
        assert rec.mean_seconds > 0 and np.isfinite(rec.mean_seconds)
        assert rec.roundtrip_norm_mean < 1e-10


class TestReports:
    def test_empty_records_header_only(self, tmp_path):
        cfg = ExperimentConfig(**SMALL)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, cfg, [])
        assert path.read_text().strip() == "n,p,seed,kind,t,error"

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

    def test_curve_csv_deterministic(self, tmp_path):
        cfg = ExperimentConfig(**SMALL)
        for sub in ("a", "b"):
            records = error_curve(gen_triple(cfg), cfg.kinds, cfg.steps)
            emit_report(tmp_path / sub, cfg, curve_records=records)
        assert (tmp_path / "a/curve.csv").read_bytes() == (tmp_path / "b/curve.csv").read_bytes()
        assert (tmp_path / "a/maxerr.csv").read_bytes() == (tmp_path / "b/maxerr.csv").read_bytes()
