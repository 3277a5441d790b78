import csv

import numpy as np
import pytest

from stiefel_retractions import bench, cli, core, matfun, retractions
from stiefel_retractions.cli import main
from stiefel_retractions.core import BETA_CANONICAL, BETA_EUCLIDEAN

SMALL_ARGS = ["--n", "40", "--p", "8", "--steps", "11", "--seed", "3"]


def test_curve_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["curve", *SMALL_ARGS, "--out", str(out)]) == 0
    assert (out / "curve.csv").exists()
    assert (out / "maxerr.csv").exists()
    assert "max geodesic deviation" in capsys.readouterr().out


def test_order_command(tmp_path):
    out = tmp_path / "run"
    assert main(["order", *SMALL_ARGS, "--kinds", "pf,pl,pl_cayley",
                 "--out", str(out)]) == 0
    with open(out / "order.csv") as f:
        rows = list(csv.DictReader(f))
    assert set(rows[0]) == {"n", "p", "seed", "kind", "beta", "slope"}
    # pf, pl, pl_cayley at beta=1 plus pl at beta=1/2
    assert len(rows) == 4


def test_timing_command(tmp_path):
    out = tmp_path / "run"
    assert main(["timing", *SMALL_ARGS, "--repeats", "2", "--out", str(out)]) == 0
    with open(out / "timing.csv") as f:
        rows = list(csv.DictReader(f))
    assert {r["kind"] for r in rows} == {"pf", "pl"}
    assert all(float(r["mean_seconds"]) > 0 for r in rows)


def test_all_command(tmp_path):
    out = tmp_path / "run"
    assert main(["all", *SMALL_ARGS, "--repeats", "2", "--out", str(out)]) == 0
    for name in ("curve.csv", "maxerr.csv", "order.csv", "timing.csv", "summary.txt"):
        assert (out / name).exists()


def test_invariant_failure_exits_two_and_still_writes(tmp_path, capsys, monkeypatch):
    # the curve step compares the maxima it gets; the CSVs keep the real ones
    monkeypatch.setattr(cli, "max_errors", lambda records: {"pf": 0.0, "pl": 1.0})
    out = tmp_path / "run"
    assert main(["curve", *SMALL_ARGS, "--out", str(out)]) == 2
    assert "INVARIANT FAILED" in capsys.readouterr().err
    assert (out / "curve.csv").exists()
    assert (out / "maxerr.csv").exists()


@pytest.mark.parametrize("dist", ["1e-8", "0"])
def test_curve_within_rounding_is_unresolved(tmp_path, capsys, dist):
    # both curves stay within rounding of the geodesic: the maxima, about
    # 4e-16 and equal to 12 digits, cannot say whether PL is below PF
    out = tmp_path / "run"
    assert main(["curve", "--n", "20", "--p", "4", "--dist", dist, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "UNRESOLVED" in err and "INVARIANT FAILED" not in err
    with open(out / "maxerr.csv") as f:
        maxima = {r["kind"]: float(r["max_error"]) for r in csv.DictReader(f)}
    assert set(maxima) == {"pf", "pl"}
    assert max(maxima.values()) <= bench._ROUNDING * np.sqrt(4)


@pytest.mark.parametrize("side", [-1, 1])
def test_curve_judges_maxima_above_rounding(tmp_path, capsys, monkeypatch, side):
    # PL at or above PF fails once either maximum is above the floor
    floor = bench._ROUNDING * np.sqrt(8)
    maxima = {"pf": floor * (1.0 + side * 1e-6), "pl": floor * (1.0 + side * 1e-6)}
    monkeypatch.setattr(cli, "max_errors", lambda records: maxima)
    assert main(["curve", *SMALL_ARGS, "--out", str(tmp_path / "run")]) == (2 if side > 0 else 0)
    err = capsys.readouterr().err
    assert ("INVARIANT FAILED" if side > 0 else "UNRESOLVED") in err


@pytest.mark.parametrize("p", [3, 5])
def test_order_on_square_frames_flags_pl(tmp_path, capsys, p):
    # on St(p, p) PL is the exponential, so its deviations are rounding and
    # its rows have no order to measure; PF's still reads 3
    out = tmp_path / "run"
    assert main(["order", "--n", str(p), "--p", str(p), "--out", str(out)]) == 0
    with open(out / "order.csv") as f:
        rows = {(r["kind"], float(r["beta"])): r["slope"] for r in csv.DictReader(f)}
    assert rows[("pl", BETA_EUCLIDEAN)] == rows[("pl", BETA_CANONICAL)] == "nan"
    assert float(rows[("pf", BETA_EUCLIDEAN)]) == pytest.approx(3.0, abs=1e-3)
    assert "pf         beta=1    slope=3.000" in capsys.readouterr().out


def test_invalid_kind_exits_nonzero(tmp_path, capsys):
    rc = main(["curve", *SMALL_ARGS, "--kinds", "qr", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_invalid_dims_exit_nonzero(tmp_path):
    assert main(["curve", "--n", "4", "--p", "8", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("command,args,message", [
    ("curve", ["--n", "30", "--p", "0"], "need n >= 1 and p >= 1"),
    ("timing", ["--n", "30", "--p", "3", "--repeats", "0"], "repeats must be >= 1"),
    ("curve", ["--n", "30", "--p", "3", "--dist", "nan"], "distance must be finite"),
    ("curve", ["--n", "30", "--p", "3", "--kinds", ","], "kinds must name at least one"),
    ("timing", ["--n", "30", "--p", "3", "--kinds", ""], "kinds must name at least one"),
    ("curve", ["--n", "1", "--p", "1"], "norm_target must be 0 on St(1, 1)"),
    ("curve", ["--n", "30", "--p", "3", "--seed", "-1"], "seed must be >= 0"),
    ("order", ["--n", "30", "--p", "3", "--dist", "0"], "convergence_slopes: tangent is zero"),
    ("all", ["--n", "30", "--p", "3", "--dist", "0"], "convergence_slopes: tangent is zero"),
    ("all", ["--n", "30", "--p", "3", "--kinds", "pf,pf,pl"], "kinds must not repeat"),
], ids=["p0", "repeats0", "dist_nan", "kinds_comma", "kinds_empty", "n1_p1", "seed_negative",
        "order_dist0", "all_dist0", "kinds_repeated"])
def test_invalid_sizes_exit_one(tmp_path, capsys, monkeypatch, command, args, message):
    monkeypatch.setattr(cli, "error_curve", lambda *args: pytest.fail("curve ran before refusal"))
    assert main([command, *args, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "x").exists()


def test_order_factors_each_geodesic_once(tmp_path, monkeypatch):
    # one core._frame, the only factorization of xi, and one geodesic flow per
    # beta, shared by all kinds
    calls = {"_frame": 0, "_flow": 0}
    for name in calls:
        def counted(*args, _fn=getattr(bench, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bench, name, counted)
    assert main(["order", *SMALL_ARGS, "--kinds", "pf,pl,pl_cayley",
                 "--out", str(tmp_path / "run")]) == 0
    assert calls == {"_frame": 1, "_flow": 2}


@pytest.mark.parametrize("command", ["curve", "order"])
def test_experiments_run_no_matrix_function_per_step(tmp_path, monkeypatch, command):
    # curve factors xi once, by core._frame, and forms no U1 = Exp(xi); neither
    # command forms the frame's basis [U Q], as both stay in the coordinates
    # [A; R]; the retraction curves take their twists from one
    # core._skew_flow each, so neither command calls the public twist maps
    frames, frame = [], bench._frame
    monkeypatch.setattr(bench, "_frame", lambda xi, **kw: frames.append(kw) or frame(xi, **kw))
    for module, name in ((bench, "exp_beta"), (core, "exp_beta"), (matfun, "expm_skew"),
                         (matfun, "cay"), (retractions, "expm_skew"), (retractions, "cay")):
        monkeypatch.setattr(module, name, lambda *args, _name=name: pytest.fail(f"{_name} ran"))
    assert main([command, *SMALL_ARGS, "--kinds", "pf,pl,pl_cayley",
                 "--out", str(tmp_path / "run")]) == 0
    assert frames == [{"basis": False}]


@pytest.mark.parametrize("command", ["curve", "order"])
def test_experiments_form_the_skew_block_once(tmp_path, monkeypatch, command):
    # U.T Xi is formed and checked once, in core._frame; each retraction curve
    # takes its block A from the chart coordinates [A; R] or an inverse's preimage
    calls, skew_block = [], core._skew_block
    for module in (core, retractions):
        monkeypatch.setattr(module, "_skew_block", lambda xi: calls.append(xi) or skew_block(xi))
    assert main([command, *SMALL_ARGS, "--kinds", "pf,pl,pl_cayley",
                 "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1


def test_all_draws_xi_once(tmp_path, monkeypatch):
    # curve and order run on the same xi, so all draws it once for both
    draws, draw = [], cli.gen_tangent
    monkeypatch.setattr(cli, "gen_tangent", lambda cfg: draws.append(cfg) or draw(cfg))
    assert main(["all", *SMALL_ARGS, "--repeats", "1", "--out", str(tmp_path / "run")]) == 0
    assert len(draws) == 1


def test_curve_refuses_a_tangent_exp_beta_refuses(tmp_path, capsys):
    # curve forms no Exp(xi), but checks the geodesic's endpoint as exp_beta
    # checks its output; unchecked, the inverses would run on that endpoint
    assert main(["curve", "--n", "50", "--p", "5", "--dist", "1e10", "--kinds", "pl,pl_cayley",
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: exp_beta: tangent norm 1.000e+10 too large")


@pytest.mark.parametrize("out", ["file", "file/run"])
def test_out_not_creatable_exits_one_before_any_experiment(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "error_curve", lambda *args: pytest.fail("experiment ran"))
    assert main(["curve", *SMALL_ARGS, "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot create output directory")


def test_order_computes_no_geodesic_endpoint(tmp_path, monkeypatch):
    # order reads only xi, drawn as gen_triple draws it, never U1 = Exp(xi)
    xi = bench.gen_triple(bench.ExperimentConfig(n=40, p=8, seed=3))[1]
    geodesics, tangents = [], []
    monkeypatch.setattr(bench, "exp_beta", lambda *args: geodesics.append(args))
    monkeypatch.setattr(cli, "convergence_slopes",
                        lambda x, rows: tangents.append(x) or dict.fromkeys(rows, 1.0))
    assert main(["order", *SMALL_ARGS, "--kinds", "pf,pl", "--out", str(tmp_path / "run")]) == 0
    assert geodesics == []
    assert len(tangents) == 1
    for x in tangents:
        assert np.array_equal(x.base.U, xi.base.U) and np.array_equal(x.Xi, xi.Xi)


def test_order_rows_match_one_beta_fits(tmp_path):
    # the single multi-beta fit gives, bit for bit, the slopes of one fit per (kind, beta)
    out = tmp_path / "run"
    assert main(["order", *SMALL_ARGS, "--kinds", "pf,pl,pl_cayley", "--out", str(out)]) == 0
    with open(out / "order.csv") as f:
        rows = [(r["kind"], float(r["beta"]), float(r["slope"])) for r in csv.DictReader(f)]
    xi = bench.gen_tangent(bench.ExperimentConfig(n=40, p=8, seed=3))
    assert [row[:2] for row in rows] == [
        ("pf", BETA_EUCLIDEAN), ("pl", BETA_EUCLIDEAN), ("pl_cayley", BETA_EUCLIDEAN),
        ("pl", BETA_CANONICAL)]
    for kind, beta, slope in rows:
        assert slope == bench.convergence_slope(xi, kind, beta)
