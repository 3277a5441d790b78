"""Benchmark harness: geodesic-deviation curves, convergence order, timing.

The accuracy experiment generates a triple (U0, xi, U1) with
Exp_{U0}(xi) = U1 under the Euclidean metric and a prescribed distance,
pulls U1 back through each inverse retraction to get xi_R, and records
the Frobenius deviation between the geodesic t -> Exp(t xi) and the
retraction curve t -> R(t xi_R) on an equidistant grid in [0, 1]. The
order experiment fits log deviation against log t for small t, per
(kind, beta) row: a retraction and the metric parameter of its geodesic.

Each experiment factors xi once, by core._frame: A = U0.T xi and the
thin QR Q R = xi - U0 A. In the coordinates of the basis [U0 Q], U0 is E
= [I; 0] in St(2p, p) and xi is [A; R]: each beta's geodesic is
core._flow(A, R, beta), U1 is that flow's endpoint at beta = 1, and the
inverses run on E and that endpoint. The QR and error_curve's check of U1
against the endpoint are the only n-sized work. stiefel-bench curve calls
_error_curve on xi alone, so it forms no U1 and factors xi once.
"""

from __future__ import annotations

import csv
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    BETA_EUCLIDEAN,
    StiefelPoint,
    TangentVector,
    _check_exp_defect,
    _check_sizes,
    _flow,
    _frame,
    canonical_point,
    exp_beta,
    rand_point,
    rand_tangent,
)
from .matfun import ValidationError, tol_struct
from .retractions import RETRACTION_PAIRS, _curve

DEFAULT_DISTANCE = np.pi / 2
DEFAULT_STEPS = 51
DEFAULT_REPEATS = 100
WARMUP_RUNS = 3
# Step lengths t along xi / ||xi||_F at which convergence_slopes fits log error against log t.
_ORDER_T_GRID = np.logspace(-3, -1, 12)
# _ROUNDING sqrt(p), scaled like tol_struct, bounds what rounding alone puts between two
# St(n, p) curves: seeded curves read 0.5-5 eps sqrt(p) at --dist 0 for p = 1 ... 400.
_ROUNDING = 32 * np.finfo(float).eps


@dataclass
class ExperimentConfig:
    n: int
    p: int
    distance: float = DEFAULT_DISTANCE
    steps: int = DEFAULT_STEPS
    seed: int = 0
    kinds: tuple[str, ...] = ("pf", "pl")
    repeats: int = DEFAULT_REPEATS

    def __post_init__(self):
        _check_sizes(self.n, self.p)
        _check_experiment(self.kinds, self.steps)
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.distance) and self.distance >= 0):
            raise ValidationError(f"distance must be finite and nonnegative, got {self.distance}")


def _check_experiment(kinds: Sequence[str], steps: int = DEFAULT_STEPS) -> None:
    """Raise ValidationError unless kinds name distinct retractions and steps >= 2."""
    if steps < 2:
        raise ValidationError("steps must be >= 2")
    if not kinds:
        raise ValidationError("kinds must name at least one retraction")
    unknown = [k for k in kinds if k not in RETRACTION_PAIRS]
    if unknown:
        raise ValidationError(f"unknown retraction kinds: {unknown}")
    repeated = sorted({k for k in kinds if kinds.count(k) > 1})
    if repeated:
        raise ValidationError(f"kinds must not repeat, got {repeated} more than once")


@dataclass
class ErrorCurveRecord:
    t: float
    errors: dict[str, float] = field(default_factory=dict)


@dataclass
class TimingRecord:
    kind: str
    mean_seconds: float
    roundtrip_norm_mean: float


def gen_tangent(cfg: ExperimentConfig) -> TangentVector:
    """Seeded tangent xi at a seeded point U0, with ||xi||_F = distance."""
    rng = np.random.default_rng(cfg.seed)
    return rand_tangent(rand_point(cfg.n, cfg.p, rng), cfg.distance, rng)


def gen_triple(cfg: ExperimentConfig) -> tuple[StiefelPoint, TangentVector, StiefelPoint]:
    """gen_tangent's (U0, xi) and U1 = Exp_{U0}(xi)."""
    xi = gen_tangent(cfg)
    return xi.base, xi, exp_beta(xi, BETA_EUCLIDEAN)


def _deviations(geodesics: dict[float, Callable], rows: list[tuple[str, float]],
                curves: dict[str, TangentVector], ts) -> dict[tuple[str, float], list[float]]:
    """||geodesics[beta](t) - R_kind(t curves[kind])||_F over ts, per (kind, beta) row.

    The geodesics are core._flow's in the coordinates [A; R] of core._frame,
    and every curve tangent is at E = canonical_point(2p, p). Each kind's
    retraction curve (retractions._curve) is factored once, and every curve
    and geodesic is evaluated once per t.
    """
    retracted = {kind: _curve(kind, c) for kind, c in curves.items()}
    out: dict[tuple[str, float], list[float]] = {row: [] for row in rows}
    for t in ts:
        points = {kind: curve(t) for kind, curve in retracted.items()}
        geos = {beta: geodesic(t) for beta, geodesic in geodesics.items()}
        for kind, beta in rows:
            out[kind, beta].append(float(np.linalg.norm(geos[beta] - points[kind])))
    return out


def _error_curve(xi: TangentVector, kinds: tuple[str, ...], steps: int,
                 U1: StiefelPoint | None = None) -> list[ErrorCurveRecord]:
    """error_curve from xi alone, for kinds and steps that ExperimentConfig accepts.

    The endpoint V1 is refused with exp_beta's DomainError where exp_beta
    would refuse Exp(xi) = basis @ V1, by core._check_exp_defect on V1. A
    U1 that is given is only checked, with ValidationError, to lie within
    tol_struct(p) of Exp(xi); it is never formed otherwise.
    """
    basis, A, R = _frame(xi)
    geodesic = _flow(A, R, BETA_EUCLIDEAN)
    V1 = StiefelPoint(geodesic(1.0))
    _check_exp_defect(V1.U, xi)
    if U1 is not None:
        miss = np.linalg.norm(U1.U - basis @ V1.U) if U1.U.shape == xi.base.U.shape else np.inf
        if miss > tol_struct(xi.base.p):
            raise ValidationError(f"error_curve: U1 is not Exp_U0(xi) (miss {miss:.3e})")
    E = canonical_point(*V1.U.shape)
    curves = {kind: RETRACTION_PAIRS[kind][1](E, V1) for kind in kinds}
    ts = [k / (steps - 1) for k in range(steps)]
    devs = _deviations({BETA_EUCLIDEAN: geodesic}, [(k, BETA_EUCLIDEAN) for k in kinds], curves, ts)
    return [ErrorCurveRecord(t, {kind: devs[kind, BETA_EUCLIDEAN][i] for kind in kinds})
            for i, t in enumerate(ts)]


def error_curve(
    triple: tuple[StiefelPoint, TangentVector, StiefelPoint],
    kinds: tuple[str, ...],
    steps: int = DEFAULT_STEPS,
) -> list[ErrorCurveRecord]:
    """Per-step deviations between the geodesic and each retraction curve.

    Each inverse runs on (E, V1), V1 the endpoint of the geodesic's flow in
    core._frame's coordinates. U0 and U1 are read only to refuse, with
    ValidationError, a U0 other than xi's base or a U1 farther than
    tol_struct(p) from Exp(xi) = basis @ V1.
    """
    _check_experiment(kinds, steps)
    U0, xi, U1 = triple
    if U0 is not xi.base and not np.array_equal(U0.U, xi.base.U):
        raise ValidationError("error_curve: U0 is not the base point of xi")
    return _error_curve(xi, kinds, steps, U1)


def max_errors(records: list[ErrorCurveRecord]) -> dict[str, float]:
    out: dict[str, float] = {}
    for rec in records:
        for kind, err in rec.errors.items():
            out[kind] = max(out.get(kind, 0.0), err)
    return out


def convergence_slopes(
    xi: TangentVector,
    rows: Iterable[tuple[str, float]],
) -> dict[tuple[str, float], float]:
    """{(kind, beta): slope of log ||Exp_beta(t xi) - R_kind(t xi)||_F vs log t}, in row order.

    rows are distinct (kind, beta) pairs, read once. All fits share one frame,
    one retraction curve per kind and one geodesic per beta. The slopes depend
    only on xi's direction, so the fit runs on xi scaled to unit norm, at t =
    _ORDER_T_GRID: step lengths from 1e-3 to 1e-1. xi is first divided by its
    largest entry, as ||xi||_F squares them and reads 0 below about 1e-154.
    A row with a deviation within rounding, _ROUNDING sqrt(p), has slope nan.
    """
    rows = [(kind, beta) for kind, beta in rows]
    repeated = sorted({row for row in rows if rows.count(row) > 1})
    if repeated:
        raise ValidationError(f"rows must not repeat, got {repeated} more than once")
    kinds = dict.fromkeys(kind for kind, _ in rows)
    _check_experiment(list(kinds))
    big = np.max(np.abs(xi.Xi))
    if big == 0:
        raise ValidationError("convergence_slopes: tangent is zero, so it has no step length")
    X = xi.Xi / big
    _, A, R = _frame(TangentVector(xi.base, X / np.linalg.norm(X)))
    x = TangentVector(canonical_point(2 * xi.base.p, xi.base.p), np.vstack([A, R]))
    geodesics = {beta: _flow(A, R, beta) for beta in dict.fromkeys(beta for _, beta in rows)}
    devs = _deviations(geodesics, rows, dict.fromkeys(kinds, x), _ORDER_T_GRID)
    log_t, floor = np.log(_ORDER_T_GRID), _ROUNDING * np.sqrt(xi.base.p)
    return {row: float(np.polyfit(log_t, np.log(d), 1)[0]) if min(d) > floor else np.nan
            for row, d in devs.items()}


def convergence_slope(xi: TangentVector, kind: str, beta: float) -> float:
    """convergence_slopes for the one row (kind, beta)."""
    return convergence_slopes(xi, [(kind, beta)])[kind, beta]


def timing_runs(cfg: ExperimentConfig, kinds: Sequence[str]) -> list[TimingRecord]:
    """Per kind, in kind order: mean wall-clock time of its inverse over fresh random pairs.

    Each warm-up and repeat draws one (U0, xi) at the configured distance,
    from cfg.seed; every kind then forms U1 = R(xi) and times only its
    inverse on that pair. The mean of ||R^{-1}(U0, R(xi)) - xi||_F is
    recorded alongside. Warm-up runs are excluded from the statistics.
    """
    _check_experiment(kinds)
    rng = np.random.default_rng(cfg.seed)
    times: dict[str, list[float]] = {kind: [] for kind in kinds}
    roundtrips: dict[str, list[float]] = {kind: [] for kind in kinds}
    for run in range(WARMUP_RUNS + cfg.repeats):
        U0 = rand_point(cfg.n, cfg.p, rng)
        xi = rand_tangent(U0, cfg.distance, rng)
        for kind in kinds:
            ret, inv = RETRACTION_PAIRS[kind]
            U1 = ret(xi)
            t0 = time.perf_counter()
            xi_back = inv(U0, U1)
            elapsed = time.perf_counter() - t0
            if run >= WARMUP_RUNS:
                times[kind].append(elapsed)
                roundtrips[kind].append(np.linalg.norm(xi_back.Xi - xi.Xi))
    return [TimingRecord(kind, float(np.mean(times[kind])), float(np.mean(roundtrips[kind])))
            for kind in kinds]


def timing_run(cfg: ExperimentConfig, kind: str) -> TimingRecord:
    """timing_runs for the one kind."""
    return timing_runs(cfg, (kind,))[0]


def _write_table(path: Path, cfg: ExperimentConfig, columns: list[str], rows) -> None:
    """CSV of n,p,seed,kind + columns; each row is (kind, *values), values written as .17g."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n", "p", "seed", "kind", *columns])
        w.writerows([cfg.n, cfg.p, cfg.seed, kind, *(format(v, ".17g") for v in values)]
                    for kind, *values in rows)


def emit_report(
    outdir: Path,
    cfg: ExperimentConfig,
    curve_records: list[ErrorCurveRecord] | None = None,
    timings: list[TimingRecord] | None = None,
    slopes: dict[tuple[str, float], float] | None = None,
) -> str:
    """Write CSV files for whatever results are present; return a text summary."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {outdir}: {exc}") from exc

    lines = [f"experiment: n={cfg.n} p={cfg.p} dist={cfg.distance:.6g} seed={cfg.seed}"]
    if curve_records is not None:
        _write_table(outdir / "curve.csv", cfg, ["t", "error"],
                     ((kind, rec.t, err) for rec in curve_records for kind, err in rec.errors.items()))
        maxima = max_errors(curve_records)
        _write_table(outdir / "maxerr.csv", cfg, ["max_error"], maxima.items())
        lines.append("")
        lines.append("max geodesic deviation over the curve:")
        for kind, err in maxima.items():
            lines.append(f"  {kind:10s} {err:.4e}")
    if slopes is not None:
        _write_table(outdir / "order.csv", cfg, ["beta", "slope"],
                     ((kind, beta, slope) for (kind, beta), slope in slopes.items()))
        lines.append("")
        lines.append("convergence-order slopes vs Exp:")
        for (kind, beta), slope in slopes.items():
            lines.append(f"  {kind:10s} beta={beta:<4g} slope={slope:.3f}")
    if timings is not None:
        _write_table(outdir / "timing.csv", cfg, ["mean_seconds", "roundtrip_norm"],
                     ((r.kind, r.mean_seconds, r.roundtrip_norm_mean) for r in timings))
        lines.append("")
        lines.append(f"inverse-retraction timing (mean over {cfg.repeats} runs,")
        lines.append("pairs generated at the configured distance):")
        for rec in timings:
            lines.append(
                f"  inv. {rec.kind:10s} {rec.mean_seconds:.4f}s  "
                f"roundtrip {rec.roundtrip_norm_mean:.4e}"
            )
    summary = "\n".join(lines) + "\n"
    (outdir / "summary.txt").write_text(summary)
    return summary
