"""Benchmark harness: geodesic-deviation curves, convergence order, timing.

The accuracy experiment generates a triple (U0, xi, U1) with
Exp_{U0}(xi) = U1 under the Euclidean metric and a prescribed distance,
pulls U1 back through each inverse retraction to get xi_R, and records
the Frobenius deviation between the geodesic t -> Exp(t xi) and the
retraction curve t -> R(t xi_R) on an equidistant grid in [0, 1].
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    BETA_EUCLIDEAN,
    StiefelPoint,
    TangentVector,
    _check_sizes,
    _geodesic,
    exp_beta,
    rand_point,
    rand_tangent,
)
from .matfun import ValidationError
from .retractions import RETRACTION_PAIRS

DEFAULT_DISTANCE = np.pi / 2
DEFAULT_STEPS = 51
DEFAULT_REPEATS = 100
WARMUP_RUNS = 3
# Step lengths t along xi / ||xi||_F at which convergence_slopes fits log error against log t.
_ORDER_T_GRID = np.logspace(-3, -1, 12)


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
        if self.steps < 2:
            raise ValidationError("steps must be >= 2")
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.distance) and self.distance >= 0):
            raise ValidationError(f"distance must be finite and nonnegative, got {self.distance}")
        if not self.kinds:
            raise ValidationError("kinds must name at least one retraction")
        unknown = [k for k in self.kinds if k not in RETRACTION_PAIRS]
        if unknown:
            raise ValidationError(f"unknown retraction kinds: {unknown}")


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


def _deviations(
    xi: TangentVector,
    beta: float,
    curves: dict[str, TangentVector],
    ts,
) -> list[dict[str, float]]:
    """||Exp_beta(t xi) - R_kind(t xi_kind)||_F for each t and each kind.

    Every curve tangent must lie in span [U, Xi], as xi does and as every
    inverse retraction of (U, Exp(xi)) does. With F from the reduced QR
    of [U, Xi] (n-by-min(n, 2p), orthonormal whatever the rank), both
    curves are F times the same curves at F.T U, and the retractions
    commute with F. So the QR and the products with F.T are the only
    n-sized work; the geodesic is factored once and each t costs
    2p-by-p work.
    """
    F = np.linalg.qr(np.hstack([xi.base.U, xi.Xi]))[0]
    base = StiefelPoint(F.T @ xi.base.U)
    geodesic = _geodesic(TangentVector(base, F.T @ xi.Xi), beta)
    coords = {kind: TangentVector(base, F.T @ x.Xi) for kind, x in curves.items()}
    out = []
    for t in ts:
        geo = geodesic(t)
        out.append({kind: float(np.linalg.norm(geo - RETRACTION_PAIRS[kind][0](x.scaled(t)).U))
                    for kind, x in coords.items()})
    return out


def error_curve(
    triple: tuple[StiefelPoint, TangentVector, StiefelPoint],
    kinds: tuple[str, ...],
    steps: int = DEFAULT_STEPS,
) -> list[ErrorCurveRecord]:
    """Per-step deviations between the geodesic and each retraction curve."""
    U0, xi, U1 = triple
    xi_r = {k: RETRACTION_PAIRS[k][1](U0, U1) for k in kinds}
    ts = [k / (steps - 1) for k in range(steps)]
    return [ErrorCurveRecord(t, errs)
            for t, errs in zip(ts, _deviations(xi, BETA_EUCLIDEAN, xi_r, ts))]


def max_errors(records: list[ErrorCurveRecord]) -> dict[str, float]:
    out: dict[str, float] = {}
    for rec in records:
        for kind, err in rec.errors.items():
            out[kind] = max(out.get(kind, 0.0), err)
    return out


def convergence_slopes(xi: TangentVector, kinds: tuple[str, ...], beta: float) -> dict[str, float]:
    """Least-squares slope of log error vs log t against Exp under the beta metric, per kind.

    The slopes depend only on xi's direction, so the fit runs on xi scaled
    to unit norm, at t = _ORDER_T_GRID: step lengths from 1e-3 to 1e-1.
    xi is first divided by its largest entry, as ||xi||_F squares them
    and reads 0 below about 1e-154.
    """
    big = np.max(np.abs(xi.Xi))
    if big == 0:
        raise ValidationError("convergence_slopes: tangent is zero, so it has no step length")
    X = xi.Xi / big
    unit = TangentVector(xi.base, X / np.linalg.norm(X))
    devs = _deviations(unit, beta, {kind: unit for kind in kinds}, _ORDER_T_GRID)
    log_t = np.log(_ORDER_T_GRID)
    return {kind: float(np.polyfit(log_t, np.log([d[kind] for d in devs]), 1)[0])
            for kind in kinds}


def convergence_slope(xi: TangentVector, kind: str, beta: float) -> float:
    """convergence_slopes for one kind."""
    return convergence_slopes(xi, (kind,), beta)[kind]


def timing_run(cfg: ExperimentConfig, kind: str) -> TimingRecord:
    """Mean wall-clock time of the inverse retraction over fresh random pairs.

    Each repeat generates a fresh (U0, xi) at the configured distance,
    forms U1 = R(xi), and times only the inverse evaluation. The mean of
    ||R^{-1}(R(xi)) - xi||_F is recorded alongside. Warmup runs are
    excluded from the statistics.
    """
    ret, inv = RETRACTION_PAIRS[kind]
    rng = np.random.default_rng(cfg.seed)

    def fresh_pair():
        U0 = rand_point(cfg.n, cfg.p, rng)
        xi = rand_tangent(U0, cfg.distance, rng)
        return U0, xi, ret(xi)

    for _ in range(WARMUP_RUNS):
        U0, xi, U1 = fresh_pair()
        inv(U0, U1)

    times = []
    roundtrips = []
    for _ in range(cfg.repeats):
        U0, xi, U1 = fresh_pair()
        t0 = time.perf_counter()
        xi_back = inv(U0, U1)
        times.append(time.perf_counter() - t0)
        roundtrips.append(np.linalg.norm(xi_back.Xi - xi.Xi))
    return TimingRecord(kind, float(np.mean(times)), float(np.mean(roundtrips)))


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
