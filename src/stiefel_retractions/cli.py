"""Command-line benchmark harness.

Subcommands:
  curve    geodesic-deviation curves, writes curve.csv + maxerr.csv
  order    convergence-order slopes vs the Riemannian exponential
  timing   inverse-retraction timing, writes timing.csv
  all      all of the above into one output directory
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import (
    DEFAULT_DISTANCE,
    DEFAULT_REPEATS,
    DEFAULT_STEPS,
    _ROUNDING,
    ExperimentConfig,
    _error_curve,
    convergence_slopes,
    emit_report,
    gen_tangent,
    max_errors,
    timing_runs,
)
from .core import BETA_CANONICAL, BETA_EUCLIDEAN, TangentVector
from .matfun import DomainError, ValidationError


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=1000, help="ambient dimension")
    p.add_argument("--p", type=int, default=400, help="frame size")
    p.add_argument("--dist", type=float, default=DEFAULT_DISTANCE,
                   help="Frobenius norm of the generating tangent")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help="curve discretization steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kinds", type=str, default="pf,pl",
                   help="comma-separated: pf, pl, pl_cayley")
    p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                   help="timing repetitions")
    p.add_argument("--out", type=Path, default=Path("bench_out"),
                   help="output directory")


def _config(args) -> ExperimentConfig:
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    return ExperimentConfig(
        n=args.n, p=args.p, distance=args.dist, steps=args.steps,
        seed=args.seed, kinds=kinds, repeats=args.repeats,
    )


def _check_out(out: Path) -> None:
    """Raise OSError, before any experiment runs, unless out can be a writable directory."""
    existing = next(d for d in (out, *out.parents) if d.exists())
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise OSError(
            f"cannot create output directory {out}: {existing} is not a writable directory"
        )


def _run_curve(cfg: ExperimentConfig, xi: TangentVector):
    """error_curve on xi, without forming its U1 = Exp(xi): one factorization of xi."""
    records = _error_curve(xi, cfg.kinds, cfg.steps)
    maxima = max_errors(records)
    ok = True
    if "pf" in maxima and "pl" in maxima:
        if max(maxima["pf"], maxima["pl"]) <= _ROUNDING * cfg.p**0.5:
            print("UNRESOLVED: max errors PL and PF are both within rounding", file=sys.stderr)
        elif not maxima["pl"] < maxima["pf"]:
            print("INVARIANT FAILED: max error PL is not below max error PF", file=sys.stderr)
            ok = False
    return records, ok


def _run_order(cfg: ExperimentConfig, xi: TangentVector):
    """Every kind's slope against the Euclidean geodesic, and pl's against the canonical one."""
    rows = [(kind, BETA_EUCLIDEAN) for kind in cfg.kinds]
    if "pl" in cfg.kinds:
        rows.append(("pl", BETA_CANONICAL))
    return convergence_slopes(xi, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stiefel-bench",
        description="Stiefel retraction accuracy, order, and timing experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("curve", "order", "timing", "all"):
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)

    try:
        cfg = _config(args)
        _check_out(args.out)
        records = timings = slopes = None
        ok = True
        xi = None if args.command == "timing" else gen_tangent(cfg)  # one draw for curve and order
        if args.command in ("order", "all"):  # first: it refuses a zero tangent
            slopes = _run_order(cfg, xi)
        if args.command in ("curve", "all"):
            records, ok = _run_curve(cfg, xi)
        if args.command in ("timing", "all"):
            timings = timing_runs(cfg, cfg.kinds)
        summary = emit_report(args.out, cfg, records, timings, slopes)
    except (DomainError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary, end="")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
