"""Accuracy experiment at reduced size: geodesic deviation and order.

Connects two points with the Euclidean-metric geodesic, pulls the
endpoint back through each inverse retraction, and compares the
retraction curves to the geodesic on an equidistant grid. Also fits the
log-log convergence order of each retraction against Exp over step
lengths t ||xi|| from 1e-3 to 1e-1.

The full-size experiment (n=1000, p up to 400) runs via the CLI:
    stiefel-bench all --n 1000 --p 400 --out bench_out

Run with: python demos/03_geodesic_deviation_and_order.py
"""

import numpy as np

from stiefel_retractions import BETA_CANONICAL, BETA_EUCLIDEAN
from stiefel_retractions.bench import (
    ExperimentConfig,
    convergence_slopes,
    error_curve,
    gen_triple,
    max_errors,
)

cfg = ExperimentConfig(n=300, p=60, seed=0, kinds=("pf", "pl", "pl_cayley"))
triple = gen_triple(cfg)
records = error_curve(triple, cfg.kinds, cfg.steps)

print(f"n={cfg.n}, p={cfg.p}, dist={cfg.distance:.4f}, {cfg.steps} steps")
print("max deviation from the geodesic:")
for kind, err in max_errors(records).items():
    print(f"  {kind:10s} {err:.4e}")
print("(the polar-light curve stays closer to the geodesic than PF)")

print("\nsample of the per-step errors (t, pf, pl):")
for rec in records[:: len(records) // 10]:
    print(f"  t={rec.t:.2f}  pf={rec.errors['pf']:.3e}  pl={rec.errors['pl']:.3e}")

_, xi, _ = gen_triple(ExperimentConfig(n=100, p=20, seed=1, kinds=cfg.kinds))
print("\nconvergence order vs Exp (log-log slope over step lengths t|xi| in [1e-3, 1e-1]):")
rows = [*((kind, BETA_EUCLIDEAN) for kind in cfg.kinds), ("pl", BETA_CANONICAL)]
for (kind, beta), s in convergence_slopes(xi, rows).items():
    order = "second order" if beta == BETA_EUCLIDEAN else "first order only"
    print(f"  {kind:10s} beta={beta:<4g} slope {s:.3f}  ({order})")
