"""The polar-light retraction and its closed-form inverse.

The classical polar factor (PF) retraction needs a Sylvester-equation
solve to invert. The polar-light (PL) retraction twists the p-by-p block
with a matrix exponential and inverts in closed form from the polar
decomposition of one small matrix and a principal log. This script shows
both roundtrips and the chart at the canonical point E = [I; 0].

Run with: python demos/02_closed_form_inverse.py
"""

import numpy as np

from stiefel_retractions import (
    ChartCoordinates,
    TangentVector,
    chart_at_E,
    param_at_E,
    pf_inv,
    pf_ret,
    pl_cay_inv,
    pl_cay_ret,
    pl_inv,
    pl_ret,
    rand_point,
    rand_tangent,
)

n, p = 200, 30
U0 = rand_point(n, p, seed=0)
xi = rand_tangent(U0, np.pi / 2, seed=1)

for name, ret, inv in (
    ("PF (Sylvester inverse)", pf_ret, pf_inv),
    ("PL (closed-form inverse)", pl_ret, pl_inv),
    ("PL-Cayley", pl_cay_ret, pl_cay_inv),
):
    U1 = ret(xi)
    back = inv(U0, U1)
    print(f"{name:26s} roundtrip ||inv(ret(xi)) - xi|| ="
          f" {np.linalg.norm(back.Xi - xi.Xi):.3e}")

# For tangents with zero skew block (U0.T xi = 0) PL and PF coincide.
Z = np.random.default_rng(2).standard_normal((n, p))
horiz = Z - U0.U @ (U0.U.T @ Z)
xi_h = TangentVector(U0, horiz / np.linalg.norm(horiz))
print("horizontal tangent, ||pl - pf|| =",
      np.linalg.norm(pl_ret(xi_h).U - pf_ret(xi_h).U))

# The chart at E: coordinates are a skew p-by-p block A and a rectangular
# block B, recovered exactly from the point.
rng = np.random.default_rng(3)
A = rng.standard_normal((3, 3))
A = 0.5 * (A - A.T)
B = rng.standard_normal((9, 3))
U = param_at_E(ChartCoordinates(A, B))
A2, B2 = chart_at_E(U)
print("chart roundtrip errors:", np.linalg.norm(A2 - A), np.linalg.norm(B2 - B))
