"""Computed work counts for the traced functions, from (n, p) alone.

Nothing here is measured. Flops of the tall-skinny products are exact
for the products the retraction bodies perform (2*m*k*l per m-by-k times
k-by-l product). Flops of the p-by-p kernels are leading-order LAPACK
models (Golub & Van Loan, Matrix Computations, 4th ed., sections 5-8):
they omit lower-order terms and, for expm_skew, the scaling-and-squaring
steps, whose number depends on the input norm. Bytes are compulsory
traffic: each operand read once and each result written once, 8 bytes
per double, ignoring cache misses.
"""

from __future__ import annotations

F64 = 8


def _gemm(m: int, k: int, l: int) -> tuple[int, int]:
    return 2 * m * k * l, F64 * (m * k + k * l + m * l)


def _sum(*terms: tuple[int, int]) -> tuple[int, int]:
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def retraction_body(fn: str, n: int, p: int) -> tuple[int, int]:
    """(flops, bytes) of a retraction's own work, excluding its matfun kernels."""
    axpy = (n * p, F64 * 3 * n * p)
    if fn == "pf_ret":  # Xi.T Xi, (U + Xi) N
        return _sum(_gemm(p, n, p), axpy, _gemm(n, p, p))
    if fn == "pf_inv":  # U0.T U1, U1 X - U0
        return _sum(_gemm(p, n, p), _gemm(n, p, p), axpy)
    if fn in ("pl_ret", "pl_cay_ret"):  # U.T Xi, Xi.T Xi, A A, U (E - A) + Xi, (...) N
        return _sum(_gemm(p, n, p), _gemm(p, n, p), _gemm(p, p, p),
                    _gemm(n, p, p), axpy, _gemm(n, p, p))
    if fn in ("pl_inv", "pl_cay_inv"):
        # U0.T U1, full p-by-p SVD (~21 p^3), two p-by-p products, det (LU),
        # U0 (L - ortho) + U1 (R S^-1 R.T)
        svd = (21 * p**3, F64 * 4 * p * p)
        det = (2 * p**3 // 3, F64 * p * p)
        return _sum(_gemm(p, n, p), svd, _gemm(p, p, p), _gemm(p, p, p), det,
                    _gemm(n, p, p), _gemm(n, p, p), axpy)
    raise KeyError(fn)


# Leading-order flop models of the p-by-p kernels, as multiples of p^3.
_KERNEL_P3 = {
    # Pade-13 (6 products + 1 LU solve), squarings excluded
    "expm_skew": 6 * 2 + 8 / 3,
    # Q.T Q check, complex Schur (4 x 25 p^3), complex reassembly product
    "logm_so": 2 + 100 + 8,
    # symmetric eigh with vectors (9 p^3), V diag(w) V.T
    "invsqrtm_spd": 9 + 2,
    # complex eig (4 x 25 p^3), V.T V and its inverse, V Y V.T, 2-norm of C
    "solve_pf_sylvester": 100 + 8 + 8 + 16 + 8 / 3,
    # LU of I - A/2 and p right-hand sides
    "cay": 2 / 3 + 2,
    "cay_inv": 2 / 3 + 2,
}


def kernel(name: str, p: int) -> tuple[int, int]:
    """(flops, bytes) of one matfun kernel call on p-by-p input."""
    return int(_KERNEL_P3[name] * p**3), F64 * 2 * p * p


RETRACTION_FNS = ("pf_ret", "pf_inv", "pl_ret", "pl_inv", "pl_cay_ret", "pl_cay_inv")
KERNELS = tuple(_KERNEL_P3)


def table(n: int, p: int) -> dict[str, dict[str, int]]:
    """Per-call computed flops and bytes for every traced retraction and kernel."""
    out = {}
    for fn in RETRACTION_FNS:
        f, b = retraction_body(fn, n, p)
        out[f"retractions.{fn}"] = {"flops": f, "bytes": b}
    for k in KERNELS:
        f, b = kernel(k, p)
        out[f"matfun.{k}"] = {"flops": f, "bytes": b}
    return out
