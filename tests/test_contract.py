"""Contract sweep: a public map refuses a malformed argument with a typed error.

Every case must raise ValidationError or DomainError: no raw numpy or
LAPACK exception, no silently broadcast result and no RuntimeWarning.
The base point of every case lies on St(10, 3). The last sweep feeds
genuine tangents of large norm instead: each map must return an
orthonormal point or raise DomainError. A last check keeps scipy's use in
the package to matfun._inv.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import stiefel_retractions
from stiefel_retractions.core import (
    TangentVector,
    check_point,
    check_tangent,
    exp_beta,
    project_tangent,
    rand_point,
    rand_tangent,
)
from stiefel_retractions.matfun import (
    DomainError,
    ValidationError,
    _polar_parts,
    cay,
    cay_inv,
    expm_skew,
    invsqrtm_spd,
    logm_so,
    solve_pf_sylvester,
    tol_struct,
)
from stiefel_retractions.retractions import (
    ChartCoordinates,
    param_at_E,
    pf_inv,
    pf_ret,
    pl_cay_inv,
    pl_cay_ret,
    pl_inv,
    pl_ret,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TYPED = (ValidationError, DomainError)

# Shapes other than the base's: another n, another p, and three that numpy
# would broadcast against an n-by-p array without complaint.
OTHER_SHAPES = [(12, 3), (10, 4), (10, 1), (1, 3), (3,)]


def shape_id(shape) -> str:
    return "x".join(map(str, shape))


def fn_id(fn) -> str:
    return fn.__name__


@pytest.mark.parametrize("shape", OTHER_SHAPES, ids=shape_id)
@pytest.mark.parametrize("retract", [pf_ret, pl_ret, pl_cay_ret, exp_beta], ids=fn_id)
def test_retraction_refuses_tangent_of_other_shape(retract, shape):
    with pytest.raises(TYPED, match="^tangent shape"):
        retract(TangentVector(rand_point(10, 3, 0), np.zeros(shape)))


@pytest.mark.parametrize("retract", [pf_ret, pl_ret, pl_cay_ret, exp_beta], ids=fn_id)
def test_retraction_refuses_complex_tangent(retract):
    U0 = rand_point(10, 3, 0)
    with pytest.raises(TYPED, match="^tangent must be real"):
        retract(TangentVector(U0, rand_tangent(U0, 1.0, 1).Xi * (1 + 1e-3j)))


@pytest.mark.parametrize("shape", [(12, 3), (8, 3), (10, 4), (10, 2)], ids=shape_id)
@pytest.mark.parametrize("inverse", [pf_inv, pl_inv, pl_cay_inv], ids=fn_id)
def test_inverse_refuses_points_of_other_shape(inverse, shape):
    with pytest.raises(TYPED, match="^U1 shape"):
        inverse(rand_point(10, 3, 0), rand_point(*shape, 1))


@pytest.mark.parametrize(
    "kernel", [expm_skew, logm_so, invsqrtm_spd, solve_pf_sylvester, cay, cay_inv], ids=fn_id
)
def test_kernel_refuses_empty_matrix(kernel, capfd):
    with pytest.raises(TYPED, match="must be square and non-empty"):
        kernel(np.zeros((0, 0)))
    # refused before LAPACK, which would print an illegal-argument report
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "kernel, M",
    [
        pytest.param(kernel, M, id=kernel.__name__)
        for kernel, M in [
            (logm_so, 1e200 * np.eye(3)),
            (invsqrtm_spd, 1e308 * np.eye(3)),
            (solve_pf_sylvester, 1e300 * np.eye(3)),
            (cay_inv, 1e300 * np.eye(3)),
            (expm_skew, np.array([[0.0, -1e300], [1e300, 0.0]])),
            (_polar_parts, 1e200 * np.eye(3)),
        ]
    ],
)
def test_kernel_refuses_overflowing_matrix(kernel, M):
    # each product or norm of M would overflow; the size bound refuses M first
    with pytest.raises(ValidationError, match="too large"):
        kernel(M)


@pytest.mark.parametrize(
    "Z",
    [np.zeros(shape) for shape in OTHER_SHAPES]
    + [np.full((10, 3), v) for v in (np.nan, np.inf, 1e308, 1 + 1e-3j)],
    ids=[shape_id(shape) for shape in OTHER_SHAPES] + ["nan", "inf", "1e308", "complex"],
)
def test_project_tangent_refuses_bad_ambient_matrix(Z):
    with pytest.raises(TYPED, match="^Z "):
        project_tangent(rand_point(10, 3, 0), Z)


@pytest.mark.parametrize(
    "make",
    [
        lambda U0: TangentVector(U0, np.full((10, 3), np.nan)),
        lambda U0: rand_tangent(U0, 1e200, 1),
    ],
    ids=["nan", "rand_1e200"],
)
def test_tangent_refused_when_built(make):
    # no map, and no inner product, ever sees a non-finite or overflowing tangent
    with pytest.raises(ValidationError, match="^tangent (contains non-finite|too large)"):
        make(rand_point(10, 3, 0))


def test_check_tangent_refuses_complex():
    # refused, not truncated to its real part
    U0 = rand_point(10, 3, 0)
    with pytest.raises(ValidationError, match="^tangent must be real"):
        check_tangent(U0, rand_tangent(U0, 1.0, 1).Xi * (1 + 1e-3j))


def test_kernel_refuses_string_matrix():
    with pytest.raises(ValidationError, match="^A must be real, got dtype <U1"):
        cay(np.array([["a", "b"], ["c", "d"]]))


def test_check_point_refuses_string_matrix():
    with pytest.raises(ValidationError, match="^point must be real"):
        check_point(np.array([["a"], ["b"]]))


def test_param_at_E_refuses_string_block():
    with pytest.raises(ValidationError, match="^A must be real"):
        param_at_E(ChartCoordinates(np.array([["a"]]), np.zeros((1, 1))))


def skew_2x2(a):
    return np.array([[0.0, -a], [a, 0.0]])


# Skew entries whose exponential is no longer accurate: at the first three
# expm returns ||Q.T Q - I|| of 1.6e-7, 1.3e-2 and 1.2e3, at 1e30 it overflows.
LARGE_SKEW = [1e8, 1e12, 1e15, 1e30]


@pytest.mark.parametrize("a", LARGE_SKEW, ids=lambda a: f"{a:.0e}")
def test_expm_skew_refuses_norm_too_large(a):
    with pytest.raises(DomainError, match="too large to exponentiate"):
        expm_skew(skew_2x2(a))


@pytest.mark.parametrize("a", LARGE_SKEW, ids=lambda a: f"{a:.0e}")
def test_param_at_E_refuses_skew_block_too_large(a):
    # an exactly skew A reaches expm_skew; the polar factor would hide its error
    with pytest.raises(DomainError, match="too large to exponentiate"):
        param_at_E(ChartCoordinates(skew_2x2(a), np.zeros((3, 2))))


def test_check_point_refuses_complex():
    with pytest.raises(ValidationError, match="^point must be real"):
        check_point(np.eye(3, 2) * (1 + 1e-3j))


def test_param_at_E_refuses_complex_B():
    with pytest.raises(ValidationError, match="^B must be real"):
        param_at_E(ChartCoordinates(np.zeros((2, 2)), np.zeros((3, 2)) * (1 + 1e-3j)))


# Genuine tangents at large norms: rand_tangent at each size and norm,
# seeds 0-9. U.T Xi errs by about eps ||Xi||_F, so no such tangent may be
# refused as non-tangent. The map returns a point orthonormal to within
# tol_struct(p) or refuses with DomainError: exp_beta's skew flow comes from
# an eigh of S.T S, whose error eps ||S||^2 can move its output off the
# manifold by up to 6e-2 at these norms.
@pytest.mark.parametrize("norm", [1e5, 1e6, 1e7, 1e8, 1e10, 1e12], ids=lambda a: f"{a:.0e}")
@pytest.mark.parametrize("n,p", [(300, 3), (50, 5), (50, 10)])
@pytest.mark.parametrize("retract", [pf_ret, pl_ret, pl_cay_ret, exp_beta], ids=fn_id)
def test_genuine_tangent_orthonormal_or_refused(retract, n, p, norm):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        xi = rand_tangent(rand_point(n, p, rng), norm, rng)
        try:
            Y = retract(xi).U
        except DomainError:
            continue
        assert np.linalg.norm(Y.T @ Y - np.eye(p)) <= tol_struct(p), seed


def scipy_uses(tree: ast.Module) -> set[str]:
    """Where a module names scipy: "import" for a module-level import, else the
    enclosing function's name, or "<module>" outside any function."""
    uses = set()

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = [node.id] if isinstance(node, ast.Name) else []
        if any(name.split(".")[0] == "scipy" for name in names):
            is_import = where == "<module>" and isinstance(node, (ast.Import, ast.ImportFrom))
            uses.add("import" if is_import else where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return uses


def test_scipy_only_in_inv():
    # _inv's dgetrf + dgetri beat np.linalg.inv (see its docstring); every
    # other kernel runs on numpy alone
    package = Path(stiefel_retractions.__file__).parent
    uses = {(path.name, where) for path in sorted(package.glob("*.py"))
            for where in scipy_uses(ast.parse(path.read_text()))}
    assert uses == {("matfun.py", "import"), ("matfun.py", "_inv")}
