"""Contract sweep: a public map refuses a malformed argument with a typed error.

Every case must raise ValidationError or DomainError: no raw numpy or
LAPACK exception, no silently broadcast result and no RuntimeWarning.
The base point of every case lies on St(10, 3).
"""

import numpy as np
import pytest

from stiefel_retractions.core import (
    TangentVector,
    exp_beta,
    project_tangent,
    rand_point,
    rand_tangent,
)
from stiefel_retractions.matfun import (
    DomainError,
    ValidationError,
    cay,
    cay_inv,
    expm_skew,
    invsqrtm_spd,
    logm_so,
    solve_pf_sylvester,
)
from stiefel_retractions.retractions import pf_inv, pf_ret, pl_cay_inv, pl_cay_ret, pl_inv, pl_ret

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
    "Z",
    [np.zeros(shape) for shape in OTHER_SHAPES] + [np.full((10, 3), v) for v in (np.nan, np.inf)],
    ids=[shape_id(shape) for shape in OTHER_SHAPES] + ["nan", "inf"],
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
