import contextlib

import pytest

from stiefel_retractions import matfun


@pytest.fixture
def routes():
    """`with routes() as log:` leaves in log the (kernel, route, size) of each route taken."""

    @contextlib.contextmanager
    def collect():
        log = []
        token = matfun._ROUTES.set(log)
        try:
            yield log
        finally:
            matfun._ROUTES.reset(token)
            log[:] = [record[:3] for record in log]

    return collect
