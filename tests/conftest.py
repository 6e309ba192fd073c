import pytest
from hypothesis import settings

from torrigid import localcoh
from torrigid.t1 import _cy_fan
from torrigid.toric import affine_cone, validate_fan

# Property tests draw the same examples on every run and have no deadline:
# a slow host must not turn a correct result into a failure.
settings.register_profile("torrigid", derandomize=True, deadline=None)
settings.load_profile("torrigid")


@pytest.fixture
def cold_cy_cache():
    """An empty per-fan cache of ``cy_t1``, so that calls counted inside it
    include the fan-only work."""
    _cy_fan.cache_clear()
    yield
    _cy_fan.cache_clear()


@pytest.fixture
def cold_localcoh():
    """An empty one-degree memo and no sign-pattern records in ``localcoh``,
    so that lookups counted inside it include every record built.  Both are
    emptied again afterwards: a memo left pointing at a dropped table would
    give an ideal two records of one pattern."""
    localcoh._last = (None, None, None, None)
    localcoh._records.cache_clear()
    yield
    localcoh._last = (None, None, None, None)
    localcoh._records.cache_clear()


SQUARE_RAYS = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
HEXAGON_RAYS = [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]
THIRD_RAYS = [(1, 0, 1), (0, 1, 1), (-1, -1, 1)]  # index-3 simplicial cone


@pytest.fixture
def p2_fan():
    return validate_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], name="P2")


@pytest.fixture
def p4_fan():
    rays = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (-1, -1, -1, -1),
    ]
    cones = [tuple(j for j in range(5) if j != i) for i in range(5)]
    return validate_fan(rays, cones, name="P4")


@pytest.fixture
def f2_fan():
    return validate_fan(
        [(1, 0), (0, 1), (-1, 2), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        name="F2",
    )


@pytest.fixture
def square_cone():
    return affine_cone(SQUARE_RAYS, name="square")


@pytest.fixture
def hexagon_cone():
    return affine_cone(HEXAGON_RAYS, name="hexagon")


@pytest.fixture
def third_cone():
    return affine_cone(THIRD_RAYS, name="third")


@pytest.fixture
def a1_cone():
    return affine_cone([(1, 0), (1, 2)], name="A1")
