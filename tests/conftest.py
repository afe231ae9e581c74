import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

from srcox.complex_core import (
    SimplicialComplex,
    gen_cross_polytope,
    gen_cycle,
    gen_rp2_six,
)

settings.register_profile(
    "ci", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture
def pentagon():
    return gen_cycle(5)


@pytest.fixture
def octahedron():
    return gen_cross_polytope(3)


@pytest.fixture
def rp2():
    return gen_rp2_six()


@pytest.fixture
def two_points():
    return SimplicialComplex.from_facets([], ["a", "b"])
