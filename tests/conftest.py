import numpy as np
import pytest

from meandim import system_zoo as zoo
from meandim.orbit_engine import build_table


@pytest.fixture
def one_point():
    return zoo.make_finite_system([[0.0]], [0], name="one_point")


@pytest.fixture
def swap_two():
    # two points at distance 1, swap map
    return zoo.make_finite_system([[0.0, 1.0], [1.0, 0.0]], [1, 0], name="swap")


@pytest.fixture
def seeded_six():
    return zoo.random_finite_system(6, seed=7, low=0.1, high=1.0)


def table_for(system, n_max, fs=(), count=32, seed=0):
    pts = system.points if system.points is not None else system.sample(count, seed)
    return build_table(system, pts, n_max, fs)
