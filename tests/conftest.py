import pytest

from meandim import system_zoo as zoo


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
