from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from capauct import Allocation, Instance, Subadditive2x2Valuation, bundle_value
from capauct.cli import example1 as example1_instance

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


def empty_allocation(n_agents: int, n_goods: int) -> Allocation:
    return Allocation(tuple((0,) * n_goods for _ in range(n_agents)))


def agent_total(allocation: Allocation, agent: int) -> int:
    return sum(allocation.units[agent])


def capacitated_as_2x2(instance: Instance, agent: int) -> Subadditive2x2Valuation:
    """A capacitated agent of a two-good market, viewed as a set valuation."""
    return Subadditive2x2Valuation(*(bundle_value(instance, agent, bundle)
                                     for bundle in ((1, 0), (0, 1), (1, 1))))


@pytest.fixture
def example1() -> Instance:
    """Two agents (capacities 1 and 2), two unit goods, the canonical envy case."""
    return example1_instance()


@pytest.fixture
def example1_path() -> Path:
    return FIXTURES / "example1.json"


@st.composite
def tie_heavy_instances(draw):
    """Small markets with capacities 0-3 and integer values 0-3, so optima often tie."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    capacities = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    supplies = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    values = draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                           min_size=n, max_size=n))
    return Instance(tuple(capacities), tuple(supplies),
                    tuple(tuple(Fraction(v) for v in row) for row in values))
