from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from capauct import Instance
from capauct.cli import example1 as example1_instance

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


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
