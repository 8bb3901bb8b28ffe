from pathlib import Path

import pytest

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
