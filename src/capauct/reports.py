"""Report types shared by the replication drivers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

_RELATION_CHECKS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


class ChainStep(NamedTuple):
    """One verified inequality in a replayed argument."""

    label: str
    lhs: Fraction
    relation: str
    rhs: Fraction
    anchor: str

    @property
    def holds(self) -> bool:
        return _RELATION_CHECKS[self.relation](self.lhs, self.rhs)


@dataclass(frozen=True)
class ChainReport:
    """A sequence of exact inequality steps, each checked, and what they conclude.

    A replay builds one only after :func:`checked_step` has passed every
    step, so the chain holds.  ``conclusion`` carries the derived bound
    or margin of the final step.
    """

    steps: tuple[ChainStep, ...]
    conclusion: Fraction


def checked_step(label: str, lhs: Fraction, relation: str, rhs: Fraction, anchor: str) -> ChainStep:
    """Build a step and fail loudly if the stated relation does not hold."""
    step = ChainStep(label, lhs, relation, rhs, anchor)
    if not step.holds:
        raise AssertionError(f"chain step {label}: {lhs} {relation} {rhs} does not hold")
    return step
