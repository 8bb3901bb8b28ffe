"""Payment rules: VCG outcomes under pluggable pivot terms.

A pivot rule supplies, for each agent, a value h_i computed from the
other agents' reports only.  The resulting payment is

    payment_i = h_i - (welfare of the optimum excluding agent i's share)

Three rules live here: the classic externality (Clarke) pivot, a
two-agent rule that charges the sum of the opponent's top entries (it
is envy-free for two capacitated agents at the cost of allowing
negative payments), and a two-good rule for general subadditive
valuations that charges the opponent's best singleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .core import (
    Allocation,
    Instance,
    MechanismOutcome,
    ZERO,
    _as_rat,
    _is_agent,
    bundle_value,
    capped_sum,
    scaled_values,
)
from .matching import OptResult, optimum_without, social_optimum


class MechanismShapeError(ValueError):
    """Raised when a rule is applied to an instance shape it does not cover."""


@dataclass(frozen=True)
class PivotRule:
    """A named family of h_i functions defining a VCG mechanism.

    ``pivot(instance, agent)`` must never read the agent's own value
    row; the audit suite fuzzes exactly that.
    """

    rule_id: str
    pivot: Callable[[Instance, int], Fraction]
    check: Optional[Callable[[Instance], None]] = None


def clarke_pivot(instance: Instance, agent: int) -> Fraction:
    """Externality pivot: the best welfare the others can reach alone."""
    return optimum_without(instance, agent).welfare


def _require_two_agents_unit_supply(instance: Instance) -> None:
    if instance.n_agents != 2:
        raise MechanismShapeError("rule requires exactly two agents")
    if any(q != 1 for q in instance.good_supply):
        raise MechanismShapeError("rule requires unit supplies")


def _opponent(instance: Instance, agent: int) -> int:
    if not _is_agent(instance, agent):  # the error optimum_without raises
        raise IndexError(f"agent index {agent} out of range")
    return 1 - agent


def two_agent_pivot(instance: Instance, agent: int) -> Fraction:
    """Charge the sum of the opponent's smallest-capacity-many best entries.

    Both agents are charged against the *smaller* of the two capacities,
    which is what makes the payments envy-free.
    """
    _require_two_agents_unit_supply(instance)
    other = _opponent(instance, agent)
    floor_cap = min(instance.agent_capacity)
    denom, scaled = scaled_values(instance)
    return Fraction(capped_sum(((v, 1) for v in scaled[other]), floor_cap), denom)


def _require_two_by_two(instance: Instance) -> None:
    _require_two_agents_unit_supply(instance)
    if instance.n_goods != 2:
        raise MechanismShapeError("rule requires exactly two goods")


def best_singleton_pivot(instance: Instance, agent: int) -> Fraction:
    """Charge the opponent's best single-good value (zero-capacity opponents pay for nothing)."""
    _require_two_by_two(instance)
    other = _opponent(instance, agent)
    if instance.agent_capacity[other] == 0:
        return ZERO
    denom, scaled = scaled_values(instance)
    return Fraction(max(scaled[other]), denom)


CLARKE = PivotRule("clarke", clarke_pivot)
TWO_AGENT_TOPC = PivotRule("topc", two_agent_pivot, _require_two_agents_unit_supply)
SUBADDITIVE_2X2 = PivotRule("sub2x2", best_singleton_pivot, _require_two_by_two)

#: The rules by id, which is also their CLI mechanism name.
RULES = {rule.rule_id: rule for rule in (CLARKE, TWO_AGENT_TOPC, SUBADDITIVE_2X2)}


def vcg_payment(instance: Instance, opt: OptResult, agent: int, pivot: Fraction) -> Fraction:
    """The agent's payment h_i - (others' realized welfare) at the optimum ``opt``."""
    own = bundle_value(instance, agent, opt.allocation.units[agent])
    return pivot - (opt.welfare - own)


def vcg_outcome(instance: Instance, rule: PivotRule) -> MechanismOutcome:
    """Efficient allocation plus payments h_i - (others' realized welfare)."""
    if rule.check is not None:
        rule.check(instance)
    opt = social_optimum(instance)
    pivots = tuple(rule.pivot(instance, i) for i in range(instance.n_agents))
    payments = tuple(vcg_payment(instance, opt, i, h) for i, h in enumerate(pivots))
    return MechanismOutcome(opt.allocation, payments, rule.rule_id, pivots)


def two_agent_topc(instance: Instance) -> MechanismOutcome:
    """The envy-free two-agent mechanism (may pay agents)."""
    return vcg_outcome(instance, TWO_AGENT_TOPC)


@dataclass(frozen=True)
class Subadditive2x2Valuation:
    """A general two-good valuation: values for {0}, {1} and the pair.

    Must be subadditive (the pair is worth at most the sum of parts) and
    monotone (the pair is worth at least each part, i.e. free disposal).
    """

    v1: Fraction
    v2: Fraction
    v12: Fraction

    def __post_init__(self):
        object.__setattr__(self, "v1", _as_rat(self.v1))
        object.__setattr__(self, "v2", _as_rat(self.v2))
        object.__setattr__(self, "v12", _as_rat(self.v12))
        if self.v1 < 0 or self.v2 < 0 or self.v12 < 0:
            raise ValueError("valuations must be non-negative")
        if self.v12 > self.v1 + self.v2:
            raise ValueError(f"not subadditive: v12={self.v12} > v1+v2={self.v1 + self.v2}")
        if self.v12 < max(self.v1, self.v2):
            raise ValueError("not monotone: the pair is worth less than a singleton")

    def of(self, bundle: frozenset[int]) -> Fraction:
        if not bundle:
            return ZERO
        if bundle == frozenset((0,)):
            return self.v1
        if bundle == frozenset((1,)):
            return self.v2
        if bundle == frozenset((0, 1)):
            return self.v12
        raise IndexError(f"unknown bundle {set(bundle)}")


# Agent 0's candidate bundles, in canonical preference order: ties go to the
# lower-indexed agent first and the lower-indexed good first.
_CANDIDATES_2X2 = (
    frozenset((0, 1)),
    frozenset((0,)),
    frozenset((1,)),
    frozenset(),
)
_ALL_GOODS = frozenset((0, 1))


def subadditive_2x2(
    v_agent1: Subadditive2x2Valuation, v_agent2: Subadditive2x2Valuation
) -> MechanismOutcome:
    """Best-singleton-pivot VCG over two goods and two subadditive agents.

    The allocation maximizes total value over the four ways of splitting
    the two goods; each agent pays the opponent's best singleton value
    minus the opponent's realized value.
    """
    best_bundle = None
    best_value = None
    for bundle in _CANDIDATES_2X2:
        value = v_agent1.of(bundle) + v_agent2.of(_ALL_GOODS - bundle)
        if best_value is None or value > best_value:
            best_value = value
            best_bundle = bundle
    assert best_bundle is not None
    other_bundle = _ALL_GOODS - best_bundle
    h1 = max(v_agent2.v1, v_agent2.v2)
    h2 = max(v_agent1.v1, v_agent1.v2)
    payments = (
        h1 - v_agent2.of(other_bundle),
        h2 - v_agent1.of(best_bundle),
    )
    units = (
        tuple(1 if j in best_bundle else 0 for j in range(2)),
        tuple(1 if j in other_bundle else 0 for j in range(2)),
    )
    return MechanismOutcome(Allocation(units), payments, SUBADDITIVE_2X2.rule_id, (h1, h2))
