"""Walrasian item prices for capacitated markets, with verification.

Capacitated valuations are gross substitutes, so item prices supporting
the optimal allocation always exist.  We read candidate prices off the
matching solver's dual potentials (good-side potentials shifted so that
goods with unsold units price at zero) and then *verify* the
equilibrium with the closed-form capacitated demand before returning
it: each agent's bundle must be demand-optimal at the prices, and every
unsold unit must belong to a zero-priced good.  A verification failure
is a solver bug, not a market condition, and raises.

Also here: the driver that replays, with exact rationals, the argument
that no incentive-compatible mechanism can quote Walrasian prices once
agents can want several goods.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .audit import AuditError, _valuation
from .core import (Allocation, Instance, InvalidInstanceError, ZERO, _as_counts, _as_rat,
                   _clear_onto, allocation_violations, bundle_value, capped_sum,
                   clear_denominators, scaled_values)
from .matching import _reported_markets, node_potentials, social_optimum
from .reports import ChainReport, checked_step


class WalrasianError(RuntimeError):
    """Raised when a computed price vector fails its own verification.

    ``violations`` holds the failed equilibrium conditions, when the
    error comes from verification.
    """

    def __init__(self, message: str, violations: Sequence[WalrasianViolation] = ()):
        super().__init__(message)
        self.violations = tuple(violations)


class WalrasianViolation(NamedTuple):
    kind: str  # "allocation" | "demand" | "clearing" | "negative_price"
    agent: Optional[int]
    good: Optional[int]
    detail: str


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Prices plus the allocation they support, and its welfare.

    Instances of this type are only ever built after verification, so
    holding one means the equilibrium conditions were checked, not
    assumed.
    """

    prices: tuple[Fraction, ...]
    allocation: Allocation
    welfare: Fraction


def demand_utility(
    values: Sequence[Fraction], capacity: int, supplies: Sequence[int], prices: Sequence[Fraction]
) -> Fraction:
    """Best utility of a capacitated agent at item prices, in closed form.

    Units priced below zero are always taken: values are non-negative,
    and holding one more unit never lowers a capacity-capped value, so
    their prices come back in full.  The agent then fills its capacity
    with the units of largest positive gain ``v_j - max(p_j, 0)``, good
    ``j`` offering ``q_j``: :func:`~capauct.core.capped_sum` on (gain,
    supply) pairs.  Exact, O(m log m) for m goods, on integers over a
    common denominator.  The inputs are checked as :func:`~capauct.audit.demand_set`
    checks them, and supplies as :class:`~capauct.core.Instance` checks
    them; supplies or prices of another length than the values raise
    AuditError.
    """
    values = _valuation(values, capacity)
    supplies = _as_counts(supplies, "supply")
    for j, q in enumerate(supplies):
        if q <= 0:
            raise InvalidInstanceError(f"good {j} has non-positive supply {q}")
    prices = tuple(_as_rat(p) for p in prices)
    if len(supplies) != len(values):
        raise AuditError("supply vector length mismatch")
    if len(prices) != len(values):
        raise AuditError("price vector length mismatch")
    denom, (vals, prs) = clear_denominators((values, prices))
    return Fraction(_best_utility(vals, capacity, supplies, prs), denom)


def _best_utility(values: Sequence[int], capacity: int, supplies: Sequence[int],
                  prices: Sequence[int]) -> int:
    """:func:`demand_utility` on values and prices over one common denominator."""
    best = 0
    gains: list[tuple[int, int]] = []
    for v, q, p in zip(values, supplies, prices):
        if p < 0:
            best -= q * p
            p = 0
        if v > p:
            gains.append((v - p, q))
    return best + capped_sum(gains, capacity)


def verify_walrasian(
    instance: Instance,
    prices: Sequence[Fraction],
    allocation: Allocation,
) -> list[WalrasianViolation]:
    """All equilibrium violations for (prices, allocation); empty list = ok.

    An allocation that breaks capacities, supplies or the market's shape
    gets one ``"allocation"`` violation per problem and no further
    checks, which assume a feasible bundle.  The demand check compares
    each agent's utility from its own bundle with its best utility at
    the prices, :func:`demand_utility`'s closed form.  Both are integers
    over the least common denominator of the values and the prices,
    cleared once per call.
    """
    prices = tuple(_as_rat(p) for p in prices)
    if len(prices) != instance.n_goods:
        raise AuditError("price vector length mismatch")
    problems = allocation_violations(instance, allocation)
    if problems:
        return [WalrasianViolation("allocation", None, None, problem) for problem in problems]
    violations = []
    for j, p in enumerate(prices):
        if p < 0:
            violations.append(
                WalrasianViolation("negative_price", None, j, f"good {j} priced {p}")
            )
    for j in range(instance.n_goods):
        if allocation.good_total(j) < instance.good_supply[j] and prices[j] != 0:
            violations.append(
                WalrasianViolation(
                    "clearing", None, j,
                    f"good {j} has unsold units but price {prices[j]} != 0",
                )
            )
    denom, scaled = scaled_values(instance)
    common, cleared = _clear_onto(denom, prices)
    factor = common // denom
    for i, row in enumerate(allocation.units):
        value = bundle_value(instance, i, row)
        own = value.numerator * (common // value.denominator) - sum(
            u * p for u, p in zip(row, cleared) if u)
        best = _best_utility([v * factor for v in scaled[i]],
                             instance.agent_capacity[i], instance.good_supply, cleared)
        if own != best:
            violations.append(
                WalrasianViolation(
                    "demand", i, None, f"agent {i} gets utility {Fraction(own, common)} "
                                       f"but demands utility {Fraction(best, common)}"
                )
            )
    return violations


def compute_walrasian_prices(instance: Instance) -> EquilibriumCertificate:
    """Equilibrium prices from the matching duals, verified before return."""
    opt = social_optimum(instance)
    _, good_pot, _, sink_pot = node_potentials(instance)
    prices = tuple(max(ZERO, sink_pot - good_pot[j]) for j in range(instance.n_goods))
    violations = verify_walrasian(instance, prices, opt.allocation)
    if violations:
        raise WalrasianError(
            "computed prices failed verification: " + "; ".join(v.detail for v in violations),
            violations,
        )
    return EquilibriumCertificate(prices, opt.allocation, opt.welfare)


# ---------------------------------------------------------------------------
# Replication driver: incentive-compatible Walrasian pricing is impossible
# once capacities reach two.
# ---------------------------------------------------------------------------


def chain_instances(eps: Fraction) -> tuple[Instance, Instance]:
    """The adversarial pair of 2-agent, 3-good, capacity-2 markets.

    The second market is agent 0's misreport in the first: it changes
    only agent 0's row, which pins agent 0's payment through the pivot
    term while the equilibrium prices of the first market force that term
    high.  It is solved as ``ic_probe`` solves a misreport.
    """
    one = Fraction(1)
    row_2 = (one - eps / 2, one, one + eps)
    v = Instance((2, 2), (1, 1, 1), ((one + eps, one + eps, one - eps), row_2))
    [v_prime] = _reported_markets(v, 0, [(one - eps, ZERO, ZERO)])
    return v, v_prime


def _expect_allocation(instance: Instance, expected: Allocation, label: str) -> Fraction:
    opt = social_optimum(instance)
    if opt.allocation != expected:
        raise WalrasianError(f"{label}: solver optimum {opt.allocation.units} "
                             f"differs from expected {expected.units}")
    return opt.welfare


def no_ic_walrasian_chain(eps: Fraction) -> ChainReport:
    """Replay the impossibility argument for IC Walrasian pricing, exactly.

    For the first market, any Walrasian prices must make agent 1 (who
    has spare capacity) decline goods a and b, which bounds the prices
    below and hence bounds agent 0's pivot term from below.  Carrying
    that bound into the second market forces agent 0 to pay more than
    her value for the single good she wins: a negative-utility
    contradiction whose exact margin is eps/2.  Every inequality is
    checked as it is emitted; the report's conclusion is the margin.
    """
    eps = _as_rat(eps)
    if not ZERO < eps < 1:
        raise ValueError(f"eps must lie strictly between 0 and 1, got {eps}")
    v, v_prime = chain_instances(eps)
    one = Fraction(1)

    opt_v = Allocation(((1, 1, 0), (0, 0, 1)))
    welfare_v = _expect_allocation(v, opt_v, "first market")
    opt_vp = Allocation(((1, 0, 0), (0, 1, 1)))
    welfare_vp = _expect_allocation(v_prime, opt_vp, "second market")

    steps = [
        checked_step("optimum", welfare_v, "=", 3 + 3 * eps, "split-ab-c"),
        checked_step("optimum-prime", welfare_vp, "=", Fraction(3), "split-a-bc"),
    ]
    # Agent 1 keeps spare capacity under the first optimum, so equilibrium
    # prices must price her out of goods a and b entirely.
    price_a_floor = v.values[1][0]
    price_b_floor = v.values[1][1]
    steps.append(checked_step("price-a-floor", price_a_floor, "=", one - eps / 2, "pa"))
    steps.append(checked_step("price-b-floor", price_b_floor, "=", one, "pb"))

    # Agent 0 pays the two item prices; as a pivot payment that equals
    # h_0(row 1) minus agent 1's realized value, bounding h_0 from below.
    other_value_v = bundle_value(v, 1, opt_v.units[1])
    h0_floor = price_a_floor + price_b_floor + other_value_v
    steps.append(checked_step("pivot-floor", h0_floor, "=", 3 + eps / 2, "h1-bound"))

    # Same pivot term in the second market (agent 1's row is unchanged),
    # so agent 0's payment there is bounded below as well.
    other_value_vp = bundle_value(v_prime, 1, opt_vp.units[1])
    steps.append(checked_step("other-value-prime", other_value_vp, "=", 2 + eps, "v2-bc"))
    payment_floor = h0_floor - other_value_vp
    steps.append(checked_step("payment-floor", payment_floor, "=", one - eps / 2, "p1-bound"))

    # Contradiction: the bound exceeds agent 0's value for her bundle.
    own_value = bundle_value(v_prime, 0, opt_vp.units[0])
    steps.append(checked_step("rationality-contradiction", payment_floor, ">", own_value, "ir"))
    margin = payment_floor - own_value
    steps.append(checked_step("margin", margin, "=", eps / 2, "eps-half"))
    return ChainReport(tuple(steps), margin)
