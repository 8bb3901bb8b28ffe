"""Decidable property checkers over mechanism outcomes.

Everything here is exact: a reported envy pair, rationality deficit or
deviation gain is a strictly positive rational, never a tolerance call.
Exhaustive demand has one enumerator, ``_demand``: an integer argmax
over bundle bitmasks, given a worth table (every bundle's worth over one
denominator) and prices.  The capacitated checks build their table once
(bounded good count), the set-valuation check clears its dict into one.
It returns the full argmax set that the gross-substitutes check needs,
and it is the independent reference that tests hold the closed-form
demand in ``walrasian`` against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    MechanismOutcome,
    _as_rat,
    _clear_onto,
    _held_goods,
    _is_agent,
    bundle_value,
    capped_sum,
    clear_denominators,
    scaled_values,
    total_value,
)
from .matching import _reported_markets, bellman_ford, social_optimum

#: Exhaustive demand enumeration caps out here (2^15 bundles).
MAX_DEMAND_GOODS = 15


class AuditError(ValueError):
    """Raised on inputs outside a checker's declared bounds."""


class EnvyPair(NamedTuple):
    envier: int
    envied: int
    margin: Fraction


class IRViolation(NamedTuple):
    agent: int
    deficit: Fraction


class NPTViolation(NamedTuple):
    agent: int
    payment: Fraction


class ICWitness(NamedTuple):
    agent: int
    deviation: tuple[Fraction, ...]
    gain: Fraction


@dataclass(frozen=True)
class AuditReport:
    """Per-property verdicts with witnesses; empty lists mean the property held."""

    envy_pairs: tuple[EnvyPair, ...] = ()
    ir_violations: tuple[IRViolation, ...] = ()
    npt_violations: tuple[NPTViolation, ...] = ()
    ic_witnesses: tuple[ICWitness, ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.envy_pairs or self.ir_violations or self.npt_violations or self.ic_witnesses)


def envy_pairs_from_values(
    cross_values: Sequence[Sequence[Fraction]], payments: Sequence[Fraction]
) -> list[EnvyPair]:
    """Envy pairs given cross_values[i][j] = value of j's bundle to agent i.

    The entries must be exact rationals and the matrix n x n for n
    payments, else InvalidInstanceError.
    """
    payments = [_as_rat(p) for p in payments]
    n = len(payments)
    if len(cross_values) != n or any(len(row) != n for row in cross_values):
        raise InvalidInstanceError(f"cross values are not {n} x {n} for {n} payments")
    cross = [[_as_rat(v) for v in row] for row in cross_values]
    denom, (*cross, pays) = clear_denominators([*cross, payments])
    return _envy_pairs(cross, pays, denom)


def _envy_pairs(cross: Sequence[Sequence[int]], pays: Sequence[int], denom: int) -> list[EnvyPair]:
    """:func:`envy_pairs_from_values` on integers over the common denominator ``denom``."""
    pairs = []
    for i, row in enumerate(cross):
        own_utility = row[i] - pays[i]
        for j, (value, pay) in enumerate(zip(row, pays)):
            if j != i and value - pay > own_utility:
                pairs.append(EnvyPair(i, j, Fraction(value - pay - own_utility, denom)))
    return pairs


def _per_agent(instance: Instance, entries: Sequence, what: str, unit: str) -> None:
    """Raise InvalidInstanceError unless ``entries`` holds one entry per agent."""
    if len(entries) != instance.n_agents:
        raise InvalidInstanceError(f"{what} has {len(entries)} {unit}, expected {instance.n_agents}")


def _cross_values(instance: Instance, allocation: Allocation) -> tuple[int, list[list[int]]]:
    """``(D, cross)``: ``cross[i][k] / D`` is agent i's :func:`bundle_value` of row k.

    ``D`` is the market's common denominator; the row count and each row
    are checked once.
    """
    _per_agent(instance, allocation.units, "allocation", "rows")
    rows = [_held_goods(instance, row) for row in allocation.units]
    denom, scaled = scaled_values(instance)
    return denom, [[capped_sum([(values[j], u) for j, u in held], cap) for held in rows]
                   for values, cap in zip(scaled, instance.agent_capacity)]


def envy_check(instance: Instance, outcome: MechanismOutcome) -> list[EnvyPair]:
    """Agents who would strictly prefer another agent's bundle-and-payment.

    The envied bundle is valued with the *envier's* capacity.  Values
    and payments are compared as integers over one denominator, the
    least common multiple of the market's and the payments'.
    """
    _per_agent(instance, outcome.payments, "payment vector", "entries")
    denom, cross = _cross_values(instance, outcome.allocation)
    common, pays = _clear_onto(denom, [_as_rat(p) for p in outcome.payments])
    if common != denom:
        cross = [[v * (common // denom) for v in row] for row in cross]
    return _envy_pairs(cross, pays, common)


def ir_check(instance: Instance, outcome: MechanismOutcome) -> list[IRViolation]:
    """Agents with strictly negative utility under truthful play."""
    _per_agent(instance, outcome.allocation.units, "allocation", "rows")
    _per_agent(instance, outcome.payments, "payment vector", "entries")
    payments = [_as_rat(p) for p in outcome.payments]
    violations = []
    for i in range(instance.n_agents):
        utility = bundle_value(instance, i, outcome.allocation.units[i]) - payments[i]
        if utility < 0:
            violations.append(IRViolation(i, -utility))
    return violations


def npt_check(outcome: MechanismOutcome) -> list[NPTViolation]:
    """Agents the mechanism pays (strictly negative payments)."""
    return [NPTViolation(i, p) for i, p in enumerate(map(_as_rat, outcome.payments)) if p < 0]


def ic_probe(
    instance: Instance,
    rule,
    agent: int,
    deviations: Sequence[Sequence[Fraction]],
) -> list[ICWitness]:
    """Search a finite set of misreports for a profitable one.

    Sound but not complete: an empty result is evidence, not proof.  The
    structural guarantee (the pivot never reads the agent's own row) is
    tested separately; this is the belt-and-braces fuzz.

    Truthful, the agent's utility is ``W - h``, welfare minus pivot.
    Every misreport is checked, and all of them cleared onto one
    denominator with the pivot network's, before the first is probed:
    ``matching._reported_markets`` re-inserts the agent into its truthful
    pivot's network, scaled once per probe, so a misreport builds no
    network and clears no matrix.  Whatever it reports, the agent pays the
    pivot ``h'`` less the others' values of the reported optimum, so its
    true utility is VCG's identity: that optimum's true welfare, a linear
    sum as it is feasible, minus ``h'``.  A bad agent index raises
    IndexError, a malformed misreport ``InvalidInstanceError`` with the
    constructor's message for its row.
    """
    if not _is_agent(instance, agent):
        raise IndexError(f"agent index {agent} out of range")
    if rule.check is not None:
        rule.check(instance)  # a misreport changes values only, never the shape
    truthful = social_optimum(instance).welfare - rule.pivot(instance, agent)
    witnesses = []
    for reported in _reported_markets(instance, agent, deviations):
        welfare = total_value(instance, social_optimum(reported).allocation)
        bar = rule.pivot(reported, agent) + truthful  # the true welfare a gain must beat
        if welfare > bar:
            witnesses.append(ICWitness(agent, reported.values[agent], welfare - bar))
    return witnesses


# ---------------------------------------------------------------------------
# Demand oracle and gross-substitutes check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemandSet:
    """All utility-maximizing bundles of a single agent at given prices."""

    prices: tuple[Fraction, ...]
    optimal_bundles: frozenset[frozenset[int]]
    utility: Fraction


def _valuation(values: Sequence[Fraction], capacity: int) -> tuple[Fraction, ...]:
    """The values as exact rationals, checked with the capacity as an :class:`Instance` checks them."""
    return Instance((capacity,), (1,) * len(values), (values,)).values[0]


def _capacitated_worth(values: Sequence[Fraction], capacity: int) -> tuple[int, list[int]]:
    """The worth table ``(D, worth)`` of a capacitated agent over checked ``values``.

    ``worth[mask] / D`` values the bundle ``mask`` encodes, bit ``j`` good
    ``j``.  Goods join every bundle in descending value order, each counted
    if the bundle holds fewer than ``capacity``; independent of ``capped_sum``.
    """
    if len(values) > MAX_DEMAND_GOODS:
        raise AuditError(f"{len(values)} goods exceed the demand enumeration bound {MAX_DEMAND_GOODS}")
    denom, (vals,) = clear_denominators((values,))
    worth = {0: 0}
    for v, bit in sorted(((v, 1 << j) for j, v in enumerate(vals)), reverse=True):
        worth.update([(s | bit, w + v if s.bit_count() < capacity else w) for s, w in worth.items()])
    return denom, [worth[s] for s in range(len(worth))]


def _demand(table: tuple[int, Sequence[int]], prices: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """Exhaustive demand: every argmax bitmask of worth less price, ascending, and the best utility.

    ``table`` is a worth table ``(D, worth)``.  The prices are cleared
    onto ``D`` and every bundle's price is built by doubling, bit ``j``
    good ``j``, so the argmax runs on integers.
    """
    denom, worth = table
    if 1 << len(prices) != len(worth):
        raise AuditError("price vector length mismatch")
    common, prs = _clear_onto(denom, prices)
    cost = [0]
    for p in prs:
        cost += [c + p for c in cost]
    scale = common // denom
    utility = [w * scale - c for w, c in zip(worth, cost)]
    best = max(utility)
    return [mask for mask, u in enumerate(utility) if u == best], Fraction(best, common)


def _mask_to_bundle(mask: int, m: int) -> frozenset[int]:
    return frozenset(j for j in range(m) if mask >> j & 1)


def demand_set(
    values: Sequence[Fraction], capacity: int, prices: Sequence[Fraction]
) -> DemandSet:
    """Every bundle maximizing value-minus-price for a capacitated agent."""
    values = _valuation(values, capacity)
    prices = tuple(_as_rat(p) for p in prices)
    argmax, utility = _demand(_capacitated_worth(values, capacity), prices)
    return DemandSet(prices, frozenset(_mask_to_bundle(mask, len(values)) for mask in argmax), utility)


class GSCounterexample(NamedTuple):
    """A price raise that evicted a same-priced good from every optimal bundle."""

    prices_low: tuple[Fraction, ...]
    prices_high: tuple[Fraction, ...]
    bundle_low: frozenset[int]
    kept_goods: frozenset[int]


def _gs_over_demands(
    table: tuple[int, Sequence[int]],
    n_goods: int,
    price_pairs: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]],
) -> Optional[GSCounterexample]:
    """Substitutes containment test over the worth table ``table`` of ``n_goods`` goods."""
    for low, high in price_pairs:
        low = tuple(_as_rat(p) for p in low)
        high = tuple(_as_rat(p) for p in high)
        if len(low) != n_goods or len(high) != n_goods:
            raise AuditError("price vector length mismatch")
        if any(h < l for l, h in zip(low, high)):
            raise AuditError("second price vector must dominate the first componentwise")
        same_mask = sum(1 << j for j in range(n_goods) if low[j] == high[j])
        argmax_low, _ = _demand(table, low)
        argmax_high, _ = _demand(table, high)
        for mask_low in argmax_low:
            kept = mask_low & same_mask
            if not any(kept & ~mask_high == 0 for mask_high in argmax_high):
                return GSCounterexample(
                    low, high, _mask_to_bundle(mask_low, n_goods), _mask_to_bundle(kept, n_goods)
                )
    return None


def gross_substitutes_check(
    values: Sequence[Fraction],
    capacity: int,
    price_pairs: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]],
) -> Optional[GSCounterexample]:
    """Verify gross substitutes on explicit price pairs; None means no violation.

    For each pair (p, q) with q >= p componentwise and each bundle
    optimal at p, some bundle optimal at q must retain every good whose
    price did not move.  Returns the first failing tuple otherwise.
    """
    values = _valuation(values, capacity)
    return _gs_over_demands(_capacitated_worth(values, capacity), len(values), price_pairs)


def gross_substitutes_check_set(
    valuation: dict[frozenset[int], Fraction],
    n_goods: int,
    price_pairs: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]],
) -> Optional[GSCounterexample]:
    """Same containment test, but for an explicit set valuation.

    Exists so the checker's sensitivity can be demonstrated on
    valuations outside the capacitated family (complements fail it).
    Every bundle of the ``n_goods`` goods must be valued.
    """
    if type(n_goods) is not int or n_goods < 0:  # bools are ints to isinstance
        raise InvalidInstanceError(f"goods count {n_goods!r} is not a non-negative integer")
    if n_goods > MAX_DEMAND_GOODS:
        raise AuditError(f"{n_goods} goods exceed the enumeration bound {MAX_DEMAND_GOODS}")
    valuation = {bundle: _as_rat(value) for bundle, value in valuation.items()}
    try:
        worth = [valuation[_mask_to_bundle(mask, n_goods)] for mask in range(1 << n_goods)]
    except KeyError as missing:
        raise AuditError(f"valuation missing bundle {set(missing.args[0])}") from None
    denom, (scaled,) = clear_denominators((worth,))
    return _gs_over_demands((denom, scaled), n_goods, price_pairs)


# ---------------------------------------------------------------------------
# Envy-free payment feasibility (difference constraints)
# ---------------------------------------------------------------------------

#: Anchor vertex index used in negative-cycle witnesses for the bound
#: constraints (payment >= 0 / payment <= own value).
BOUND_ANCHOR = -1


@dataclass(frozen=True)
class EFPaymentResult:
    feasible: bool
    payments: Optional[tuple[Fraction, ...]] = None
    negative_cycle: Optional[tuple[int, ...]] = None
    cycle_weight: Optional[Fraction] = None


def ef_payment_feasible(
    instance: Instance,
    allocation: Allocation,
    require_ir: bool = False,
    require_npt: bool = False,
) -> EFPaymentResult:
    """Decide whether envy-free payments exist for a fixed allocation.

    Envy-freeness pins down payment differences: p_i - p_j may not
    exceed what agent i gains by holding her own bundle instead of j's.
    These are difference constraints, so feasibility is a shortest-path
    question: a witness payment vector exists exactly when the
    constraint graph has no negative cycle, and a negative cycle is
    itself the minimal certificate of impossibility.  Bound constraints
    (IR, non-negativity) run through an anchor vertex reported as
    ``BOUND_ANCHOR`` in cycle witnesses.

    Values are non-negative, so the IR bounds never bind.  The anchor is
    entered only by the non-negativity arcs ``j -> anchor`` of weight 0,
    so the walk ``j -> anchor -> i`` weighs v_i(B_i), and the envy arc
    ``j -> i``, scanned first, weighs v_i(B_i) - v_i(B_j), no more.
    Without those arcs the anchor keeps its seed 0 while every agent's
    distance is at most 0.  So no IR arc is built: ``require_ir`` is
    accepted and cannot change the verdict, payments or witness, and the
    payments are always individually rational.
    """
    n = instance.n_agents
    denom, cross = _cross_values(instance, allocation)
    anchor = n
    edges: list[tuple[int, int, int]] = []
    for i in range(n):
        for j in range(n):
            if i != j:
                # p_i - p_j <= cross[i][i] - cross[i][j]
                edges.append((j, i, cross[i][i] - cross[i][j]))
    if require_npt:
        for i in range(n):
            edges.append((i, anchor, 0))  # 0 <= p_i
    dist = [0] * (n + 1)  # implicit super-source: detects any negative cycle
    via, node = bellman_ford(edges, dist)
    if node is not None:
        loop = [via[node]]  # the cycle's arcs, walked backwards from node
        while edges[loop[-1]][0] != node:
            loop.append(via[edges[loop[-1]][0]])
        loop.reverse()
        witness = tuple(BOUND_ANCHOR if edges[k][1] == anchor else edges[k][1] for k in loop)
        weight = Fraction(sum(edges[k][2] for k in loop), denom)
        return EFPaymentResult(False, negative_cycle=witness, cycle_weight=weight)
    shift = dist[anchor]
    payments = tuple(Fraction(dist[i] - shift, denom) for i in range(n))
    return EFPaymentResult(True, payments=payments)
