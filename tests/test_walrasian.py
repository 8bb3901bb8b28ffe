from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import empty_allocation, tie_heavy_instances

from capauct import (
    CLARKE,
    Allocation,
    Instance,
    InvalidInstanceError,
    bundle_value,
    compute_walrasian_prices,
    demand_set,
    envy_check,
    no_ic_walrasian_chain,
    social_optimum,
    vcg_outcome,
    verify_walrasian,
)
from capauct import cli
from capauct.audit import AuditError
from capauct.generators import random_instance, random_rational, random_sized_instance, rng_for
from capauct.reports import checked_step
from capauct.walrasian import WalrasianViolation, chain_instances, demand_utility

F = Fraction


def price_violations(instance, prices, allocation):
    """The reference verifiers' checks of negative prices and unsold units."""
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
    return violations


def enumerative_verify_walrasian(instance, prices, allocation):
    """Reference verifier: exhaustive demand over the unit-expanded goods (<= 15 units)."""
    prices = tuple(Fraction(p) for p in prices)
    violations = price_violations(instance, prices, allocation)
    unit_goods = [j for j in range(instance.n_goods) for _ in range(instance.good_supply[j])]
    for i in range(instance.n_agents):
        unit_values = [instance.values[i][j] for j in unit_goods]
        unit_prices = [prices[j] for j in unit_goods]
        best = demand_set(unit_values, instance.agent_capacity[i], unit_prices).utility
        own = bundle_value(instance, i, allocation.units[i]) - sum(
            (allocation.units[i][j] * prices[j] for j in range(instance.n_goods)), F(0)
        )
        if own != best:
            violations.append(
                WalrasianViolation(
                    "demand", i, None,
                    f"agent {i} gets utility {own} but demands utility {best}",
                )
            )
    return violations


# Halves on a small grid, so zero values and tied gains come up often;
# prices reach below zero and above every value.
values_grid = st.integers(0, 4).map(lambda k: F(k, 2))
prices_grid = st.integers(-3, 6).map(lambda k: F(k, 2))
# At most five goods of supply at most three: never more than 15 units.
supplies_st = st.lists(st.integers(1, 3), max_size=5)


@st.composite
def demand_cases(draw):
    """One agent's values, capacity, supplies and prices, at most 15 units."""
    supplies = draw(supplies_st)
    m = len(supplies)
    values = draw(st.lists(values_grid, min_size=m, max_size=m))
    prices = draw(st.lists(prices_grid, min_size=m, max_size=m))
    return values, draw(st.integers(0, 4)), supplies, prices


@settings(max_examples=300, deadline=None)
@given(case=demand_cases())
@example(case=([F(2), F(2), F(1), F(0), F(3, 2)], 4, [3, 3, 3, 3, 3],
               [F(-1, 2), F(1), F(0), F(-1), F(3)]))
def test_closed_form_demand_matches_enumeration(case):
    values, capacity, supplies, prices = case
    m = len(supplies)
    unit_goods = [j for j in range(m) for _ in range(supplies[j])]
    oracle = demand_set([values[j] for j in unit_goods], capacity, [prices[j] for j in unit_goods])
    assert demand_utility(values, capacity, supplies, prices) == oracle.utility


@pytest.mark.parametrize("values, capacity, supplies, prices", [
    ((0.5, F(1)), 1, (1, 1), (F(0), F(0))),  # binary floats are not exact
    ((True, F(1)), 1, (1, 1), (F(0), F(0))),
    ((-1, F(1)), 1, (1, 1), (F(0), F(0))),
    ((F(1), F(1)), 1.5, (1, 1), (F(0), F(0))),
    ((F(1), F(1)), 1, (1, True), (F(0), F(0))),
    ((F(1), F(1)), 1, (1, 1), (0.5, F(0))),
    ((F(1), F(1)), 1, (1, 1), (F(0), True)),
    ((F(1),), 1, (-1,), (F(0),)),  # capped_sum would take -1 units
    ((F(1), F(1)), 1, (1, 0), (F(0), F(0))),
], ids=["float value", "bool value", "negative value", "float capacity", "bool supply",
        "float price", "bool price", "negative supply", "zero supply"])
def test_demand_utility_rejects_inexact_inputs(values, capacity, supplies, prices):
    with pytest.raises(InvalidInstanceError):
        demand_utility(values, capacity, supplies, prices)


@pytest.mark.parametrize("supplies, prices, message", [
    ((1,), (0, 0), "supply vector length mismatch"),  # zip would drop good 1
    ((1, 1), (0,), "price vector length mismatch"),
    ((1, 1, 1), (0, 0, 0), "supply vector length mismatch"),
])
def test_demand_utility_rejects_vectors_of_another_length(supplies, prices, message):
    with pytest.raises(AuditError, match=message):
        demand_utility((1, 2), 1, supplies, prices)


@st.composite
def priced_markets(draw):
    """A market of at most 15 units, a feasible allocation and a price vector."""
    supplies = draw(supplies_st)
    m = len(supplies)
    capacities = draw(st.lists(st.integers(0, 4), max_size=4))
    values = [draw(st.lists(values_grid, min_size=m, max_size=m)) for _ in capacities]
    instance = Instance(tuple(capacities), tuple(supplies), tuple(tuple(r) for r in values))
    if draw(st.booleans()):
        allocation = social_optimum(instance).allocation
    else:
        left = list(supplies)
        rows = []
        for c in capacities:
            row = []
            for j in range(m):
                k = draw(st.integers(0, min(left[j], c - sum(row))))
                left[j] -= k
                row.append(k)
            rows.append(tuple(row))
        allocation = Allocation(tuple(rows))
    if draw(st.booleans()):
        prices = compute_walrasian_prices(instance).prices
    else:
        prices = tuple(draw(st.lists(prices_grid, min_size=m, max_size=m)))
    return instance, allocation, prices


@settings(max_examples=150, deadline=None)
@given(market=priced_markets())
@example(market=(cli.example1(), Allocation(((1, 0), (0, 1))), (F(-1), F(1))))
@example(market=(cli.example1(), Allocation(((1, 0), (0, 1))), (F(3), F(1, 2))))
def test_verify_walrasian_matches_enumerative_verifier(market):
    instance, allocation, prices = market
    assert verify_walrasian(instance, prices, allocation) == enumerative_verify_walrasian(
        instance, prices, allocation
    )


def fraction_verify_walrasian(instance, prices, allocation):
    """Reference verifier on Fractions, each unit valued on its own (any unit count)."""
    violations = price_violations(instance, prices, allocation)
    for i, row in enumerate(allocation.units):
        values, cap = instance.values[i], instance.agent_capacity[i]
        worth = sorted((values[j] for j, u in enumerate(row) for _ in range(u)), reverse=True)
        own = sum(worth[:cap], F(0)) - sum((u * p for u, p in zip(row, prices)), F(0))
        gains = sorted((values[j] - max(p, F(0)) for j, p in enumerate(prices)
                        for _ in range(instance.good_supply[j])), reverse=True)
        best = sum((-p * q for p, q in zip(prices, instance.good_supply) if p < 0), F(0))
        best += sum((g for g in gains[:cap] if g > 0), F(0))
        if own != best:
            violations.append(WalrasianViolation(
                "demand", i, None, f"agent {i} gets utility {own} but demands utility {best}"))
    return violations


def test_verify_walrasian_matches_fraction_reference_on_perturbed_prices():
    rejected = 0
    for k in range(40):
        rng = rng_for(71, k)
        inst = random_instance(rng, 5, 12, "hetero", (1, 2, 3, 4), supply_max=1)
        certificate = compute_walrasian_prices(inst)
        for _ in range(5):
            prices = list(certificate.prices)
            for j in rng.sample(range(inst.n_goods), rng.randint(1, 3)):
                prices[j] += F(rng.randint(-4, 4), rng.choice((1, 2, 3, 7, 11)))
            got = verify_walrasian(inst, prices, certificate.allocation)
            assert got == fraction_verify_walrasian(inst, prices, certificate.allocation), (
                f"seed {k} prices {prices}")
            rejected += bool(got)
    assert 50 <= rejected < 200  # the perturbations break some equilibria and keep others


def surpluses(instance, certificate):
    """Each agent's bundle value minus the prices of its units."""
    allocation, prices = certificate.allocation, certificate.prices
    return [
        bundle_value(instance, i, allocation.units[i])
        - sum((u * p for u, p in zip(allocation.units[i], prices)), F(0))
        for i in range(instance.n_agents)
    ]


def test_verified_prices_beyond_sixteen_units():
    # 16 agents, 24 goods of supply up to 3: far past what bundle enumeration reaches
    inst = random_instance(rng_for(83, 0), 16, 24, "hetero", (1, 2, 3, 4), supply_max=3)
    assert sum(inst.good_supply) > 24
    certificate = compute_walrasian_prices(inst)
    assert any(certificate.prices)
    assert verify_walrasian(inst, certificate.prices, certificate.allocation) == []
    price_side = sum(
        (certificate.prices[j] * certificate.allocation.good_total(j) for j in range(inst.n_goods)),
        F(0),
    )
    surplus_side = sum(surpluses(inst, certificate), F(0))
    assert price_side + surplus_side == certificate.welfare


def test_example1_equilibrium_prices(example1):
    certificate = compute_walrasian_prices(example1)
    assert certificate.prices == (F(1), F(1))
    assert certificate.allocation.units == ((1, 0), (0, 1))
    for i, surplus in enumerate(surpluses(example1, certificate)):
        best = demand_utility(
            example1.values[i], example1.agent_capacity[i], example1.good_supply,
            certificate.prices,
        )
        assert surplus == best


def test_single_agent_with_slack_capacity_gets_zero_prices():
    inst = Instance((3,), (1, 1, 1), ((F(2), F(1), F(0)),))
    certificate = compute_walrasian_prices(inst)
    assert certificate.prices == (F(0), F(0), F(0))
    assert certificate.allocation.units == ((1, 1, 0),)


def test_first_adversarial_market_prices_are_bounded_below():
    instance, _ = chain_instances(F(1, 5))
    certificate = compute_walrasian_prices(instance)
    assert certificate.prices[0] >= F(9, 10)
    assert certificate.prices[1] >= F(1)
    assert verify_walrasian(instance, certificate.prices, certificate.allocation) == []


def test_verify_walrasian_rejects_wrong_prices(example1):
    opt = social_optimum(example1)
    violations = verify_walrasian(example1, (F(0), F(0)), opt.allocation)
    kinds = {v.kind for v in violations}
    assert "demand" in kinds  # agent 1 would demand both goods at zero prices
    assert verify_walrasian(example1, (F(1), F(1)), opt.allocation) == []
    # agent 1 would take good 0, priced below zero, on top of good 1
    negative = verify_walrasian(example1, (F(-1), F(1)), opt.allocation)
    assert [(v.kind, v.agent, v.good) for v in negative] == [
        ("negative_price", None, 0), ("demand", 1, None)
    ]
    with pytest.raises(AuditError, match="^price vector length mismatch$"):
        verify_walrasian(example1, (F(1),), opt.allocation)
    with pytest.raises(InvalidInstanceError):
        verify_walrasian(example1, (0.5, 1.0), opt.allocation)  # binary floats are not exact
    with pytest.raises(InvalidInstanceError):
        verify_walrasian(example1, (True, F(1)), opt.allocation)


def test_verify_walrasian_reports_infeasible_allocations(example1):
    # good 0 has one unit, handed to both agents
    doubled = verify_walrasian(example1, (F(1), F(1)), Allocation(((1, 0), (1, 1))))
    assert [(v.kind, v.agent, v.good) for v in doubled] == [("allocation", None, None)]
    assert doubled[0].detail == "good 0 allocated 2 units, supply 1"
    one_row = verify_walrasian(example1, (F(1), F(1)), Allocation(((1, 0),)))
    assert [(v.kind, v.detail) for v in one_row] == [
        ("allocation", "allocation has 1 rows, expected 2")
    ]


def test_verify_walrasian_flags_unsold_priced_good():
    inst = Instance((1,), (1, 1), ((F(2), F(0)),))
    opt = social_optimum(inst)
    bad = verify_walrasian(inst, (F(1), F(1)), opt.allocation)
    assert any(v.kind == "clearing" and v.good == 1 for v in bad)


def test_verify_walrasian_empty_market():
    inst = Instance((), (), ())
    assert verify_walrasian(inst, (), empty_allocation(0, 0)) == []


def test_certificates_verify_on_random_instances():
    for k in range(150):
        rng = rng_for(73, k)
        inst = random_sized_instance(rng)
        certificate = compute_walrasian_prices(inst)
        assert verify_walrasian(inst, certificate.prices, certificate.allocation) == [], f"seed {k}"


def test_price_plus_surplus_accounting_on_unit_supplies():
    # allocated prices plus agent surpluses add back up to the optimal welfare
    for k in range(120):
        rng = rng_for(79, k)
        inst = random_sized_instance(rng, supply_max=1)
        certificate = compute_walrasian_prices(inst)
        price_side = sum(
            (certificate.prices[j] for j in range(inst.n_goods)
             if certificate.allocation.good_total(j)),
            F(0),
        )
        surplus_side = sum(surpluses(inst, certificate), F(0))
        assert price_side + surplus_side == certificate.welfare, f"seed {k}"


def test_chain_margin_is_half_eps():
    for eps in (F(1, 5), F(1, 2), F(3, 7)):
        report = no_ic_walrasian_chain(eps)
        assert report.verdict
        assert report.conclusion == eps / 2
    report = no_ic_walrasian_chain(F(1, 5))
    assert [s.label for s in report.steps][-2:] == ["rationality-contradiction", "margin"]
    floors = {s.label: s.lhs for s in report.steps}
    assert floors["pivot-floor"] == F(31, 10)
    assert floors["payment-floor"] == F(9, 10)


def test_a_chain_step_whose_relation_fails_raises():
    with pytest.raises(AssertionError, match="^chain step s: 1 <= 0 does not hold$"):
        checked_step("s", F(1), "<=", F(0), "anchor")


@pytest.mark.parametrize("eps", [F(0), F(1), F(-1, 2), F(7, 5)])
def test_chain_rejects_out_of_range_eps(eps):
    with pytest.raises(ValueError):
        no_ic_walrasian_chain(eps)


def test_clarke_payments_are_buyer_optimal_prices_in_unit_markets():
    # Leonard (1983): with unit capacities and unit supplies, each agent's
    # Clarke payment is the buyer-optimal Walrasian price of the good it wins
    agents = 0
    for k in range(1000):
        rng = rng_for(77, k)
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        inst = random_instance(rng, n, m, "homo", (1,), supply_max=1)
        prices = compute_walrasian_prices(inst).prices
        outcome = vcg_outcome(inst, CLARKE)
        for i, row in enumerate(outcome.allocation.units):
            won = [j for j, units in enumerate(row) if units]
            assert outcome.payments[i] == (prices[won[0]] if won else 0), f"seed {k} agent {i}"
        agents += n
    assert agents > 2000


def test_clarke_payments_are_second_prices_with_unbounded_capacities():
    # With every capacity at the total supply no capacity binds, so Clarke
    # VCG is a Vickrey auction per good: each unit won costs the good's
    # second-highest value, which is also its buyer-optimal Walrasian price
    agents = 0
    for k in range(1000):
        rng = rng_for(83, k)
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        supplies = tuple(rng.randint(1, 1000) for _ in range(m))
        values = tuple(
            tuple(random_rational(rng, num_max=6, den_max=2) for _ in range(m)) for _ in range(n)
        )
        inst = Instance((sum(supplies),) * n, supplies, values)
        second = tuple(
            sorted((row[j] for row in values), reverse=True)[1] if n > 1 else F(0)
            for j in range(m)
        )
        outcome = vcg_outcome(inst, CLARKE)
        for i, row in enumerate(outcome.allocation.units):
            paid = sum((u * p for u, p in zip(row, second)), F(0))
            assert outcome.payments[i] == paid, f"seed {k} agent {i}"
        assert compute_walrasian_prices(inst).prices == second, f"seed {k}"
        assert envy_check(inst, outcome) == [], f"seed {k}"
        agents += n
    assert agents > 2000


def assert_clarke_payments_within_bundle_prices(inst):
    # Ausubel-Milgrom (2002): a Walrasian equilibrium is in the core, and no
    # core payoff exceeds the agent's marginal contribution, its Clarke
    # utility; on the same allocation each payment is at most the bundle's price
    prices = compute_walrasian_prices(inst).prices
    outcome = vcg_outcome(inst, CLARKE)
    for i, row in enumerate(outcome.allocation.units):
        price = sum((u * p for u, p in zip(row, prices)), F(0))
        assert outcome.payments[i] <= price, f"{inst} agent {i}"


def test_clarke_payments_are_at_most_walrasian_bundle_prices():
    for k in range(200):
        rng = rng_for(61, k)
        n, m = rng.randint(2, 8), rng.randint(1, 10)
        assert_clarke_payments_within_bundle_prices(
            random_instance(rng, n, m, "hetero", (1, 2, 3), supply_max=3))


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_clarke_payments_are_at_most_walrasian_bundle_prices_under_ties(inst):
    assert_clarke_payments_within_bundle_prices(inst)


def one_unit_fewer(inst, good):
    """``inst`` with one unit of ``good`` removed; its column goes with its last unit."""
    supplies = list(inst.good_supply)
    supplies[good] -= 1
    if supplies[good]:
        return Instance(inst.agent_capacity, tuple(supplies), inst.values)
    return Instance(inst.agent_capacity, tuple(supplies[:good] + supplies[good + 1:]),
                    tuple(row[:good] + row[good + 1:] for row in inst.values))


def test_walrasian_prices_are_at_most_marginal_welfare():
    # Gul and Stacchetti (1999): every Walrasian price of a gross-substitutes
    # market is at most the good's marginal welfare W(q) - W(q - e_j)
    tight = 0
    for k in range(2000):
        inst = random_sized_instance(rng_for(71, k), capacity_mode=("homo", "hetero")[k % 2],
                                     supply_max=3)
        certificate = compute_walrasian_prices(inst)
        for j, price in enumerate(certificate.prices):
            marginal = certificate.welfare - social_optimum(one_unit_fewer(inst, j)).welfare
            assert price <= marginal, f"seed {k}, good {j}"
            tight += price == marginal
    assert tight > 0
