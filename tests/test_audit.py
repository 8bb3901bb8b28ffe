import json
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import tie_heavy_instances

from capauct import (
    Allocation,
    CLARKE,
    Instance,
    InvalidInstanceError,
    MechanismOutcome,
    PivotRule,
    TWO_AGENT_TOPC,
    build_no_envy_certificate,
    bundle_value,
    compute_walrasian_prices,
    demand_set,
    ef_payment_feasible,
    envy_check,
    gross_substitutes_check,
    ic_probe,
    ir_check,
    npt_check,
    optimum_without,
    social_optimum,
    to_json,
    two_agent_topc,
    vcg_outcome,
    verify_walrasian,
)
from capauct.audit import (BOUND_ANCHOR, AuditError, EnvyPair, GSCounterexample, IRViolation,
                           envy_pairs_from_values, gross_substitutes_check_set)
from capauct.cli import COMPLEMENTS_2X2, COMPLEMENTS_PRICES
from capauct.flowcert import chain_profiles
from capauct.generators import (
    random_capacitated_valuation,
    random_instance,
    random_price_pair,
    random_rational,
    random_row,
    random_sized_instance,
    rng_for,
)
from capauct.mechanisms import RULES, vcg_payment

F = Fraction


def test_envy_check_on_example1(example1):
    outcome = vcg_outcome(example1, CLARKE)
    pairs = envy_check(example1, outcome)
    assert pairs == [(0, 1, F(1))]
    assert ir_check(example1, outcome) == []
    assert npt_check(outcome) == []


def test_ir_check_reports_an_overcharged_agent(example1):
    # agent 0 holds a good it values at 2 and is charged 3: utility -1
    outcome = vcg_outcome(example1, CLARKE)
    overcharged = MechanismOutcome(outcome.allocation, (F(3), F(0)), outcome.pivot_rule_id,
                                   outcome.pivot_values)
    assert ir_check(example1, overcharged) == [IRViolation(0, F(1))]


def test_envy_check_tight_comparison_is_not_envy():
    _, profile_b, _ = chain_profiles(1, F(1), F(1, 10))
    outcome = two_agent_topc(profile_b)
    assert outcome.payments == (F(1, 10), F(0))
    assert envy_check(profile_b, outcome) == []


def test_npt_flags_negative_payment():
    _, _, profile_c = chain_profiles(1, F(1), F(1, 10))
    outcome = two_agent_topc(profile_c)
    violations = npt_check(outcome)
    assert violations == [(0, F(-1))]
    assert ir_check(profile_c, outcome) == []


def test_all_zero_instance_audits_clean():
    inst = Instance((1, 1), (1, 1), ((F(0), F(0)), (F(0), F(0))))
    outcome = vcg_outcome(inst, CLARKE)
    assert envy_check(inst, outcome) == []
    assert ir_check(inst, outcome) == []
    assert npt_check(outcome) == []


def test_pivot_gap_criterion_agrees_with_envy_check():
    # a VCG outcome leaves (i, j) envy-free exactly when the pivot gap
    # h_i - h_j stays below agent j's edge on her own bundle
    from capauct import bundle_value

    for k in range(200):
        rng = rng_for(47, k)
        inst = random_sized_instance(rng)
        outcome = vcg_outcome(inst, CLARKE)
        pairs = {(p.envier, p.envied) for p in envy_check(inst, outcome)}
        for i in range(inst.n_agents):
            for j in range(inst.n_agents):
                if i == j:
                    continue
                bundle_j = outcome.allocation.units[j]
                gap = outcome.pivot_values[i] - outcome.pivot_values[j]
                edge = bundle_value(inst, j, bundle_j) - bundle_value(inst, i, bundle_j)
                assert ((i, j) not in pairs) == (gap <= edge), f"seed {k} pair {(i, j)}"


def per_unit_worth(instance, agent, row):
    """The agent's capacity-many best units of a bundle, each unit valued on its own."""
    units = sorted((instance.values[agent][j] for j, u in enumerate(row) for _ in range(u)),
                   reverse=True)
    return sum(units[: instance.agent_capacity[agent]], F(0))


def per_unit_envy_pairs(instance, outcome):
    """Reference envy pairs: per-unit bundle values and plain Fraction differences."""
    units, pay = outcome.allocation.units, outcome.payments
    pairs = []
    for i in range(instance.n_agents):
        own = per_unit_worth(instance, i, units[i]) - pay[i]
        for j in range(instance.n_agents):
            margin = per_unit_worth(instance, i, units[j]) - pay[j] - own
            if j != i and margin > 0:
                pairs.append((i, j, margin))
    return pairs


def odd_pivot(instance, agent):
    # reads only the others' rows, on denominators the market does not have
    others = sum(sum(row) for k, row in enumerate(instance.values) if k != agent)
    return others * F(5, 7) + F(1, 3 + 2 * agent)


@pytest.mark.parametrize("rule", [CLARKE, PivotRule("odd", odd_pivot), TWO_AGENT_TOPC],
                         ids=["clarke", "odd denominators", "topc"])
def test_envy_check_matches_per_unit_arithmetic(rule):
    found = 0
    for k in range(150):
        rng = rng_for(61, k)
        if rule is TWO_AGENT_TOPC:
            inst = random_instance(rng, 2, rng.randint(1, 5), cap_choices=(1, 2, 3))
        else:
            inst = random_sized_instance(rng, capacity_mode="hetero")
        outcome = vcg_outcome(inst, rule)
        pairs = envy_check(inst, outcome)
        assert pairs == per_unit_envy_pairs(inst, outcome), f"seed {k}"
        assert all(type(p.margin) is F for p in pairs)
        cross = [[per_unit_worth(inst, i, row) for row in outcome.allocation.units]
                 for i in range(inst.n_agents)]
        assert envy_pairs_from_values(cross, outcome.payments) == pairs
        found += len(pairs)
    # topc is envy-free; the other rules envy somewhere, so margins are compared too
    assert (found == 0) == (rule is TWO_AGENT_TOPC)


def test_ic_probe_finds_nothing_for_clarke():
    for k in range(25):
        rng = rng_for(53, k)
        inst = random_sized_instance(rng, max_agents=3, max_goods=4)
        for agent in range(inst.n_agents):
            deviations = [random_row(rng, inst.n_goods) for _ in range(8)]
            assert ic_probe(inst, CLARKE, agent, deviations) == []


def test_ic_probe_finds_nothing_for_topc():
    from capauct import TWO_AGENT_TOPC
    from capauct.generators import random_instance

    for k in range(25):
        rng = rng_for(59, k)
        inst = random_instance(rng, 2, rng.randint(1, 4), cap_choices=(1, 2, 3))
        for agent in range(2):
            deviations = [random_row(rng, inst.n_goods) for _ in range(8)]
            assert ic_probe(inst, TWO_AGENT_TOPC, agent, deviations) == []


def test_ic_probe_catches_a_self_reading_rule():
    # a pivot that reads the agent's own first value invites understatement
    broken = PivotRule("broken", lambda inst, i: inst.values[i][0])
    inst = Instance((1,), (1,), ((F(10),),))
    deviations = [(F(k, 10),) for k in range(0, 100)]
    witnesses = ic_probe(inst, broken, 0, deviations)
    assert witnesses
    assert max(w.gain for w in witnesses) > 0


def fresh_utility(inst, rule, agent, row):
    """The agent's true utility when it reports ``row``, read off a freshly solved market."""
    values = inst.values[:agent] + (tuple(row),) + inst.values[agent + 1:]
    fresh = Instance(inst.agent_capacity, inst.good_supply, values)
    opt = social_optimum(fresh)
    payment = vcg_payment(fresh, opt, agent, rule.pivot(fresh, agent))
    return bundle_value(inst, agent, opt.allocation.units[agent]) - payment


def test_ic_probe_gains_match_fresh_markets():
    # a pivot that reads the agent's own row rewards understating it, so witnesses occur
    rule = PivotRule("self-reading", lambda inst, i: optimum_without(inst, i).welfare
                     + sum(inst.values[i]) / 2)
    witnessed = 0
    for k in range(300):
        rng = rng_for(83, k)
        inst = random_sized_instance(rng)
        agent = rng.randrange(inst.n_agents)
        # generated markets have denominators up to 10, so elevenths and thirteenths grow the lcm:
        # rows shaded from the true one, random rows and the zero row
        deviations = [tuple(v * F(rng.randint(0, 13), rng.choice((11, 13))) for v in inst.values[agent])
                      for _ in range(2)]
        deviations += [tuple(F(rng.randint(0, 1100), rng.choice((1, 11, 13)))
                             for _ in range(inst.n_goods)) for _ in range(2)]
        deviations.append((F(0),) * inst.n_goods)
        truthful = fresh_utility(inst, rule, agent, inst.values[agent])
        gains = [(row, fresh_utility(inst, rule, agent, row) - truthful) for row in deviations]
        want = [(row, gain) for row, gain in gains if gain > 0]
        got = [(w.deviation, w.gain) for w in ic_probe(inst, rule, agent, deviations)]
        assert got == want, f"market {k}, agent {agent}"
        witnessed += len(want)
    assert witnessed > 500  # of 1,500 misreports


def test_ic_probe_rejects_malformed_deviation(example1):
    # the row is checked once, by the reported market, as the constructor checks it
    for row in [(F(1),), (F(-1), F(0))]:  # wrong length, negative value
        with pytest.raises(InvalidInstanceError) as constructed:
            Instance(example1.agent_capacity, example1.good_supply, (row, example1.values[1]))
        with pytest.raises(InvalidInstanceError) as probed:
            ic_probe(example1, CLARKE, 0, [row])
        assert str(probed.value) == str(constructed.value)
    with pytest.raises(InvalidInstanceError):
        ic_probe(example1, CLARKE, 0, [(0.1, 2.5)])  # binary floats are not exact inputs
    with pytest.raises(InvalidInstanceError):
        ic_probe(example1, CLARKE, 0, [(True, F(0))])


@pytest.mark.parametrize("rule_id", sorted(RULES))
@pytest.mark.parametrize("agent", [-1, 2])
def test_pivots_and_ic_probe_reject_an_agent_out_of_range(example1, rule_id, agent):
    # each pivot raises as optimum_without does, and the failed probe leaves the market's run intact
    rule = RULES[rule_id]
    fresh = Instance(example1.agent_capacity, example1.good_supply, example1.values)
    with pytest.raises(IndexError, match=f"^agent index {agent} out of range$"):
        rule.pivot(example1, agent)
    with pytest.raises(IndexError, match=f"^agent index {agent} out of range$"):
        ic_probe(example1, rule, agent, [(F(1), F(1))])
    assert vcg_outcome(example1, CLARKE) == vcg_outcome(fresh, CLARKE)


@pytest.mark.parametrize("agent", [-1, 2])
def test_ic_probe_checks_the_agent_before_a_rule_that_reads_no_row(example1, agent):
    fresh = Instance(example1.agent_capacity, example1.good_supply, example1.values)
    constant = PivotRule("constant", lambda inst, i: F(0))
    with pytest.raises(IndexError, match=f"^agent index {agent} out of range$"):
        ic_probe(example1, constant, agent, [(F(1), F(1))])
    assert vcg_outcome(example1, CLARKE) == vcg_outcome(fresh, CLARKE)


def test_ic_probe_reads_a_generator_row_as_its_tuple():
    rule = PivotRule("self-reading", lambda inst, i: optimum_without(inst, i).welfare
                     + sum(inst.values[i]) / 2)
    witnessed = 0
    for k in range(60):
        rng = rng_for(89, k)
        inst = random_sized_instance(rng)
        agent = rng.randrange(inst.n_agents)
        rows = [tuple(v * F(rng.randint(0, 13), 11) for v in inst.values[agent]) for _ in range(3)]
        want = ic_probe(inst, rule, agent, rows)
        assert ic_probe(inst, rule, agent, [(v for v in row) for row in rows]) == want, f"market {k}"
        witnessed += len(want)
    assert witnessed


def test_demand_set_enumerates_optimal_bundles():
    values = (F(4), F(3), F(2))
    level = demand_set(values, 2, (F(1), F(1), F(1)))
    assert level.optimal_bundles == frozenset({frozenset({0, 1})})
    assert level.utility == 5
    skewed = demand_set(values, 2, (F(1), F(5), F(1)))
    assert skewed.optimal_bundles == frozenset({frozenset({0, 2})})
    assert skewed.utility == 4


def test_demand_set_empty_when_prices_dominate():
    values = (F(1), F(2))
    result = demand_set(values, 2, (F(5), F(5)))
    assert result.optimal_bundles == frozenset({frozenset()})
    assert result.utility == 0


def test_demand_records_serialize_their_sets_as_sorted_lists():
    # a set is written as the sorted list of its serialized elements, so json.dumps takes it
    level = demand_set([1, 2], 1, [0, 0])
    assert json.dumps(to_json(level)) == (
        '{"prices": [{"num": 0, "den": 1}, {"num": 0, "den": 1}], '
        '"optimal_bundles": [[0, 1], [1]], "utility": {"num": 2, "den": 1}}')
    witness = gross_substitutes_check_set(COMPLEMENTS_2X2, 2, [COMPLEMENTS_PRICES])
    assert json.dumps(to_json(witness)) == (
        '{"prices_low": [{"num": 1, "den": 2}, {"num": 1, "den": 2}], '
        '"prices_high": [{"num": 1, "den": 2}, {"num": 1, "den": 1}], '
        '"bundle_low": [0, 1], "kept_goods": [0]}')


def test_demand_set_utility_matches_bundle_arithmetic():
    for k in range(80):
        rng = rng_for(61, k)
        values, capacity = random_capacitated_valuation(rng, rng.randint(1, 5))
        prices = random_row(rng, len(values))
        result = demand_set(values, capacity, prices)
        for bundle in result.optimal_bundles:
            worth = sum(sorted((values[j] for j in bundle), reverse=True)[:capacity], F(0))
            assert worth - sum((prices[j] for j in bundle), F(0)) == result.utility


def test_demand_set_rejects_many_goods():
    with pytest.raises(AuditError):
        demand_set((F(1),) * 16, 2, (F(0),) * 16)
    with pytest.raises(AuditError, match="16 goods exceed"):
        gross_substitutes_check((F(1),) * 16, 2, [])  # checked even with no price pair


def test_demand_checks_reject_prices_of_another_length():
    with pytest.raises(AuditError, match="^price vector length mismatch$"):
        demand_set((F(1), F(2)), 1, (F(1),))
    with pytest.raises(AuditError, match="^price vector length mismatch$"):
        gross_substitutes_check((F(1), F(2)), 1, [((F(0), F(0)), (F(1),))])
    with pytest.raises(AuditError, match="^16 goods exceed the enumeration bound 15$"):
        gross_substitutes_check_set({frozenset(): F(0)}, 16, [])


@pytest.mark.parametrize("values, capacity", [
    ((0.5, F(1)), 1),  # binary floats are not exact
    ((True, F(1)), 1),
    ((-1, F(1)), 1),
    ((F(1), F(1)), 1.5),
    ((F(1), F(1)), True),
    ((F(1), F(1)), -1),
])
def test_demand_checks_reject_inexact_or_negative_inputs(values, capacity):
    with pytest.raises(InvalidInstanceError):
        demand_set(values, capacity, (F(0), F(0)))
    with pytest.raises(InvalidInstanceError):
        gross_substitutes_check(values, capacity, [((F(0), F(0)), (F(1), F(0)))])


@pytest.mark.parametrize("cross, payments", [
    (((F(1), 0.5), (F(0), F(1))), (F(0), F(0))),  # binary floats are not exact
    (((F(1), True), (F(0), F(1))), (F(0), F(0))),
    (((F(1), F(0)), (F(0), F(1))), (0.5, F(0))),
    (((F(1), F(0)), (F(0), F(1))), (F(0), False)),
], ids=["float value", "bool value", "float payment", "bool payment"])
def test_envy_pairs_from_values_rejects_inexact_entries(cross, payments):
    with pytest.raises(InvalidInstanceError, match="expected an integer or Fraction"):
        envy_pairs_from_values(cross, payments)


@pytest.mark.parametrize("cross, payments", [
    (((F(1), F(0)), (F(0),)), (F(0), F(0))),
    (((F(1), F(0)),), (F(0), F(0))),
    (((F(1),), (F(0),)), (F(0), F(0))),
    (((F(1), F(0)), (F(0), F(1))), (F(0),)),
], ids=["ragged", "one row", "one column", "one payment"])
def test_envy_pairs_from_values_needs_an_n_by_n_matrix(cross, payments):
    n = len(payments)
    with pytest.raises(InvalidInstanceError, match=f"cross values are not {n} x {n} for {n} payments"):
        envy_pairs_from_values(cross, payments)


def test_gross_substitutes_worked_example():
    values = (F(4), F(3), F(2))
    assert gross_substitutes_check(values, 2, [((F(1),) * 3, (F(1), F(5), F(1)))]) is None
    same = ((F(1),) * 3, (F(1),) * 3)
    assert gross_substitutes_check(values, 2, [same]) is None


@pytest.mark.parametrize("n_goods", [-1, 2.0, True, "1"], ids=["negative", "float", "bool", "str"])
def test_gross_substitutes_check_set_takes_a_goods_count(n_goods):
    # a valuation of one good, which a bool True must not pass for
    valuation = {frozenset(): F(0), frozenset({0}): F(1)}
    with pytest.raises(InvalidInstanceError, match=f"goods count {n_goods!r} is not a non-negative integer"):
        gross_substitutes_check_set(valuation, n_goods, [((F(0),), (F(1),))])


def test_gross_substitutes_rejects_non_dominating_pair():
    with pytest.raises(AuditError):
        gross_substitutes_check((F(1),), 1, [((F(2),), (F(1),))])
    with pytest.raises(AuditError, match="valuation missing bundle"):
        gross_substitutes_check_set({frozenset(): F(0)}, 1, [])  # checked even with no price pair


def test_gross_substitutes_holds_on_random_capacitated_valuations():
    for k in range(250):
        rng = rng_for(67, k)
        values, capacity = random_capacitated_valuation(rng, rng.randint(1, 6))
        pairs = [random_price_pair(rng, len(values)) for _ in range(5)]
        assert gross_substitutes_check(values, capacity, pairs) is None, f"seed {k}"


def test_gross_substitutes_checker_has_teeth():
    # complements: worthless singletons, valuable pair; raising only the
    # second good's price must drop the first from every optimal bundle
    complements = {
        frozenset(): F(0),
        frozenset({0}): F(0),
        frozenset({1}): F(0),
        frozenset({0, 1}): F(1),
    }
    pair = ((F(1, 2), F(1, 2)), (F(1, 2), F(1)))
    counterexample = gross_substitutes_check_set(complements, 2, [pair])
    assert counterexample is not None
    assert counterexample.bundle_low == frozenset({0, 1})
    assert counterexample.kept_goods == frozenset({0})


def bundles_in_mask_order(n_goods):
    return [frozenset(j for j in range(n_goods) if mask >> j & 1) for mask in range(1 << n_goods)]


def capacitated_worth(values, capacity):
    """A bundle's worth by definition: its best subset of at most ``capacity`` goods."""
    return lambda bundle: max(sum((values[j] for j in subset), F(0))
                              for k in range(min(capacity, len(bundle)) + 1)
                              for subset in combinations(bundle, k))


def reference_demand(worth, n_goods, prices):
    """Every optimal bundle, in ascending bitmask order, and the best utility, all in Fractions."""
    utility = {b: worth(b) - sum((prices[j] for j in b), F(0)) for b in bundles_in_mask_order(n_goods)}
    best = max(utility.values())
    return [b for b, u in utility.items() if u == best], best


def reference_gs_counterexample(worth, n_goods, price_pairs):
    """The first (pair, bundle optimal at the low prices) whose unmoved goods no optimum keeps."""
    for low, high in price_pairs:
        same = frozenset(j for j in range(n_goods) if low[j] == high[j])
        optimal_high, _ = reference_demand(worth, n_goods, high)
        for bundle in reference_demand(worth, n_goods, low)[0]:
            if not any(bundle & same <= b for b in optimal_high):
                return GSCounterexample(tuple(low), tuple(high), bundle, bundle & same)
    return None


def grid_price(rng):
    return F(rng.randint(-2, 8), 2)  # halves from -1 to 4: negative prices and ties


def grid_price_pair(rng, n_goods):
    low = tuple(grid_price(rng) for _ in range(n_goods))
    return low, tuple(p if rng.random() < 0.5 else p + F(rng.randint(1, 4), 2) for p in low)


def test_demand_set_matches_every_bundle_reference():
    for k in range(300):
        rng = rng_for(71, k)
        n = rng.randint(0, 6)
        if k % 2:
            values, capacity = random_capacitated_valuation(rng, n)
            prices = tuple(random_rational(rng, num_max=30) - 5 for _ in range(n))
        else:  # tie-heavy
            values, capacity = tuple(F(rng.randint(0, 3)) for _ in range(n)), rng.randint(0, n + 1)
            prices = tuple(grid_price(rng) for _ in range(n))
        bundles, utility = reference_demand(capacitated_worth(values, capacity), n, prices)
        result = demand_set(values, capacity, prices)
        assert result.optimal_bundles == frozenset(bundles), f"seed {k}"
        assert result.utility == utility, f"seed {k}"


def test_gross_substitutes_checks_match_every_bundle_reference():
    failures = 0
    for k in range(300):
        rng = rng_for(73, k)
        n = rng.randint(0, 4)
        if k % 3:  # arbitrary set valuations on a small grid: some are complements
            valuation = {b: F(rng.randint(0, 4), rng.choice((1, 2))) for b in bundles_in_mask_order(n)}
            worth = valuation.__getitem__
        else:
            values, capacity = tuple(F(rng.randint(0, 3)) for _ in range(n)), rng.randint(0, n)
            worth = capacitated_worth(values, capacity)
            valuation = {b: worth(b) for b in bundles_in_mask_order(n)}
        pairs = [grid_price_pair(rng, n) for _ in range(4)]
        want = reference_gs_counterexample(worth, n, pairs)
        assert gross_substitutes_check_set(valuation, n, pairs) == want, f"seed {k}"
        if not k % 3:  # capacitated valuations are gross substitutes
            assert want is None and gross_substitutes_check(values, capacity, pairs) is None, f"seed {k}"
        failures += want is not None
    assert failures


def test_ef_payments_exist_for_example1_allocation(example1):
    outcome = vcg_outcome(example1, CLARKE)
    result = ef_payment_feasible(example1, outcome.allocation)
    assert result.feasible
    payments = result.payments
    from capauct import bundle_value

    for i in range(2):
        for j in range(2):
            if i != j:
                own = bundle_value(example1, i, outcome.allocation.units[i]) - payments[i]
                other = bundle_value(example1, i, outcome.allocation.units[j]) - payments[j]
                assert own >= other


def test_ef_payments_with_bounds_on_zero_values():
    inst = Instance((1, 1), (1, 1), ((F(0), F(0)), (F(0), F(0))))
    allocation = Allocation(((1, 0), (0, 1)))
    result = ef_payment_feasible(inst, allocation, require_ir=True, require_npt=True)
    assert result.feasible
    assert result.payments == (F(0), F(0))


def test_cyclic_envy_has_no_ef_payments():
    # each agent prefers the next agent's good by 5 while the reverse
    # directions are slack, so the only negative cycle has all three agents
    inst = Instance(
        (1, 1, 1),
        (1, 1, 1),
        (
            (F(5), F(10), F(0)),
            (F(0), F(5), F(10)),
            (F(10), F(0), F(5)),
        ),
    )
    allocation = Allocation(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    result = ef_payment_feasible(inst, allocation)
    assert not result.feasible
    cycle = result.negative_cycle
    assert cycle is not None and set(cycle) == {0, 1, 2} and len(cycle) == 3
    assert result.cycle_weight == F(-15)


def test_mutual_envy_is_infeasible_regardless_of_bounds():
    # the empty-handed agent envies by more than the winner could ever
    # concede, a two-agent stalemate
    inst = Instance((1, 1), (1,), ((F(10),), (F(5),)))
    allocation = Allocation(((0,), (1,)))
    result = ef_payment_feasible(inst, allocation)
    assert not result.feasible
    assert result.negative_cycle in ((0, 1), (1, 0))
    assert result.cycle_weight == F(-5)


def test_bounded_ef_payments_respect_their_bounds():
    # for non-negative valuations the IR/NPT bounds never destroy
    # feasibility (an anchor cycle dominates the matching pure cycle),
    # so bounded solves must succeed whenever unbounded ones do
    from capauct import bundle_value, social_optimum

    for k in range(80):
        rng = rng_for(71, k)
        inst = random_sized_instance(rng)
        allocation = social_optimum(inst).allocation
        unbounded = ef_payment_feasible(inst, allocation)
        bounded = ef_payment_feasible(inst, allocation, require_ir=True, require_npt=True)
        assert unbounded.feasible == bounded.feasible
        if bounded.feasible:
            for i, p in enumerate(bounded.payments):
                assert 0 <= p <= bundle_value(inst, i, allocation.units[i]), f"seed {k}"


def assert_ef_payments_pass_the_checks(inst):
    """EF, IR and NPT payments exist on a social optimum, and the property checks pass them.

    Capacitated valuations are gross substitutes, so Walrasian prices
    exist (Kelso-Crawford; Gul-Stacchetti), and each bundle's price is
    such a payment.
    """
    allocation = social_optimum(inst).allocation
    result = ef_payment_feasible(inst, allocation, require_ir=True, require_npt=True)
    assert result.feasible, f"{inst}: {result.negative_cycle}"
    outcome = MechanismOutcome(allocation, result.payments, "ef-payments", ())  # no pivot rule
    assert envy_check(inst, outcome) == [], f"{inst}"
    assert ir_check(inst, outcome) == [], f"{inst}"
    assert npt_check(outcome) == [], f"{inst}"


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_ef_payments_exist_on_social_optima_under_ties(inst):
    assert_ef_payments_pass_the_checks(inst)


def test_ef_payments_exist_on_social_optima():
    for k in range(200):
        assert_ef_payments_pass_the_checks(random_sized_instance(rng_for(89, k)))
    for k in range(40):
        rng = rng_for(97, k)
        assert_ef_payments_pass_the_checks(random_instance(rng, 8, 10, "hetero", (1, 2, 3), 3))


def random_feasible_allocation(rng, inst):
    """Each unit of each good goes to a random agent with room left, or stays unsold."""
    units = [[0] * inst.n_goods for _ in range(inst.n_agents)]
    room = list(inst.agent_capacity)
    for j, supply in enumerate(inst.good_supply):
        for _ in range(supply):
            i = rng.randrange(inst.n_agents + 1)
            if i < inst.n_agents and room[i]:
                units[i][j] += 1
                room[i] -= 1
    return Allocation(tuple(map(tuple, units)))


def ef_reference(inst, allocation, require_npt):
    """The EF, IR and NPT constraint system solved by Bellman-Ford on Fractions.

    Every bound is an arc, IR arcs ``anchor -> i`` of weight v_i(B_i)
    included, all weights read from ``bundle_value``; rounds scan the arcs
    in list order and move a distance only on strict improvement.
    """
    n, rows = inst.n_agents, allocation.units
    own = [bundle_value(inst, i, rows[i]) for i in range(n)]
    arcs = [(j, i, own[i] - bundle_value(inst, i, rows[j]))
            for i in range(n) for j in range(n) if i != j]
    arcs += [(n, i, own[i]) for i in range(n)]
    if require_npt:
        arcs += [(i, n, F(0)) for i in range(n)]
    dist, via = [F(0)] * (n + 1), [None] * (n + 1)
    for _ in range(n + 2):
        last = None
        for k, (tail, head, cost) in enumerate(arcs):
            if dist[tail] + cost < dist[head]:
                dist[head], via[head], last = dist[tail] + cost, k, head
        if last is None:
            return True, tuple(d - dist[n] for d in dist[:n]), None, None
    for _ in range(n + 1):
        last = arcs[via[last]][0]
    cycle, weight, node = [], F(0), last
    while not cycle or node != last:
        tail, head, cost = arcs[via[node]]
        cycle.append(BOUND_ANCHOR if head == n else head)
        weight, node = weight + cost, tail
    return False, None, tuple(reversed(cycle)), weight


def test_ir_bounds_never_bind_on_ef_payments():
    # see ef_payment_feasible: no IR arc ever improves a distance, so the
    # solve without them equals the full system's, and its payments are IR
    for k in range(1000):
        rng = rng_for(59, k)
        inst = random_sized_instance(rng)
        allocation = random_feasible_allocation(rng, inst)
        for require_npt in (False, True):
            result = ef_payment_feasible(inst, allocation, require_ir=True,
                                         require_npt=require_npt)
            verdict = result.feasible, result.payments, result.negative_cycle, result.cycle_weight
            assert verdict == ef_reference(inst, allocation, require_npt), \
                f"seed {k}, require_npt={require_npt}"
            if result.feasible:
                outcome = MechanismOutcome(allocation, result.payments, "ef-payments", ())
                assert ir_check(inst, outcome) == [], f"seed {k}"


def test_ef_infeasibility_carries_a_real_negative_cycle():
    # every arc of the witness re-summed from bundle_value: j -> i costs
    # v_i(B_i) - v_i(B_j), anchor -> i costs v_i(B_i), i -> anchor costs 0
    infeasible = 0
    for k in range(300):
        rng = rng_for(53, k)
        inst = random_sized_instance(rng)
        allocation = random_feasible_allocation(rng, inst)
        bounds = {"require_ir": rng.random() < 0.5, "require_npt": rng.random() < 0.5}
        result = ef_payment_feasible(inst, allocation, **bounds)
        if result.feasible:
            continue
        infeasible += 1
        cycle = result.negative_cycle

        def own(i):
            return bundle_value(inst, i, allocation.units[i])

        weight = F(0)
        for u, v in zip(cycle[-1:] + cycle[:-1], cycle):
            if u == BOUND_ANCHOR:
                weight += own(v)
            elif v != BOUND_ANCHOR:
                weight += own(v) - bundle_value(inst, v, allocation.units[u])
        assert weight == result.cycle_weight < 0, f"seed {k}"
    assert infeasible > 100


@pytest.mark.parametrize("check, rows, n_payments, message", [
    (envy_check, 1, 2, "allocation has 1 rows, expected 2"),
    (envy_check, 3, 2, "allocation has 3 rows, expected 2"),
    (envy_check, 2, 1, "payment vector has 1 entries, expected 2"),
    (ir_check, 1, 2, "allocation has 1 rows, expected 2"),
    (ir_check, 3, 2, "allocation has 3 rows, expected 2"),
    (ir_check, 2, 1, "payment vector has 1 entries, expected 2"),
    (ef_payment_feasible, 1, None, "allocation has 1 rows, expected 2"),
    (ef_payment_feasible, 3, None, "allocation has 3 rows, expected 2"),
])
def test_audit_checks_reject_misshapen_outcomes(example1, check, rows, n_payments, message):
    allocation = Allocation(((1, 0), (0, 1), (0, 0))[:rows])
    with pytest.raises(InvalidInstanceError, match=message):
        if n_payments is None:
            check(example1, allocation)
        else:
            check(example1, MechanismOutcome(allocation, (F(0),) * n_payments, "clarke", ()))


@pytest.mark.parametrize("payment", [0.5, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("check", [envy_check, ir_check, lambda inst, outcome: npt_check(outcome)],
                         ids=["envy", "ir", "npt"])
def test_audit_checks_read_exact_payments(example1, check, payment):
    outcome = vcg_outcome(example1, CLARKE)
    inexact = MechanismOutcome(outcome.allocation, (payment, F(0)), "clarke", outcome.pivot_values)
    with pytest.raises(InvalidInstanceError,
                       match=f"expected an integer or Fraction, got {type(payment).__name__}"):
        check(example1, inexact)


def test_audit_cost_does_not_grow_with_unit_counts():
    # two goods of a million units each: bundles are rows of unit counts,
    # so nothing on the audit path expands them unit by unit
    q = 10**6
    inst = Instance((q, 2 * q), (q, q), ((F(3), F(2)), (F(2), F(3))))
    start = time.process_time()
    outcome = vcg_outcome(inst, CLARKE)
    envy = envy_check(inst, outcome)
    ir = ir_check(inst, outcome)
    ef = ef_payment_feasible(inst, outcome.allocation)
    equilibrium = compute_walrasian_prices(inst)
    certificate = build_no_envy_certificate(inst, 1, 0)
    witnesses = ic_probe(inst, CLARKE, 0, [(F(1), F(5))])
    elapsed = time.process_time() - start
    assert outcome.allocation.units == ((q, 0), (0, q))
    assert outcome.payments == (2 * q, 0)
    # only the smaller-capacity agent envies: it pays 2q for a bundle worth 3q
    # to it, and the other's free bundle is worth 2q to it
    assert envy == [EnvyPair(0, 1, F(q))]
    assert ir == []
    assert ef.feasible
    assert equilibrium.prices == (F(2), F(1))
    assert verify_walrasian(inst, equilibrium.prices, equilibrium.allocation) == []
    assert certificate.holds and certificate.value == certificate.floor == 2 * q
    assert witnesses == []
    assert elapsed < 0.5, f"audit took {elapsed:.3f} s of process time"
