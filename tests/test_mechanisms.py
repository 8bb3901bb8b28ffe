from fractions import Fraction

import pytest

from conftest import capacitated_as_2x2

from capauct import (
    CLARKE,
    SUBADDITIVE_2X2,
    TWO_AGENT_TOPC,
    Instance,
    Subadditive2x2Valuation,
    clarke_pivot,
    envy_check,
    ir_check,
    npt_check,
    subadditive_2x2,
    two_agent_topc,
    vcg_outcome,
)
from capauct.flowcert import chain_profiles
from capauct.generators import (
    random_instance,
    random_row,
    random_sized_instance,
    random_subadditive_2x2,
    rng_for,
)
from capauct.mechanisms import MechanismShapeError


def test_clarke_on_example1(example1):
    outcome = vcg_outcome(example1, CLARKE)
    assert outcome.payments == (Fraction(1), Fraction(0))
    assert outcome.pivot_values == (Fraction(3), Fraction(2))
    assert clarke_pivot(example1, 0) == 3
    assert clarke_pivot(example1, 1) == 2


def test_clarke_single_agent_pays_nothing():
    inst = Instance((1,), (1,), ((Fraction(7),),))
    outcome = vcg_outcome(inst, CLARKE)
    assert outcome.payments == (Fraction(0),)


def test_clarke_empty_market_pivot_is_zero():
    inst = Instance((1, 1), (1,), ((Fraction(0),), (Fraction(0),)))
    assert clarke_pivot(inst, 0) == 0
    assert vcg_outcome(inst, CLARKE).payments == (Fraction(0), Fraction(0))


def test_clarke_on_close_rival_profile():
    _, profile_b, _ = chain_profiles(1, Fraction(1), Fraction(1, 10))
    outcome = vcg_outcome(profile_b, CLARKE)
    assert outcome.payments == (Fraction(11, 10), Fraction(0))
    pairs = envy_check(profile_b, outcome)
    assert [(p.envier, p.envied) for p in pairs] == [(0, 1)]
    assert pairs[0].margin == Fraction(9, 10)


def test_topc_on_example1(example1):
    outcome = two_agent_topc(example1)
    assert outcome.payments == (Fraction(0), Fraction(0))
    assert outcome.pivot_values == (Fraction(2), Fraction(2))
    assert envy_check(example1, outcome) == []


def test_topc_pays_the_small_agent_when_it_is_worthless():
    _, _, profile_c = chain_profiles(1, Fraction(1), Fraction(1, 10))
    outcome = two_agent_topc(profile_c)
    assert outcome.payments[0] == Fraction(-1)
    assert npt_check(outcome) != []
    assert ir_check(profile_c, outcome) == []


def test_topc_all_zero_values():
    inst = Instance((1, 2), (1, 1), ((Fraction(0),) * 2, (Fraction(0),) * 2))
    assert two_agent_topc(inst).payments == (Fraction(0), Fraction(0))


def test_topc_shape_requirements():
    three = Instance((1, 1, 1), (1,), ((Fraction(1),),) * 3)
    with pytest.raises(MechanismShapeError):
        two_agent_topc(three)
    multi = Instance((1, 1), (2,), ((Fraction(1),), (Fraction(1),)))
    with pytest.raises(MechanismShapeError):
        two_agent_topc(multi)


def test_topc_uses_smaller_capacity_regardless_of_order():
    # same market with the agents swapped must give mirrored payments
    inst = Instance((1, 2), (1, 1, 1), ((Fraction(5), Fraction(1), Fraction(2)),
                                        (Fraction(4), Fraction(3), Fraction(1))))
    swapped = Instance((2, 1), (1, 1, 1), (inst.values[1], inst.values[0]))
    out = two_agent_topc(inst)
    out_swapped = two_agent_topc(swapped)
    assert out.payments == tuple(reversed(out_swapped.payments))
    assert out.pivot_values == tuple(reversed(out_swapped.pivot_values))


def test_subadditive_2x2_canonical_split():
    first = Subadditive2x2Valuation(Fraction(3), Fraction(3), Fraction(4))
    second = Subadditive2x2Valuation(Fraction(2), Fraction(2), Fraction(4))
    outcome = subadditive_2x2(first, second)
    assert outcome.allocation.units == ((1, 0), (0, 1))
    assert outcome.payments == (Fraction(0), Fraction(0))
    assert outcome.pivot_values == (Fraction(2), Fraction(3))


def test_subadditive_2x2_matches_capacitated_view(example1):
    outcome = subadditive_2x2(capacitated_as_2x2(example1, 0), capacitated_as_2x2(example1, 1))
    assert outcome.payments == (Fraction(0), Fraction(0))
    assert outcome.pivot_values == (Fraction(2), Fraction(2))
    via_rule = vcg_outcome(example1, SUBADDITIVE_2X2)
    assert via_rule.payments == outcome.payments
    assert via_rule.allocation == outcome.allocation


def test_subadditive_2x2_all_zero():
    zero = Subadditive2x2Valuation(Fraction(0), Fraction(0), Fraction(0))
    assert subadditive_2x2(zero, zero).payments == (Fraction(0), Fraction(0))


def test_subadditive_rule_needs_two_goods():
    three = Instance((1, 1), (1, 1, 1), ((Fraction(1),) * 3,) * 2)
    with pytest.raises(MechanismShapeError, match="^rule requires exactly two goods$"):
        vcg_outcome(three, SUBADDITIVE_2X2)


def test_subadditive_valuation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Subadditive2x2Valuation(Fraction(1), Fraction(1), Fraction(3))  # superadditive
    with pytest.raises(ValueError):
        Subadditive2x2Valuation(Fraction(2), Fraction(1), Fraction(1))  # not monotone
    with pytest.raises(ValueError):
        Subadditive2x2Valuation(Fraction(-1), Fraction(1), Fraction(1))
    with pytest.raises(IndexError, match=r"^unknown bundle \{2\}$"):
        Subadditive2x2Valuation(Fraction(1), Fraction(1), Fraction(1)).of(frozenset((2,)))


@pytest.mark.parametrize(
    "rule,make",
    [
        (CLARKE, lambda rng: random_sized_instance(rng)),
        (TWO_AGENT_TOPC, lambda rng: random_instance(rng, 2, 4, cap_choices=(1, 2, 3, 4))),
        (SUBADDITIVE_2X2, lambda rng: random_instance(rng, 2, 2, cap_choices=(1, 2))),
    ],
)
def test_pivot_never_reads_own_row(rule, make):
    for k in range(60):
        rng = rng_for(23, k)
        inst = make(rng)
        for agent in range(inst.n_agents):
            h = rule.pivot(inst, agent)
            values = list(inst.values)
            values[agent] = random_row(rng, inst.n_goods)
            perturbed = Instance(inst.agent_capacity, inst.good_supply, tuple(values))
            assert rule.pivot(perturbed, agent) == h


def test_clarke_is_rational_and_never_pays(example1):
    for k in range(150):
        rng = rng_for(29, k)
        inst = random_sized_instance(rng)
        outcome = vcg_outcome(inst, CLARKE)
        assert npt_check(outcome) == []
        assert ir_check(inst, outcome) == []


def test_homogeneous_clarke_is_envy_free():
    for k in range(150):
        rng = rng_for(31, k)
        inst = random_sized_instance(rng, capacity_mode="homo")
        outcome = vcg_outcome(inst, CLARKE)
        assert envy_check(inst, outcome) == []


def test_heterogeneous_clarke_never_upsets_larger_capacity():
    for k in range(150):
        rng = rng_for(37, k)
        inst = random_sized_instance(rng, capacity_mode="hetero")
        outcome = vcg_outcome(inst, CLARKE)
        for pair in envy_check(inst, outcome):
            assert inst.agent_capacity[pair.envier] < inst.agent_capacity[pair.envied]


def test_topc_envy_free_and_rational_even_with_odd_good_counts():
    # good counts deliberately straddle the capacity sum
    for k in range(200):
        rng = rng_for(41, k)
        n_goods = rng.randint(1, 6)
        inst = random_instance(rng, 2, n_goods, cap_choices=(1, 2, 3, 4, 5))
        outcome = two_agent_topc(inst)
        assert envy_check(inst, outcome) == []
        assert ir_check(inst, outcome) == []


def test_subadditive_2x2_envy_free_and_rational():
    for k in range(300):
        rng = rng_for(43, k)
        first = random_subadditive_2x2(rng)
        second = random_subadditive_2x2(rng)
        outcome = subadditive_2x2(first, second)
        bundles = [
            frozenset(j for j in (0, 1) if outcome.allocation.units[i][j]) for i in (0, 1)
        ]
        values = (first, second)
        for i in (0, 1):
            own = values[i].of(bundles[i]) - outcome.payments[i]
            assert own >= 0, f"seed {k}"
            other = 1 - i
            assert values[i].of(bundles[other]) - outcome.payments[other] <= own, f"seed {k}"
