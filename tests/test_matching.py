from fractions import Fraction
from typing import Optional

import pytest

import make_golden

from capauct import (
    Allocation,
    Instance,
    InvalidInstanceError,
    allocation_violations,
    brute_force_optimum,
    optimum_without,
    social_optimum,
    total_value,
)
from capauct.core import scaled_values
from capauct.generators import random_sized_instance, rng_for
from capauct.matching import MatchingError, node_potentials


def test_example1_optimum_is_canonical(example1):
    opt = social_optimum(example1)
    assert opt.allocation.units == ((1, 0), (0, 1))
    assert opt.welfare == 4
    assert opt.excluded_agent is None


def test_all_zero_values_allocate_nothing():
    inst = Instance((1, 2), (1, 1), ((Fraction(0),) * 2, (Fraction(0),) * 2))
    opt = social_optimum(inst)
    assert opt.allocation.units == ((0, 0), (0, 0))
    assert opt.welfare == 0


def test_optimum_without_each_agent(example1):
    without_first = optimum_without(example1, 0)
    assert without_first.allocation.units == ((0, 0), (1, 1))
    assert without_first.welfare == 3
    assert without_first.excluded_agent == 0
    without_second = optimum_without(example1, 1)
    assert without_second.welfare == 2
    assert without_second.allocation.units[1] == (0, 0)
    with pytest.raises(IndexError):
        optimum_without(example1, 2)


def test_single_agent_excluded_leaves_empty_market():
    inst = Instance((2,), (1, 1), ((Fraction(3), Fraction(1)),))
    assert optimum_without(inst, 0).welfare == 0


def test_brute_force_on_known_instances(example1):
    assert brute_force_optimum(example1).welfare == 4
    profile_b = Instance(
        (1, 2),
        (1, 1),
        ((Fraction(13, 10), Fraction(11, 10)), (Fraction(11, 10), Fraction(1))),
    )
    result = brute_force_optimum(profile_b)
    assert result.welfare == Fraction(23, 10)
    assert result.allocation.units == ((1, 0), (0, 1))
    empty = Instance((1,), (), ((),))
    assert brute_force_optimum(empty).welfare == 0


def test_brute_force_refuses_oversized_search():
    inst = Instance(
        (30,) * 9,
        (3,) * 9,
        tuple((Fraction(1),) * 9 for _ in range(9)),
    )
    with pytest.raises(InvalidInstanceError):
        brute_force_optimum(inst)


def test_multi_unit_supplies_are_respected():
    hog = Instance((2, 2), (2,), ((Fraction(5),), (Fraction(4),)))
    opt = social_optimum(hog)
    assert opt.allocation.units == ((2,), (0,))
    assert opt.welfare == 10
    capped = Instance((1, 1), (2,), ((Fraction(5),), (Fraction(4),)))
    opt = social_optimum(capped)
    assert opt.allocation.units == ((1,), (1,))
    assert opt.welfare == 9


@pytest.mark.parametrize("mode", ["homo", "hetero"])
def test_solver_matches_brute_force_oracle(mode):
    for k in range(300):
        rng = rng_for(11 if mode == "homo" else 13, k)
        inst = random_sized_instance(rng, capacity_mode=mode)
        fast = social_optimum(inst)
        slow = brute_force_optimum(inst)
        assert fast.welfare == slow.welfare, f"seed {k}: {inst}"
        assert total_value(inst, fast.allocation) == fast.welfare


def test_excluding_an_agent_never_helps():
    for k in range(120):
        rng = rng_for(17, k)
        inst = random_sized_instance(rng)
        best = social_optimum(inst).welfare
        for i in range(inst.n_agents):
            assert optimum_without(inst, i).welfare <= best


def test_allocations_are_integral():
    for k in range(60):
        rng = rng_for(19, k)
        inst = random_sized_instance(rng)
        opt = social_optimum(inst)
        for row in opt.allocation.units:
            assert all(isinstance(u, int) for u in row)


def test_node_potentials_reject_non_optimal_allocation(example1):
    # giving both goods to agent 1 is feasible but suboptimal
    worse = Allocation(((0, 0), (1, 1)))
    with pytest.raises(MatchingError):
        node_potentials(example1, worse)


def test_node_potentials_anchor_sink_at_zero(example1):
    opt = social_optimum(example1)
    _, good_pot, _, sink_pot = node_potentials(example1, opt.allocation)
    assert sink_pot == 0
    assert len(good_pot) == 2


def test_clarke_allocations_match_golden_record():
    # pins the canonical tie-break: allocation and payments, not only welfare
    assert make_golden.clarke_lines() == make_golden.CLARKE_GOLDEN.read_text().splitlines()


def hand_built_node_potentials(instance, allocation, exclude=None):
    """Reference duals: the residual arcs re-derived rule by rule, own Bellman-Ford."""
    problems = allocation_violations(instance, allocation)
    if problems:
        raise MatchingError("; ".join(problems))
    n, m = instance.n_agents, instance.n_goods
    denom, scaled = scaled_values(instance)
    source, sink = 0, n + m + 1
    arcs = [(source, sink, 0), (sink, source, 0)]
    for i in range(n):
        if i == exclude:
            continue
        held = allocation.agent_total(i)
        if held < instance.agent_capacity[i]:
            arcs.append((source, 1 + i, 0))
        if held > 0:
            arcs.append((1 + i, source, 0))
        for j in range(m):
            w = scaled[i][j]
            if w <= 0:
                continue
            flow = allocation.units[i][j]
            if flow < min(instance.agent_capacity[i], instance.good_supply[j]):
                arcs.append((1 + i, 1 + n + j, -w))
            if flow > 0:
                arcs.append((1 + n + j, 1 + i, w))
    for j in range(m):
        used = allocation.good_total(j)
        if used < instance.good_supply[j]:
            arcs.append((1 + n + j, sink, 0))
        if used > 0:
            arcs.append((sink, 1 + n + j, 0))
    size = n + m + 2
    dist: list[Optional[int]] = [None] * size
    dist[sink] = 0
    for round_no in range(size + 1):
        changed = False
        for u, v, cost in arcs:
            if dist[u] is None:
                continue
            cand = dist[u] + cost
            if dist[v] is None or cand < dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            break
        if round_no == size:
            raise MatchingError("negative residual cycle: allocation is not optimal")

    def as_rat(d):
        return Fraction(0) if d is None else Fraction(d, denom)

    return (
        tuple(as_rat(dist[1 + i]) for i in range(n)),
        tuple(as_rat(dist[1 + n + j]) for j in range(m)),
        as_rat(dist[source]),
        as_rat(dist[sink]),
    )


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except MatchingError as exc:
        return ("MatchingError", str(exc))


def allocation_variants(instance, allocation):
    """The allocation, one unit short of it, and one zero-value unit beyond it."""
    units = [list(row) for row in allocation.units]
    yield allocation
    held = [(i, j) for i, row in enumerate(units) for j, u in enumerate(row) if u]
    if held:
        i, j = held[0]
        units[i][j] -= 1
        yield Allocation(tuple(map(tuple, units)))
        units[i][j] += 1
    for i in range(instance.n_agents):
        for j in range(instance.n_goods):
            if (instance.values[i][j] == 0
                    and allocation.agent_total(i) < instance.agent_capacity[i]
                    and allocation.good_total(j) < instance.good_supply[j]):
                units[i][j] += 1
                yield Allocation(tuple(map(tuple, units)))
                return


@pytest.mark.parametrize("mode", ["homo", "hetero"])
def test_node_potentials_match_hand_built_residual_graph(mode):
    raised = 0
    for k in range(150):
        inst = random_sized_instance(rng_for(23 if mode == "homo" else 29, k), capacity_mode=mode)
        cases = [(social_optimum(inst).allocation, None)]
        cases += [(optimum_without(inst, i).allocation, i) for i in range(inst.n_agents)]
        for allocation, exclude in cases:
            for variant in allocation_variants(inst, allocation):
                got = outcome_of(node_potentials, inst, variant, exclude)
                assert got == outcome_of(hand_built_node_potentials, inst, variant, exclude), (
                    f"seed {k} exclude {exclude} allocation {variant.units}"
                )
                raised += got[0] == "MatchingError"
    assert raised > 150  # the one-unit-short variants must reach the cycle check
