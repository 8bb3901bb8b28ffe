import gc
import sys
import threading
import weakref
from contextlib import contextmanager
from fractions import Fraction
from heapq import heappush
from itertools import zip_longest
from math import prod
from typing import Optional

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import make_golden
from conftest import agent_total, empty_allocation, tie_heavy_instances

from capauct import (
    CLARKE,
    Instance,
    InvalidInstanceError,
    allocation_violations,
    audit,
    brute_force_optimum,
    build_no_envy_certificate,
    compute_walrasian_prices,
    ic_probe,
    load,
    matching,
    optimum_without,
    save,
    social_optimum,
    total_value,
    vcg_outcome,
)
from capauct.core import _derive, clear_denominators, scaled_values
from capauct.generators import random_instance, random_row, random_sized_instance, rng_for
from capauct.matching import (
    STATE_LIMIT,
    MatchingError,
    OptResult,
    _FlowNetwork,
    _reported_markets,
    _social_run,
    bellman_ford,
    node_potentials,
)


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


def test_corrupted_potentials_make_the_node_potentials_raise(example1):
    social_optimum(example1)  # keeps the market's network and potentials
    potentials = example1._run[0].pi
    source, sink = 0, example1.n_agents + example1.n_goods + 1
    # one unit too low at the source gives the source -> sink arc a reduced cost of -1, which
    # the search from the sink reaches over the sink -> source arc
    potentials[source] = potentials[sink] - 1
    with pytest.raises(MatchingError, match="negative reduced cost"):
        node_potentials(example1)


def test_node_potentials_search_the_kept_network_once(searches):
    inst = ladder_market(12, 18)
    net = _social_run(inst)[0]
    kept = (net.cost[:], net.caps[:], net.pi[:])
    searches.update(_dijkstra=0, _search=0)
    node_potentials(inst)
    assert searches == {"_dijkstra": 0, "_search": 1}
    assert (net.cost, net.caps, net.pi) == kept  # read, not copied, and left as it was


def test_node_potentials_anchor_sink_at_zero(example1):
    _, good_pot, _, sink_pot = node_potentials(example1)
    assert sink_pot == 0
    assert len(good_pot) == 2


def test_clarke_allocations_match_golden_record():
    # pins the canonical tie-break: allocation and payments, not only welfare
    assert make_golden.clarke_lines() == make_golden.CLARKE_GOLDEN.read_text().splitlines()


def hand_built_node_potentials(instance, allocation):
    """Reference duals: the residual arcs re-derived rule by rule, own Bellman-Ford."""
    problems = allocation_violations(instance, allocation)
    if problems:
        raise MatchingError("; ".join(problems))
    n, m = instance.n_agents, instance.n_goods
    denom, scaled = scaled_values(instance)
    source, sink = 0, n + m + 1
    arcs = [(source, sink, 0), (sink, source, 0)]
    for i in range(n):
        held = agent_total(allocation, i)
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


def assert_kept_potentials_match_hand_built(inst, agent, row, label):
    """Each optimum ``node_potentials`` prices, against the hand-built residual graph.

    The market itself, every market where one agent has capacity 0, and
    the market where ``agent`` reports ``row``, re-inserted on its pivot's
    network, whose denominator is the probe's, not the market's own.
    """
    markets = [inst] + [without(inst, i) for i in range(inst.n_agents)]
    markets += _reported_markets(inst, agent, [row])
    for k, market in enumerate(markets):
        want = hand_built_node_potentials(market, social_optimum(market).allocation)
        assert node_potentials(market) == want, f"{label}, market {k}: {market}"


@pytest.mark.parametrize("mode", ["homo", "hetero"])
def test_node_potentials_match_hand_built_residual_graph(mode):
    # agent 1 values nothing and agent 0 holds its one unit: good 1 is unsold and unreachable
    markets = [Instance((1, 1), (1, 1), ((5, 3), (0, 0)))]
    markets += [random_sized_instance(rng_for(23 if mode == "homo" else 29, k), capacity_mode=mode)
                for k in range(150)]
    for k, inst in enumerate(markets):
        rng = rng_for(31, k)
        row = random_row(rng, inst.n_goods)
        assert_kept_potentials_match_hand_built(inst, rng.randrange(inst.n_agents), row, f"market {k}")


def without(instance, agent):
    """The market in which ``agent`` has capacity 0, whose optimum is its pivot."""
    capacity = list(instance.agent_capacity)
    capacity[agent] = 0
    return Instance(tuple(capacity), instance.good_supply, instance.values)


def reported_market(instance, agent, row):
    """The one-row case of ``_reported_markets``: ``instance`` with the agent reporting ``row``."""
    [market] = _reported_markets(instance, agent, [row])
    return market


class FromScratchNetwork:
    """Second source of optima: each solved from scratch, the excluded agent's arcs omitted.

    This is the solver the engine used before its tie rule was stated:
    each augmenting path comes from a Bellman-Ford scan over a residual
    arc list rebuilt for every augmentation.  ``reverse`` builds the arcs
    with agents and goods in reverse index order, so under ties the scan
    reaches another optimum.
    """

    def __init__(self, instance, exclude=None, reverse=False):
        n, m = instance.n_agents, instance.n_goods
        self.n, self.m, self.source, self.sink = n, m, 0, n + m + 1
        self.tails, self.heads, self.caps, self.costs = [], [], [], []
        _, scaled = scaled_values(instance)
        agents = [i for i in range(n) if i != exclude]
        goods = list(range(m))
        if reverse:
            agents.reverse()
            goods.reverse()
        for i in agents:
            self.add_arc(self.source, 1 + i, instance.agent_capacity[i], 0)
        for i in agents:
            for j in goods:
                if scaled[i][j] > 0:
                    cap = min(instance.agent_capacity[i], instance.good_supply[j])
                    self.add_arc(1 + i, 1 + n + j, cap, -scaled[i][j])
        for j in goods:
            self.add_arc(1 + n + j, self.sink, instance.good_supply[j], 0)

    def add_arc(self, u, v, cap, cost):
        self.tails += (u, v)
        self.heads += (v, u)
        self.caps += (cap, 0)
        self.costs += (cost, -cost)

    def run(self):
        while True:
            ids = [a for a, cap in enumerate(self.caps) if cap > 0]
            dist = [None] * (self.sink + 1)
            dist[self.source] = 0
            arcs = [(self.tails[a], self.heads[a], self.costs[a]) for a in ids]
            via, cycle = bellman_ford(arcs, dist)
            assert cycle is None
            if dist[self.sink] is None or dist[self.sink] >= 0:
                return
            path, node = [], self.sink
            while node != self.source:
                path.append(ids[via[node]])
                node = self.tails[path[-1]]
            bottleneck = min(self.caps[a] for a in path)
            for a in path:
                self.caps[a] -= bottleneck
                self.caps[a ^ 1] += bottleneck

    def units(self):
        units = [[0] * self.m for _ in range(self.n)]
        for a in range(0, len(self.caps), 2):
            u, v = self.tails[a], self.heads[a]
            if 1 <= u <= self.n and self.n < v < self.sink:
                units[u - 1][v - 1 - self.n] = self.caps[a ^ 1]
        return tuple(map(tuple, units))


def from_scratch(instance, exclude=None, reverse=False):
    net = FromScratchNetwork(instance, exclude, reverse)
    net.run()
    return net.units()


def canonicalized(market, units):
    """The engine's canonicalizer applied to ``units``, an optimum of ``market``.

    It loads them into a fork of the market's network, every arc pair
    with capacity split into its residual capacity and its flow, and
    keeps the market's potentials, which price every optimum alike.
    """
    net = _social_run(market)[0].fork()
    caps = net.caps
    flows = [sum(row) for row in units] + [u for row in units for u in row]  # by arc id
    flows += [sum(row[j] for row in units) for j in range(net.m)]
    for a, flow in zip(range(0, len(caps), 2), flows):
        if caps[a] + caps[a + 1]:
            caps[a], caps[a + 1] = caps[a] + caps[a + 1] - flow, flow
    net.canonicalize()
    return net.allocation().units


def canonical_from_scratch(instance, exclude=None):
    """The canonicalized from-scratch optimum, which both scan orders must agree on."""
    market = instance if exclude is None else without(instance, exclude)
    forward, backward = (canonicalized(market, from_scratch(instance, exclude, reverse))
                         for reverse in (False, True))
    assert forward == backward, f"{instance} without {exclude}: the canonicalizer is not pure"
    return forward


def assert_matches_from_scratch(calls):
    """Run ``calls`` ((instance, agent or None) pairs) and compare each allocation.

    A purity gate: from either scan order's optimum, the canonicalizer
    must reach the engine's allocation.
    """
    for inst, agent in calls:
        got = social_optimum(inst) if agent is None else optimum_without(inst, agent)
        assert got.allocation.units == canonical_from_scratch(inst, agent), (
            f"{inst} without {agent}")
        assert got.excluded_agent == agent
        assert got.welfare == total_value(inst, got.allocation)


def engine_order(instance):
    return [(instance, None)] + [(instance, i) for i in range(instance.n_agents)]


def test_pivots_match_from_scratch_solver_on_acceptance_corpora():
    for base, mode in make_golden.CORPORA:
        for k in range(make_golden.CORPUS_SIZE):
            inst = random_sized_instance(rng_for(base, k), capacity_mode=mode, supply_max=2)
            assert_matches_from_scratch(engine_order(inst))


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances(), tie_heavy_instances())
def test_pivots_match_from_scratch_solver_under_ties(inst, other):
    order = engine_order(inst)
    assert_matches_from_scratch(order)
    assert_matches_from_scratch(order[::-1])
    # an equal but distinct object must not be served the first one's run
    twin = Instance(inst.agent_capacity, inst.good_supply, inst.values)
    assert_matches_from_scratch(engine_order(twin)[::-1])
    pairs = zip_longest(order, engine_order(other))
    assert_matches_from_scratch([call for pair in pairs for call in pair if call is not None])


def enumerable(instance):
    return prod((instance.n_agents + 1) ** q for q in instance.good_supply) <= STATE_LIMIT


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_optima_match_brute_force_lex_max_under_ties(inst):
    assume(enumerable(inst))
    want = brute_force_optimum(inst)
    assert social_optimum(inst).allocation == want.allocation, f"{inst}"
    for i in range(inst.n_agents):
        want = brute_force_optimum(without(inst, i))
        got = optimum_without(inst, i)
        assert (got.allocation, got.welfare) == (want.allocation, want.welfare), (
            f"{inst} without {i}")


def test_brute_force_breaks_ties_by_the_stated_rule():
    # welfare 9 either way: agent 0 (capacity 2) takes both goods, or agent 1
    # (capacity 1) takes good 0; the rule reads agent 1's row first
    inst = Instance((2, 1), (1, 1), ((Fraction(5), Fraction(4)), (Fraction(5), Fraction(3))))
    assert brute_force_optimum(inst).allocation.units == ((0, 1), (1, 0))
    assert social_optimum(inst).allocation.units == ((0, 1), (1, 0))
    # a zero-value unit adds no welfare and is never handed out
    inst = Instance((2,), (1, 1), ((Fraction(1), Fraction(0)),))
    assert brute_force_optimum(inst).allocation.units == ((1, 0),)


def reduced_costs(net):
    """Reduced cost of every residual arc of a solved network, both source <-> sink arcs included."""
    pi = net.pi
    costs = [net.cost[arc] + pi[tail] - pi[head]
             for tail, arcs in enumerate(net.out) for arc, head in arcs if net.caps[arc]]
    return costs + [pi[net.source] - pi[net.sink], pi[net.sink] - pi[net.source]]


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_kept_potentials_are_feasible_after_every_social_run(inst):
    for market in [inst] + [without(inst, i) for i in range(inst.n_agents)]:
        net, _, result = _social_run(market)
        assert min(reduced_costs(net)) >= 0, f"{market}"
        assert net.allocation() == result.allocation


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_canonical_optima_are_fixed_points_of_the_canonicalizer(inst):
    # a unique optimum too: every search of the freeze loop fails and no flow moves
    zero = (Fraction(0),) * inst.n_goods
    markets = [inst] + [without(inst, i) for i in range(inst.n_agents)]
    markets += [reported_market(inst, i, row) for i in range(inst.n_agents)
                for row in (zero, inst.values[(i + 1) % inst.n_agents])]
    for market in markets:
        net = _social_run(market)[0].fork()
        net.canonicalize()
        assert net.caps == _social_run(market)[0].caps, f"{market}"


@pytest.mark.parametrize("inst", [
    Instance((), (1, 2), ()),
    Instance((1, 2), (), ((), ())),
    Instance((1, 2), (1, 1), ((Fraction(0),) * 2,) * 2),
    Instance((0, 0), (1, 2), ((Fraction(3), Fraction(1)), (Fraction(2), Fraction(5)))),
], ids=["no agents", "no goods", "all-zero values", "all-zero capacities"])
def test_degenerate_markets_allocate_nothing(inst):
    empty = empty_allocation(inst.n_agents, inst.n_goods)
    assert social_optimum(inst) == OptResult(empty, Fraction(0))
    assert min(reduced_costs(_social_run(inst)[0])) >= 0
    for i in range(inst.n_agents):
        pivot = optimum_without(inst, i)
        assert (pivot.allocation, pivot.welfare) == (empty, 0)
    outcome = vcg_outcome(inst, CLARKE)
    assert outcome.payments == (0,) * inst.n_agents
    assert brute_force_optimum(inst).allocation == empty
    assert dual_bound(inst, empty) == 0


@settings(max_examples=200, deadline=None)
@given(tie_heavy_instances())
def test_repaired_welfare_matches_brute_force_under_ties(inst):
    assume(enumerable(inst))
    # every welfare is the repair's: no allocation is read before the comparison
    repaired = [optimum_without(inst, i).welfare for i in range(inst.n_agents)]
    for i, welfare in enumerate(repaired):
        assert welfare == brute_force_optimum(without(inst, i)).welfare, f"{inst} without {i}"


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_repaired_potentials_are_feasible(inst):
    # the repricing oracle: after every repair, the market's tree or a search per unit, no
    # residual arc has a negative reduced cost, the source <-> sink pair at its kept capacities
    # included; on solved markets and on re-inserted ones, whose kept potentials differ
    zero = (Fraction(0),) * inst.n_goods
    for market in [inst] + [reported_market(inst, i, zero) for i in range(inst.n_agents)]:
        for i in range(inst.n_agents):
            net = optimum_without(market, i).__dict__["_repaired"]
            assert len(net.caps) == len(_social_run(market)[0].caps), f"{market} without {i}"
            costs = [net.cost[arc] + net.pi[tail] - net.pi[head]
                     for tail, arcs in enumerate(net.out) for arc, head in arcs if net.caps[arc]]
            assert min(costs, default=0) >= 0, f"{market} without {i}"


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_every_pivot_keeps_the_network_of_its_capacity_0_market(inst):
    # one network shape: the repair is a network of its own, over the social run's out and cost,
    # with the agent cut off both ways, optimal potentials, and the capacity-0 market's optimum
    net = _social_run(inst)[0]
    for i in range(inst.n_agents):
        repaired = optimum_without(inst, i).__dict__["_repaired"]
        assert isinstance(repaired, _FlowNetwork), f"{inst} without {i}"
        assert repaired.out is net.out and repaired.cost is net.cost, f"{inst} without {i}"
        closed = [2 * i] + list(repaired.pair_arcs(i))
        assert all(repaired.caps[arc] == repaired.caps[arc ^ 1] == 0 for arc in closed), f"{inst} without {i}"
        pi = repaired.pi
        costs = [repaired.cost[arc] + pi[tail] - pi[head]
                 for tail, arcs in enumerate(repaired.out) for arc, head in arcs if repaired.caps[arc]]
        assert min(costs, default=0) >= 0, f"{inst} without {i}"
        if enumerable(inst):
            canonical = repaired.fork()
            canonical.canonicalize()
            assert canonical.allocation() == brute_force_optimum(without(inst, i)).allocation, (
                f"{inst} without {i}")


def arc_by_arc(instance):
    """``(out, caps, cost)`` of the market's network, built one arc pair at a time in arc id order."""
    n, m = instance.n_agents, instance.n_goods
    sink = n + m + 1
    scaled = scaled_values(instance)[1]
    out, caps, cost = [[] for _ in range(n + m + 2)], [], []

    def add(tail, head, cap, arc_cost):
        out[tail].append((len(caps), head))
        out[head].append((len(caps) + 1, tail))
        caps.extend((cap, 0))
        cost.extend((arc_cost, -arc_cost))

    for i in range(n):
        add(0, 1 + i, instance.agent_capacity[i], 0)
    for i in range(n):
        for j in range(m):
            w = scaled[i][j]
            add(1 + i, 1 + n + j, min(instance.agent_capacity[i], instance.good_supply[j]) if w > 0 else 0, -w)
    for j in range(m):
        add(1 + n + j, sink, instance.good_supply[j], 0)
    add(0, sink, 0, 0)
    return out, caps, cost


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
@example(Instance((), (1, 2), ()))  # no agents
@example(Instance((1, 2), (), ((), ())))  # no goods
@example(Instance((0, 0), (1, 2), ((Fraction(3), Fraction(1)), (Fraction(2), Fraction(5)))))  # all capacities 0
def test_a_network_has_the_arcs_of_one_built_arc_by_arc(inst):
    net = _FlowNetwork(inst)
    # arc ids and the order of each out list fix every search's paths and the canonicalizer's order
    assert (net.out, net.caps, net.cost) == arc_by_arc(inst), f"{inst}"
    assert net.denom == scaled_values(inst)[0] and net.pi == [], f"{inst}"


@pytest.mark.parametrize("solved", [False, True], ids=["fresh", "solved"])
def test_a_fork_shares_shape_and_costs_and_owns_caps_and_potentials(example1, solved):
    net = _social_run(example1)[0] if solved else _FlowNetwork(example1)
    caps, pi = net.caps[:], net.pi[:]
    twin = net.fork()
    assert isinstance(twin, _FlowNetwork) and twin is not net
    assert twin.out is net.out and twin.cost is net.cost
    assert twin.caps == caps and twin.caps is not net.caps
    assert twin.pi == pi and twin.pi is not net.pi
    assert twin.__dict__.keys() == net.__dict__.keys()
    assert all(getattr(twin, k) is v for k, v in net.__dict__.items() if k not in ("caps", "pi"))
    twin.caps[0] += 1
    twin.pi.append(7)
    assert net.caps == caps and net.pi == pi


@pytest.fixture
def searches(monkeypatch):
    """Counts per-unit searches (``_dijkstra``) and heap searches of any kind (``_search``)."""
    calls = {"_dijkstra": 0, "_search": 0}
    for name in calls:
        original = getattr(matching, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(matching, name, counted)
    return calls


def test_unit_capacity_pivots_come_from_the_tree(searches):
    # Leonard's case: an agent that holds its one unit has no spare capacity, so the
    # market's one tree prices its pivot and no agent gets a search of its own
    inst = random_instance(rng_for(17, 0), 4, 5, "homo", (1,))
    assert sum(map(sum, social_optimum(inst).allocation.units)) == 4
    searches.update(_dijkstra=0, _search=0)
    vcg_outcome(inst, CLARKE)
    assert searches == {"_dijkstra": 0, "_search": 1}
    for i in range(inst.n_agents):
        pivot, want = optimum_without(inst, i), brute_force_optimum(without(inst, i))
        assert (pivot.allocation, pivot.welfare) == (want.allocation, want.welfare), f"without {i}"


def test_agent_with_spare_capacity_gets_its_own_searches(searches):
    # agent 0 holds two units and could take a third: its open source arc would shorten
    # the tree's distance to it, so its repair searches without the source arc
    inst = Instance((3, 2), (2, 1), ((Fraction(5), Fraction(1)), (Fraction(2), Fraction(4))))
    net, pivots, _ = _social_run(inst)
    assert (net.caps[0], net.caps[1]) == (1, 2)  # spare capacity, units held
    searches.update(_dijkstra=0, _search=0)
    pivot, want = optimum_without(inst, 0), brute_force_optimum(without(inst, 0))
    assert (pivot.allocation, pivot.welfare) == (want.allocation, want.welfare)
    assert searches["_dijkstra"] == 2 and pivots[-1] is None  # one search per unit, and no tree


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_social_run_searches_at_most_once_per_unit_and_once_more(inst):
    # the run inserts agent i by one search per negative cycle pushed and one that finds none:
    # at most k_i + 1 searches for capacity k_i, at least one if k_i > 0, and none if k_i = 0
    searched = [0] * inst.n_agents
    original = matching._dijkstra

    def counted(out, cost, caps, pi, source, target):
        assert target == 0, "an insertion search ends at the source"
        searched[source - 1] += 1
        return original(out, cost, caps, pi, source, target)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_dijkstra", counted)
        social_optimum(inst)
    for i, (k, calls) in enumerate(zip(inst.agent_capacity, searched)):
        assert (0 < calls <= k + 1) if k else calls == 0, f"{inst}: agent {i} searched {calls} times"


def test_corrupted_potentials_make_the_repair_raise():
    inst = ladder_market(12, 18)
    social_optimum(inst)  # keeps the market's potentials; no pivot has searched them yet
    potentials = inst._run[0].pi
    source, sink = 0, inst.n_agents + inst.n_goods + 1
    # one unit too high at the sink gives the source -> sink arc a reduced cost of -1
    potentials[sink] = potentials[source] + 1
    units = social_optimum(inst).allocation.units
    busy = next(i for i in range(1, inst.n_agents) if any(units[i]))
    with pytest.raises(MatchingError, match="negative reduced cost"):
        optimum_without(inst, busy)


def test_corrupted_potentials_make_the_reinsertion_raise():
    inst = ladder_market(12, 18)
    potentials = optimum_without(inst, 0).__dict__["_repaired"].pi
    source, sink = 0, inst.n_agents + inst.n_goods + 1
    # one unit too low at the sink gives the sink -> source arc a reduced cost of -1,
    # and a row that outbids everyone sends the first search through it
    potentials[sink] = potentials[source] - 1
    with pytest.raises(MatchingError, match="negative reduced cost"):
        reported_market(inst, 0, (Fraction(100),) * inst.n_goods)


@pytest.fixture
def networks_built(monkeypatch):
    """Counts flow networks built from scratch; each is one social run."""
    built = []
    init = _FlowNetwork.__init__

    def counting_init(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(_FlowNetwork, "__init__", counting_init)
    return built


def test_each_market_keeps_its_own_run(networks_built):
    first = random_instance(rng_for(6, 0), 3, 4, supply_max=2)
    second = random_instance(rng_for(6, 1), 3, 4, supply_max=2)
    social_optimum(first)
    social_optimum(second)
    social_optimum(first)
    optimum_without(first, 0)
    assert len(networks_built) == 2


def test_a_misreport_builds_no_network(networks_built):
    inst = random_instance(rng_for(3, 1), 4, 5, "hetero", (1, 2, 3), supply_max=2)
    vcg_outcome(inst, CLARKE)
    before = len(networks_built)
    rng = rng_for(4, 0)
    for agent in range(inst.n_agents):
        rows = [random_row(rng, inst.n_goods) for _ in range(2)]
        ic_probe(inst, CLARKE, agent, rows)
    # each misreport copies its pivot's network, and the truthful market keeps its own
    assert len(networks_built) == before == 1


def test_ic_probe_makes_no_run_per_misreport(runs_made):
    inst = random_instance(rng_for(3, 1), 4, 5, "hetero", (1, 2, 3), supply_max=2)
    rng = rng_for(4, 0)
    for agent in range(inst.n_agents):
        rows = [random_row(rng, inst.n_goods) for _ in range(3)] + [(Fraction(0),) * inst.n_goods]
        ic_probe(inst, CLARKE, agent, rows)
    assert len(runs_made) == 1  # the truthful market's; each misreport re-inserts its agent


@st.composite
def tie_heavy_misreports(draw):
    """A tie-heavy market, one of its agents and two misreported rows for it.

    Rows are zero, or tie-heavy integers and sevenths, which give the
    reported market a denominator the truthful one may lack.
    """
    inst = draw(tie_heavy_instances())
    agent = draw(st.integers(0, inst.n_agents - 1))
    value = st.one_of(st.integers(0, 3).map(Fraction),
                      st.integers(0, 21).map(lambda k: Fraction(k, 7)))
    row = st.one_of(st.just((Fraction(0),) * inst.n_goods), st.tuples(*[value] * inst.n_goods))
    return inst, agent, [draw(row), draw(row)], draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(tie_heavy_misreports())
def test_node_potentials_match_hand_built_residual_graph_under_ties(case):
    inst, agent, rows, _ = case
    assert_kept_potentials_match_hand_built(inst, agent, rows[0], f"agent {agent} reports {rows[0]}")


@settings(max_examples=300, deadline=None)
@given(tie_heavy_misreports())
def test_reinserted_misreports_match_fresh_markets_under_ties(case):
    inst, agent, rows, read_pivot_first = case
    pivot = optimum_without(inst, agent)
    if read_pivot_first:  # canonicalizing a fork leaves the kept network as it was
        pivot.allocation
    kept = kept_networks(inst, pivot)
    for row in rows:
        reported = reported_market(inst, agent, row)
        values = inst.values[:agent] + (row,) + inst.values[agent + 1:]
        fresh = Instance(inst.agent_capacity, inst.good_supply, values)
        assert scaled_values(reported) == scaled_values(fresh), f"{inst}: {row}"
        got = social_optimum(reported)
        assert got == social_optimum(fresh), f"{inst}: agent {agent} reports {row}"
        if enumerable(fresh):
            assert got == brute_force_optimum(fresh), f"{inst}: agent {agent} reports {row}"
        for i in range(inst.n_agents):
            pivot, want = optimum_without(reported, i), optimum_without(fresh, i)
            assert (pivot.allocation, pivot.welfare) == (want.allocation, want.welfare), (
                f"{inst}: agent {agent} reports {row}, without {i}")
    # a re-insertion's fork shares lists with the kept networks, and must change none of them
    assert kept_networks(inst, optimum_without(inst, agent)) == kept, f"{inst}: agent {agent}"


def test_every_market_holds_its_least_cleared_pair_from_the_start():
    # constructed, loaded, derived and re-inserted markets hold clear_denominators(values) as
    # scaled_values; zero rows shrink the denominator, and a second re-insertion copies a network
    # whose denominator is not its market's
    for k in range(120):
        rng = rng_for(91, k)
        inst = random_sized_instance(rng, capacity_mode="hetero")
        agent, other = rng.randrange(inst.n_agents), rng.randrange(inst.n_agents)
        row = (Fraction(0),) * inst.n_goods if k % 3 == 0 else random_row(rng, inst.n_goods)
        loaded = load(save(inst))
        reported = reported_market(loaded, agent, row)
        back = reported_market(reported, other, inst.values[other])
        values = inst.values[:agent] + (row,) + inst.values[agent + 1:]
        restored = values[:other] + (inst.values[other],) + values[other + 1:]
        markets = [(inst, inst.values), (loaded, inst.values), (_derive(loaded, agent, row), values),
                   (reported, values), (back, restored)]
        for market, rows in markets:
            denom, cleared = clear_denominators(rows)
            assert scaled_values(market) == (denom, tuple(map(tuple, cleared))), f"market {k}"
        fresh = Instance(inst.agent_capacity, inst.good_supply, restored)
        assert social_optimum(back) == social_optimum(fresh), f"market {k}"
        for i in range(inst.n_agents):
            assert optimum_without(back, i) == optimum_without(fresh, i), f"market {k}, without {i}"
        assert not any("values" in market.__dict__ for market, _ in markets[1:]), f"market {k}"


@pytest.fixture
def probed(monkeypatch):
    """The markets that ``ic_probe`` re-inserts, in row order."""
    reported = []

    def kept(*args):
        markets = _reported_markets(*args)
        reported.extend(markets)
        return markets

    monkeypatch.setattr(audit, "_reported_markets", kept)
    return reported


def test_a_malformed_row_is_rejected_before_any_reinsertion(monkeypatch, probed):
    # every row is checked before the first re-insertion: a malformed last row raises the
    # constructor's message, no agent is inserted, and the kept networks do not move
    inserted = []
    insert = matching._insert
    monkeypatch.setattr(matching, "_insert", lambda *args: inserted.append(args) or insert(*args))
    for k in range(40):
        rng = rng_for(97, k)
        inst = random_sized_instance(rng)
        agent = rng.randrange(inst.n_agents)
        kept = kept_networks(inst, optimum_without(inst, agent))
        rows = [random_row(rng, inst.n_goods) for _ in range(2)]
        for bad in [(Fraction(1),) * (inst.n_goods + 1), (Fraction(-1, 11),) + rows[0][1:]]:
            values = inst.values[:agent] + (bad,) + inst.values[agent + 1:]
            with pytest.raises(InvalidInstanceError) as constructed:
                Instance(inst.agent_capacity, inst.good_supply, values)
            inserted.clear()
            with pytest.raises(InvalidInstanceError) as raised:
                ic_probe(inst, CLARKE, agent, rows + [bad])
            assert str(raised.value) == str(constructed.value), f"market {k}"
            assert not inserted and not probed, f"market {k}"
        assert kept_networks(inst, optimum_without(inst, agent)) == kept, f"market {k}"


def test_a_probe_leaves_each_reported_pair_to_its_first_read(probed):
    # a Clarke probe reads no reported market's pair; each builds its least pair when first read,
    # though its network's costs sit on the probe's common denominator, which elevenths and
    # thirteenths grow past the market's own
    grown = 0
    for k in range(60):
        rng = rng_for(101, k)
        inst = random_sized_instance(rng)
        agent = rng.randrange(inst.n_agents)
        rows = [tuple(Fraction(rng.randint(0, 40), rng.choice((1, 11, 13))) for _ in range(inst.n_goods))
                for _ in range(3)] + [(Fraction(0),) * inst.n_goods]
        probed.clear()
        assert ic_probe(inst, CLARKE, agent, rows) == [], f"market {k}"
        assert len(probed) == len(rows), f"market {k}"
        assert not any(market.__dict__["_scaled"] for market in probed), f"market {k}"
        for market, row in zip(probed, rows):
            values = inst.values[:agent] + (row,) + inst.values[agent + 1:]
            denom, cleared = clear_denominators(values)
            assert scaled_values(market) == (denom, tuple(map(tuple, cleared))), f"market {k}"
            assert market.values == values, f"market {k}"
            assert _social_run(market)[0].denom % denom == 0, f"market {k}"
            grown += _social_run(market)[0].denom > denom
    assert grown > 100  # of 240 reported markets


def kept_networks(inst, pivot):
    """A deep snapshot of the market's kept network and of the pivot's repaired network."""
    net, repaired = _social_run(inst)[0], pivot.__dict__["_repaired"]
    assert repaired.out is net.out and repaired.cost is net.cost
    return [([list(arcs) for arcs in net.out], net.cost[:], net.caps[:], net.pi[:], net.denom),
            (repaired.caps[:], repaired.pi[:], repaired.denom)]


@contextmanager
def checked_searches():
    """Checks every ``_search`` call against its oracle as it returns; yields the calls made.

    A call is kept as ``(out, cost, caps, pi, source, target, tree)``,
    with ``cost``, ``caps`` and ``pi`` copied.  Checking before the
    caller reads the tree stops a wrong search before wrong potentials
    can send a solver loop round forever.
    """
    calls = []
    original = matching._search

    def checked(out, cost, caps, pi, source, target=None):
        assert len(caps) == sum(map(len, out)), "caps must hold one entry per arc, the pair's too"
        assert len(cost) == len(caps), "cost must hold one entry per arc"
        call = (out, cost[:], caps[:], pi[:], source, target)
        tree = original(out, cost, caps, pi, source, target)
        calls.append(call + (tree,))
        assert_search_matches_bellman_ford(*calls[-1])
        return tree

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_search", checked)
        yield calls


def assert_search_matches_bellman_ford(out, cost, caps, pi, source, target, tree):
    """One search against Bellman-Ford from its source on the live arcs' reduced costs.

    The arcs leaving ``target`` are left out: the search stops there and
    never reads them, and a re-insertion's source arc, which leaves its
    target, may be negative.
    """
    dist, via, order = tree
    live = [(u, v, cost[arc] + pi[u] - pi[v]) for u, arcs in enumerate(out) if u != target
            for arc, v in arcs if caps[arc]]
    want: list[Optional[int]] = [None] * len(pi)
    want[source] = 0
    assert bellman_ford(live, want)[1] is None
    assert order[0] == source and len(set(order)) == len(order), order
    assert [dist[v] for v in order] == [want[v] for v in order]
    assert all(dist[u] <= dist[v] for u, v in zip(order, order[1:])), order
    reached = {v for v, d in enumerate(want) if d is not None}
    last = dist[order[-1]]
    assert {v for v in reached if want[v] < last} <= set(order)
    if target not in order:  # a full tree, or a search that ran out
        assert set(order) == reached
    position = {v: k for k, v in enumerate(order)}
    for v in order[1:]:
        arc, u = via[v]
        assert (arc, v) in out[u] and caps[arc], f"via arc {arc} of {v}"
        assert position[u] < position[v] and dist[u] + cost[arc] + pi[u] - pi[v] == dist[v]


def assert_searches_match_bellman_ford(inst, agent, rows):
    """The searches of a Clarke outcome and of ``ic_probe``'s re-insertions, each against its oracle."""
    with checked_searches() as calls:
        vcg_outcome(inst, CLARKE)
        ic_probe(inst, CLARKE, agent, rows)
    assert calls or not any(inst.agent_capacity)  # an agent of capacity 0 is inserted unsearched


@settings(max_examples=300, deadline=None)
@given(tie_heavy_misreports())
def test_searches_match_bellman_ford_under_ties(case):
    inst, agent, rows, _ = case
    assert_searches_match_bellman_ford(inst, agent, rows)


@pytest.mark.parametrize("seed", range(4))
def test_searches_match_bellman_ford_on_large_markets(seed):
    rng = rng_for(19, seed)
    inst = random_instance(rng, 12, 18, "hetero", (1, 2, 3), supply_max=3)
    rows = [random_row(rng, inst.n_goods), (Fraction(0),) * inst.n_goods]
    assert_searches_match_bellman_ford(inst, seed, rows)


@pytest.mark.parametrize("seed", range(3))
def test_every_kept_network_holds_the_source_sink_pair_open(monkeypatch, probed, seed):
    # caps holds one entry per arc, the source <-> sink pair last: every search sees one per
    # arc, and after the public solves each kept network, re-inserted ones too, holds the pair
    # open both ways at the total supply; a market with no goods holds it closed at 0.  Every
    # network canonicalized for a market, its pivots' and re-insertions' too, shares its out.
    # Each probed row's re-inserted market is recorded, so a probe that bypassed the wrapper
    # would fail here rather than check nothing
    reported, canonicalized = probed, []
    canonicalize = _FlowNetwork.canonicalize

    def recorded(net):
        canonicalized.append(net.out)
        canonicalize(net)

    monkeypatch.setattr(_FlowNetwork, "canonicalize", recorded)
    markets = [Instance((1, 2), (), ((), ())), Instance((0, 0), (1, 2), ((Fraction(3),) * 2,) * 2)]
    markets += [random_sized_instance(rng_for(25 + seed, k)) for k in range(12)]
    for k, inst in enumerate(markets):
        rng = rng_for(26 + seed, k)
        caps = inst.agent_capacity
        with checked_searches() as calls:
            vcg_outcome(inst, CLARKE)
            for hi in range(inst.n_agents):
                for lo in range(inst.n_agents):
                    if hi != lo and caps[hi] >= caps[lo]:
                        build_no_envy_certificate(inst, hi, lo)
            compute_walrasian_prices(inst)
            rows = [random_row(rng, inst.n_goods), (Fraction(0),) * inst.n_goods]
            ic_probe(inst, CLARKE, k % inst.n_agents, rows)
        assert len(reported) == len(rows), f"market {k}"
        assert calls or not any(caps), f"market {k}"  # an agent of capacity 0 is inserted unsearched
        out = _social_run(inst)[0].out
        assert canonicalized and all(arcs is out for arcs in canonicalized), f"market {k}"
        for market in [inst] + reported:
            net, total = _social_run(market)[0], sum(market.good_supply)
            assert net.out is out, f"market {k}"
            assert all(optimum_without(market, i).__dict__["_repaired"].out is out
                       for i in range(market.n_agents)), f"market {k}"
            # every arc id is held exactly once, under its tail, the head of its reverse, whose
            # cost is its cost negated
            held = {arc: (tail, head) for tail, arcs in enumerate(net.out) for arc, head in arcs}
            ids = list(range(len(net.caps)))
            assert sorted(held) == ids and sum(map(len, net.out)) == len(ids), f"market {k}"
            assert all(held[arc ^ 1] == (head, tail) for arc, (tail, head) in held.items()), f"market {k}"
            assert len(net.cost) == len(ids), f"market {k}"
            assert all(net.cost[arc ^ 1] == -net.cost[arc] for arc in ids), f"market {k}"
            assert net.caps[-2:] == [total, total], f"market {k}: {market}"
        reported.clear()
        canonicalized.clear()


def test_corrupted_potential_inside_a_level_raises(monkeypatch):
    # node 1 is at reduced distance 0 from the source, so it settles in the source's level
    # and never goes on the heap, where node 2 waits one unit away; pi[3] one unit too
    # high gives the arc 1 -> 3 a reduced cost of -1, met while the level grows
    out = [[(0, 1), (2, 2)], [(4, 3)], [], []]
    cost, caps, pi = [0, 0, 1, -1, 0, 0], [1, 0, 1, 0, 1, 0], [0, 0, 0, 1]
    pushed = []

    def push(heap, entry):
        pushed.append(entry[1])
        heappush(heap, entry)

    monkeypatch.setattr(matching, "heappush", push)
    with pytest.raises(MatchingError, match="negative reduced cost"):
        matching._search(out, cost, caps, pi, 0)
    assert pushed == [2]


def test_a_dropped_market_is_freed_by_reference_counting():
    gc.disable()
    try:
        inst = random_instance(rng_for(6, 2), 3, 4, supply_max=2)
        vcg_outcome(inst, CLARKE)
        node_potentials(inst)
        ref = weakref.ref(inst)
        del inst
        assert ref() is None
    finally:
        gc.enable()


def test_kept_pivots_do_not_keep_their_market_alive():
    gc.disable()
    try:
        inst = random_instance(rng_for(6, 2), 3, 4, supply_max=2)
        pivots = [optimum_without(inst, i) for i in range(inst.n_agents)]
        read = pivots[0].allocation
        ref = weakref.ref(inst)
        del inst
        assert ref() is None
        assert pivots[0].allocation is read
        assert "_repaired" in pivots[0].__dict__  # kept for re-insertions, and holds no market
        assert pivots[1].allocation.units[1] == (0,) * 4  # an unread pivot still solves
    finally:
        gc.enable()


def test_threads_solving_one_market_agree():
    def market():
        return random_instance(rng_for(6, 3), 8, 12, "hetero", (1, 2, 3), supply_max=2)

    shared = market()
    expected = vcg_outcome(market(), CLARKE)
    outcomes = [None] * 6

    def solve(k):
        outcomes[k] = vcg_outcome(shared, CLARKE)

    threads = [threading.Thread(target=solve, args=(k,), daemon=True) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [expected] * 6


def dual_bound(instance, allocation):
    """Weak-duality upper bound on the welfare of ``instance``.

    ``y_i`` prices agent i's capacity and ``z_j`` good j's supply, both
    read off the allocation's node potentials; the last term prices the
    agent -> good arc capacities ``min(c_i, q_j)``.  Any ``y, z >= 0``
    bound every feasible allocation's welfare from above, so a bound equal
    to a welfare proves that welfare optimal.  The potentials are those of
    the market's kept optimum, which ``allocation`` must be.
    """
    assert allocation == social_optimum(instance).allocation, f"{instance}: not the kept optimum"
    agent_pot, good_pot, source_pot, sink_pot = node_potentials(instance)
    supply = instance.good_supply
    z = [max(Fraction(0), sink_pot - pot) for pot in good_pot]
    bound = sum(q * z_j for q, z_j in zip(supply, z))
    for i, (cap, row) in enumerate(zip(instance.agent_capacity, instance.values)):
        y_i = max(Fraction(0), agent_pot[i] - source_pot)
        bound += cap * y_i
        bound += sum(min(cap, q) * max(Fraction(0), v - y_i - z_j)
                     for v, q, z_j in zip(row, supply, z))
    return bound


def assert_dual_bound_is_met(instance, agents):
    opt = social_optimum(instance)
    assert dual_bound(instance, opt.allocation) == opt.welfare, f"{instance}"
    for i in agents:
        pivot = optimum_without(instance, i)
        welfare = pivot.welfare  # the repair's, read before the allocation is solved
        assert dual_bound(without(instance, i), pivot.allocation) == welfare, (
            f"{instance} without {i}"
        )


#: (n, m) of the seeded ladder; each market is ``ladder_market(n, m)``.
LADDER = ((2, 2), (4, 5), (8, 12), (12, 18), (16, 24), (32, 48))


def ladder_market(n, m):
    return random_instance(rng_for(5, n), n, m, "hetero", (1, 2, 3), supply_max=3)


def test_welfare_meets_the_dual_bound_on_acceptance_corpora():
    for base, mode in make_golden.CORPORA:
        for k in range(make_golden.CORPUS_SIZE):
            inst = random_sized_instance(rng_for(base, k), capacity_mode=mode, supply_max=2)
            assert_dual_bound_is_met(inst, range(inst.n_agents))


@pytest.mark.parametrize("n, m", LADDER)
def test_welfare_meets_the_dual_bound_on_the_ladder(n, m):
    inst = ladder_market(n, m)
    assert_dual_bound_is_met(inst, range(n))


def test_welfare_meets_the_dual_bound_at_64x96():
    inst = ladder_market(64, 96)
    assert_dual_bound_is_met(inst, (0, 31, 63))


@pytest.fixture
def runs_made(monkeypatch):
    """Counts runs from the empty flow: social runs of markets and of their pivots' markets alike."""
    runs = []
    run = _FlowNetwork.run

    def counting_run(self):
        runs.append(None)
        run(self)

    monkeypatch.setattr(_FlowNetwork, "run", counting_run)
    return runs


def test_clarke_outcome_makes_one_run(runs_made):
    vcg_outcome(ladder_market(12, 18), CLARKE)
    assert len(runs_made) == 1  # the pivots' welfare comes from repairs, not runs


@pytest.fixture
def bellman_fords(monkeypatch):
    """Counts :func:`bellman_ford` calls made by the solver."""
    calls = []

    def counting(arcs, dist):
        calls.append(None)
        return bellman_ford(arcs, dist)

    monkeypatch.setattr(matching, "bellman_ford", counting)
    return calls


def test_clarke_outcome_and_its_social_run_make_no_bellman_ford(bellman_fords):
    # every path of the run and of the repairs comes from Dijkstra, and so do the price duals
    inst = ladder_market(12, 18)
    vcg_outcome(inst, CLARKE)
    compute_walrasian_prices(inst)
    assert bellman_fords == []


def test_a_pivot_allocation_is_solved_once_on_first_read(runs_made):
    inst = ladder_market(12, 18)
    for i in range(inst.n_agents):
        pivot = optimum_without(inst, i)
        welfare = pivot.welfare
        before = len(runs_made)
        first = pivot.allocation
        assert pivot.allocation is first
        assert len(runs_made) == before  # read off the repaired network: no run
        assert first.units == canonical_from_scratch(inst, i)
        assert welfare == total_value(inst, first)
        assert optimum_without(inst, i) is pivot  # kept: no second repair either
    # the certificates of one high agent share its pivot's run
    fresh = ladder_market(12, 18)
    social_optimum(fresh)
    hi = max(range(fresh.n_agents), key=fresh.agent_capacity.__getitem__)
    before = len(runs_made)
    for lo in range(fresh.n_agents):
        if lo != hi:
            assert build_no_envy_certificate(fresh, hi, lo).holds
    assert len(runs_made) == before
