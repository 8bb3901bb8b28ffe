import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import agent_total, empty_allocation, tie_heavy_instances

import capauct.flowcert as flowcert
from capauct import (
    Allocation,
    Instance,
    InvalidInstanceError,
    brute_force_optimum,
    build_flow_diff_graph,
    build_no_envy_certificate,
    bundle_value,
    classify_two_agent,
    decompose,
    normalize_excluded,
    optimum_without,
    positive_transfer_chain,
    social_optimum,
    total_value,
)
from capauct.flowcert import FlowCertError, FlowDiffGraph, FlowPiece, chain_profiles
from capauct.generators import random_sized_instance, rng_for

F = Fraction


def two_agent_fixture():
    return Instance((1, 1), (1, 1), ((F(2), F(0)), (F(1), F(2))))


def assert_paths_rebuild_the_difference(inst, full, reduced, excluded, paths, label=""):
    """The paths start at ``excluded`` and add up to ``M - E``'s arcs and welfare gap."""
    graph = build_flow_diff_graph(inst, full.allocation, reduced.allocation, excluded)
    rebuilt: dict = {}
    for piece in paths:
        assert piece.vertices[0] == ("agent", excluded), label
        for arc in zip(piece.vertices, piece.vertices[1:]):
            rebuilt[arc] = rebuilt.get(arc, 0) + piece.flow
    assert rebuilt == dict(graph.arcs), label
    assert sum(p.flow * p.value for p in paths) == full.welfare - reduced.welfare, label


def test_flow_diff_graph_single_arc():
    inst = two_agent_fixture()
    full = social_optimum(inst)
    reduced = optimum_without(inst, 0)
    assert full.allocation.units == ((1, 0), (0, 1))
    assert reduced.allocation.units == ((0, 0), (0, 1))
    graph = build_flow_diff_graph(inst, full.allocation, reduced.allocation, 0)
    assert dict(graph.arcs) == {(("agent", 0), ("good", 0)): 1}
    assert dict(graph.excess) == {("agent", 0): 1, ("good", 0): -1}


def test_flow_diff_graph_empty_when_allocations_agree():
    inst = Instance((1, 2), (1, 1), ((F(0), F(0)), (F(1), F(2))))
    full = social_optimum(inst)
    reduced = optimum_without(inst, 0)
    graph = build_flow_diff_graph(inst, full.allocation, reduced.allocation, 0)
    assert graph.arcs == ()
    assert graph.excess == ()
    assert decompose(graph) == ()


def test_flow_diff_graph_rejects_nonempty_excluded_row(example1):
    full = social_optimum(example1)
    with pytest.raises(FlowCertError):
        build_flow_diff_graph(example1, full.allocation, full.allocation, 0)


def test_flow_diff_graph_rejects_infeasible_allocations(example1):
    full = social_optimum(example1).allocation
    over = Allocation(((1, 1), (1, 1)))  # both unit goods twice, two units for capacity 1
    with pytest.raises(FlowCertError, match="^allocation infeasible: "):
        build_flow_diff_graph(example1, over, empty_allocation(2, 2), 0)
    with pytest.raises(FlowCertError, match="^reduced allocation infeasible: "):
        build_flow_diff_graph(example1, full, over, 0)


@pytest.mark.parametrize("excluded", [-1, 2])
def test_flow_diff_graph_rejects_an_excluded_agent_out_of_range(example1, excluded):
    # -1 would otherwise read agent 1's row and report a broken certificate
    full = social_optimum(example1)
    reduced = optimum_without(example1, 1)
    with pytest.raises(IndexError, match=f"agent index {excluded} out of range"):
        build_flow_diff_graph(example1, full.allocation, reduced.allocation, excluded)
    with pytest.raises(IndexError, match=f"agent index {excluded} out of range"):
        normalize_excluded(example1, full.allocation, reduced.allocation, excluded)
    # a hand-built graph, else decompose reports a path from an unexpected source
    with pytest.raises(IndexError, match=f"agent index {excluded} out of range"):
        FlowDiffGraph(example1, excluded, (((("agent", 0), ("good", 0)), 1),))


@pytest.mark.parametrize("arcs", [
    (((("agent", 0), ("good", 0)), 1), ((("agent", 0), ("good", 0)), 2)),
    (((("agent", 0), ("good", 0)), 0),),
    (((("agent", 0), ("good", 0)), 1), ((("good", 1), ("agent", 1)), -1)),
    (((("agent", 0), ("agent", 1)), 1),),
    (((("good", 0), ("good", 1)), 1),),
    (((("agent", 0), ("good", 7)), 1),),
], ids=["repeated arc", "zero flow", "negative flow", "agent to agent", "good to good",
        "unknown good"])
def test_a_hand_built_graph_needs_distinct_arcs_with_positive_flows(arcs):
    with pytest.raises(FlowCertError, match="arcs must be distinct with positive int flows"):
        FlowDiffGraph(two_agent_fixture(), 0, arcs)


def random_feasible_allocation(rng, inst, empty_row=None):
    """Units drawn pair by pair in a random order, within what capacities and supplies leave."""
    caps, supply = list(inst.agent_capacity), list(inst.good_supply)
    units = [[0] * inst.n_goods for _ in range(inst.n_agents)]
    pairs = [(i, j) for i in range(inst.n_agents) for j in range(inst.n_goods) if i != empty_row]
    rng.shuffle(pairs)
    for i, j in pairs:
        units[i][j] = rng.randint(0, min(caps[i], supply[j]))
        caps[i] -= units[i][j]
        supply[j] -= units[i][j]
    return Allocation(tuple(map(tuple, units)))


def test_graph_and_decomposition_match_the_unit_differences_on_random_allocations():
    # the reference: the arcs are the signed unit differences and each
    # excess is a row or column total's difference; on arbitrary feasible
    # pairs decompose rebuilds the arcs or reports a cycle or a path from
    # another source, and raises nothing else
    outcomes = {"paths": 0, "unexpected cycle": 0, "path from unexpected source": 0}
    for k in range(1200):
        rng = rng_for(109, k)
        inst = random_sized_instance(rng, capacity_mode="hetero", supply_max=3)
        n, m = inst.n_agents, inst.n_goods
        excluded = rng.randrange(n)
        full = random_feasible_allocation(rng, inst)
        reduced = random_feasible_allocation(rng, inst, empty_row=excluded)
        arcs, excess = {}, {}
        for i in range(n):
            for j in range(m):
                diff = full.units[i][j] - reduced.units[i][j]
                if diff > 0:
                    arcs[(("agent", i), ("good", j))] = diff
                elif diff < 0:
                    arcs[(("good", j), ("agent", i))] = -diff
        for i in range(n):
            excess[("agent", i)] = agent_total(full, i) - agent_total(reduced, i)
        for j in range(m):
            excess[("good", j)] = reduced.good_total(j) - full.good_total(j)
        excess = {v: chi for v, chi in excess.items() if chi}
        graph = build_flow_diff_graph(inst, full, reduced, excluded)
        assert dict(graph.arcs) == arcs, f"seed {k}"
        assert dict(graph.excess) == excess, f"seed {k}"
        assert graph.arcs == tuple(sorted(arcs.items())), f"seed {k}"
        assert graph.excess == tuple(sorted(excess.items())), f"seed {k}"
        try:
            paths = decompose(graph)
        except FlowCertError as exc:
            kind = str(exc).split(" (")[0]
            assert kind in outcomes, f"seed {k}: {exc}"
            assert isinstance(exc.structure, FlowPiece), f"seed {k}"
            outcomes[kind] += 1
            continue
        rebuilt: dict = {}
        for piece in paths:
            assert piece.vertices[0] == ("agent", excluded), f"seed {k}"
            for arc in zip(piece.vertices, piece.vertices[1:]):
                rebuilt[arc] = rebuilt.get(arc, 0) + piece.flow
        assert rebuilt == arcs, f"seed {k}"
        gap = total_value(inst, full) - total_value(inst, reduced)
        assert sum(p.flow * p.value for p in paths) == gap, f"seed {k}"
        outcomes["paths"] += 1
    assert all(outcomes.values()), outcomes


def test_excess_bounds_on_heterogeneous_fixture():
    # excesses must fit inside the capacity slack on both allocation sides
    rng = rng_for(107, 0)
    from capauct.generators import random_instance

    inst = random_instance(rng, 3, 3, cap_choices=(2, 1), supply_max=1)
    inst = Instance((2, 1, 1), inst.good_supply, inst.values)
    full = social_optimum(inst)
    reduced = optimum_without(inst, 0)
    graph = build_flow_diff_graph(inst, full.allocation, reduced.allocation, 0)
    excess = dict(graph.excess)
    assert sum(excess.values()) == 0
    for i in range(3):
        chi = excess.get(("agent", i), 0)
        if chi > 0:
            assert agent_total(reduced.allocation, i) + chi == agent_total(full.allocation, i)
            assert agent_total(full.allocation, i) <= inst.agent_capacity[i]
        elif chi < 0:
            assert agent_total(full.allocation, i) - chi == agent_total(reduced.allocation, i)
            assert agent_total(reduced.allocation, i) <= inst.agent_capacity[i]
    for j in range(3):
        chi = excess.get(("good", j), 0)
        if chi > 0:
            assert full.allocation.good_total(j) + chi == reduced.allocation.good_total(j)
            assert reduced.allocation.good_total(j) <= inst.good_supply[j]
        elif chi < 0:
            assert reduced.allocation.good_total(j) - chi == full.allocation.good_total(j)
            assert full.allocation.good_total(j) <= inst.good_supply[j]


def test_decompose_single_path():
    inst = two_agent_fixture()
    graph = build_flow_diff_graph(
        inst, social_optimum(inst).allocation, optimum_without(inst, 0).allocation, 0
    )
    (path,) = decompose(graph)
    assert path.vertices == (("agent", 0), ("good", 0))
    assert path.flow == 1
    assert path.value == F(2)


def test_decomposition_reconstructs_arc_flows_and_welfare_gap():
    for k in range(250):
        rng = rng_for(83, k)
        inst = random_sized_instance(rng)
        excluded = rng.randrange(inst.n_agents)
        full = social_optimum(inst)
        reduced = optimum_without(inst, excluded)
        graph = build_flow_diff_graph(inst, full.allocation, reduced.allocation, excluded)
        paths = decompose(graph)
        assert_paths_rebuild_the_difference(inst, full, reduced, excluded, paths, f"seed {k}")


def test_normalized_decomposition_is_acyclic_with_unique_source():
    for k in range(250):
        rng = rng_for(89, k)
        inst = random_sized_instance(rng)
        excluded = rng.randrange(inst.n_agents)
        full = social_optimum(inst)
        reduced = optimum_without(inst, excluded)
        paths = normalize_excluded(inst, full.allocation, reduced.allocation, excluded)
        graph = build_flow_diff_graph(inst, full.allocation, reduced.allocation, excluded)
        for path in paths:
            assert path.vertices[0] == ("agent", excluded), f"seed {k}"
            source_excess = dict(graph.excess)[path.vertices[0]]
            target_excess = dict(graph.excess)[path.vertices[-1]]
            assert path.flow <= min(source_excess, -target_excess), f"seed {k}"


def test_normalize_keeps_welfare_and_feasibility():
    for k in range(250):
        rng = rng_for(97, k)
        inst = random_sized_instance(rng)
        excluded = rng.randrange(inst.n_agents)
        full = social_optimum(inst)
        reduced = optimum_without(inst, excluded)
        paths = normalize_excluded(inst, full.allocation, reduced.allocation, excluded)
        assert_paths_rebuild_the_difference(inst, full, reduced, excluded, paths, f"seed {k}")
        assert total_value(inst, reduced.allocation) == reduced.welfare, f"seed {k}"


def test_normalize_rejects_a_handmade_zero_value_cycle():
    # two identical agents, two identical goods: swapping the match is a
    # zero-value disagreement cycle that no pair of canonical optima has
    inst = Instance((1, 1, 1), (1, 1, 1),
                    ((F(3), F(0), F(0)),
                     (F(0), F(2), F(2)),
                     (F(0), F(2), F(2))))
    full = social_optimum(inst)
    # hand-build a reduced optimum that swaps agents 1 and 2 on goods 1, 2
    swapped = [list(row) for row in full.allocation.units]
    swapped[0] = [0, 0, 0]
    swapped[1], swapped[2] = list(full.allocation.units[2]), list(full.allocation.units[1])
    swapped[1][0] = swapped[2][0] = 0
    reduced = Allocation(tuple(tuple(r) for r in swapped))
    assert total_value(inst, reduced) == optimum_without(inst, 0).welfare
    assert reduced != optimum_without(inst, 0).allocation
    with pytest.raises(FlowCertError, match="unexpected cycle") as raised:
        normalize_excluded(inst, full.allocation, reduced, 0)
    cycle = (("agent", 1), ("good", 1), ("agent", 2), ("good", 2), ("agent", 1))
    assert raised.value.structure == FlowPiece(cycle, 1, F(0))


def test_normalize_rejects_a_path_from_another_source():
    # dropping agent 1's good from the reduced allocation too leaves it a source
    inst = Instance((1, 1), (1, 1), ((F(2), F(0)), (F(0), F(2))))
    full = social_optimum(inst)
    with pytest.raises(FlowCertError, match=r"path from unexpected source \('agent', 1\)") as raised:
        normalize_excluded(inst, full.allocation, empty_allocation(2, 2), 0)
    path = (("agent", 1), ("good", 1))
    assert raised.value.structure == FlowPiece(path, 1, F(2))


def test_normalize_returns_the_paths_of_a_clean_input():
    inst = two_agent_fixture()
    full = social_optimum(inst)
    reduced = optimum_without(inst, 0)
    paths = normalize_excluded(inst, full.allocation, reduced.allocation, 0)
    assert paths == (FlowPiece((("agent", 0), ("good", 0)), 1, F(2)),)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_canonical_optima_need_no_normalization_under_ties(inst):
    full = social_optimum(inst)
    caps = inst.agent_capacity
    for hi in range(inst.n_agents):
        reduced = optimum_without(inst, hi)
        paths = normalize_excluded(inst, full.allocation, reduced.allocation, hi)
        assert_paths_rebuild_the_difference(inst, full, reduced, hi, paths, f"{inst} without {hi}")
        for lo in range(inst.n_agents):
            if lo != hi and caps[hi] >= caps[lo]:
                assert build_no_envy_certificate(inst, hi, lo).holds, f"{inst} pair {(hi, lo)}"


def test_certificate_on_example1(example1):
    certificate = build_no_envy_certificate(example1, 1, 0)
    assert certificate.holds
    assert certificate.value >= certificate.floor
    assert all(u == 0 for u in certificate.allocation.units[0])
    assert brute_force_optimum(example1).welfare >= certificate.value


def test_certificate_trivial_when_low_agent_wins_nothing():
    inst = Instance((2, 1), (1, 1), ((F(3), F(2)), (F(0), F(0))))
    certificate = build_no_envy_certificate(inst, 0, 1)
    reduced = optimum_without(inst, 0)
    assert certificate.allocation == reduced.allocation
    assert certificate.value == reduced.welfare
    assert certificate.floor == reduced.welfare


def test_certificate_builds_one_difference_graph(monkeypatch):
    def market():
        return Instance((2, 1, 1), (2, 2), ((F(3), F(2)), (F(2), F(1)), (F(1), F(3))))

    inst = market()
    calls = {"normalize_excluded": 0, "build_flow_diff_graph": 0, "decompose": 0}
    for name in calls:
        original = getattr(flowcert, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(flowcert, name, counted)
    build_no_envy_certificate(inst, 0, 1)
    assert calls == {"normalize_excluded": 1, "build_flow_diff_graph": 1, "decompose": 1}
    second = build_no_envy_certificate(inst, 0, 2)  # a second lo of the same hi checks nothing again
    assert calls == {"normalize_excluded": 1, "build_flow_diff_graph": 1, "decompose": 1}
    assert any(social_optimum(inst).allocation.units[2])
    assert second == build_no_envy_certificate(market(), 0, 2)


def test_certificate_rejects_a_path_that_takes_back_too_much(example1):
    # a forged kept path for hi = 1 moves more units of good 0 away from lo = 0 than lo
    # holds, so the takeover row goes negative and the Allocation constructor refuses it
    too_many = sum(example1.good_supply) + 1
    forged = FlowPiece((("agent", 1), ("good", 0), ("agent", 0)), too_many, F(0))
    example1.__dict__["_excluded_paths"] = {1: [forged]}
    with pytest.raises(FlowCertError, match="takeover allocation malformed: negative unit count"):
        build_no_envy_certificate(example1, 1, 0)


def test_certificate_rejects_a_takeover_that_leaves_the_low_agent_goods():
    # with no kept path for hi = 0, lo = 1 keeps the part of its reduced row (2, 1) outside its
    # empty full row
    inst = random_sized_instance(rng_for(211, 0), max_agents=4, max_goods=4)
    assert optimum_without(inst, 0).allocation.units[1] == (2, 1)
    assert social_optimum(inst).allocation.units[1] == (0, 0)
    inst.__dict__["_excluded_paths"] = {0: []}
    with pytest.raises(FlowCertError, match="takeover allocation still assigns goods to the low agent"):
        build_no_envy_certificate(inst, 0, 1)


def test_certificate_rejects_a_takeover_past_a_third_agents_capacity():
    # a forged kept path hands lo = 1's leftover good 2 to agent 2, whose 2 units are used up
    inst = random_sized_instance(rng_for(211, 4), max_agents=4, max_goods=4)
    assert inst.agent_capacity[2] == sum(optimum_without(inst, 0).allocation.units[2]) == 2
    forged = FlowPiece((("agent", 2), ("good", 2), ("agent", 1)), 1, F(0))
    inst.__dict__["_excluded_paths"] = {0: [forged]}
    with pytest.raises(FlowCertError, match="takeover allocation infeasible: agent 2 holds 3 units"):
        build_no_envy_certificate(inst, 0, 1)


def test_certificate_requires_capacity_order(example1):
    with pytest.raises(ValueError):
        build_no_envy_certificate(example1, 0, 1)  # capacity 1 < capacity 2


@pytest.mark.parametrize("hi, lo", [(0, 0), (1, 1), (-1, 0), (1, 2)])
def test_certificate_needs_two_distinct_valid_agents(example1, hi, lo):
    with pytest.raises(ValueError, match="^need two distinct valid agent indices$"):
        build_no_envy_certificate(example1, hi, lo)


def test_certificate_chain_against_oracle():
    # welfare(optimum without lo) >= witness value >= certified floor
    for k in range(200):
        rng = rng_for(101, k)
        inst = random_sized_instance(rng)
        caps = inst.agent_capacity
        for hi in range(inst.n_agents):
            for lo in range(inst.n_agents):
                if hi == lo or caps[hi] < caps[lo]:
                    continue
                certificate = build_no_envy_certificate(inst, hi, lo)
                assert certificate.holds, f"seed {k} pair {(hi, lo)}"
                lo_bundle = social_optimum(inst).allocation.units[lo]
                floor = (optimum_without(inst, hi).welfare + bundle_value(inst, hi, lo_bundle)
                         - bundle_value(inst, lo, lo_bundle))
                assert certificate.floor == floor, f"seed {k} pair {(hi, lo)}"
                without_lo = optimum_without(inst, lo).welfare
                assert without_lo >= certificate.value, f"seed {k} pair {(hi, lo)}"


def test_certificate_middle_value_against_brute_force():
    for k in range(60):
        rng = rng_for(103, k)
        inst = random_sized_instance(rng, max_agents=3, max_goods=4)
        caps = inst.agent_capacity
        for hi in range(inst.n_agents):
            for lo in range(inst.n_agents):
                if hi == lo or caps[hi] < caps[lo]:
                    continue
                certificate = build_no_envy_certificate(inst, hi, lo)
                values = [
                    row if i != lo else tuple(F(0) for _ in row)
                    for i, row in enumerate(inst.values)
                ]
                muted = Instance(caps, inst.good_supply, tuple(values))
                assert brute_force_optimum(muted).welfare >= certificate.value, f"seed {k}"


def test_classify_two_agent_profiles():
    profile_a, profile_b, profile_c = chain_profiles(1, F(1), F(1, 10))
    assert classify_two_agent(profile_a) == "B1"
    assert classify_two_agent(profile_b) == "B1"
    assert classify_two_agent(profile_c) == "A"
    general_a, general_b, general_c = chain_profiles(3, F(2), F(1, 10))
    assert classify_two_agent(general_a) == "B1plus"
    assert classify_two_agent(general_b) == "B1plus"
    assert classify_two_agent(general_c) == "A"


def test_classify_reports_exact_ties():
    tie = Instance((1, 2), (1, 1), ((F(1), F(0)), (F(1), F(0))))
    assert classify_two_agent(tie) == "tie"
    # cap > 1 and a == d: B1 needs a > d strictly, and no other shape holds
    general = Instance((2, 3), (1, 1, 1), ((5, 1, 1), (5, 2, 2)))
    assert classify_two_agent(general) == "tie"


@pytest.mark.parametrize("cap", [1.0, "1", True], ids=["float", "str", "bool"])
def test_chain_profiles_take_an_integer_capacity(cap):
    with pytest.raises(InvalidInstanceError, match=re.escape(f"capacity {cap!r} is not an integer")):
        chain_profiles(cap, F(1), F(1, 10))
    with pytest.raises(InvalidInstanceError, match=re.escape(f"capacity {cap!r} is not an integer")):
        positive_transfer_chain(cap, F(1), F(1, 10))


def test_classify_general_b1_and_b2():
    b1 = Instance((2, 3), (1, 1, 1), ((F(5), F(1), F(1)), (F(2), F(3), F(3))))
    assert classify_two_agent(b1) == "B1"
    b2 = Instance((2, 3), (1, 1, 1), ((F(1), F(5), F(5)), (F(2), F(3), F(3))))
    assert classify_two_agent(b2) == "B2"


def test_classify_warmup_b2():
    # cap 1: b - e = 1 beats a - d = 0, so the second good decides
    assert classify_two_agent(Instance((1, 2), (1, 1), ((1, 2), (1, 1)))) == "B2"


def test_classify_accepts_example1_as_warmup_shape(example1):
    assert classify_two_agent(example1) == "B1"


def test_classify_rejects_shape_violations():
    homo = Instance((2, 2), (1, 1, 1), ((F(1), F(1), F(1)), (F(1), F(1), F(1))))
    with pytest.raises(ValueError):
        classify_two_agent(homo)  # capacities must differ
    ragged = Instance((2, 3), (1, 1, 1), ((F(5), F(1), F(2)), (F(2), F(3), F(3))))
    with pytest.raises(ValueError):
        classify_two_agent(ragged)  # trailing goods must share one value
    short = Instance((2, 3), (1, 1), ((F(5), F(1)), (F(2), F(3))))
    with pytest.raises(ValueError):
        classify_two_agent(short)  # needs capacity + 1 goods


@pytest.mark.parametrize("instance, message", [
    (Instance((1,), (1, 1), ((F(2), F(2)),)), "need at least two agents"),
    (Instance((1, 2, 1), (1, 1), ((F(2), F(2)), (F(1), F(2)), (F(0), F(1)))),
     "agent 2 must be a zero row in this shape"),
    (Instance((0, 2), (1, 1), ((F(2), F(2)), (F(1), F(2)))), "first agent needs positive capacity"),
    (Instance((1, 2), (1, 2), ((F(2), F(2)), (F(1), F(2)))), "shape requires unit supplies"),
    (Instance((1, 2), (1, 1, 1), ((F(2), F(2), F(0)), (F(1), F(2), F(1)))),
     "agent 1 must value goods beyond 2 at zero"),
], ids=["one-agent", "third-row", "zero-capacity", "supply-2", "trailing-value"])
def test_classify_names_each_shape_violation(instance, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        classify_two_agent(instance)


def test_positive_transfer_chain_warmup():
    report = positive_transfer_chain(1, F(1), F(1, 10))
    assert all(step.holds for step in report.steps)
    assert report.conclusion == F(9, 10)
    labels = [s.label for s in report.steps]
    assert labels == ["cc1", "cc2", "cc3", "npt1", "conclusion"]


def test_positive_transfer_chain_general():
    report = positive_transfer_chain(3, F(2), F(1, 10))
    assert report.conclusion == F(17, 10)
    labels = [s.label for s in report.steps]
    assert labels == ["cc1g", "cc11g", "ccc", "npt1", "conclusion"]


def test_positive_transfer_bound_grows_linearly_in_x():
    eps = F(1, 10)
    bounds = [positive_transfer_chain(2, x, eps).conclusion for x in (F(1), F(2), F(3))]
    assert bounds[1] - bounds[0] == F(1)
    assert bounds[2] - bounds[1] == F(1)


@pytest.mark.parametrize("cap,x,eps", [(1, F(0), F(1, 10)), (1, F(-1), F(1, 10)),
                                       (1, F(1), F(0)), (0, F(1), F(1, 10))])
def test_positive_transfer_chain_rejects_bad_parameters(cap, x, eps):
    with pytest.raises(ValueError):
        positive_transfer_chain(cap, x, eps)
