import copy
import itertools
import json
import pickle
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_allocation

from capauct import (
    CLARKE,
    RULES,
    SUBADDITIVE_2X2,
    Allocation,
    FlowDiffGraph,
    Instance,
    InvalidInstanceError,
    Subadditive2x2Valuation,
    build_flow_diff_graph,
    build_no_envy_certificate,
    bundle_value,
    classify_two_agent,
    compute_walrasian_prices,
    ef_payment_feasible,
    envy_check,
    ic_probe,
    ir_check,
    load,
    no_ic_walrasian_chain,
    npt_check,
    optimum_without,
    positive_transfer_chain,
    save,
    total_value,
    validate,
    vcg_outcome,
)
from capauct.audit import gross_substitutes_check_set
from capauct.core import _derive, clear_denominators, scaled_values
from capauct.flowcert import chain_profiles
from capauct.generators import random_instance, random_row, random_sized_instance, rng_for

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(a=rationals, b=rationals)
def test_rational_arithmetic_round_trips_exactly(a, b):
    assert (a + b) - b == a
    assert (a * b) / b == a if b != 0 else True


def small_instance(capacity, values):
    return Instance((capacity,), (1,) * len(values), (tuple(Fraction(v) for v in values),))


def test_bundle_value_takes_best_units_up_to_capacity():
    inst = small_instance(2, (4, 3, 2))
    assert bundle_value(inst, 0, (1, 1, 1)) == 7  # best two of {4,3,2}
    assert bundle_value(inst, 0, (0, 0, 0)) == 0
    two_goods = Instance((2,), (1, 1), ((Fraction(1), Fraction(2)),))
    assert bundle_value(two_goods, 0, (1, 1)) == 3


def test_bundle_value_rejects_bad_indices_and_oversized_bundles():
    inst = small_instance(2, (4, 3, 2))
    with pytest.raises(IndexError):
        bundle_value(inst, 1, (1, 0, 0))
    with pytest.raises(InvalidInstanceError):
        bundle_value(inst, 0, (0, 0, 0, 0, 0, 1))  # a row for six goods
    with pytest.raises(InvalidInstanceError):
        bundle_value(inst, 0, (2, 0, 0))  # supply of good 0 is 1


#: Each public call that takes an agent index, on a two-agent, two-good market.
AGENT_INDEX_CALLS = {
    "optimum_without": lambda market, i: optimum_without(market, i),
    "bundle_value": lambda market, i: bundle_value(market, i, (1, 0)),
    "ic_probe": lambda market, i: ic_probe(market, CLARKE, i, []),
    "certificate hi": lambda market, i: build_no_envy_certificate(market, i, 0),
    "certificate lo": lambda market, i: build_no_envy_certificate(market, 1, i),
    "build_flow_diff_graph": lambda market, i: build_flow_diff_graph(
        market, empty_allocation(2, 2), empty_allocation(2, 2), i),
    "FlowDiffGraph": lambda market, i: FlowDiffGraph(market, i, ()),
    "topc pivot": lambda market, i: RULES["topc"].pivot(market, i),
    "sub2x2 pivot": lambda market, i: RULES["sub2x2"].pivot(market, i),
}


@pytest.mark.parametrize("index", [True, False, 1.0, "1"], ids=["True", "False", "float", "str"])
@pytest.mark.parametrize("call", AGENT_INDEX_CALLS.values(), ids=list(AGENT_INDEX_CALLS))
def test_agent_indices_must_be_ints(example1, call, index):
    # True and 1.0 equal agent 1, whose row each call would otherwise read
    with pytest.raises(InvalidInstanceError, match=re.escape(f"agent index {index!r} is not an integer")):
        call(example1, index)


def all_bundles(n_goods):
    """Every set of goods, as an allocation row."""
    for r in range(n_goods + 1):
        for goods in itertools.combinations(range(n_goods), r):
            yield tuple(int(j in goods) for j in range(n_goods))


@pytest.mark.parametrize("capacity", [0, 1, 2, 3, 6])
def test_bundle_value_monotone_and_subadditive(capacity):
    values = (5, 3, Fraction(7, 2), 0, 2, Fraction(1, 3))
    inst = small_instance(capacity, values)
    worth = {b: bundle_value(inst, 0, b) for b in all_bundles(len(values))}
    for small in worth:
        for big in worth:
            if all(s <= b for s, b in zip(small, big)):
                assert worth[small] <= worth[big]
    for left in worth:
        for right in worth:
            if any(l and r for l, r in zip(left, right)):
                continue
            union = tuple(l + r for l, r in zip(left, right))
            assert worth[union] <= worth[left] + worth[right]


def test_bundle_value_with_slack_capacity_is_plain_sum():
    values = (5, 3, Fraction(7, 2), 2)
    inst = small_instance(len(values), values)
    for bundle in all_bundles(len(values)):
        assert bundle_value(inst, 0, bundle) == sum(u * Fraction(v) for u, v in zip(bundle, values))


def per_unit_value(instance, agent, row):
    """Reference: one entry per unit, sorted, the capacity-many best summed."""
    units = [instance.values[agent][j] for j, u in enumerate(row) for _ in range(u)]
    units.sort(reverse=True)
    return sum(units[: instance.agent_capacity[agent]], Fraction(0))


@st.composite
def valued_rows(draw):
    """A market (supplies 1-5, capacities 0-6, tie-heavy values), an agent and a row."""
    supplies = draw(st.lists(st.integers(1, 5), max_size=5))
    capacities = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    value = st.integers(0, 4).map(lambda k: Fraction(k, 2))
    values = tuple(tuple(draw(value) for _ in supplies) for _ in capacities)
    instance = Instance(tuple(capacities), tuple(supplies), values)
    row = tuple(draw(st.integers(0, q)) for q in supplies)
    return instance, draw(st.integers(0, len(capacities) - 1)), row


@settings(max_examples=300, deadline=None)
@given(case=valued_rows())
def test_bundle_value_matches_per_unit_reference(case):
    inst, agent, row = case
    assert bundle_value(inst, agent, row) == per_unit_value(inst, agent, row)
    with pytest.raises(IndexError):
        bundle_value(inst, inst.n_agents, row)
    with pytest.raises(InvalidInstanceError):
        bundle_value(inst, agent, row + (0,))
    for j, q in enumerate(inst.good_supply):
        for bad in (q + 1, -1, True, 1.0):
            with pytest.raises(InvalidInstanceError):
                bundle_value(inst, agent, row[:j] + (bad,) + row[j + 1:])


def test_instance_validation_rejects_bad_shapes():
    with pytest.raises(InvalidInstanceError):
        Instance((1,), (1,), ((Fraction(-1),),))
    with pytest.raises(InvalidInstanceError):
        Instance((-1,), (1,), ((Fraction(1),),))
    with pytest.raises(InvalidInstanceError):
        Instance((1,), (0,), ((Fraction(1),),))
    with pytest.raises(InvalidInstanceError):
        Instance((1,), (1, 1), ((Fraction(1),),))
    with pytest.raises(InvalidInstanceError, match="^value matrix has 1 rows, expected 2$"):
        Instance((1, 1), (1,), ((1,),))
    inst = Instance((1,), (1,), ((Fraction(1),),))
    assert validate(inst) == []


@pytest.mark.parametrize("bad", [1.7, "2", True])
@pytest.mark.parametrize("field", ["capacity", "supply", "unit count", "value"])
def test_constructors_reject_counts_that_are_not_integers(field, bad):
    with pytest.raises(InvalidInstanceError):
        if field == "capacity":
            Instance((bad,), (1,), ((Fraction(1),),))
        elif field == "supply":
            Instance((1,), (bad,), ((Fraction(1),),))
        elif field == "value":
            Instance((1,), (1,), ((bad,),))
        else:
            Allocation(((bad,),))


def test_load_example1_fixture(example1, example1_path):
    loaded = load(example1_path.read_bytes())
    assert loaded == example1
    assert loaded.values[0][0] == Fraction(2)
    assert loaded.agent_capacity == (1, 2)


def test_save_load_round_trip(example1):
    assert load(save(example1)) == example1
    canonical = save(example1)
    assert save(load(canonical)) == canonical


def test_empty_goods_instance_is_valid():
    inst = load(b'{"agents": [{"capacity": 2}], "goods": [], "values": [[]]}')
    assert inst.n_goods == 0
    assert bundle_value(inst, 0, ()) == 0
    assert total_value(inst, empty_allocation(1, 0)) == 0


ONE_VALUE = b'{"agents": [{"capacity": 1}], "goods": [{"supply": 1}], "values": '


def malformed(doc, message, id=None):
    """A document ``load`` must reject, and the start of its message."""
    return pytest.param(doc, message, id=id or doc.decode())


@pytest.mark.parametrize(
    "doc, message",
    [
        malformed(b"not json", "not valid JSON: Expecting value"),
        malformed(b"[]", "top-level document must be an object"),
        malformed(b'{"agents": [], "goods": []}', "missing key 'values'"),
        malformed(ONE_VALUE + b'[[{"num": 1, "den": 0}]]}', "rational with denominator 0"),
        malformed(ONE_VALUE + b"[[-2]]}", "value[0][0] = -2 is negative"),
        malformed(b'{"agents": [{"capacity": 1.5}], "goods": [{"supply": 1}], "values": [[1]]}',
                  "capacity 1.5 is not an integer"),
        malformed(ONE_VALUE + b'[["x"]]}', "cannot parse rational from 'x'"),
        malformed(ONE_VALUE + b"[3]}", "value row 3 is not an array"),
        malformed(ONE_VALUE + b'{"0": [1]}}', "'values' must be an array", id="values-object"),
        malformed(b'{"agents": [{"cap": 1}], "goods": [{"supply": 1}], "values": [[1]]}',
                  "malformed agent/good entry: 'capacity'", id="agent-entry"),
        malformed(ONE_VALUE + b"[null]}", "value row None is not an array"),
        malformed(b'{"agents": \xff}', "not UTF-8: 'utf-8' codec can't decode", id="non-utf8"),
        malformed(b"[" * 100_000, "not valid JSON: nested too deeply", id="deep"),
        malformed(ONE_VALUE + b'[[{"num": 1}]]}', "rational object missing key 'den'", id="no-den"),
        malformed(ONE_VALUE + b'[[{"num": 1, "den": true}]]}',
                  "rational parts must be integers, got {'num': 1, 'den': True}", id="bool-den"),
        malformed(ONE_VALUE + b"[[true]]}", "booleans are not rationals", id="bool"),
        malformed(ONE_VALUE + b"[[1.5]]}", "cannot parse rational from 1.5", id="float"),
        malformed(ONE_VALUE + b'[[{"num": 1, "den": -2}]]}', "value[0][0] = -1/2 is negative",
                  id="negative-den"),
    ],
)
def test_load_rejects_malformed_documents(doc, message):
    with pytest.raises(InvalidInstanceError, match="^" + re.escape(message)):
        load(doc)


def test_random_instance_rejects_an_unknown_capacity_mode():
    with pytest.raises(ValueError, match="^unknown capacity mode 'mixed'$"):
        random_instance(rng_for(0, 0), 2, 2, capacity_mode="mixed")


def test_rational_shorthand_and_object_forms_agree():
    bare = load(b'{"agents": [{"capacity": 1}], "goods": [{"supply": 1}], "values": [[3]]}')
    obj = load(
        b'{"agents": [{"capacity": 1}], "goods": [{"supply": 1}], "values": [[{"num": 3, "den": 1}]]}'
    )
    assert bare == obj


@settings(max_examples=60)
@given(
    rows=st.lists(
        st.lists(st.fractions(min_value=0, max_value=30, max_denominator=9), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_save_load_identity_on_random_instances(rows):
    inst = Instance((1, 2), (1, 1), tuple(tuple(r) for r in rows))
    assert load(save(inst)) == inst


def test_derived_markets_equal_the_checked_constructor():
    for k in range(60):
        rng = rng_for(67, k)
        inst = random_sized_instance(rng, capacity_mode="hetero")
        scaled_values(inst)
        for i in range(inst.n_agents):
            row = random_row(rng, inst.n_goods)
            values = inst.values[:i] + (row,) + inst.values[i + 1:]
            derived = _derive(inst, i, row)
            slow = Instance(inst.agent_capacity, inst.good_supply, values)
            assert derived == slow
            for name in ("agent_capacity", "good_supply", "values"):
                assert type(getattr(derived, name)) is tuple
            assert all(type(v) is Fraction for r in derived.values for v in r)
            assert scaled_values(derived) == scaled_values(slow)


@pytest.mark.parametrize("row", [(Fraction(1),), (Fraction(-1), Fraction(0)),
                                 (0.5, Fraction(1)), (True, Fraction(0)), ("1", 1)])
def test_a_derived_row_is_checked_like_a_constructed_one(example1, row):
    with pytest.raises(InvalidInstanceError) as derived:
        _derive(example1, 1, row)
    with pytest.raises(InvalidInstanceError) as slow:
        Instance(example1.agent_capacity, example1.good_supply, (example1.values[0], row))
    assert str(derived.value) == str(slow.value)


@pytest.mark.parametrize("units, message", [
    (((1, 1),), "allocation has 1 rows, expected 2"),
    (((1,), (1,)), "allocation row 0 has 1 entries, expected 2"),
], ids=["one row", "short rows"])
def test_total_value_rejects_a_misshapen_allocation(example1, units, message):
    # zip would truncate to 4 and 3; feasibility stays the caller's contract
    with pytest.raises(InvalidInstanceError, match=message):
        total_value(example1, Allocation(units))


ONE, TENTH = Fraction(1), Fraction(1, 10)
PAIR_VALUED = {frozenset(): ONE, frozenset((0,)): ONE, frozenset((1,)): ONE}


@pytest.mark.parametrize("entry", [
    lambda x: Subadditive2x2Valuation(x, ONE, ONE),
    lambda x: Subadditive2x2Valuation(ONE, ONE, x),
    lambda x: chain_profiles(1, x, TENTH),
    lambda x: chain_profiles(1, ONE, x),
    lambda x: positive_transfer_chain(1, x, TENTH),
    lambda x: positive_transfer_chain(1, ONE, x),
    lambda x: no_ic_walrasian_chain(x),
    lambda x: gross_substitutes_check_set({**PAIR_VALUED, frozenset((0, 1)): x}, 2,
                                          [((TENTH, TENTH), (TENTH, ONE))]),
], ids=["v1", "v12", "chain x", "chain eps", "transfer x", "transfer eps", "walrasian eps",
        "set valuation"])
@pytest.mark.parametrize("inexact", [0.5, True, "1/2"], ids=["float", "bool", "str"])
def test_public_entries_take_exact_rationals_only(entry, inexact):
    with pytest.raises(InvalidInstanceError,
                       match=f"expected an integer or Fraction, got {type(inexact).__name__}"):
        entry(inexact)


def rewritten_document(rng, inst):
    """``inst`` as a document whose values are written in varied forms, and its Fractions.

    A value is written reduced, bare (integers only), unreduced as
    ``num·k / den·k``, with both signs negated, or replaced by zero over a
    denominator other than 1.
    """
    rows, fractions = [], []
    for row in inst.values:
        rows.append([])
        fractions.append([])
        for v in row:
            form = rng.randrange(5)
            if form == 4:
                v = Fraction(0)
                rows[-1].append({"num": 0, "den": rng.choice((-7, 2, 7, 30))})
            elif form == 3:
                rows[-1].append({"num": -v.numerator, "den": -v.denominator})
            elif form == 2:
                k = rng.choice((2, 3, 10**30))
                rows[-1].append({"num": v.numerator * k, "den": v.denominator * k})
            elif form == 1 and v.denominator == 1:
                rows[-1].append(v.numerator)
            else:
                rows[-1].append({"num": v.numerator, "den": v.denominator})
            fractions[-1].append(v)
    doc = {"agents": [{"capacity": c} for c in inst.agent_capacity],
           "goods": [{"supply": q} for q in inst.good_supply], "values": rows}
    return json.dumps(doc).encode(), tuple(map(tuple, fractions))


def test_load_equals_the_fraction_constructor_on_rewritten_documents():
    for k in range(300):
        rng = rng_for(73, k)
        inst = random_sized_instance(rng, capacity_mode=("homo", "hetero")[k % 2], supply_max=3)
        doc, fractions = rewritten_document(rng, inst)
        expected = Instance(inst.agent_capacity, inst.good_supply, fractions)
        denom, rows = clear_denominators(fractions)
        assert scaled_values(load(doc)) == (denom, tuple(map(tuple, rows))), f"seed {k}"
        assert scaled_values(expected) == scaled_values(load(doc)), f"seed {k}"
        assert hash(load(doc)) == hash(expected), f"seed {k}"
        assert repr(load(doc)) == repr(expected), f"seed {k}"
        assert save(load(doc)) == save(expected), f"seed {k}"
        loaded = load(doc)
        assert loaded == expected, f"seed {k}"
        assert all(type(v) is Fraction for row in loaded.values for v in row)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_an_unread_loaded_market_survives_copies(example1_path, clone):
    doc = example1_path.read_bytes()
    twin = clone(load(doc))
    assert twin == load(doc)
    assert scaled_values(twin) == scaled_values(load(doc))
    assert hash(twin) == hash(load(doc))


def test_the_engine_never_builds_a_loaded_markets_fractions(example1):
    # the Clarke outcome, its checks, EF payments, every certificate, Walrasian
    # prices, the IC probe, the two-good rule's pivot and the two-agent shape
    # read the cleared matrix only; the values are built on their first read
    markets = [random_instance(rng_for(79, k), 12, 18, "hetero", (1, 2, 3), supply_max=3)
               for k in range(4)]
    markets += [random_sized_instance(rng_for(79, k), 4, 5, "hetero", supply_max=2)
                for k in range(4, 40)]
    for k, market in enumerate(markets):
        inst = load(save(market))
        outcome = vcg_outcome(inst, CLARKE)
        envy_check(inst, outcome), ir_check(inst, outcome), npt_check(outcome)
        ef_payment_feasible(inst, outcome.allocation, require_ir=True, require_npt=True)
        caps = inst.agent_capacity
        for hi, lo in itertools.permutations(range(inst.n_agents), 2):
            if caps[hi] >= caps[lo]:
                build_no_envy_certificate(inst, hi, lo)
        compute_walrasian_prices(inst)
        rng = rng_for(80, k)
        for i in range(inst.n_agents):
            optimum_without(inst, i).allocation
            assert ic_probe(inst, CLARKE, i, [random_row(rng, inst.n_goods) for _ in range(3)]) == []
        assert "values" not in inst.__dict__, f"market {k}"
        assert inst == market
        assert "values" in inst.__dict__
    two_goods = load(save(example1))
    vcg_outcome(two_goods, SUBADDITIVE_2X2)
    assert "values" not in two_goods.__dict__
    for cap in (1, 3):
        for k, profile in enumerate(chain_profiles(cap, Fraction(2), Fraction(1, 10))):
            inst = load(save(profile))
            classify_two_agent(inst)
            assert "values" not in inst.__dict__, f"profile {k} of capacity {cap}"


def test_threads_reading_an_unread_market_agree():
    market = random_instance(rng_for(79, 9), 16, 24, "hetero", (1, 2, 3), supply_max=3)
    shared = load(save(market))
    reads = [None] * 6

    def read(k):
        reads[k] = shared.values

    threads = [threading.Thread(target=read, args=(k,), daemon=True) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reads == [market.values] * 6
    assert shared == market
