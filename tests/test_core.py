import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capauct import (
    Allocation,
    Instance,
    InvalidInstanceError,
    bundle_value,
    load,
    save,
    total_value,
    validate,
)
from capauct.core import _derive, scaled_values
from capauct.generators import random_row, random_sized_instance, rng_for

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
    assert total_value(inst, Allocation.empty(1, 0)) == 0


@pytest.mark.parametrize(
    "doc",
    [
        b"not json",
        b"[]",
        b'{"agents": [], "goods": []}',
        b'{"agents": [{"capacity": 1}], "goods": [{"supply": 1}], "values": [[{"num": 1, "den": 0}]]}',
        b'{"agents": [{"capacity": 1}], "goods": [{"supply": 1}], "values": [[-2]]}',
        b'{"agents": [{"capacity": 1.5}], "goods": [{"supply": 1}], "values": [[1]]}',
        b'{"agents": [{"capacity": 1}], "goods": [{"supply": 1}], "values": [["x"]]}',
        b'{"agents": [{"capacity": 1}], "goods": [{"supply": 1}], "values": [3]}',
        b'{"agents": [{"capacity": 1}], "goods": [{"supply": 1}], "values": [null]}',
        pytest.param(b'{"agents": \xff}', id="non-utf8"),
        pytest.param(b"[" * 100_000, id="deep"),
    ],
)
def test_load_rejects_malformed_documents(doc):
    with pytest.raises(InvalidInstanceError):
        load(doc)


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
