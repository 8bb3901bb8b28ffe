"""Acceptance suite: the package's exit criteria, one test per criterion.

Every criterion prints a single pass/fail line (visible under ``pytest -s``)
and enforces its stated runtime budget; all numeric assertions are exact
rational comparisons with zero tolerance.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import capacitated_as_2x2

from capauct import (
    CLARKE,
    TWO_AGENT_TOPC,
    brute_force_optimum,
    build_no_envy_certificate,
    compute_walrasian_prices,
    envy_check,
    gross_substitutes_check,
    ic_probe,
    ir_check,
    npt_check,
    social_optimum,
    subadditive_2x2,
    two_agent_topc,
    vcg_outcome,
    verify_walrasian,
)
from capauct.audit import gross_substitutes_check_set
from capauct.flowcert import chain_profiles, positive_transfer_chain
from capauct.generators import (
    random_capacitated_valuation,
    random_instance,
    random_price_pair,
    random_row,
    random_sized_instance,
    random_subadditive_2x2,
    rng_for,
)
from capauct.mechanisms import SUBADDITIVE_2X2
from capauct.walrasian import chain_instances, no_ic_walrasian_chain
from capauct.cli import example1

F = Fraction


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def timed(budget_seconds):
    @contextmanager
    def guard():
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"took {elapsed:.3f}s, budget {budget_seconds}s"

    return guard()


def test_criterion_1_example_regression():
    with criterion(1, "canonical example regression"):
        inst = example1()
        outcome = vcg_outcome(inst, CLARKE)  # warm-up outside the clock
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            outcome = vcg_outcome(inst, CLARKE)
            pairs = envy_check(inst, outcome)
            best = min(best, time.perf_counter() - start)
        assert outcome.payments == (F(1), F(0))
        assert pairs == [(0, 1, F(1))]
        assert best < 0.001, f"best run {best * 1000:.3f} ms"


def test_criterion_2_homogeneous_capacities_never_envy():
    with criterion(2, "homogeneous capacities stay envy-free"), timed(30):
        for k in range(1000):
            rng = rng_for(1002, k)
            inst = random_sized_instance(rng, capacity_mode="homo", supply_max=2)
            outcome = vcg_outcome(inst, CLARKE)
            assert envy_check(inst, outcome) == [], f"seed {k}"


def test_criterion_3_capacity_order_and_certificates():
    with criterion(3, "larger capacities never envy smaller ones"), timed(60):
        for k in range(1000):
            rng = rng_for(1003, k)
            inst = random_sized_instance(rng, capacity_mode="hetero", supply_max=2)
            outcome = vcg_outcome(inst, CLARKE)
            caps = inst.agent_capacity
            for pair in envy_check(inst, outcome):
                assert caps[pair.envier] < caps[pair.envied], f"seed {k}"
            for hi in range(inst.n_agents):
                for lo in range(inst.n_agents):
                    if hi == lo or caps[hi] < caps[lo]:
                        continue
                    cert = build_no_envy_certificate(inst, hi, lo)
                    assert cert.value >= cert.floor, f"seed {k} pair {(hi, lo)}"


def test_criterion_4_two_agent_rule_properties():
    with criterion(4, "two-agent rule: envy-free, rational, unprofitable to misreport"), timed(60):
        for k in range(1000):
            rng = rng_for(1004, k)
            inst = random_instance(rng, 2, rng.randint(1, 6), cap_choices=(1, 2, 3, 4, 5, 6))
            outcome = two_agent_topc(inst)
            assert envy_check(inst, outcome) == [], f"seed {k}"
            assert ir_check(inst, outcome) == [], f"seed {k}"
            for agent in range(2):
                deviations = [random_row(rng, inst.n_goods) for _ in range(50)]
                assert ic_probe(inst, TWO_AGENT_TOPC, agent, deviations) == [], f"seed {k}"


def test_criterion_5_positive_transfer_chain():
    with criterion(5, "positive-transfer impossibility replay"), timed(0.010):
        report = positive_transfer_chain(1, F(1), F(1, 10))
        assert all(step.holds for step in report.steps)
        assert report.conclusion == F(9, 10)
        _, profile_b, profile_c = chain_profiles(1, F(1), F(1, 10))
        topc_outcome = two_agent_topc(profile_c)
        assert topc_outcome.payments[0] == F(-1)
        assert npt_check(topc_outcome) != []
        clarke_outcome = vcg_outcome(profile_b, CLARKE)
        pairs = envy_check(profile_b, clarke_outcome)
        assert [(p.envier, p.envied) for p in pairs] == [(0, 1)]
        assert pairs[0].margin == F(9, 10)
        general = positive_transfer_chain(3, F(2), F(1, 10))
        assert general.conclusion == F(17, 10)


def test_criterion_6_walrasian_impossibility_replay():
    with criterion(6, "incentive-compatible item pricing impossibility replay"), timed(0.010):
        report = no_ic_walrasian_chain(F(1, 5))
        assert all(step.holds for step in report.steps)
        floors = {step.label: step.lhs for step in report.steps}
        assert floors["pivot-floor"] == F(31, 10)
        assert report.conclusion == F(1, 10)
        assert report.conclusion == F(1, 5) / 2
        market, _ = chain_instances(F(1, 5))
        certificate = compute_walrasian_prices(market)
        assert verify_walrasian(market, certificate.prices, certificate.allocation) == []
        assert certificate.prices[0] >= F(9, 10)
        assert certificate.prices[1] >= F(1)


def test_criterion_7_gross_substitutes_property_and_sensitivity():
    with criterion(7, "capacitated valuations are gross substitutes"), timed(60):
        for k in range(1000):
            rng = rng_for(1007, k)
            values, capacity = random_capacitated_valuation(rng, rng.randint(1, 6))
            pairs = [random_price_pair(rng, len(values)) for _ in range(5)]
            assert gross_substitutes_check(values, capacity, pairs) is None, f"seed {k}"
        complements = {
            frozenset(): F(0),
            frozenset({0}): F(0),
            frozenset({1}): F(0),
            frozenset({0, 1}): F(1),
        }
        witness = gross_substitutes_check_set(
            complements, 2, [((F(1, 2), F(1, 2)), (F(1, 2), F(1)))]
        )
        assert witness is not None


def test_criterion_8_two_by_two_subadditive_rule():
    with criterion(8, "two-goods subadditive rule: envy-free and rational"), timed(10):
        for k in range(1000):
            rng = rng_for(1008, k)
            first = random_subadditive_2x2(rng)
            second = random_subadditive_2x2(rng)
            outcome = subadditive_2x2(first, second)
            values = (first, second)
            bundles = [
                frozenset(j for j in (0, 1) if outcome.allocation.units[i][j]) for i in (0, 1)
            ]
            for i in (0, 1):
                own = values[i].of(bundles[i]) - outcome.payments[i]
                other = 1 - i
                assert own >= 0, f"seed {k}"
                assert values[i].of(bundles[other]) - outcome.payments[other] <= own, f"seed {k}"
        # capacitated two-good markets agree with the best-singleton pivots
        for k in range(300):
            rng = rng_for(2008, k)
            inst = random_instance(rng, 2, 2, cap_choices=(0, 1, 2))
            via_rule = vcg_outcome(inst, SUBADDITIVE_2X2)
            expected_h = tuple(
                max(inst.values[1 - i]) if inst.agent_capacity[1 - i] else F(0)
                for i in (0, 1)
            )
            assert via_rule.pivot_values == expected_h, f"seed {k}"
            general = subadditive_2x2(capacitated_as_2x2(inst, 0), capacitated_as_2x2(inst, 1))
            assert general.pivot_values == expected_h, f"seed {k}"
            assert general.payments == via_rule.payments, f"seed {k}"


def test_criterion_9_oracle_equivalence_and_reverification():
    with criterion(9, "independent oracles agree"), timed(60):
        for k in range(1000):
            rng = rng_for(1009, k)
            inst = random_sized_instance(rng, capacity_mode="hetero", supply_max=2)
            fast = social_optimum(inst)
            assert fast.welfare == brute_force_optimum(inst).welfare, f"seed {k}"
            certificate = compute_walrasian_prices(inst)
            assert verify_walrasian(inst, certificate.prices, certificate.allocation) == [], (
                f"seed {k}"
            )
