"""Output checks for the benchmark, run outside the timed section.

Two kinds of check feed ``failed``:

* the golden record: welfare, the welfare of the optimum without each
  agent, and the buyer-optimal Walrasian prices, hashed per pool market.
  None of these depends on how the solver breaks ties between optima of
  equal welfare, so a canonical tie-break cannot trip it;
* checks coded here without calling the engine's own checkers (the
  only engine call is its exhaustive oracle, ``brute_force_optimum``):
  feasibility, exact welfare, Clarke payments, envy pairs, the EF-payment
  decision, no-envy certificates, IC probes, the brute-force optimum on
  small markets and closed-form capacitated demand at the returned prices.

Every check returns a list of problems; an empty list means the market
passed.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

from workloads import capacity_ordered_pairs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ZERO = Fraction(0)


def golden_path(workload_name: str) -> Path:
    return GOLDEN_DIR / f"{workload_name}.txt"


def load_golden(workload_name: str) -> list[str]:
    return golden_path(workload_name).read_text().split()


def _rats(values) -> str:
    return ",".join(str(Fraction(v)) for v in values)


def golden_digest(workload_name: str, index: int, result: dict) -> str:
    """32-bit digest of the tie-break-free facts of one market's outputs."""
    instance = result["instance"]
    if "outcome" in result:
        allocation = result["outcome"].allocation.units
    else:
        allocation = result["equilibrium"].allocation.units
    parts = [workload_name, str(index), str(welfare(instance, allocation))]
    if "outcome" in result:
        parts.append(_rats(result["outcome"].pivot_values))  # Clarke: optimum without each agent
    if "equilibrium" in result:
        parts.append(_rats(result["equilibrium"].prices))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:8]


# --- exact reference arithmetic, independent of capauct ---------------------


def bundle_worth(instance, agent: int, units_row) -> Fraction:
    """Sum of the agent's capacity-many best units in the bundle."""
    row = instance.values[agent]
    vals = sorted((row[j] for j, u in enumerate(units_row) for _ in range(u)), reverse=True)
    return sum(vals[: instance.agent_capacity[agent]], ZERO)


def welfare(instance, units) -> Fraction:
    return sum((bundle_worth(instance, i, row) for i, row in enumerate(units)), ZERO)


def feasibility_problems(instance, units) -> list[str]:
    n, m = instance.n_agents, instance.n_goods
    if len(units) != n or any(len(row) != m for row in units):
        return ["allocation has the wrong shape"]
    problems = []
    for i, row in enumerate(units):
        if any(u < 0 for u in row):
            problems.append(f"agent {i} holds a negative unit count")
        if sum(row) > instance.agent_capacity[i]:
            problems.append(f"agent {i} exceeds its capacity")
    for j in range(m):
        if sum(row[j] for row in units) > instance.good_supply[j]:
            problems.append(f"good {j} exceeds its supply")
    return problems


def envy_pairs(instance, units, payments) -> list[tuple[int, int, Fraction]]:
    n = instance.n_agents
    out = []
    for i in range(n):
        own = bundle_worth(instance, i, units[i]) - payments[i]
        for j in range(n):
            if j != i:
                margin = bundle_worth(instance, i, units[j]) - payments[j] - own
                if margin > 0:
                    out.append((i, j, margin))
    return out


# --- per-output checks -------------------------------------------------------


def check_clarke(instance, outcome, envy, ir, npt) -> list[str]:
    units = outcome.allocation.units
    problems = feasibility_problems(instance, units)
    if problems:
        return problems
    total = welfare(instance, units)
    for i in range(instance.n_agents):
        own = bundle_worth(instance, i, units[i])
        pay = outcome.payments[i]
        if pay != outcome.pivot_values[i] - (total - own):
            problems.append(f"agent {i} payment is not pivot minus others' welfare")
        if not ZERO <= pay <= own:
            problems.append(f"agent {i} pays {pay}, outside [0, {own}]")
        if outcome.pivot_values[i] > total:
            problems.append(f"optimum without agent {i} beats the optimum")
    if ir or npt:
        problems.append("Clarke outcome reported IR or NPT violations")
    expected = envy_pairs(instance, units, outcome.payments)
    if [(p.envier, p.envied, p.margin) for p in envy] != expected:
        problems.append("envy pairs differ from the reference computation")
    caps = instance.agent_capacity
    if any(caps[i] >= caps[j] for i, j, _ in expected):
        problems.append("an agent envies one with a smaller or equal capacity")
    return problems


def check_ef(instance, units, ef) -> list[str]:
    """Re-derive the EF-payment verdict (with IR and NPT bounds)."""
    n = instance.n_agents
    cross = [[bundle_worth(instance, i, units[j]) for j in range(n)] for i in range(n)]
    if ef.feasible:
        pay = ef.payments
        if envy_pairs(instance, units, pay):
            return ["EF payments leave envy"]
        if any(not ZERO <= pay[i] <= cross[i][i] for i in range(n)):
            return ["EF payments break IR or NPT"]
        return []
    # Constraint arcs u -> v; the anchor (-1) carries the IR/NPT bounds.
    def arc(u: int, v: int) -> Fraction:
        if u == -1:
            return cross[v][v]
        if v == -1:
            return ZERO
        return cross[v][v] - cross[v][u]

    cycle = ef.negative_cycle or ()
    weight = sum((arc(cycle[k - 1], cycle[k]) for k in range(len(cycle))), ZERO)
    if not cycle or weight >= 0 or weight != ef.cycle_weight:
        return ["EF infeasibility witness is not a negative cycle"]
    return []


def check_certificates(instance, outcome, certificates) -> list[str]:
    pairs = capacity_ordered_pairs(instance.agent_capacity)
    if [(c.hi, c.lo) for c in certificates] != pairs:
        return ["certificates do not cover every capacity-ordered pair"]
    problems = []
    full = outcome.allocation.units
    for cert in certificates:
        units = cert.allocation.units
        lo_row = full[cert.lo]
        floor = (outcome.pivot_values[cert.hi] + bundle_worth(instance, cert.hi, lo_row)
                 - bundle_worth(instance, cert.lo, lo_row))
        if (feasibility_problems(instance, units) or any(units[cert.lo])
                or cert.value != welfare(instance, units) or cert.floor != floor
                or cert.value < floor):
            problems.append(f"certificate ({cert.hi}, {cert.lo}) does not hold")
    return problems


def check_equilibrium(instance, equilibrium) -> list[str]:
    """Closed-form capacitated demand at the returned prices.

    An agent's best utility is the sum of its capacity-many largest
    positive (value - price) over good units; the allocated bundle must
    reach it, and every unsold unit must be priced at zero.
    """
    units = equilibrium.allocation.units
    prices = equilibrium.prices
    problems = feasibility_problems(instance, units)
    if problems:
        return problems
    if equilibrium.welfare != welfare(instance, units):
        problems.append("equilibrium welfare is not the allocation's welfare")
    for j, p in enumerate(prices):
        if p < 0:
            problems.append(f"good {j} has a negative price")
        if sum(row[j] for row in units) < instance.good_supply[j] and p != 0:
            problems.append(f"good {j} has unsold units at price {p}")
    for i in range(instance.n_agents):
        surplus = sorted(
            (instance.values[i][j] - prices[j]
             for j in range(instance.n_goods) for _ in range(instance.good_supply[j])),
            reverse=True,
        )
        best = sum((s for s in surplus[: instance.agent_capacity[i]] if s > 0), ZERO)
        paid = sum((u * prices[j] for j, u in enumerate(units[i])), ZERO)
        if bundle_worth(instance, i, units[i]) - paid != best:
            problems.append(f"agent {i} is not at a demanded bundle")
    return problems


def check_market(api, workload_name: str, index: int, result: dict,
                 golden: str | None) -> list[str]:
    """All checks that apply to one market's outputs; ``golden=None`` skips the record."""
    instance = result["instance"]
    problems = []
    if "outcome" in result:
        problems += check_clarke(instance, result["outcome"], result["envy"], result["ir"],
                                 result["npt"])
    if "ef" in result:
        problems += check_ef(instance, result["outcome"].allocation.units, result["ef"])
        problems += check_certificates(instance, result["outcome"], result["certificates"])
        if any(result["ic"]):
            problems.append("ic_probe found a profitable misreport under Clarke")
        units = result["outcome"].allocation.units
        if api.brute_force_optimum(instance).welfare != welfare(instance, units):
            problems.append("welfare differs from the brute-force optimum")
    if "equilibrium" in result:
        problems += check_equilibrium(instance, result["equilibrium"])
        if "outcome" in result and result["equilibrium"].welfare != welfare(
                instance, result["outcome"].allocation.units):
            problems.append("equilibrium and mechanism welfare differ")
    if golden is not None and not problems and golden_digest(workload_name, index, result) != golden:
        problems.append("outputs differ from the golden record")
    return problems
