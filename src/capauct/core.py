"""Exact-rational domain types for capacitated allocation markets.

Everything downstream (winner determination, payment rules, property
audits) works on the types defined here.  The API speaks Fractions; the
engine computes on integers, each market's values cleared onto their
least denominator when it is built, or for a derived market when first
read (:func:`scaled_values`), so every comparison, tie and margin is
exact; there is no floating-point mode.

Agents and goods are identified by 0-based index only.  An agent with
capacity ``c`` values a bundle at the sum of its ``c`` best units.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

#: The exact rational scalar type used throughout the package.  Fraction
#: already guarantees the canonical form (reduced, positive denominator).
Rat = Fraction

ZERO = Fraction(0)


class InvalidInstanceError(ValueError):
    """Raised when an instance document or constructor argument is malformed."""


def _as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is int:  # bools are ints to isinstance
        return Fraction(x)
    raise InvalidInstanceError(f"expected an integer or Fraction, got {type(x).__name__}")


def _as_counts(xs: Iterable, what: str) -> tuple[int, ...]:
    """``xs`` as a tuple of integers; bools, floats and strings raise."""
    xs = tuple(xs)
    for x in xs:
        if type(x) is not int:
            raise InvalidInstanceError(f"{what} {x!r} is not an integer")
    return xs


def _is_agent(instance: Instance, agent) -> bool:
    """Whether ``agent`` indexes an agent of ``instance``; a bool or other non-``int`` raises."""
    if type(agent) is not int:
        raise InvalidInstanceError(f"agent index {agent!r} is not an integer")
    return 0 <= agent < instance.n_agents


@dataclass(frozen=True)
class Instance:
    """A market: agent capacities, good supplies and a per-unit value matrix.

    ``values[i][j]`` is agent ``i``'s value for one unit of good ``j``.
    Capacities bound how many units an agent may receive in total;
    supplies bound how many units of each good exist.  A loaded or derived
    market builds ``values`` on first read from :func:`scaled_values`, and
    a derived market (:func:`_derive`) its cleared pair too.
    """

    agent_capacity: tuple[int, ...]
    good_supply: tuple[int, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "agent_capacity", _as_counts(self.agent_capacity, "capacity"))
        object.__setattr__(self, "good_supply", _as_counts(self.good_supply, "supply"))
        object.__setattr__(self, "values", tuple(tuple(map(_as_rat, row)) for row in self.values))
        object.__setattr__(self, "_scaled", clear_denominators(self.values))
        _checked(self)

    @classmethod
    def _cleared(cls, capacities: tuple, supplies: tuple, scaled: tuple | None) -> Instance:
        """The market whose :func:`scaled_values` are ``scaled``, unchecked; None defers them."""
        market = object.__new__(cls)
        object.__setattr__(market, "agent_capacity", capacities)  # in __init__'s order, which
        object.__setattr__(market, "good_supply", supplies)  # keeps attribute reads fast
        object.__setattr__(market, "_scaled", scaled)
        return market

    @property
    def n_agents(self) -> int:
        return len(self.agent_capacity)

    @property
    def n_goods(self) -> int:
        return len(self.good_supply)


def _values(market: Instance) -> tuple[tuple[Fraction, ...], ...]:
    denom, rows = scaled_values(market)
    return tuple(tuple(Fraction(v, denom) for v in row) for row in rows)


# A loaded or derived market's values, built on first read and then kept; set after @dataclass,
# which would take it for a default.  An attribute hook instead would slow every attribute read.
Instance.values = functools.cached_property(_values)
Instance.values.__set_name__(Instance, "values")


def _least_cleared(pairs: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(D, M)`` for rows of ``(num, den)`` pairs: ``M[i][j] = num / den * D``, D the least such."""
    dens = {den for row in pairs for _, den in row}
    common = math.lcm(*dens)
    scale = {den: common // den for den in dens}
    rows = [tuple([num * scale[den] for num, den in row]) for row in pairs]
    shift = math.gcd(common, *[v for row in rows for v in row])  # onto the reduced denominators' lcm
    if shift > 1:
        rows = [tuple([v // shift for v in row]) for row in rows]
    return common // shift, tuple(rows)


def _checked(market: Instance) -> Instance:
    """``market`` if :func:`validate` finds nothing, else InvalidInstanceError with every problem."""
    problems = validate(market)
    if problems:
        raise InvalidInstanceError("; ".join(problems))
    return market


def validate(instance: Instance) -> list[str]:
    """Invariant violations, empty when the instance is valid; the rows read are the cleared ones."""
    problems = []
    n, m = len(instance.agent_capacity), len(instance.good_supply)
    for i, c in enumerate(instance.agent_capacity):
        if c < 0:
            problems.append(f"agent {i} has negative capacity {c}")
    for j, q in enumerate(instance.good_supply):
        if q <= 0:
            problems.append(f"good {j} has non-positive supply {q}")
    denom, rows = scaled_values(instance)
    if len(rows) != n:
        problems.append(f"value matrix has {len(rows)} rows, expected {n}")
    for i, row in enumerate(rows):
        problems += _row_problems(i, row, m, denom)
    return problems


def _row_problems(i: int, row: Sequence[int | Fraction], m: int, denom: int = 1) -> list[str]:
    problems = [f"value row {i} has {len(row)} entries, expected {m}"] if len(row) != m else []
    # a Fraction's sign is its numerator's, and an int compare is cheap
    return problems + [f"value[{i}][{j}] = {Fraction(v, denom)} is negative"
                       for j, v in enumerate(row) if v.numerator < 0]


def _derive(instance: Instance, agent: int, row: Sequence) -> Instance:
    """``instance`` with the agent's value row replaced by ``row``, on cleared integers only.

    Only the row is checked, with :func:`validate`'s messages, so
    ``instance`` must be a checked market.  The derived market keeps the
    checked row, as exact rationals, in ``_derived`` beside the market's
    least cleared pair, and clears them onto its own least pair, as
    :func:`load` clears a document, on the first read of
    :func:`scaled_values`.  It shares the unchanged fields but holds no
    reference to ``instance``.
    """
    row = tuple(_as_rat(v) for v in row)
    problems = _row_problems(agent, row, instance.n_goods)
    if problems:
        raise InvalidInstanceError("; ".join(problems))
    market = Instance._cleared(instance.agent_capacity, instance.good_supply, None)
    object.__setattr__(market, "_derived", (scaled_values(instance), agent, row))
    return market


def _derived_pair(market: Instance) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A derived market's least cleared pair, built from what :func:`_derive` kept and then kept."""
    (denom, rows), agent, row = market._derived
    pairs = [[(v, denom) for v in r] for r in rows]
    pairs[agent] = [v.as_integer_ratio() for v in row]
    object.__setattr__(market, "_scaled", _least_cleared(pairs))
    return market._scaled


@dataclass(frozen=True)
class Allocation:
    """An integral assignment of good units to agents.

    ``units[i][j]`` is the number of units of good ``j`` held by agent
    ``i``.  Feasibility against an instance (capacities and supplies) is
    checked by :func:`allocation_violations`, not by the type itself.
    """

    units: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "units", tuple(_as_counts(row, "unit count") for row in self.units)
        )
        for row in self.units:
            for u in row:
                if u < 0:
                    raise InvalidInstanceError(f"negative unit count {u} in allocation")

    def good_total(self, good: int) -> int:
        return sum(row[good] for row in self.units)


def allocation_violations(instance: Instance, allocation: Allocation) -> list[str]:
    """Check an allocation against capacities and supplies; empty list = feasible."""
    problems = []
    if len(allocation.units) != instance.n_agents:
        return [f"allocation has {len(allocation.units)} rows, expected {instance.n_agents}"]
    for i, row in enumerate(allocation.units):
        if len(row) != instance.n_goods:
            return [f"allocation row {i} has {len(row)} entries, expected {instance.n_goods}"]
        if sum(row) > instance.agent_capacity[i]:
            problems.append(f"agent {i} holds {sum(row)} units, capacity {instance.agent_capacity[i]}")
    totals = map(sum, zip(*allocation.units))  # none without agents, and none is needed
    for j, (total, supply) in enumerate(zip(totals, instance.good_supply)):
        if total > supply:
            problems.append(f"good {j} allocated {total} units, supply {supply}")
    return problems


@dataclass(frozen=True)
class MechanismOutcome:
    """Allocation plus payments, with the pivot values kept for audit replay."""

    allocation: Allocation
    payments: tuple[Fraction, ...]
    pivot_rule_id: str
    pivot_values: tuple[Fraction, ...]


def capped_sum(pairs: Iterable[tuple[int, int]], capacity: int) -> int:
    """Sum of the ``capacity`` largest units among ``(value, count)`` pairs of ints.

    The pairs are sorted, not the units: O(m log m) for m pairs however
    many units they stand for.
    """
    total = 0
    for value, count in sorted(pairs, reverse=True):
        if capacity <= 0:
            break
        take = min(count, capacity)
        total += take * value
        capacity -= take
    return total


def _held_goods(instance: Instance, bundle: Sequence[int]) -> list[tuple[int, int]]:
    """``(good, count)`` of each good a row holds, the row checked as :func:`bundle_value` says."""
    supply = instance.good_supply
    if len(bundle) != len(supply):
        raise InvalidInstanceError(f"bundle has {len(bundle)} entries, expected {len(supply)}")
    for u, q in zip(bundle, supply):
        if type(u) is not int or not 0 <= u <= q:
            raise InvalidInstanceError(f"bundle {tuple(bundle)} is not within supplies {supply}")
    return [(j, u) for j, u in enumerate(bundle) if u]


def bundle_value(instance: Instance, agent: int, bundle: Sequence[int]) -> Fraction:
    """Value of an allocation row (units per good) to an agent, capped at its capacity.

    The sum of the capacity-many best units: :func:`capped_sum` on the
    market's cleared matrix.  Raises IndexError on an unknown agent and
    InvalidInstanceError on an index that is not an ``int``, or unless the
    row counts every good with an ``int`` within its supply.
    """
    if not _is_agent(instance, agent):
        raise IndexError(f"unknown agent index {agent}")
    denom, scaled = scaled_values(instance)
    pairs = [(scaled[agent][j], u) for j, u in _held_goods(instance, bundle)]
    return Fraction(capped_sum(pairs, instance.agent_capacity[agent]), denom)


def total_value(instance: Instance, allocation: Allocation) -> Fraction:
    """Welfare of an allocation: the unit-weighted sum of values.

    Feasibility is the caller's contract, so the linear sum equals the
    sum of capacitated bundle values; only the shape is checked.
    """
    denom, scaled = scaled_values(instance)
    units, welfare = allocation.units, 0
    if len(units) == len(scaled):
        for row, vrow in zip(units, scaled):
            if len(row) != len(vrow):
                break
            welfare += sum(map(mul, row, vrow))
        else:
            return Fraction(welfare, denom)
    # a misshapen allocation, which zip alone would truncate
    raise InvalidInstanceError(allocation_violations(instance, allocation)[0])


# ---------------------------------------------------------------------------
# JSON instance format
#
#   {"agents": [{"capacity": int}, ...],
#    "goods":  [{"supply": int}, ...],
#    "values": [[{"num": int, "den": int} | int, ...], ...]}
#
# Bare integers are shorthand for den = 1.  This format is the contract
# shared by the CLI and the fixture files.
# ---------------------------------------------------------------------------


def rat_from_json(obj) -> tuple[int, int]:
    if isinstance(obj, dict):  # what ``save`` writes, so tested first
        try:
            num, den = obj["num"], obj["den"]
        except KeyError as exc:
            raise InvalidInstanceError(f"rational object missing key {exc}")
        if type(num) is not int or type(den) is not int:  # bools are ints to isinstance
            raise InvalidInstanceError(f"rational parts must be integers, got {obj!r}")
        if den == 0:
            raise InvalidInstanceError("rational with denominator 0")
        return (num, den) if den > 0 else (-num, -den)
    if isinstance(obj, bool):
        raise InvalidInstanceError("booleans are not rationals")
    if isinstance(obj, int):
        return obj, 1
    raise InvalidInstanceError(f"cannot parse rational from {obj!r}")


def rat_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def to_json(record):
    """A result as JSON: the one serializer of every record the package emits.

    Rationals become ``{"num", "den"}``, allocations their unit matrices,
    dataclasses and named tuples objects of their fields, other sequences
    lists and sets the sorted lists of their elements; the rest is kept.
    """
    if isinstance(record, Fraction):
        return rat_to_json(record)
    if isinstance(record, Allocation):
        return [list(row) for row in record.units]
    if dataclasses.is_dataclass(record):
        return {f.name: to_json(getattr(record, f.name)) for f in dataclasses.fields(record)}
    if isinstance(record, tuple) and hasattr(record, "_fields"):
        return {name: to_json(value) for name, value in zip(record._fields, record)}
    if isinstance(record, (list, tuple)):
        return [to_json(x) for x in record]
    if isinstance(record, (set, frozenset)):
        return sorted(to_json(x) for x in record)
    return record


def load(data: bytes | str) -> Instance:
    """Parse an instance document onto cleared integers; raises InvalidInstanceError on any defect."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise InvalidInstanceError(f"not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInstanceError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InvalidInstanceError("top-level document must be an object")
    for key in ("agents", "goods", "values"):
        if key not in doc:
            raise InvalidInstanceError(f"missing key {key!r}")
        if not isinstance(doc[key], list):
            raise InvalidInstanceError(f"{key!r} must be an array")
    try:
        capacities = tuple(entry["capacity"] for entry in doc["agents"])
        supplies = tuple(entry["supply"] for entry in doc["goods"])
    except (TypeError, KeyError) as exc:
        raise InvalidInstanceError(f"malformed agent/good entry: {exc}") from exc
    for row in doc["values"]:
        if not isinstance(row, list):
            raise InvalidInstanceError(f"value row {row!r} is not an array")
    scaled = _least_cleared([list(map(rat_from_json, row)) for row in doc["values"]])
    counts = _as_counts(capacities, "capacity"), _as_counts(supplies, "supply")
    return _checked(Instance._cleared(*counts, scaled))


def save(instance: Instance) -> bytes:
    """Serialize an instance canonically; ``load(save(x)) == x``."""
    doc = {
        "agents": [{"capacity": c} for c in instance.agent_capacity],
        "goods": [{"supply": q} for q in instance.good_supply],
        "values": [[rat_to_json(v) for v in row] for row in instance.values],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rows of rationals as ``(D, M)``: D their least common denominator, M[r][k] = rows[r][k] * D.

    Integer arithmetic on M is much faster than on Fractions and exact; callers divide by D at the end.
    """
    return _least_cleared([[x.as_integer_ratio() for x in row] for row in rows])


def _clear_onto(denom: int, xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(L, ints)``: L is the lcm of ``denom`` and the denominators of ``xs``, ints = xs * L."""
    common = math.lcm(denom, *(x.denominator for x in xs))
    return common, [x.numerator * (common // x.denominator) for x in xs]


def scaled_values(instance: Instance) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``clear_denominators(values)``, which every market holds from the moment it is built.

    A market that :func:`_derive` made builds it on this first read.
    """
    return instance._scaled or _derived_pair(instance)
