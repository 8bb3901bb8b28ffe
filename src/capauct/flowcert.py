"""Constructive no-envy certificates for heterogeneous capacities.

Under the externality pivot, agent ``hi`` (weakly larger capacity) never
envies agent ``lo``.  The proof is constructive and everything it
builds is materialized here.  Input checks guard what it is given (both
allocations feasible, the excluded agent's reduced row empty, a graph's
arcs distinct with positive flows); the theorem's checks guard the rest:

* the directed *flow-difference graph* between the optimum ``M`` and the
  optimum-without-``hi`` ``E``, whose arcs carry the unit disagreements,
  built once per certificate;
* its decomposition into simple paths from ``hi``; a cycle or a path
  from another source raises, which cannot happen because both optima
  are the tie rule's, so the check doubles as a test of the matching
  solver;
* a "takeover" allocation for the market without ``lo`` in which ``hi``
  absorbs ``lo``'s bundle; it must be feasible, and its value certifies
  the envy inequality.

The module also hosts the driver replaying the exact inequality chain
showing that efficiency, incentive compatibility, envy-freeness and
no-positive-transfers cannot coexist once capacities differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    ZERO,
    _as_counts,
    _as_rat,
    _is_agent,
    allocation_violations,
    bundle_value,
    scaled_values,
    total_value,
)
from .matching import optimum_without, social_optimum
from .reports import ChainReport, ChainStep, checked_step

Vertex = tuple[str, int]  # ("agent", i) or ("good", j); tuple order sorts agents first
Arc = tuple[Vertex, Vertex]


class FlowCertError(RuntimeError):
    """A certificate invariant failed; carries the offending structure."""

    def __init__(self, message: str, structure=None):
        super().__init__(message)
        self.structure = structure


@dataclass(frozen=True)
class FlowDiffGraph:
    """Where two allocations disagree, as arcs with positive integer flow.

    An arc agent->good carries units the full optimum assigns beyond the
    reduced one; good->agent carries the reverse.  ``excess``, the net
    outflow per vertex (positive: source, negative: target), is read off
    the arcs, which must be distinct with positive ``int`` flows, each
    joining an agent and a good of the market.  ``excluded`` must index an
    agent, else IndexError, as :func:`build_flow_diff_graph` raises.
    """

    instance: Instance
    excluded: int
    arcs: tuple[tuple[Arc, int], ...]

    def __post_init__(self):
        if not _is_agent(self.instance, self.excluded):
            raise IndexError(f"agent index {self.excluded} out of range")
        flows = [flow for _, flow in self.arcs]
        agents = {("agent", i) for i in range(self.instance.n_agents)}
        goods = {("good", j) for j in range(self.instance.n_goods)}
        if (len(dict(self.arcs)) != len(flows) or any(type(f) is not int or f <= 0 for f in flows)
                or any(not (u in agents and w in goods or u in goods and w in agents)
                       for (u, w), _ in self.arcs)):
            raise FlowCertError("arcs must be distinct with positive int flows, each joining"
                                " an agent and a good of the market", structure=self.arcs)

    @property
    def excess(self) -> tuple[tuple[Vertex, int], ...]:
        net: dict[Vertex, int] = {}
        for (u, w), flow in self.arcs:
            net[u] = net.get(u, 0) + flow
            net[w] = net.get(w, 0) - flow
        return tuple(sorted((v, chi) for v, chi in net.items() if chi))


def build_flow_diff_graph(
    instance: Instance,
    allocation: Allocation,
    allocation_excl: Allocation,
    excluded: int,
) -> FlowDiffGraph:
    """Difference graph of a full optimum ``M`` vs. an optimum ``E`` without one agent.

    ``excluded`` must index an agent, both allocations must be feasible
    and ``E``'s excluded row empty.  Nothing else is checked, since these
    imply it: a good -> agent arc needs ``E[i][j] > M[i][j] >= 0``, so no
    arc enters the excluded agent; ``|M_i - E_i| <= max(M_i, E_i)``, which
    is within agent i's capacity as both sides are feasible, and likewise
    for goods and supplies; and the excesses sum to
    ``(sum M - sum E) + (sum E - sum M) = 0``.
    """
    if not _is_agent(instance, excluded):
        raise IndexError(f"agent index {excluded} out of range")
    for name, alloc in (("allocation", allocation), ("reduced allocation", allocation_excl)):
        problems = allocation_violations(instance, alloc)
        if problems:
            raise FlowCertError(f"{name} infeasible: " + "; ".join(problems))
    if any(allocation_excl.units[excluded]):
        raise FlowCertError(f"reduced allocation assigns goods to excluded agent {excluded}")
    arcs = []
    for i, (full, reduced) in enumerate(zip(allocation.units, allocation_excl.units)):
        for j, (a, b) in enumerate(zip(full, reduced)):
            if a > b:
                arcs.append(((("agent", i), ("good", j)), a - b))
            elif a < b:
                arcs.append(((("good", j), ("agent", i)), b - a))
    return FlowDiffGraph(instance, excluded, tuple(sorted(arcs)))


@dataclass(frozen=True)
class FlowPiece:
    """One path or cycle of the decomposition, with its flow and value."""

    vertices: tuple[Vertex, ...]
    flow: int
    value: Fraction


def _push(units: list[list[int]], vertices: Sequence[Vertex], flow: int) -> None:
    """Move ``flow`` units along a walk of the difference graph into ``units``.

    An agent -> good step hands the agent units of the good; a good ->
    agent step takes them back.
    """
    for u, w in zip(vertices, vertices[1:]):
        if u[0] == "agent":
            units[u[1]][w[1]] += flow
        else:
            units[w[1]][u[1]] -= flow


def _piece_value(graph: FlowDiffGraph, vertices: Sequence[Vertex]) -> Fraction:
    """A walk's value: the units it hands out minus those it takes back, on the cleared matrix."""
    denom, scaled = scaled_values(graph.instance)
    value = 0
    for u, w in zip(vertices, vertices[1:]):
        value += scaled[u[1]][w[1]] if u[0] == "agent" else -scaled[w[1]][u[1]]
    return Fraction(value, denom)


def decompose(graph: FlowDiffGraph) -> tuple[FlowPiece, ...]:
    """Peel the arc flows into paths from the excluded agent.

    Deterministic: sources and next-hops are taken in ascending vertex
    order, so repeated runs decompose identically.  A cycle or a path
    from any other source raises FlowCertError carrying the offending
    piece; on the tie rule's optima neither arises (see
    :func:`normalize_excluded`).  The excess is the net outflow of the
    arcs left, so a walk always has an arc out of the source and of any
    vertex it entered whose excess is not negative; once the sources are
    spent every excess is 0, and the flow left is a circulation.
    """
    flow = dict(graph.arcs)
    excess = dict(graph.excess)
    out: dict[Vertex, list[Vertex]] = {}
    for (u, w) in sorted(flow):
        out.setdefault(u, []).append(w)

    def next_hop(u: Vertex) -> Vertex:
        return next(w for w in out[u] if (u, w) in flow)

    def reject_cycle(walk: list[Vertex], hop: Vertex) -> None:
        cycle = walk[walk.index(hop):] + [hop]
        amount = min(flow[(u, w)] for u, w in zip(cycle, cycle[1:]))
        piece = FlowPiece(tuple(cycle), amount, _piece_value(graph, cycle))
        raise FlowCertError(f"unexpected cycle {piece.vertices}", structure=piece)

    paths: list[FlowPiece] = []
    for source in sorted(v for v, chi in excess.items() if chi > 0):
        while excess[source] > 0:
            walk = [source]
            while excess.get(walk[-1], 0) >= 0:
                hop = next_hop(walk[-1])
                if hop in walk:
                    reject_cycle(walk, hop)
                walk.append(hop)
            target = walk[-1]
            arcs = list(zip(walk, walk[1:]))
            amount = min(excess[source], -excess[target], *(flow[arc] for arc in arcs))
            piece = FlowPiece(tuple(walk), amount, _piece_value(graph, walk))
            if source != ("agent", graph.excluded):
                raise FlowCertError(f"path from unexpected source {source}", structure=piece)
            for arc in arcs:
                flow[arc] -= amount
                if flow[arc] == 0:
                    del flow[arc]
            excess[source] -= amount
            excess[target] += amount
            paths.append(piece)
    if flow:  # what the paths leave is a circulation, so it holds a cycle
        walk = [min(flow)[0]]
        while (hop := next_hop(walk[-1])) not in walk:
            walk.append(hop)
        reject_cycle(walk, hop)
    return tuple(paths)


def normalize_excluded(
    instance: Instance,
    allocation: Allocation,
    allocation_excl: Allocation,
    excluded: int,
) -> tuple[FlowPiece, ...]:
    """Decompose the full optimum minus the reduced one into paths from ``excluded``.

    ``allocation`` is the full market's optimum ``M`` and
    ``allocation_excl`` the optimum ``E`` of the market without
    ``excluded``, both the ones the tie rule picks.  Their difference
    ``M - E`` then decomposes into paths from ``excluded`` alone, and
    those paths are returned; a cycle or a path from another source
    raises :class:`FlowCertError` carrying the offending
    :class:`FlowPiece`.

    The proof is complementary slackness with flow decomposition
    (Ahuja-Magnanti-Orlin, *Network Flows*, ch. 3 and 9).  Let ``P`` be a
    cycle, or a path from a source other than ``excluded``, carried by
    ``M - E``.  No arc enters ``excluded``, so ``P`` leaves its row
    alone, and every unit count and total that ``P`` moves stays between
    ``E``'s and ``M``'s, on pairs of positive value; so ``E + P`` is
    feasible without ``excluded`` and ``M - P`` is feasible with it.  A
    ``P`` of nonzero welfare makes one of them worth more than its
    market's optimum.  A ``P`` of zero welfare makes one of them
    lexicographically larger at equal welfare, since the rule reads the
    agents in (capacity, index) order in both markets: ``excluded`` has
    capacity 0 only in the reduced market, but its rows in ``E`` and in
    ``P`` are empty, and the other agents keep their order.  Either way
    one of the two optima would not be the canonical one.
    """
    return decompose(build_flow_diff_graph(instance, allocation, allocation_excl, excluded))


@dataclass(frozen=True)
class NoEnvyCertificate:
    """Witness allocation proving the envy inequality for one agent pair.

    ``value`` is the witness's welfare on the market without ``lo``;
    ``floor`` is the bound it must meet: the reduced optimum's welfare
    plus what ``hi`` gains by taking over ``lo``'s bundle.
    """

    hi: int
    lo: int
    allocation: Allocation
    value: Fraction
    floor: Fraction

    @property
    def holds(self) -> bool:
        return self.value >= self.floor


def build_no_envy_certificate(instance: Instance, agent_hi: int, agent_lo: int) -> NoEnvyCertificate:
    """Construct and verify the takeover allocation for a capacity-ordered pair.

    Starting from the optimum without ``hi``, agent ``hi`` absorbs
    ``lo``'s overlap with the full optimum (stage two), then the
    decomposition paths through ``lo`` are rerouted up to ``lo`` (stage
    three), leaving ``lo`` empty-handed.  The result must be feasible on
    the market without ``lo`` and worth at least the certified floor;
    any failure raises.  The market keeps each ``hi``'s checked paths,
    so one difference graph serves every ``lo`` of that ``hi``.
    """
    if not (_is_agent(instance, agent_hi) and _is_agent(instance, agent_lo)) or agent_hi == agent_lo:
        raise ValueError("need two distinct valid agent indices")
    if instance.agent_capacity[agent_hi] < instance.agent_capacity[agent_lo]:
        raise ValueError("first agent must have the weakly larger capacity")
    full = social_optimum(instance)
    reduced = optimum_without(instance, agent_hi)
    checked = getattr(instance, "_excluded_paths", None)  # by hi, kept with the market
    if checked is None:
        object.__setattr__(instance, "_excluded_paths", checked := {})
    paths = checked.get(agent_hi)
    if paths is None:
        paths = checked[agent_hi] = normalize_excluded(instance, full.allocation, reduced.allocation, agent_hi)

    units = [list(row) for row in reduced.allocation.units]
    # Stage two: hi takes over the part of lo's reduced bundle that the
    # full optimum also gives lo.
    for j in range(instance.n_goods):
        overlap = min(full.allocation.units[agent_lo][j],
                      reduced.allocation.units[agent_lo][j])
        units[agent_lo][j] = reduced.allocation.units[agent_lo][j] - overlap
        units[agent_hi][j] = overlap
    # Stage three: reroute every decomposition path through lo, up to lo.
    lo_vertex = ("agent", agent_lo)
    for piece in paths:
        if lo_vertex not in piece.vertices:
            continue
        cut = piece.vertices.index(lo_vertex) + 1
        _push(units, piece.vertices[:cut], piece.flow)
    try:
        witness = Allocation(tuple(tuple(row) for row in units))
    except InvalidInstanceError as exc:
        raise FlowCertError(f"takeover allocation malformed: {exc}") from exc
    if any(witness.units[agent_lo]):
        raise FlowCertError("takeover allocation still assigns goods to the low agent",
                            structure=witness)
    problems = allocation_violations(instance, witness)
    if problems:
        raise FlowCertError("takeover allocation infeasible: " + "; ".join(problems),
                            structure=witness)
    lo_bundle = full.allocation.units[agent_lo]  # at most cap_lo <= cap_hi units: valued linearly
    denom, rows = scaled_values(instance)
    gap = sum(u * (rows[agent_hi][j] - rows[agent_lo][j]) for j, u in enumerate(lo_bundle))
    floor = reduced.welfare + Fraction(gap, denom)
    certificate = NoEnvyCertificate(
        agent_hi, agent_lo, witness, total_value(instance, witness), floor
    )
    if not certificate.holds:
        raise FlowCertError(
            f"certificate inequality failed: value {certificate.value} < floor {floor}",
            structure=certificate,
        )
    return certificate


# ---------------------------------------------------------------------------
# Two-agent shape classification and the positive-transfer chain driver
# ---------------------------------------------------------------------------

TwoAgentClass = Literal["A", "B1", "B1plus", "B2", "tie"]


def _shape_params(instance: Instance) -> tuple[int, Fraction, Fraction, Fraction, Fraction]:
    """Validate the two-effective-agent shape; returns (cap, a, b, d, e).

    Shape: heterogeneous capacities (cap, > cap), at least cap+1 unit
    goods, zero values outside the first two rows and first cap+1
    columns, and a single repeated value on columns 2..cap+1 per agent.
    """
    n, m = instance.n_agents, instance.n_goods
    if n < 2:
        raise ValueError("need at least two agents")
    denom, rows = scaled_values(instance)
    for i in range(2, n):
        if any(rows[i]):
            raise ValueError(f"agent {i} must be a zero row in this shape")
    cap = instance.agent_capacity[0]
    if cap < 1:
        raise ValueError("first agent needs positive capacity")
    if instance.agent_capacity[1] <= cap:
        raise ValueError("second agent must have strictly larger capacity")
    if m < cap + 1:
        raise ValueError(f"need at least {cap + 1} goods")
    if any(q != 1 for q in instance.good_supply):
        raise ValueError("shape requires unit supplies")
    for i in (0, 1):
        row = rows[i]
        if any(row[j] != 0 for j in range(cap + 1, m)):
            raise ValueError(f"agent {i} must value goods beyond {cap + 1} at zero")
        if any(row[j] != row[1] for j in range(2, cap + 1)):
            raise ValueError(f"agent {i} must value goods 2..{cap + 1} equally")
    return (cap, *(Fraction(rows[i][j], denom) for i in (0, 1) for j in (0, 1)))


def classify_two_agent(instance: Instance) -> TwoAgentClass:
    """Which optimum shape the instance falls into; exact ties are reported, never broken."""
    cap, a, b, d, e = _shape_params(instance)
    if d > a and e > b:
        return "A"
    if cap == 1:
        if a - d > max(ZERO, b - e):
            return "B1"
        if b - e > max(ZERO, a - d):
            return "B2"
    else:
        if a > d and b < e:
            return "B1"
        if a - d > b - e and b > e:
            return "B1plus"
        if b - e > max(ZERO, a - d):
            return "B2"
    return "tie"


def chain_profiles(cap: int, x: Fraction, eps: Fraction) -> tuple[Instance, Instance, Instance]:
    """The three valuation profiles driving the positive-transfer argument.

    All on capacities (cap, cap+1) with cap+1 unit goods: (a) only the
    small agent cares, (b) both care with the small agent slightly
    ahead, (c) only the large agent cares with the same row as (b).
    """
    x, eps = _as_rat(x), _as_rat(eps)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    _as_counts((cap,), "capacity")
    if cap < 1:
        raise ValueError(f"capacity must be at least 1, got {cap}")
    m = cap + 1
    strong = (x + 3 * eps,) + (x + eps,) * (m - 1)
    rival = (x + eps,) + (x,) * (m - 1)
    zeros = (ZERO,) * m
    caps = (cap, cap + 1)
    supplies = (1,) * m
    profile_a = Instance(caps, supplies, (strong, zeros))
    profile_b = Instance(caps, supplies, (strong, rival))
    profile_c = Instance(caps, supplies, (zeros, rival))
    return profile_a, profile_b, profile_c


def _verify_optimum(instance: Instance, agent0_goods: set[int], agent1_goods: set[int],
                    label: str) -> None:
    opt = social_optimum(instance)
    for i, goods in ((0, agent0_goods), (1, agent1_goods)):
        got = {j for j, u in enumerate(opt.allocation.units[i]) if u}
        # Goods the agent values at zero never show up in the canonical optimum.
        expected = {j for j in goods if scaled_values(instance)[1][i][j] > 0}
        if got != expected:
            raise FlowCertError(
                f"{label}: agent {i} holds {sorted(got)}, expected {sorted(expected)}",
                structure=opt.allocation,
            )


def positive_transfer_chain(cap: int, x: Fraction, eps: Fraction) -> ChainReport:
    """Replay the exact chain forcing positive transfers on heterogeneous capacities.

    Any efficient incentive-compatible mechanism prices agent 0 through
    a pivot term h0 of the opponent row.  Envy-freeness on profiles (a)
    and (b) sandwiches h0 between its value on the zero row and the
    no-envy constants; refusing to pay agents on profile (c) then forces
    h0(zero row) >= x - cap*eps, which no fixed pivot can satisfy for
    all x.  The conclusion of the report is that lower bound.
    """
    profile_a, profile_b, profile_c = chain_profiles(cap, x, eps)
    x, eps = _as_rat(x), _as_rat(eps)
    warmup = cap == 1
    expected_class: TwoAgentClass = "B1" if warmup else "B1plus"
    for label, profile, want in (
        ("profile-a", profile_a, expected_class),
        ("profile-b", profile_b, expected_class),
        ("profile-c", profile_c, "A"),
    ):
        got = classify_two_agent(profile)
        if got != want:
            raise FlowCertError(f"{label} classified {got}, expected {want}")

    small_bundle = set(range(cap))
    last = {cap}
    every = set(range(cap + 1))
    _verify_optimum(profile_a, small_bundle, last, "profile-a")
    _verify_optimum(profile_b, small_bundle, last, "profile-b")
    _verify_optimum(profile_c, set(), every, "profile-c")

    steps: list[ChainStep] = []
    # Profile (a): agent 1 not envying agent 0 bounds h1(strong) - h0(0...)
    # by agent 0's edge on her own bundle.
    small_row, last_row = (1,) * cap + (0,), (0,) * cap + (1,)
    edge_a = bundle_value(profile_a, 0, small_row) - bundle_value(profile_a, 1, small_row)
    steps.append(
        checked_step("cc1" if warmup else "cc1g", edge_a, "=",
                     cap * x + (cap + 2) * eps, "no-envy-of-small-agent")
    )
    # Profile (b): agent 0 not envying agent 1 bounds h0(rival) - h1(strong)
    # by her deficit on the large agent's bundle.
    edge_b = bundle_value(profile_b, 1, last_row) - bundle_value(profile_b, 0, last_row)
    steps.append(
        checked_step("cc2" if warmup else "cc11g", edge_b, "=", -eps, "no-envy-of-large-agent")
    )
    combined = edge_a + edge_b
    steps.append(
        checked_step("cc3" if warmup else "ccc", combined, "=",
                     cap * x + (cap + 1) * eps, "h0-gap-bound")
    )
    # Profile (c): charging agent 0 a non-negative payment needs
    # h0(rival) to cover the large agent's realized value.
    rival_total = bundle_value(profile_c, 1, (1,) * (cap + 1))
    steps.append(checked_step("npt1", rival_total, "=", (cap + 1) * x + eps, "npt-floor"))
    conclusion = rival_total - combined
    steps.append(checked_step("conclusion", conclusion, "=", x - cap * eps, "h0-at-zero-floor"))
    return ChainReport(tuple(steps), conclusion)
