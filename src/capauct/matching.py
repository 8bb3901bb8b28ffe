"""Exact winner determination for capacitated markets.

The social optimum is a maximum-weight bipartite b-matching: source ->
agent arcs carry agent capacities, agent -> good arcs carry per-unit
values, good -> sink arcs carry supplies.  One loop, :func:`_insert`,
solves every market: it adds an agent to an optimal flow of the market
without it by pushing negative cycles through the agent's source arc,
none through a zero-value pair, so worthless goods stay unallocated.
The social run inserts the agents in index order into the empty flow,
and a misreport re-inserts its agent into the agent's pivot under the
reported row (:func:`_reported_markets`), on a copy of the pivot's
network that shares its ``out`` and rewrites that row's arcs; a probe's
misreports share one rescaling of the pivot's costs and potentials.

The pivot, the optimum without one agent (Clarke), is the optimum of
the market where that agent's capacity is 0.  It repairs a copy of the
social run's final network and keeps it: its welfare at once, its
allocation, only when read, by canonicalizing the repair.  One
shortest-path tree per market gives the first unit of every agent whose
source arc is full (after Hershberger-Suri's Vickrey prices).  Each
market object keeps its own run, tree and pivots as long as it lives,
so the n + 1 optima of a market share its work.

Every path comes from one search on reduced costs, :func:`_search`,
which settles each distance level breadth-first and puts only larger
distances on its heap.  The social run starts from zero potentials and
keeps its final ones for the repairs.  Ties are broken by one stated
rule, not by search order: :meth:`_FlowNetwork.canonicalize` moves each
optimum to the one whose units matrix is lexicographically largest (see
:func:`social_optimum`).

One more search, from the sink over the kept network on its kept
potentials, gives the node potentials that price the goods (see
:mod:`capauct.walrasian`).  :func:`bellman_ford` finds the negative
cycles of ``audit.ef_payment_feasible``.  All arithmetic is on integers,
the denominators cleared up front, so results are exact.
"""

from __future__ import annotations

import functools
from copy import copy
from dataclasses import dataclass
from heapq import heappop, heappush
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Any, Optional, Sequence

from .core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    _derive,
    _is_agent,
    allocation_violations,
    scaled_values,
    total_value,
)


class MatchingError(RuntimeError):
    """Raised when solver state contradicts optimality (indicates a bug)."""


@dataclass(frozen=True)
class OptResult:
    """A welfare-maximizing allocation, optionally with one agent removed.

    :func:`optimum_without` defers the allocation: its result keeps the
    repaired network, which is canonicalized on the first read of
    ``allocation``, a cached property set after ``@dataclass``.
    """

    allocation: Allocation
    welfare: Fraction
    excluded_agent: Optional[int] = None


def bellman_ford(
    arcs: Sequence[tuple[int, int, Any]], dist: list[Optional[Any]]
) -> tuple[list[int], Optional[int]]:
    """Relax ``(tail, head, cost)`` arcs into ``dist`` in place (Bellman-Ford).

    ``dist`` holds the seeded distances, None meaning unreached.  Each
    round scans the arcs in list order and moves a head only on strict
    improvement.  Negative costs are allowed, and so are negative
    cycles, which is what its callers need it for.

    Returns ``(via, cycle)``: ``via[v]`` is the index of the arc that
    last improved ``v`` (-1 if none), and ``cycle`` is a node on a
    negative cycle reachable from the seeds, or None when the distances
    are final shortest distances.
    """
    size = len(dist)
    via = [-1] * size
    for _ in range(size + 1):
        last = None
        for k, (tail, head, cost) in enumerate(arcs):
            base = dist[tail]
            if base is None:
                continue
            cand = base + cost
            old = dist[head]
            if old is None or cand < old:
                dist[head] = cand
                via[head] = k
                last = head
        if last is None:
            return via, None
    # Still improving after every simple path had its rounds: a negative
    # cycle feeds ``last``, and walking ``size`` arcs back lands on it.
    for _ in range(size):
        last = arcs[via[last]][0]
    return via, last


class _FlowNetwork:
    """Min-cost-flow network over nodes [source, agents, goods, sink].

    Each arc is held once, as ``(a, head)`` in ``out[tail]``, in id order,
    with its residual capacity in ``caps[a]`` and its cost in ``cost[a]``,
    and is paired with its reverse ``a ^ 1``, whose residual capacity is
    the flow ``a`` carries and whose cost is ``-cost[a]``.  Arc ids, and so
    ``out``, depend on (n, m) alone: the source arcs by agent
    (agent ``i``'s is ``2 * i``), then an agent -> good arc for every
    pair, by agent and good index (:meth:`pair_arcs`), then the good ->
    sink arcs by good, and last the zero-cost source -> sink arc, through
    which units go unsold.  So ``out[1 + i][1:]`` holds agent ``i``'s arcs
    to goods, after its reverse source arc, and its arc pairs to goods are
    one slice of ``cost`` and of ``caps``.  A zero-value pair's arc has
    capacity 0, so no search and no canonicalization uses it.  :meth:`run`
    opens the source <-> sink pair both ways at the total supply, and a
    canonicalized network holds it so.  Costs are values times ``denom``,
    the market's common denominator.  After :meth:`run`, ``pi`` holds
    potentials under which every residual arc, the source <-> sink pair
    included, has a reduced cost ``cost[a] + pi[tail] - pi[head]`` of at
    least 0.
    """

    def __init__(self, instance: Instance):
        n, m = instance.n_agents, instance.n_goods
        self.n, self.m = n, m
        self.source = 0
        self.sink = n + m + 1
        self.size = n + m + 2
        self.caps: list[int] = []
        self.cost: list[int] = []
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(self.size)]
        self.pi: list[int] = []
        self.denom, scaled = scaled_values(instance)
        for i in range(n):
            self._add_arc(self.source, 1 + i, instance.agent_capacity[i], 0)
        for i in range(n):
            cap_i = instance.agent_capacity[i]
            for j in range(m):
                w = scaled[i][j]
                # a zero-value pair gets no capacity, so worthless goods stay unallocated
                self._add_arc(1 + i, 1 + n + j, min(cap_i, instance.good_supply[j]) if w > 0 else 0, -w)
        for j in range(m):
            self._add_arc(1 + n + j, self.sink, instance.good_supply[j], 0)
        self._add_arc(self.source, self.sink, 0, 0)

    def __copy__(self) -> "_FlowNetwork":
        """A copy that shares every list, made faster than by the generic protocol."""
        twin = object.__new__(_FlowNetwork)
        twin.__dict__.update(self.__dict__)
        return twin

    def _add_arc(self, u: int, v: int, cap: int, cost: int) -> None:
        arc = len(self.caps)
        self.caps += (cap, 0)
        self.cost += (cost, -cost)
        self.out[u].append((arc, v))
        self.out[v].append((arc + 1, u))

    def pair_arcs(self, agent: Optional[int] = None) -> range:
        """Ids of the agent -> good arcs of ``agent``, or of every agent, without their reverses."""
        first, m = 2 * self.n, self.m
        if agent is None:
            return range(first, first + 2 * self.n * m, 2)
        return range(first + 2 * agent * m, first + 2 * (agent + 1) * m, 2)

    def run(self) -> None:
        """Solve the market by inserting its agents, in index order, into the empty flow.

        Zero potentials price the empty flow's reachable arcs, the good ->
        sink arcs and the source <-> sink pair, opened both ways at the
        total supply, all at cost 0.  An agent not yet inserted is reached
        only from the source, where every :func:`_insert` search stops, so
        its arcs need no price.  :meth:`canonicalize` applies the tie rule.
        """
        self.pi = [0] * self.size
        self.caps[-2:] = [sum(self.caps[self.pair_arcs().stop:-2])] * 2
        for agent in range(self.n):
            _insert(self.out, self.cost, self.caps, self.pi, agent)
        self.canonicalize()

    def canonicalize(self) -> None:
        """Move an optimal flow to the optimum that the tie rule picks.

        ``pi`` must hold potentials under which the flow's residual arcs
        and both source <-> sink arcs have reduced costs of at least 0.
        The loop works on ``caps`` in place, with the source <-> sink pair
        open both ways at the total supply, and leaves the pair so.
        By complementary slackness, the optima are then exactly the flows
        that differ from this one on tight (zero reduced-cost) residual
        arcs (Ahuja-Magnanti-Orlin, *Network Flows*, ch. 9), source <->
        sink arcs included, so the number of units sold may change.  Each
        agent -> good arc, in the rule's order, gets its reverse frozen,
        its flow raised by breadth-first paths from its head back to its
        tail over unfrozen tight arcs (Edmonds-Karp), and is then frozen
        itself.  On a unique optimum every such search fails, so no flow
        moves; a canonical optimum is a fixed point of the loop.
        """
        out, cost, caps, pi, n = self.out, self.cost, self.caps, self.pi, self.n
        total = sum(caps[self.pair_arcs().stop:-2])  # every unit of every good
        caps[-2:] = total, total
        tight = [[(arc, head) for arc, head in arcs_out
                  if cost[arc] + pi[tail] == pi[head] and (caps[arc] or caps[arc ^ 1])]
                 for tail, arcs_out in enumerate(out)]
        frozen = bytearray(len(caps))
        agents = sorted(range(n), key=lambda i: (caps[2 * i] + caps[2 * i + 1], i))
        for agent in [1 + i for i in agents]:
            for arc, good in out[agent][1:]:
                frozen[arc ^ 1] = 1
                while caps[arc] and cost[arc] + pi[agent] == pi[good]:
                    via = {good: (-1, -1)}
                    queue = [good]
                    for node in queue:
                        for step, head in tight[node]:
                            if caps[step] and not frozen[step] and head not in via:
                                via[head] = (step, node)
                                queue.append(head)
                        if agent in via:
                            break
                    else:  # no cycle through the arc is left: no optimum gives it more
                        break
                    path, node = [arc], agent
                    while node != good:
                        step, node = via[node]
                        path.append(step)
                    _push(caps, path, min(caps[step] for step in path))
                frozen[arc] = 1
        caps[-2:] = total, total  # wherever the pushes left the pair

    def allocation(self) -> Allocation:
        pairs, m = self.pair_arcs(), self.m
        flows = self.caps[pairs.start + 1:pairs.stop:2]  # a reverse arc's capacity is the flow
        return Allocation(tuple(tuple(flows[i * m:i * m + m]) for i in range(self.n)))


def _checked_allocation(instance: Instance, net: _FlowNetwork) -> Allocation:
    """The network's allocation, checked against the instance's capacities and supplies."""
    allocation = net.allocation()
    problems = allocation_violations(instance, allocation)
    if problems:
        raise MatchingError("solver produced infeasible allocation: " + "; ".join(problems))
    return allocation


def _flow_value(net: _FlowNetwork) -> Fraction:
    """The welfare of the network's flow: minus the cost of its agent -> good arcs."""
    pairs = net.pair_arcs()  # each arc's flow is its reverse's capacity
    flows = net.caps[pairs.start + 1:pairs.stop:2]
    return Fraction(-sum(map(mul, net.cost[pairs.start:pairs.stop:2], flows)), net.denom)


def _social_run(instance: Instance):
    """The instance's ``(network, pivots, result)``, solved once and kept on it.

    ``pivots[i]`` keeps agent i's :func:`optimum_without` result and
    ``pivots[n]`` the market's tree, each filled on first request.
    :meth:`_FlowNetwork.run` inserts every agent into the empty flow; a
    market that :func:`_reported_markets` derives gets its run from
    inserting one agent into a pivot.  Nothing in the run refers back to
    the instance, so it is freed with it.  The network is never mutated
    (searches only read it; writers copy ``cost``, ``caps`` and ``pi``),
    and threads that race to solve one market, or to fill one slot, store
    equal results, so no lock is needed.
    """
    run = getattr(instance, "_run", None)
    if run is None:
        net = _FlowNetwork(instance)
        net.run()
        allocation = _checked_allocation(instance, net)
        result = OptResult(allocation, total_value(instance, allocation))
        run = (net, [None] * (instance.n_agents + 1), result)
        object.__setattr__(instance, "_run", run)
    return run


def _dijkstra(out: list[list[tuple[int, int]]], cost: list[int], caps: list[int], pi: list[int],
              source: int, target: int) -> Optional[tuple[int, list[int]]]:
    """The :func:`_step` of a :func:`_search` stopped at ``target``."""
    return _step(_search(out, cost, caps, pi, source, target), pi, source, target)


def _search(out: list[list[tuple[int, int]]], cost: list[int], caps: list[int], pi: list[int], source: int,
            target: Optional[int] = None) -> tuple[list[Optional[int]], list[tuple[int, int]], list[int]]:
    """Shortest-path tree ``(dist, via, order)`` from ``source``, on reduced costs.

    A Dijkstra over the arcs of ``out`` with costs in ``cost`` and
    capacity in ``caps``, stopped once ``target``, if given, is settled:
    distances (None if unreached), each node's arc in and its tail, and
    the settled nodes in order.  Each distance level settles
    breadth-first: a node popped at ``d`` opens a FIFO level that the
    tight arcs (reduced cost 0) grow, and only larger distances go on the
    heap (Kuhn-Munkres).  An arc of negative reduced cost raises.
    """
    dist: list[Optional[int]] = [None] * len(pi)
    via = [(-1, -1)] * len(pi)
    order: list[int] = []
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if d != dist[u]:
            continue  # stale: settled nodes never improve, so each is popped once at d
        level = [u]
        for u in level:
            order.append(u)
            if u == target:
                return dist, via, order
            base = d + pi[u]
            for arc, v in out[u]:
                if caps[arc]:
                    reach = base + cost[arc] - pi[v]
                    if reach < d:
                        raise MatchingError("negative reduced cost: the potentials are not feasible")
                    old = dist[v]
                    if old is None or reach < old:
                        dist[v] = reach
                        via[v] = (arc, u)
                        if reach == d:
                            level.append(v)  # settles in this level; any heap entry goes stale
                        else:
                            heappush(heap, (reach, v))
    return dist, via, order


def _step(tree: tuple[list[Optional[int]], list[tuple[int, int]], list[int]], pi: list[int],
          source: int, target: int) -> Optional[tuple[int, list[int]]]:
    """Cost and arc ids of the tree's ``source`` -> ``target`` path; None if unreached.

    Each ``pi[v]`` gains ``min(dist(v) - dist(target), 0)``, which keeps
    reduced costs non-negative after a push along the path (Tomizawa).
    """
    dist, via, order = tree
    d = dist[target]
    if d is None:
        return None
    cost = d + pi[target] - pi[source]
    for v in order:
        if dist[v] >= d:
            break
        pi[v] += dist[v] - d
    path = []
    while target != source:
        arc, target = via[target]
        path.append(arc)
    return cost, path


def _push(caps: list[int], path: list[int], flow: int) -> None:
    """Push ``flow`` along ``path``: each arc loses that capacity and its reverse gains it."""
    for arc in path:
        caps[arc] -= flow
        caps[arc ^ 1] += flow


def social_optimum(instance: Instance) -> OptResult:
    """The welfare-maximizing allocation that the tie rule picks.

    Among the optima that use only positive-value pairs, it is the one
    whose units matrix is lexicographically largest, read row by row
    with the agents in ascending (capacity, index) order and the goods in
    index order.  Capacities, not indices, rank agents whose capacities
    differ: in a two-agent market with different capacities, swapping the
    agents swaps their rows, which keeps ``topc`` payments mirrored.
    """
    return _social_run(instance)[2]


def optimum_without(instance: Instance, agent: int) -> OptResult:
    """Social optimum of the market in which ``agent`` has capacity 0.

    The welfare comes from repairing the social run's final network: the
    agent's source arc closes and a zero-cost source -> sink arc lets a
    unit be dropped.  Each step pushes flow along a shortest source ->
    agent path on the social run's kept potentials, and back over the
    agent -> source arc.  If the agent's source arc is full, the first
    search differs from the market's one tree only in arcs leaving the
    agent, so the first unit takes the tree's path.  No search leaves the
    agent, so its arcs to goods need no closing.  These are successive
    shortest paths (Tomizawa; Edmonds-Karp) from a residual graph without
    negative cycles, so each path's cost is the welfare its units lose.

    The result keeps the repaired flow and potentials.  Its allocation,
    whose row for ``agent`` is empty, is read on first request by
    canonicalizing a copy of that network, so the tie rule picks it and
    no market is solved again.  The result is kept in the agent's pivot
    slot of the market's run.
    """
    if not _is_agent(instance, agent):
        raise IndexError(f"agent index {agent} out of range")
    return _pivot(instance, agent)


def _pivot(instance: Instance, agent: int) -> OptResult:
    """:func:`optimum_without` of a valid ``agent``, repaired once and kept."""
    net, pivots, social = _social_run(instance)
    if pivots[agent] is not None:
        return pivots[agent]
    pi, source, node = net.pi[:], net.source, 1 + agent
    units = net.caps[2 * agent + 1]  # the agent's flow, on its reverse source arc
    tree = None
    if units and not net.caps[2 * agent]:  # the market's tree, on the kept flow
        tree = pivots[-1] = pivots[-1] or _search(net.out, net.cost, net.caps, net.pi, source)
    caps = net.caps[:]
    caps[2 * agent] = caps[2 * agent + 1] = 0  # the agent's source arc, closed and emptied
    lost = 0
    while units:
        found = (_step(tree, pi, source, node) if tree
                 else _dijkstra(net.out, net.cost, caps, pi, source, node))
        tree = None
        if found is None:
            raise MatchingError(f"agent {agent}'s flow has no way back to the source")
        cost, path = found
        flow = min(units, *(caps[arc] for arc in path))
        _push(caps, path, flow)
        units -= flow
        lost += cost * flow
    result = object.__new__(OptResult)  # in field order, the allocation deferred
    object.__setattr__(result, "welfare", social.welfare - Fraction(lost, net.denom))
    object.__setattr__(result, "excluded_agent", agent)
    object.__setattr__(result, "_repaired", (net, caps, pi))
    pivots[agent] = result
    return result


def _pivot_allocation(pivot: OptResult) -> Allocation:
    """The tie rule's optimum of a pivot's market, read off its repaired network.

    A copy of the network gets the repaired flow, the excluded agent's
    arcs to goods closed as in a market where its capacity is 0, and the
    repaired potentials, which are optimal for that market;
    canonicalizing it applies the tie rule.
    """
    net, caps, pi = pivot._repaired
    reduced = copy(net)
    reduced.caps = caps[:]
    for arc in net.pair_arcs(pivot.excluded_agent):
        reduced.caps[arc] = 0
    reduced.pi = pi
    reduced.canonicalize()
    allocation = reduced.allocation()
    if _flow_value(reduced) != pivot.welfare:
        raise MatchingError("the canonical pivot allocation lost the repair's welfare")
    return allocation


OptResult.allocation = functools.cached_property(_pivot_allocation)
OptResult.allocation.__set_name__(OptResult, "allocation")


def _insert(out: list[list[tuple[int, int]]], cost: list[int], caps: list[int], pi: list[int],
            agent: int) -> None:
    """Give ``agent``, which holds no flow, its units by pushing negative cycles.

    ``pi`` must price each residual arc that a search from the agent can
    reach at a reduced cost of at least 0.  The agent's potential is set
    so that its arcs to goods are priced so too; only its source arc may
    be negative.  While the agent has spare capacity, one :func:`_dijkstra`
    finds the shortest agent -> source path, over the sink -> source arc
    too, and the source arc closes it into a cycle; a negative cycle is
    pushed (Tomizawa; Edmonds-Karp), so ``k`` units take at most ``k + 1``
    searches and capacity 0 none.  The last search leaves the source arc's
    reduced cost at the cycle's cost, at least 0: ``pi`` ends optimal.
    """
    node = 1 + agent
    # over the arcs to goods with capacity and the agent -> source arc, so pi[node] >= pi[source]
    pi[node] = max(pi[head] - cost[arc] for arc, head in out[node] if caps[arc] or head == 0)
    while caps[2 * agent]:
        found = _dijkstra(out, cost, caps, pi, node, 0)
        if found is None or found[0] >= 0:
            break
        path = found[1] + [2 * agent]  # the source arc closes the cycle
        _push(caps, path, min(caps[arc] for arc in path))


def _reported_markets(instance: Instance, agent: int, rows: Sequence[Sequence]) -> list[Instance]:
    """The markets where the agent reports each of ``rows``, each with its social run kept on it.

    The reported market without the agent is the truthful one without
    it, so its optimum is the agent's pivot with the agent re-inserted by
    :func:`_insert`.  Every row is checked and derived by :func:`_derive`
    before any re-insertion, so a malformed row raises before the first.
    The pivot's repaired costs and potentials are scaled once, onto the
    lcm ``L`` of its network's denominator and every row's denominators.
    Each market then gets slice copies of them and of the repaired
    capacities, in which the agent's m arc pairs to goods, one slice of
    ``cost`` and one of ``caps``, and its source arc's capacity are
    rewritten; no network is built, as the copies share the pivot
    network's ``out``.  The network is canonicalized as a social run is,
    and its welfare is read off its flow, so no reported market clears its
    pair until it is read.  Its pivot slot for the agent holds the
    truthful pivot.
    """
    pivot = _pivot(instance, agent)
    old, caps, pi = pivot._repaired
    reported = [_derive(instance, agent, row) for row in rows]
    rows = [market._derived[2] for market in reported]  # checked, as exact rationals
    common = lcm(old.denom, *(v.denominator for row in rows for v in row))
    scale = common // old.denom
    cost, pi = [c * scale for c in old.cost], [p * scale for p in pi]
    capacity, new = instance.agent_capacity[agent], old.pair_arcs(agent)
    for market, row in zip(reported, rows):
        values = [v.numerator * (common // v.denominator) for v in row]
        net = copy(old)
        net.cost, net.caps, net.pi, net.denom = cost[:], caps[:], pi[:], common
        net.cost[new.start:new.stop] = [c for w in values for c in (-w, w)]
        net.caps[new.start:new.stop] = [c for w, q in zip(values, instance.good_supply)
                                        for c in (min(capacity, q) if w > 0 else 0, 0)]
        net.caps[2 * agent] = capacity
        _insert(net.out, net.cost, net.caps, net.pi, agent)
        net.canonicalize()
        pivots = [None] * (instance.n_agents + 1)
        pivots[agent] = pivot  # the same market without the agent
        result = OptResult(_checked_allocation(market, net), _flow_value(net))
        object.__setattr__(market, "_run", (net, pivots, result))
    return reported


def _reported_market(instance: Instance, agent: int, row: Sequence) -> Instance:
    """The one-row case of :func:`_reported_markets`: ``instance`` with the agent reporting ``row``."""
    [market] = _reported_markets(instance, agent, [row])
    return market


#: Largest state bound :func:`brute_force_optimum` will enumerate.
STATE_LIMIT = 10**7


def brute_force_optimum(instance: Instance) -> OptResult:
    """Exhaustive welfare maximization; the test oracle for the flow solver.

    Enumerates, good by good, every split of each good's supply among
    the agents (plus the option of leaving units unsold), pruning only
    on exhausted agent capacity and skipping units on zero-value pairs.
    Among the splits of largest welfare it keeps the one that
    :func:`social_optimum`'s tie rule picks, so it checks allocations as
    well as welfare.  Completely independent of the flow
    solver.  Raises when the state bound prod (n+1)^supply_j exceeds
    :data:`STATE_LIMIT`.
    """
    states = prod((instance.n_agents + 1) ** q for q in instance.good_supply)
    if states > STATE_LIMIT:
        raise InvalidInstanceError(f"instance too large for enumeration ({states} states)")
    n, m = instance.n_agents, instance.n_goods
    denom, scaled = scaled_values(instance)
    order = sorted(range(n), key=lambda i: (instance.agent_capacity[i], i))
    splits_cache: dict[int, list[tuple[int, ...]]] = {}

    def splits(supply: int) -> list[tuple[int, ...]]:
        # all ways of handing out at most `supply` units to n agents
        if supply in splits_cache:
            return splits_cache[supply]
        result: list[tuple[int, ...]] = [()]
        for _ in range(n):
            result = [prev + (k,) for prev in result for k in range(supply - sum(prev) + 1)]
        splits_cache[supply] = result
        return result

    best_value = 0
    best_units: list[tuple[int, ...]] = [(0,) * m for _ in range(n)]
    remaining = list(instance.agent_capacity)
    units: list[list[int]] = [[0] * m for _ in range(n)]

    def walk(good: int, value: int) -> None:
        nonlocal best_value, best_units
        if good == m:
            if value > best_value or value == best_value and (
                    [units[i] for i in order] > [list(best_units[i]) for i in order]):
                best_value = value
                best_units = [tuple(row) for row in units]
            return
        for split in splits(instance.good_supply[good]):
            gained = 0
            ok = True
            for i, k in enumerate(split):
                if k > remaining[i] or k and not scaled[i][good]:
                    ok = False
                    break
                gained += k * scaled[i][good]
            if not ok:
                continue
            for i, k in enumerate(split):
                remaining[i] -= k
                units[i][good] = k
            walk(good + 1, value + gained)
            for i, k in enumerate(split):
                remaining[i] += k
                units[i][good] = 0

    walk(0, 0)
    return OptResult(Allocation(tuple(best_units)), Fraction(best_value, denom), None)


def node_potentials(
    instance: Instance,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction, Fraction]:
    """Dual potentials of the market's social optimum, from its kept run.

    Shortest distances from the sink over the residual arcs of the
    network the social run keeps, the source <-> sink pair included
    (flow value is unconstrained at a welfare optimum).  The run's kept
    ``pi`` prices every residual arc at a reduced cost of at least 0, so
    one :func:`_search` from the sink finds them, ``dist(v) = reduced(v)
    + pi[v] - pi[sink]``; it writes neither ``caps`` nor ``pi``, so the
    kept network is read, not copied.  Being shortest distances, these
    are the pointwise-largest feasible potentials with the sink anchored
    at zero, which makes the derived good prices the buyer-optimal ones.
    Unreachable nodes (all-zero-value goods nobody holds) get potential 0.
    Returns (agent, good, source, sink) potentials as exact rationals; a
    residual arc of negative reduced cost raises MatchingError.
    """
    net = _social_run(instance)[0]
    pi, sink, n = net.pi, net.sink, net.n
    dist = _search(net.out, net.cost, net.caps, pi, sink)[0]
    pot = [Fraction(0) if d is None else Fraction(d + p - pi[sink], net.denom) for d, p in zip(dist, pi)]
    return tuple(pot[1:1 + n]), tuple(pot[1 + n:sink]), pot[net.source], pot[sink]
