"""Exact winner determination for capacitated markets.

The social optimum is a maximum-weight bipartite b-matching: source ->
agent arcs carry agent capacities, agent -> good arcs carry per-unit
values, good -> sink arcs carry supplies.  We repeatedly augment along
the most valuable residual path and stop as soon as the best path has
non-positive marginal value.  This yields an integral optimum and keeps
zero-value goods unallocated.  The optimum without one agent (the
Clarke pivot) is the social optimum of the market in which that agent's
capacity is 0.  Its welfare comes from repairing a copy of the social
run's final network; its allocation, only when read, from the social run
of that reduced market.  Each market object keeps its own run and each
agent's pivot for as long as it lives, so the n + 1 optima of a market
share its work.

A copy of the kept network, loaded with an optimal allocation, gives
the node potentials that price the goods (see :mod:`capauct.walrasian`).
One Bellman-Ford, :func:`bellman_ford`, finds the social run's augmenting
paths, whose scan order is the tie rule, those potentials, each market's
Johnson potentials and the negative cycles of ``audit.ef_payment_feasible``.
The repairs' paths come from :func:`_dijkstra` on those Johnson potentials.

All internal arithmetic is integer (denominators cleared up front), so
results are exact.
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from dataclasses import dataclass
from heapq import heappop, heappush
from fractions import Fraction
from math import prod
from typing import Any, Optional, Sequence

from .core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    allocation_violations,
    scaled_values,
    total_value,
)


class MatchingError(RuntimeError):
    """Raised when solver state contradicts optimality (indicates a bug)."""


@dataclass(frozen=True)
class OptResult:
    """A welfare-maximizing allocation, optionally with one agent removed.

    :func:`optimum_without` defers the allocation: it is solved on first
    read and then kept on the result.
    """

    allocation: Allocation
    welfare: Fraction
    excluded_agent: Optional[int] = None

    def __getattr__(self, name: str) -> Any:
        # reached only while a deferred allocation is unread
        if name != "allocation" or "_solve" not in self.__dict__:
            raise AttributeError(name)
        self.__dict__["allocation"] = allocation = self._solve()
        return allocation


def bellman_ford(
    arcs: Sequence[tuple[int, int, Any]], dist: list[Optional[Any]]
) -> tuple[list[int], Optional[int]]:
    """Relax ``(tail, head, cost)`` arcs into ``dist`` in place (Bellman-Ford).

    ``dist`` holds the seeded distances, None meaning unreached.  Each
    round scans the arcs in list order and moves a head only on strict
    improvement, so among equally short paths the first one found in
    scan order wins.  This is the engine's tie rule: callers fix the
    arc order, and with it which optimum is canonical.

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

    Arc ``a`` is ``arcs[a] = (tail, head, cost)`` and is paired with its
    reverse ``a ^ 1``, whose residual capacity is the flow ``a``
    carries.  Arc ids run over the source arcs by agent (agent ``i``'s
    is ``2 * i``), then the agent -> good arcs by agent and good index,
    then the good -> sink arcs by good; ``residual`` lists arcs in id
    order, which is the scan order :func:`bellman_ford` breaks ties by.
    Every agent's arcs are built, a zero-capacity agent's with zero
    capacity, so markets that differ only in one agent's capacity share
    every arc id.
    """

    def __init__(self, instance: Instance):
        n, m = instance.n_agents, instance.n_goods
        self.n, self.m = n, m
        self.source = 0
        self.sink = n + m + 1
        self.size = n + m + 2
        self.arcs: list[tuple[int, int, int]] = []
        self.caps: list[int] = []
        denom, scaled = scaled_values(instance)
        self.denom = denom
        for i in range(n):
            self._add_arc(self.source, 1 + i, instance.agent_capacity[i], 0)
        for i in range(n):
            cap_i = instance.agent_capacity[i]
            for j in range(m):
                w = scaled[i][j]
                if w > 0:
                    # zero-value edges are omitted so worthless goods stay unallocated
                    self._add_arc(1 + i, 1 + n + j, min(cap_i, instance.good_supply[j]), -w)
        for j in range(m):
            self._add_arc(1 + n + j, self.sink, instance.good_supply[j], 0)

    def _add_arc(self, u: int, v: int, cap: int, cost: int) -> None:
        self.arcs += ((u, v, cost), (v, u, -cost))
        self.caps += (cap, 0)

    def residual(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """Arc ids with spare capacity, ascending, and their (tail, head, cost)."""
        ids = [a for a, cap in enumerate(self.caps) if cap > 0]
        return ids, [self.arcs[a] for a in ids]

    def run(self) -> None:
        """Augment along most valuable paths until none gains anything.

        The residual ``ids``/``arcs`` stay in id order between searches:
        only the arcs whose capacity reaches or leaves zero move.
        """
        caps = self.caps
        ids, arcs = self.residual()
        while True:
            dist: list[Optional[int]] = [None] * self.size
            dist[self.source] = 0
            via, cycle = bellman_ford(arcs, dist)
            if cycle is not None:
                # augmenting along shortest paths never leaves one behind
                raise MatchingError("negative residual cycle: the flow is not of least cost")
            if dist[self.sink] is None or dist[self.sink] >= 0:
                return
            path, node = [], self.sink
            while node != self.source:
                path.append(ids[via[node]])
                node = self.arcs[path[-1]][0]
            bottleneck = min(caps[arc] for arc in path)
            for arc in path:
                caps[arc] -= bottleneck
                if not caps[arc]:
                    k = bisect_left(ids, arc)
                    del ids[k], arcs[k]
                back = arc ^ 1
                if not caps[back]:
                    k = bisect_left(ids, back)
                    ids.insert(k, back)
                    arcs.insert(k, self.arcs[back])
                caps[back] += bottleneck

    def load(self, allocation: Allocation) -> None:
        """Set the flows to a feasible allocation; the inverse of :meth:`allocation`.

        Source and sink arcs carry agent and good totals, so units on
        zero-value pairs, which have no arc, still use up capacity and
        supply.
        """
        for a in range(0, len(self.arcs), 2):
            u, v, _ = self.arcs[a]
            if u == self.source:
                flow = allocation.agent_total(v - 1)
            elif v == self.sink:
                flow = allocation.good_total(u - 1 - self.n)
            else:
                flow = allocation.units[u - 1][v - 1 - self.n]
            total = self.caps[a] + self.caps[a ^ 1]
            self.caps[a], self.caps[a ^ 1] = total - flow, flow

    def allocation(self) -> Allocation:
        units = [[0] * self.m for _ in range(self.n)]
        for a in range(0, len(self.arcs), 2):
            u, v, _ = self.arcs[a]
            if 1 <= u <= self.n and self.n < v < self.sink:
                flow = self.caps[a ^ 1]  # backward capacity equals pushed flow
                if flow:
                    units[u - 1][v - 1 - self.n] = flow
        return Allocation(tuple(tuple(row) for row in units))


def _result(instance: Instance, net: _FlowNetwork) -> OptResult:
    allocation = net.allocation()
    problems = allocation_violations(instance, allocation)
    if problems:
        raise MatchingError("solver produced infeasible allocation: " + "; ".join(problems))
    return OptResult(allocation, total_value(instance, allocation))


def _social_run(instance: Instance):
    """The instance's ``(network, pivots, result, johnson)``, solved once and kept on it.

    ``pivots[i]`` keeps agent i's :func:`optimum_without` result and
    ``johnson`` the repairs' :func:`_johnson` data; each fills on first
    request.  Nothing in the run refers back to the instance, so it is
    freed with it.  The network is never mutated (readers copy
    ``caps``), and threads that race to solve one market, or to fill one
    slot, store equal results, so no lock is needed.
    """
    run = getattr(instance, "_run", None)
    if run is None:
        net = _FlowNetwork(instance)
        net.run()
        run = (net, [None] * instance.n_agents, _result(instance, net), [])
        object.__setattr__(instance, "_run", run)
    return run


def _johnson(net: _FlowNetwork, kept: list) -> list:
    """The repairs' ``[pi, out]``, computed into the run's ``kept`` on first request.

    ``pi`` are the distances of one all-zero-seeded :func:`bellman_ford`
    over the final residual arcs plus a zero-cost source -> sink arc (id
    ``len(net.arcs)``), so each has a reduced cost ``cost + pi[tail] -
    pi[head]`` of at least 0.  ``out[u]`` lists each arc leaving ``u`` as
    ``(arc, head, cost)``.
    """
    if not kept:
        _, arcs = net.residual()
        pi = [0] * net.size
        _, cycle = bellman_ford(arcs + [(net.source, net.sink, 0)], pi)
        if cycle is not None:
            raise MatchingError("negative residual cycle: the flow is not of least cost")
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(net.size)]
        for arc, (tail, head, cost) in enumerate(net.arcs):
            out[tail].append((arc, head, cost))
        out[net.source].append((len(net.arcs), net.sink, 0))
        kept[:] = pi, out
    return kept


def _dijkstra(out: list[list[tuple[int, int, int]]], caps: list[int], pi: list[int],
              source: int, target: int) -> Optional[tuple[int, list[int]]]:
    """Cost and arc ids of a shortest ``source`` -> ``target`` path; None if unreached.

    A heap Dijkstra on reduced costs over the arcs of ``out`` with
    capacity in ``caps``, stopped once ``target`` is settled.  Each
    settled node ``v`` then gets ``pi[v] += dist(v) - dist(target)``,
    which keeps every reduced cost non-negative after a push along the
    path (Tomizawa; Edmonds-Karp).
    """
    dist: list[Optional[int]] = [None] * len(pi)
    via = [(-1, -1)] * len(pi)
    settled: list[int] = []
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if d != dist[u]:
            continue  # stale: settled nodes never improve, so each is popped once at d
        settled.append(u)
        if u == target:
            break
        base = d + pi[u]
        for arc, v, cost in out[u]:
            if caps[arc]:
                reach = base + cost - pi[v]
                if reach < d:
                    raise MatchingError("negative reduced cost: the potentials are not feasible")
                old = dist[v]
                if old is None or reach < old:
                    dist[v] = reach
                    via[v] = (arc, u)
                    heappush(heap, (reach, v))
    else:
        return None
    cost = d + pi[target] - pi[source]
    for v in settled:
        pi[v] += dist[v] - d
    path = []
    while u != source:
        arc, u = via[u]
        path.append(arc)
    return cost, path


def social_optimum(instance: Instance) -> OptResult:
    """Canonical welfare-maximizing allocation (deterministic under ties)."""
    return _social_run(instance)[2]


def optimum_without(instance: Instance, agent: int) -> OptResult:
    """Social optimum of the market in which ``agent`` has capacity 0.

    The welfare comes from repairing the social run's final network: the
    agent's source arc closes and a zero-cost source -> sink arc lets a
    unit be dropped.  Each step pushes flow along a shortest source ->
    agent path, found by :func:`_dijkstra` on the market's kept
    :func:`_johnson` potentials, and back over the agent -> source arc,
    so the agent's ``k`` units take at most ``k`` searches.  No search
    leaves the agent, so its arcs to goods need no closing.  These are
    successive shortest paths (Tomizawa; Edmonds-Karp) from a residual
    graph without negative cycles, so each path's cost is the welfare
    its units lose.

    The allocation, whose row for ``agent`` is empty, is solved on first
    read as the social run of that reduced market, built from the
    instance's fields: the repair may end at another optimum of equal
    welfare, and only a social run applies the tie rule.  The result is
    kept in the agent's pivot slot of the market's run.
    """
    if not 0 <= agent < instance.n_agents:
        raise IndexError(f"agent index {agent} out of range")
    net, pivots, social, kept = _social_run(instance)
    if pivots[agent] is not None:
        return pivots[agent]
    pi, out = _johnson(net, kept)
    pi = pi[:]
    units = net.caps[2 * agent + 1]  # the agent's flow, on its reverse source arc
    caps = net.caps + [units, 0]  # and the source -> sink arc
    caps[2 * agent] = 0
    lost = 0
    while units:
        found = _dijkstra(out, caps, pi, net.source, 1 + agent)
        if found is None:
            raise MatchingError(f"agent {agent}'s flow has no way back to the source")
        cost, path = found
        flow = min(units, *(caps[arc] for arc in path))
        for arc in path:
            caps[arc] -= flow
            caps[arc ^ 1] += flow
        units -= flow
        lost += cost * flow
    # the fields, not the instance: a kept pivot must not keep its market alive
    capacity = instance.agent_capacity[:agent] + (0,) + instance.agent_capacity[agent + 1:]
    fields = (capacity, instance.good_supply, instance.values)
    result = OptResult.__new__(OptResult)
    result.__dict__.update(welfare=social.welfare - Fraction(lost, net.denom),
                           excluded_agent=agent,
                           _solve=lambda: _social_run(Instance(*fields))[2].allocation)
    pivots[agent] = result
    return result


#: Largest state bound :func:`brute_force_optimum` will enumerate.
STATE_LIMIT = 10**7


def brute_force_optimum(instance: Instance) -> OptResult:
    """Exhaustive welfare maximization; the test oracle for the flow solver.

    Enumerates, good by good, every split of each good's supply among
    the agents (plus the option of leaving units unsold), pruning only
    on exhausted agent capacity.  Completely independent of the
    augmenting-path solver.  Raises when the state bound
    prod (n+1)^supply_j exceeds :data:`STATE_LIMIT`.
    """
    states = prod((instance.n_agents + 1) ** q for q in instance.good_supply)
    if states > STATE_LIMIT:
        raise InvalidInstanceError(f"instance too large for enumeration ({states} states)")
    n, m = instance.n_agents, instance.n_goods
    denom, scaled = scaled_values(instance)
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
            if value > best_value:
                best_value = value
                best_units = [tuple(row) for row in units]
            return
        for split in splits(instance.good_supply[good]):
            gained = 0
            ok = True
            for i, k in enumerate(split):
                if k > remaining[i]:
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
    instance: Instance, allocation: Allocation
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction, Fraction]:
    """Dual potentials of an optimal allocation's residual graph.

    Shortest distances from the sink over the residual arcs of the
    solver's network loaded with the allocation (plus zero-cost
    source/sink arcs both ways, since flow value is unconstrained at a
    welfare optimum).  The network is a copy of the one the market's
    social run keeps, so a solved market builds no second network;
    :meth:`_FlowNetwork.load` sets every arc's flow.  Being shortest
    distances, these are the pointwise-largest feasible potentials with
    the sink anchored at zero, which makes the derived good prices the
    buyer-optimal ones.  Unreachable nodes (all-zero-value goods nobody
    holds) get potential 0.  Returns (agent, good, source, sink)
    potentials as exact rationals; a negative residual cycle means the
    allocation is not optimal and raises MatchingError.
    """
    problems = allocation_violations(instance, allocation)
    if problems:
        raise MatchingError("; ".join(problems))
    net = copy(_social_run(instance)[0])
    net.caps = net.caps[:]
    net.load(allocation)
    _, arcs = net.residual()
    arcs += [(net.source, net.sink, 0), (net.sink, net.source, 0)]
    dist: list[Optional[int]] = [None] * net.size
    dist[net.sink] = 0
    _, cycle = bellman_ford(arcs, dist)
    if cycle is not None:
        raise MatchingError("negative residual cycle: allocation is not optimal")

    def as_rat(d: Optional[int]) -> Fraction:
        return Fraction(0) if d is None else Fraction(d, net.denom)

    agent_pot = tuple(as_rat(dist[1 + i]) for i in range(net.n))
    good_pot = tuple(as_rat(dist[1 + net.n + j]) for j in range(net.m))
    return agent_pot, good_pot, as_rat(dist[net.source]), as_rat(dist[net.sink])
