"""The benchmark's three seeded market workloads.

Each workload draws its markets from a fixed pool: pool market ``i`` is
generated from ``generators.rng_for(base, i)``, so the golden record in
``golden/<name>.txt`` can cover every market a run may see.  The pool is
cut into SEED_WINDOWS + 1 disjoint windows of ``window`` consecutive
markets.  Seed ``s`` runs window ``s % SEED_WINDOWS``; the last window
belongs to HELD_OUT_SEED alone, so its markets stay unseen by any other
seed.

Nothing here imports ``capauct``: the package is passed in as ``api``,
because ``run.py`` re-imports it for every set-up repetition.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: The checkout's source tree; the benchmark never uses an installed copy.
SRC = Path(__file__).resolve().parent.parent / "src"

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of all tuning; quote it for claims about a change.
HELD_OUT_SEED = 9001
#: Windows that every other seed cycles through.
SEED_WINDOWS = 8

#: Misreports tried per agent in the ``audit-small`` IC probe.
DEVIATIONS_PER_AGENT = 3

BOUNDARIES = {
    "core": ("load", "validate", "scaled_values", "total_value", "bundle_value",
             "allocation_violations"),
    "matching": ("social_optimum", "optimum_without", "node_potentials"),
    "mechanisms": ("vcg_outcome",),
    "audit": ("envy_check", "ir_check", "ef_payment_feasible", "ic_probe"),
    "walrasian": ("compute_walrasian_prices", "verify_walrasian"),
    "flowcert": ("build_no_envy_certificate", "normalize_excluded", "build_flow_diff_graph",
                 "decompose"),
}
ALL_BOUNDARIES = tuple(f"{mod}.{fn}" for mod, fns in BOUNDARIES.items() for fn in fns)
_CORE_WORK = tuple(f"core.{fn}" for fn in BOUNDARIES["core"])


def import_capauct():
    """Import ``capauct`` afresh from the checkout's ``src/``.

    Earlier imports are dropped first, so each call pays the full import
    cost that ``setup_s`` includes.  Raises ImportError when the checkout
    has no engine source.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "capauct" or k.startswith("capauct.")]:
        del sys.modules[key]
    api = importlib.import_module("capauct")
    importlib.import_module("capauct.generators")
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"capauct was imported from {api.__file__}, not from {SRC}")
    return api


@dataclass(frozen=True)
class Market:
    """One generated input: the instance document plus IC-probe misreports."""

    index: int  # position in the workload's pool
    document: bytes  # ``capauct.save`` output; the pipeline opens it with ``load``
    deviations: tuple  # per agent, a tuple of misreported value rows


@dataclass(frozen=True)
class Workload:
    name: str
    window: int  # distinct markets per run
    trace_markets: int  # markets the traced run takes through the pipeline
    base: int  # generator seed base for the pool
    generate: Callable  # (api, rng) -> (Instance, deviations)
    pipeline: Callable  # (api, Market) -> dict of outputs
    uses: tuple  # boundaries this workload must reach (checked by the traced run)

    @property
    def pool(self) -> int:
        """Markets in the pool, and lines in the golden record."""
        return (SEED_WINDOWS + 1) * self.window

    def indices(self, seed: int) -> list[int]:
        slot = SEED_WINDOWS if seed == HELD_OUT_SEED else seed % SEED_WINDOWS
        return list(range(slot * self.window, (slot + 1) * self.window))

    def market(self, api, index: int) -> Market:
        instance, deviations = self.generate(api, api.generators.rng_for(self.base, index))
        return Market(index, api.save(instance), deviations)


# --- clarke-large: Clarke clearing of mid-size markets ----------------------


def _gen_clarke_large(api, rng):
    return api.generators.random_instance(rng, 12, 18, "hetero", (1, 2, 3), supply_max=3), ()


def _run_clarke(api, market: Market) -> dict:
    instance = api.load(market.document)
    outcome = api.vcg_outcome(instance, api.CLARKE)
    return {
        "instance": instance,
        "outcome": outcome,
        "envy": api.envy_check(instance, outcome),
        "ir": api.ir_check(instance, outcome),
        "npt": api.npt_check(outcome),
    }


# --- audit-small: the fuzz-campaign diet, whole audit per market ------------


def _gen_audit_small(api, rng):
    gen = api.generators
    instance = gen.random_sized_instance(rng, max_agents=4, max_goods=5,
                                         capacity_mode="hetero", supply_max=2)
    deviations = tuple(
        tuple(gen.random_row(rng, instance.n_goods) for _ in range(DEVIATIONS_PER_AGENT))
        for _ in range(instance.n_agents)
    )
    return instance, deviations


def capacity_ordered_pairs(capacities) -> list[tuple[int, int]]:
    """Every (hi, lo) pair of distinct agents with cap[hi] >= cap[lo]."""
    n = len(capacities)
    return [(hi, lo) for hi in range(n) for lo in range(n)
            if hi != lo and capacities[hi] >= capacities[lo]]


def _run_audit(api, market: Market) -> dict:
    result = _run_clarke(api, market)
    instance, outcome = result["instance"], result["outcome"]
    result["ef"] = api.ef_payment_feasible(instance, outcome.allocation,
                                           require_ir=True, require_npt=True)
    result["certificates"] = [
        api.build_no_envy_certificate(instance, hi, lo)
        for hi, lo in capacity_ordered_pairs(instance.agent_capacity)
    ]
    result["equilibrium"] = api.compute_walrasian_prices(instance)
    result["ic"] = [
        api.ic_probe(instance, api.CLARKE, agent, market.deviations[agent])
        for agent in range(instance.n_agents)
    ]
    return result


# --- walras-wide: verified Walrasian prices, 12 unit goods ------------------


def _gen_walras_wide(api, rng):
    return api.generators.random_instance(rng, 5, 12, "hetero", (1, 2, 3, 4), supply_max=1), ()


def _run_walras(api, market: Market) -> dict:
    instance = api.load(market.document)
    return {"instance": instance, "equilibrium": api.compute_walrasian_prices(instance)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clarke-large", window=384, trace_markets=40, base=7101,
            generate=_gen_clarke_large, pipeline=_run_clarke,
            uses=_CORE_WORK + ("matching.social_optimum", "matching.optimum_without",
                               "mechanisms.vcg_outcome", "audit.envy_check", "audit.ir_check"),
        ),
        Workload(
            "audit-small", window=1536, trace_markets=300, base=7102,
            generate=_gen_audit_small, pipeline=_run_audit,
            uses=ALL_BOUNDARIES,
        ),
        Workload(
            "walras-wide", window=512, trace_markets=40, base=7103,
            generate=_gen_walras_wide, pipeline=_run_walras,
            uses=_CORE_WORK + ("matching.social_optimum", "matching.node_potentials",
                               "walrasian.compute_walrasian_prices",
                               "walrasian.verify_walrasian"),
        ),
    )
}
