"""Exact-arithmetic auctions for capacity-limited bidders.

Winner determination (maximum-weight b-matching), pivot-rule payments,
mechanism property audits (envy, rationality, transfers, incentives,
gross substitutes), verified Walrasian item prices, and constructive
impossibility replays.  All arithmetic is exact rational.
"""

from .core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    MechanismOutcome,
    Rat,
    allocation_violations,
    bundle_value,
    load,
    save,
    to_json,
    total_value,
    validate,
)
from .matching import OptResult, brute_force_optimum, optimum_without, social_optimum
from .mechanisms import (
    CLARKE,
    RULES,
    SUBADDITIVE_2X2,
    TWO_AGENT_TOPC,
    PivotRule,
    Subadditive2x2Valuation,
    clarke_pivot,
    subadditive_2x2,
    two_agent_topc,
    vcg_outcome,
)
from .audit import (
    AuditReport,
    DemandSet,
    demand_set,
    ef_payment_feasible,
    envy_check,
    gross_substitutes_check,
    ic_probe,
    ir_check,
    npt_check,
)
from .walrasian import (
    EquilibriumCertificate,
    compute_walrasian_prices,
    no_ic_walrasian_chain,
    verify_walrasian,
)
from .flowcert import (
    FlowDiffGraph,
    NoEnvyCertificate,
    build_flow_diff_graph,
    build_no_envy_certificate,
    classify_two_agent,
    decompose,
    normalize_excluded,
    positive_transfer_chain,
)
from .reports import ChainReport, ChainStep

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AuditReport",
    "ChainReport",
    "ChainStep",
    "CLARKE",
    "DemandSet",
    "EquilibriumCertificate",
    "FlowDiffGraph",
    "Instance",
    "InvalidInstanceError",
    "MechanismOutcome",
    "NoEnvyCertificate",
    "OptResult",
    "PivotRule",
    "Rat",
    "RULES",
    "SUBADDITIVE_2X2",
    "Subadditive2x2Valuation",
    "TWO_AGENT_TOPC",
    "allocation_violations",
    "brute_force_optimum",
    "build_flow_diff_graph",
    "build_no_envy_certificate",
    "bundle_value",
    "clarke_pivot",
    "classify_two_agent",
    "compute_walrasian_prices",
    "decompose",
    "demand_set",
    "ef_payment_feasible",
    "envy_check",
    "gross_substitutes_check",
    "ic_probe",
    "ir_check",
    "load",
    "no_ic_walrasian_chain",
    "normalize_excluded",
    "npt_check",
    "optimum_without",
    "positive_transfer_chain",
    "save",
    "social_optimum",
    "subadditive_2x2",
    "to_json",
    "total_value",
    "two_agent_topc",
    "validate",
    "vcg_outcome",
    "verify_walrasian",
]
