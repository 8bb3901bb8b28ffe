"""Command-line front end.

Machine-readable JSON lines go to stdout (one verdict object per line,
deterministic for a given input, flags and seed); a human summary goes
to stderr.  Exit codes: 0 success / property pass, 1 property
violation (witnesses on stdout), 2 usage or input errors, 3 a solver
or replay state that contradicts optimality (an error record on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import audit as audit_mod
from . import flowcert, generators, matching, mechanisms, walrasian
from .core import Instance, InvalidInstanceError, load, to_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _read_instance(path: str) -> Instance:
    try:
        return load(Path(path).read_bytes())
    except OSError as exc:
        raise InvalidInstanceError(f"cannot read {path}: {exc}") from exc


def _outcome_json(outcome, envy) -> dict:
    """An outcome's fields and its envy pairs; the rule id goes under ``mechanism``."""
    record = to_json(outcome)
    record["mechanism"] = record.pop("pivot_rule_id")
    return {**record, "envy_pairs": to_json(envy)}


def _certificate_json(instance: Instance, hi: int, lo: int) -> dict:
    """The no-envy certificate record of one pair; a failure carries the error and its structure."""
    record = {"type": "certificate", "hi": hi, "lo": lo}
    try:
        cert = flowcert.build_no_envy_certificate(instance, hi, lo)
    except flowcert.FlowCertError as exc:
        return {**record, "holds": False, "error": str(exc), "structure": to_json(exc.structure)}
    return {**record, "holds": cert.holds, **to_json(cert)}


def _cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    opt = matching.social_optimum(instance)
    _emit({"type": "solve", "welfare": to_json(opt.welfare), "allocation": to_json(opt.allocation)})
    _note(f"welfare {opt.welfare}")
    return EXIT_OK


def _cmd_payments(args) -> int:
    instance = _read_instance(args.instance)
    rule = mechanisms.RULES[args.mechanism]
    outcome = mechanisms.vcg_outcome(instance, rule)
    envy = audit_mod.envy_check(instance, outcome)
    _emit({"type": "payments", **_outcome_json(outcome, envy)})
    _note("payments " + " ".join(str(p) for p in outcome.payments))
    if envy:
        _note(f"warning: {len(envy)} envy pair(s) under these payments")
    return EXIT_OK


def _cmd_audit(args) -> int:
    instance = _read_instance(args.instance)
    rule = mechanisms.RULES[args.mechanism]
    outcome = mechanisms.vcg_outcome(instance, rule)
    witnesses = []
    if args.ic_deviations:
        for agent in range(instance.n_agents):
            rng = generators.rng_for(args.seed, agent)
            rows = [generators.random_row(rng, instance.n_goods) for _ in range(args.ic_deviations)]
            witnesses.extend(audit_mod.ic_probe(instance, rule, agent, rows))
    report = audit_mod.AuditReport(
        tuple(audit_mod.envy_check(instance, outcome)),
        tuple(audit_mod.ir_check(instance, outcome)),
        tuple(audit_mod.npt_check(outcome)),
        tuple(witnesses),
    )
    _emit({"type": "audit", "ok": report.ok, "mechanism": args.mechanism, **to_json(report)})
    _note("audit ok" if report.ok else "audit found violations")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_walrasian(args) -> int:
    instance = _read_instance(args.instance)
    try:
        certificate = walrasian.compute_walrasian_prices(instance)
    except walrasian.WalrasianError as exc:
        _emit({"type": "walrasian", "verified": False, "error": str(exc),
               "violations": [{"type": "walrasian_violation", **to_json(v)} for v in exc.violations]})
        _note(str(exc))
        return EXIT_VIOLATION
    _emit({"type": "walrasian", "verified": True, **to_json(certificate)})
    _note("prices " + " ".join(str(p) for p in certificate.prices))
    return EXIT_OK


def _cmd_certify(args) -> int:
    instance = _read_instance(args.instance)
    ok = True
    for hi in range(instance.n_agents):
        for lo in range(instance.n_agents):
            if hi == lo or instance.agent_capacity[hi] < instance.agent_capacity[lo]:
                continue
            record = _certificate_json(instance, hi, lo)
            ok = ok and record["holds"]
            _emit(record)
    _note("certificates hold" if ok else "certificate failure")
    return EXIT_OK if ok else EXIT_VIOLATION


def _chain_exit(report) -> int:
    for step in report.steps:
        _emit({"type": "chain_step", "holds": step.holds, **to_json(step)})
    verdict = {"type": "verdict", "ok": report.verdict}
    if report.conclusion is not None:
        verdict["conclusion"] = to_json(report.conclusion)
    _emit(verdict)
    return EXIT_OK if report.verdict else EXIT_VIOLATION


def _cmd_repro(args) -> int:
    if args.case == "example1":
        instance = example1()
        outcome = mechanisms.vcg_outcome(instance, mechanisms.CLARKE)
        envy = audit_mod.envy_check(instance, outcome)
        _emit({"type": "repro", "case": "example1", **_outcome_json(outcome, envy)})
        expected = len(envy) == 1 and outcome.payments == (Fraction(1), Fraction(0))
        _note("example1 reproduced" if expected else "example1 mismatch")
        return EXIT_OK if expected else EXIT_VIOLATION
    if args.case == "fig2":
        report = walrasian.no_ic_walrasian_chain(args.eps)
        code = _chain_exit(report)
        certificate = walrasian.compute_walrasian_prices(walrasian.chain_instances(args.eps)[0])
        _emit({"type": "walrasian", "verified": True, **to_json(certificate)})
        _note(f"contradiction margin {report.conclusion}")
        return code
    if args.case in ("fig3", "thm41-general"):
        cap = 1 if args.case == "fig3" else args.cap
        report = flowcert.positive_transfer_chain(cap, args.x, args.eps)
        _note(f"pivot floor at the zero row: {report.conclusion}")
        return _chain_exit(report)
    if args.case == "thm3-cert":
        record = _certificate_json(example1(), 1, 0)
        _emit(record)
        _note("certificate holds" if record["holds"] else "certificate failed")
        return EXIT_OK if record["holds"] else EXIT_VIOLATION
    if args.case == "gs-check":
        return _repro_gs_check(args)
    raise AssertionError(f"unhandled case {args.case}")


#: The all-or-nothing pair valuation: worthless singletons, valuable pair.
#: Complements like this violate gross substitutes once the pair price sits
#: between the singleton values and the pair value.
COMPLEMENTS_2X2 = {
    frozenset(): Fraction(0),
    frozenset((0,)): Fraction(0),
    frozenset((1,)): Fraction(0),
    frozenset((0, 1)): Fraction(1),
}

#: Price pair witnessing the violation: raising only good 1's price drops
#: good 0 out of every optimal bundle even though its own price is unchanged.
COMPLEMENTS_PRICES = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))


def _repro_gs_check(args) -> int:
    ok = True
    for k in range(args.count):
        rng = generators.rng_for(args.seed, k)
        values, capacity = generators.random_capacitated_valuation(rng, rng.randint(1, 6))
        pairs = [generators.random_price_pair(rng, len(values)) for _ in range(5)]
        counterexample = audit_mod.gross_substitutes_check(values, capacity, pairs)
        if counterexample is not None:
            ok = False
            _emit({"type": "gs", "seed": k, "ok": False,
                   "bundle": sorted(counterexample.bundle_low)})
    failing = audit_mod.gross_substitutes_check_set(COMPLEMENTS_2X2, 2, [COMPLEMENTS_PRICES])
    tripped = failing is not None
    _emit({"type": "gs_summary", "capacitated_ok": ok, "sensitivity_tripped": tripped})
    _note(f"gross substitutes: {args.count} capacitated valuations ok={ok}, "
          f"complements fixture tripped={tripped}")
    return EXIT_OK if ok and tripped else EXIT_VIOLATION


_FUZZ_PROPERTIES = {
    ("clarke", "homo"): "no envy at all",
    ("clarke", "hetero"): "no envy toward weakly smaller capacity",
    ("topc", "homo"): "no envy and individually rational",
    ("topc", "hetero"): "no envy and individually rational",
    ("sub2x2", "homo"): "no envy and individually rational",
    ("sub2x2", "hetero"): "no envy and individually rational",
}


def _fuzz_one(mechanism: str, capacity_mode: str, rng, n_agents: int, n_goods: int):
    """One fuzz iteration: the violations of the mechanism's property."""
    if mechanism == "clarke":
        instance = generators.random_instance(
            rng, n_agents, n_goods, capacity_mode=capacity_mode, supply_max=2
        )
        outcome = mechanisms.vcg_outcome(instance, mechanisms.CLARKE)
        envy = audit_mod.envy_check(instance, outcome)
        if capacity_mode == "hetero":
            envy = [
                p for p in envy
                if instance.agent_capacity[p.envier] >= instance.agent_capacity[p.envied]
            ]
        return [("envy", p.envier, p.envied, str(p.margin)) for p in envy]
    if mechanism == "topc":
        instance = generators.random_instance(
            rng, 2, n_goods, capacity_mode=capacity_mode, cap_choices=(1, 2, 3, 4), supply_max=1
        )
        outcome = mechanisms.two_agent_topc(instance)
        problems = [("envy", p.envier, p.envied, str(p.margin))
                    for p in audit_mod.envy_check(instance, outcome)]
        problems += [("ir", v.agent, None, str(v.deficit))
                     for v in audit_mod.ir_check(instance, outcome)]
        return problems
    if mechanism == "sub2x2":
        first = generators.random_subadditive_2x2(rng)
        second = generators.random_subadditive_2x2(rng)
        outcome = mechanisms.subadditive_2x2(first, second)
        bundles = [frozenset(j for j in (0, 1) if outcome.allocation.units[i][j]) for i in (0, 1)]
        cross = [[first.of(bundles[0]), first.of(bundles[1])],
                 [second.of(bundles[0]), second.of(bundles[1])]]
        problems = [("envy", p.envier, p.envied, str(p.margin))
                    for p in audit_mod.envy_pairs_from_values(cross, outcome.payments)]
        for i in (0, 1):
            utility = cross[i][i] - outcome.payments[i]
            if utility < 0:
                problems.append(("ir", i, None, str(-utility)))
        return problems
    raise AssertionError(mechanism)


#: The size flags a mechanism's fuzz markets have no use for: their shape is fixed.
_FUZZ_FIXED = {"topc": {"agents": "two agents"}, "sub2x2": {"agents": "two agents", "goods": "two goods"}}


def _cmd_fuzz(args) -> int:
    for flag, shape in _FUZZ_FIXED.get(args.mechanism, {}).items():
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} is not used by --mechanism {args.mechanism}, "
                             f"whose markets always have {shape}")
    n_agents = 3 if args.agents is None else args.agents
    n_goods = 4 if args.goods is None else args.goods
    total_bad = 0
    for k in range(args.count):
        rng = generators.rng_for(args.seed, k)
        problems = _fuzz_one(args.mechanism, args.capacity_mode, rng, n_agents, n_goods)
        record = {"type": "fuzz", "seed_index": k, "ok": not problems}
        if problems:
            total_bad += 1
            record["violations"] = [
                {"kind": kind, "agent": a, "other": b, "margin": margin}
                for kind, a, b, margin in problems
            ]
        _emit(record)
    passed = args.count - total_bad
    label = _FUZZ_PROPERTIES[(args.mechanism, args.capacity_mode)]
    _note(f"{passed}/{args.count} pass ({label})")
    return EXIT_OK if total_bad == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capauct",
        description="Exact-arithmetic auction engine for capacity-limited bidders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="welfare-maximizing allocation of an instance file")
    solve.add_argument("instance")
    solve.set_defaults(func=_cmd_solve)

    payments = sub.add_parser("payments", help="mechanism outcome for an instance file")
    payments.add_argument("--mechanism", choices=sorted(mechanisms.RULES), default="clarke")
    payments.add_argument("instance")
    payments.set_defaults(func=_cmd_payments)

    audit_cmd = sub.add_parser("audit", help="property audit of a mechanism outcome")
    audit_cmd.add_argument("--mechanism", choices=sorted(mechanisms.RULES), default="clarke")
    audit_cmd.add_argument("--ic-deviations", type=_count, default=0,
                           help="misreports to probe per agent")
    audit_cmd.add_argument("--seed", type=int, default=0)
    audit_cmd.add_argument("instance")
    audit_cmd.set_defaults(func=_cmd_audit)

    walras = sub.add_parser("walrasian", help="verified equilibrium item prices")
    walras.add_argument("instance")
    walras.set_defaults(func=_cmd_walrasian)

    certify = sub.add_parser("certify", help="no-envy certificates for capacity-ordered pairs")
    certify.add_argument("instance")
    certify.set_defaults(func=_cmd_certify)

    repro = sub.add_parser("repro", help="replay a built-in construction")
    repro.add_argument("case", choices=["example1", "fig2", "fig3", "thm41-general",
                                        "thm3-cert", "gs-check"])
    repro.add_argument("--eps", type=_fraction, default=Fraction(1, 5))
    repro.add_argument("--x", type=_fraction, default=Fraction(1))
    repro.add_argument("--cap", type=int, default=3)
    repro.add_argument("--seed", type=int, default=0)
    repro.add_argument("--count", type=_count, default=100)
    repro.set_defaults(func=_cmd_repro)

    fuzz = sub.add_parser("fuzz", help="seeded random property fuzz")
    fuzz.add_argument("--mechanism", choices=sorted(mechanisms.RULES), default="clarke")
    # None tells an omitted size from a given one; clarke draws 3 agents and 4 goods by default
    fuzz.add_argument("--agents", type=_count, default=None)
    fuzz.add_argument("--goods", type=_count, default=None)
    fuzz.add_argument("--capacity-mode", choices=["homo", "hetero"], default="hetero")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=_count, default=100)
    fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def example1() -> Instance:
    """Two agents, two goods: the canonical envy example for the externality pivot."""
    return Instance((1, 2), (1, 1), ((Fraction(2), Fraction(2)), (Fraction(1), Fraction(2))))


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InvalidInstanceError as exc:
        _note(f"input error: {exc}")
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        _note(f"usage error: {exc}")
        return EXIT_USAGE
    except (matching.MatchingError, flowcert.FlowCertError, walrasian.WalrasianError) as exc:
        kind = type(exc).__module__.rpartition(".")[2]  # the module whose invariant broke
        _emit({"type": "error", "kind": kind, "error": str(exc)})
        _note(f"solver error: {exc}")
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run())
