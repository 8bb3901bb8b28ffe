import ast
import json
import os
import subprocess
import sys

from fractions import Fraction

import pytest

import make_golden
from capauct import (Allocation, OptResult, audit, flowcert, matching, optimum_without, save,
                     walrasian)
from capauct.audit import EnvyPair, ICWitness, IRViolation
from capauct.cli import EXIT_SOLVER, EXIT_USAGE, run
from capauct.generators import random_instance, rng_for


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, lines, captured.err


def test_solve_reports_welfare(capsys, example1_path):
    code, lines, _ = run_cli(capsys, "solve", str(example1_path))
    assert code == 0
    assert lines[0]["welfare"] == {"num": 4, "den": 1}
    assert lines[0]["allocation"] == [[1, 0], [0, 1]]


def test_payments_clarke_with_envy_warning(capsys, example1_path):
    code, lines, err = run_cli(capsys, "payments", "--mechanism", "clarke", str(example1_path))
    assert code == 0
    record = lines[0]
    assert record["payments"] == [{"num": 1, "den": 1}, {"num": 0, "den": 1}]
    assert record["envy_pairs"] == [
        {"envier": 0, "envied": 1, "margin": {"num": 1, "den": 1}}
    ]
    assert "envy" in err


def test_payments_topc_is_envy_free_here(capsys, example1_path):
    code, lines, _ = run_cli(capsys, "payments", "--mechanism", "topc", str(example1_path))
    assert code == 0
    assert lines[0]["payments"] == [{"num": 0, "den": 1}, {"num": 0, "den": 1}]
    assert lines[0]["envy_pairs"] == []


def test_audit_exit_codes(capsys, example1_path):
    code, lines, _ = run_cli(capsys, "audit", "--mechanism", "clarke", str(example1_path))
    assert code == 1  # the canonical example violates envy-freeness
    assert lines[0]["ok"] is False
    code, lines, _ = run_cli(capsys, "audit", "--mechanism", "topc", "--ic-deviations", "5",
                             str(example1_path))
    assert code == 0
    assert lines[0]["ok"] is True
    assert lines[0]["ic_witnesses"] == []


def test_audit_record_carries_every_witness_kind(capsys, example1_path, monkeypatch):
    def probe(instance, rule, agent, rows):
        return [ICWitness(agent, (Fraction(1, 2), Fraction(3)), Fraction(1, 4))] if agent == 0 else []

    monkeypatch.setattr(audit, "ir_check", lambda instance, outcome: [IRViolation(1, Fraction(2, 3))])
    monkeypatch.setattr(audit, "ic_probe", probe)
    code, lines, _ = run_cli(capsys, "audit", "--ic-deviations", "1", str(example1_path))
    assert code == 1
    assert lines == [{
        "type": "audit", "ok": False, "mechanism": "clarke",
        "envy_pairs": [{"envier": 0, "envied": 1, "margin": {"num": 1, "den": 1}}],
        "ir_violations": [{"agent": 1, "deficit": {"num": 2, "den": 3}}],
        "npt_violations": [],
        "ic_witnesses": [{"agent": 0, "deviation": [{"num": 1, "den": 2}, {"num": 3, "den": 1}],
                          "gain": {"num": 1, "den": 4}}],
    }]


def test_walrasian_command(capsys, example1_path):
    code, lines, _ = run_cli(capsys, "walrasian", str(example1_path))
    assert code == 0
    assert lines[0]["verified"] is True
    assert lines[0]["prices"] == [{"num": 1, "den": 1}, {"num": 1, "den": 1}]


def test_walrasian_command_beyond_fifteen_units(capsys, tmp_path):
    # 16 unit goods: once refused as a usage error by the bundle enumeration bound
    market = random_instance(rng_for(89, 0), 4, 16, "hetero", (4, 5, 6), supply_max=1)
    path = tmp_path / "market.json"
    path.write_bytes(save(market))
    code, lines, _ = run_cli(capsys, "walrasian", str(path))
    assert code == 0
    assert lines[0]["verified"] is True
    assert len(lines[0]["prices"]) == 16
    assert any(price["num"] for price in lines[0]["prices"])


def test_walrasian_failure_carries_violations(capsys, example1_path, monkeypatch):
    def zero_potentials(instance):
        zero = Fraction(0)
        return (zero,) * instance.n_agents, (zero,) * instance.n_goods, zero, zero

    monkeypatch.setattr(walrasian, "node_potentials", zero_potentials)
    code, lines, _ = run_cli(capsys, "walrasian", str(example1_path))
    assert code == 1
    assert lines[0]["verified"] is False
    assert lines[0]["violations"] == [
        {"type": "walrasian_violation", "kind": "demand", "agent": 1, "good": None,
         "detail": "agent 1 gets utility 2 but demands utility 3"}
    ]


def test_certify_command(capsys, example1_path):
    code, lines, _ = run_cli(capsys, "certify", str(example1_path))
    assert code == 0
    assert all(record["holds"] for record in lines)
    pairs = {(record["hi"], record["lo"]) for record in lines}
    assert (1, 0) in pairs


def test_certify_failure_carries_its_witness(capsys, example1_path, monkeypatch):
    def inflated(instance, agent):
        pivot = optimum_without(instance, agent)
        return OptResult(pivot.allocation, pivot.welfare + 1, agent)

    monkeypatch.setattr(flowcert, "optimum_without", inflated)
    code, lines, _ = run_cli(capsys, "certify", str(example1_path))
    assert code == 1
    assert lines == [{
        "type": "certificate", "hi": 1, "lo": 0, "holds": False,
        "error": "certificate inequality failed: value 1 < floor 2",
        "structure": {"hi": 1, "lo": 0, "allocation": [[0, 0], [1, 0]],
                      "value": {"num": 1, "den": 1}, "floor": {"num": 2, "den": 1}},
    }]


@pytest.mark.parametrize("structure, expected", [
    # a FlowDiffGraph's arcs: sorted ((tail, head), flow) pairs
    ((((("agent", 1), ("good", 0)), 1), ((("good", 1), ("agent", 0)), 2)),
     [[[["agent", 1], ["good", 0]], 1], [[["good", 1], ["agent", 0]], 2]]),
    ([("agent", 1), ("good", 0)], [["agent", 1], ["good", 0]]),
    (flowcert.FlowPiece((("agent", 1), ("good", 0)), 1, Fraction(1, 2)),
     {"vertices": [["agent", 1], ["good", 0]], "flow": 1, "value": {"num": 1, "den": 2}}),
    (Allocation(((0, 1), (1, 0))), [[0, 1], [1, 0]]),
    (None, None),
])
def test_certify_serializes_each_witness_kind(capsys, example1_path, monkeypatch,
                                              structure, expected):
    def failing(instance, hi, lo):
        raise flowcert.FlowCertError("forced", structure=structure)

    monkeypatch.setattr(flowcert, "build_no_envy_certificate", failing)
    code, lines, _ = run_cli(capsys, "certify", str(example1_path))
    assert code == 1
    assert lines[0]["error"] == "forced"
    assert lines[0].get("structure") == expected


@pytest.mark.parametrize("command", ["solve", "payments", "certify"])
def test_solver_error_is_a_structured_record(capsys, example1_path, monkeypatch, command):
    def broken(instance):
        raise matching.MatchingError("negative residual cycle: the flow is not of least cost")

    monkeypatch.setattr(matching, "_social_run", broken)
    code, lines, err = run_cli(capsys, command, str(example1_path))
    assert code == EXIT_SOLVER != EXIT_USAGE
    assert lines == [{"type": "error", "kind": "matching",
                      "error": "negative residual cycle: the flow is not of least cost"}]
    assert "solver error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, module, kind, error", [
    (["repro", "fig2"], walrasian, "walrasian",
     "first market: solver optimum ((0, 0, 0), (0, 0, 0)) differs from expected ((1, 1, 0), (0, 0, 1))"),
    (["repro", "fig3"], flowcert, "flowcert", "profile-a: agent 0 holds [], expected [0]"),
    (["repro", "thm41-general"], flowcert, "flowcert", "profile-a: agent 0 holds [], expected [0, 1, 2]"),
], ids=["fig2", "fig3", "thm41-general"])
def test_a_broken_replay_invariant_is_a_structured_record(capsys, monkeypatch, argv, module, kind,
                                                          error):
    # a replay that meets a wrong optimum exits as a solver error does, without a traceback
    def empty(instance):
        return OptResult(Allocation(((0,) * instance.n_goods,) * instance.n_agents), Fraction(0))

    monkeypatch.setattr(module, "social_optimum", empty)
    code, lines, err = run_cli(capsys, *argv)
    assert code == EXIT_SOLVER
    assert lines == [{"type": "error", "kind": kind, "error": error}]
    assert "solver error" in err and "Traceback" not in err


def test_repro_example1(capsys):
    code, lines, _ = run_cli(capsys, "repro", "example1")
    assert code == 0
    assert lines[0]["payments"] == [{"num": 1, "den": 1}, {"num": 0, "den": 1}]


def test_repro_fig2_chain(capsys):
    code, lines, _ = run_cli(capsys, "repro", "fig2", "--eps", "1/5")
    assert code == 0
    verdicts = [line for line in lines if line["type"] == "verdict"]
    assert verdicts and verdicts[0]["ok"] is True
    assert verdicts[0]["conclusion"] == {"num": 1, "den": 10}


def test_repro_fig3_and_general(capsys):
    code, lines, _ = run_cli(capsys, "repro", "fig3", "--x", "1", "--eps", "1/10")
    assert code == 0
    verdict = [line for line in lines if line["type"] == "verdict"][0]
    assert verdict["conclusion"] == {"num": 9, "den": 10}
    code, lines, _ = run_cli(capsys, "repro", "thm41-general", "--cap", "3", "--x", "2",
                             "--eps", "1/10")
    assert code == 0
    verdict = [line for line in lines if line["type"] == "verdict"][0]
    assert verdict["conclusion"] == {"num": 17, "den": 10}


def test_repro_thm3_cert(capsys):
    code, lines, _ = run_cli(capsys, "repro", "thm3-cert")
    assert code == 0
    assert lines[0]["holds"] is True


def test_repro_gs_check(capsys):
    code, lines, _ = run_cli(capsys, "repro", "gs-check", "--count", "40", "--seed", "3")
    assert code == 0
    summary = [line for line in lines if line["type"] == "gs_summary"][0]
    assert summary["capacitated_ok"] is True
    assert summary["sensitivity_tripped"] is True


#: The flags each repro case reads, and the value each defaults to.
REPRO_READS = {"example1": [], "thm3-cert": [], "fig2": ["--eps"], "fig3": ["--x", "--eps"],
               "thm41-general": ["--cap", "--x", "--eps"], "gs-check": ["--seed", "--count"]}
REPRO_DEFAULTS = {"--eps": "1/5", "--x": "1", "--cap": "3", "--seed": "0", "--count": "100"}


@pytest.mark.parametrize("case, flag", [(case, flag) for case, reads in REPRO_READS.items()
                                        for flag in REPRO_DEFAULTS if flag not in reads])
def test_repro_refuses_a_flag_its_case_never_reads(capsys, case, flag):
    # a given flag that the case does not read, even at its default, is a usage error, not dropped
    assert run(["repro", case, flag, REPRO_DEFAULTS[flag]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {flag} is not used by repro {case}\n"


@pytest.mark.parametrize("case", ["fig2", "fig3", "thm41-general", "gs-check"])
def test_repro_defaults_are_unchanged(capsys, case):
    # an omitted flag is told apart from a given one: each case still reads today's defaults
    assert run(["repro", case]) == 0
    omitted = capsys.readouterr().out
    spelled = [arg for flag in REPRO_READS[case] for arg in (flag, REPRO_DEFAULTS[flag])]
    assert run(["repro", case, *spelled]) == 0
    assert capsys.readouterr().out == omitted != ""


def test_fuzz_homogeneous_clarke_passes(capsys):
    code, lines, err = run_cli(capsys, "fuzz", "--agents", "3", "--goods", "4",
                               "--capacity-mode", "homo", "--mechanism", "clarke",
                               "--seed", "7", "--count", "50")
    assert code == 0
    assert len(lines) == 50
    assert all(line["ok"] for line in lines)
    assert "50/50 pass" in err


def test_fuzz_is_byte_deterministic(capsys):
    argv = ["fuzz", "--mechanism", "topc", "--goods", "5", "--seed", "11", "--count", "25"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("flags", [[], ["--mechanism", "sub2x2"]], ids=["clarke-hetero", "sub2x2"])
@pytest.mark.parametrize("seed", ["0", "5"])
def test_fuzz_default_and_sub2x2_pass_deterministically(capsys, flags, seed):
    argv = ["fuzz", *flags, "--seed", seed, "--count", "30"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second and len(first.splitlines()) == 30


@pytest.mark.parametrize("mechanism, flag", [("topc", "--agents"), ("sub2x2", "--agents"),
                                             ("sub2x2", "--goods")])
def test_fuzz_refuses_a_size_its_mechanism_fixes(capsys, mechanism, flag):
    # topc markets always have two agents, sub2x2 markets two agents and two goods: a given size
    # flag, even the one they would draw, is a usage error, not silently dropped
    for value in ("5", "2"):
        assert run(["fuzz", "--mechanism", mechanism, flag, value, "--count", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {flag} is not used by --mechanism {mechanism}")


def test_fuzz_size_defaults_are_unchanged(capsys):
    # an omitted size is told apart from a given one: clarke still draws 3 agents and 4 goods
    assert run(["fuzz", "--count", "3"]) == 0
    omitted = capsys.readouterr().out
    assert run(["fuzz", "--agents", "3", "--goods", "4", "--count", "3"]) == 0
    assert capsys.readouterr().out == omitted


@pytest.mark.parametrize("argv, flag, reader", [
    (["fuzz", "--mechanism", "sub2x2", "--capacity-mode", "homo", "--count", "20"], "--capacity-mode",
     "--mechanism sub2x2"),
    (["fuzz", "--mechanism", "sub2x2", "--capacity-mode", "hetero", "--count", "1"], "--capacity-mode",
     "--mechanism sub2x2"),
    (["audit", "--seed", "5", "fixtures/example1.json"], "--seed", "audit without --ic-deviations"),
    (["audit", "--mechanism", "topc", "--ic-deviations", "0", "--seed", "0", "fixtures/example1.json"], "--seed",
     "audit without --ic-deviations"),
], ids=["sub2x2-homo", "sub2x2-hetero", "audit-seed", "audit-seed-0-deviations"])
def test_a_given_flag_the_run_never_reads_is_refused(capsys, argv, flag, reader):
    # sub2x2 markets have subadditive valuations, not capacities; audit seeds only its misreports:
    # the flag, even at its default, is a usage error, not silently dropped
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag} is not used by {reader}")


def test_capacity_mode_and_audit_seed_defaults_are_unchanged(capsys, example1_path):
    # an omitted flag is told apart from a given one: fuzz still draws hetero, audit still seeds 0
    pairs = [(["fuzz", "--count", "20"], ["fuzz", "--capacity-mode", "hetero", "--count", "20"]),
             (["fuzz", "--mechanism", "topc", "--count", "20"],
              ["fuzz", "--mechanism", "topc", "--capacity-mode", "hetero", "--count", "20"]),
             (["audit", "--mechanism", "topc", "--ic-deviations", "25", str(example1_path)],
              ["audit", "--mechanism", "topc", "--ic-deviations", "25", "--seed", "0", str(example1_path)])]
    for omitted, given in pairs:
        code = run(omitted)
        out = capsys.readouterr().out
        assert run(given) == code and capsys.readouterr().out == out != ""


def test_fuzz_writes_each_violation_record(capsys, monkeypatch):
    def one_pair(instance, outcome):
        return [EnvyPair(1, 0, Fraction(3, 2))]

    monkeypatch.setattr(audit, "envy_check", one_pair)
    code, lines, err = run_cli(capsys, "fuzz", "--capacity-mode", "homo", "--count", "2")
    assert code == 1
    assert lines == [{"type": "fuzz", "seed_index": k, "ok": False,
                      "violations": [{"kind": "envy", "agent": 1, "other": 0, "margin": "3/2"}]}
                     for k in range(2)]
    assert "0/2 pass" in err


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(["payments", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run(["solve", str(bad)]) == 2
    assert run(["payments", "--mechanism", "nope", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc", [b'{"agents": \xff}', b"[" * 100_000], ids=["non-utf8", "deep"])
def test_undecodable_and_deeply_nested_inputs_are_input_errors(tmp_path, doc):
    path = tmp_path / "market.json"
    path.write_bytes(doc)
    proc = subprocess.run([sys.executable, "-m", "capauct", "solve", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["fuzz", "--count", "-1"],
    ["repro", "gs-check", "--count", "-3"],
    ["fuzz", "--agents", "-2"],
    ["fuzz", "--goods", "-1"],
    ["audit", "--mechanism", "topc", "--ic-deviations", "-2", "fixtures/example1.json"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a non-negative integer" in captured.err


def test_an_unparsable_rational_is_a_usage_error(capsys):
    assert run(["repro", "fig2", "--eps", "abc"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --eps: not a rational: 'abc'" in captured.err


def test_console_entry_point(example1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "capauct", "solve", str(example1_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["welfare"] == {"num": 4, "den": 1}


def test_module_entry_point_prints_what_run_prints(capsys):
    # python -m capauct goes through __main__, with the package found on PYTHONPATH alone
    proc = subprocess.run([sys.executable, "-m", "capauct", "repro", "example1"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": "src"}, cwd=make_golden.REPO_ROOT)
    assert run(["repro", "example1"]) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out != ""


@pytest.mark.parametrize("row", ["3", "null"])
def test_value_row_that_is_not_an_array_is_an_input_error(tmp_path, row):
    doc = tmp_path / "row.json"
    doc.write_text('{"agents":[{"capacity":1}],"goods":[{"supply":1}],"values":[%s]}' % row)
    proc = subprocess.run(
        [sys.executable, "-m", "capauct", "solve", str(doc)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "is not an array" in proc.stderr


def test_a_market_outside_a_rules_shape_is_an_input_error(capsys, tmp_path):
    # a valid market that a pivot rule does not cover is refused as input, not as usage
    three = tmp_path / "three.json"
    three.write_text(json.dumps({
        "agents": [{"capacity": 1}] * 3,
        "goods": [{"supply": 1}],
        "values": [[1], [2], [3]],
    }))
    two_by_three = tmp_path / "two_by_three.json"
    two_by_three.write_text(json.dumps({
        "agents": [{"capacity": 1}] * 2,
        "goods": [{"supply": 1}] * 3,
        "values": [[1, 2, 3], [3, 2, 1]],
    }))
    cases = [(three, "topc", "rule requires exactly two agents"),
             (three, "sub2x2", "rule requires exactly two agents"),
             (two_by_three, "sub2x2", "rule requires exactly two goods")]
    for path, mechanism, message in cases:
        for command in ("payments", "audit"):
            assert run([command, "--mechanism", mechanism, str(path)]) == EXIT_USAGE, (command, mechanism)
            captured = capsys.readouterr()
            assert captured.out == "", (command, mechanism)
            assert captured.err == f"input error: {message}\n", (command, mechanism)


def test_readme_commands_match_golden_stdout(monkeypatch):
    monkeypatch.chdir(make_golden.REPO_ROOT)
    golden = json.loads(make_golden.CLI_GOLDEN.read_text())
    assert make_golden.cli_records() == golden


def leading_literal(text):
    """The bracketed expression that ``text`` starts with."""
    depth = 0
    for k, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if depth == 0:
            return text[:k + 1]
    raise AssertionError(f"unbalanced {text!r}")


def test_readme_library_block_runs_as_commented():
    # a comment reads "[attribute] literal[, prose]": the line's value, or that attribute of the
    # name it assigns, equals the literal
    text = (make_golden.REPO_ROOT / "README.md").read_text()
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {"EnvyPair": EnvyPair}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        statement = ast.parse(code).body[0]
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            value = namespace[statement.targets[0].id]
        attribute, _, rest = comment.partition(" ")
        if attribute.isidentifier():
            value, comment = getattr(value, attribute), rest
        assert value == eval(leading_literal(comment), namespace), line
        checked += 1
    assert checked == 3
