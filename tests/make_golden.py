"""Golden records that pin outputs the engine must keep byte for byte.

Regenerate from the repository root with

    PYTHONPATH=src python tests/make_golden.py

which rewrites two files under ``tests/golden/``:

* ``clarke_allocations.txt``: one line ``<base> <k> <digest>`` per market
  of the acceptance criterion-2 and criterion-3 corpora
  (``rng_for(1002, k)`` homogeneous and ``rng_for(1003, k)``
  heterogeneous, ``k < 1000``).  The digest covers the canonical Clarke
  allocation and payments, so it pins the solver's tie-break and not
  just its welfare.
* ``cli_stdout.json``: exit code and stdout of every command in the
  README's "Command line" block, run in-process from the repository
  root.

Regeneration prints to stderr each Clarke line that moves, as
``<base> <k> <old digest> → <new digest>``, and each README command whose
record changes.  Only a change meant to move these outputs regenerates
them, and it says so in ``CHANGES.md``.  The tests import the helpers below, so the records
and their checks cannot drift apart.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from capauct import CLARKE, vcg_outcome
from capauct.cli import run
from capauct.generators import random_sized_instance, rng_for

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CLARKE_GOLDEN = GOLDEN / "clarke_allocations.txt"
CLI_GOLDEN = GOLDEN / "cli_stdout.json"

#: (generator base, capacity mode) of acceptance criteria 2 and 3.
CORPORA = ((1002, "homo"), (1003, "hetero"))
CORPUS_SIZE = 1000


def clarke_lines() -> list[str]:
    """One digest line per corpus market, in corpus order."""
    lines = []
    for base, mode in CORPORA:
        for k in range(CORPUS_SIZE):
            instance = random_sized_instance(rng_for(base, k), capacity_mode=mode, supply_max=2)
            outcome = vcg_outcome(instance, CLARKE)
            record = json.dumps(
                [outcome.allocation.units, [[p.numerator, p.denominator] for p in outcome.payments]],
                separators=(",", ":"),
            )
            lines.append(f"{base} {k} {hashlib.sha256(record.encode()).hexdigest()[:16]}")
    return lines


def readme_commands() -> list[list[str]]:
    """The argument vectors of the README's "Command line" block, without ``capauct``."""
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "capauct", line
            commands.append(argv[1:])
    return commands


def cli_output(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run (stderr is dropped)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def cli_records() -> dict[str, dict]:
    return {
        shlex.join(argv): dict(zip(("exit", "stdout"), cli_output(argv)))
        for argv in readme_commands()
    }


def moved_records(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """``key old → new`` for each key whose record differs; ``-`` marks a missing one."""
    return [f"{key} {old.get(key, '-')} → {new.get(key, '-')}"
            for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)]


def main() -> None:
    os.chdir(REPO_ROOT)
    GOLDEN.mkdir(exist_ok=True)
    lines = clarke_lines()
    records = cli_records()
    old_lines = CLARKE_GOLDEN.read_text().splitlines() if CLARKE_GOLDEN.exists() else []
    old_records = json.loads(CLI_GOLDEN.read_text()) if CLI_GOLDEN.exists() else {}
    moved = moved_records(*(dict(line.rsplit(" ", 1) for line in side)
                            for side in (old_lines, lines)))
    for line in moved:
        print(f"{CLARKE_GOLDEN.name}: {line}", file=sys.stderr)
    for command in dict.fromkeys([*old_records, *records]):
        if old_records.get(command) != records.get(command):
            print(f"{CLI_GOLDEN.name}: capauct {command}", file=sys.stderr)
    print(f"{len(moved)} of {len(lines)} Clarke records moved", file=sys.stderr)
    CLARKE_GOLDEN.write_text("\n".join(lines) + "\n")
    CLI_GOLDEN.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
