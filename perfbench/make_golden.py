"""Regenerate the golden record of one or more workloads.

    python3 perfbench/make_golden.py [workload ...]

Takes every pool market of each workload through its pipeline once,
runs the independent output checks, and writes one digest per pool
market to ``golden/<workload>.txt``.  Refuses to write a record for a
workload on which any check fails.  The record pins the engine's
tie-break-free outputs at the commit that generated it; regenerate it
only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import sys

import checks
from workloads import WORKLOADS, import_capauct


def main(names) -> int:
    api = import_capauct()
    status = 0
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        digests = []
        for index in range(workload.pool):
            market = workload.market(api, index)
            result = workload.pipeline(api, market)
            problems = checks.check_market(api, name, index, result, None)
            if problems:
                print(f"{name} pool market {index}: {'; '.join(problems)}", file=sys.stderr)
                status = 1
                break
            digests.append(checks.golden_digest(name, index, result))
        else:
            checks.GOLDEN_DIR.mkdir(exist_ok=True)
            checks.golden_path(name).write_text("\n".join(digests) + "\n")
            print(f"{name}: {len(digests)} digests written", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
