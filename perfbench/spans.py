"""Outside-in span recorder for the traced run.

Each named public boundary (``workloads.BOUNDARIES``) is replaced, in
every ``capauct`` module that holds a reference to it, by a wrapper that
records a span: name, start, end (process CPU time, in ns), parent
span, market id and whether an exception passed through.  Nothing in
``src/`` is edited, so calls a module makes to its own private helpers
stay inside the caller's span.  Spans stay in memory and are written
out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
from time import process_time_ns

from workloads import ALL_BOUNDARIES, BOUNDARIES

SOLVERS = ("matching.social_optimum", "matching.optimum_without")

# Span fields, stored as one list per span.
NAME, START, END, PARENT, MARKET, ERROR = range(6)


class TraceSelfTestError(RuntimeError):
    """A boundary the workload must reach recorded no calls, or is missing."""


class SpanRecorder:
    """Wraps the boundaries of the ``capauct`` modules loaded when it is made.

    Raises TraceSelfTestError when a boundary is missing from its module.
    ``install`` and ``uninstall`` switch the wrappers on and off.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.market = -1
        self.units_assigned = 0
        self._stack: list[int] = []
        modules = [m for key, m in sys.modules.items()
                   if key == "capauct" or key.startswith("capauct.")]
        self._sites: list[tuple[object, str, object, object]] = []
        for short, fns in BOUNDARIES.items():
            home = sys.modules.get(f"capauct.{short}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:
                    raise TraceSelfTestError(f"capauct.{short} has no public {fn!r}")
                wrapper = self._wrap(f"{short}.{fn}", original)
                self._sites += [(module, attr, original, wrapper)
                                for module in modules
                                for attr, value in vars(module).items() if value is original]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_units = name in SOLVERS

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.market, False]
            spans.append(span)
            stack.append(index)
            span[START] = process_time_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = process_time_ns()
                stack.pop()
            if count_units:
                self.units_assigned += sum(map(sum, result.allocation.units))
            return result

        return traced

    def install(self) -> None:
        """Put each wrapper wherever a ``capauct`` module holds the original."""
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name,start_ns,end_ns,parent,market,error\n")
            for s in self.spans:
                out.write(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[MARKET]},{int(s[ERROR])}\n")


def summarize(recorder: SpanRecorder, markets: int, traced_ns: int, deviations: int,
              pace: list[float]) -> dict:
    """Per-layer metrics from the recorded spans.

    ``traced_ns`` is the summed pipeline time of the traced markets,
    ``deviations`` the number of misreports handed to ``ic_probe``, and
    ``pace[k]`` the factor that scales market ``k``'s CPU times to the
    nominal host (applied to ``self_ms``; shares are taken unscaled).
    """
    spans = recorder.spans
    self_ns = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_ns[s[PARENT]] -= s[END] - s[START]

    def ancestors(index: int):
        parent = spans[index][PARENT]
        while parent >= 0:
            yield spans[parent][NAME]
            parent = spans[parent][PARENT]

    calls = dict.fromkeys(ALL_BOUNDARIES, 0)
    self_sum = dict.fromkeys(calls, 0)
    paced_sum = dict.fromkeys(calls, 0.0)
    errors = dict.fromkeys(BOUNDARIES, 0)
    outcome_solves = probe_solves = cancel_graphs = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        self_sum[name] += self_ns[index]
        paced_sum[name] += self_ns[index] * pace[span[MARKET]]
        errors[name.split(".")[0]] += span[ERROR]
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        if name in SOLVERS:
            outcome_solves += parent == "mechanisms.vcg_outcome"
            probe_solves += "audit.ic_probe" in ancestors(index)
        if name == "flowcert.build_flow_diff_graph" and parent == "flowcert.normalize_excluded":
            cancel_graphs += 1

    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = (calls[name] / markets, "count")
        metrics[f"{name}.self_ms"] = (paced_sum[name] / markets / 1e6, "ms")
    for module, fns in BOUNDARIES.items():
        module_ns = sum(self_sum[f"{module}.{fn}"] for fn in fns)
        metrics[f"{module}.self_share"] = (module_ns / traced_ns if traced_ns else 0.0, "ratio")
        metrics[f"{module}.errors"] = (errors[module], "count")
    outcomes = calls["mechanisms.vcg_outcome"]
    metrics["matching.solves_per_outcome"] = (outcome_solves / outcomes if outcomes else 0, "count")
    metrics["audit.ic_probe.solves_per_deviation"] = (
        probe_solves / deviations if deviations else 0, "count")
    metrics["flowcert.cancel_rounds"] = (
        (cancel_graphs - calls["flowcert.normalize_excluded"]) / markets, "count")
    metrics["matching.units_assigned"] = (recorder.units_assigned / markets, "count")
    return metrics


def self_test(metrics: dict, uses) -> None:
    """Fail loudly when a boundary the workload must reach was never called."""
    silent = [name for name in uses if metrics[f"{name}.calls"][0] == 0]
    if silent:
        raise TraceSelfTestError("no calls recorded at " + ", ".join(silent))
