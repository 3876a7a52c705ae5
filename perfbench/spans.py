"""Spans around anicurve's public functions, recorded from outside the package.

``Tracer.installed()`` replaces the module attributes that callers look up
at call time with wrappers that record one span per call, and restores the
originals on exit.  A span keeps its thread and its parent: the innermost
open span on its own thread or, for the first span on a worker thread (the
sweep threads of ``cli._run_sweep``), the innermost open span on the thread
that installed the tracer.  Spans stay in memory until the run writes them.
"""

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (module, attribute callers look up, span name).  flow.run is reached both
# through anicurve.flow (the benchmark) and anicurve.counterexample.
TARGETS = (
    ("anicurve.cli", "main", "cli.main"),
    ("anicurve.cli", "run_experiment", "cli.run_experiment"),
    ("anicurve.cli", "load_config", "config.load_config"),
    ("anicurve.cli", "verify_case_bounds", "counterexample.verify_case_bounds"),
    ("anicurve.cli", "blowup_experiment", "counterexample.blowup_experiment"),
    ("anicurve.counterexample", "run", "flow.run"),
    ("anicurve.flow", "run", "flow.run"),
    ("anicurve.flow", "diagnostics", "functionals.diagnostics"),
    ("anicurve.soliton", "solve_soliton", "soliton.solve_soliton"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _annotate(name: str, result) -> dict:
    if name == "flow.run":
        return {"records": len(result.diagnostics), "tau_final": result.times[-1]}
    if name == "soliton.solve_soliton":
        return {"iterations": result.iterations}
    if name == "cli.run_experiment":
        return {"exit": result}
    return {}


@dataclass
class Span:
    name: str
    thread: int
    parent: int  # index of the parent span, -1 for a root
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._home = threading.get_ident()

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.spans[index].attrs = _annotate(name, result)
            return result

        return traced

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home) if tid != self._home else None
            parent = home[-1] if home else -1
        with self._lock:
            self.spans.append(Span(name, tid, parent, time.perf_counter_ns()))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stacks[threading.get_ident()].pop()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns)) for c in children[i]]
        out.append((s.end_ns - s.start_ns - _covered_ns(kids)) * 1e-9)
    return out


def op_totals(spans: list[Span], wall_s: float) -> dict:
    """Additive per-layer totals of one traced operation."""
    totals = defaultdict(float)
    for s, self_s in zip(spans, self_seconds(spans)):
        totals[f"{s.name}.calls"] += 1
        totals[f"{s.name}.self_s"] += self_s
        totals[f"{s.name}.total_s"] += s.seconds
        totals["trace.self_sum_s"] += self_s
        if s.name == "flow.run":
            totals["flow.records"] += s.attrs["records"]
            totals["flow.tau_final"] += s.attrs["tau_final"]
        elif s.name == "soliton.solve_soliton":
            totals["soliton.newton_iterations"] += s.attrs["iterations"]
    covered = _covered_ns((s.start_ns, s.end_ns) for s in spans) * 1e-9
    totals["trace.wall_s"] += wall_s
    totals["trace.uncovered_s"] += wall_s - covered
    return totals


def layer_metrics(per_op: list[dict]) -> dict:
    """Per-operation means of the totals, plus the ratios built from their sums."""
    keys = set().union(*per_op)
    sums = {k: sum(t.get(k, 0.0) for t in per_op) for k in keys}
    n = len(per_op)
    out = {f"{name}.{kind}": 0.0 for name in SPAN_NAMES for kind in ("calls", "self_s")}
    out.update({k: v / n for k, v in sums.items() if not k.endswith(".total_s")})

    def ratio(num, den):
        return sums.get(num, 0.0) / sums[den] if sums.get(den) else 0.0

    out["flow.run.s_per_tau"] = ratio("flow.run.total_s", "flow.tau_final")
    out["soliton.s_per_iteration"] = ratio("soliton.solve_soliton.total_s", "soliton.newton_iterations")
    out["cli.sweep_concurrency"] = ratio("cli.run_experiment.total_s", "cli.main.total_s")
    return out
