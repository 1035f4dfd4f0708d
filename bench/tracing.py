"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the layers of ``storagebid``: the
benchmark's own calls (load, bid, build, emit, certify) and, while the
patches are installed, the module-level names the layers call each other
through (``backtest.dispatch_variant``, ``backtest.solve``, ``solve.milp``
and ``soc.linprog``). The package itself is not edited.

A span records its name, start, end, parent span and day id. A span's
self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    day: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one traced run; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.day: str | None = None

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span called ``name``. ``observe``
        gets (attrs, args, result) after the span has ended, so the cost
        of observing is not charged to the layer."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0,
                        parent=self._stack[-1] if self._stack else None,
                        day=self.day)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span.attrs["error"] = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(span.attrs, args, result)
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "day": s.day, **s.attrs},
                                   sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Observers: counts read from a layer's arguments or result.
# ---------------------------------------------------------------------------

def observe_ir(attrs, args, ir):
    attrs.update(n_vars=ir.n_vars, n_rows=len(ir.rows),
                 nnz=sum(len(r.coeffs) for r in ir.rows),
                 n_binaries=ir.n_binaries,
                 n_bilinear=len(ir.bilinear_rows))


def observe_solve(attrs, args, res):
    attrs.update(status=res.status, gap=res.gap)


def observe_milp(attrs, args, res):
    attrs["nodes"] = int(getattr(res, "mip_node_count", 0) or 0)


def observe_load(attrs, args, day):
    dataset, date = args
    attrs["bytes"] = sum(
        os.path.getsize(os.path.join(dataset.root, sub, f"{date}.csv"))
        for sub in ("dayahead", "fcr", "frequency"))


def observe_day(attrs, args, result):
    record = result[0]
    attrs["violations"] = int(bool(record.violations))


def observe_emit(attrs, args, blob):
    attrs["bytes"] = len(blob)


def observe_certify(attrs, args, report):
    attrs.update(feasible=report.feasible, worst_slack=report.worst.slack)


# (module, attribute, span name, observer): names one layer calls another
# through. Modules are reached with import_module, because the package
# rebinds ``storagebid.solve`` to the solve function.
MODULE_PATCHES = (
    ("storagebid.backtest", "dispatch_variant", "builder.build", observe_ir),
    ("storagebid.backtest", "solve", "solve.solve", observe_solve),
    ("storagebid.solve", "milp", "solve.highs", observe_milp),
    ("storagebid.soc", "linprog", "soc.linprog", None),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the module-level wrappers; restore the originals on exit."""
    saved = []
    try:
        for mod_name, attr, span_name, observe in MODULE_PATCHES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span_name, original, observe))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced phase.
# ---------------------------------------------------------------------------

# name -> unit; times and counts are means per day of the traced phase.
PER_LAYER_UNITS = {
    "data.load_s": "s/day",
    "data.load_calls": "count/day",
    "data.bytes_read": "B/day",
    "data.errors": "count/day",
    "builder.build_s": "s/day",
    "builder.calls": "count/day",
    "ir.n_vars": "count",
    "ir.n_rows": "count",
    "ir.nnz": "count",
    "ir.n_binaries": "count",
    "ir.n_bilinear": "count",
    "mpsio.emit_s": "s/day",
    "mpsio.bytes": "B/day",
    "solve.solve_s": "s/day",
    "solve.highs_s": "s/day",
    "solve.overhead_s": "s/day",
    "solve.mip_nodes": "count/day",
    "solve.status.optimal": "count/day",
    "solve.status.feasible_limit": "count/day",
    "solve.status.failed": "count/day",
    "solve.gap_mean": "frac",
    "solve.gap_max": "frac",
    "soc.certify_s": "s/day",
    "soc.certify_calls": "count/day",
    "soc.linprog_s": "s/day",
    "soc.linprog_calls": "count/day",
    "soc.self_s": "s/day",
    "soc.uncertified": "count/day",
    "soc.worst_slack_min": "kWh",
    "backtest.day_s": "s/day",
    "backtest.self_s": "s/day",
    "backtest.replay_violations": "count/day",
    "backtest.errors": "count/day",
    "trace.day_s": "s/day",
    "trace.uncovered_s": "s/day",
    "trace.overhead_s": "s/day",
}


def layer_metrics(spans: list[Span], n_days: int,
                  overhead_s: float) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics named in
    PER_LAYER_UNITS. ``overhead_s`` is the traced minus the untraced mean
    day time of the same days, which the spans cannot tell."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def of(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name):
        return sum(s.seconds for s in of(name)) / n_days

    def self_s(name):
        return sum(spans[i].seconds - child_s[i]
                   for i in by_name.get(name, [])) / n_days

    def count(name, pred=lambda s: True):
        return sum(1 for s in of(name) if pred(s)) / n_days

    def attr_mean(name, key):
        vals = [s.attrs[key] for s in of(name) if key in s.attrs]
        return sum(vals) / len(vals) if vals else 0.0

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in of(name)) / n_days

    gaps = [s.attrs["gap"] for s in of("solve.solve")
            if math.isfinite(s.attrs.get("gap", math.inf))]
    slacks = [s.attrs["worst_slack"] for s in of("soc.certify")
              if "worst_slack" in s.attrs]
    failed_status = ("optimal", "feasible_limit")
    return {
        "data.load_s": total("data.load"),
        "data.load_calls": count("data.load"),
        "data.bytes_read": attr_sum("data.load", "bytes"),
        "data.errors": count("data.load", lambda s: "error" in s.attrs),
        "builder.build_s": total("builder.build"),
        "builder.calls": count("builder.build"),
        "ir.n_vars": attr_mean("builder.build", "n_vars"),
        "ir.n_rows": attr_mean("builder.build", "n_rows"),
        "ir.nnz": attr_mean("builder.build", "nnz"),
        "ir.n_binaries": attr_mean("builder.build", "n_binaries"),
        "ir.n_bilinear": attr_mean("builder.build", "n_bilinear"),
        "mpsio.emit_s": total("mpsio.emit"),
        "mpsio.bytes": attr_sum("mpsio.emit", "bytes"),
        "solve.solve_s": total("solve.solve"),
        "solve.highs_s": total("solve.highs"),
        "solve.overhead_s": self_s("solve.solve"),
        "solve.mip_nodes": attr_sum("solve.highs", "nodes"),
        "solve.status.optimal": count(
            "solve.solve", lambda s: s.attrs.get("status") == "optimal"),
        "solve.status.feasible_limit": count(
            "solve.solve",
            lambda s: s.attrs.get("status") == "feasible_limit"),
        "solve.status.failed": count(
            "solve.solve",
            lambda s: s.attrs.get("status") not in failed_status),
        "solve.gap_mean": sum(gaps) / len(gaps) if gaps else 0.0,
        "solve.gap_max": max(gaps, default=0.0),
        "soc.certify_s": total("soc.certify"),
        "soc.certify_calls": count("soc.certify"),
        "soc.linprog_s": total("soc.linprog"),
        "soc.linprog_calls": count("soc.linprog"),
        "soc.self_s": self_s("soc.certify"),
        "soc.uncertified": count(
            "soc.certify", lambda s: s.attrs.get("feasible") is False),
        "soc.worst_slack_min": min(slacks, default=0.0),
        "backtest.day_s": total("backtest.day"),
        "backtest.self_s": self_s("backtest.day"),
        "backtest.replay_violations": attr_sum("backtest.day",
                                               "violations"),
        "backtest.errors": count("backtest.day",
                                 lambda s: "error" in s.attrs),
        "trace.day_s": total("day"),
        "trace.uncovered_s": self_s("day"),
        "trace.overhead_s": overhead_s,
    }


# Self-time rows of the text breakdown: (label, metric). Together they
# add up to the traced day time.
SELF_TIME_ROWS = (
    ("data (load)", "data.load_s"),
    ("builder (build)", "builder.build_s"),
    ("mpsio (emit)", "mpsio.emit_s"),
    ("solve overhead", "solve.overhead_s"),
    ("solve HiGHS milp", "solve.highs_s"),
    ("backtest self", "backtest.self_s"),
    ("soc linprog", "soc.linprog_s"),
    ("soc self", "soc.self_s"),
    ("uncovered", "trace.uncovered_s"),
)
