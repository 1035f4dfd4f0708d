#!/usr/bin/env python3
"""storagebid benchmark: bid-and-certify trading days, timed end to end,
with a separate traced run for per-layer figures.

Run from the repository root:

    python3 bench/run.py --workload joint-k24 --seed 7 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Inputs are generated from ``--seed`` under ``.bench_work/`` and removed at
exit. A run drives whole passes over the workload's pool of days until
about ``--seconds`` have passed, at least one pass. Times in the metrics
are scaled to a reference machine speed by a fixed-work probe run between
days (``workloads.speed_probe``); the report also prints the wall-clock
figures. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics. With ``--trace 1`` half the time goes to untraced passes and
half to traced ones, the JSON holds the per-layer metrics, and the spans
are written to ``.bench_work/``. The lines before the JSON are a
human-readable report. Exit status: 0 on success, 1 when an output check
fails, 2 when the sources cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "days_per_s": "1/s",
    "day_s_p50": "s",
    "mean_profit_eur": "EUR",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--days", type=int, default=None,
                   help="days per pool (default: the workload's own size)")
    return p.parse_args(argv)


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a beta-weighted mean of the
    order statistics. A pool's days cost unequal times, so the plain
    median jumps between neighbouring days as noise reorders them; this
    estimate moves smoothly."""
    import numpy as np
    from scipy.stats import beta
    x = np.sort(values)
    n = len(x)
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) / 2, (n + 1) / 2)
    return float(np.diff(edges) @ x)


def tail(times):
    """(percentile, value) of the highest percentile with at least ten
    days above it, or None when there are too few days."""
    n = len(times)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(times)[n - 11]


def end_to_end(setup_s, passes):
    """End-to-end metrics and their report lines."""
    first = passes[0]
    days = [o for p in passes for o in p]
    times = [o.scaled_s for o in days]
    wall = [o.seconds for o in days]
    failed = [o for o in days if o.failure]
    # read before hd_median imports scipy.stats, which the package never
    # loads
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m = {
        "setup_s": setup_s,
        "days_per_s": len(times) / sum(times),
        "day_s_p50": hd_median(times),
        "mean_profit_eur": statistics.fmean(o.profit for o in first),
        "peak_rss_mb": rss_mb,
    }
    t = tail(times)
    lines = [
        f"setup_s         {m['setup_s']:.4f} s (import + median of "
        f"{SETUP_REPEATS} input set-ups)",
        f"days_per_s      {m['days_per_s']:.4f} 1/s ({len(times)} days in "
        f"{sum(times):.2f} s of day time)",
        f"day_s_p50       {m['day_s_p50']:.4f} s (n={len(times)})",
        f"day_s_tail      p{t[0]} = {t[1]:.4f} s (10 of {len(times)} days "
        f"above)" if t else
        f"day_s_tail      not reported: {len(times)} days timed, a tail "
        f"needs at least 11",
        f"mean_profit_eur {m['mean_profit_eur']:.6f} EUR (mean over the "
        f"{len(first)} days of the pool)",
        f"failed_frac     {len(failed) / len(days):.4f} ({len(failed)} of "
        f"{len(days)} days)",
        f"peak_rss_mb     {m['peak_rss_mb']:.1f} MB",
        f"wall            days_per_s {len(wall) / sum(wall):.4f} 1/s, "
        f"day_s_p50 {statistics.median(wall):.4f} s",
    ]
    lines += [f"  failed {o.day}: {o.failure}"
              for o in {o.day: o for o in failed}.values()]
    return m, lines


def per_layer(tracing, tracer, passes, traced, spans_path):
    """Per-layer metrics of the traced passes and their report lines."""
    plain_s = statistics.fmean(o.scaled_s for p in passes for o in p)
    traced_s = statistics.fmean(o.scaled_s for p in traced for o in p)
    n = sum(len(p) for p in traced)
    m = tracing.layer_metrics(tracer.spans, n, traced_s - plain_s)
    day_s = m["trace.day_s"]
    lines = [f"traced          {n} days, {day_s:.4f} s/day of wall time; "
             f"at the reference speed untraced {plain_s:.4f} s/day, traced "
             f"{traced_s:.4f} s/day; spans in {spans_path}",
             "self time per day by layer:"]
    for label, name in tracing.SELF_TIME_ROWS:
        share = 100 * m[name] / day_s if day_s > 0 else 0.0
        lines.append(f"  {label:18s} {m[name]:10.4f} s {share:6.1f} %")
    lines += [f"{name:28s} {m[name]:.6g} {unit}"
              for name, unit in tracing.PER_LAYER_UNITS.items()]
    return m, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "storagebid", "__init__.py")):
        print(f"error: storagebid sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    import numpy
    import scipy
    import storagebid
    import tracing
    if not os.path.abspath(storagebid.__file__).startswith(SRC + os.sep):
        print(f"error: storagebid was imported from {storagebid.__file__}",
              file=sys.stderr)
        return 2
    # set-up times are scaled by the speed probe that follows each of them
    import_s *= workloads.PROBE_REF_S / workloads.speed_probe()

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                               dir=WORK)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup(args.seed, workdir, args.days or workload.pool_days)
            setup.append((time.perf_counter() - t) * workloads.PROBE_REF_S
                         / workloads.speed_probe())
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = workloads.run_passes(workload, workloads.layers(),
                                      workload.pipeline, budget)
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced = workloads.run_passes(
                    workload, workloads.layers(tracer.wrap),
                    tracer.wrap("day", workload.pipeline), budget, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = passes[0]
    mismatches = [m for p in passes for o in p for m in o.mismatches]
    mismatches += workloads.pass_mismatches(first, passes[1:], "untraced")
    lines = [
        f"workload        {args.workload}  seed {args.seed}  "
        f"K={workload.grid.K}  {len(first)} days per pass, "
        f"{len(passes)} untraced pass(es)",
        f"provenance      nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} machine={platform.machine()}",
        f"digest          sha256:{workloads.pool_digest(first)}",
        f"setup           import {import_s:.3f} s, inputs "
        + ", ".join(f"{s:.3f}" for s in setup) + " s at the reference "
        f"speed",
    ]
    if args.trace:
        attempted = [o for p in traced for o in p]
        mismatches += [m for o in attempted for m in o.mismatches]
        mismatches += workloads.pass_mismatches(first, traced, "traced")
        spans_path = os.path.join(
            WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
        metrics, more = per_layer(tracing, tracer, passes, traced,
                                  spans_path)
        units = tracing.PER_LAYER_UNITS
    else:
        attempted = [o for p in passes for o in p]
        metrics, more = end_to_end(import_s + statistics.median(setup),
                                   passes)
        units = END_TO_END_UNITS
    lines += more + [f"MISMATCH {m}" for m in dict.fromkeys(mismatches)]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": len(attempted),
        "failed": sum(1 for o in attempted if o.failure),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
