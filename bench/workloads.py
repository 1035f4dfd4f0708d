"""Benchmark workloads: inputs made from a seed, the per-day pipeline each
workload times, and the checks on its outputs.

A workload is a pool of trading days. ``pipeline`` is the timed unit of
work for one day and calls the layers only through the namespace
``layers()`` returns, so the traced run can wrap them. ``check`` runs
untimed on the pipeline's outputs and returns a ``DayOutcome``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from storagebid.backtest import ExperimentConfig, run_day_with_bids
from storagebid.builder import dispatch_variant
from storagebid.data import (
    FREQ_SAMPLE_S,
    Dataset,
    generate_synthetic_dataset,
)
from storagebid.ir import ModelOptions
from storagebid.mpsio import emit_model
from storagebid.soc import check_feasibility, simulate_soc
from storagebid.types import (
    BidSchedule,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
    default_initial_soc,
)

import tracing

# The acceptance test's battery and budget: +-50 kW, 10-90 kWh,
# eta = 0.92, gamma = 2 h.
BATTERY = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0, y_max=90.0,
                        eta_c=0.92, eta_d=0.92)
GAMMA_H = 2.0
BUDGET = UncertaintyBudget(kind="total_budget", gamma=GAMMA_H)
# Synthetic seed of the acceptance backtest's dataset.
ACCEPTANCE_SEED = 21

PROFIT_TOL = 1e-9   # profit_total == fcr + dayahead + intraday
WITNESS_TOL = 1e-6  # replayed witness SOC == oracle value, kWh
MWH_PER_KWH = 1e-3
SAMPLE_H = FREQ_SAMPLE_S / 3600.0

# Seconds the speed probe takes at the reference speed, that of an idle
# 2-core x86 VM of the kind the pool sizes were set on.
PROBE_REF_S = 0.015
_PROBE_C = np.ones(20)
_PROBE_A = np.ones((1, 20))


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter, numpy and HiGHS work, about
    15 ms. On a shared VM the CPU runs up to twice as slow for seconds at
    a time; probes taken between days track that speed. The probe uses
    scipy directly, not storagebid, so no change to the package moves
    it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    a = np.arange(20000.0)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)
    for _ in range(3):
        linprog(_PROBE_C, A_ub=_PROBE_A, b_ub=[1.0], bounds=(0, 1),
                method="highs")
    return time.perf_counter() - t0


def layers(wrap=None) -> SimpleNamespace:
    """The layer entry points a pipeline calls. ``wrap(name, fn,
    observe)`` is the tracer's wrapper; without it the raw functions are
    used."""
    if wrap is None:
        def wrap(name, fn, observe=None):
            return fn
    return SimpleNamespace(
        load_day=wrap("data.load", Dataset.load_day, tracing.observe_load),
        run_day_with_bids=wrap("backtest.day", run_day_with_bids,
                               tracing.observe_day),
        dispatch_variant=wrap("builder.build", dispatch_variant,
                              tracing.observe_ir),
        emit_model=wrap("mpsio.emit", emit_model, tracing.observe_emit),
        check_feasibility=wrap("soc.certify", check_feasibility,
                               tracing.observe_certify),
    )


@dataclass
class DayOutcome:
    day: str
    seconds: float
    profit: float                 # EUR earned by the day's accepted bids
    failure: str | None           # why the day counts as failed
    digest: str                   # hash of the day's outputs
    mismatches: list[str] = field(default_factory=list)
    probe_s: float = math.nan     # speed probe around the day

    @property
    def scaled_s(self) -> float:
        """Day time at the reference speed."""
        return self.seconds * PROBE_REF_S / self.probe_s


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def failed_day(day: str, seconds: float, exc: Exception) -> DayOutcome:
    reason = f"{type(exc).__name__}: {exc}"
    return DayOutcome(day=day, seconds=seconds, profit=0.0, failure=reason,
                      digest=_digest({"error": reason}))


def witness_mismatches(report, bids: BidSchedule, grid: TimeGrid,
                       y0: float) -> list[str]:
    """Replay the witness signal of every violated SOC check and compare
    the simulated SOC at the witness time with the oracle's value.

    A witness time on a signal-sample boundary must reproduce the value.
    Inside a sample the sampled witness can only approximate the
    continuous-time worst case (``to_signal`` scales the boundary
    sample), so there the replay may fall short of the oracle's value
    but must never pass it.
    """
    out = []
    for c in report.violations():
        w = c.witness
        if w is None:
            continue
        traj = simulate_soc(bids, w.to_signal(grid, SAMPLE_H), BATTERY,
                            grid, y0)
        got = traj.value_at(w.t_star)
        beyond = (got - w.value) * -w.sign  # > 0: replay passes the oracle
        samples = w.t_star / SAMPLE_H
        aligned = abs(samples - round(samples)) < 1e-9
        exact = abs(got - w.value) <= WITNESS_TOL
        sound = beyond <= WITNESS_TOL
        if not sound or (aligned and not exact):
            out.append(f"{c.name}: oracle {w.value!r} kWh, witness replay "
                       f"{got!r} kWh at t={w.t_star!r} h")
    return out


def _verdict(report) -> dict:
    return {"feasible": bool(report.feasible),
            "violated": [c.name for c in report.violations()]}


def _bids_payload(bids: BidSchedule) -> list[list[float]]:
    return [bids.x0.tolist(), bids.x_up.tolist(), bids.x_dn.tolist()]


def acceptance_days(workdir: str, n_days: int) -> tuple[Dataset, list[str]]:
    """The first ``n_days`` market days of the acceptance dataset."""
    root = os.path.join(workdir, "data")
    days = generate_synthetic_dataset(root, seed=ACCEPTANCE_SEED,
                                      days=n_days, gamma=GAMMA_H)
    return Dataset(root), days


class BidDays:
    """Bid a day and certify its bids: the ``storagebid solve-day``
    pipeline (load, ``run_day_with_bids``, ``check_feasibility``)."""

    grid = TimeGrid(dt_hours=1.0, K=24)

    def __init__(self, options: ModelOptions, gap_target: float | None,
                 pool_days: int):
        self.config = ExperimentConfig(
            params=BATTERY, grid=self.grid, budget=BUDGET, options=options,
            time_limit=120.0, gap_target=gap_target)
        self.pool_days = pool_days
        self.dataset: Dataset | None = None
        self.days: list[str] = []

    def setup(self, seed: int, workdir: str, n_days: int) -> None:
        """Market days of the acceptance dataset, replayed against the
        regulation signals of the seed's own synthetic days."""
        self.dataset, self.days = acceptance_days(workdir, n_days)
        sig_root = os.path.join(workdir, "signals")
        generate_synthetic_dataset(sig_root, seed=seed, days=n_days,
                                   gamma=GAMMA_H)
        for d in self.days:
            shutil.copyfile(
                os.path.join(sig_root, "frequency", f"{d}.csv"),
                os.path.join(self.dataset.root, "frequency", f"{d}.csv"))

    def pipeline(self, lay, date: str):
        day = lay.load_day(self.dataset, date)
        record, x0, x_up, x_dn = lay.run_day_with_bids(
            self.config, day, self.config.y0_default)
        bids = BidSchedule(x0=x0, x_up=x_up, x_dn=x_dn)
        report = lay.check_feasibility(bids, BATTERY, self.grid, GAMMA_H,
                                       record.y0)
        return record, bids, report

    def check(self, date: str, seconds: float, out) -> DayOutcome:
        record, bids, report = out
        mismatches = []
        parts = (record.profit_fcr + record.profit_dayahead
                 + record.profit_intraday)
        if not abs(record.profit_total - parts) <= PROFIT_TOL:
            mismatches.append(f"profit_total {record.profit_total!r} != "
                              f"sum of parts {parts!r}")
        mismatches += witness_mismatches(report, bids, self.grid, record.y0)
        failure = None
        if record.violations:
            failure = "replay violations: " + ", ".join(record.violations)
        elif not report.feasible:
            failure = (f"uncertified: {report.worst.name} misses by "
                       f"{-report.worst.slack:.3e} kWh")
        digest = _digest({"record": record.to_dict(),
                          "bids": _bids_payload(bids), **_verdict(report)})
        return DayOutcome(day=date, seconds=seconds,
                          profit=record.profit_total, failure=failure,
                          digest=digest, mismatches=mismatches)


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n seeded draws from [lo, hi), one in each of n equal strata, in
    random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


class QuarterHourDays:
    """Build, emit and certify one quarter-hour day without solving: the
    ``storagebid build`` (external-solver) and ``storagebid verify``
    paths at K = 96."""

    grid = TimeGrid(dt_hours=0.25, K=96)
    options = ModelOptions(variant="restriction", fcr_block_len=16,
                           da_block_len=4)
    # Reserve levels (kW) of schedules meant to pass and to fail. From the
    # default initial SOC, reserve above about 17 kW cannot pass with
    # gamma = 2 h, so the two bands keep a margin on either side.
    PASS_BAND = (5.0, 10.0)
    FAIL_BAND = (22.0, 28.0)
    ARBITRAGE_KW = (0.5, 2.0)

    def __init__(self, pool_days: int):
        self.pool_days = pool_days
        self.y0 = default_initial_soc(BATTERY)
        self.dataset: Dataset | None = None
        self.days: list[str] = []
        self.schedules: dict[str, BidSchedule] = {}
        self.values: dict[str, float] = {}

    def setup(self, seed: int, workdir: str, n_days: int) -> None:
        """Seeded schedules, even days from the pass band and odd days
        from the fail band. Levels and arbitrage amplitudes are stratified
        draws, so every pool spans its bands evenly."""
        self.dataset, self.days = acceptance_days(workdir, n_days)
        rng = np.random.default_rng([seed, self.grid.K])
        n_pass = (n_days + 1) // 2
        levels, amps = np.empty(n_days), np.empty(n_days)
        for days, n, band in ((slice(0, None, 2), n_pass, self.PASS_BAND),
                              (slice(1, None, 2), n_days - n_pass,
                               self.FAIL_BAND)):
            levels[days] = _stratified(rng, n, *band)
            amps[days] = _stratified(rng, n, *self.ARBITRAGE_KW)
        for d, level, amp in zip(self.days, levels, amps):
            prices = self.dataset.load_day(d).prices
            bids = self.schedule(prices.day_ahead, level, amp)
            self.schedules[d] = bids
            self.values[d] = self.market_value(bids, prices)

    def schedule(self, da: np.ndarray, level: float,
                 amp: float) -> BidSchedule:
        """Symmetric reserve at ``level`` kW in every 4 h FCR block plus an
        hourly arbitrage bid of up to ``amp`` kW that sells above and buys
        below the day's mean price. Power stays within bounds."""
        x0_hourly = amp * np.clip((da - da.mean()) / da.std(), -1.0, 1.0)
        reserve = np.full(self.grid.K, level)
        return BidSchedule(x0=np.repeat(x0_hourly, 4), x_up=reserve,
                           x_dn=reserve.copy())

    def market_value(self, bids: BidSchedule, prices) -> float:
        """FCR availability plus day-ahead revenue of a schedule at the
        day's prices, as the backtest accounts them."""
        fcr = prices.fcr_per_interval(self.grid)
        da_k = prices.da_per_interval(self.grid)
        return float(np.sum(fcr * bids.x_up) * MWH_PER_KWH
                     + np.sum(da_k * bids.x0) * self.grid.dt_hours
                     * MWH_PER_KWH)

    def pipeline(self, lay, date: str):
        day = lay.load_day(self.dataset, date)
        ir = lay.dispatch_variant(BATTERY, self.grid, BUDGET, self.y0,
                                  day.prices, self.options)
        blob = lay.emit_model(ir, "MPS")
        report = lay.check_feasibility(self.schedules[date], BATTERY,
                                       self.grid, GAMMA_H, self.y0)
        return blob, report

    def check(self, date: str, seconds: float, out) -> DayOutcome:
        blob, report = out
        bids = self.schedules[date]
        mismatches = witness_mismatches(report, bids, self.grid, self.y0)
        # a schedule that fails certification cannot be offered
        profit = self.values[date] if report.feasible else 0.0
        digest = _digest({"mps_sha256": hashlib.sha256(blob).hexdigest(),
                          "bids": _bids_payload(bids), **_verdict(report)})
        return DayOutcome(day=date, seconds=seconds, profit=profit,
                          failure=None, digest=digest, mismatches=mismatches)


# Pool sizes put one pass over a pool near 25 s on an idle 2-core x86 VM
# (Python 3.11, scipy 1.17): joint days take 2-15 s, arbitrage-only days
# 0.5-2 s and quarter-hour days about 1.1 s. A K = 24 day's solve time
# depends on its prices so strongly that seeded pools spread by 15-40 %
# between seeds, and the FCR revenue of seeded quarter-hour days by 6 %.
# So every workload uses the acceptance dataset's market days; the seed
# draws the regulation signals and the quarter-hour schedules.
WORKLOADS = {
    "joint-k24": lambda: BidDays(
        ModelOptions(variant="restriction", fcr_block_len=4, da_block_len=1),
        gap_target=0.1, pool_days=4),
    "arbitrage-k24": lambda: BidDays(
        ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                     da_block_len=1),
        gap_target=None, pool_days=30),
    "quarterhour-k96": lambda: QuarterHourDays(pool_days=22),
}


def run_day(workload, lay, pipeline, date: str) -> DayOutcome:
    """Time one day's pipeline, then check its outputs untimed. A day
    that raises counts as failed and does not stop the run."""
    t0 = time.perf_counter()
    try:
        out = pipeline(lay, date)
    except Exception as e:
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return failed_day(date, seconds, e)
    seconds = time.perf_counter() - t0
    return workload.check(date, seconds, out)


def run_passes(workload, lay, pipeline, budget_s: float,
               tracer=None) -> list[list[DayOutcome]]:
    """Whole passes over the pool until the next pass would end more than
    half a pass after ``budget_s``; at least one. Returns the outcomes of
    each pass."""
    passes = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        outcomes = []
        before = speed_probe()
        for date in workload.days:
            if tracer is not None:
                tracer.day = date
            outcome = run_day(workload, lay, pipeline, date)
            after = speed_probe()
            outcome.probe_s = (before + after) / 2
            before = after
            outcomes.append(outcome)
        passes.append(outcomes)
        now = time.perf_counter()
        if now - t_start + (now - t_pass) / 2 >= budget_s:
            return passes


def pass_mismatches(reference: list[DayOutcome], passes,
                    label: str) -> list[str]:
    """Every pass must reproduce the reference pass's outputs."""
    return [f"{label} pass {p + 1} changed the outputs of {o.day}"
            for p, outcomes in enumerate(passes)
            for ref, o in zip(reference, outcomes)
            if o.digest != ref.digest]


def pool_digest(outcomes: list[DayOutcome]) -> str:
    return hashlib.sha256(
        "\n".join(o.digest for o in outcomes).encode()).hexdigest()
