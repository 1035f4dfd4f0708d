"""Daily bidding loop: build a model from one day of market data, solve
it, simulate the realized day under the empirical regulation signal (with
optional intraday buy-back of regulation energy), and account for cash
flows.
"""

from __future__ import annotations

import datetime
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .builder import (
    MWH_PER_KWH,
    case_cuts,
    dispatch_variant,
    split_arbitrage_lp,
)
from .data import DataError, Dataset, DayData
from .ir import ModelOptions
from .soc import realized_power, soc_path
from .solve import INFEASIBLE, OPTIMAL, SolveResult, solve
from .types import (
    AlignmentError,
    DomainError,
    RegulationSignal,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
    default_initial_soc,
    is_multiple_of,
)


class SolverError(RuntimeError):
    """The optimizer failed to return a usable solution."""


def budget_usage(signal: RegulationSignal, gamma: float) -> float:
    """Fraction of the deviation-time budget consumed by a signal; values
    above 1 are admissible diagnostics."""
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    return signal.abs_integral() / gamma


def _trailing_sums(v: np.ndarray, window_len: int) -> np.ndarray:
    """Sum of v over the trailing window of window_len entries ending at
    each index, added left to right."""
    return np.array([sum(v[max(0, j - window_len + 1):j + 1])
                     for j in range(len(v))], dtype=float)


def _abs_interval_integrals(signal: RegulationSignal,
                            grid: TimeGrid) -> np.ndarray:
    """Integral of |xi| over each trading interval, in hours; samples
    past the horizon are ignored."""
    magnitude = RegulationSignal(np.abs(signal.values),
                                 signal.sample_period_hours)
    return magnitude.interval_integrals(grid)


def intraday_adjustments(xr: np.ndarray, signal: RegulationSignal,
                         grid: TimeGrid, Gamma_prime: float) -> np.ndarray:
    """Per-interval intraday trades that buy back regulation energy
    accumulated over the trailing recovery window:

        x^a_{k+1} = -1/(Gamma' - dt) * sum_{i=i0(k+1)}^{k} xr_i * int xi_i

    with i0(j) = max{1, j - Gamma'/dt + 1}. The first interval has no
    history, so x^a_1 = 0.
    """
    if not is_multiple_of(Gamma_prime, grid.dt_hours):
        raise DomainError("Gamma_prime must be a multiple of dt")
    if Gamma_prime <= grid.dt_hours:
        raise DomainError("Gamma_prime must exceed dt")
    ints = signal.interval_integrals(grid)
    wlen = int(round(Gamma_prime / grid.dt_hours))
    # x^a_{k+1} sums the wlen - 1 intervals ending at k
    drift = _trailing_sums(xr * ints, wlen - 1)[:-1]
    return np.concatenate(([0.0], -drift / (Gamma_prime - grid.dt_hours)))


def drift_envelope(xr: np.ndarray, signal: RegulationSignal, grid: TimeGrid,
                   Gamma_prime: float) -> np.ndarray:
    """Upper bound on |realized SOC - planned SOC| at each interval
    boundary when intraday adjustments are active (lossless guarantee):
    the trailing-window sum of xr_i * int |xi_i|."""
    wlen = int(round(Gamma_prime / grid.dt_hours))
    return _trailing_sums(xr * _abs_interval_integrals(signal, grid), wlen)


def window_budget_usage(signal: RegulationSignal, grid: TimeGrid,
                        gamma_prime: float, Gamma_prime: float) -> float:
    """Worst usage of the rolling deviation budget: max over trailing
    windows of (sum of per-interval |xi| integrals) / gamma'."""
    wlen = int(round(Gamma_prime / grid.dt_hours))
    sums = _trailing_sums(_abs_interval_integrals(signal, grid), wlen)
    return max(0.0, float(sums.max())) / gamma_prime


@dataclass(frozen=True)
class ExperimentConfig:
    """One backtest run: battery, grid, budget, model variant, and the
    daily protocol knobs."""

    params: StorageParams
    grid: TimeGrid
    budget: UncertaintyBudget
    options: ModelOptions = ModelOptions()
    bidding_time: str = "midnight"  # or "8am"
    day_coupling: bool = False
    time_limit: float | None = 60.0
    gap_target: float | None = None
    initial_soc: float | None = None
    start_date: str | None = None
    end_date: str | None = None

    def __post_init__(self):
        if self.bidding_time not in ("midnight", "8am"):
            raise DomainError("bidding_time must be 'midnight' or '8am'")
        self.budget.validate_for_grid(self.grid)

    @property
    def y0_default(self) -> float:
        if self.initial_soc is not None:
            return self.initial_soc
        return default_initial_soc(self.params)


@dataclass(frozen=True)
class BacktestRecord:
    date: str
    status: str
    objective: float
    profit_total: float
    profit_fcr: float
    profit_dayahead: float
    profit_intraday: float
    regulation_energy_cash: float  # settled separately, not in profit_total
    throughput: float
    soc_min: float
    soc_max: float
    soc_midnight: float
    power_min: float
    power_max: float
    budget_usage: float
    y0: float
    solve_time: float = 0.0
    gap: float = np.nan
    violations: tuple[str, ...] = ()
    solve_path: str = "milp"

    def to_dict(self, include_timing: bool = False) -> dict:
        d = asdict(self)
        d["violations"] = list(self.violations)
        if include_timing:
            d["gap"] = None if not np.isfinite(self.gap) else self.gap
        else:
            for key in ("solve_time", "gap", "solve_path"):
                del d[key]
        return d


def _extract_bids(point: dict[str, float], K: int, options: ModelOptions):
    x0 = np.array([point[f"x0[{k}]"] for k in range(1, K + 1)])
    if options.fcr_enabled:
        xr = np.array([point[f"xr[{k}]"] for k in range(1, K + 1)])
        return x0, xr, xr
    return x0, np.zeros(K), np.zeros(K)


# a split LP point counts as complementary when no interval charges and
# discharges at once by more than this many kW
COMPLEMENTARY_TOL = 1e-9


def _solve_arbitrage(config: ExperimentConfig, split,
                     build) -> SolveResult:
    """Solve an arbitrage-only day whose model ``build()`` has
    charge/discharge binaries, building that model only where the split
    LP ``split`` does not settle the day.

    The split LP bounds the model from below. With x_up = x_dn = 0 the
    worst-case SOC path is the nominal path of x0. At a complementary
    point of the split LP (no interval with both c[k] and d[k] above
    ``COMPLEMENTARY_TOL``) its state z is that nominal path for
    x0 = d - c, and z's bounds and rows are the model's SOC limits: the
    lower limit from ``y0_lo``, the upper from ``y0_hi`` and the terminal
    floor. So x0 is a feasible bid at the bound, hence optimal: it is
    returned as ``optimal`` with gap 0, path ``split-lp`` and a point
    holding x0 only.

    An infeasible split LP proves the model infeasible, and its result
    is returned as it is. Otherwise the split LP charges and discharges
    in one interval, which only negative prices pay for, and the MILP
    runs on ``build()``. Both solves share ``config.time_limit``."""
    t0 = time.perf_counter()
    lower = solve(split, time_limit=config.time_limit)
    if lower.status == INFEASIBLE:
        return lower
    if lower.status == OPTIMAL:
        K = config.grid.K
        c = np.array([lower.point[f"c[{k}]"] for k in range(1, K + 1)])
        d = np.array([lower.point[f"d[{k}]"] for k in range(1, K + 1)])
        if np.all(np.minimum(c, d) <= COMPLEMENTARY_TOL):
            return replace(lower, path="split-lp", point={
                f"x0[{k}]": float(v) for k, v in enumerate(d - c, 1)})
    time_left = None
    if config.time_limit is not None:
        time_left = max(0.0, config.time_limit - (time.perf_counter() - t0))
    return solve(build(), time_limit=time_left, gap_target=config.gap_target)


def run_day(config: ExperimentConfig, day: DayData, y0: float,
            drift: float = 0.0):
    """Bid for one day, then replay it under the recorded signal; returns
    the record and the accepted bids, ``(record, x0, x_up, x_dn)``.

    The model plans for every start SOC in ``y0 +/- drift``, clamped to
    the SOC range; the replay starts at ``y0``, clamped, and reads the
    signal up to the trading horizon.

    Cash flows: FCR availability revenue at the block prices, day-ahead
    revenue for x0, intraday trades valued at the concurrent day-ahead
    price. Realized regulation energy is also valued at the day-ahead
    price but reported separately (zero in expectation).
    """
    params, grid, budget = config.params, config.grid, config.budget
    prices, signal = day.prices, day.signal
    per = signal.check_alignment(grid)

    lo, hi = params.y_min, params.y_max
    y0c, y0_lo, y0_hi = np.clip([y0, y0 - drift, y0 + drift], lo, hi).tolist()

    def build():
        return dispatch_variant(params, grid, budget, y0_lo, prices,
                                config.options, y0_high=y0_hi)

    # a lossy battery's arbitrage model has charge/discharge binaries
    if config.options.variant == "arbitrage_only" and not params.is_lossless:
        split = split_arbitrage_lp(params, grid, y0_lo, prices,
                                   config.options, y0_high=y0_hi)
        res = _solve_arbitrage(config, split, build)
    else:
        ir = build()
        # a lossy battery's model has case binaries, whose cuts can prove
        # a relax-and-fix start without branch and bound
        cuts = None if params.is_lossless else case_cuts(ir, params, grid)
        res = solve(ir, time_limit=config.time_limit,
                    gap_target=config.gap_target, cuts=cuts)
    if not res.ok:
        raise SolverError(f"{day.date}: solver returned {res.status}: "
                          f"{res.message}")

    K = grid.K
    x0, x_up, x_dn = _extract_bids(res.point, K, config.options)
    da = prices.da_per_interval(grid)
    fcr = prices.fcr_per_interval(grid)
    dt = grid.dt_hours

    if config.options.intraday:
        xa = intraday_adjustments(x_up, signal, grid, budget.Gamma_prime)
    else:
        xa = np.zeros(K)

    xi = signal.values[:per * K]
    sample_dt = signal.sample_period_hours
    base = np.repeat(x0 + xa, per)
    power = realized_power(base, np.repeat(x_up, per), np.repeat(x_dn, per), xi)
    soc = soc_path(power, params, sample_dt, y0c)

    profit_da = float(np.sum(da * x0) * dt * MWH_PER_KWH)
    profit_fcr = float(np.sum(fcr * x_up) * MWH_PER_KWH)
    profit_id = float(np.sum(da * xa) * dt * MWH_PER_KWH)
    da_samples = np.repeat(da, per)
    reg_cash = float(np.sum(da_samples * (power - base))
                     * sample_dt * MWH_PER_KWH)
    throughput = float(params.eta_c
                       * np.sum(np.maximum(-power, 0.0)) * sample_dt)

    usage = budget_usage(RegulationSignal(xi, sample_dt),
                         budget.total_gamma(grid.T))

    violations: list[str] = []
    tol = 1e-7
    if soc.min() < lo - tol:
        violations.append(f"soc_below_min:{soc.min():.6f}")
    if soc.max() > hi + tol:
        violations.append(f"soc_above_max:{soc.max():.6f}")
    if config.options.intraday:
        plan = soc_path(np.repeat(x0, per), params, sample_dt, y0c)
        boundary = np.arange(1, K + 1) * per
        dy = np.abs(soc[boundary] - plan[boundary])
        env = drift_envelope(x_up, signal, grid, budget.Gamma_prime)
        bad = dy > env + 1e-6
        if np.any(bad):
            k = int(np.argmax(dy - env)) + 1
            violations.append(f"drift_envelope[{k}]:{dy[k - 1]:.6f}")

    record = BacktestRecord(
        date=day.date, status=res.status, objective=float(res.objective),
        profit_total=profit_fcr + profit_da + profit_id,
        profit_fcr=profit_fcr, profit_dayahead=profit_da,
        profit_intraday=profit_id, regulation_energy_cash=reg_cash,
        throughput=throughput, soc_min=float(soc.min()),
        soc_max=float(soc.max()), soc_midnight=float(soc[-1]),
        power_min=float(power.min()), power_max=float(power.max()),
        budget_usage=float(usage), y0=y0c, solve_time=res.solve_time,
        gap=res.gap, violations=tuple(violations), solve_path=res.path)
    return record, x0, x_up, x_dn


# the benchmark's pipeline imports the day step under its former name
run_day_with_bids = run_day


def is_dst_transition(date: str) -> bool:
    """Last Sunday of March or October (EU clock-change days)."""
    d = datetime.date.fromisoformat(date)
    if d.month not in (3, 10) or d.weekday() != 6:
        return False
    return (d + datetime.timedelta(days=7)).month != d.month


@dataclass
class BacktestReport:
    records: list[BacktestRecord] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def summary(self) -> dict:
        n = len(self.records)
        if n == 0:
            return {"days": 0, "skipped": len(self.skipped)}
        mean = lambda f: float(np.mean([f(r) for r in self.records]))
        return {
            "days": n,
            "skipped": len(self.skipped),
            "mean_profit_total": mean(lambda r: r.profit_total),
            "mean_profit_fcr": mean(lambda r: r.profit_fcr),
            "mean_profit_dayahead": mean(lambda r: r.profit_dayahead),
            "mean_profit_intraday": mean(lambda r: r.profit_intraday),
            "mean_throughput": mean(lambda r: r.throughput),
            "soc_min": float(min(r.soc_min for r in self.records)),
            "soc_max": float(max(r.soc_max for r in self.records)),
            "days_with_violations": sum(bool(r.violations)
                                        for r in self.records),
        }

    def series(self) -> list[tuple[str, float, float]]:
        """(date, cumulative profit, cumulative throughput) rows."""
        out, cp, ct = [], 0.0, 0.0
        for r in self.records:
            cp += r.profit_total
            ct += r.throughput
            out.append((r.date, cp, ct))
        return out


def _eight_am_drift(config: ExperimentConfig,
                    prev_bids: np.ndarray | None) -> float:
    """Uncertainty of the midnight SOC for bids placed at 8am the previous
    day: the worst regulation drift the previous day's already-committed
    reserve bids can cause between 8am and midnight."""
    if prev_bids is None:
        return 0.0
    grid, budget, params = config.grid, config.budget, config.params
    k8 = int(round(8.0 / grid.dt_hours))
    tail = prev_bids[k8:]
    if tail.size == 0 or np.max(tail) <= 0:
        return 0.0
    gamma_tail = budget.total_gamma(grid.T - 8.0)
    return gamma_tail * float(np.max(tail)) \
        * max(params.eta_c, 1.0 / params.eta_d)


def run_backtest(config: ExperimentConfig, dataset: Dataset,
                 dates: list[str] | None = None) -> BacktestReport:
    """Sequential daily loop. With day coupling, each day starts from the
    previous day's realized midnight SOC; otherwise every day starts from
    the configured initial SOC. DST transition days, missing or malformed
    data and solver failures skip the day with a reason."""
    if dates is None:
        dates = dataset.dates()
    if config.start_date is not None:
        dates = [d for d in dates if d >= config.start_date]
    if config.end_date is not None:
        dates = [d for d in dates if d <= config.end_date]

    report = BacktestReport()
    y0 = config.y0_default
    prev_xr: np.ndarray | None = None
    for date in dates:
        if is_dst_transition(date):
            report.skipped.append((date, "dst_transition"))
            continue
        try:
            day = dataset.load_day(date)
        except (DataError, AlignmentError, DomainError) as e:
            report.skipped.append((date, str(e)))
            continue
        # y0 stays as is until the day succeeds, so a skipped day leaves
        # the next day's start unchanged
        drift = 0.0
        if config.bidding_time == "8am":
            drift = _eight_am_drift(config, prev_xr)
        try:
            rec, _, x_up, _ = run_day(config, day, y0, drift=drift)
        except SolverError as e:
            report.skipped.append((date, str(e)))
            continue
        report.records.append(rec)
        prev_xr = x_up
        if config.day_coupling:
            y0 = rec.soc_midnight
    return report


def write_report(report: BacktestReport, out_dir: str,
                 include_timing: bool = False) -> dict[str, str]:
    """Write records.jsonl, summary.json, and series.csv. Timing fields
    are excluded by default so reruns are byte-identical."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "records": os.path.join(out_dir, "records.jsonl"),
        "summary": os.path.join(out_dir, "summary.json"),
        "series": os.path.join(out_dir, "series.csv"),
    }
    with open(paths["records"], "w") as f:
        for r in report.records:
            f.write(json.dumps(r.to_dict(include_timing=include_timing),
                               sort_keys=True) + "\n")
        for date, reason in report.skipped:
            f.write(json.dumps({"date": date, "skipped": reason},
                               sort_keys=True) + "\n")
    with open(paths["summary"], "w") as f:
        json.dump(report.summary(), f, sort_keys=True, indent=2)
        f.write("\n")
    with open(paths["series"], "w") as f:
        f.write("date,cumulative_profit_eur,cumulative_throughput_kwh\n")
        for date, cp, ct in report.series():
            f.write(f"{date},{cp!r},{ct!r}\n")
    return paths
