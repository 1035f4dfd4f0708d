"""Command-line interface: build model files, run single days or full
backtests, verify candidate bids, and generate synthetic data.

Exit codes: 0 success, 1 data error, 2 configuration error, 3 solver
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import backtest as bt
from . import data as dat
from .builder import dispatch_variant
from .ir import ModelError, ModelOptions
from .mpsio import EmissionError, emit_model
from .soc import check_feasibility, max_soc_at_time, max_soc_over_interval
from .types import (
    AlignmentError,
    BidSchedule,
    DomainError,
    PriceSeries,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}

_OPTION_KEYS = {
    "variant": str, "fcr_enabled": bool,
    "intraday": bool, "terminal_soc_floor": float,
    "limited_arbitrage": bool, "fcr_block_len": int, "da_block_len": int,
}
_PARAM_KEYS = {"x_min": float, "x_max": float, "y_min": float,
               "y_max": float, "eta_c": float, "eta_d": float}
_GRID_KEYS = {"dt_hours": float, "K": int}
_BUDGET_KEYS = {"budget_kind": str, "gamma": float, "gamma_prime": float,
                "Gamma_prime": float}
_RUN_KEYS = {"bidding_time": str, "day_coupling": bool, "time_limit": float,
             "gap_target": float, "initial_soc": float,
             "start_date": str, "end_date": str}


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {ln}: duplicate key {key}")
        raw[key] = val
    return raw


def _convert(key: str, val: str, typ):
    try:
        if typ is bool:
            if val.lower() not in _BOOL:
                raise ValueError(val)
            return _BOOL[val.lower()]
        return typ(val)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {val!r}") from None


def config_from_mapping(raw: dict[str, str]) -> bt.ExperimentConfig:
    groups = (_OPTION_KEYS, _PARAM_KEYS, _GRID_KEYS, _BUDGET_KEYS, _RUN_KEYS)
    known = {k for g in groups for k in g}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def take(keys):
        return {k: _convert(k, raw[k], t)
                for k, t in keys.items() if k in raw}

    try:
        params = StorageParams(**take(_PARAM_KEYS))
        grid = TimeGrid(**take(_GRID_KEYS))
        bkeys = take(_BUDGET_KEYS)
        kind = bkeys.pop("budget_kind", "total_budget")
        budget = UncertaintyBudget(kind=kind, **bkeys)
        options = ModelOptions(**take(_OPTION_KEYS))
        run = take(_RUN_KEYS)
        return bt.ExperimentConfig(params=params, grid=grid, budget=budget,
                                   options=options, **run)
    except TypeError as e:
        raise ConfigError(str(e)) from None
    except DomainError as e:
        raise ConfigError(str(e)) from None


def load_config(path: str, overrides: dict | None = None
                ) -> bt.ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        raw = parse_config_text(f.read())
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_mapping(raw)


def _zero_prices(config: bt.ExperimentConfig) -> PriceSeries:
    """Zero prices in the default block lengths, covering the horizon."""
    T = config.grid.T
    return PriceSeries(
        day_ahead=np.zeros(math.ceil(T / PriceSeries.da_block_hours)),
        fcr_availability=np.zeros(math.ceil(T / PriceSeries.fcr_block_hours)))


def cmd_build(args) -> int:
    config = load_config(args.config, {"variant": args.variant})
    if (args.data_dir is None) != (args.date is None):
        raise ConfigError("--data-dir and --date must be given together")
    if args.data_dir is not None:
        prices = dat.Dataset(args.data_dir).load_day(args.date).prices
    else:
        prices = _zero_prices(config)
    ir = dispatch_variant(config.params, config.grid, config.budget,
                          config.y0_default, prices, config.options)
    fmt = "lp" if args.out.endswith(".lp") else "mps"
    blob = emit_model(ir, fmt)
    with open(args.out, "wb") as f:
        f.write(blob)
    manifest = {
        "model_file": os.path.basename(args.out),
        "format": fmt,
        "variant": config.options.variant,
        "K": config.grid.K,
        "n_variables": ir.n_vars,
        "n_binaries": ir.n_binaries,
        "n_rows": ir.n_rows,
        "n_bilinear_rows": len(ir.bilinear_rows),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    mpath = args.out + ".manifest.json"
    with open(mpath, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({manifest['n_variables']} vars, "
          f"{manifest['n_binaries']} binaries, "
          f"{manifest['n_bilinear_rows']} bilinear rows)")
    print(f"wrote {mpath}")
    return EXIT_OK


def cmd_solve_day(args) -> int:
    config = load_config(args.config, {
        "variant": args.variant, "time_limit": args.time_limit,
        "gap_target": args.gap})
    day = dat.Dataset(args.data_dir).load_day(args.date)
    y0 = args.y0 if args.y0 is not None else config.y0_default
    record, x0, x_up, x_dn = bt.run_day(config, day, y0)
    gamma = config.budget.total_gamma(config.grid.T)
    bids = BidSchedule(x0=x0, x_up=x_up, x_dn=x_dn)
    rep = check_feasibility(bids, config.params, config.grid, gamma, record.y0)
    print(f"date             {record.date}")
    print(f"status           {record.status}")
    print(f"solve path       {record.solve_path}")
    print(f"gap              {record.gap:.3e}")
    print(f"profit_total     {record.profit_total:.6f} EUR")
    print(f"  fcr            {record.profit_fcr:.6f}")
    print(f"  dayahead       {record.profit_dayahead:.6f}")
    print(f"  intraday       {record.profit_intraday:.6f}")
    print(f"reg_energy_cash  {record.regulation_energy_cash:.6f}")
    print(f"throughput       {record.throughput:.3f} kWh")
    print(f"soc range        [{record.soc_min:.3f}, {record.soc_max:.3f}]")
    print(f"budget_usage     {record.budget_usage:.3f}")
    print(f"worst-case check {'feasible' if rep.feasible else 'INFEASIBLE'} "
          f"(worst slack {rep.worst.slack:.3e})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record.to_dict(include_timing=False), f,
                      sort_keys=True, indent=2)
            f.write("\n")
    return EXIT_OK


def cmd_backtest(args) -> int:
    config = load_config(args.config, {
        "variant": args.variant, "time_limit": args.time_limit,
        "gap_target": args.gap})
    report = bt.run_backtest(config, dat.Dataset(args.data_dir))
    paths = bt.write_report(report, args.out)
    s = report.summary()
    for key in sorted(s):
        print(f"{key:24s} {s[key]}")
    for p in paths.values():
        print(f"wrote {p}")
    return EXIT_OK


def read_bids_csv(path: str, K: int) -> BidSchedule:
    """Columns: interval (1-based), x0_kw, x_up_kw, x_dn_kw, one row for
    each interval 1..K in any order; further columns are ignored."""
    rows = dat._read_csv(path, 4)
    rows = rows[np.argsort(rows[:, 0])]
    if not np.array_equal(rows[:, 0], np.arange(1, K + 1)):
        raise dat.DataError(f"{path}: expected intervals 1..{K}, each once")
    try:
        return BidSchedule(x0=rows[:, 1], x_up=rows[:, 2], x_dn=rows[:, 3])
    except DomainError as e:
        raise dat.DataError(f"{path}: {e}") from None


def cmd_verify(args) -> int:
    config = load_config(args.config)
    bids = read_bids_csv(args.bids, config.grid.K)
    gamma = config.budget.total_gamma(config.grid.T)
    y0 = args.y0 if args.y0 is not None else config.y0_default
    rep = check_feasibility(bids, config.params, config.grid, gamma, y0)
    print(f"{'check':24s} {'slack':>14s}")
    for c in rep.checks:
        violated = c.slack < -rep.tol
        flag = "  VIOLATED" if violated else ""
        print(f"{c.name:24s} {c.slack:14.6f}{flag}")
        if violated and c.witness is not None:
            w = np.array2string(np.asarray(c.witness.witness_xi),
                                precision=4, separator=", ")
            print(f"  worst-case signal: {w}")
    print("verdict: " + ("feasible" if rep.feasible else "infeasible"))
    return EXIT_OK


def cmd_example1(args) -> int:
    """Worst-case maximum-SOC curve for the two-interval illustration:
    the discrete-time SOC looks safe at both boundaries while the true
    continuous-time maximum peaks strictly between them."""
    params = StorageParams(x_min=-4.0, x_max=4.0, y_min=0.0, y_max=2.0,
                           eta_c=0.85, eta_d=0.85)
    grid = TimeGrid(dt_hours=1.0, K=2)
    gamma = 1.0
    bids = BidSchedule(x0=np.array([1.0, 0.5]), x_up=np.zeros(2),
                       x_dn=np.array([2.5, 3.5]))
    y0 = 0.0
    print(" t/dt   max SOC [kWh]   worst-case signal")
    rows = []
    for t in np.linspace(0.1, 2.0, 20):
        res = max_soc_at_time(bids, params, grid, gamma, y0,
                              t * grid.dt_hours)
        rows.append((t, res.value, res.witness_xi))
    for t, v, xi in rows:
        w = np.array2string(np.asarray(xi), precision=3, separator=", ")
        print(f" {t:4.1f}   {v:13.6f}   {w}")
    peak = max(rows, key=lambda r: r[1])
    print(f"peak at t = {peak[0]:.1f} dt with max SOC {peak[1]:.6f} kWh")
    for k in (1, 2):
        res = max_soc_over_interval(bids, params, grid, gamma, y0, k)
        print(f"interval {k} supremum {res.value:.6f} kWh "
              f"at t = {res.t_star:.6f} h")
    return EXIT_OK


def cmd_synth(args) -> int:
    dates = dat.generate_synthetic_dataset(
        args.out, seed=args.seed, days=args.days, gamma=args.gamma,
        base=args.base, spread=args.spread, fcr_level=args.fcr_level,
        budget_target=args.budget_target)
    print(f"wrote {len(dates)} days ({dates[0]} .. {dates[-1]}) "
          f"under {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="storagebid",
        description="Robust day-ahead arbitrage + frequency-reserve "
                    "bidding for battery storage")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, solves=False):
        """``--config``, and the flags of the commands that bid days."""
        sp.add_argument("--config", required=True)
        if solves:
            sp.add_argument("--variant", default=None)
            sp.add_argument("--time-limit", type=float, default=None,
                            dest="time_limit")
            sp.add_argument("--gap", type=float, default=None)
            sp.add_argument("--data-dir", required=True, dest="data_dir")

    sp = sub.add_parser("build", help="emit a model file + manifest")
    common(sp)
    sp.add_argument("--variant", default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--data-dir", default=None, dest="data_dir")
    sp.add_argument("--date", default=None)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("solve-day", help="bid and replay a single day")
    common(sp, solves=True)
    sp.add_argument("--date", required=True)
    sp.add_argument("--y0", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve_day)

    sp = sub.add_parser("backtest", help="run the daily loop over a dataset")
    common(sp, solves=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_backtest)

    sp = sub.add_parser("verify", help="worst-case feasibility of bids")
    common(sp)
    sp.add_argument("--bids", required=True)
    sp.add_argument("--y0", type=float, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("example1",
                        help="two-interval worst-case SOC illustration")
    sp.set_defaults(func=cmd_example1)

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--days", type=int, default=30)
    sp.add_argument("--gamma", type=float, default=2.75)
    sp.add_argument("--base", type=float, default=45.0)
    sp.add_argument("--spread", type=float, default=30.0)
    sp.add_argument("--fcr-level", type=float, default=60.0,
                    dest="fcr_level")
    sp.add_argument("--budget-target", type=float, default=0.7,
                    dest="budget_target")
    sp.set_defaults(func=cmd_synth)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModelError, DomainError, EmissionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (dat.DataError, AlignmentError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except bt.SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
