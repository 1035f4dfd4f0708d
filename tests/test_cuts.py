"""The case cuts of ``builder.case_cuts``: their rows, a seeded sweep
that checks the LP bound they give against the MILP optima it bounds, and
the ``start+bound`` path of ``solve`` that accepts a start at that
bound."""

from dataclasses import replace

import numpy as np
import pytest

from storagebid.builder import case_cuts, dispatch_variant
from storagebid.data import Dataset, generate_synthetic_dataset
from storagebid.ir import GE, ModelOptions
from storagebid.mpsio import emit_model
from storagebid.soc import check_feasibility
from storagebid.solve import OPTIMAL, solve
from storagebid.types import (
    BidSchedule,
    PriceSeries,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
)

LOSSY = StorageParams(x_min=-4.0, x_max=5.0, y_min=1.0, y_max=20.0,
                      eta_c=0.9, eta_d=0.85)


def _model():
    """A K = 3 restriction of a battery with distinct efficiencies."""
    grid = TimeGrid(dt_hours=1.0, K=3)
    prices = PriceSeries(day_ahead=np.array([-10.0, 25.0, 60.0]),
                         fcr_availability=np.full(3, 20.0),
                         fcr_block_hours=1.0)
    ir = dispatch_variant(LOSSY, grid,
                          UncertaintyBudget(kind="total_budget", gamma=1.0),
                          8.0, prices, ModelOptions(variant="restriction"))
    return ir, grid


def lp_optimum(ir, cuts=None, fixed=None) -> float:
    """Optimum of ``ir``'s LP relaxation, solved cold on a copy, with
    ``cuts`` added as rows and the binaries fixed at their values in the
    point ``fixed`` when given."""
    lp = replace(ir, binary=[False] * ir.n_vars, indicators=None)
    if cuts is not None:
        lp.add_rows([f"cut[{i}]" for i in range(len(cuts.rhs))], cuts.ptr,
                    cuts.col, cuts.val, cuts.sense, cuts.rhs)
    if fixed is not None:
        for j in np.flatnonzero(ir.binary):
            lp.lower[j] = lp.upper[j] = round(fixed[ir.var_names[j]])
    res = solve(lp)
    assert res.status == OPTIMAL
    return res.objective


class TestCaseCuts:
    def test_rows_and_coefficients(self):
        ir, grid = _model()
        cuts = case_cuts(ir, LOSSY, grid)
        ec, ed = LOSSY.eta_c, LOSSY.eta_d
        rows = [{ir.var_names[j]: v for j, v in
                 zip(cuts.col[a:b].tolist(), cuts.val[a:b].tolist())}
                for a, b in zip(cuts.ptr[:-1], cuts.ptr[1:])]
        c = 1.0 / (ec * ed) - 1.0
        assert rows == [
            {"Lamu[2,1]": 1.0, "alpha[1]": 1.0},
            {"Lamu[3,1]": 1.0, "alpha[1]": 1.0},
            {"Lamu[3,2]": 1.0, "alpha[2]": 1.0},
            {"Lamu[2,1]": 1.0, "Lamu[1,1]": c, "x0[1]": 1.0 / ed},
            {"Lamu[3,1]": 1.0, "Lamu[1,1]": c, "x0[1]": 1.0 / ed},
            {"Lamu[3,2]": 1.0, "Lamu[2,2]": c, "x0[2]": 1.0 / ed}]
        assert cuts.sense.tolist() == [GE] * 6
        assert cuts.rhs.tolist() == [0.0] * 6

    def test_model_and_its_files_stay_as_built(self):
        ir, grid = _model()
        before = (ir.n_rows, emit_model(ir, "MPS"), emit_model(ir, "LP"))
        case_cuts(ir, LOSSY, grid)
        assert (ir.n_rows, emit_model(ir, "MPS"),
                emit_model(ir, "LP")) == before


# At K = 24 a MILP to a 1e-9 gap can take minutes, so the sweep draws K
# from ``SWEEP_K`` (where it closes in seconds) and makes only two
# instances K = 24, whose MILPs run under a short limit.
SWEEP_K = (2, 3, 4, 6, 8, 12)
K24_EVERY = 100
K24_LIMIT_S = 3.0


def _sweep_instance(rng, K):
    """A seeded restriction/relaxation pair of K intervals: distinct
    efficiencies in [0.8, 0.97], prices that are negative on some days,
    FCR and day-ahead blocks, and with some probability a terminal floor,
    limited arbitrage and a start-SOC drift."""
    dt = float(rng.choice([0.5, 1.0]))
    grid = TimeGrid(dt_hours=dt, K=K)
    eta_c, eta_d = rng.uniform(0.8, 0.97, 2).tolist()
    y_max = float(rng.uniform(20.0, 100.0))
    params = StorageParams(x_min=-float(rng.uniform(5.0, 50.0)),
                           x_max=float(rng.uniform(5.0, 50.0)),
                           y_min=float(rng.uniform(0.0, 0.2 * y_max)),
                           y_max=y_max, eta_c=eta_c, eta_d=eta_d)
    budget = UncertaintyBudget(kind="total_budget",
                               gamma=dt * int(rng.integers(1, K + 1)))
    da = rng.uniform(0.0, 100.0, K)
    if rng.uniform() < 0.4:
        da -= rng.uniform(20.0, 80.0)
    prices = PriceSeries(day_ahead=da,
                         fcr_availability=rng.uniform(0.0, 40.0, K),
                         da_block_hours=dt, fcr_block_hours=dt)
    divisors = [b for b in range(1, K + 1) if K % b == 0]
    y0 = float(rng.uniform(params.y_min, params.y_max))
    drift = float(rng.uniform(0.0, 5.0)) if rng.uniform() < 0.4 else 0.0
    # a floor at most y0 keeps zero bids, and so every model, feasible
    floor = float(rng.uniform(params.y_min, y0)) if rng.uniform() < 0.4 \
        else None
    options = dict(fcr_block_len=int(rng.choice(divisors)),
                   da_block_len=int(rng.choice(divisors)),
                   terminal_soc_floor=floor,
                   limited_arbitrage=bool(rng.uniform() < 0.3))

    def build(variant):
        return dispatch_variant(params, grid, budget, y0, prices,
                                ModelOptions(variant=variant, **options),
                                y0_high=min(params.y_max, y0 + drift))
    return params, grid, build


def test_cut_bound_is_below_both_milp_optima():
    """On 200 seeded instances the cut LP bound of the restriction is at
    most the restriction's and the relaxation's MILP optimum (gap 1e-9)
    plus 1e-7. The relaxation bounds the exact model from below, so on
    these instances the bound is also one on the exact model.

    A K = 24 MILP stopped by ``K24_LIMIT_S`` checks the bound against its
    incumbent, which lies above the optimum; every other MILP must close
    its gap and checks the bound against the optimum itself."""
    rng = np.random.default_rng(2121)
    for i in range(200):
        K = 24 if i % K24_EVERY == K24_EVERY // 2 else int(rng.choice(SWEEP_K))
        params, grid, build = _sweep_instance(rng, K)
        ir = build("restriction")
        bound = lp_optimum(ir, case_cuts(ir, params, grid))
        limit = K24_LIMIT_S if K == 24 else None
        for model in (ir, build("relaxation")):
            res = solve(model, time_limit=limit, gap_target=1e-9)
            assert res.status == OPTIMAL or limit and res.ok
            assert bound <= res.objective + 1e-7, (K, bound, res)


# The acceptance backtest's battery, budget and grid.
BATTERY = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0, y_max=90.0,
                        eta_c=0.92, eta_d=0.92)
HOURLY = TimeGrid(dt_hours=1.0, K=24)


@pytest.fixture(scope="module")
def acceptance_day(tmp_path_factory):
    """Day 2 of the acceptance backtest's dataset (seed 21)."""
    root = tmp_path_factory.mktemp("acceptance_day")
    generate_synthetic_dataset(str(root), seed=21, days=2, gamma=2.0)
    return Dataset(str(root)).load_day("2021-01-02")


@pytest.fixture(scope="module")
def acceptance_days(tmp_path_factory):
    """The 30 days of the acceptance backtest's dataset (seed 21)."""
    root = tmp_path_factory.mktemp("acceptance_days")
    dates = generate_synthetic_dataset(str(root), seed=21, days=30,
                                       gamma=2.0)
    dataset = Dataset(str(root))
    return [dataset.load_day(date) for date in dates]


def _day_model(day, limited=False, y0=50.0):
    return dispatch_variant(
        BATTERY, HOURLY, UncertaintyBudget(kind="total_budget", gamma=2.0),
        y0, day.prices,
        ModelOptions(variant="restriction", fcr_block_len=4, da_block_len=1,
                     limited_arbitrage=limited))


class TestStartBoundPath:
    @pytest.mark.parametrize("limited", [False, True],
                             ids=["joint", "limited"])
    def test_start_is_accepted_at_the_bound(self, acceptance_day, limited):
        ir = _day_model(acceptance_day, limited)
        cuts = case_cuts(ir, BATTERY, HOURLY)
        res = solve(ir, time_limit=120.0, gap_target=0.1)
        assert (res.status, res.path) == (OPTIMAL, "start+bound")
        assert res.objective == res.start_objective
        assert res.bound <= res.objective
        assert res.gap <= 0.1
        # the bound is the optimum of the cut LP that chose the binaries,
        # and the same LP solved cold on a copy agrees
        assert res.bound == pytest.approx(lp_optimum(ir, cuts), rel=1e-9)
        assert list(res.point) == ir.var_names
        x0, xr = (np.array([res.point[f"{name}[{k}]"] for k in range(1, 25)])
                  for name in ("x0", "xr"))
        bids = BidSchedule(x0=x0, x_up=xr, x_dn=xr.copy())
        assert check_feasibility(bids, BATTERY, HOURLY, 2.0, 50.0).feasible

    def test_bound_and_start_on_every_acceptance_day(self, acceptance_days):
        """The bound is the cold cut LP's optimum, and the start is the
        optimum of the LP with the binaries fixed at the start's values
        whether or not the cut rows are in it: cuts valid at every point
        with integral binaries cut no point of the fixed LP."""
        for day in acceptance_days:
            ir = _day_model(day)
            cuts = case_cuts(ir, BATTERY, HOURLY)
            res = solve(ir, time_limit=120.0, gap_target=0.1)
            assert res.bound == pytest.approx(lp_optimum(ir, cuts),
                                              rel=1e-9), day.date
            plain = lp_optimum(ir, fixed=res.point)
            assert lp_optimum(ir, cuts, fixed=res.point) == pytest.approx(
                plain, abs=1e-9), day.date
            assert res.start_objective == pytest.approx(plain, abs=1e-9)

    @pytest.mark.parametrize("y0", [50.0, 85.0])
    @pytest.mark.parametrize("limited", [False, True],
                             ids=["joint", "limited"])
    def test_every_acceptance_day_takes_the_bound_path(
            self, acceptance_days, limited, y0):
        # binaries chosen at the cut LP's point give a start within 10 %
        # of its bound on every day; chosen at the plain LP's point, 3 days
        # per variant at 85 kWh fell through to branch and bound
        for day in acceptance_days:
            ir = _day_model(day, limited, y0)
            res = solve(ir, time_limit=120.0, gap_target=0.1)
            assert res.path == "start+bound", (day.date, res.gap)

    def test_unset_gap_target_runs_the_milp(self, acceptance_day):
        # the bound is a few percent below the start, far from HiGHS's
        # default target of 1e-4
        ir = _day_model(acceptance_day)
        res = solve(ir, time_limit=120.0)
        assert res.path == "start+milp"
        assert res.ok
        assert res.objective <= res.start_objective + 1e-9
