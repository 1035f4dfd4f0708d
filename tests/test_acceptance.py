"""Acceptance suite: exact small-instance reproduction plus property
checks at the stated tolerances. Each test class covers one criterion."""

import hashlib
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from storagebid.backtest import (
    ExperimentConfig,
    intraday_adjustments,
    run_backtest,
    window_budget_usage,
    write_report,
)
from storagebid.builder import dispatch_variant
from storagebid.cli import main
from storagebid.data import (
    Dataset,
    frequency_to_signal,
    generate_synthetic_dataset,
    synthetic_signal,
)
from storagebid.ir import ModelOptions
from storagebid.soc import (
    brute_force_max_soc,
    brute_force_min_soc,
    check_feasibility,
    max_soc_at_time,
    max_soc_estimate,
    max_soc_gap_bound,
    max_soc_over_interval,
    min_soc_at_boundaries,
)
from storagebid.solve import solve, solve_exact_bilinear
from storagebid.types import (
    BidSchedule,
    PriceSeries,
    RegulationSignal,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
    default_initial_soc,
    effective_budget,
)

REFERENCE_BATTERY = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0,
                              y_max=90.0, eta_c=0.92, eta_d=0.92)


class TestCriterion1TwoIntervalExample:
    """Worst-case max-SOC curve of the two-interval illustration."""

    PARAMS = StorageParams(x_min=-4.0, x_max=4.0, y_min=0.0, y_max=2.0,
                           eta_c=0.85, eta_d=0.85)
    GRID = TimeGrid(dt_hours=1.0, K=2)
    BIDS = BidSchedule(x0=np.array([1.0, 0.5]), x_up=np.zeros(2),
                       x_dn=np.array([2.5, 3.5]))

    def test_analytic_values_and_runtime(self):
        t0 = time.perf_counter()
        at_dt = max_soc_at_time(self.BIDS, self.PARAMS, self.GRID, 1.0,
                                0.0, 1.0)
        peak = max_soc_over_interval(self.BIDS, self.PARAMS, self.GRID,
                                     1.0, 0.0, 2)
        at_2dt = max_soc_at_time(self.BIDS, self.PARAMS, self.GRID, 1.0,
                                 0.0, 2.0)
        elapsed = time.perf_counter() - t0
        assert at_dt.value == pytest.approx(1.275, abs=1e-6)
        assert peak.value == pytest.approx(1.53, abs=1e-6)
        assert at_2dt.value == pytest.approx(1.3735294117647057, abs=1e-6)
        # the peak lies strictly inside the second interval
        assert peak.t_star == pytest.approx(1.6, abs=1e-6)
        assert 1.0 + 1e-9 < peak.t_star < 2.0 - 1e-9
        assert elapsed < 1.0

    def test_brute_force_confirms(self):
        bf1 = brute_force_max_soc(self.BIDS, self.PARAMS, self.GRID, 1.0,
                                  0.0, 1, m=50)
        bf2 = brute_force_max_soc(self.BIDS, self.PARAMS, self.GRID, 1.0,
                                  0.0, 2, m=50)
        assert bf1 == pytest.approx(1.275, abs=0.01)
        assert bf2 == pytest.approx(1.53, abs=0.01)

    def test_cli_command_reports_the_curve(self, capsys):
        assert main(["example1"]) == 0
        out = capsys.readouterr().out
        assert "1.275000" in out
        assert "peak at t = 1.6 dt with max SOC 1.530000 kWh" in out
        assert "1.373529" in out


class TestCriterion2OracleEquivalence:
    """Analytic worst-case SOC vs grid enumeration on random instances."""

    def test_200_random_instances(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        m = 20
        for _ in range(200):
            K = int(rng.integers(1, 4))
            dt = float(rng.choice([0.5, 1.0]))
            grid = TimeGrid(dt_hours=dt, K=K)
            eta = float(rng.uniform(0.6, 1.0))
            params = StorageParams(x_min=-3.0, x_max=3.0, y_min=0.0,
                                   y_max=50.0, eta_c=eta, eta_d=eta)
            gamma = dt * float(rng.integers(1, 3))
            gamma = min(gamma, grid.T)
            x_dn = rng.uniform(0.0, 2.0, K)
            x_up = rng.uniform(0.0, 2.0, K)
            x0 = np.array([rng.uniform(params.x_min + x_dn[i],
                                       params.x_max - x_up[i])
                           for i in range(K)])
            bids = BidSchedule(x0=x0, x_up=x_up, x_dn=x_dn)
            y0 = float(rng.uniform(5.0, 20.0))
            k = int(rng.integers(1, K + 1))
            lip = max(params.eta_c, 1.0 / params.eta_d)
            rate_cap = lip * (np.max(np.abs(x0)) + np.max(x_dn)
                              + np.max(x_up))
            bound = (lip * dt * float(np.sum(x_dn + x_up))
                     + dt * rate_cap) / m

            hi = max_soc_over_interval(bids, params, grid, gamma, y0, k)
            bf_hi = brute_force_max_soc(bids, params, grid, gamma, y0, k,
                                        m=m)
            assert bf_hi <= hi.value + 1e-9
            assert hi.value - bf_hi <= bound

            lo = min_soc_at_boundaries(bids, params, grid, gamma, y0, k)
            bf_lo = brute_force_min_soc(bids, params, grid, gamma, y0, k,
                                        m=m)
            assert lo.value <= bf_lo + 1e-9
            assert bf_lo - lo.value <= bound
        assert time.perf_counter() - t0 < 60.0


def random_instance(rng, k_max=6):
    K = int(rng.integers(2, k_max + 1))
    eta = float(rng.uniform(0.6, 0.95))
    params = StorageParams(x_min=-3.0, x_max=3.0, y_min=0.0,
                           y_max=float(rng.uniform(4.0, 8.0)),
                           eta_c=eta, eta_d=eta)
    grid = TimeGrid(dt_hours=1.0, K=K)
    budget = UncertaintyBudget(kind="total_budget",
                               gamma=float(rng.integers(1, 3)))
    prices = PriceSeries(day_ahead=rng.uniform(-20.0, 100.0, K),
                         fcr_availability=rng.uniform(0.0, 120.0, 1),
                         da_block_hours=1.0, fcr_block_hours=float(K))
    y0 = float(rng.uniform(params.y_min + 0.5, params.y_max - 0.5))
    return params, grid, budget, prices, y0


def solve_variant(inst, variant):
    params, grid, budget, prices, y0 = inst
    opts = ModelOptions(variant=variant, fcr_block_len=grid.K,
                        da_block_len=1)
    return solve(dispatch_variant(params, grid, budget, y0, prices, opts))


def point_bids(point, K):
    x0 = np.array([point[f"x0[{k}]"] for k in range(1, K + 1)])
    xr = np.array([point.get(f"xr[{k}]", 0.0) for k in range(1, K + 1)])
    return BidSchedule(x0=x0, x_up=xr, x_dn=xr.copy())


@pytest.fixture(scope="module")
def ordering_instances():
    """100 random instances solved as relaxation, restriction, and exact
    (the relaxation optimum, certified by the analytic oracle)."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(100):
        inst = random_instance(rng)
        params, grid, budget, prices, y0 = inst
        gamma = budget.total_gamma(grid.T)

        def feasible(point, inst=inst, gamma=gamma):
            p, g, _, _, y = inst
            rep = check_feasibility(point_bids(point, g.K), p, g, gamma, y)
            return rep.worst.slack >= -1e-7

        rel = solve_variant(inst, "relaxation")
        res = solve_variant(inst, "restriction")
        opts = ModelOptions(variant="exact", fcr_block_len=grid.K,
                            da_block_len=1)
        exact_ir = dispatch_variant(params, grid, budget, y0, prices, opts)
        ex = solve_exact_bilinear(exact_ir, feasible, time_limit=120.0)
        out.append((inst, rel, ex, res))
    return out


class TestCriterion3ReformulationOrdering:
    def test_objective_ordering(self, ordering_instances):
        for inst, rel, ex, res in ordering_instances:
            assert rel.ok and ex.ok and res.ok
            assert rel.objective <= ex.objective + 1e-7
            assert ex.objective <= res.objective + 1e-7

    def test_restriction_points_pass_exact_check(self, ordering_instances):
        for inst, _, _, res in ordering_instances:
            params, grid, budget, _, y0 = inst
            rep = check_feasibility(point_bids(res.point, grid.K), params,
                                    grid, budget.total_gamma(grid.T), y0)
            assert rep.worst_violation <= 1e-6


class TestCriterion4GapBound:
    def test_estimate_gap_at_both_optima(self, ordering_instances):
        for inst, rel, _, res in ordering_instances:
            params, grid, budget, _, y0 = inst
            gamma = budget.total_gamma(grid.T)
            bound = max_soc_gap_bound(params, grid)
            for point in (rel.point, res.point):
                bids = point_bids(point, grid.K)
                for k in range(1, grid.K + 1):
                    hi = max_soc_estimate(bids, params, grid, gamma, y0,
                                          k, "upper")
                    lo = max_soc_estimate(bids, params, grid, gamma, y0,
                                          k, "lower")
                    assert hi - lo <= bound + 1e-6


class TestCriterion5TractableCollapses:
    def test_lossless_zero_bilinear_lp_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            K = int(rng.integers(2, 7))
            params = StorageParams(
                x_min=-float(rng.uniform(1, 5)),
                x_max=float(rng.uniform(1, 5)), y_min=0.0,
                y_max=float(rng.uniform(3, 9)), eta_c=1.0, eta_d=1.0)
            grid = TimeGrid(dt_hours=1.0, K=K)
            budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
            prices = PriceSeries(day_ahead=rng.uniform(-30, 80, K),
                                 fcr_availability=rng.uniform(0, 100, 1),
                                 da_block_hours=1.0,
                                 fcr_block_hours=float(K))
            y0 = float(rng.uniform(0.5, params.y_max - 0.5))
            objs = {}
            for variant in ("exact", "lossless_lp"):
                ir = dispatch_variant(
                    params, grid, budget, y0, prices,
                    ModelOptions(variant=variant, fcr_block_len=K,
                                 da_block_len=1))
                assert len(ir.bilinear_rows) == 0
                assert ir.n_binaries == 0
                objs[variant] = solve(ir).objective
            assert abs(objs["exact"] - objs["lossless_lp"]) <= 1e-8

    def test_arbitrage_only_milp_equals_continuous_relaxation(self):
        # oracle: the charge/discharge split formulation, whose
        # continuous relaxation is tight at nonnegative prices
        rng = np.random.default_rng(13)
        for _ in range(50):
            K = int(rng.integers(3, 9))
            eta = float(rng.uniform(0.6, 1.0))
            params = StorageParams(x_min=-3.0, x_max=3.0, y_min=0.0,
                                   y_max=float(rng.uniform(3, 8)),
                                   eta_c=eta, eta_d=eta)
            grid = TimeGrid(dt_hours=1.0, K=K)
            budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
            da = rng.uniform(0.0, 100.0, K)  # nonnegative prices
            prices = PriceSeries(day_ahead=da,
                                 fcr_availability=np.zeros(1),
                                 da_block_hours=1.0,
                                 fcr_block_hours=float(K))
            y0 = float(rng.uniform(0.2, params.y_max - 0.2))
            milp = solve(dispatch_variant(
                params, grid, budget, y0, prices,
                ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                             da_block_len=1)))
            # split LP: x = xc + xd with xc <= 0 <= xd; dropping the
            # complementarity binaries is the continuous relaxation
            ec, ed = params.eta_c, params.eta_d
            c = np.concatenate([-da * 1e-3, -da * 1e-3])
            rows, rhs = [], []
            for k in range(1, K + 1):
                drain = np.zeros(2 * K)
                drain[:k] = ec
                drain[K:K + k] = 1.0 / ed
                rows.append(-drain)
                rhs.append(params.y_max - y0)
                rows.append(drain)
                rhs.append(y0 - params.y_min)
            lp = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                         bounds=[(params.x_min, 0)] * K
                         + [(0, params.x_max)] * K, method="highs")
            assert milp.ok and lp.status == 0
            assert abs(milp.objective - lp.fun) <= 1e-8


class TestCriterion6StructuralCounts:
    GRID96 = TimeGrid(dt_hours=0.25, K=96)
    BUDGET = UncertaintyBudget(kind="total_budget", gamma=2.75)
    PRICES = PriceSeries(day_ahead=np.zeros(24),
                         fcr_availability=np.zeros(6))

    def _build(self, variant):
        opts = ModelOptions(variant=variant, fcr_block_len=16,
                            da_block_len=4)
        return dispatch_variant(REFERENCE_BATTERY, self.GRID96, self.BUDGET,
                                53.328, self.PRICES, opts)

    def test_exact_bilinear_and_binary_counts(self):
        ir = self._build("exact")
        assert len(ir.bilinear_rows) == 4560  # K(K-1)/2
        assert ir.n_binaries == 190  # 2(K-1)

    def test_restriction_binary_count(self):
        ir = self._build("restriction")
        assert ir.n_binaries == 285  # 3(K-1)

    def test_soc_lower_row_count(self):
        ir = self._build("exact")
        lower_prefixes = ("soc_lo", "alpha_c", "alpha_d", "beta_c",
                          "beta_d", "Laml_epi")
        n = sum(1 for r in ir.rows if r.name.startswith(lower_prefixes))
        assert n == 96 * 97 // 2 + 5 * 96  # K(K+1)/2 + 5K


class TestCriterion7BudgetArithmetic:
    def test_effective_budget_eu_rules(self):
        assert effective_budget(0.25, 2.25, 24.0) == pytest.approx(
            2.75, abs=1e-12)

    def test_default_initial_soc_reference_battery(self):
        assert default_initial_soc(REFERENCE_BATTERY) == pytest.approx(
            53.328, abs=0.001)


QUARTER_GRID = TimeGrid(dt_hours=0.25, K=96)
EU_BUDGET = UncertaintyBudget.from_eu_rules(0.25)
LOSSLESS_BATTERY = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0,
                                 y_max=90.0, eta_c=1.0, eta_d=1.0)


@pytest.fixture(scope="module")
def intraday_bids():
    rng = np.random.default_rng(3)
    da = 45 + 30 * np.sin(np.arange(24) / 24 * 4 * np.pi)
    prices = PriceSeries(day_ahead=da,
                         fcr_availability=rng.uniform(40, 80, 6))
    opts = ModelOptions(variant="restriction", intraday=True,
                        fcr_block_len=16, da_block_len=4)
    ir = dispatch_variant(LOSSLESS_BATTERY, QUARTER_GRID, EU_BUDGET,
                          53.328, prices, opts)
    res = solve(ir, time_limit=120.0)
    assert res.ok
    x0 = np.array([res.point[f"x0[{k}]"] for k in range(1, 97)])
    xr = np.array([res.point[f"xr[{k}]"] for k in range(1, 97)])
    assert np.max(xr) > 0  # reserves actually offered
    return x0, xr


class TestCriterion8IntradayEnvelope:
    """Intraday adjustments on random synthetic days: drift envelope,
    SOC guarantee (lossless), and adjustment magnitude."""

    GRID = QUARTER_GRID
    BUDGET = EU_BUDGET
    LOSSLESS = LOSSLESS_BATTERY

    def _scaled_signal(self, seed):
        """Random synthetic signal scaled so every rolling window stays
        within the deviation budget."""
        sig = synthetic_signal(np.random.default_rng(seed), 2.75,
                               budget_target=0.9, n=96 * 90)
        usage = window_budget_usage(sig, self.GRID, 0.25, 2.25)
        if usage > 1.0:
            sig = RegulationSignal(values=sig.values / (usage * (1 + 1e-9)))
        return sig

    def _simulate(self, x0, xr, xa, sig, params):
        per = 90
        xi = sig.values
        power = (np.repeat(x0 + xa, per) + np.maximum(xi, 0)
                 * np.repeat(xr, per) - np.maximum(-xi, 0)
                 * np.repeat(xr, per))
        rate = np.minimum(-params.eta_c * power, -power / params.eta_d)
        return 53.328 + np.concatenate(
            ([0.0], np.cumsum(rate) * sig.sample_period_hours))

    def test_100_random_days(self, intraday_bids):
        x0, xr = intraday_bids
        wlen = 9  # Gamma'/dt
        for seed in range(100):
            sig = self._scaled_signal(seed)
            assert window_budget_usage(sig, self.GRID, 0.25, 2.25) <= 1.0
            xa = intraday_adjustments(xr, sig, self.GRID, 2.25)
            soc = self._simulate(x0, xr, xa, sig, self.LOSSLESS)
            # SOC guarantee within operational bounds (lossless)
            assert soc.min() >= 10.0 - 1e-7
            assert soc.max() <= 90.0 + 1e-7
            # drift envelope at every interval boundary
            plan = self._simulate(x0, xr, np.zeros(96),
                                  RegulationSignal.constant(0.0, self.GRID),
                                  self.LOSSLESS)
            ints = sig.interval_integrals(self.GRID)
            absints = np.abs(sig.values).reshape(96, -1).sum(axis=1) \
                * sig.sample_period_hours
            for k in range(1, 97):
                i0 = max(1, k - wlen + 1)
                env = sum(xr[i - 1] * absints[i - 1]
                          for i in range(i0, k + 1))
                dy = soc[90 * k] - plan[90 * k]
                assert abs(dy) <= env + 1e-6

    def test_adjustment_magnitude_constant_reserve(self):
        # constant reserve bid: |x^a| <= gamma'/(Gamma'-dt) * xr = xr/8
        xr = np.full(96, 8.0)
        for seed in range(100):
            sig = self._scaled_signal(1000 + seed)
            xa = intraday_adjustments(xr, sig, self.GRID, 2.25)
            assert np.max(np.abs(xa)) <= 8.0 / 8.0 + 1e-9

    def test_gamma_prime_equals_dt_max_form(self):
        # for gamma' = dt the dual tightening reduces to the maximum of
        # the window terms
        rng = np.random.default_rng(17)
        dt, Gp = 0.25, 2.25
        for _ in range(200):
            n = int(rng.integers(1, 9))
            xr = rng.uniform(0.0, 50.0, n)
            a = dt / (Gp - dt) * xr
            cands = np.concatenate(([0.0], a))
            general = min((1.0 * lam + np.sum(np.maximum(a - lam, 0.0)))
                          for lam in cands)  # gamma'/dt = 1
            assert general == pytest.approx(np.max(a), abs=1e-9)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    generate_synthetic_dataset(str(root), seed=21, days=30, gamma=2.0)
    return Dataset(str(root))


class TestCriterion9BacktestSmoke:
    def _config(self, options, gap=None):
        return ExperimentConfig(
            params=REFERENCE_BATTERY, grid=TimeGrid(dt_hours=1.0, K=24),
            budget=UncertaintyBudget(kind="total_budget", gamma=2.0),
            options=options, time_limit=120.0, gap_target=gap)

    def test_three_variants_under_ten_minutes(self, dataset, tmp_path):
        t0 = time.perf_counter()
        joint_opts = ModelOptions(variant="restriction", fcr_block_len=4,
                                  da_block_len=1)
        limited_opts = ModelOptions(variant="restriction", fcr_block_len=4,
                                    da_block_len=1, limited_arbitrage=True)
        arb_opts = ModelOptions(variant="arbitrage_only",
                                fcr_enabled=False, da_block_len=1)
        joint = run_backtest(self._config(joint_opts, gap=0.1), dataset)
        limited = run_backtest(self._config(limited_opts, gap=0.1), dataset)
        arb = run_backtest(self._config(arb_opts), dataset)
        # rerun one variant for byte-identical reports
        joint2 = run_backtest(self._config(joint_opts, gap=0.1), dataset)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0

        for rep in (joint, limited, arb):
            assert len(rep.records) == 30
            for r in rep.records:
                assert abs(r.profit_total - (r.profit_fcr
                           + r.profit_dayahead
                           + r.profit_intraday)) <= 1e-9
                assert r.throughput >= 0.0

        joint_mean = np.mean([r.profit_total for r in joint.records])
        arb_mean = np.mean([r.profit_total for r in arb.records])
        assert joint_mean >= arb_mean

        p1 = write_report(joint, str(tmp_path / "a"))
        p2 = write_report(joint2, str(tmp_path / "b"))
        for key in p1:
            assert open(p1[key], "rb").read() == open(p2[key], "rb").read()


JOINT = ModelOptions(variant="restriction", fcr_block_len=4, da_block_len=1)

# Backtests on the acceptance dataset at gap 0.1: (options, config
# fields, number of days from the first)
REPORT_RUNS = {
    "joint": (JOINT, {}, 30),
    "limited": (ModelOptions(variant="restriction", fcr_block_len=4,
                             da_block_len=1, limited_arbitrage=True), {}, 30),
    "joint-85kwh": (JOINT, {"initial_soc": 85.0}, 30),
    "8am-coupled": (JOINT, {"bidding_time": "8am", "day_coupling": True}, 4),
    "relaxation": (ModelOptions(variant="relaxation", fcr_block_len=4,
                                da_block_len=1), {}, 6),
    "arbitrage": (ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                               da_block_len=1), {}, 30),
}

# SHA-256 of each report file of each run; reports change only on purpose
REPORT_SHA256 = {
    "8am-coupled": {
        "records":
            "0f8054de4479c81c9a49b73b01022dfb16b2215531fd49a7929d3ac7f4d03c30",
        "summary":
            "d82fdd1e8cde3e03308b4a80874d2a3a52cd5ebe6c57fe481dd96c9e6a8abf04",
        "series":
            "48aac19e57c1f8a14bbef5c8884544ac734171bc8c456e37a41b9fb813adbc26",
    },
    "arbitrage": {
        "records":
            "42cc1d5a2c255549e44cbf298621379a8a871d239d07f07f1a554fa0c29fd167",
        "summary":
            "48f436a76b7b866d1866dbd7f260c6ca5d0881e9e50108f9d8c701c5184179c5",
        "series":
            "2c075b6f4b1df107f4dfc64aedd106807bc250ef4fe7a3f2901f5da8541717f8",
    },
    "joint": {
        "records":
            "13e2a7df8f2c0660c6b107ff49e68bade8cda1e1b7880dfc7ed546720daeb6c6",
        "summary":
            "641aebaa4fc16cd0638a8d39639f2c861d39796155c7f3bb0f5a68beb878ed33",
        "series":
            "510d068d0f6961e5eaf821de8ff8700787e8703682c03c33726c370da932d407",
    },
    "joint-85kwh": {
        "records":
            "a1811cc3265401676964763d83ddef93cbe015e852d8ed390af0e88f1789efe7",
        "summary":
            "f8895fb872846c62805e8fbe7666e0113d9f1bfb9c5d874e19e1967a95e5aea6",
        "series":
            "0e464b5929ae0f6bb6915abbebe0274a4daf7d72b1577f7055fe26fce4df6d84",
    },
    "limited": {
        "records":
            "bba221bb00e46800f95ddc8fa3007e58e8c93724b8eecc984a6ec1f2b5686680",
        "summary":
            "24a33beae6e51d00f784bb92e1cdec787f3faaf85234b8a73b483987167c6abf",
        "series":
            "6ac437afa854365596cb0cb7393f6c234b32e475dd83f35d8ee10541ed8284fe",
    },
    "relaxation": {
        "records":
            "de24c5d2932e77e85504500425ac8fe8f8d3a31594a6d32876a4d0d595ca90e4",
        "summary":
            "624a671c5e7c8d21e00c3c1402a002168f3b8af4a31ad6689f30938a72009f79",
        "series":
            "3ff1be0601af7f56ad870277be9d19a0e9c7557d547d72012503dbb6fc11c030",
    },
}


@pytest.mark.parametrize("run", sorted(REPORT_RUNS))
def test_report_bytes_are_pinned(dataset, tmp_path, run):
    options, fields, days = REPORT_RUNS[run]
    config = ExperimentConfig(
        params=REFERENCE_BATTERY, grid=TimeGrid(dt_hours=1.0, K=24),
        budget=UncertaintyBudget(kind="total_budget", gamma=2.0),
        options=options, time_limit=120.0, gap_target=0.1,
        end_date=dataset.dates()[days - 1], **fields)
    paths = write_report(run_backtest(config, dataset), str(tmp_path))
    got = {key: hashlib.sha256(open(path, "rb").read()).hexdigest()
           for key, path in paths.items()}
    assert got == REPORT_SHA256[run]


class TestCriterion10SignalMapping:
    def test_clipped_ramp_reference_points(self):
        f = np.array([49.7, 49.8, 50.0, 50.1, 50.2, 50.3])
        expected = np.array([1.0, 1.0, 0.0, -0.5, -1.0, -1.0])
        np.testing.assert_array_equal(frequency_to_signal(f), expected)

    def test_scalar_matches(self):
        for f, want in [(49.7, 1.0), (49.8, 1.0), (50.0, 0.0),
                        (50.1, -0.5), (50.2, -1.0), (50.3, -1.0)]:
            assert frequency_to_signal(f) == want
