import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from storagebid.types import (
    PriceSeries,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
)
from storagebid.ir import BINARY, ModelError, ModelIR, ModelOptions
from storagebid.builder import dispatch_variant
from storagebid.data import Dataset, generate_synthetic_dataset
from storagebid.mpsio import EmissionError, emit_model
from storagebid.soc import check_feasibility
from storagebid.solve import (
    _STATUS,
    _highs,
    solve,
    solve_exact_bilinear,
    verify_point,
)
from storagebid.types import BidSchedule


def tiny_lp():
    ir = ModelIR()
    ir.add_variable("x", lower=0.0, upper=10.0)
    return ir


def _unbounded_lp():
    ir = ModelIR()
    ir.add_objective_term(ir.add_variable("x", lower=0.0), -1.0)
    return ir


def _unbounded_mip():
    ir = _unbounded_lp()
    y = ir.add_variable("y", kind=BINARY, lower=0.0, upper=1.0)
    ir.add_row("floor", [(0, 1.0), (y, 1.0)], ">=", 0.5)
    return ir


def _infeasible_lp():
    ir = ModelIR()
    ir.add_variable("x")
    ir.add_row("le1", [(0, 1.0)], "<=", 1.0)
    ir.add_row("ge2", [(0, 1.0)], ">=", 2.0)
    return ir


def _k24_day(variant):
    params = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0, y_max=90.0,
                           eta_c=0.92, eta_d=0.92)
    grid = TimeGrid(dt_hours=1.0, K=24)
    budget = UncertaintyBudget(kind="total_budget", gamma=2.0)
    prices = PriceSeries(day_ahead=np.linspace(10.0, 90.0, 24),
                         fcr_availability=np.full(6, 20.0))
    fcr = variant != "arbitrage_only"
    opts = ModelOptions(variant=variant, fcr_enabled=fcr,
                        fcr_block_len=4 if fcr else None, da_block_len=1)
    return dispatch_variant(params, grid, budget, 50.0, prices, opts)


LOSSY = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8, eta_c=0.9,
                      eta_d=0.9)
LOSSLESS = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8, eta_c=1.0,
                         eta_d=1.0)
K4 = TimeGrid(dt_hours=1.0, K=4)
K4_PRICES = PriceSeries(day_ahead=np.array([5.0, 90.0, 10.0, 80.0]),
                        fcr_availability=np.array([20.0]))


def _k4_model(variant, params=LOSSY):
    fcr = variant != "arbitrage_only"
    opts = ModelOptions(variant=variant, fcr_enabled=fcr,
                        fcr_block_len=4 if fcr else None, da_block_len=1)
    budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
    return dispatch_variant(params, K4, budget, 4.0, K4_PRICES, opts)


class HighsRead(NamedTuple):
    status: str
    objective: float
    n_cols: int
    n_rows: int
    n_integer: int
    cost: np.ndarray


def _highs_read(tmp_path, blob, fmt):
    """Read a model file with HiGHS's own reader and solve it."""
    path = tmp_path / f"model.{fmt.lower()}"
    path.write_bytes(blob)
    highs = _highs._Highs()
    highs.setOptionValue("log_to_console", False)
    assert highs.readModel(str(path)) == _highs.HighsStatus.kOk
    highs.run()
    lp = highs.getLp()
    return HighsRead(
        status=_STATUS.get(highs.getModelStatus(), "error"),
        objective=highs.getInfo().objective_function_value,
        n_cols=lp.num_col_, n_rows=lp.num_row_,
        n_integer=sum(t == _highs.HighsVarType.kInteger
                      for t in lp.integrality_),
        cost=np.array(lp.col_cost_))


class TestSolve:
    @pytest.mark.parametrize("build, time_limit, status", [
        (_unbounded_lp, None, "unbounded"),
        (_unbounded_mip, None, "error"),
        (_infeasible_lp, None, "infeasible"),
        (lambda: _k24_day("restriction"), 0.0, "error"),
        (lambda: _k24_day("arbitrage_only"), 0.0, "error"),
    ], ids=["unbounded-lp", "unbounded-mip", "infeasible-lp",
            "restriction-no-time", "arbitrage-no-time"])
    def test_status_mapping(self, build, time_limit, status):
        res = solve(build(), time_limit=time_limit)
        assert res.status == status
        assert res.point == {} and np.isnan(res.objective)
        assert "model_status is" in res.message

    def test_trivial_lp(self):
        res = solve(tiny_lp())
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0)
        assert res.gap == pytest.approx(0.0)

    def test_infeasible(self):
        ir = tiny_lp()
        ir.add_row("ge1", [(0, 1.0)], ">=", 1.0)
        ir.add_row("le0", [(0, 1.0)], "<=", 0.0)
        assert solve(ir).status == "infeasible"

    def test_rejects_active_bilinear(self):
        ir = tiny_lp()
        ir.add_variable("y", lower=0.0, upper=1.0)
        ir.add_bilinear("b", quad=[(0, 1, 1.0)], linear=[], sense=">=", rhs=0.0)
        with pytest.raises(ModelError):
            solve(ir)

    def test_two_interval_arbitrage_profit(self):
        # buy at 0, sell at 100 EUR/MWh with a lossless 50 kW battery for
        # one hour each: profit 5 EUR
        params = StorageParams(x_min=-50, x_max=50, y_min=0, y_max=200,
                               eta_c=1.0, eta_d=1.0)
        grid = TimeGrid(dt_hours=1.0, K=2)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([0.0, 100.0]),
                             fcr_availability=np.zeros(0))
        opts = ModelOptions(variant="arbitrage_only", fcr_enabled=False)
        res = solve(dispatch_variant(params, grid, budget, 100.0, prices, opts))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-5.0, abs=1e-9)

    def test_point_covers_all_variables(self):
        ir = tiny_lp()
        ir.add_variable("y", lower=-1.0, upper=1.0)
        res = solve(ir)
        assert set(res.point) == {"x", "y"}

    def test_determinism(self):
        params = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8,
                               eta_c=0.9, eta_d=0.9)
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([5.0, 90.0, 10.0, 80.0]),
                             fcr_availability=np.array([20.0]))
        opts = ModelOptions(variant="restriction", fcr_block_len=4,
                            da_block_len=1)
        objs = set()
        for _ in range(2):
            ir = dispatch_variant(params, grid, budget, 4.0, prices, opts)
            objs.add(round(solve(ir).objective, 12))
        assert len(objs) == 1


class TestEmission:
    def test_empty_model(self):
        data = emit_model(ModelIR(), "MPS")
        assert b"NAME" in data and b"ENDATA" in data

    def test_unknown_format(self):
        with pytest.raises(EmissionError):
            emit_model(ModelIR(), "SAV")

    def test_deterministic_bytes(self):
        params = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8,
                               eta_c=0.9, eta_d=0.9)
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([5.0, 90.0, 10.0, 80.0]),
                             fcr_availability=np.array([20.0]))
        opts = ModelOptions(variant="exact", fcr_block_len=4, da_block_len=1)

        def build():
            return dispatch_variant(params, grid, budget, 4.0, prices, opts)
        assert emit_model(build(), "MPS") == emit_model(build(), "MPS")
        assert emit_model(build(), "LP") == emit_model(build(), "LP")

    def test_exact_mps_has_one_qcmatrix_per_bilinear_row(self):
        ir = _k4_model("exact")
        text = emit_model(ir, "MPS").decode()
        assert ir.n_bilinear_active == K4.K * (K4.K - 1) // 2 == 6
        assert sum(1 for line in text.splitlines()
                   if line.startswith("QCMATRIX ")) == ir.n_bilinear_active

    def test_roundtrip_counts(self, tmp_path):
        # HiGHS has no quadratic rows, so it reads the relaxation: the
        # exact model's columns and linear rows without the bilinear rows
        exact, ir = _k4_model("exact"), _k4_model("relaxation")
        assert (ir.n_vars, len(ir.rows), ir.n_binaries) == \
            (exact.n_vars, len(exact.rows), exact.n_binaries)
        np.testing.assert_array_equal(ir.objective_vector(),
                                      exact.objective_vector())
        read = _highs_read(tmp_path, emit_model(ir, "MPS"), "MPS")
        assert read.n_cols == ir.n_vars
        assert read.n_rows == len(ir.rows)
        assert read.n_integer == ir.n_binaries
        np.testing.assert_allclose(read.cost, ir.objective_vector(),
                                   atol=1e-12)

    def test_roundtrip_k1_lp(self, tmp_path):
        params = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8,
                               eta_c=0.9, eta_d=0.9)
        grid = TimeGrid(dt_hours=1.0, K=1)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([50.0]),
                             fcr_availability=np.array([20.0]))
        opts = ModelOptions(variant="exact", fcr_block_len=1, da_block_len=1)
        ir = dispatch_variant(params, grid, budget, 4.0, prices, opts)
        assert ir.n_bilinear_active == 0
        read = _highs_read(tmp_path, emit_model(ir, "MPS"), "MPS")
        assert read.n_cols == ir.n_vars
        assert read.n_rows == len(ir.rows)
        assert read.objective == pytest.approx(solve(ir).objective, abs=1e-9)

    def test_restriction_k96_declares_binaries(self):
        params = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                               eta_c=0.92, eta_d=0.92)
        grid = TimeGrid(dt_hours=0.25, K=96)
        budget = UncertaintyBudget.from_eu_rules(0.25)
        prices = PriceSeries(day_ahead=np.full(24, 40.0),
                             fcr_availability=np.full(6, 15.0))
        opts = ModelOptions(variant="restriction", fcr_block_len=16,
                            da_block_len=4)
        ir = dispatch_variant(params, grid, budget, 53.3, prices, opts)
        text = emit_model(ir, "MPS").decode()
        assert sum(1 for line in text.splitlines()
                   if line.strip().startswith("BV ")) == 3 * 95

    @pytest.mark.parametrize("variant", [
        "restriction", "relaxation", "no_sell_lp", "exact", "arbitrage_only",
        "lossless_lp"])
    def test_mps_bytes_are_pinned(self, variant):
        params = LOSSLESS if variant == "lossless_lp" else LOSSY
        blob = emit_model(_k4_model(variant, params), "MPS")
        assert hashlib.sha256(blob).hexdigest() == MPS_SHA256[variant]

    @pytest.mark.parametrize("variant, params", [
        pytest.param("restriction", LOSSY, id="restriction"),
        pytest.param("relaxation", LOSSY, id="relaxation"),
        pytest.param("no_sell_lp", LOSSY, id="no_sell_lp"),
        pytest.param("arbitrage_only", LOSSY, id="arbitrage_only"),
        pytest.param("restriction", LOSSLESS, id="restriction-lossless"),
    ])
    def test_parsed_mps_solves_like_the_model(self, tmp_path, variant,
                                              params):
        # HiGHS reads both files of the model and finds its optimum; points
        # are not compared: the restriction has tied optima
        ir = _k4_model(variant, params)
        direct = solve(ir)
        assert direct.status == "optimal"
        for fmt in ("MPS", "LP"):
            read = _highs_read(tmp_path, emit_model(ir, fmt), fmt)
            assert read.status == "optimal", fmt
            assert read.objective == pytest.approx(direct.objective,
                                                   abs=1e-9), fmt
            assert (read.n_cols, read.n_rows, read.n_integer) == \
                (ir.n_vars, len(ir.rows), ir.n_binaries), fmt


# SHA-256 of emit_model(_k4_model(variant), "MPS"); MPS bytes change only
# on purpose
MPS_SHA256 = {
    "restriction":
        "75d42ca0c7d11e29a57cc96dc14437d40fc87501dcfc998b694837ffc9043e2c",
    "relaxation":
        "6598b644583a235a658a1bd985d9bd13c12f02c37bd4e9fdccf84329d7473c65",
    "no_sell_lp":
        "c07387b47ec1d437b950b468c08e5de789282186e58c73c54365a53121bcd899",
    "arbitrage_only":
        "20991f2f55d68b3f6fd6ee75b5f6a95c003ae907ca5a511cd9b0b3b01a816576",
    "exact":
        "e3ffd4e7728a2e26af8b0ca4bfb234625eb97e18646ecc607fea903a87f1d24d",
    "lossless_lp":
        "750227e4a2b3ebb8322f97d9d3099120b517fca8997848dc7913db0ddb5227ce",
}


class TestVerifyPoint:
    def test_zero_point_zero_model(self):
        ir = ModelIR()
        ir.add_variable("x", lower=0.0, upper=1.0)
        ir.add_row("r", [(0, 1.0)], "<=", 0.0)
        rep = verify_point(ir, {"x": 0.0})
        assert rep.feasible
        assert all(r.residual >= 0 for r in rep.residuals)

    def test_missing_variable(self):
        ir = ModelIR()
        ir.add_variable("x")
        ir.add_variable("y")
        with pytest.raises(ModelError):
            verify_point(ir, {"x": 0.0})

    def test_restriction_point_satisfies_bilinear(self):
        params = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8,
                               eta_c=0.9, eta_d=0.9)
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([5.0, 90.0, 10.0, 80.0]),
                             fcr_availability=np.array([20.0]))
        opts = ModelOptions(variant="restriction", fcr_block_len=4,
                            da_block_len=1)
        ir = dispatch_variant(params, grid, budget, 4.0, prices, opts)
        res = solve(ir)
        # re-check against the exact model (same variable layout except
        # for the u3 block, so verify on the restriction IR itself: its
        # inactive bilinear rows are the exact rows)
        rep = verify_point(ir, res.point)
        assert rep.bilinear_violations == 0

    def test_crafted_relaxation_violation_reported(self):
        params = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=4.919,
                               eta_c=0.762, eta_d=0.762)
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([69.0, -9.0, 45.0, 41.0]),
                             fcr_availability=np.array([104.6]))
        opts = ModelOptions(variant="relaxation", fcr_block_len=4,
                            da_block_len=1)
        ir = dispatch_variant(params, grid, budget, 1.916, prices, opts)
        res = solve(ir)
        rep = verify_point(ir, res.point)
        assert rep.bilinear_violations >= 1
        assert rep.feasible  # only inactive rows are violated


def _binaries(ir):
    return {i for i, v in enumerate(ir.variables) if v.kind == BINARY}


class TestIndicators:
    def _build(self, variant, fcr=True):
        opts = ModelOptions(variant=variant, fcr_enabled=fcr,
                            fcr_block_len=4 if fcr else None,
                            da_block_len=1)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        return dispatch_variant(LOSSY, K4, budget, 4.0, K4_PRICES, opts)

    def test_restriction_rule_for_every_binary(self):
        ir = self._build("restriction")
        assert set(ir.indicators) == _binaries(ir)
        assert len(ir.indicators) == 3 * (K4.K - 1)

    @pytest.mark.parametrize("variant,fcr", [("relaxation", True),
                                             ("no_sell_lp", True),
                                             ("arbitrage_only", False),
                                             ("exact", True)])
    def test_other_variants_carry_none(self, variant, fcr):
        assert self._build(variant, fcr).indicators == {}

    def test_rule_on_non_binary_rejected(self):
        ir = tiny_lp()
        with pytest.raises(ModelError):
            ir.add_indicator(0, [(0, 1.0)])

    def test_k96_model_files_ignore_rules(self):
        params = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                               eta_c=0.92, eta_d=0.92)
        grid = TimeGrid(dt_hours=0.25, K=96)
        budget = UncertaintyBudget.from_eu_rules(0.25)
        prices = PriceSeries(day_ahead=np.full(24, 40.0),
                             fcr_availability=np.full(6, 15.0))
        opts = ModelOptions(variant="restriction", fcr_block_len=16,
                            da_block_len=4)
        ir = dispatch_variant(params, grid, budget, 53.3, prices, opts)
        assert len(ir.indicators) == 3 * 95
        mps, lp = emit_model(ir, "MPS"), emit_model(ir, "LP")
        ir.indicators = {}
        assert emit_model(ir, "MPS") == mps
        assert emit_model(ir, "LP") == lp


@pytest.fixture(scope="module")
def acceptance_day(tmp_path_factory):
    """Day 2 of the acceptance backtest's dataset (seed 21)."""
    root = tmp_path_factory.mktemp("acceptance_day")
    generate_synthetic_dataset(str(root), seed=21, days=2, gamma=2.0)
    return Dataset(str(root)).load_day("2021-01-02")


class TestWarmStart:
    def test_joint_day_starts_from_certified_point(self, acceptance_day):
        params = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0,
                               y_max=90.0, eta_c=0.92, eta_d=0.92)
        grid = TimeGrid(dt_hours=1.0, K=24)
        budget = UncertaintyBudget(kind="total_budget", gamma=2.0)
        opts = ModelOptions(variant="restriction", fcr_block_len=4,
                            da_block_len=1)
        ir = dispatch_variant(params, grid, budget, 50.0,
                              acceptance_day.prices, opts)
        res = solve(ir, time_limit=120.0, gap_target=0.1)
        assert res.status == "optimal"
        assert res.path == "start+milp"
        assert res.gap <= 0.1
        assert res.objective <= res.start_objective + 1e-9
        x0 = np.array([res.point[f"x0[{k}]"] for k in range(1, 25)])
        xr = np.array([res.point[f"xr[{k}]"] for k in range(1, 25)])
        bids = BidSchedule(x0=x0, x_up=xr, x_dn=xr.copy(), symmetric=True)
        rep = check_feasibility(bids, params, grid, 2.0, 50.0)
        assert rep.feasible

    def _forced_binary(self):
        # max x with x <= u and x >= 0.5: the rule sets u = [-x >= 0] = 0
        # at the LP point, which leaves the fixed LP infeasible
        ir = ModelIR()
        x = ir.add_variable("x", lower=0.0, upper=1.0)
        u = ir.add_variable("u", kind=BINARY, lower=0.0, upper=1.0)
        ir.add_row("link", [(x, 1.0), (u, -1.0)], "<=", 0.0)
        ir.add_row("floor", [(x, 1.0)], ">=", 0.5)
        ir.add_objective_term(x, -1.0)
        ir.add_indicator(u, [(x, -1.0)])
        return ir

    def test_infeasible_start_falls_back_to_cold_milp(self):
        ir = self._forced_binary()
        res = solve(ir)
        cold = self._forced_binary()
        cold.indicators = {}
        ref = solve(cold)
        assert res.path == "milp" and np.isnan(res.start_objective)
        assert res.status == ref.status == "optimal"
        assert res.objective == ref.objective == pytest.approx(-1.0)
        assert res.point == ref.point

    def test_models_without_rules_take_the_plain_path(self):
        assert solve(tiny_lp()).path == "milp"


class TestExactBilinearContract:
    def _toy(self):
        # min -x - y on the unit box with x*y <= 1/4; the relaxation
        # drops the product row, so its optimum sits at (1, 1)
        ir = ModelIR()
        x = ir.add_variable("x", lower=0.0, upper=1.0)
        y = ir.add_variable("y", lower=0.0, upper=1.0)
        ir.add_objective_term(x, -1.0)
        ir.add_objective_term(y, -1.0)
        ir.add_bilinear("prod", quad=[(x, y, -1.0)], linear=[],
                        sense=">=", rhs=-0.25)
        return ir

    @staticmethod
    def _off_corner(point):
        return point["y"] <= 1.0 - 5e-10

    def test_certified_point_is_the_relaxation_optimum(self):
        res = solve_exact_bilinear(self._toy(), lambda point: True)
        relaxed = self._toy()
        relaxed.bilinear_rows[0].active = False
        ref = solve(relaxed)
        assert res.status == "optimal"
        assert res.bound == res.objective == ref.objective
        assert res.point == ref.point

    def test_rejected_point_leaves_the_model_undecided(self):
        res = solve_exact_bilinear(self._toy(), self._off_corner)
        assert not res.ok and res.status != "infeasible"
        assert res.bound == -2.0
        assert "oracle" in res.message

    def test_infeasible_relaxation_is_infeasible(self):
        ir = self._toy()
        ir.add_row("beyond_box", [(0, 1.0), (1, 1.0)], ">=", 3.0)
        res = solve_exact_bilinear(ir, lambda point: True)
        assert res.status == "infeasible"

    def test_callers_bilinear_rows_stay_active(self):
        ir = self._toy()
        solve_exact_bilinear(ir, self._off_corner)
        assert ir.n_bilinear_active == 1

    def test_uncertified_toy_is_rejected_at_once(self):
        # min -x - y, x*y <= 0.3, x + y <= 1.5: the relaxation optimum
        # lies on x + y = 1.5, where x*y >= 0.5
        ir = ModelIR()
        x = ir.add_variable("x", lower=0.0, upper=1.0)
        y = ir.add_variable("y", lower=0.0, upper=1.0)
        ir.add_objective_term(x, -1.0)
        ir.add_objective_term(y, -1.0)
        ir.add_row("sum", [(x, 1.0), (y, 1.0)], "<=", 1.5)
        ir.add_bilinear("prod", quad=[(x, y, 1.0)], linear=[],
                        sense="<=", rhs=0.3)
        calls = []

        def product_ok(point):
            calls.append(point)
            return point["x"] * point["y"] <= 0.3 + 1e-9

        res = solve_exact_bilinear(ir, product_ok)
        assert len(calls) == 1
        assert not res.ok and res.status != "infeasible"
        assert res.bound == pytest.approx(-1.5)
