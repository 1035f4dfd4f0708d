import os
import stat
import sys

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
from storagebid.mpsio import EmissionError, emit_model, parse_mps, parse_solution
from storagebid.soc import check_feasibility
from storagebid.solve import solve, solve_exact_bilinear, verify_point
from storagebid.types import BidSchedule


def tiny_lp():
    ir = ModelIR()
    ir.add_variable("x", lower=0.0, upper=10.0)
    return ir


class TestSolve:
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

    def test_roundtrip_counts(self):
        params = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8,
                               eta_c=0.9, eta_d=0.9)
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([5.0, 90.0, 10.0, 80.0]),
                             fcr_availability=np.array([20.0]))
        opts = ModelOptions(variant="exact", fcr_block_len=4, da_block_len=1)
        ir = dispatch_variant(params, grid, budget, 4.0, prices, opts)
        back = parse_mps(emit_model(ir, "MPS").decode())
        assert back.n_vars == ir.n_vars
        assert len(back.rows) == len(ir.rows)
        assert len(back.bilinear_rows) == ir.n_bilinear_active
        assert back.n_binaries == ir.n_binaries
        # objective survives
        np.testing.assert_allclose(back.objective_vector(),
                                   ir.objective_vector(), atol=1e-12)

    def test_roundtrip_k1_lp(self):
        params = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8,
                               eta_c=0.9, eta_d=0.9)
        grid = TimeGrid(dt_hours=1.0, K=1)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([50.0]),
                             fcr_availability=np.array([20.0]))
        opts = ModelOptions(variant="exact", fcr_block_len=1, da_block_len=1)
        ir = dispatch_variant(params, grid, budget, 4.0, prices, opts)
        back = parse_mps(emit_model(ir, "MPS").decode())
        assert back.n_vars == ir.n_vars
        assert len(back.rows) == len(ir.rows)
        r1 = solve(ir)
        r2 = solve(back)
        assert r1.objective == pytest.approx(r2.objective, abs=1e-9)

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


class TestSolutionParsing:
    def test_basic(self):
        status, obj, vals = parse_solution(
            "# comment\n=status= optimal\n=objective= -1.5\nx 2.0\ny 3\n")
        assert status == "optimal"
        assert obj == -1.5
        assert vals == {"x": 2.0, "y": 3.0}


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


class TestExternalBackend:
    def test_file_based_backend(self, tmp_path, monkeypatch):
        # fake solver: parse the MPS, solve in process, write name/value
        # lines — exercises the emit/invoke/parse loop end to end
        script = tmp_path / "fakesolver.py"
        script.write_text(f"""#!{sys.executable}
import sys
sys.path.insert(0, {str(os.path.join(os.path.dirname(__file__), os.pardir, 'src'))!r})
from storagebid.mpsio import parse_mps
from storagebid.solve import _solve_scipy
ir = parse_mps(open(sys.argv[1]).read())
res = _solve_scipy(ir, None, None)
with open(sys.argv[2], "w") as f:
    f.write("=status= " + res.status + "\\n")
    for name, val in res.point.items():
        f.write(f"{{name}} {{val!r}}\\n")
""")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        ir = tiny_lp()
        ir.add_variable("y", lower=1.0, upper=5.0)
        ir.add_objective_term(1, 1.0)
        res = solve(ir, backend=str(script))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.point["y"] == pytest.approx(1.0, abs=1e-9)

    def test_backend_crash_is_error_status(self, tmp_path):
        script = tmp_path / "broken.sh"
        script.write_text("#!/bin/sh\nexit 3\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        res = solve(tiny_lp(), backend=str(script))
        assert res.status == "error"
        assert "3" in res.message


def _binaries(ir):
    return {i for i, v in enumerate(ir.variables) if v.kind == BINARY}


LOSSY = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8, eta_c=0.9,
                      eta_d=0.9)
K4 = TimeGrid(dt_hours=1.0, K=4)
K4_PRICES = PriceSeries(day_ahead=np.array([5.0, 90.0, 10.0, 80.0]),
                        fcr_availability=np.array([20.0]))


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


class TestExactBilinearBound:
    def _toy(self):
        # min -x - y on the unit box with x*y <= 1/4; the node relaxation
        # drops the product row, so the root sits at (1, 1)
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

    def test_node_limited_bound_between_root_and_incumbent(self):
        # the root's right child, which holds (1, 1), is still open
        res = solve_exact_bilinear(self._toy(), ["x", "y"], self._off_corner,
                                   max_nodes=2, tol=1e-12)
        assert res.status == "feasible_limit"
        assert -2.0 <= res.bound <= res.objective
        assert res.objective == pytest.approx(-2.0 + 1e-9, abs=1e-12)

    def test_exhausted_search_closes_the_gap(self):
        res = solve_exact_bilinear(self._toy(), ["x", "y"], self._off_corner)
        assert res.status == "optimal"
        assert res.bound == res.objective

    def test_dropped_node_keeps_its_objective_in_the_bound(self):
        # without pruning slack the node holding (1, 1) is too narrow to
        # branch and is dropped without a verdict
        res = solve_exact_bilinear(self._toy(), ["x", "y"], self._off_corner,
                                   tol=1e-12)
        assert res.status == "feasible_limit"
        assert res.bound == -2.0 < res.objective
