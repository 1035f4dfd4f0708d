import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storagebid.types import (
    BidSchedule,
    DomainError,
    PriceSeries,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
    default_initial_soc,
)
from storagebid.ir import ModelError, ModelIR, ModelOptions
from storagebid.builder import (
    add_bid_variables,
    add_market_coupling,
    add_terminal_condition,
    build_intraday_power_bounds,
    build_objective,
    build_power_bounds,
    build_restriction_rows,
    build_soc_lower,
    build_soc_upper_exact,
    dispatch_variant,
    limited_arbitrage_rows,
    split_arbitrage_lp,
)
from storagebid.solve import solve, solve_exact_bilinear, verify_point
from storagebid.soc import (
    check_feasibility,
    max_soc_estimate,
    max_soc_gap_bound,
)


def reference_battery():
    return StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0, y_max=90.0,
                         eta_c=0.92, eta_d=0.92)


def small_battery():
    return StorageParams(x_min=-3.0, x_max=3.0, y_min=0.0, y_max=8.0,
                         eta_c=0.9, eta_d=0.9)


def flat_prices(grid, da=40.0, fcr=15.0):
    n_da = round(grid.T / 1.0)
    n_fcr = round(grid.T / 4.0)
    return PriceSeries(day_ahead=np.full(max(n_da, 1), da),
                       fcr_availability=np.full(max(n_fcr, 1), fcr))


def build_upper_ir(params, grid, gamma, y0):
    ir = ModelIR()
    add_bid_variables(ir, params, grid)
    build_soc_upper_exact(ir, params, grid, gamma, y0)
    return ir


class TestModelIRChecks:
    """Reference, sense and bound checks raise ModelError with messages
    that name the row or variable."""

    @staticmethod
    def two_vars():
        ir = ModelIR()
        ir.add_variable("x", lower=0.0, upper=1.0)
        ir.add_variable("y", kind="binary", lower=0.0, upper=1.0)
        return ir

    @pytest.mark.parametrize("index", [2, 7, -1])
    def test_row_with_unknown_variable(self, index):
        ir = self.two_vars()
        msg = f"row 'r' references unknown variable {index}"
        with pytest.raises(ModelError, match=msg):
            ir.add_row("r", [(0, 1.0), (index, 2.0), (1, 1.0)], "<=", 1.0)
        assert ir.rows == []

    def test_first_bad_index_is_named(self):
        ir = self.two_vars()
        with pytest.raises(ModelError, match="unknown variable 5$"):
            ir.add_row("r", [(5, 1.0), (-3, 1.0)], "<=", 1.0)

    def test_row_with_unknown_sense(self):
        ir = self.two_vars()
        with pytest.raises(ModelError, match="row 'r': unknown sense '<'"):
            ir.add_row("r", [(0, 1.0)], "<", 1.0)

    @pytest.mark.parametrize("quad, linear, index", [
        ([(0, 2, 1.0)], [], 2),
        ([(-1, 0, 1.0)], [], -1),
        ([(0, 1, 1.0)], [(3, 1.0)], 3),
    ])
    def test_bilinear_with_unknown_variable(self, quad, linear, index):
        ir = self.two_vars()
        msg = f"row 'b' references unknown variable {index}"
        with pytest.raises(ModelError, match=msg):
            ir.add_bilinear("b", quad, linear, ">=", 0.0)
        assert ir.bilinear_rows == []

    def test_bilinear_with_unknown_sense(self):
        ir = self.two_vars()
        with pytest.raises(ModelError, match="row 'b': unknown sense '=>'"):
            ir.add_bilinear("b", [(0, 1, 1.0)], [], "=>", 0.0)

    @pytest.mark.parametrize("names, ptr, col, val, sense, msg", [
        (["a"], [0, 1], [0], [1.0], 7, "row 'a': unknown sense 7"),
        (["a"], [0, 1], [0], [1.0], -1, "row 'a': unknown sense -1"),
        (["a", "b"], [0, 1, 1], [0], [1.0], [0, 3],
         "row 'b': unknown sense 3"),
        (["a"], [0, 1, 2], [0, 1], [1.0, 1.0], 0,
         "3 row pointers for 1 rows"),
        (["a", "b"], [0, 1], [0], [1.0], 0, "2 row pointers for 2 rows"),
        (["a"], [1, 2], [0, 1], [1.0, 1.0], 0, "do not rise from 0"),
        (["a", "b"], [0, 2, 1], [0, 1], [1.0, 1.0], 0, "do not rise from 0"),
        (["a"], [0, 3], [0, 1], [1.0, 1.0], 0,
         "end at 3, with 2 columns and 2 values"),
        (["a"], [0, 1], [0, 1], [1.0, 1.0], 0,
         "end at 1, with 2 columns and 2 values"),
        (["a"], [0, 2], [0, 1], [1.0], 0,
         "end at 2, with 2 columns and 1 values"),
    ], ids=["sense-7", "sense-minus-1", "sense-of-second-row",
            "ptr-too-long", "ptr-too-short", "ptr-from-1", "ptr-decreases",
            "ptr-past-col", "ptr-short-of-col", "val-short"])
    def test_malformed_row_block(self, names, ptr, col, val, sense, msg):
        ir = self.two_vars()
        with pytest.raises(ModelError, match=re.escape(msg)):
            ir.add_rows(names, ptr, col, val, sense, 1.0)
        assert (ir.n_rows, ir.rows) == (0, [])
        assert ir.row_arrays().ptr.tolist() == [0]

    @pytest.mark.parametrize("ptr, col, val, msg", [
        ([0, 1, 2], [0, 0], [1.0, 1.0], "3 row pointers for 1 rows"),
        ([0], [], [], "1 row pointers for 1 rows"),
        ([1, 2], [0], [1.0], "do not rise from 0"),
        ([0, -1], [], [], "do not rise from 0"),
        ([0, 2], [0], [1.0], "end at 2, with 1 columns and 1 values"),
        ([0, 1], [0], [1.0, 2.0], "end at 1, with 1 columns and 2 values"),
    ], ids=["ptr-too-long", "ptr-too-short", "ptr-from-1", "ptr-decreases",
            "ptr-past-col", "val-long"])
    def test_malformed_indicator_block(self, ptr, col, val, msg):
        ir = self.two_vars()
        with pytest.raises(ModelError, match=re.escape(msg)):
            ir.add_indicators([1], ptr, col, val)
        assert ir.indicators is None

    def test_rows_keep_their_coefficients(self):
        ir = self.two_vars()
        ir.add_row("r", iter([(1, 2.0), (0, -1.0), (1, 0.5)]), "==", 3)
        row = ir.rows[0]
        assert row.coeffs == ((1, 2.0), (0, -1.0), (1, 0.5))
        assert row.rhs == 3.0 and isinstance(row.rhs, float)

    def test_validate_duplicate_row_name(self):
        ir = self.two_vars()
        for name in ("a", "b", "a", "b"):
            ir.add_row(name, [(0, 1.0)], "<=", 1.0)
        with pytest.raises(ModelError, match="duplicate row name 'a'"):
            ir.validate()

    @pytest.mark.parametrize("lower, upper, msg", [
        (2.0, 1.0, "variable z: empty bound interval"),
        (np.inf, np.inf, "variable z: empty bound interval"),
        (-np.inf, -np.inf, "variable z: empty bound interval"),
        (np.nan, 1.0, "variable z: NaN bound"),
        (0.0, np.nan, "variable z: NaN bound"),
    ])
    def test_validate_bad_bounds(self, lower, upper, msg):
        ir = self.two_vars()
        ir.add_variable("z", lower=lower, upper=upper)
        ir.add_variable("w", lower=3.0, upper=1.0)
        with pytest.raises(ModelError, match=msg):
            ir.validate()

    def test_validate_binary_outside_unit_interval(self):
        ir = self.two_vars()
        ir.upper[1] = 2.0
        ir.add_variable("w", lower=3.0, upper=1.0)
        with pytest.raises(ModelError,
                           match=r"binary y: bounds outside \[0, 1\]"):
            ir.validate()

    def test_validate_accepts_a_built_model(self):
        grid = TimeGrid(dt_hours=1.0, K=6)
        budget = UncertaintyBudget(kind="total_budget", gamma=2.0)
        opts = ModelOptions(variant="restriction", fcr_block_len=3,
                            da_block_len=1)
        ir = dispatch_variant(reference_battery(), grid, budget, 50.0,
                              flat_prices(grid), opts)
        ir.validate()


class TestRowStore:
    """Rows added one at a time and rows added as a block keep their
    order and their coefficients' order, and a copy made with
    dataclasses.replace shares nothing either model appends to."""

    @staticmethod
    def three_rows():
        ir = TestModelIRChecks.two_vars()
        ir.add_row("a", [(1, 2.0), (0, -1.0)], "<=", 1.0)
        ir.add_rows(["b", "c"], [0, 1, 3], [0, 1, 1], [4.0, 5.0, 6.0],
                    [1, 2], [0.0, 2.5])
        ir.add_row("d", [], ">=", -3.0)
        return ir

    def test_order_across_rows_and_blocks(self):
        ir = self.three_rows()
        assert [(r.name, r.coeffs, r.sense, r.rhs) for r in ir.rows] == [
            ("a", ((1, 2.0), (0, -1.0)), "<=", 1.0),
            ("b", ((0, 4.0),), ">=", 0.0),
            ("c", ((1, 5.0), (1, 6.0)), "==", 2.5),
            ("d", (), ">=", -3.0)]
        a = ir.row_arrays()
        assert a.ptr.tolist() == [0, 2, 3, 5, 5]
        assert (ir.n_rows, ir.nnz) == (4, 5)
        with pytest.raises(ValueError):
            a.val[0] = 0.0

    def test_block_with_unknown_variable(self):
        ir = self.three_rows()
        with pytest.raises(ModelError,
                           match="row 'f' references unknown variable 2"):
            ir.add_rows(["e", "f"], [0, 1, 2], [0, 2], [1.0, 1.0], 0, 0.0)
        assert ir.n_rows == 4

    def test_replaced_copy_shares_no_buffer(self):
        ir = self.three_rows()
        ir.row_arrays()
        ir.add_row("e", [(0, 1.0)], "<=", 0.0)
        copy = replace(ir, bilinear_rows=[])
        copy.add_variable("z")
        copy.add_row("f", [(2, 1.0)], "<=", 0.0)
        ir.add_rows(["g"], [0, 1], [1], [7.0], 0, 0.0)
        ir.fix_variable("x", 0.5)
        assert [r.name for r in ir.rows] == list("abcdeg")
        assert [r.name for r in copy.rows] == list("abcdef")
        assert (ir.n_vars, copy.n_vars) == (2, 3)
        assert (ir.lower[0], copy.lower[0]) == (0.5, 0.0)


class TestColumnStore:
    """Every variant holds its columns as arrays of one length each:
    float64 bounds and costs and a bool binary mask. A copy made with
    dataclasses.replace, also from lists, owns its arrays."""

    COLUMNS = (("lower", np.float64), ("upper", np.float64),
               ("binary", np.bool_), ("cost", np.float64))

    @pytest.mark.parametrize("variant", ModelOptions.VARIANTS)
    def test_columns_are_typed_arrays(self, variant):
        ir = TestOnlyExactHasBilinearRows._build(variant, 4)
        for name, dtype in self.COLUMNS:
            column = getattr(ir, name)
            assert isinstance(column, np.ndarray), name
            assert (column.dtype, column.shape) == (dtype, (ir.n_vars,))

    def test_replaced_copy_from_lists_owns_its_arrays(self):
        ir = TestModelIRChecks.two_vars()
        copy = replace(ir, lower=[-1, 0], upper=[1, 1],
                       binary=[False] * ir.n_vars)
        for name, dtype in self.COLUMNS:
            assert getattr(copy, name).dtype == dtype
            assert not np.shares_memory(getattr(ir, name),
                                        getattr(copy, name))
        again = replace(copy)
        again.fix_variable("y", 1.0)
        again.add_variable("z", lower=2.0)
        assert copy.lower.tolist() == [-1.0, 0.0]
        assert copy.binary.tolist() == [False, False]
        assert ir.binary.tolist() == [False, True]
        assert again.lower.tolist() == [-1.0, 1.0, 2.0]

    def test_indicator_names_the_first_bad_column(self):
        ir = TestModelIRChecks.two_vars()
        with pytest.raises(ModelError,
                           match="indicator for non-binary variable -1"):
            ir.add_indicators([1, -1, 0], [0, 1, 2, 3], [0, 0, 0],
                              [1.0, 1.0, 1.0])
        assert ir.indicators is None


class TestBlockAppends:
    """Builders append variables and rows in blocks: a full build calls
    ``ModelIR.add_variable`` never and ``ModelIR.add_row`` only for the
    terminal SOC row."""

    OPTIONS = {
        "restriction": {},
        "relaxation": {"variant": "relaxation"},
        "exact": {"variant": "exact"},
        "no_sell_lp": {"variant": "no_sell_lp"},
        "lossless_lp": {"variant": "lossless_lp"},
        "arbitrage_only": {"variant": "arbitrage_only", "fcr_enabled": False,
                           "da_block_len": None},
        "intraday": {"intraday": True},
        "limited": {"limited_arbitrage": True},
        "terminal": {"terminal_soc_floor": 50.0},
        "da-blocks": {"variant": "arbitrage_only", "fcr_enabled": False},
    }

    @staticmethod
    def build(name, K):
        grid = TimeGrid(dt_hours=24 / K, K=K)
        params = reference_battery()
        if name == "lossless_lp":
            params = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0,
                                   y_max=90.0, eta_c=1.0, eta_d=1.0)
        if name == "split-lp":
            return split_arbitrage_lp(
                params, grid, 50.0, flat_prices(grid),
                ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                             da_block_len=2, terminal_soc_floor=50.0))
        options = {"variant": "restriction", "fcr_block_len": K // 6,
                   "da_block_len": 2, **TestBlockAppends.OPTIONS[name]}
        return dispatch_variant(params, grid,
                                UncertaintyBudget.from_eu_rules(24 / K),
                                50.0, flat_prices(grid),
                                ModelOptions(**options))

    @pytest.mark.parametrize("K", [24, 96])
    @pytest.mark.parametrize("name", [*OPTIONS, "split-lp"])
    def test_no_single_appends(self, monkeypatch, name, K):
        calls = []
        for method in ("add_variable", "add_row"):
            def counted(ir, name, *args, _call=getattr(ModelIR, method),
                        _method=method, **kwargs):
                calls.append((_method, name))
                return _call(ir, name, *args, **kwargs)
            monkeypatch.setattr(ModelIR, method, counted)
        ir = self.build(name, K)
        terminal = name in ("terminal", "split-lp")
        assert calls == ([("add_row", "terminal_soc")] if terminal else [])
        assert ir.n_rows > 0


class TestCounts:
    def test_power_bounds(self):
        params = reference_battery()
        for K in (1, 96):
            grid = TimeGrid(dt_hours=0.25, K=K)
            ir = ModelIR()
            add_bid_variables(ir, params, grid)
            build_power_bounds(ir, params, grid)
            assert len(ir.rows) == 2 * K
            assert all(r.rhs in (50.0, -50.0) for r in ir.rows)

    @pytest.mark.parametrize("K", [1, 2, 4, 96])
    def test_soc_lower_rows(self, K):
        params = reference_battery()
        grid = TimeGrid(dt_hours=0.25, K=K)
        ir = ModelIR()
        add_bid_variables(ir, params, grid)
        build_soc_lower(ir, params, grid, 0.25, 50.0)
        assert len(ir.rows) == K * (K + 1) // 2 + 5 * K

    @pytest.mark.parametrize("K", [1, 2, 4, 96])
    def test_soc_upper_counts(self, K):
        params = reference_battery()
        grid = TimeGrid(dt_hours=0.25, K=K)
        ir = build_upper_ir(params, grid, 0.25, 50.0)
        assert len(ir.bilinear_rows) == K * (K - 1) // 2
        assert ir.n_binaries == 2 * (K - 1)

    def test_full_day_scale_bilinear_count(self):
        grid = TimeGrid(dt_hours=0.25, K=96)
        ir = build_upper_ir(reference_battery(), grid, 0.25, 50.0)
        assert len(ir.bilinear_rows) == 4560
        assert ir.n_binaries == 190

    def test_restriction_binaries(self):
        params = reference_battery()
        grid = TimeGrid(dt_hours=0.25, K=96)
        ir = build_upper_ir(params, grid, 0.25, 50.0)
        build_restriction_rows(ir, params, grid)
        assert ir.n_binaries == 3 * 95

    def test_k1_degenerate(self):
        grid = TimeGrid(dt_hours=1.0, K=1)
        ir = build_upper_ir(reference_battery(), grid, 1.0, 50.0)
        assert ir.n_binaries == 0
        assert len(ir.bilinear_rows) == 0

    def test_assumption_violated(self):
        grid = TimeGrid(dt_hours=0.25, K=4)
        ir = ModelIR()
        add_bid_variables(ir, reference_battery(), grid)
        with pytest.raises(DomainError):
            build_soc_lower(ir, reference_battery(), grid, 0.4, 50.0)


class TestObjective:
    def test_zero_prices(self):
        grid = TimeGrid(dt_hours=1.0, K=24)
        ir = ModelIR()
        add_bid_variables(ir, reference_battery(), grid)
        add_market_coupling(ir, reference_battery(), grid, 4, 1)
        build_objective(ir, flat_prices(grid, da=0.0, fcr=0.0), grid, True)
        assert not ir.cost.any()

    def test_constant_da_price(self):
        # 1 kW for 24 h at 100 EUR/MWh earns 2.4 EUR (objective -2.4)
        grid = TimeGrid(dt_hours=1.0, K=24)
        ir = ModelIR()
        add_bid_variables(ir, reference_battery(), grid)
        build_objective(ir, flat_prices(grid, da=100.0, fcr=0.0), grid, False)
        point = np.zeros(ir.n_vars)
        for k in range(1, 25):
            point[ir.var(f"x0[{k}]")] = 1.0
        assert ir.cost @ point == pytest.approx(-2.4)

    def test_fcr_block_payment(self):
        # 50 kW symmetric reserve all day at 12 EUR/MW/4h over 6 blocks
        grid = TimeGrid(dt_hours=0.25, K=96)
        ir = ModelIR()
        add_bid_variables(ir, reference_battery(), grid)
        add_market_coupling(ir, reference_battery(), grid, 16, 4)
        build_objective(ir, flat_prices(grid, da=0.0, fcr=12.0), grid, True)
        point = np.zeros(ir.n_vars)
        for k in range(1, 97):
            point[ir.var(f"xr[{k}]")] = 50.0
        assert ir.cost @ point == pytest.approx(-6 * 12 * 50e-3)


class TestCoupling:
    def test_block_structure(self):
        grid = TimeGrid(dt_hours=0.25, K=96)
        ir = ModelIR()
        add_bid_variables(ir, reference_battery(), grid)
        add_market_coupling(ir, reference_battery(), grid, 16, 4)
        # 96 symmetric ties each for up/dn, block ties leave 6 free xr
        # and 24 free x0
        blk_xr = [r for r in ir.rows if r.name.startswith("blk_xr")]
        blk_x0 = [r for r in ir.rows if r.name.startswith("blk_x0")]
        assert len(blk_xr) == 96 - 6
        assert len(blk_x0) == 96 - 24

    def test_non_dividing_block(self):
        grid = TimeGrid(dt_hours=0.25, K=10)
        ir = ModelIR()
        add_bid_variables(ir, reference_battery(), grid)
        with pytest.raises(ModelError):
            add_market_coupling(ir, reference_battery(), grid, 16, 4)

    def test_asymmetric(self):
        grid = TimeGrid(dt_hours=0.25, K=16)
        ir = ModelIR()
        add_bid_variables(ir, reference_battery(), grid)
        add_market_coupling(ir, reference_battery(), grid, 16, 4, symmetric=False)
        assert "xr[1]" not in ir.registry


class TestTerminal:
    def test_requires_alpha(self):
        grid = TimeGrid(dt_hours=1.0, K=2)
        ir = ModelIR()
        add_bid_variables(ir, reference_battery(), grid)
        with pytest.raises(ModelError):
            add_terminal_condition(ir, grid, 50.0, 50.0)

    def test_holds_terminal_soc(self):
        params = reference_battery()
        grid = TimeGrid(dt_hours=1.0, K=24)
        budget = UncertaintyBudget(kind="total_budget", gamma=2.0)
        da = 40 + 30 * np.sin(np.arange(24) / 24 * 4 * np.pi)
        prices = PriceSeries(day_ahead=da, fcr_availability=np.zeros(6))
        y0 = default_initial_soc(params)
        opts = ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                            terminal_soc_floor=y0)
        res = solve(dispatch_variant(params, grid, budget, y0, prices, opts))
        assert res.status == "optimal"
        x0 = np.array([res.point[f"x0[{k}]"] for k in range(1, 25)])
        drain = np.maximum(0.92 * x0, x0 / 0.92).sum()
        assert y0 - drain >= y0 - 1e-6


class TestIntraday:
    def test_tightening_one_eighth(self):
        # dt = gamma' = 15 min, window 2.25 h: with a constant reserve bid
        # the headroom reserved on each later interval is xr/8
        params = StorageParams(x_min=-50, x_max=50, y_min=0, y_max=1e6,
                               eta_c=0.92, eta_d=0.92)
        grid = TimeGrid(dt_hours=0.25, K=16)
        ir = ModelIR()
        add_bid_variables(ir, params, grid)
        add_market_coupling(ir, params, grid, 16, 4)
        build_power_bounds(ir, params, grid, intervals=[1])
        build_intraday_power_bounds(ir, params, grid, 0.25, 2.25)
        xr_fix = 16.0
        for k in range(1, 17):
            ir.fix_variable(f"xr[{k}]", xr_fix)
            ir.fix_variable(f"x_up[{k}]", xr_fix)
            ir.fix_variable(f"x_dn[{k}]", xr_fix)
        ir.cost[ir.var("x0[16]")] = -1.0  # maximize x0_16
        res = solve(ir)
        assert res.status == "optimal"
        assert res.point["x0[16]"] == pytest.approx(50 - xr_fix - xr_fix / 8,
                                                    abs=1e-6)

    def test_zero_reserve_plain_bounds(self):
        params = reference_battery()
        grid = TimeGrid(dt_hours=0.25, K=16)
        ir = ModelIR()
        add_bid_variables(ir, params, grid)
        add_market_coupling(ir, params, grid, 16, 4)
        build_power_bounds(ir, params, grid, intervals=[1])
        build_intraday_power_bounds(ir, params, grid, 0.25, 2.25)
        for k in range(1, 17):
            ir.fix_variable(f"xr[{k}]", 0.0)
            ir.fix_variable(f"x_up[{k}]", 0.0)
            ir.fix_variable(f"x_dn[{k}]", 0.0)
        ir.cost[ir.var("x0[16]")] = -1.0
        res = solve(ir)
        assert res.point["x0[16]"] == pytest.approx(50.0, abs=1e-6)

    def test_misaligned_budget(self):
        params = reference_battery()
        grid = TimeGrid(dt_hours=0.25, K=16)
        ir = ModelIR()
        add_bid_variables(ir, params, grid)
        add_market_coupling(ir, params, grid, 16, 4)
        with pytest.raises(DomainError):
            build_intraday_power_bounds(ir, params, grid, 0.3, 2.3)

    @pytest.mark.parametrize("Gamma_prime, message", [
        (2.5, "Gamma_prime must be a multiple of dt"),
        (1.0, "Gamma_prime must exceed dt")])
    def test_bad_recovery_window(self, Gamma_prime, message):
        # the windows intraday_adjustments rejects: 2.5 h is not a whole
        # number of hours, and a window of one interval has no history
        params = reference_battery()
        grid = TimeGrid(dt_hours=1.0, K=4)
        ir = ModelIR()
        add_bid_variables(ir, params, grid)
        add_market_coupling(ir, params, grid, 4, 1)
        counts = (ir.n_vars, ir.n_rows)
        with pytest.raises(DomainError, match=message):
            build_intraday_power_bounds(ir, params, grid, 1.0, Gamma_prime)
        assert (ir.n_vars, ir.n_rows) == counts


class TestMissingFamilies:
    """Blocks that read another block's variables name the first missing
    one and leave the IR as it was."""

    @pytest.mark.parametrize("add,name", [
        (lambda ir, params, grid: add_terminal_condition(ir, grid, 50.0,
                                                         50.0), "alpha[1]"),
        (lambda ir, params, grid: build_intraday_power_bounds(
            ir, params, grid, 0.25, 2.25), "xr[1]"),
        (lambda ir, params, grid: limited_arbitrage_rows(
            ir, params, grid,
            UncertaintyBudget(kind="total_budget", gamma=1.0), 16), "xr[1]"),
        (lambda ir, params, grid: build_objective(
            ir, flat_prices(grid, da=100.0, fcr=12.0), grid, True), "xr[1]"),
    ], ids=["terminal", "intraday", "limited_arbitrage", "objective"])
    def test_raises_before_changing_the_ir(self, add, name):
        params, grid = reference_battery(), TimeGrid(dt_hours=0.25, K=16)
        ir = ModelIR()
        add_bid_variables(ir, params, grid)
        counts = (ir.n_vars, len(ir.rows))
        with pytest.raises(ModelError,
                           match=re.escape(f"unknown variable {name!r}")):
            add(ir, params, grid)
        assert (ir.n_vars, len(ir.rows)) == counts
        assert not ir.cost.any()


class TestVariants:
    def test_lossless_requires_lossless(self):
        params = reference_battery()
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        with pytest.raises(DomainError):
            dispatch_variant(params, grid, budget, 50.0, flat_prices(grid),
                             ModelOptions(variant="lossless_lp",
                                          fcr_block_len=4, da_block_len=1))

    def test_no_sell_is_lp(self):
        params = reference_battery()
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        ir = dispatch_variant(params, grid, budget, 50.0, flat_prices(grid),
                              ModelOptions(variant="no_sell_lp",
                                           fcr_block_len=4, da_block_len=1))
        assert ir.n_binaries == 0
        assert len(ir.bilinear_rows) == 0
        for k in range(1, 5):
            assert ir.upper[ir.var(f"x0[{k}]")] == 0.0

    def test_lossless_is_lp(self):
        params = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                               eta_c=1.0, eta_d=1.0)
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        ir = dispatch_variant(params, grid, budget, 50.0, flat_prices(grid),
                              ModelOptions(variant="lossless_lp",
                                           fcr_block_len=4, da_block_len=1))
        assert ir.n_binaries == 0
        assert len(ir.bilinear_rows) == 0

    def test_arbitrage_only_binaries(self):
        params = reference_battery()
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        ir = dispatch_variant(params, grid, budget, 50.0, flat_prices(grid),
                              ModelOptions(variant="arbitrage_only",
                                           fcr_enabled=False))
        assert ir.n_binaries == 3  # K - 1 charge/discharge indicators

    def test_arbitrage_only_excludes_fcr(self):
        with pytest.raises(DomainError):
            ModelOptions(variant="arbitrage_only", fcr_enabled=True)

    def test_intraday_requires_fcr(self):
        # the intraday power bounds act on the symmetric reserve bid
        with pytest.raises(DomainError, match="intraday"):
            ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                         intraday=True)

    def test_arbitrage_only_matches_split_lp(self):
        # independent oracle: charge/discharge split LP; at nonnegative
        # prices its complementarity relaxation is exact
        from scipy.optimize import linprog
        params = reference_battery()
        grid = TimeGrid(dt_hours=1.0, K=24)
        budget = UncertaintyBudget(kind="total_budget", gamma=2.0)
        da = 40 + 30 * np.sin(np.arange(24) / 24 * 4 * np.pi)
        prices = PriceSeries(day_ahead=da, fcr_availability=np.zeros(6))
        y0 = default_initial_soc(params)
        opts = ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                            terminal_soc_floor=y0)
        res = solve(dispatch_variant(params, grid, budget, y0, prices, opts))
        K, ec, ed = 24, 0.92, 0.92
        c = np.concatenate([-da * 1e-3, -da * 1e-3])
        rows, rhs = [], []
        for k in range(1, K + 1):
            drain = np.zeros(2 * K)
            drain[:k], drain[K:K + k] = ec, 1 / ed
            rows.append(-drain)
            rhs.append(params.y_max - y0)
            rows.append(drain)
            rhs.append(y0 - params.y_min)
        rows.append(np.concatenate([np.full(K, ec), np.full(K, 1 / ed)]))
        rhs.append(0.0)  # terminal floor at y0
        lp = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                     bounds=[(-50, 0)] * K + [(0, 50)] * K, method="highs")
        assert res.objective == pytest.approx(lp.fun, abs=1e-7)


class TestLossyOneIntervalBuilds:
    """dispatch_variant takes case binaries from the battery's losses. A
    lossy K=1 model has none, so the restriction rows and the variant
    surgery add nothing there. lossless_lp needs a lossless battery."""

    @pytest.mark.parametrize("variant,n_vars,n_rows", [
        ("exact", 10, 14), ("relaxation", 10, 14), ("restriction", 10, 14),
        ("arbitrage_only", 9, 12), ("no_sell_lp", 10, 14)])
    def test_no_case_binaries_and_same_counts(self, variant, n_vars, n_rows):
        grid = TimeGrid(dt_hours=1.0, K=1)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        fcr = variant != "arbitrage_only"
        ir = dispatch_variant(small_battery(), grid, budget, 4.0,
                              flat_prices(grid),
                              ModelOptions(variant=variant, fcr_enabled=fcr,
                                           da_block_len=1))
        assert ir.n_binaries == 0 and ir.bilinear_rows == []
        assert (ir.n_vars, len(ir.rows)) == (n_vars, n_rows)
        assert not [name for name in ir.registry
                    if name.startswith(("u1[", "u2[", "u3["))]


class TestOnlyExactHasBilinearRows:
    """Each variant builds the model it solves or writes: the bilinear
    rows exist only in the exact model, which is the relaxation plus
    those rows."""

    @staticmethod
    def _build(variant, K):
        if K == 96:
            grid = TimeGrid(dt_hours=0.25, K=96)
            budget = UncertaintyBudget.from_eu_rules(0.25)
            opts = ModelOptions(variant=variant, fcr_block_len=16,
                                da_block_len=4)
            return dispatch_variant(reference_battery(), grid, budget,
                                    53.328, flat_prices(grid), opts)
        grid = TimeGrid(dt_hours=1.0, K=K)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        params = small_battery()
        if variant == "lossless_lp":
            params = StorageParams(x_min=-3.0, x_max=3.0, y_min=0.0,
                                   y_max=8.0, eta_c=1.0, eta_d=1.0)
        fcr = variant != "arbitrage_only"
        opts = ModelOptions(variant=variant, fcr_enabled=fcr,
                            fcr_block_len=4 if fcr else None,
                            da_block_len=1)
        return dispatch_variant(params, grid, budget, 4.0,
                                flat_prices(grid), opts)

    @pytest.mark.parametrize("variant,K",
                             [(v, 4) for v in ModelOptions.VARIANTS]
                             + [("restriction", 96)])
    def test_bilinear_rows_are_built_for_exact_only(self, monkeypatch,
                                                    variant, K):
        calls = []
        add_bilinear = ModelIR.add_bilinear

        def counted(ir, *args, **kwargs):
            calls.append(args[0] if args else kwargs["name"])
            return add_bilinear(ir, *args, **kwargs)

        monkeypatch.setattr(ModelIR, "add_bilinear", counted)
        ir = self._build(variant, K)
        n = K * (K - 1) // 2 if variant == "exact" else 0
        assert len(calls) == len(ir.bilinear_rows) == n
        if variant != "exact":
            return
        relax = self._build("relaxation", K)
        assert relax.bilinear_rows == []
        assert ir.var_names == relax.var_names
        for column in ("lower", "upper", "binary", "cost"):
            np.testing.assert_array_equal(getattr(ir, column),
                                          getattr(relax, column))
        assert ir.registry == relax.registry
        assert ir.rows == relax.rows
        assert [r.name for r in ir.bilinear_rows] == [
            f"bil[{k},{l}]" for k in range(2, K + 1) for l in range(1, k)]


class TestOrderingAndSoundness:
    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        eta = rng.uniform(0.6, 0.95)
        params = StorageParams(x_min=-3.0, x_max=3.0, y_min=0.0,
                               y_max=rng.uniform(4, 8), eta_c=eta, eta_d=eta)
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget",
                                   gamma=float(rng.integers(1, 3)))
        prices = PriceSeries(day_ahead=rng.uniform(-20, 100, 4),
                             fcr_availability=rng.uniform(0, 120, 1))
        y0 = rng.uniform(params.y_min + 0.5, params.y_max - 0.5)
        return params, grid, budget, prices, y0

    def _solve_variant(self, inst, variant):
        params, grid, budget, prices, y0 = inst
        opts = ModelOptions(variant=variant, fcr_block_len=4, da_block_len=1)
        return solve(dispatch_variant(params, grid, budget, y0, prices, opts))

    def _oracle(self, inst):
        params, grid, budget, prices, y0 = inst

        def ok(point):
            x0 = np.array([point[f"x0[{k}]"] for k in range(1, 5)])
            xr = np.array([point[f"xr[{k}]"] for k in range(1, 5)])
            bids = BidSchedule(x0=x0, x_up=xr, x_dn=xr.copy())
            rep = check_feasibility(bids, params, grid,
                                    budget.total_gamma(grid.T), y0)
            return rep.worst.slack >= -1e-7
        return ok

    @pytest.mark.parametrize("seed", [1, 7, 23, 101])
    def test_relaxation_exact_restriction_ordering(self, seed):
        inst = self._instance(seed)
        params, grid, budget, prices, y0 = inst
        rel = self._solve_variant(inst, "relaxation")
        res = self._solve_variant(inst, "restriction")
        opts = ModelOptions(variant="exact", fcr_block_len=4, da_block_len=1)
        exact_ir = dispatch_variant(params, grid, budget, y0, prices, opts)
        ex = solve_exact_bilinear(exact_ir, self._oracle(inst), time_limit=60)
        assert rel.ok and res.ok and ex.ok
        assert rel.objective <= ex.objective + 1e-6
        assert ex.objective <= res.objective + 1e-6

    @pytest.mark.parametrize("seed", [1, 7, 23, 101, 205])
    def test_restriction_soundness(self, seed):
        inst = self._instance(seed)
        params, grid, budget, prices, y0 = inst
        res = self._solve_variant(inst, "restriction")
        assert res.ok
        x0 = np.array([res.point[f"x0[{k}]"] for k in range(1, 5)])
        xr = np.array([res.point[f"xr[{k}]"] for k in range(1, 5)])
        bids = BidSchedule(x0=x0, x_up=xr, x_dn=xr.copy())
        rep = check_feasibility(bids, params, grid,
                                budget.total_gamma(grid.T), y0)
        assert rep.worst_violation <= 1e-6

    def test_crafted_relaxation_violation(self):
        # frozen instance found by random search: the relaxation optimum
        # violates one bilinear row
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
        assert res.ok
        assert verify_point(ir, res.point).feasible
        exact = dispatch_variant(params, grid, budget, 1.916, prices,
                                 ModelOptions(variant="exact",
                                              fcr_block_len=4,
                                              da_block_len=1))
        rep = verify_point(exact, res.point)
        assert rep.violations()
        assert all(c.name.startswith("bil[") for c in rep.violations())


class TestGapBound:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=30)
    def test_estimate_bracketing_and_gap(self, seed):
        rng = np.random.default_rng(seed)
        params = small_battery()
        grid = TimeGrid(dt_hours=1.0, K=4)
        x0 = rng.uniform(-2.0, 2.0, 4)
        x_dn = np.minimum(rng.uniform(0.0, 2.0, 4), x0 - params.x_min)
        bids = BidSchedule(x0=x0, x_up=np.zeros(4), x_dn=x_dn)
        gamma, y0 = 1.0, 4.0
        bound = max_soc_gap_bound(params, grid)
        for k in range(1, 5):
            lo = max_soc_estimate(bids, params, grid, gamma, y0, k, "lower")
            mid = max_soc_estimate(bids, params, grid, gamma, y0, k, "exact")
            hi = max_soc_estimate(bids, params, grid, gamma, y0, k, "upper")
            assert lo - 1e-9 <= mid <= hi + 1e-9
            assert hi - lo <= bound + 1e-9

    def test_full_day_scale_bound_value(self):
        params = reference_battery()
        grid = TimeGrid(dt_hours=0.25, K=96)
        # 23.75 h * (1/0.92 - 0.92) * 50 kW
        assert max_soc_gap_bound(params, grid) == pytest.approx(
            23.75 * (1 / 0.92 - 0.92) * 50.0, abs=1e-9)


class TestLimitedArbitrage:
    def _profit(self, limited):
        params = small_battery()
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([5.0, 90.0, 10.0, 80.0]),
                             fcr_availability=np.array([20.0]))
        opts = ModelOptions(variant="restriction", fcr_block_len=4,
                            da_block_len=1, limited_arbitrage=limited)
        res = solve(dispatch_variant(params, grid, budget, 4.0, prices, opts))
        assert res.ok
        return -res.objective, res

    def test_profit_dominated_by_full_mode(self):
        full, _ = self._profit(False)
        limited, _ = self._profit(True)
        assert limited <= full + 1e-9

    def test_zero_reserve_forces_zero_arbitrage(self):
        params = small_battery()
        grid = TimeGrid(dt_hours=1.0, K=4)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([5.0, 90.0, 10.0, 80.0]),
                             fcr_availability=np.array([0.0]))
        opts = ModelOptions(variant="restriction", fcr_block_len=4,
                            da_block_len=1, limited_arbitrage=True)
        ir = dispatch_variant(params, grid, budget, 4.0, prices, opts)
        for k in range(1, 5):
            ir.fix_variable(f"xr[{k}]", 0.0)
        res = solve(ir)
        assert res.ok
        for k in range(1, 5):
            assert res.point[f"x0[{k}]"] == pytest.approx(0.0, abs=1e-7)
