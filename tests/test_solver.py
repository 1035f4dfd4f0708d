import gc
import hashlib
import importlib
import os
import subprocess
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy

import storagebid
from storagebid.types import (
    PriceSeries,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
)
from storagebid.ir import (
    BINARY,
    GE,
    LE,
    ModelError,
    ModelIR,
    ModelOptions,
    residual,
)
from storagebid.builder import dispatch_variant, split_arbitrage_lp
from storagebid.builder import case_cuts
from storagebid.data import Dataset, generate_synthetic_dataset
from storagebid.mpsio import emit_model
from storagebid.soc import check_feasibility
from storagebid.solve import (
    _STATUS,
    _constraint_matrix,
    _highs,
    _row_matrix,
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
    # add_variable replaces ir.cost: bind the index before assigning
    x = ir.add_variable("x", lower=0.0)
    ir.cost[x] = -1.0
    return ir


def _unbounded_mip():
    ir = _unbounded_lp()
    y = ir.add_variable("y", kind=BINARY, lower=0.0, upper=1.0)
    ir.add_row("floor", [(0, 1.0), (y, 1.0)], ">=", 0.5)
    return ir


def _edge_case_ir():
    """A model with what a writer gets wrong most easily: a repeated
    column in one row, a column in no row, an objective-only column, a
    binary run that ends the columns, a -0.0 coefficient, numbers of at
    least 1e15, rows added one at a time and as a block, and a bilinear
    row with linear terms."""
    ir = ModelIR()
    x = ir.add_variable("x", lower=0.0, upper=10.0)
    b0 = ir.add_variable("b0", kind=BINARY, lower=0.0, upper=1.0)
    y = ir.add_variable("y")
    ir.add_variable("e", lower=0.0, upper=1.0)
    o = ir.add_variable("o", lower=-5.0)
    b1 = ir.add_variable("b1", kind=BINARY, lower=0.0, upper=1.0)
    b2 = ir.add_variable("b2", kind=BINARY, lower=0.0, upper=1.0)
    ir.cost[o] = 2.5e15
    ir.cost[x] = 2.0
    ir.cost[b0] = -1.0
    ir.add_row("r1", [(x, 1.0), (y, -0.0), (x, 3.0)], "<=", 1e15)
    ir.add_rows(["r2", "r3"], [0, 2, 4], [y, b0, x, b1],
                [2.5, -1.0, 1e16, 1.0], [GE, LE], [0.0, -7.25])
    ir.add_bilinear("q", quad=[(x, y, 2.0), (x, x, 1.0)],
                    linear=[(b2, 4.0), (x, -1.5)], sense=">=", rhs=-3.0)
    ir.add_row("r4", [(b2, 1.0), (y, 0.5)], "==", 1.0)
    return ir


# emit_model(_edge_case_ir(), fmt), line by line
EDGE_CASE_TEXT = {
    "MPS": [
        "NAME STORAGEBID", "ROWS", " N OBJ", " L r1", " G r2", " L r3",
        " E r4", " G q",
        "COLUMNS",
        " x OBJ 2", " x r1 1", " x r1 3", " x r3 1e+16", " x q -1.5",
        " MARKER0 'MARKER' 'INTORG'",
        " b0 OBJ -1", " b0 r2 -1",
        " MARKER1 'MARKER' 'INTEND'",
        " y r1 0", " y r2 2.5", " y r4 0.5",
        " e OBJ 0",
        " o OBJ 2.5e+15",
        " MARKER2 'MARKER' 'INTORG'",
        " b1 r3 1", " b2 r4 1", " b2 q 4",
        " MARKER3 'MARKER' 'INTEND'",
        "RHS", " RHS r1 1e+15", " RHS r3 -7.25", " RHS r4 1", " RHS q -3",
        "BOUNDS", " UP BND x 10", " BV BND b0", " FR BND y", " UP BND e 1",
        " LO BND o -5", " BV BND b1", " BV BND b2",
        "QCMATRIX q", " x y 1", " y x 1", " x x 1",
        "ENDATA"],
    "LP": [
        "\\ STORAGEBID", "Minimize", " obj: + 2 x - 1 b0 + 2.5e+15 o",
        "Subject To",
        " r1: + 1 x + 0 y + 3 x <= 1e+15",
        " r2: + 2.5 y - 1 b0 >= 0",
        " r3: + 1e+16 x + 1 b1 <= -7.25",
        " r4: + 1 b2 + 0.5 y = 1",
        " q: [ + 2 x * y + 1 x * x ] + 4 b2 - 1.5 x >= -3",
        "Bounds", " 0 <= x <= 10", " 0 <= b0 <= 1", " -inf <= y <= +inf",
        " 0 <= e <= 1", " -5 <= o <= +inf", " 0 <= b1 <= 1",
        " 0 <= b2 <= 1",
        "Binaries", " b0 b1 b2",
        "End"],
}


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


def _two_column_lp(cost=1.0, coeff=1.0, rhs=1.0):
    ir = ModelIR()
    x = ir.add_variable("x", lower=0.0, upper=10.0)
    y = ir.add_variable("y", lower=0.0, upper=10.0)
    ir.cost[x] = 1.0
    ir.cost[y] = cost
    ir.add_row("r", [(x, 1.0), (y, coeff)], ">=", rhs)
    return ir


class TestModelGate:
    """A model with a NaN or infinite number stops at ModelIR.validate,
    before HiGHS sees it: HiGHS returned ``optimal`` for such models (a
    nan objective, an ignored cost or row, a point that breaks its row)
    or did not return at all."""

    @pytest.fixture(autouse=True)
    def no_highs(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("HiGHS ran on a non-finite model")
        monkeypatch.setattr(importlib.import_module("storagebid.solve"),
                            "_highs_run", fail)

    @pytest.mark.parametrize("field, value, message", [
        ("cost", np.nan, "column 'y': objective coefficient nan"),
        ("cost", np.inf, "column 'y': objective coefficient inf"),
        ("coeff", np.nan, "row 'r': coefficient nan"),
        ("coeff", np.inf, "row 'r': coefficient inf"),
        ("rhs", np.nan, "row 'r': right-hand side nan"),
        ("rhs", np.inf, "row 'r': right-hand side inf"),
    ])
    def test_non_finite_number_is_refused(self, field, value, message):
        ir = _two_column_lp(**{field: value})
        with pytest.raises(ModelError, match=f"^{message}$"):
            solve(ir)
        with pytest.raises(ModelError, match=f"^{message}$"):
            solve_exact_bilinear(ir, lambda point: True)

    def test_bilinear_row_is_checked_before_it_is_dropped(self):
        ir = _two_column_lp()
        ir.add_bilinear("b", quad=[(0, 1, np.nan)], linear=[], sense=">=",
                        rhs=0.0)
        with pytest.raises(ModelError, match="^row 'b': coefficient nan$"):
            solve_exact_bilinear(ir, lambda point: True)


class TestConstraintMatrix:
    @pytest.mark.parametrize("variant", ["restriction", "arbitrage_only"])
    def test_matches_a_row_by_row_reference(self, variant):
        ir = _k4_model(variant)
        # a repeated column within a row is summed, as HiGHS needs
        ir.add_row("repeated", [(0, 1.5), (2, -1.0), (0, 0.25)], "<=", 3.0)
        a, lo, hi = _constraint_matrix(ir)
        dense = np.zeros((len(ir.rows), ir.n_vars))
        ref_lo, ref_hi = [], []
        for r, row in enumerate(ir.rows):
            for i, c in row.coeffs:
                dense[r, i] += c
            ref_lo.append(-np.inf if row.sense == "<=" else row.rhs)
            ref_hi.append(np.inf if row.sense == ">=" else row.rhs)
        assert a.format == "csc" and a.indices.dtype == np.int32
        assert a.has_canonical_format
        np.testing.assert_array_equal(a.toarray(), dense)
        np.testing.assert_array_equal(lo, ref_lo)
        np.testing.assert_array_equal(hi, ref_hi)


def test_missing_highs_binding_names_module_and_scipy_version():
    # scipy.optimize._highspy._core is private to scipy: a release may
    # move it while scipy.optimize itself still imports
    code = ("import sys\n"
            "import scipy.optimize._highspy as highspy\n"
            "del highspy._core\n"
            "sys.modules['scipy.optimize._highspy._core'] = None\n"
            "import storagebid.solve\n")
    src = os.path.dirname(os.path.dirname(storagebid.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: storagebid needs scipy's private "
                           "HiGHS binding scipy.optimize._highspy._core, "
                           f"which scipy {scipy.__version__} failed to "
                           "import: ")


class TestEmission:
    def test_empty_model(self):
        data = emit_model(ModelIR(), "MPS")
        assert b"NAME" in data and b"ENDATA" in data

    def test_unknown_format(self):
        with pytest.raises(ModelError):
            emit_model(ModelIR(), "SAV")

    def test_column_in_no_row_gets_a_zero_cost_line(self):
        ir = tiny_lp()
        ir.add_variable("y", lower=0.0, upper=1.0)
        ir.add_row("r", [(0, 2.5)], "<=", 1.0)
        lines = emit_model(ir, "MPS").decode().splitlines()
        columns = lines[lines.index("COLUMNS") + 1:lines.index("RHS")]
        assert columns == [" x r 2.5", " y OBJ 0"]

    def test_zero_cost_is_not_written(self, tmp_path):
        # a day-ahead price of 0 prices x0[1] at 0: neither file names it
        # in the objective, and HiGHS reads the model's costs all the same
        prices = PriceSeries(day_ahead=np.array([0.0, 90.0, 10.0, 80.0]),
                             fcr_availability=np.array([20.0]))
        ir = dispatch_variant(
            LOSSY, K4, UncertaintyBudget(kind="total_budget", gamma=1.0),
            4.0, prices, ModelOptions(variant="relaxation", fcr_block_len=4,
                                      da_block_len=1))
        assert ir.cost[ir.var("x0[1]")] == 0.0
        assert ir.cost[ir.var("x0[2]")] < 0.0
        mps = emit_model(ir, "MPS")
        assert not any(line.startswith(" x0[1] OBJ")
                       for line in mps.decode().splitlines())
        lp = emit_model(ir, "LP").decode().splitlines()
        objective = lp[lp.index("Minimize") + 1].split()
        assert "x0(1)" not in objective and "x0(2)" in objective
        np.testing.assert_array_equal(_highs_read(tmp_path, mps, "MPS").cost,
                                      ir.cost)

    @pytest.mark.parametrize("fmt", ["MPS", "LP"])
    def test_edge_cases_are_pinned(self, fmt):
        text = emit_model(_edge_case_ir(), fmt).decode()
        assert text.splitlines() == EDGE_CASE_TEXT[fmt]

    @pytest.mark.parametrize("fmt", ["MPS", "LP"])
    def test_nan_rhs_names_the_row(self, fmt):
        ir = tiny_lp()
        ir.add_row("broken", [(0, 1.0)], "<=", float("nan"))
        with pytest.raises(ModelError, match="row 'broken'"):
            emit_model(ir, fmt)

    @pytest.mark.parametrize("fmt", ["MPS", "LP"])
    def test_infinite_coefficient_names_the_row(self, fmt):
        ir = tiny_lp()
        ir.add_row("broken", [(0, float("inf"))], "<=", 1.0)
        with pytest.raises(ModelError, match="row 'broken'"):
            emit_model(ir, fmt)

    @pytest.mark.parametrize("fmt", ["MPS", "LP"])
    def test_nan_bound_names_the_column(self, fmt):
        ir = tiny_lp()
        ir.add_variable("broken", lower=float("nan"), upper=1.0)
        with pytest.raises(ModelError, match="variable broken: NaN bound"):
            emit_model(ir, fmt)

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
        assert len(ir.bilinear_rows) == K4.K * (K4.K - 1) // 2 == 6
        assert sum(1 for line in text.splitlines()
                   if line.startswith("QCMATRIX ")) == len(ir.bilinear_rows)

    def test_roundtrip_counts(self, tmp_path):
        # HiGHS has no quadratic rows, so it reads the relaxation: the
        # exact model's columns and linear rows without the bilinear rows
        exact, ir = _k4_model("exact"), _k4_model("relaxation")
        assert (ir.n_vars, len(ir.rows), ir.n_binaries) == \
            (exact.n_vars, len(exact.rows), exact.n_binaries)
        np.testing.assert_array_equal(ir.cost, exact.cost)
        read = _highs_read(tmp_path, emit_model(ir, "MPS"), "MPS")
        assert read.n_cols == ir.n_vars
        assert read.n_rows == len(ir.rows)
        assert read.n_integer == ir.n_binaries
        np.testing.assert_allclose(read.cost, ir.cost, atol=1e-12)

    def test_roundtrip_k1_lp(self, tmp_path):
        params = StorageParams(x_min=-3, x_max=3, y_min=0, y_max=8,
                               eta_c=0.9, eta_d=0.9)
        grid = TimeGrid(dt_hours=1.0, K=1)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        prices = PriceSeries(day_ahead=np.array([50.0]),
                             fcr_availability=np.array([20.0]))
        opts = ModelOptions(variant="exact", fcr_block_len=1, da_block_len=1)
        ir = dispatch_variant(params, grid, budget, 4.0, prices, opts)
        assert len(ir.bilinear_rows) == 0
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

    @pytest.mark.parametrize("variant", [
        "restriction", "relaxation", "no_sell_lp", "exact", "arbitrage_only",
        "lossless_lp"])
    def test_lp_bytes_are_pinned(self, variant):
        params = LOSSLESS if variant == "lossless_lp" else LOSSY
        blob = emit_model(_k4_model(variant, params), "LP")
        assert hashlib.sha256(blob).hexdigest() == LP_SHA256[variant]

    def test_restriction_k96_mps_bytes_are_pinned(self):
        params = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                               eta_c=0.92, eta_d=0.92)
        grid = TimeGrid(dt_hours=0.25, K=96)
        budget = UncertaintyBudget.from_eu_rules(0.25)
        prices = PriceSeries(day_ahead=np.full(24, 40.0),
                             fcr_availability=np.full(6, 15.0))
        opts = ModelOptions(variant="restriction", fcr_block_len=16,
                            da_block_len=4)
        ir = dispatch_variant(params, grid, budget, 53.3, prices, opts)
        blob = emit_model(ir, "MPS")
        assert hashlib.sha256(blob).hexdigest() == K96_RESTRICTION_MPS_SHA256

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

# SHA-256 of emit_model(_k4_model(variant), "LP")
LP_SHA256 = {
    "restriction":
        "afe00c9c26d6bb97e4f9e4dbdf5df4cd5f799b04c08d8444e4536ffcb05bd475",
    "relaxation":
        "17ff7de55be4d9b4f380050553243aaa270bc2ff40a7cef51c636520ce87bc42",
    "no_sell_lp":
        "4638163499960745733ba773bb8986a78b9bc2f81282cfb95479c58f52712b2a",
    "arbitrage_only":
        "3c47a69b9a3710a827ee68d8cda4939969b1222ecc61b3a724f5c5a5243bdfeb",
    "exact":
        "bee00812144a547740987e396a252f645d3f94ef6793c7be66935205697f2dbf",
    "lossless_lp":
        "db43997a316d318dbd5dd576a0747ddffa37daefe34289689c87ed6eabbe8355",
}

# SHA-256 of the quarter-hour restriction MPS (K=96, 4 h FCR and 1 h
# day-ahead blocks) of test_restriction_k96_declares_binaries
K96_RESTRICTION_MPS_SHA256 = (
    "972dde5a8b084dbf0b854260bf87b447f559e3933a1c1786b2c580451426f621")


def _k4_options_model(budget=UncertaintyBudget(kind="total_budget",
                                               gamma=1.0), **options):
    return dispatch_variant(LOSSY, K4, budget, 4.0, K4_PRICES,
                            ModelOptions(**options))


def _k96_model(**options):
    params = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                           eta_c=0.92, eta_d=0.92)
    grid = TimeGrid(dt_hours=0.25, K=96)
    prices = PriceSeries(day_ahead=np.full(24, 40.0),
                         fcr_availability=np.full(6, 15.0))
    opts = ModelOptions(variant="restriction", fcr_block_len=16,
                        da_block_len=4, **options)
    budget = UncertaintyBudget.from_eu_rules(0.25)
    return dispatch_variant(params, grid, budget, 53.3, prices, opts)


def _k96_restriction():
    return _k96_model()


# Builder paths that the variant pins above do not reach: the intraday
# power bounds, limited arbitrage with a terminal floor, day-ahead blocks
# without FCR (the asymmetric market coupling), the split arbitrage LP,
# and the quarter-hour restriction as an LP file. The quarter-hour
# intraday build has recovery windows of 9 intervals, longer than any
# at K=4
PINNED_BUILDS = {
    "intraday": lambda: _k4_options_model(
        UncertaintyBudget.from_eu_rules(1.0), variant="restriction",
        intraday=True, fcr_block_len=4, da_block_len=1),
    "limited-terminal": lambda: _k4_options_model(
        variant="restriction", limited_arbitrage=True,
        terminal_soc_floor=3.0, fcr_block_len=2, da_block_len=1),
    "arbitrage-blocks": lambda: _k4_options_model(
        variant="arbitrage_only", fcr_enabled=False, da_block_len=2),
    "split-lp": lambda: split_arbitrage_lp(
        LOSSY, K4, 4.0, K4_PRICES,
        ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                     da_block_len=2, terminal_soc_floor=3.0)),
    "k96-restriction": _k96_restriction,
    "k96-intraday": lambda: _k96_model(intraday=True),
    "k96-limited": lambda: _k96_model(limited_arbitrage=True),
}

# SHA-256 of emit_model(PINNED_BUILDS[build](), fmt)
PATH_SHA256 = {
    ("intraday", "MPS"):
        "a858742877cbdccf9cb516435bdd3cb18bc9637d2b57f6a587700186a416f45b",
    ("intraday", "LP"):
        "dfc846498a09f95eefccb71f02bba4c5723bd01b612325e1a773616aea5b6559",
    ("limited-terminal", "MPS"):
        "01603e5cedeb9b2db6886f85305e06286061edc5c655d9d341e99c0a6b24b8c7",
    ("limited-terminal", "LP"):
        "4136337d6ebff025ec3a4872205d6d5101606528f53d67453c48cb4c52b2f229",
    ("arbitrage-blocks", "MPS"):
        "e6c83dfa40842e2e89eb2f831642551e4e1d764c5a61004ce93165247f157977",
    ("arbitrage-blocks", "LP"):
        "2bcff417d1632e01528a5a799f54ef01a2dc4fa033d7980b6aafabc3c24bbacb",
    ("split-lp", "MPS"):
        "61e434b125bbadcac34e80e3ba14b7fd14efee9b16349ddd91635c0c71bfdbe1",
    ("split-lp", "LP"):
        "6696015c17dbb4b3ff94a6a02bb7633c4527ab57a05e4a761fa0cee548d13a2f",
    ("k96-restriction", "LP"):
        "3830b7ce130e5691fad945a87498036be0f910d0f7635ac425b5940f573015cc",
    ("k96-intraday", "MPS"):
        "573e13f44510be49e2e4358b9be9d1878b241c93419bca7e8c80e8da3ba2dde4",
    ("k96-limited", "MPS"):
        "cdd113d37c69fb301b75b0c8ad713bb563ee1e60a142e9ad9eb097659e9a4f8e",
}


@pytest.mark.parametrize("build, fmt", sorted(PATH_SHA256))
def test_other_build_paths_are_pinned(build, fmt):
    blob = emit_model(PINNED_BUILDS[build](), fmt)
    assert hashlib.sha256(blob).hexdigest() == PATH_SHA256[build, fmt]


def _small_builds():
    """Every variant at K = 1..12 hourly intervals, for a lossy and a
    lossless battery (``lossless_lp`` only for the lossless one), at
    every FCR block length that divides K, as a plain, a limited
    arbitrage and (K >= 2) an intraday build with a rolling window of
    1 h in 2 h; ``arbitrage_only`` has no FCR and so one plain build."""
    plain = UncertaintyBudget(kind="total_budget", gamma=1.0)
    window = UncertaintyBudget(kind="rolling_window", gamma_prime=1.0,
                               Gamma_prime=2.0)
    for K in range(1, 13):
        grid = TimeGrid(dt_hours=1.0, K=K)
        k = np.arange(K)
        prices = PriceSeries(day_ahead=(37.0 * k) % 90 - 10,
                             fcr_availability=15.0 + 5 * k[:(K + 3) // 4])
        blocks = [b for b in range(1, K + 1) if K % b == 0]
        modes = [(plain, {}), (plain, {"limited_arbitrage": True})]
        if K >= 2:
            modes.append((window, {"intraday": True}))
        for params in (LOSSY, LOSSLESS):
            for variant in ModelOptions.VARIANTS:
                if variant == "lossless_lp" and not params.is_lossless:
                    continue
                if variant == "arbitrage_only":
                    yield dispatch_variant(params, grid, plain, 4.0, prices,
                                           ModelOptions(variant=variant,
                                                        fcr_enabled=False,
                                                        da_block_len=1))
                    continue
                for block in blocks:
                    for budget, mode in modes:
                        yield dispatch_variant(
                            params, grid, budget, 4.0, prices,
                            ModelOptions(variant=variant, fcr_block_len=block,
                                         da_block_len=1, **mode))


def _row_bytes(rows) -> bytes:
    if rows is None:
        return b"none"
    return b"".join(a.tobytes() for a in rows)


# SHA-256 over _small_builds() of each model's MPS and LP bytes, its cuts
# and its indicator rules, in build order
SMALL_BUILDS_SHA256 = (
    "f98e5854ac7980fc08fa8f6514661b75a830e7a93f8861944090356f9c06f942")


def test_model_bytes_across_K_are_pinned():
    digest = hashlib.sha256()
    for ir in _small_builds():
        rules = ir.indicators
        for blob in (emit_model(ir, "MPS"), emit_model(ir, "LP"),
                     _row_bytes(ir.cuts),
                     b"none" if rules is None else rules.binary.tobytes(),
                     _row_bytes(None if rules is None else rules.rows)):
            digest.update(len(blob).to_bytes(8, "little") + blob)
    assert digest.hexdigest() == SMALL_BUILDS_SHA256


def test_quarter_hour_build_leaves_no_object_per_row():
    # the model keeps its columns and rows in arrays and flat lists; one
    # Python object per row and coefficient would leave about 235 000
    # objects for the collector here
    _k96_restriction()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        ir = _k96_restriction()
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert (ir.n_vars, ir.n_rows, ir.nnz) == (10365, 33996, 155778)
    assert grown <= 300


class TestVerifyPoint:
    @pytest.mark.parametrize("variant", ModelOptions.VARIANTS)
    def test_residuals_match_the_row_formula(self, variant):
        # the linear rows' residuals come from one sparse product; the
        # reference takes each bound and row on its own
        ir = _k4_model(variant,
                       LOSSLESS if variant == "lossless_lp" else LOSSY)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-10.0, 10.0, size=ir.n_vars)
            ref = [(f"bound:{name}", min(xi - lo, hi - xi))
                   for name, lo, hi, xi in zip(ir.var_names, ir.lower,
                                               ir.upper, x)]
            ref = [r for r in ref if np.isfinite(r[1])]
            ref += [(row.name, residual(row, x)) for row in ir.rows]
            ref += [(row.name, residual(row, x))
                    for row in ir.bilinear_rows]
            got = verify_point(ir, dict(zip(ir.var_names, x))).checks
            assert [c.name for c in got] == [name for name, _ in ref]
            np.testing.assert_allclose([c.slack for c in got],
                                       [r for _, r in ref],
                                       rtol=0, atol=1e-12)

    def test_zero_point_zero_model(self):
        ir = ModelIR()
        ir.add_variable("x", lower=0.0, upper=1.0)
        ir.add_row("r", [(0, 1.0)], "<=", 0.0)
        rep = verify_point(ir, {"x": 0.0})
        assert rep.feasible
        assert all(c.slack >= 0 for c in rep.checks)

    def test_no_bound_and_no_row_is_feasible(self):
        ir = ModelIR()
        ir.add_variable("x")
        rep = verify_point(ir, {"x": 5.0})
        assert rep.checks == []
        assert rep.feasible
        assert rep.worst_violation == 0.0

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
        assert res.ok
        # the exact model has the restriction's columns less the u3 block
        exact = dispatch_variant(params, grid, budget, 4.0, prices,
                                 replace(opts, variant="exact"))
        assert len(exact.bilinear_rows) == 6
        rep = verify_point(exact, {name: res.point[name]
                                   for name in exact.registry})
        assert not rep.violations()
        assert rep.feasible

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
        assert verify_point(ir, res.point).feasible
        exact = dispatch_variant(params, grid, budget, 1.916, prices,
                                 replace(opts, variant="exact"))
        rep = verify_point(exact, res.point)
        # the exact model adds only bilinear rows, and only they fail
        assert rep.violations()
        assert all(c.name.startswith("bil[") for c in rep.violations())
        assert not rep.feasible


def _binaries(ir):
    return set(np.flatnonzero(ir.binary).tolist())


def _restriction(K):
    """A restriction at K = 4 (hourly) or K = 96 (quarter-hourly)."""
    if K == 4:
        opts = ModelOptions(variant="restriction", fcr_block_len=4,
                            da_block_len=1)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        return LOSSY, dispatch_variant(LOSSY, K4, budget, 4.0, K4_PRICES,
                                       opts)
    params = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                           eta_c=0.92, eta_d=0.92)
    grid = TimeGrid(dt_hours=0.25, K=96)
    budget = UncertaintyBudget.from_eu_rules(0.25)
    prices = PriceSeries(day_ahead=np.full(24, 40.0),
                         fcr_availability=np.full(6, 15.0))
    opts = ModelOptions(variant="restriction", fcr_block_len=16,
                        da_block_len=4)
    return params, dispatch_variant(params, grid, budget, 53.3, prices, opts)


class TestIndicators:
    def _build(self, variant, fcr=True):
        opts = ModelOptions(variant=variant, fcr_enabled=fcr,
                            fcr_block_len=4 if fcr else None,
                            da_block_len=1)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        return dispatch_variant(LOSSY, K4, budget, 4.0, K4_PRICES, opts)

    def test_restriction_rule_for_every_binary(self):
        ir = self._build("restriction")
        rules = ir.indicators
        assert set(rules.binary.tolist()) == _binaries(ir)
        assert [ir.var_names[i] for i in rules.binary] == [
            f"{u}[{k}]" for k in range(1, K4.K) for u in ("u1", "u2", "u3")]
        assert rules.binary.size == rules.rows.rhs.size == 3 * (K4.K - 1)
        assert (rules.rows.sense == GE).all() and (rules.rows.rhs == 0).all()

    @pytest.mark.parametrize("variant,fcr", [("relaxation", True),
                                             ("no_sell_lp", True),
                                             ("arbitrage_only", False),
                                             ("exact", True)])
    def test_other_variants_carry_none(self, variant, fcr):
        assert self._build(variant, fcr).indicators is None
        assert self._build(variant, fcr).cuts is None

    @pytest.mark.parametrize("variant", ModelOptions.VARIANTS)
    def test_lossless_builds_carry_no_cuts(self, variant):
        fcr = variant != "arbitrage_only"
        opts = ModelOptions(variant=variant, fcr_enabled=fcr,
                            fcr_block_len=4 if fcr else None, da_block_len=1)
        budget = UncertaintyBudget(kind="total_budget", gamma=1.0)
        ir = dispatch_variant(LOSSLESS, K4, budget, 4.0, K4_PRICES, opts)
        assert ir.indicators is None and ir.cuts is None

    @pytest.mark.parametrize("limited,intraday", [
        (False, False), (True, False), (False, True), (True, True)],
        ids=["joint", "limited", "intraday", "limited-intraday"])
    def test_restriction_carries_its_case_cuts(self, limited, intraday):
        budget = (UncertaintyBudget.from_eu_rules(1.0) if intraday
                  else UncertaintyBudget(kind="total_budget", gamma=1.0))
        opts = ModelOptions(variant="restriction", fcr_block_len=4,
                            da_block_len=1, limited_arbitrage=limited,
                            intraday=intraday)
        ir = dispatch_variant(LOSSY, K4, budget, 4.0, K4_PRICES, opts)
        want = case_cuts(ir, LOSSY, K4)
        assert len(ir.cuts.rhs) == K4.K * (K4.K - 1)
        for got, ref in zip(ir.cuts, want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("K", [4, 96])
    def test_rules_are_the_documented_sign_rules(self, K):
        # u1 = [x0 >= x_dn], u2 = [x0 <= 0] and
        # u3 = [x_dn - (1 - eta_c eta_d) x0 - eta_d lamu >= 0], checked at
        # seeded random points that also hold each rule's tie
        params, ir = _restriction(K)
        rt, ed = params.eta_c * params.eta_d, params.eta_d
        k = np.arange(1, K)
        x0, xdn, lam = ([ir.var(f"{name}[{i}]") for i in k]
                        for name in ("x0", "x_dn", "lamu"))
        rng = np.random.default_rng(K)
        seen = set()
        for _ in range(20):
            x = rng.uniform(-60.0, 60.0, ir.n_vars)
            x[xdn] = np.abs(x[xdn])
            tie = rng.integers(0, 3, k.size)
            x[x0] = np.where(tie == 1, x[xdn], np.where(tie == 2, 0.0, x[x0]))
            # with x0 = 0, also the u3 tie on half of those intervals
            at_zero = (tie == 2) & (rng.random(k.size) < 0.5)
            x[np.array(xdn)[at_zero]] = ed * x[np.array(lam)[at_zero]]
            want = np.column_stack([
                x[x0] >= x[xdn], x[x0] <= 0.0,
                x[xdn] - (1.0 - rt) * x[x0] - ed * x[lam] >= 0.0]).ravel()
            # each rule's value as ``solve`` computes it
            got = _row_matrix(ir.indicators.rows, ir.n_vars) @ x >= 0.0
            assert np.array_equal(got, want)
            # the ties set their binary to 1
            assert got[0::3][tie == 1].all() and got[1::3][tie == 2].all()
            assert got[2::3][at_zero].all()
            seen.update(zip(np.tile([1, 2, 3], k.size).tolist(),
                            got.tolist()))
        assert seen == {(u, v) for u in (1, 2, 3) for v in (False, True)}

    def test_rule_on_non_binary_rejected(self):
        ir = tiny_lp()
        with pytest.raises(ModelError,
                           match="indicator for non-binary variable 0"):
            ir.add_indicators([0], [0, 1], [0], [1.0])
        with pytest.raises(ModelError,
                           match="indicator for non-binary variable 1"):
            ir.add_indicators([1], [0, 1], [0], [1.0])
        assert ir.indicators is None

    def test_rule_on_unknown_column_rejected(self):
        ir = tiny_lp()
        u = ir.add_variable("u", kind=BINARY, lower=0.0, upper=1.0)
        with pytest.raises(ModelError, match="'indicator 1' references "
                                             "unknown variable 5"):
            ir.add_indicators([u], [0, 2], [0, 5], [1.0, 1.0])
        assert ir.indicators is None

    def test_second_rule_for_a_binary_rejected(self):
        ir = tiny_lp()
        u, v = (ir.add_variable(name, kind=BINARY, lower=0.0, upper=1.0)
                for name in ("u", "v"))
        with pytest.raises(ModelError,
                           match="second indicator for variable 1"):
            ir.add_indicators([u, v, u], [0, 1, 2, 3], [0, 0, 0],
                              [1.0, 1.0, -1.0])
        assert ir.indicators is None
        ir.add_indicators([u], [0, 1], [0], [1.0])
        with pytest.raises(ModelError,
                           match="second indicator for variable 1"):
            ir.add_indicators([v, u], [0, 1, 2], [0, 0], [1.0, -1.0])
        # the first rule stands, unchanged
        assert ir.indicators.binary.tolist() == [u]
        assert ir.indicators.rows.val.tolist() == [1.0]

    def test_k96_model_files_ignore_rules(self):
        _, ir = _restriction(96)
        assert ir.indicators.binary.size == 3 * 95
        mps, lp = emit_model(ir, "MPS"), emit_model(ir, "LP")
        cleared = replace(ir, indicators=None)
        assert emit_model(cleared, "MPS") == mps
        assert emit_model(cleared, "LP") == lp
        assert ir.indicators.binary.size == 3 * 95
        assert len(ir.cuts.rhs) == 96 * 95
        bare = replace(ir, indicators=None, cuts=None)
        assert emit_model(bare, "MPS") == mps
        assert emit_model(bare, "LP") == lp


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
        assert res.path == "start+bound"
        assert res.gap <= 0.1
        assert res.objective <= res.start_objective + 1e-9
        x0 = np.array([res.point[f"x0[{k}]"] for k in range(1, 25)])
        xr = np.array([res.point[f"xr[{k}]"] for k in range(1, 25)])
        bids = BidSchedule(x0=x0, x_up=xr, x_dn=xr.copy())
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
        ir.cost[x] = -1.0
        ir.add_indicators([u], [0, 1], [x], [-1.0])
        return ir

    def test_infeasible_start_falls_back_to_cold_milp(self):
        ir = self._forced_binary()
        res = solve(ir)
        ref = solve(replace(self._forced_binary(), indicators=None))
        assert res.path == "milp" and np.isnan(res.start_objective)
        assert res.status == ref.status == "optimal"
        assert res.objective == ref.objective == pytest.approx(-1.0)
        assert res.point == ref.point

    def test_rule_of_a_fixed_binary_is_ignored(self):
        # u1[1] is no longer binary, but every binary left has a rule
        _, ir = _restriction(4)
        ir.fix_variable("u1[1]", 1.0)
        assert ir.indicators.binary.size == 3 * (K4.K - 1)
        res = solve(ir)
        assert res.path == "start+bound" and res.status == "optimal"
        assert res.point["u1[1]"] == 1.0

    def test_rules_without_cuts_stop_at_the_lp_bound(self):
        # min -x with x <= u: the plain LP optimum x = u = 1 sets
        # u = [x >= 0] = 1, and the fixed LP attains the LP bound
        ir = ModelIR()
        x = ir.add_variable("x", lower=0.0, upper=1.0)
        u = ir.add_variable("u", kind=BINARY, lower=0.0, upper=1.0)
        ir.add_row("link", [(x, 1.0), (u, -1.0)], "<=", 0.0)
        ir.cost[x] = -1.0
        ir.add_indicators([u], [0, 1], [x], [1.0])
        assert ir.cuts is None
        res = solve(ir)
        assert (res.status, res.path) == ("optimal", "start+bound")
        assert res.objective == res.bound == res.start_objective == -1.0
        assert res.point == {"x": 1.0, "u": 1.0}

    def test_models_without_rules_take_the_plain_path(self):
        assert solve(tiny_lp()).path == "milp"


class TestExactBilinearContract:
    def _toy(self):
        # min -x - y on the unit box with x*y <= 1/4; the relaxation
        # drops the product row, so its optimum sits at (1, 1)
        ir = ModelIR()
        x = ir.add_variable("x", lower=0.0, upper=1.0)
        y = ir.add_variable("y", lower=0.0, upper=1.0)
        ir.cost[x] = -1.0
        ir.cost[y] = -1.0
        ir.add_bilinear("prod", quad=[(x, y, -1.0)], linear=[],
                        sense=">=", rhs=-0.25)
        return ir

    @staticmethod
    def _off_corner(point):
        return point["y"] <= 1.0 - 5e-10

    def test_certified_point_is_the_relaxation_optimum(self):
        res = solve_exact_bilinear(self._toy(), lambda point: True)
        relaxed = self._toy()
        relaxed.bilinear_rows.clear()
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
        assert len(ir.bilinear_rows) == 1

    def test_uncertified_toy_is_rejected_at_once(self):
        # min -x - y, x*y <= 0.3, x + y <= 1.5: the relaxation optimum
        # lies on x + y = 1.5, where x*y >= 0.5
        ir = ModelIR()
        x = ir.add_variable("x", lower=0.0, upper=1.0)
        y = ir.add_variable("y", lower=0.0, upper=1.0)
        ir.cost[x] = -1.0
        ir.cost[y] = -1.0
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
