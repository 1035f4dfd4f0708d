"""Solve contract: LP and MILP solves with the HiGHS solver bundled with
scipy, solution verification, and the exact bilinear optimum when the
model's relaxation attains it.

A MILP whose binaries all have indicator rules starts from a
relax-and-fix point. ``solve`` accepts that point from the bound of the
LP relaxation, strengthened by the model's cuts, when it is close
enough; otherwise HiGHS's branch and bound starts from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy
from scipy import sparse

# Not called: the benchmark's tracer wraps ``storagebid.solve.milp`` by name.
from scipy.optimize import milp  # noqa: F401

try:
    # milp's own HiGHS binding; it exposes setSolution, which milp does
    # not. It is private to scipy, so a scipy release may move it.
    from scipy.optimize._highspy import _core as _highs
except ImportError as e:
    raise ImportError(
        "storagebid needs scipy's private HiGHS binding "
        f"scipy.optimize._highspy._core, which scipy {scipy.__version__} "
        f"failed to import: {e}") from e

from .ir import GE, LE, ModelError, ModelIR, RowArrays, residual
from .soc import FeasibilityReport

OPTIMAL = "optimal"
FEASIBLE_LIMIT = "feasible_limit"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ERROR = "error"


@dataclass(frozen=True)
class SolveResult:
    status: str
    objective: float = np.nan
    bound: float = np.nan
    point: dict[str, float] = field(default_factory=dict)
    solve_time: float = 0.0
    message: str = ""
    # objective of the start point offered to the MIP search; nan if none
    start_objective: float = np.nan
    # how the point was found: ``milp``; ``start+milp`` when the search
    # began from a relax-and-fix start point; ``start+bound`` for that
    # start, fixed from the point of the LP plus the model's cuts (if any),
    # accepted at that LP's optimum with no branch and bound. A backtest
    # record names the one solve of an arbitrage-only day ``split-lp``.
    path: str = "milp"

    @property
    def gap(self) -> float:
        if not (np.isfinite(self.objective) and np.isfinite(self.bound)):
            return np.inf
        return abs(self.objective - self.bound) / max(1e-10, abs(self.objective))

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE_LIMIT)


def _row_matrix(rows: RowArrays, n_vars: int) -> sparse.csr_array:
    """Rows as a CSR matrix of its own (32-bit indices, as HiGHS takes
    them), repeated columns of a row kept."""
    return sparse.csr_array((rows.val, rows.col, rows.ptr), copy=True,
                            shape=(rows.rhs.size, n_vars))


def _row_bounds(rows: RowArrays):
    """Lower and upper bounds of each row's linear form."""
    return (np.where(rows.sense == LE, -np.inf, rows.rhs),
            np.where(rows.sense == GE, np.inf, rows.rhs))


def _constraint_matrix(ir: ModelIR):
    """Rows as a CSC matrix with row bounds. Duplicate entries of a row
    are summed: HiGHS ``passModel`` returns ``kError`` for a column-wise
    matrix with a repeated entry."""
    a = _row_matrix(ir.row_arrays(), ir.n_vars)
    a.sum_duplicates()
    return (a.tocsc(), *_row_bounds(ir.row_arrays()))


def _highs_run(ir: ModelIR, matrix, options: dict,
               start: np.ndarray | None = None,
               cuts: RowArrays | None = None, integral: bool = False):
    """Load ``ir``, with ``matrix = _constraint_matrix(ir)``, into a fresh
    HiGHS object in one array call, integral binaries if ``integral``
    (else an LP: HiGHS refuses an empty integrality, so it gets zeros),
    add the rows ``cuts``, offer ``start`` as a MIP incumbent and run."""
    a, row_lo, row_hi = matrix
    highs = _highs._Highs()
    for key, value in options.items():
        highs.setOptionValue(key, value)
    highs.passModel(ir.n_vars, ir.n_rows, a.nnz, _highs.MatrixFormat.kColwise,
                    _highs.ObjSense.kMinimize, 0.0, ir.cost, ir.lower,
                    ir.upper, row_lo, row_hi, a.indptr[:-1], a.indices,
                    a.data, (ir.binary & integral).astype(np.int32))
    if cuts is not None:
        highs.addRows(len(cuts.rhs), *_row_bounds(cuts), len(cuts.val),
                      cuts.ptr[:-1], cuts.col, cuts.val)
    if start is not None:
        highs.setSolution(len(start), np.arange(len(start), dtype=np.int32),
                          start)
    highs.run()
    return highs


def _optimal_point(highs) -> np.ndarray | None:
    if highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
        return None
    return np.array(highs.getSolution().col_value)


def _relax_and_fix(ir: ModelIR, matrix, binaries: np.ndarray, options: dict):
    """Solve the LP relaxation, with the model's cuts added as rows, set
    every binary from its indicator rule at the LP point (one sparse
    product) and re-solve warm in the same HiGHS object with the binaries
    fixed. Cuts valid at every point with integral binaries cut no point
    of the fixed LP, so they stay in it. Returns the HiGHS object, the
    first LP's optimal value (nan unless it is optimal) and the fixed
    LP's optimum (None unless both LPs are optimal)."""
    highs = _highs_run(ir, matrix, options, cuts=ir.cuts)
    x = _optimal_point(highs)
    if x is None:
        return highs, np.nan, None
    bound = float(highs.getInfo().objective_function_value)
    rules, on = ir.indicators, np.zeros(ir.n_vars)
    on[rules.binary] = _row_matrix(rules.rows, ir.n_vars) @ x >= 0.0
    fixed = on[binaries]
    highs.changeColsBounds(len(binaries), binaries, fixed, fixed)
    highs.run()
    return highs, bound, _optimal_point(highs)


_STATUS = {_highs.HighsModelStatus.kOptimal: OPTIMAL,
           _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           _highs.HighsModelStatus.kModelError: INFEASIBLE,
           _highs.HighsModelStatus.kUnbounded: UNBOUNDED}
_LIMITS = (_highs.HighsModelStatus.kTimeLimit,
           _highs.HighsModelStatus.kIterationLimit)


def solve(ir: ModelIR, time_limit: float | None = None,
          gap_target: float | None = None) -> SolveResult:
    """Solve a model without bilinear rows (LP or MILP) with scipy's
    bundled HiGHS. A model whose every binary has an indicator rule gets
    a relax-and-fix start point.

    The start comes from the LP relaxation plus the model's cuts, if it
    has any: its optimum is a bound, its point sets the binaries, and
    the fixed LP is solved warm with the cuts kept. When that LP is
    optimal and the start is within ``gap_target`` of its bound (HiGHS's
    default ``mip_rel_gap`` when unset), the start is returned as
    ``optimal`` with that bound, path ``start+bound``, and no branch and
    bound runs. Otherwise the start is the MILP's first incumbent, and
    HiGHS improves on it up to ``gap_target`` in the time left of
    ``time_limit``; the MILP gets no cut rows."""
    ir.validate()
    if ir.bilinear_rows:
        raise ModelError("model has bilinear rows; use solve_exact_bilinear")
    binaries = np.flatnonzero(ir.binary).astype(np.int32)
    is_mip = binaries.size > 0
    options = {"log_to_console": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if gap_target is not None:
        options["mip_rel_gap"] = float(gap_target)
    matrix = _constraint_matrix(ir)
    t0 = time.perf_counter()

    def time_left():
        if time_limit is None:
            return None
        return max(0.0, float(time_limit) - (time.perf_counter() - t0))

    start, start_objective, path = None, np.nan, "milp"
    rules = ir.indicators
    if is_mip and rules is not None and np.isin(binaries, rules.binary).all():
        highs, bound, start = _relax_and_fix(ir, matrix, binaries, options)
        if start is not None:
            start_objective = float(ir.cost @ start)
            path = "start+milp"
        left = time_left()
        if start is not None and left != 0.0:
            res = SolveResult(
                status=OPTIMAL, objective=start_objective, bound=bound,
                point=dict(zip(ir.var_names, start.tolist())),
                message="start within the gap target of the LP bound",
                start_objective=start_objective, path="start+bound")
            # the MILP's own target: gap_target, or HiGHS's default
            if res.gap <= highs.getOptionValue("mip_rel_gap")[1]:
                return replace(res, solve_time=time.perf_counter() - t0)
        if left is not None:
            options["time_limit"] = left
    highs = _highs_run(ir, matrix, options, start, integral=True)
    elapsed = time.perf_counter() - t0

    model_status = highs.getModelStatus()
    info = highs.getInfo()
    status = _STATUS.get(model_status, ERROR)
    if (is_mip and model_status in _LIMITS
            and info.objective_function_value != _highs.kHighsInf):
        status = FEASIBLE_LIMIT
    message = highs.modelStatusToString(model_status)
    point = {}
    objective = np.nan
    bound = np.nan
    if status in (OPTIMAL, FEASIBLE_LIMIT):
        x = highs.getSolution().col_value
        point = dict(zip(ir.var_names, map(float, x)))
        objective = float(info.objective_function_value)
        bound = float(info.mip_dual_bound) if is_mip else objective
    else:
        message = (f"model_status is {message}; primal_status is "
                   f"{highs.solutionStatusToString(info.primal_solution_status)}")
    return SolveResult(status=status, objective=objective, bound=bound,
                       point=point, solve_time=elapsed, message=message,
                       start_objective=start_objective, path=path)


def verify_point(ir: ModelIR, point: dict[str, float]) -> FeasibilityReport:
    """Slacks, with tolerance 1e-6, of every finite variable bound
    (``bound:<name>``), every row and every bilinear row at a candidate
    point."""
    x = ir.point_from_map(point)
    bound = np.minimum(x - ir.lower, ir.upper - x)
    finite = np.isfinite(bound)
    rows = ir.row_arrays()
    lhs = _row_matrix(rows, ir.n_vars) @ x
    slack = np.where(rows.sense == LE, rows.rhs - lhs,
                     np.where(rows.sense == GE, lhs - rows.rhs,
                              -np.abs(lhs - rows.rhs)))
    names = [f"bound:{name}"
             for name, f in zip(ir.var_names, finite.tolist()) if f]
    names += ir.row_names
    names += [row.name for row in ir.bilinear_rows]
    return FeasibilityReport(names, np.concatenate(
        [bound[finite], slack, [residual(row, x) for row in ir.bilinear_rows]]),
        tol=1e-6)


# ---------------------------------------------------------------------------
# Exact optimum of the bilinear model, when its relaxation proves it.
# ---------------------------------------------------------------------------

def solve_exact_bilinear(ir: ModelIR, is_feasible,
                         time_limit: float | None = None) -> SolveResult:
    """Optimum of a model whose only nonconvexity is its bilinear rows,
    found as the optimum of the relaxation that drops them.

    The relaxation bounds the exact model from below, so a relaxation
    optimum that the caller's oracle ``is_feasible(point)`` certifies is
    the exact optimum: status ``optimal``, bound equal to the objective.
    An infeasible relaxation means an infeasible exact model. A point
    the oracle rejects leaves the exact model undecided: status
    ``error``, with the relaxation's bound. Other failures of the
    relaxation solve come back as they are. ``ir`` is not changed.
    """
    ir.validate()
    res = solve(replace(ir, bilinear_rows=[]), time_limit=time_limit,
                gap_target=1e-9)
    if not res.ok:
        return res
    if not is_feasible(res.point):
        return SolveResult(status=ERROR, bound=res.bound,
                           solve_time=res.solve_time,
                           message="relaxation point failed the feasibility "
                                   "oracle; the exact model is undecided")
    if res.status == OPTIMAL:
        res = replace(res, bound=res.objective)
    return replace(res, message="relaxation point certified by the "
                                "feasibility oracle")
