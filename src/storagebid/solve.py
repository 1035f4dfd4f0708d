"""Solve contract: LP and MILP solves with the HiGHS solver bundled with
scipy, solution verification, and the exact bilinear optimum when the
model's relaxation attains it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
# Not called: the benchmark's tracer wraps ``storagebid.solve.milp`` by name.
from scipy.optimize import milp  # noqa: F401
# milp's own HiGHS binding; it exposes setSolution, which milp does not.
from scipy.optimize._highspy import _core as _highs

from .ir import BINARY, ModelError, ModelIR, residual

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

    @property
    def path(self) -> str:
        """How the point was found: ``milp``, or ``start+milp`` when the
        search began from a relax-and-fix start point."""
        return "start+milp" if np.isfinite(self.start_objective) else "milp"

    @property
    def gap(self) -> float:
        if not (np.isfinite(self.objective) and np.isfinite(self.bound)):
            return np.inf
        return abs(self.objective - self.bound) / max(1e-10, abs(self.objective))

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE_LIMIT)


def _constraint_matrix(ir: ModelIR):
    """Rows as a CSC matrix with row bounds, built as ``milp`` builds it."""
    rows = ir.rows
    data, ri, ci = [], [], []
    lo = np.empty(len(rows))
    hi = np.empty(len(rows))
    for r, row in enumerate(rows):
        for i, c in row.coeffs:
            ri.append(r)
            ci.append(i)
            data.append(c)
        if row.sense == "<=":
            lo[r], hi[r] = -np.inf, row.rhs
        elif row.sense == ">=":
            lo[r], hi[r] = row.rhs, np.inf
        else:
            lo[r] = hi[r] = row.rhs
    a = sparse.csc_array(
        sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), ir.n_vars)))
    return a, lo, hi


def _highs_lp(ir: ModelIR):
    """The model as a HiGHS LP, without integrality."""
    a, row_lo, row_hi = _constraint_matrix(ir)
    col_lo, col_hi = ir.bounds_arrays()
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = ir.n_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = len(ir.rows)
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data.astype(np.float64)
    lp.col_cost_ = ir.objective_vector()
    lp.col_lower_ = col_lo
    lp.col_upper_ = col_hi
    lp.row_lower_ = row_lo
    lp.row_upper_ = row_hi
    return lp


def _highs_run(lp, options: dict, start: np.ndarray | None = None):
    """Load ``lp`` into a fresh HiGHS object, offer ``start`` as a MIP
    incumbent and run."""
    highs = _highs._Highs()
    for key, value in options.items():
        highs.setOptionValue(key, value)
    highs.passModel(lp)
    if start is not None:
        highs.setSolution(len(start), np.arange(len(start), dtype=np.int32),
                          start)
    highs.run()
    return highs


def _optimal_point(highs) -> np.ndarray | None:
    if highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
        return None
    return np.array(highs.getSolution().col_value)


def _relax_and_fix(ir: ModelIR, lp, binaries: np.ndarray,
                   options: dict) -> np.ndarray | None:
    """Solve the LP relaxation, set every binary from its indicator rule
    at the LP point and re-solve with the binaries fixed. Returns the
    fixed LP's optimum, or None when either LP is not solved to
    optimality."""
    highs = _highs_run(lp, options)
    x = _optimal_point(highs)
    if x is None:
        return None
    fixed = np.array([float(sum(c * x[j] for j, c in ir.indicators[i]) >= 0.0)
                      for i in binaries])
    highs.changeColsBounds(len(binaries), binaries, fixed, fixed)
    highs.run()
    return _optimal_point(highs)


_STATUS = {_highs.HighsModelStatus.kOptimal: OPTIMAL,
           _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           _highs.HighsModelStatus.kModelError: INFEASIBLE,
           _highs.HighsModelStatus.kUnbounded: UNBOUNDED}
_LIMITS = (_highs.HighsModelStatus.kTimeLimit,
           _highs.HighsModelStatus.kIterationLimit)


def solve(ir: ModelIR, time_limit: float | None = None,
          gap_target: float | None = None) -> SolveResult:
    """Solve a model with no active bilinear rows (LP or MILP) with
    scipy's bundled HiGHS. A model whose every binary has an indicator
    rule gets a relax-and-fix start point as its first MIP incumbent;
    HiGHS then improves on it up to ``gap_target``."""
    ir.validate()
    if ir.n_bilinear_active > 0:
        raise ModelError(
            "model has active bilinear rows; use solve_exact_bilinear")
    integrality = np.array(
        [1 if v.kind == BINARY else 0 for v in ir.variables], dtype=np.uint8)
    binaries = np.flatnonzero(integrality).astype(np.int32)
    is_mip = binaries.size > 0
    options = {"log_to_console": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if gap_target is not None:
        options["mip_rel_gap"] = float(gap_target)
    lp = _highs_lp(ir)
    t0 = time.perf_counter()
    start = None
    if is_mip and all(int(i) in ir.indicators for i in binaries):
        start = _relax_and_fix(ir, lp, binaries, options)
        if time_limit is not None:
            options["time_limit"] = max(
                0.0, float(time_limit) - (time.perf_counter() - t0))
    lp.integrality_ = [_highs.HighsVarType(i) for i in integrality]
    highs = _highs_run(lp, options, start)
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
        point = {v.name: float(xi) for v, xi in zip(ir.variables, x)}
        objective = float(info.objective_function_value)
        bound = float(info.mip_dual_bound) if is_mip else objective
    else:
        message = (f"model_status is {message}; primal_status is "
                   f"{highs.solutionStatusToString(info.primal_solution_status)}")
    start_objective = np.nan
    if start is not None:
        start_objective = float(ir.objective_vector() @ start)
    return SolveResult(status=status, objective=objective, bound=bound,
                       point=point, solve_time=elapsed, message=message,
                       start_objective=start_objective)


@dataclass(frozen=True)
class RowResidual:
    name: str
    residual: float
    bilinear: bool
    active: bool


@dataclass(frozen=True)
class VerificationReport:
    residuals: list[RowResidual]
    tol: float

    @property
    def violations(self) -> list[RowResidual]:
        return [r for r in self.residuals if r.residual < -self.tol]

    @property
    def active_violations(self) -> list[RowResidual]:
        return [r for r in self.violations if r.active]

    @property
    def bilinear_violations(self) -> int:
        return sum(1 for r in self.violations if r.bilinear)

    @property
    def feasible(self) -> bool:
        return not self.active_violations


def verify_point(ir: ModelIR, point: dict[str, float]) -> VerificationReport:
    """Residuals of every row (including inactive bilinear rows) and
    variable bounds at a candidate point."""
    x = ir.point_from_map(point)
    out = []
    for v, xi in zip(ir.variables, x):
        slack = min(xi - v.lower, v.upper - xi)
        if np.isfinite(slack):
            out.append(RowResidual(name=f"bound:{v.name}",
                                   residual=float(slack), bilinear=False,
                                   active=True))
    for row in ir.rows:
        out.append(RowResidual(name=row.name, residual=residual(row, x),
                               bilinear=False, active=True))
    for row in ir.bilinear_rows:
        out.append(RowResidual(name=row.name, residual=residual(row, x),
                               bilinear=True, active=row.active))
    return VerificationReport(residuals=out, tol=1e-6)


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
    relaxed = replace(ir, bilinear_rows=[replace(row, active=False)
                                         for row in ir.bilinear_rows])
    res = solve(relaxed, time_limit=time_limit, gap_target=1e-9)
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
