"""Solve contract: in-process MILP backend, optional external backend,
solution verification, and exact bilinear ground truth for small models.

The default backend is the HiGHS solver bundled with scipy. An external
solver can be plugged in through the ``STORAGEBID_SOLVER`` environment
variable: the executable is invoked as ``solver model.mps solution.txt``
and must write 'name value' lines (see mpsio.parse_solution).
"""

from __future__ import annotations

import copy
import os
import subprocess
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
# Not called: the benchmark's tracer wraps ``storagebid.solve.milp`` by name.
from scipy.optimize import milp  # noqa: F401
# milp's own HiGHS binding; it exposes setSolution, which milp does not.
from scipy.optimize._highspy import _core as _highs
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from .ir import BINARY, ModelError, ModelIR, residual
from .mpsio import emit_model, parse_solution
from .types import DomainError

BACKEND_ENV = "STORAGEBID_SOLVER"

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
    bilinear_violations: int = 0
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


_SCIPY_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def _solve_scipy(ir: ModelIR, time_limit, gap_target) -> SolveResult:
    """Solve with scipy's bundled HiGHS. A model whose every binary has
    an indicator rule gets a relax-and-fix start point as its first MIP
    incumbent; HiGHS then improves on it up to ``gap_target``."""
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
    limits = (_highs.HighsModelStatus.kTimeLimit,
              _highs.HighsModelStatus.kIterationLimit,
              _highs.HighsModelStatus.kSolutionLimit)
    if is_mip:
        has_point = (model_status == _highs.HighsModelStatus.kOptimal
                     or (model_status in limits
                         and info.objective_function_value != _highs.kHighsInf))
    else:
        has_point = model_status == _highs.HighsModelStatus.kOptimal
    detail = highs.modelStatusToString(model_status)
    if not has_point:
        detail = (f"model_status is {detail}; primal_status is "
                  f"{highs.solutionStatusToString(info.primal_solution_status)}")
    code, message = _highs_to_scipy_status_message(model_status, detail)
    if code == 1 and has_point:
        status = FEASIBLE_LIMIT
    else:
        status = _SCIPY_STATUS.get(code, ERROR)
    point = {}
    objective = np.nan
    bound = np.nan
    if has_point:
        x = highs.getSolution().col_value
        point = {v.name: float(xi) for v, xi in zip(ir.variables, x)}
        objective = float(info.objective_function_value) + ir.objective_constant
        bound = (float(info.mip_dual_bound) + ir.objective_constant
                 if is_mip else objective)
    start_objective = np.nan
    if start is not None:
        start_objective = (float(ir.objective_vector() @ start)
                           + ir.objective_constant)
    return SolveResult(status=status, objective=objective, bound=bound,
                       point=point, solve_time=elapsed, message=message,
                       start_objective=start_objective)


def _solve_external(ir: ModelIR, exe: str, time_limit, gap_target) -> SolveResult:
    with tempfile.TemporaryDirectory(prefix="storagebid_") as scratch:
        model_path = os.path.join(scratch, "model.mps")
        sol_path = os.path.join(scratch, "solution.txt")
        with open(model_path, "wb") as f:
            f.write(emit_model(ir, "MPS"))
        cmd = [exe, model_path, sol_path]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=(time_limit or 3600) + 60)
        except (OSError, subprocess.TimeoutExpired) as e:
            return SolveResult(status=ERROR, message=f"backend failed: {e}")
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not os.path.exists(sol_path):
            return SolveResult(status=ERROR,
                               message=f"backend exit {proc.returncode}: "
                                       f"{proc.stderr[-500:]}")
        with open(sol_path) as f:
            status, objective, values = parse_solution(f.read())
    if status in (INFEASIBLE, UNBOUNDED):
        return SolveResult(status=status, solve_time=elapsed)
    try:
        point_vec = ir.point_from_map(values)
    except ModelError as e:
        return SolveResult(status=ERROR, message=str(e))
    obj = float(ir.objective_vector() @ point_vec) + ir.objective_constant
    if objective is None:
        objective = obj
    return SolveResult(status=status or OPTIMAL, objective=obj, bound=obj,
                       point=dict(zip((v.name for v in ir.variables),
                                      map(float, point_vec))),
                       solve_time=elapsed)


def solve(ir: ModelIR, time_limit: float | None = None,
          gap_target: float | None = None,
          backend: str | None = None) -> SolveResult:
    """Solve a model with no active bilinear rows (LP or MILP)."""
    ir.validate()
    if ir.n_bilinear_active > 0:
        raise ModelError(
            "model has active bilinear rows; use solve_exact_bilinear")
    exe = backend if backend is not None else os.environ.get(BACKEND_ENV)
    if exe:
        result = _solve_external(ir, exe, time_limit, gap_target)
    else:
        result = _solve_scipy(ir, time_limit, gap_target)
    if result.ok:
        viol = count_bilinear_violations(ir, result.point)
        result = replace(result, bilinear_violations=viol)
    return result


def count_bilinear_violations(ir: ModelIR, point: dict[str, float],
                              tol: float = 1e-6) -> int:
    """Number of bilinear rows (active or not) violated at a point."""
    if not ir.bilinear_rows:
        return 0
    x = ir.point_from_map(point)
    return sum(1 for row in ir.bilinear_rows if residual(row, x) < -tol)


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


def verify_point(ir: ModelIR, point: dict[str, float],
                 tol_abs: float = 1e-6) -> VerificationReport:
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
    return VerificationReport(residuals=out, tol=tol_abs)


# ---------------------------------------------------------------------------
# Exact ground truth for the bilinear model at desk scale.
# ---------------------------------------------------------------------------

def solve_exact_bilinear(ir: ModelIR, x0_names: list[str],
                         is_feasible, time_limit: float | None = None,
                         tol: float = 1e-7, max_nodes: int = 400) -> SolveResult:
    """Spatial branch and bound for models whose only nonconvexity is the
    bilinear SOC rows.

    Node lower bounds come from the model with bilinear rows deactivated
    (a valid relaxation) under tightened x0 boxes; incumbents are node
    solutions certified truly feasible by ``is_feasible(point)`` — an
    oracle-level check supplied by the caller. Branches split the x0
    variable appearing in the most violated bilinear row. Intended for
    K <= 8; refuses larger instances.
    """
    if len(x0_names) > 8:
        raise DomainError("exact bilinear solve limited to K <= 8")
    base = copy.deepcopy(ir)
    for row in base.bilinear_rows:
        row.active = False
    idx = [base.var(n) for n in x0_names]
    root_lo = [base.variables[i].lower for i in idx]
    root_hi = [base.variables[i].upper for i in idx]

    t_start = time.perf_counter()
    best_obj = np.inf
    best_point: dict[str, float] | None = None
    # open nodes, first in first out: (x0 box, parent's objective)
    nodes = deque([(np.array(root_lo), np.array(root_hi), -np.inf)])
    # best objective among nodes dropped without a verdict
    unresolved = np.inf
    n_explored = 0

    while nodes and n_explored < max_nodes:
        if time_limit is not None and time.perf_counter() - t_start > time_limit:
            break
        lo_box, hi_box, parent = nodes.popleft()
        n_explored += 1
        for i, lo_v, hi_v in zip(idx, lo_box, hi_box):
            base.variables[i].lower = lo_v
            base.variables[i].upper = hi_v
        res = _solve_scipy(base, None, 1e-9)
        if res.status == INFEASIBLE:
            continue
        if not res.ok:
            unresolved = min(unresolved, parent)
            continue
        if res.objective >= best_obj - tol:
            continue  # pruned by bound
        x = base.point_from_map(res.point)
        # violation of each (inactive) bilinear row at the node solution
        worst_row = None
        worst_viol = tol
        for row in base.bilinear_rows:
            v = -residual(row, x)
            if v > worst_viol:
                worst_viol = v
                worst_row = row
        if is_feasible(res.point):
            if res.objective < best_obj:
                best_obj = res.objective
                best_point = res.point
            continue
        if worst_row is None:
            # relaxation point violates no bilinear row yet fails the
            # oracle; cannot happen for valid models, so the node is
            # dropped unresolved
            unresolved = min(unresolved, res.objective)
            continue
        # branch on the x0 variable in the most violated row
        branch_var = None
        for i, _, _ in worst_row.quad:
            if i in idx:
                branch_var = idx.index(i)
        for _, j, _ in worst_row.quad:
            if j in idx:
                branch_var = idx.index(j)
        if (branch_var is None
                or hi_box[branch_var] - lo_box[branch_var] < 1e-9):
            unresolved = min(unresolved, res.objective)
            continue
        mid = float(np.clip(x[idx[branch_var]],
                            lo_box[branch_var] + 1e-9,
                            hi_box[branch_var] - 1e-9))
        left_hi = hi_box.copy()
        left_hi[branch_var] = mid
        right_lo = lo_box.copy()
        right_lo[branch_var] = mid
        nodes.append((lo_box.copy(), left_hi, res.objective))
        nodes.append((right_lo, hi_box.copy(), res.objective))

    elapsed = time.perf_counter() - t_start
    if best_point is None:
        return SolveResult(status=INFEASIBLE, solve_time=elapsed,
                           message=f"no certified incumbent in "
                                   f"{n_explored} nodes")
    # an open node's relaxation is no better than its parent's
    bound = min([best_obj, unresolved] + [p for _, _, p in nodes])
    status = OPTIMAL if bound >= best_obj - tol else FEASIBLE_LIMIT
    return SolveResult(status=status, objective=best_obj, bound=bound,
                       point=best_point, solve_time=elapsed,
                       message=f"nodes explored: {n_explored}")
