"""Solve contract: in-process MILP backend, optional external backend,
solution verification, and exact bilinear ground truth for small models.

The default backend is scipy's HiGHS interface. An external solver can be
plugged in through the ``STORAGEBID_SOLVER`` environment variable: the
executable is invoked as ``solver model.mps solution.txt`` and must write
'name value' lines (see mpsio.parse_solution).
"""

from __future__ import annotations

import copy
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

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

    @property
    def gap(self) -> float:
        if not (np.isfinite(self.objective) and np.isfinite(self.bound)):
            return np.inf
        return abs(self.objective - self.bound) / max(1e-10, abs(self.objective))

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE_LIMIT)


def _linear_constraints(ir: ModelIR):
    rows = ir.rows
    n = ir.n_vars
    if not rows:
        return None
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
    a = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n))
    return LinearConstraint(a, lo, hi)


def _solve_scipy(ir: ModelIR, time_limit, gap_target) -> SolveResult:
    c = ir.objective_vector()
    integrality = np.array(
        [1 if v.kind == BINARY else 0 for v in ir.variables])
    lo, hi = ir.bounds_arrays()
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if gap_target is not None:
        options["mip_rel_gap"] = float(gap_target)
    cons = _linear_constraints(ir)
    t0 = time.perf_counter()
    res = milp(c=c, constraints=cons if cons is not None else [],
               integrality=integrality, bounds=Bounds(lo, hi),
               options=options)
    elapsed = time.perf_counter() - t0
    if res.status == 0:
        status = OPTIMAL
    elif res.status == 1 and res.x is not None:
        status = FEASIBLE_LIMIT
    elif res.status == 2:
        status = INFEASIBLE
    elif res.status == 3:
        status = UNBOUNDED
    else:
        status = ERROR
    point = {}
    objective = np.nan
    bound = np.nan
    if res.x is not None:
        point = {v.name: float(x) for v, x in zip(ir.variables, res.x)}
        objective = float(res.fun) + ir.objective_constant
        dual = getattr(res, "mip_dual_bound", None)
        bound = (float(dual) + ir.objective_constant
                 if dual is not None else objective)
    return SolveResult(status=status, objective=objective, bound=bound,
                       point=point, solve_time=elapsed,
                       message=str(res.message))


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
    nodes = [(np.array(root_lo), np.array(root_hi))]
    best_bound = -np.inf
    nodes_left_bound = []
    n_explored = 0

    while nodes and n_explored < max_nodes:
        if time_limit is not None and time.perf_counter() - t_start > time_limit:
            break
        lo_box, hi_box = nodes.pop(0)
        n_explored += 1
        for i, lo_v, hi_v in zip(idx, lo_box, hi_box):
            base.variables[i].lower = lo_v
            base.variables[i].upper = hi_v
        res = _solve_scipy(base, None, 1e-9)
        if res.status == INFEASIBLE:
            continue
        if not res.ok:
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
            # oracle; cannot happen for valid models, treat as incumbent
            # rejection and stop branching this node
            continue
        # branch on the x0 variable in the most violated row
        branch_var = None
        for i, _, _ in worst_row.quad:
            if i in idx:
                branch_var = idx.index(i)
        for _, j, _ in worst_row.quad:
            if j in idx:
                branch_var = idx.index(j)
        if branch_var is None:
            continue
        mid = float(np.clip(x[idx[branch_var]],
                            lo_box[branch_var] + 1e-9,
                            hi_box[branch_var] - 1e-9))
        if hi_box[branch_var] - lo_box[branch_var] < 1e-9:
            continue
        left_hi = hi_box.copy()
        left_hi[branch_var] = mid
        right_lo = lo_box.copy()
        right_lo[branch_var] = mid
        nodes.append((lo_box.copy(), left_hi))
        nodes.append((right_lo, hi_box.copy()))
        nodes_left_bound.append(res.objective)

    elapsed = time.perf_counter() - t_start
    if best_point is None:
        return SolveResult(status=INFEASIBLE, solve_time=elapsed,
                           message=f"no certified incumbent in "
                                   f"{n_explored} nodes")
    bound = min(nodes_left_bound) if nodes else best_obj
    if not nodes:
        bound = best_obj
    status = OPTIMAL if not nodes else FEASIBLE_LIMIT
    return SolveResult(status=status, objective=best_obj, bound=bound,
                       point=best_point, solve_time=elapsed,
                       message=f"nodes explored: {n_explored}")
