"""Continuous-time power and SOC evaluation with exact worst-case oracles.

The worst-case state of charge under a budgeted regulation signal is
computed by dualizing the budget constraint: the dual objective is convex
piecewise linear in the single multiplier, so the exact optimum is found
by enumerating its breakpoints. The same breakpoints fix the worst time
inside an interval in closed form. Witness signals come from the primal
side: at fixed time weights the inner problem is a fractional knapsack
over concave piecewise-linear SOC gains, solved by a greedy fill.
Brute-force enumeration oracles are provided for independent
cross-validation on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
# unused here: kept so bench/tracing.py can patch and count soc.linprog
from scipy.optimize import linprog  # noqa: F401

from .types import (
    ABS_TOL,
    BidSchedule,
    DomainError,
    RegulationSignal,
    StorageParams,
    TimeGrid,
    sigma_vector,
)

_TOL = 1e-12


def power_output(x0: float, x_up: float, x_dn: float, xi: float) -> float:
    """Realized power for arbitrage bid x0 and regulation bids x_up/x_dn
    when the signal takes value xi: x0 + [xi]+ x_up - [xi]- x_dn."""
    if x_up < -ABS_TOL or x_dn < -ABS_TOL:
        raise DomainError("regulation bids must be nonnegative")
    if abs(xi) > 1 + 1e-12:
        raise DomainError(f"signal value {xi} outside [-1, 1]")
    return float(realized_power(x0, x_up, x_dn, xi))


def realized_power(x0, x_up, x_dn, xi):
    """x0 + [xi]+ x_up - [xi]- x_dn, elementwise. Vectorized."""
    return x0 + np.maximum(xi, 0.0) * x_up - np.maximum(-xi, 0.0) * x_dn


def soc_rate(x, params: StorageParams):
    """Rate of SOC change (kWh/h) for power output x (kW):
    min{-eta_c * x, -x / eta_d}. Vectorized."""
    x = np.asarray(x, dtype=float)
    return np.minimum(-params.eta_c * x, -x / params.eta_d)


def soc_path(power, params: StorageParams, dt: float, y0: float) -> np.ndarray:
    """SOC at each sample boundary (length n+1) for n samples of constant
    power, each lasting dt hours; positive power discharges."""
    return y0 + np.concatenate(([0.0], np.cumsum(soc_rate(power, params)) * dt))


@dataclass(frozen=True)
class SocTrajectory:
    """Piecewise-linear SOC trajectory with breakpoints at sample
    boundaries. First breakpoint is (0, y0)."""

    times: np.ndarray
    values: np.ndarray

    @property
    def y0(self) -> float:
        return float(self.values[0])

    @property
    def terminal(self) -> float:
        return float(self.values[-1])

    def value_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.values))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def simulate_soc(bids: BidSchedule, signal: RegulationSignal,
                 params: StorageParams, grid: TimeGrid, y0: float) -> SocTrajectory:
    """Exact SOC integration: bids and signal are piecewise constant, so
    the trajectory is affine between sample boundaries."""
    if not np.isfinite(y0):
        raise DomainError("y0 must be finite")
    per = signal.check_alignment(grid)
    n = per * grid.K
    power = realized_power(np.repeat(bids.x0, per), np.repeat(bids.x_up, per),
                           np.repeat(bids.x_dn, per), signal.values[:n])
    dt = signal.sample_period_hours
    return SocTrajectory(times=np.arange(n + 1) * dt,
                         values=soc_path(power, params, dt, y0))


# ---------------------------------------------------------------------------
# The per-interval optimal value function and its McCormick-style bounds.
# ---------------------------------------------------------------------------

def _phi_pieces(x0, x_dn, lam, params: StorageParams):
    """What phi and its two bounds share: x0 and x_dn as arrays, the
    pieces a = max{(x_dn-x0)/eta_d - lam, -x0/eta_d} and
    b = max{p1, -eta_c*x0} with p1 = eta_c(x_dn-x0) - lam, and the masks
    of the first two cases (x_dn <= x0; otherwise x0 <= 0)."""
    x0 = np.asarray(x0, dtype=float)
    x_dn = np.asarray(x_dn, dtype=float)
    ec, ed = params.eta_c, params.eta_d
    a = np.maximum((x_dn - x0) / ed - lam, -x0 / ed)
    p1 = ec * (x_dn - x0) - lam
    b = np.maximum(p1, -ec * x0)
    case_a = x_dn <= x0
    return x0, x_dn, a, b, p1, case_a, ~case_a & (x0 <= 0)


def phi_values(x0, x_dn, lam, params: StorageParams):
    """Worst-case SOC growth rate for arbitrage bid x0 and downregulation
    bid x_dn at budget dual lam, vectorized over intervals.

    Case dispatch (boundaries agree by continuity; x_dn = 0 is routed to
    the first case to avoid a 0/0 ratio):
      x_dn <= x0:          max{(x_dn-x0)/eta_d - lam, -x0/eta_d}
      x0 <= 0:             max{eta_c(x_dn-x0) - lam, -eta_c*x0}
      0 <= x0 <= x_dn > 0: max{eta_c(x_dn-x0) - lam, -lam*x0/x_dn, -x0/eta_d}
    """
    x0, x_dn, a, b, p1, case_a, case_b = _phi_pieces(x0, x_dn, lam, params)
    # the ratio piece only matters when 0 <= x0 <= x_dn, so clamp the
    # numerator to keep the unused np.where branch from overflowing
    safe_dn = np.where(x_dn > 0, x_dn, 1.0)
    ratio = np.minimum(np.maximum(x0, 0.0), safe_dn) / safe_dn
    c = np.maximum(p1, np.maximum(-lam * ratio, -x0 / params.eta_d))
    return np.where(case_a, a, np.where(case_b, b, c))


def phi(x0: float, x_dn: float, lam: float, params: StorageParams) -> float:
    """Scalar phi with domain checks."""
    if x_dn < -ABS_TOL:
        raise DomainError("x_dn must be nonnegative")
    if lam < -ABS_TOL:
        raise DomainError("lam must be nonnegative")
    return float(phi_values(x0, x_dn, lam, params))


def phi_lower_values(x0, x_dn, lam, params: StorageParams):
    """Lower bound on phi obtained by dropping its bilinear ratio piece
    (the relaxation's per-interval estimate)."""
    x0, x_dn, a, b, p1, case_a, case_b = _phi_pieces(x0, x_dn, lam, params)
    mid = np.maximum(p1, -x0 / params.eta_d)
    return np.where(case_a, a, np.where(case_b, b, mid))


def phi_upper_values(x0, x_dn, lam, params: StorageParams):
    """Upper bound on phi replacing the ratio piece by the adjacent
    linear pieces (the restriction's per-interval estimate)."""
    x0, x_dn, a, b, _, use_a, _ = _phi_pieces(x0, x_dn, lam, params)
    ec, ed = params.eta_c, params.eta_d
    denom = 1.0 - ec * ed
    if denom > 0:  # lossless: both branches coincide
        thresh = np.maximum((x_dn - ed * lam) / denom, 0.0)
        use_a = use_a | (x0 >= thresh)
    return np.where(use_a, a, b)


# ---------------------------------------------------------------------------
# Worst-case SOC oracles for fixed bids.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorstCaseResult:
    """Worst-case SOC value with its budget dual and a witness signal.

    ``witness_xi`` holds signal magnitudes in [0, 1] per trading interval;
    ``sign`` is -1 for the max-SOC case (downregulation) and +1 for the
    min-SOC case. The witness spends its budget before ``t_star``.
    """

    value: float
    lambda_star: float
    witness_xi: np.ndarray
    t_star: float
    sign: int

    def signed_xi(self) -> np.ndarray:
        return self.sign * self.witness_xi

    def to_signal(self, grid: TimeGrid,
                  sample_period_hours: float = 10.0 / 3600.0) -> RegulationSignal:
        """Materialize the witness as a sampled signal: constant per
        interval up to t_star, zero afterwards.

        When t_star falls inside a sample, that sample carries the
        fraction of its deviation that elapses before t_star, spread over
        the whole sample. A replay evaluated at sample boundaries can then
        fall short of ``value`` by up to one sample of SOC drift, but
        never exceed it."""
        per = round(grid.dt_hours / sample_period_hours)
        values = np.repeat(self.signed_xi(), per)
        # scale the boundary sample so the witness integral is exact and
        # the materialized signal never exceeds the deviation budget
        n_full = int(self.t_star / sample_period_hours)
        frac = self.t_star / sample_period_hours - n_full
        if n_full < len(values):
            values[n_full] *= frac
            values[n_full + 1:] = 0.0
        return RegulationSignal(values=values, sample_period_hours=sample_period_hours)


def _check_power_bounds(bids: BidSchedule, params: StorageParams) -> None:
    if np.any(bids.x0 + bids.x_up > params.x_max + 1e-7):
        raise DomainError("bids violate upper power bound (x0 + x_up <= x_max)")
    if np.any(bids.x0 - bids.x_dn < params.x_min - 1e-7):
        raise DomainError("bids violate lower power bound (x0 - x_dn >= x_min)")


def _lam_candidates(x0, x_dn, params: StorageParams, lam_max: float,
                    phi_fn) -> np.ndarray:
    pts = [0.0, lam_max]
    pts.extend(params.eta_c * x_dn)
    pts.extend(x_dn / params.eta_d)
    if phi_fn is phi_upper_values:
        denom = 1.0 - params.eta_c * params.eta_d
        if denom > 0:
            # switch point of the restriction's case condition
            pts.extend((np.asarray(x_dn) - denom * np.asarray(x0)) / params.eta_d)
    pts = np.asarray(pts, dtype=float)
    pts = pts[(pts >= 0.0) & (pts <= lam_max + _TOL)]
    return np.unique(np.clip(pts, 0.0, lam_max))


def _dual_minimize(x0, x_dn, params: StorageParams, gamma: float, dt: float,
                   k: int, lam_max: float, phi_fn, sigma_k: float | None,
                   hinge: bool):
    """Minimize the convex piecewise-linear dual objective

        gamma*lam + dt * sum_{l<k} phi_l(lam) + tail_k(lam)

    where tail_k is sigma_k * phi_k (fixed-time mode) or dt * [phi_k]+
    (interval-max mode), over its breakpoints. Each candidate c gives the
    line a_c + s * b_c in the weight s of interval k, with
    a_c = gamma*c + dt * sum_{l<k} phi_l(c) and b_c = phi_k(c). Returns
    (objective value, smallest minimizer, a, b)."""
    x0 = np.asarray(x0, dtype=float)[:k]
    x_dn = np.asarray(x_dn, dtype=float)[:k]

    def lines(cands):
        vals = phi_fn(x0, x_dn, cands[:, None], params)
        return gamma * cands + dt * vals[:, :-1].sum(axis=1), vals[:, -1]

    cands = _lam_candidates(x0, x_dn, params, lam_max, phi_fn)
    a, b = lines(cands)
    if hinge:
        # the hinge adds a kink where phi_k crosses zero
        fa, fb = b[:-1], b[1:]
        cross = ((fa > 0) & (fb < 0)) | ((fa < 0) & (fb > 0))
        lo, hi = cands[:-1][cross], cands[1:][cross]
        roots = lo + (hi - lo) * fa[cross] / (fa[cross] - fb[cross])
        ra, rb = lines(roots)
        cands = np.concatenate([cands, roots])
        a, b = np.concatenate([a, ra]), np.concatenate([b, rb])
    vals = a + (dt * np.maximum(b, 0.0) if hinge else sigma_k * b)
    best = vals.min()
    lam_star = float(cands[vals <= best + 1e-10].min())
    return float(best), lam_star, a, b


def _greedy_fill(rates: np.ndarray, lengths, weights,
                 gamma: float) -> np.ndarray:
    """Fractional knapsack over concave piecewise-linear gains.

    Column l of ``rates``/``lengths`` lists the pieces of interval l's
    gain in its magnitude xi_l (rows in order, rates non-increasing); a
    unit of xi_l costs ``weights[l]`` of the budget ``gamma``. Lengths and
    weights broadcast against ``rates``. Pieces are filled by falling
    rate (stable order) until the budget is spent; pieces with zero rate
    or zero weight get nothing. Returns xi."""
    n = rates.shape[1]
    r = rates.ravel()
    ln = np.broadcast_to(lengths, rates.shape).ravel()
    w = np.broadcast_to(weights, rates.shape).ravel()
    owner = np.tile(np.arange(n), rates.shape[0])
    order = np.argsort(-r, kind="stable")
    order = order[(r[order] > _TOL) & (w[order] > 0) & (ln[order] > 0)]
    cost = ln[order] * w[order]
    spent = np.concatenate([[0.0], np.cumsum(cost)[:-1]])
    take = np.clip((gamma - spent) / w[order], 0.0, ln[order])
    return np.bincount(owner[order], weights=take, minlength=n)


def _max_witness(bids: BidSchedule, params: StorageParams, grid: TimeGrid,
                 gamma: float, t: float) -> np.ndarray:
    """Worst-case downregulation magnitudes for the SOC at time t: the
    SOC gain of interval l rises at x_dn/eta_d while it still discharges
    (xi_l up to x0/x_dn), then at eta_c*x_dn."""
    xi = np.zeros(grid.K)
    if t <= 0:
        return xi
    k = grid.interval_of(t)
    x0, x_dn = bids.x0[:k], bids.x_dn[:k]
    safe_dn = np.where(x_dn > 0, x_dn, 1.0)
    first = np.clip(x0 / safe_dn, 0.0, 1.0)
    rates = np.stack([x_dn / params.eta_d, params.eta_c * x_dn])
    lengths = np.stack([first, 1.0 - first])
    xi[:k] = _greedy_fill(rates, lengths, sigma_vector(grid, t)[:k], gamma)
    return xi


def max_soc_at_time(bids: BidSchedule, params: StorageParams, grid: TimeGrid,
                    gamma: float, y0: float, t: float) -> WorstCaseResult:
    """Exact maximum SOC at time t over all budget-feasible signals."""
    if t < -ABS_TOL or t > grid.T + ABS_TOL:
        raise DomainError(f"t={t} outside horizon")
    _check_power_bounds(bids, params)
    lam_max = (params.x_max - params.x_min) / params.eta_d
    if t <= 0:
        return WorstCaseResult(value=y0, lambda_star=0.0,
                               witness_xi=np.zeros(grid.K), t_star=0.0, sign=-1)
    k = grid.interval_of(t)
    sig_k = t - (k - 1) * grid.dt_hours  # elapsed part of interval k
    val, lam_star, _, _ = _dual_minimize(bids.x0, bids.x_dn, params, gamma,
                                         grid.dt_hours, k, lam_max,
                                         phi_values, sigma_k=sig_k,
                                         hinge=False)
    xi = _max_witness(bids, params, grid, gamma, t)
    return WorstCaseResult(value=y0 + val, lambda_star=lam_star,
                           witness_xi=xi, t_star=t, sign=-1)


def max_soc_over_interval(bids: BidSchedule, params: StorageParams,
                          grid: TimeGrid, gamma: float, y0: float, k: int,
                          lam_max: float | None = None) -> WorstCaseResult:
    """Exact maximum SOC over the k-th trading interval (1-based), which
    may peak strictly inside the interval."""
    if not (1 <= k <= grid.K):
        raise DomainError(f"interval k={k} outside 1..{grid.K}")
    if lam_max is None:
        _check_power_bounds(bids, params)
        lam_max = (params.x_max - params.x_min) / params.eta_d
    dt = grid.dt_hours
    val, lam_star, a, b = _dual_minimize(bids.x0, bids.x_dn, params, gamma,
                                         dt, k, lam_max, phi_values,
                                         sigma_k=None, hinge=True)
    # the fixed-time maximum at offset s is min_c (a_c + s*b_c); its
    # earliest maximizer is where the last rising line reaches val
    rising = b > 0
    s = np.max((val - a[rising]) / b[rising], initial=0.0)
    t_star = (k - 1) * dt + min(float(s), dt)
    xi = _max_witness(bids, params, grid, gamma, t_star)
    return WorstCaseResult(value=y0 + val, lambda_star=lam_star,
                           witness_xi=xi, t_star=t_star, sign=-1)


_PHI_FNS = {"exact": phi_values, "lower": phi_lower_values,
            "upper": phi_upper_values}


def max_soc_estimate(bids: BidSchedule, params: StorageParams, grid: TimeGrid,
                     gamma: float, y0: float, k: int,
                     kind: str = "exact") -> float:
    """Maximum-SOC value over interval k with the per-interval growth
    rate replaced by its under-estimate ('lower', as in the relaxation)
    or over-estimate ('upper', as in the restriction)."""
    if kind not in _PHI_FNS:
        raise DomainError(f"unknown estimate kind {kind!r}")
    if not (1 <= k <= grid.K):
        raise DomainError(f"interval k={k} outside 1..{grid.K}")
    _check_power_bounds(bids, params)
    lam_max = (params.x_max - params.x_min) / params.eta_d
    val, _, _, _ = _dual_minimize(bids.x0, bids.x_dn, params, gamma,
                                  grid.dt_hours, k, lam_max, _PHI_FNS[kind],
                                  sigma_k=None, hinge=True)
    return y0 + val


def max_soc_gap_bound(params: StorageParams, grid: TimeGrid) -> float:
    """Worst-case spread between the restriction's and the relaxation's
    max-SOC estimates: (T - dt) * specific_loss * min{-x_min, x_max,
    (x_max - x_min)/(1 + eta_c*eta_d)}."""
    rt = params.eta_c * params.eta_d
    m = min(-params.x_min, params.x_max,
            (params.x_max - params.x_min) / (1.0 + rt))
    return (grid.T - grid.dt_hours) * params.specific_loss() * m


def alpha_beta(bids: BidSchedule, params: StorageParams):
    """Tight epigraph values for the SOC lower bound:
    alpha_l = max{eta_c x0_l, x0_l/eta_d}, beta_l analogous for x0 + x_up."""
    ec, ed = params.eta_c, params.eta_d
    alpha = np.maximum(ec * bids.x0, bids.x0 / ed)
    beta = np.maximum(ec * (bids.x0 + bids.x_up), (bids.x0 + bids.x_up) / ed)
    return alpha, beta


def min_soc_at_boundaries(bids: BidSchedule, params: StorageParams,
                          grid: TimeGrid, gamma: float, y0: float,
                          k: int) -> WorstCaseResult:
    """Exact minimum SOC at the boundary time k*dt. Per the dual of the
    budgeted discharge problem, interval minima are attained at interval
    endpoints, so boundary values cover the whole horizon."""
    if not (1 <= k <= grid.K):
        raise DomainError(f"interval k={k} outside 1..{grid.K}")
    dt = grid.dt_hours
    alpha, beta = alpha_beta(bids, params)
    alpha, beta = alpha[:k], beta[:k]
    diffs = beta - alpha
    cands = np.unique(np.concatenate([[0.0], diffs[diffs > 0]]))
    vals = y0 - gamma * cands - dt * np.sum(
        alpha + np.maximum(diffs - cands[:, None], 0.0), axis=1)
    best = vals.max()
    lam_star = float(cands[vals >= best - 1e-10].min())
    # greedy primal: spend the budget on intervals with the largest
    # discharge surplus
    xi = np.zeros(grid.K)
    xi[:k] = _greedy_fill(diffs[None, :], 1.0, dt, gamma)
    return WorstCaseResult(value=float(best), lambda_star=lam_star,
                           witness_xi=xi, t_star=k * dt, sign=+1)


# ---------------------------------------------------------------------------
# Feasibility evaluation for candidate bids.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    slack: float
    witness: WorstCaseResult | None = None


@dataclass(frozen=True)
class FeasibilityReport:
    checks: list[ConstraintCheck]
    tol: ClassVar[float] = 1e-9

    @property
    def worst(self) -> ConstraintCheck:
        return min(self.checks, key=lambda c: c.slack)

    @property
    def worst_violation(self) -> float:
        return max(0.0, -self.worst.slack)

    @property
    def feasible(self) -> bool:
        return self.worst.slack >= -self.tol

    def violations(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if c.slack < -self.tol]


def check_feasibility(bids: BidSchedule, params: StorageParams, grid: TimeGrid,
                      gamma: float, y0: float) -> FeasibilityReport:
    """Verify power bounds and worst-case SOC bounds for candidate bids.

    Violations are reported as negative slack with a witness signal; they
    are data, not errors.
    """
    checks: list[ConstraintCheck] = []
    for k in range(grid.K):
        checks.append(ConstraintCheck(
            name=f"power_upper[{k + 1}]",
            slack=float(params.x_max - (bids.x0[k] + bids.x_up[k]))))
        checks.append(ConstraintCheck(
            name=f"power_lower[{k + 1}]",
            slack=float((bids.x0[k] - bids.x_dn[k]) - params.x_min)))
    checks.append(ConstraintCheck(name="initial_soc_lower",
                                  slack=float(y0 - params.y_min)))
    checks.append(ConstraintCheck(name="initial_soc_upper",
                                  slack=float(params.y_max - y0)))
    # extend the dual cap so SOC checks stay valid even when power bounds
    # are themselves violated
    lam_max = max((params.x_max - params.x_min) / params.eta_d,
                  float(np.max(bids.x_dn, initial=0.0)) / params.eta_d,
                  float(np.max(bids.x_dn - bids.x0, initial=0.0)) / params.eta_d)
    for k in range(1, grid.K + 1):
        lo = min_soc_at_boundaries(bids, params, grid, gamma, y0, k)
        checks.append(ConstraintCheck(name=f"soc_lower[{k}]",
                                      slack=lo.value - params.y_min, witness=lo))
        hi = max_soc_over_interval(bids, params, grid, gamma, y0, k,
                                   lam_max=lam_max)
        checks.append(ConstraintCheck(name=f"soc_upper[{k}]",
                                      slack=params.y_max - hi.value, witness=hi))
    return FeasibilityReport(checks=checks)


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the dual route above).
# ---------------------------------------------------------------------------

def _guard_enumeration(k: int, m: int, axes: int) -> None:
    if k > 4:
        raise DomainError("brute force limited to k <= 4 intervals")
    if m < 1 or float(m + 1) ** axes > 2e7:
        raise DomainError(f"brute-force grid m={m} too large for k={k}")


def _xi_grid(k: int, m: int) -> np.ndarray:
    axes = np.meshgrid(*([np.arange(m + 1) / m] * k), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def brute_force_max_soc(bids: BidSchedule, params: StorageParams,
                        grid: TimeGrid, gamma: float, y0: float, k: int,
                        m: int = 20) -> float:
    """Grid-enumeration lower bound on the maximum SOC over interval k:
    all signal levels in {0, 1/m, ..., 1}^k and exhaustion times on an
    m-point grid of the interval, keeping budget-feasible combinations."""
    _guard_enumeration(k, m, k + 1)
    dt = grid.dt_hours
    xi = _xi_grid(k, m)
    x0, x_up, x_dn = bids.x0[:k], bids.x_up[:k], bids.x_dn[:k]
    # t = 0 (k = 1 only) contributes the initial SOC
    best = y0 if k == 1 else -np.inf
    for j in range(m + 1):
        t = (k - 1) * dt + j * dt / m
        if t <= 0:
            continue
        sig = sigma_vector(grid, t)[:k]
        spent = xi @ sig
        feas = spent <= gamma + 1e-12
        if not np.any(feas):
            continue
        x = realized_power(x0, x_up, x_dn, -xi[feas])  # downregulation
        vals = y0 + soc_rate(x, params) @ sig
        best = max(best, float(vals.max()))
    return best


def brute_force_min_soc(bids: BidSchedule, params: StorageParams,
                        grid: TimeGrid, gamma: float, y0: float, k: int,
                        m: int = 20) -> float:
    """Grid-enumeration upper bound on the minimum SOC at boundary k*dt
    (upregulation signals only; boundary times are worst by duality)."""
    _guard_enumeration(k, m, k)
    dt = grid.dt_hours
    xi = _xi_grid(k, m)
    spent = xi.sum(axis=1) * dt
    xi = xi[spent <= gamma + 1e-12]
    x = realized_power(bids.x0[:k], bids.x_up[:k], bids.x_dn[:k], xi)
    vals = y0 + soc_rate(x, params).sum(axis=1) * dt
    return float(vals.min())
