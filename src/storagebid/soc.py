"""Continuous-time power and SOC evaluation with exact worst-case oracles.

The worst-case state of charge under a budgeted regulation signal is
computed by dualizing the budget constraint: the dual objective is convex
piecewise linear in the single multiplier, so the exact optimum is found
by enumerating its breakpoints, which also fix the worst time inside an
interval in closed form. One kernel per side (``_max_duals``,
``_min_duals``) solves this dual for every interval of a day at once,
over one candidate set per day; every oracle calls it on the whole day
and reads its interval's entry. Witness signals come from the
primal side: at fixed time weights the inner problem is a fractional
knapsack over concave piecewise-linear SOC gains, solved by one greedy
fill for any set of times. Brute-force enumeration oracles are provided
for independent cross-validation on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
# unused here: kept so bench/tracing.py can patch and count soc.linprog
from scipy.optimize import linprog  # noqa: F401

from .types import (
    ABS_TOL,
    AlignmentError,
    BidSchedule,
    DomainError,
    RegulationSignal,
    StorageParams,
    TimeGrid,
    is_multiple_of,
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
    _check_query(bids, grid, y0)
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

def _max_line(x0, x_dn, lam, params: StorageParams, u_a, v_a):
    """max{u - lam, v}, the form of every piece of phi and of its bounds
    but the ratio: u = (x_dn-x0)/eta_d where ``u_a``, else eta_c(x_dn-x0),
    and v = -x0/eta_d where ``v_a``, else -eta_c*x0."""
    ec, ed = params.eta_c, params.eta_d
    return np.maximum(np.where(u_a, (x_dn - x0) / ed, ec * (x_dn - x0)) - lam,
                      np.where(v_a, -x0 / ed, -ec * x0))


def phi_values(x0, x_dn, lam, params: StorageParams):
    """Worst-case SOC growth rate for arbitrage bid x0 and downregulation
    bid x_dn at budget dual lam, vectorized over intervals.

    Case dispatch (boundaries agree by continuity; x_dn = 0 is routed to
    the first case to avoid a 0/0 ratio):
      x_dn <= x0:          max{(x_dn-x0)/eta_d - lam, -x0/eta_d}
      x0 <= 0:             max{eta_c(x_dn-x0) - lam, -eta_c*x0}
      0 <= x0 <= x_dn > 0: max{eta_c(x_dn-x0) - lam, -lam*x0/x_dn, -x0/eta_d}
    """
    x0, x_dn = np.asarray(x0, dtype=float), np.asarray(x_dn, dtype=float)
    low = phi_lower_values(x0, x_dn, lam, params)
    # the ratio piece only where x_dn > x0 > 0; elsewhere the unused
    # np.where branch divides 0 by 1
    mid = (x_dn > x0) & (x0 > 0)
    ratio = np.where(mid, x0, 0.0) / np.where(mid, x_dn, 1.0)
    return np.where(mid, np.maximum(low, -lam * ratio), low)


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
    x0, x_dn = np.asarray(x0, dtype=float), np.asarray(x_dn, dtype=float)
    case_a = x_dn <= x0
    return _max_line(x0, x_dn, lam, params, case_a, case_a | (x0 > 0))


def phi_upper_values(x0, x_dn, lam, params: StorageParams):
    """Upper bound on phi replacing the ratio piece by the adjacent
    linear pieces (the restriction's per-interval estimate)."""
    x0, x_dn = np.asarray(x0, dtype=float), np.asarray(x_dn, dtype=float)
    use_a = x_dn <= x0
    denom = 1.0 - params.eta_c * params.eta_d
    if denom > 0:  # lossless: both branches coincide
        thresh = np.maximum((x_dn - params.eta_d * lam) / denom, 0.0)
        use_a = use_a | (x0 >= thresh)
    return _max_line(x0, x_dn, lam, params, use_a, use_a)


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
        never exceed it. The sample period must divide dt."""
        if not is_multiple_of(grid.dt_hours, sample_period_hours):
            raise AlignmentError("sample period does not divide dt")
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


def _max_duals(x0, x_dn, params: StorageParams, gamma: float, dt: float,
               phi_fn, sigma: float | None = None):
    """Minimize, for every k = 1..len(x0) at once, the convex
    piecewise-linear budget dual of the worst-case SOC rise

        gamma*lam + dt * sum_{l<k} phi_l(lam) + tail_k(lam)

    where tail_k is sigma * phi_k (fixed-time mode, sigma hours into
    interval k) or, with sigma None, dt * [phi_k]+ (interval-max mode).

    Every k searches one candidate set: 0, every non-negative breakpoint
    of the day and, in interval-max mode, every interval's hinge root,
    interpolated between two consecutive candidates. A candidate c gives
    the line a_c + s * b_c in the elapsed time s of interval k, with
    b_c = phi_k(c) and a_c = gamma*c + dt * sum_{l<k} phi_l(c) summed in
    interval order. This is exact: the dual of k is convex piecewise
    linear in lam with its breakpoints among the candidates, and any other
    candidate gives no better value, so the optimum and its smallest
    minimizer are those over k's own. The day's candidates refine each
    phi_j's breakpoints, so each hinge root is interpolated where phi_j
    is linear.

    Returns the minimum of every k and a function that gives, for the k
    in a list, the smallest minimizer and the offset into interval k of
    the worst time: sigma, or in interval-max mode the earliest offset at
    which the fixed-time maximum min_c (a_c + s * b_c) reaches the
    minimum."""
    # phi's breakpoints: eta_c*x_dn, x_dn/eta_d, the restriction's case
    # switch and the hinge the relaxation keeps without the ratio piece.
    # Past the largest, every piece of every phi kind is constant in lam,
    # so the dual rises at slope gamma >= 0 and needs no cap.
    pts = [params.eta_c * x_dn, x_dn / params.eta_d]
    denom = 1.0 - params.eta_c * params.eta_d
    if phi_fn is phi_upper_values and denom > 0:
        pts.append((x_dn - denom * x0) / params.eta_d)
    if phi_fn is phi_lower_values:
        pts.append(params.eta_c * (x_dn - x0) + x0 / params.eta_d)
    pts = np.concatenate([[0.0], *pts])
    lam = np.unique(pts[pts >= 0.0])
    b = phi_fn(x0, x_dn, lam[:, None], params)
    if sigma is None and (b < 0).any():
        # phi_k is non-increasing in lam, so the candidates where it is
        # positive come first and those where it is negative last. Its
        # hinge root lies between the last positive and the first negative
        # one, unless a candidate between them has phi_k = 0.
        pos, neg = b > 0, b < 0
        k = np.flatnonzero(pos.any(axis=0) & neg.any(axis=0)
                           & ~(b == 0).any(axis=0))
        if len(k):
            lo = (len(lam) - 1 - np.argmax(pos[::-1], axis=0))[k]
            hi = np.argmax(neg, axis=0)[k]
            fa, fb = b[lo, k], b[hi, k]
            roots = lam[lo] + (lam[hi] - lam[lo]) * fa / (fa - fb)
            lam = np.concatenate([lam, roots])
            b = np.vstack([b, phi_fn(x0, x_dn, roots[:, None], params)])
    a = np.zeros_like(b)
    np.cumsum(b[:, :-1], axis=1, out=a[:, 1:])
    a = gamma * lam[:, None] + dt * a
    vals = a + (dt * np.maximum(b, 0.0) if sigma is None else sigma * b)
    best = vals.min(axis=0)

    def argmins(ks):
        j = np.asarray(ks) - 1
        lam_star = np.where(vals[:, j] <= best[j] + 1e-10, lam[:, None],
                            np.inf).min(axis=0)
        if sigma is not None:
            return lam_star, np.full(len(j), sigma)
        # the earliest maximizer is where the last rising line reaches
        # best. A slope within rounding of zero (phi_k at its own hinge
        # root) rises by nothing, yet would put it at the interval's end.
        bj = b[:, j]
        s = np.divide(best[j] - a[:, j], bj, out=np.zeros_like(bj),
                      where=bj > _TOL)
        return lam_star, np.minimum(s.max(axis=0), dt)
    return best, argmins


def _min_duals(alpha, diffs, gamma: float, dt: float, y0: float):
    """Maximize, for every k = 1..len(alpha) at once, the concave
    piecewise-linear budget dual of the worst-case SOC at the end of
    interval k, with ``diffs`` = beta - alpha,

        y0 - gamma*lam - dt * sum_{l<=k} (alpha_l + [diffs_l - lam]+),

    over one candidate set, 0 and every positive surplus of the day, with
    the sum taken in interval order. As in ``_max_duals``, the breakpoints
    of k are among the candidates and any other gives no better value, so
    the maximum and its smallest maximizer are those of k's own. Returns
    the maximum of every k and a function that gives the smallest
    maximizer of the k in a list."""
    lam = np.unique(np.concatenate([[0.0], diffs[diffs > 0]]))[:, None]
    drain = np.cumsum(alpha + np.maximum(diffs - lam, 0.0), axis=1)
    vals = y0 - gamma * lam - dt * drain
    best = vals.max(axis=0)

    def argmaxs(ks):
        j = np.asarray(ks) - 1
        return np.where(vals[:, j] >= best[j] - 1e-10, lam, np.inf).min(axis=0)
    return best, argmaxs


def _greedy_fill(rates: np.ndarray, lengths, weights,
                 gamma: float) -> np.ndarray:
    """Fractional knapsack over concave piecewise-linear gains, for one
    budget or a batch of independent ones.

    Along the last two axes, column l of ``rates``/``lengths`` lists the
    pieces of interval l's gain in its magnitude xi_l (rows in order,
    rates non-increasing); a unit of xi_l costs ``weights[..., l]`` of
    the budget ``gamma``. Leading axes index the problems of a batch;
    lengths and weights broadcast against ``rates``. Pieces are filled by
    falling rate (stable order) until the budget is spent; pieces with
    zero rate, length or weight get nothing and add exactly 0 to the
    running cost, so a problem's xi does not depend on what else is in
    its batch. Returns xi, of shape ``rates.shape[:-2] + (n,)``."""
    shape = np.broadcast_shapes(np.shape(rates), np.shape(lengths),
                                np.shape(weights))
    *batch, pieces, n = shape
    r, ln, w = (np.broadcast_to(a, shape).reshape(-1, pieces * n)
                for a in (rates, lengths, weights))
    order = np.argsort(-r, axis=1, kind="stable")
    r, ln, w = (np.take_along_axis(a, order, axis=1) for a in (r, ln, w))
    fill = (r > _TOL) & (w > 0) & (ln > 0)
    cost = np.where(fill, ln * w, 0.0)
    spent = np.zeros_like(cost)
    np.cumsum(cost[:, :-1], axis=1, out=spent[:, 1:])
    take = np.clip((gamma - spent[fill]) / w[fill], 0.0, ln[fill])
    owner = order % n + n * np.arange(len(order))[:, None]
    # with nothing to fill, bincount returns integer zeros
    xi = np.bincount(owner[fill], weights=take, minlength=len(order) * n)
    return xi.astype(np.float64, copy=False).reshape(*batch, n)


def _max_results(duals, bids: BidSchedule, params: StorageParams,
                 grid: TimeGrid, gamma: float, y0: float, ks):
    """The worst-case maximum SOC of each interval in ``ks``, by k, from
    ``_max_duals``, all signals from one greedy fill weighted by each
    interval's elapsed time at the worst time. Interval l's SOC gain rises
    at x_dn/eta_d while it discharges (xi_l to x0/x_dn), then at eta_c*x_dn."""
    if not ks:
        return {}
    rise, argmins = duals
    lam_star, peak = argmins(ks)
    t_star = [(k - 1) * grid.dt_hours + s for k, s in zip(ks, peak.tolist())]
    x0, x_dn = bids.x0, bids.x_dn
    first = np.clip(x0 / np.where(x_dn > 0, x_dn, 1.0), 0.0, 1.0)
    weights = np.array([sigma_vector(grid, t) for t in t_star])
    xi = _greedy_fill(np.stack([x_dn / params.eta_d, params.eta_c * x_dn]),
                      np.stack([first, 1.0 - first]), weights[:, None], gamma)
    return {k: WorstCaseResult(y0 + float(rise[k - 1]), lam, x, t, sign=-1)
            for k, lam, t, x in zip(ks, lam_star.tolist(), t_star, xi)}


def _min_results(duals, diffs, grid: TimeGrid, gamma: float, ks):
    """``min_soc_at_boundaries`` of each interval in ``ks``, by k, from
    ``_min_duals``, all signals from one greedy fill that spends the budget
    on the largest ``diffs`` = beta - alpha; intervals past k weigh 0."""
    if not ks:
        return {}
    value, argmaxs = duals
    weights = np.where(np.arange(grid.K) < np.array(ks)[:, None],
                       grid.dt_hours, 0.0)
    xi = _greedy_fill(diffs[None, None], 1.0, weights[:, None], gamma)
    return {k: WorstCaseResult(float(value[k - 1]), lam, x,
                               k * grid.dt_hours, sign=+1)
            for k, lam, x in zip(ks, argmaxs(ks).tolist(), xi)}


def _check_query(bids: BidSchedule, grid: TimeGrid, y0: float,
                 gamma: float = 0.0, k=None) -> None:
    """Refuse a budget, start SOC, interval k or bid schedule without
    meaning."""
    if not 0.0 <= gamma < np.inf:
        raise DomainError(f"gamma={gamma} must be finite and nonnegative")
    if not -np.inf < y0 < np.inf:
        raise DomainError("y0 must be finite")
    if k is not None and not 1 <= k <= grid.K:
        raise DomainError(f"interval k={k} outside 1..{grid.K}")
    if bids.K != grid.K:
        raise DomainError(f"bid schedule has {bids.K} intervals, "
                          f"the grid has {grid.K}")


def max_soc_at_time(bids: BidSchedule, params: StorageParams, grid: TimeGrid,
                    gamma: float, y0: float, t: float) -> WorstCaseResult:
    """Exact maximum SOC at time t over all budget-feasible signals."""
    _check_query(bids, grid, y0, gamma)
    if not -ABS_TOL <= t <= grid.T + ABS_TOL:
        raise DomainError(f"t={t} outside horizon")
    t = max(t, 0.0)
    k = grid.interval_of(t)
    sig_k = t - (k - 1) * grid.dt_hours  # exact: (k-1)*dt + sig_k is t
    duals = _max_duals(bids.x0, bids.x_dn, params, gamma, grid.dt_hours,
                       phi_values, sigma=sig_k)
    return _max_results(duals, bids, params, grid, gamma, y0, [k])[k]


def max_soc_over_interval(bids: BidSchedule, params: StorageParams,
                          grid: TimeGrid, gamma: float, y0: float,
                          k: int) -> WorstCaseResult:
    """Exact maximum SOC over the k-th trading interval (1-based), which
    may peak strictly inside the interval."""
    _check_query(bids, grid, y0, gamma, k)
    duals = _max_duals(bids.x0, bids.x_dn, params, gamma, grid.dt_hours,
                       phi_values)
    return _max_results(duals, bids, params, grid, gamma, y0, [k])[k]


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
    _check_query(bids, grid, y0, gamma, k)
    rise, _ = _max_duals(bids.x0, bids.x_dn, params, gamma, grid.dt_hours,
                         _PHI_FNS[kind])
    return y0 + float(rise[k - 1])


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
    alpha_l = max{eta_c x0_l, x0_l/eta_d} = -soc_rate(x0_l), beta_l
    analogous for x0 + x_up."""
    return -soc_rate(bids.x0, params), -soc_rate(bids.x0 + bids.x_up, params)


def min_soc_at_boundaries(bids: BidSchedule, params: StorageParams,
                          grid: TimeGrid, gamma: float, y0: float,
                          k: int) -> WorstCaseResult:
    """Exact minimum SOC at the boundary time k*dt. Per the dual of the
    budgeted discharge problem, interval minima are attained at interval
    endpoints, so boundary values cover the whole horizon."""
    _check_query(bids, grid, y0, gamma, k)
    alpha, beta = alpha_beta(bids, params)
    diffs = beta - alpha
    duals = _min_duals(alpha, diffs, gamma, grid.dt_hours, y0)
    return _min_results(duals, diffs, grid, gamma, [k])[k]


# ---------------------------------------------------------------------------
# Feasibility evaluation for candidate bids.
# ---------------------------------------------------------------------------

class ConstraintCheck(NamedTuple):
    name: str
    slack: float
    witness: WorstCaseResult | None = None


@dataclass(frozen=True)
class FeasibilityReport:
    """Named slacks, negative where a check fails by more than ``tol``,
    with the witnesses of some checks keyed by check index. The
    ``ConstraintCheck`` views are built only when read."""

    names: list[str]
    slack: np.ndarray
    witnesses: dict[int, WorstCaseResult] = field(default_factory=dict)
    tol: float = 1e-9

    @property
    def checks(self) -> list[ConstraintCheck]:
        return [ConstraintCheck(name, s, self.witnesses.get(i))
                for i, (name, s) in enumerate(zip(self.names,
                                                  self.slack.tolist()))]

    @property
    def worst(self) -> ConstraintCheck:
        i = int(np.argmin(self.slack))
        return ConstraintCheck(self.names[i], float(self.slack[i]),
                               self.witnesses.get(i))

    @property
    def worst_violation(self) -> float:
        return max(0.0, -float(self.slack.min(initial=np.inf)))

    @property
    def feasible(self) -> bool:
        # a NaN slack fails, as it would as the worst one
        return bool((self.slack >= -self.tol).all())

    def violations(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if c.slack < -self.tol]


def check_feasibility(bids: BidSchedule, params: StorageParams, grid: TimeGrid,
                      gamma: float, y0: float) -> FeasibilityReport:
    """Verify power bounds and worst-case SOC bounds for candidate bids.

    Violations are reported as negative slack; they are data, not errors.
    The checks are, in order, ``power_upper``/``power_lower`` for each k,
    ``initial_soc_lower`` and ``initial_soc_upper``, then
    ``soc_lower``/``soc_upper`` for each k. All 2K SOC bounds come from
    one call of each dual kernel, so each agrees with its per-interval
    oracle bit for bit. A violated SOC check carries that oracle's
    result, the signals of all violated checks on one side from one
    greedy fill; a satisfied check carries none.
    """
    _check_query(bids, grid, y0, gamma)
    K, tol, dt = grid.K, FeasibilityReport.tol, grid.dt_hours
    alpha, beta = alpha_beta(bids, params)
    diffs = beta - alpha
    low_duals = _min_duals(alpha, diffs, gamma, dt, y0)
    high_duals = _max_duals(bids.x0, bids.x_dn, params, gamma, dt, phi_values)
    low = low_duals[0] - params.y_min
    high = params.y_max - (y0 + high_duals[0])
    slack = np.concatenate([
        np.column_stack([params.x_max - (bids.x0 + bids.x_up),
                         (bids.x0 - bids.x_dn) - params.x_min]).ravel(),
        [y0 - params.y_min, params.y_max - y0],
        np.column_stack([low, high]).ravel()])
    names = [f"power_{side}[{k}]" for k in range(1, K + 1)
             for side in ("upper", "lower")]
    names += ["initial_soc_lower", "initial_soc_upper"]
    names += [f"soc_{side}[{k}]" for k in range(1, K + 1)
              for side in ("lower", "upper")]
    # soc_lower[k] is check 2K + 2k, soc_upper[k] the one after it
    low_w = _min_results(low_duals, diffs, grid, gamma,
                         (np.flatnonzero(low < -tol) + 1).tolist())
    high_w = _max_results(high_duals, bids, params, grid, gamma, y0,
                          (np.flatnonzero(high < -tol) + 1).tolist())
    witnesses = {2 * K + 2 * k: w for k, w in low_w.items()}
    witnesses.update((2 * K + 2 * k + 1, w) for k, w in high_w.items())
    return FeasibilityReport(names, slack, witnesses)


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
