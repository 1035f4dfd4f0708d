"""Constraint generators for the robust bidding models.

Each builder appends rows and variables to a ModelIR. ``dispatch_variant``
assembles a full model: power bounds (plain or intraday-tightened), the
worst-case SOC lower and upper blocks, market-coupling rows, the terminal
SOC condition and the objective, then applies variant-specific surgery
(restriction rows, fixed or merged binaries). Only the ``exact`` variant
gets bilinear rows.
"""

from __future__ import annotations

from .ir import BINARY, CONTINUOUS, ModelError, ModelIR, ModelOptions
from .types import (
    DomainError,
    PriceSeries,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
    is_multiple_of,
)

MWH_PER_KWH = 1e-3


def _check_assumption_gamma(gamma: float, grid: TimeGrid) -> None:
    if gamma <= 0 or not is_multiple_of(gamma, grid.dt_hours):
        raise DomainError(
            f"budget gamma={gamma} must be a positive integer multiple of dt")


def add_bid_variables(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                      sell_allowed: bool = True) -> None:
    x0_hi = params.x_max if sell_allowed else 0.0
    span = params.x_max - params.x_min
    for k in range(1, grid.K + 1):
        ir.add_variable(f"x0[{k}]", lower=params.x_min, upper=x0_hi)
    for k in range(1, grid.K + 1):
        ir.add_variable(f"x_up[{k}]", lower=0.0, upper=span)
    for k in range(1, grid.K + 1):
        ir.add_variable(f"x_dn[{k}]", lower=0.0, upper=span)


def build_power_bounds(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                       intervals=None) -> None:
    """x0_k + x_up_k <= x_max and x0_k - x_dn_k >= x_min."""
    if intervals is None:
        intervals = range(1, grid.K + 1)
    for k in intervals:
        ir.add_row(f"pow_hi[{k}]",
                   [(ir.var(f"x0[{k}]"), 1.0), (ir.var(f"x_up[{k}]"), 1.0)],
                   "<=", params.x_max)
        ir.add_row(f"pow_lo[{k}]",
                   [(ir.var(f"x0[{k}]"), 1.0), (ir.var(f"x_dn[{k}]"), -1.0)],
                   ">=", params.x_min)


def _family(ir: ModelIR, name: str, n: int) -> list:
    """Indices of ``name[1]..name[n]`` at list positions 1..n, resolved
    once so that the O(K^2) blocks below look up no name per coefficient."""
    return [None] + [ir.var(f"{name}[{k}]") for k in range(1, n + 1)]


def build_soc_lower(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                    gamma: float, y0: float) -> None:
    """Worst-case SOC lower bound: dual reformulation with alpha/beta
    epigraph variables. K(K+1)/2 + 5K rows."""
    _check_assumption_gamma(gamma, grid)
    ec, ed = params.eta_c, params.eta_d
    dt = grid.dt_hours
    K = grid.K
    hi = max(params.x_max * ec, params.x_max / ed)
    lo = min(params.x_min * ec, params.x_min / ed)
    alpha = [None] + [ir.add_variable(f"alpha[{k}]", lower=lo, upper=hi)
                      for k in range(1, K + 1)]
    beta = [None] + [ir.add_variable(f"beta[{k}]", lower=lo, upper=hi)
                     for k in range(1, K + 1)]
    laml, Laml = [None], [None]
    for k in range(1, K + 1):
        laml.append(ir.add_variable(f"laml[{k}]", lower=0.0))
        Laml.append([None] + [ir.add_variable(f"Laml[{k},{l}]", lower=0.0)
                              for l in range(1, k + 1)])
    x0, xup = _family(ir, "x0", K), _family(ir, "x_up", K)
    for k in range(1, K + 1):
        a, b = alpha[k], beta[k]
        ir.add_row(f"alpha_c[{k}]", [(a, 1.0), (x0[k], -ec)], ">=", 0.0)
        ir.add_row(f"alpha_d[{k}]", [(a, 1.0), (x0[k], -1.0 / ed)], ">=", 0.0)
        ir.add_row(f"beta_c[{k}]", [(b, 1.0), (x0[k], -ec), (xup[k], -ec)],
                   ">=", 0.0)
        ir.add_row(f"beta_d[{k}]",
                   [(b, 1.0), (x0[k], -1.0 / ed), (xup[k], -1.0 / ed)],
                   ">=", 0.0)
    for k in range(1, K + 1):
        coeffs = [(laml[k], -gamma)]
        for l in range(1, k + 1):
            coeffs += ((alpha[l], -dt), (Laml[k][l], -dt))
        ir.add_row(f"soc_lo[{k}]", coeffs, ">=", params.y_min - y0)
        for l in range(1, k + 1):
            ir.add_row(f"Laml_epi[{k},{l}]",
                       [(Laml[k][l], 1.0), (laml[k], 1.0), (alpha[l], 1.0),
                        (beta[l], -1.0)],
                       ">=", 0.0)


def build_soc_upper(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                    gamma: float, y0: float) -> None:
    """Worst-case SOC upper bound, the part every variant shares: the
    dual variables, the linear rows and 2(K-1) case binaries (none for a
    lossless battery). ``build_soc_upper_exact`` adds the bilinear rows
    that the relaxation drops and the restriction replaces."""
    _check_assumption_gamma(gamma, grid)
    ec, ed = params.eta_c, params.eta_d
    d_eta = params.specific_loss()
    dt = grid.dt_hours
    K = grid.K
    x_lo, x_hi = params.x_min, params.x_max
    lam_cap = (x_hi - x_lo) / ed
    lamu, Lamu = [None], [None]
    for k in range(1, K + 1):
        lamu.append(ir.add_variable(f"lamu[{k}]", lower=0.0, upper=lam_cap))
        Lamu.append([None] + [ir.add_variable(f"Lamu[{k},{l}]")
                              for l in range(1, k + 1)])
    # case-indicator binaries carry specific-loss offsets, so a lossless
    # battery needs none of them (the system is a plain LP block)
    with_cases = not params.is_lossless
    u1, u2 = [None], [None]
    if with_cases:
        for k in range(1, K):
            u1.append(ir.add_variable(f"u1[{k}]", kind=BINARY, lower=0.0,
                                      upper=1.0))
            u2.append(ir.add_variable(f"u2[{k}]", kind=BINARY, lower=0.0,
                                      upper=1.0))
    x0, xdn = _family(ir, "x0", K), _family(ir, "x_dn", K)

    for k in range(1, K + 1):
        coeffs = [(lamu[k], gamma)]
        coeffs += ((Lamu[k][l], dt) for l in range(1, k + 1))
        ir.add_row(f"soc_hi[{k}]", coeffs, "<=", params.y_max - y0)
        kk = Lamu[k][k]
        ir.add_row(f"Lamu_diag_b[{k}]", [(kk, 1.0), (x0[k], ec)], ">=", 0.0)
        ir.add_row(f"Lamu_diag_c[{k}]",
                   [(kk, 1.0), (xdn[k], -ec), (x0[k], ec), (lamu[k], 1.0)],
                   ">=", 0.0)
        ir.add_row(f"Lamu_diag_pos[{k}]", [(kk, 1.0)], ">=", 0.0)

    # binary case indicators: u1_k = 1 iff x0_k >= x_dn_k, u2_k = 1 iff
    # x0_k <= 0
    if with_cases:
        for k in range(1, K):
            ir.add_row(f"u1_hi[{k}]",
                       [(x0[k], 1.0), (xdn[k], -1.0), (u1[k], -x_hi)],
                       "<=", 0.0)
            ir.add_row(f"u1_lo[{k}]",
                       [(x0[k], 1.0), (xdn[k], -1.0), (u1[k], x_lo)],
                       ">=", x_lo)
            ir.add_row(f"u2_hi[{k}]", [(x0[k], 1.0), (u2[k], x_hi)],
                       "<=", x_hi)
            ir.add_row(f"u2_lo[{k}]", [(x0[k], 1.0), (u2[k], -x_lo)],
                       ">=", 0.0)

    # off-diagonal epigraph rows with the minimal valid big-M offsets
    for k in range(2, K + 1):
        lamk = lamu[k]
        for l in range(1, k):
            L, x0l, xdnl = Lamu[k][l], x0[l], xdn[l]
            if not with_cases:
                # zero specific loss: the big-M offsets and the ratio
                # hinge vanish, leaving a convex epigraph
                ir.add_row(f"Lbd1[{k},{l}]",
                           [(L, 1.0), (xdnl, -1.0 / ed), (x0l, 1.0 / ed),
                            (lamk, 1.0)], ">=", 0.0)
                ir.add_row(f"Lbd2[{k},{l}]",
                           [(L, 1.0), (x0l, 1.0 / ed)], ">=", 0.0)
                continue
            ir.add_row(f"Lbd1[{k},{l}]",
                       [(L, 1.0), (xdnl, -1.0 / ed), (x0l, 1.0 / ed),
                        (lamk, 1.0), (u1[l], d_eta * x_lo)],
                       ">=", d_eta * x_lo)
            ir.add_row(f"Lbd2[{k},{l}]",
                       [(L, 1.0), (x0l, 1.0 / ed), (u2[l], -d_eta * x_lo)],
                       ">=", 0.0)
            ir.add_row(f"Lbd3[{k},{l}]",
                       [(L, 1.0), (xdnl, -ec), (x0l, ec), (lamk, 1.0),
                        (u1[l], d_eta * x_hi)],
                       ">=", 0.0)
            ir.add_row(f"Lbd4[{k},{l}]",
                       [(L, 1.0), (x0l, ec), (u2[l], -d_eta * x_hi)],
                       ">=", -d_eta * x_hi)


def build_soc_upper_exact(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                          gamma: float, y0: float) -> None:
    """Worst-case SOC upper bound of the exact model: ``build_soc_upper``
    plus K(K-1)/2 bilinear rows, or none for a lossless battery."""
    build_soc_upper(ir, params, grid, gamma, y0)
    if params.is_lossless:
        return
    K, ed = grid.K, params.eta_d
    x_lo, x_hi = params.x_min, params.x_max
    x0, xdn, lamu = (_family(ir, name, K) for name in ("x0", "x_dn", "lamu"))
    u1, u2 = _family(ir, "u1", K - 1), _family(ir, "u2", K - 1)
    for k in range(2, K + 1):
        for l in range(1, k):
            ir.add_bilinear(
                f"bil[{k},{l}]",
                quad=[(ir.var(f"Lamu[{k},{l}]"), xdn[l], 1.0),
                      (lamu[k], x0[l], 1.0)],
                linear=[(u2[l], -x_lo * (x_hi - x_lo) / ed),
                        (u1[l], x_hi ** 2 / (4 * ed))],
                sense=">=", rhs=0.0)


def build_restriction_rows(ir: ModelIR, params: StorageParams,
                           grid: TimeGrid) -> None:
    """Linear over-approximation of the bilinear rows via K-1 extra
    binaries that localize the budget dual against each x_dn bid."""
    ec, ed = params.eta_c, params.eta_d
    rt = ec * ed
    d_eta = params.specific_loss()
    K = grid.K
    x_lo, x_hi = params.x_min, params.x_max
    m_lo = (2.0 - rt) * x_hi - x_lo
    m_hi = rt * x_hi - x_lo
    u3 = [None] + [ir.add_variable(f"u3[{k}]", kind=BINARY, lower=0.0,
                                   upper=1.0)
                   for k in range(1, K)]
    x0, xdn = _family(ir, "x0", K), _family(ir, "x_dn", K)
    lamu = _family(ir, "lamu", K)
    u1, u2 = _family(ir, "u1", K - 1), _family(ir, "u2", K - 1)
    for k in range(1, K):
        x0k, xdnk, lamk = x0[k], xdn[k], lamu[k]
        ir.add_row(f"u3_lo[{k}]",
                   [(xdnk, 1.0), (x0k, -(1.0 - rt)), (lamk, -ed),
                    (u3[k], -m_lo)],
                   ">=", -m_lo)
        ir.add_row(f"u3_hi[{k}]",
                   [(xdnk, 1.0), (x0k, -(1.0 - rt)), (lamk, -ed),
                    (u3[k], -m_hi)],
                   "<=", 0.0)
        # sign rules of the case binaries, for a relax-and-fix start
        ir.add_indicator(u1[k], [(x0k, 1.0), (xdnk, -1.0)])
        ir.add_indicator(u2[k], [(x0k, -1.0)])
        ir.add_indicator(u3[k], [(xdnk, 1.0), (x0k, -(1.0 - rt)),
                                 (lamk, -ed)])
    for k in range(2, K + 1):
        lamk = lamu[k]
        for l in range(1, k):
            L, x0l = ir.var(f"Lamu[{k},{l}]"), x0[l]
            ir.add_row(f"res_a[{k},{l}]",
                       [(L, 1.0), (x0l, ec), (u1[l], d_eta * x_hi),
                        (u3[l], -d_eta * x_hi)],
                       ">=", -d_eta * x_hi)
            ir.add_row(f"res_b[{k},{l}]",
                       [(L, 1.0), (xdn[l], -1.0 / ed), (x0l, 1.0 / ed),
                        (lamk, 1.0), (u2[l], -d_eta * x_lo),
                        (u3[l], -d_eta * x_lo)],
                       ">=", 0.0)


def build_objective(ir: ModelIR, prices: PriceSeries, grid: TimeGrid,
                    fcr_enabled: bool) -> None:
    """Minimize negative revenue: day-ahead energy at per-interval prices
    plus FCR availability payments on the symmetric reserve bid."""
    # resolve every index first, so a missing variable leaves ir unchanged
    x0 = _family(ir, "x0", grid.K)
    xr = _family(ir, "xr", grid.K) if fcr_enabled else None
    da = prices.da_per_interval(grid)
    for k in range(1, grid.K + 1):
        ir.add_objective_term(x0[k], -da[k - 1] * MWH_PER_KWH * grid.dt_hours)
    if fcr_enabled:
        fcr = prices.fcr_per_interval(grid)
        for k in range(1, grid.K + 1):
            ir.add_objective_term(xr[k], -fcr[k - 1] * MWH_PER_KWH)


def add_market_coupling(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                        fcr_block: int, da_block: int,
                        symmetric: bool = True) -> None:
    """Tie reserve bids to a symmetric xr and hold bids constant over
    market blocks (default 4h FCR and 1h day-ahead blocks)."""
    K = grid.K
    if K % fcr_block != 0 or K % da_block != 0:
        raise ModelError("block lengths must divide the number of intervals")
    if symmetric:
        cap = min(params.x_max, -params.x_min)
        for k in range(1, K + 1):
            ir.add_variable(f"xr[{k}]", lower=0.0, upper=cap)
        for k in range(1, K + 1):
            ir.add_row(f"sym_up[{k}]",
                       [(ir.var(f"x_up[{k}]"), 1.0), (ir.var(f"xr[{k}]"), -1.0)],
                       "==", 0.0)
            ir.add_row(f"sym_dn[{k}]",
                       [(ir.var(f"x_dn[{k}]"), 1.0), (ir.var(f"xr[{k}]"), -1.0)],
                       "==", 0.0)
        reserve_names = ["xr"]
    else:
        reserve_names = ["x_up", "x_dn"]
    for name in reserve_names:
        for k in range(1, K + 1):
            first = ((k - 1) // fcr_block) * fcr_block + 1
            if k != first:
                ir.add_row(f"blk_{name}[{k}]",
                           [(ir.var(f"{name}[{k}]"), 1.0),
                            (ir.var(f"{name}[{first}]"), -1.0)],
                           "==", 0.0)
    for k in range(1, K + 1):
        first = ((k - 1) // da_block) * da_block + 1
        if k != first:
            ir.add_row(f"blk_x0[{k}]",
                       [(ir.var(f"x0[{k}]"), 1.0),
                        (ir.var(f"x0[{first}]"), -1.0)],
                       "==", 0.0)


def add_terminal_condition(ir: ModelIR, grid: TimeGrid, y0: float,
                           y_star: float) -> None:
    """Guaranteed terminal SOC: y0 - dt * sum_k alpha_k >= y_star."""
    coeffs = [(ir.var(f"alpha[{k}]"), -grid.dt_hours)
              for k in range(1, grid.K + 1)]
    ir.add_row("terminal_soc", coeffs, ">=", y_star - y0)


def build_intraday_power_bounds(ir: ModelIR, params: StorageParams,
                                grid: TimeGrid, gamma_prime: float,
                                Gamma_prime: float) -> None:
    """Tightened power bounds for intervals 2..K that reserve headroom
    for intraday buy-back of realized regulation energy.

    For each k < K the tightening on interval k+1 is the epigraph of
    (gamma'/dt) * lam_k + sum over the trailing window of
    [dt/(Gamma'-dt) * xr_i - lam_k]+.
    """
    if not is_multiple_of(gamma_prime, grid.dt_hours):
        raise DomainError("gamma_prime must be a multiple of dt")
    dt = grid.dt_hours
    K = grid.K
    xr = _family(ir, "xr", K)
    win = round(Gamma_prime / dt)  # window length Gamma'/dt in intervals
    rate = dt / (Gamma_prime - dt)
    scale = gamma_prime / dt
    for k in range(1, K):
        lam = ir.add_variable(f"idlam[{k}]", lower=0.0)
        lo = max(1, (k + 1) - win + 1)
        tight = [(lam, scale)]
        for i in range(lo, k + 1):
            w = ir.add_variable(f"w[{k},{i}]", lower=0.0)
            ir.add_row(f"w_epi[{k},{i}]",
                       [(w, 1.0), (xr[i], -rate), (lam, 1.0)],
                       ">=", 0.0)
            tight.append((w, 1.0))
        x0n = ir.var(f"x0[{k + 1}]")
        ir.add_row(f"pow_hi[{k + 1}]",
                   [(x0n, 1.0), (ir.var(f"x_up[{k + 1}]"), 1.0)] + tight,
                   "<=", params.x_max)
        ir.add_row(f"pow_lo[{k + 1}]",
                   [(x0n, 1.0), (ir.var(f"x_dn[{k + 1}]"), -1.0)]
                   + [(i, -c) for i, c in tight],
                   ">=", params.x_min)


def limited_arbitrage_rows(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                           budget: UncertaintyBudget,
                           fcr_block: int) -> None:
    """Cap day-ahead trading by the worst-case regulation energy the FCR
    bid can induce: |x0| energy within each FCR block is at most the
    block's deviation budget times its reserve bid."""
    dt = grid.dt_hours
    K = grid.K
    xr = _family(ir, "xr", K)
    cap_abs = max(params.x_max, -params.x_min)
    for k in range(1, K + 1):
        s = ir.add_variable(f"s[{k}]", lower=0.0, upper=cap_abs)
        ir.add_row(f"abs_pos[{k}]", [(s, 1.0), (ir.var(f"x0[{k}]"), -1.0)],
                   ">=", 0.0)
        ir.add_row(f"abs_neg[{k}]", [(s, 1.0), (ir.var(f"x0[{k}]"), 1.0)],
                   ">=", 0.0)
    gamma_block = budget.total_gamma(fcr_block * dt)
    for b in range(K // fcr_block):
        first = b * fcr_block + 1
        coeffs = [(ir.var(f"s[{k}]"), dt)
                  for k in range(first, first + fcr_block)]
        coeffs.append((xr[first], -gamma_block))
        ir.add_row(f"lim_arb_blk[{b + 1}]", coeffs, "<=", 0.0)


def split_arbitrage_lp(params: StorageParams, grid: TimeGrid, y0: float,
                       prices: PriceSeries, options: ModelOptions,
                       y0_high: float | None = None) -> ModelIR:
    """The arbitrage-only model with the bid split into charge
    ``c[k]`` and discharge ``d[k]`` (x0 = d - c) and the SOC change from
    ``y0`` carried by a state ``z[k]``: an LP with O(K) rows.

    Every point of the ``arbitrage_only`` variant maps to a
    complementary (c, d) with the same SOC path, so this LP's optimum
    bounds that model from below at any prices. Dropping the
    complementarity lets it charge and discharge at once, which pays
    only at negative prices (Li, Guo, Sun and Wang, IEEE Trans. Power
    Syst. 31(2), 2016). ``y0_high`` plays its role in
    ``dispatch_variant``: the start of the upper SOC bound.
    """
    ec, ed = params.eta_c, params.eta_d
    dt = grid.dt_hours
    K = grid.K
    y0_up = y0 if y0_high is None else y0_high
    da_block = options.da_block_len or 1
    if K % da_block != 0:
        raise ModelError("block lengths must divide the number of intervals")

    ir = ModelIR()
    for k in range(1, K + 1):
        ir.add_variable(f"c[{k}]", lower=0.0, upper=-params.x_min)
    for k in range(1, K + 1):
        ir.add_variable(f"d[{k}]", lower=0.0, upper=params.x_max)
    for k in range(1, K + 1):
        ir.add_variable(f"z[{k}]", lower=params.y_min - y0,
                        upper=params.y_max - y0_up)
    for k in range(1, K + 1):
        coeffs = [(ir.var(f"z[{k}]"), 1.0), (ir.var(f"c[{k}]"), -dt * ec),
                  (ir.var(f"d[{k}]"), dt / ed)]
        if k > 1:
            coeffs.append((ir.var(f"z[{k - 1}]"), -1.0))
        ir.add_row(f"soc[{k}]", coeffs, "==", 0.0)
    for k in range(1, K + 1):
        first = ((k - 1) // da_block) * da_block + 1
        if k != first:
            ir.add_row(f"blk_x0[{k}]",
                       [(ir.var(f"d[{k}]"), 1.0), (ir.var(f"c[{k}]"), -1.0),
                        (ir.var(f"d[{first}]"), -1.0),
                        (ir.var(f"c[{first}]"), 1.0)],
                       "==", 0.0)
    if options.terminal_soc_floor is not None:
        ir.add_row("terminal_soc", [(ir.var(f"z[{K}]"), 1.0)], ">=",
                   options.terminal_soc_floor - y0)
    da = prices.da_per_interval(grid)
    for k in range(1, K + 1):
        coeff = -da[k - 1] * MWH_PER_KWH * dt
        ir.add_objective_term(ir.var(f"d[{k}]"), coeff)
        ir.add_objective_term(ir.var(f"c[{k}]"), -coeff)
    return ir


def dispatch_variant(params: StorageParams, grid: TimeGrid,
                     budget: UncertaintyBudget, y0: float,
                     prices: PriceSeries, options: ModelOptions,
                     y0_high: float | None = None) -> ModelIR:
    """Assemble a full model for the requested variant.

    ``y0_high`` optionally decouples the initial SOC used by the upper
    SOC block (worst case when starting full) from ``y0`` (used by the
    lower block and terminal condition), for interval-valued starts.
    """
    if not (params.y_min - 1e-9 <= y0 <= params.y_max + 1e-9):
        raise DomainError("y0 outside SOC bounds")
    if options.variant == "lossless_lp" and not params.is_lossless:
        raise DomainError("lossless_lp requires eta_c = eta_d = 1")
    budget.validate_for_grid(grid)
    if options.intraday:
        if budget.kind != "rolling_window":
            raise DomainError("intraday variant requires a rolling-window budget")
        gamma = budget.gamma_prime
    else:
        gamma = budget.total_gamma(grid.T)
    y0_up = y0 if y0_high is None else y0_high

    ir = ModelIR()
    sell = options.variant != "no_sell_lp"
    add_bid_variables(ir, params, grid, sell_allowed=sell)
    if options.variant == "arbitrage_only":
        for k in range(1, grid.K + 1):
            ir.fix_variable(f"x_up[{k}]", 0.0)
            ir.fix_variable(f"x_dn[{k}]", 0.0)

    fcr_block = options.fcr_block_len or grid.K
    da_block = options.da_block_len or 1
    if options.fcr_enabled:
        add_market_coupling(ir, params, grid, fcr_block, da_block)
    elif options.da_block_len:
        add_market_coupling(ir, params, grid, grid.K, da_block,
                            symmetric=False)

    if options.intraday:
        build_power_bounds(ir, params, grid, intervals=[1])
        build_intraday_power_bounds(ir, params, grid, budget.gamma_prime,
                                    budget.Gamma_prime)
    else:
        build_power_bounds(ir, params, grid)

    variant = options.variant
    build_soc_lower(ir, params, grid, gamma, y0)
    upper = build_soc_upper_exact if variant == "exact" else build_soc_upper
    upper(ir, params, grid, gamma, y0_up)

    # lossless builds have no case binaries: their relaxation is exact
    has_cases = not params.is_lossless
    if variant == "restriction" and has_cases:
        build_restriction_rows(ir, params, grid)
    elif variant == "no_sell_lp" and has_cases:
        # with x0 <= 0 the worst case is always the pure-charge piece
        for k in range(1, grid.K):
            ir.fix_variable(f"u1[{k}]", 0.0)
            ir.fix_variable(f"u2[{k}]", 1.0)
    elif variant == "arbitrage_only" and has_cases:
        # with x_dn = 0 the case regions merge: u1 = 1 - u2 suffices,
        # leaving K-1 effective charge/discharge binaries
        for k in range(1, grid.K):
            u1 = ir.variables[ir.var(f"u1[{k}]")]
            u1.kind = CONTINUOUS
            ir.add_row(f"u_complement[{k}]",
                       [(ir.var(f"u1[{k}]"), 1.0), (ir.var(f"u2[{k}]"), 1.0)],
                       "==", 1.0)

    if options.terminal_soc_floor is not None:
        add_terminal_condition(ir, grid, y0, options.terminal_soc_floor)
    build_objective(ir, prices, grid, options.fcr_enabled)
    if options.limited_arbitrage:
        limited_arbitrage_rows(ir, params, grid, budget, fcr_block)
    return ir

