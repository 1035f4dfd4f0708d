"""Constraint generators for the robust bidding models.

Each builder appends rows and variables to a ModelIR. ``dispatch_variant``
assembles a full model: power bounds (plain or intraday-tightened), the
worst-case SOC lower and upper blocks, market-coupling rows, the terminal
SOC condition and the objective, then applies variant-specific surgery
(restriction rows, fixed or merged binaries). Only the ``exact`` variant
gets bilinear rows.
"""

from __future__ import annotations

import functools

import numpy as np

from .ir import (
    BINARY,
    CONTINUOUS,
    SENSES,
    ModelError,
    ModelIR,
    ModelOptions,
    RowArrays,
    _row_arrays,
)
from .types import (
    DomainError,
    PriceSeries,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
    is_multiple_of,
    recovery_window,
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
    _add_family(ir, "x0", grid.K, params.x_min, x0_hi)
    _add_family(ir, "x_up", grid.K, 0.0, span)
    _add_family(ir, "x_dn", grid.K, 0.0, span)


def build_power_bounds(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                       intervals=None) -> None:
    """x0_k + x_up_k <= x_max and x0_k - x_dn_k >= x_min."""
    k = np.arange(1, grid.K + 1) if intervals is None else np.array(intervals)
    x0, xup, xdn = (_family(ir, name, grid.K)
                    for name in ("x0", "x_up", "x_dn"))
    _add_rows(ir, (_keys(grid.K, k), [
        ("pow_hi", [x0[k], xup[k]], [1.0, 1.0], "<=", params.x_max),
        ("pow_lo", [x0[k], xdn[k]], [1.0, -1.0], ">=", params.x_min)]))


def _family(ir: ModelIR, name: str, n: int) -> np.ndarray:
    """Indices of ``name[1]..name[n]`` at positions 1..n (position 0
    holds -1), resolved once so that the O(K^2) blocks below look up no
    name per coefficient."""
    return np.array([-1] + [ir.var(name + key) for key in _keys(n)])


def _add_family(ir: ModelIR, name: str, n: int, lower=-np.inf,
                upper=np.inf, kind: str = CONTINUOUS) -> np.ndarray:
    """Add ``name[1]..name[n]``; indices as ``_family``."""
    names = [name + key for key in _keys(n)]
    return np.concatenate([[-1], ir.add_variables(names, lower, upper, kind)])


def _runs(n):
    """Index arrays (run, position) over runs of the lengths ``n``: for
    each entry, the run it is in and its position in that run."""
    run = np.repeat(np.arange(len(n)), n)
    return run, np.arange(run.size) - np.repeat(np.cumsum(n) - n, n)


def _pairs(K: int, first: int = 1, strict: bool = False):
    """Index arrays (k, l) over k = 1..K and l = first..k, or l < k when
    ``strict``, ordered by k and then l: the order of the O(K^2) blocks."""
    k, l = _runs(np.arange(1, K + 1) + (1 - first) - strict)
    return k + 1, l + first


def _block_starts(K: int, block: int):
    """Index arrays (k, first): each interval k = 1..K that does not open
    its market block of ``block`` intervals, and the one that does."""
    k = np.arange(1, K + 1)
    first = (k - 1) // block * block + 1
    return k[k != first], first[k != first]


@functools.cache
def _key_table(K: int) -> np.ndarray:
    """Name suffixes for indices up to K, read-only: ``[k]`` at (k, 0)
    and ``[k,l]`` at (k, l) for 1 <= l <= k <= K. It depends on K alone,
    so every build for K shares its strings."""
    k, l = _pairs(K, first=0)
    table = np.empty((K + 1, K + 1), dtype=object)
    table[k, l] = [f"[{a},{b}]" if b else f"[{a}]"
                   for a, b in zip(k.tolist(), l.tolist())]
    table.flags.writeable = False
    return table


def _keys(K: int, k=slice(1, None), l=0) -> list[str]:
    """Name suffixes ``[k]``, or ``[k,l]`` of index pairs, for indices up
    to K; ``[1]..[K]`` by default."""
    return _key_table(K)[k, l].tolist()


def _head_names(K: int, head: str, name: str, k, l) -> list[str]:
    """For index pairs (k, l): ``head[k]`` where l = 0, ``name[k,l]``
    elsewhere."""
    return [(name if b else head) + key
            for b, key in zip(l.tolist(), _keys(K, k, l))]


def _add_triangle(ir: ModelIR, head: str, name: str, K: int, head_bounds,
                  bounds) -> np.ndarray:
    """Add continuous ``head[k]`` and then ``name[k,1..k]`` for each k,
    with (lower, upper) bounds ``head_bounds`` and ``bounds``. Returns
    their indices as a table: ``name[k,l]`` at (k, l), ``head[k]`` at
    (k, 0) and -1 elsewhere."""
    k, l = _pairs(K, first=0)
    ir.add_variables(_head_names(K, head, name, k, l),
                     *(np.where(l == 0, h, b)
                       for h, b in zip(head_bounds, bounds)))
    return _triangle(ir, head, K)


def _triangle(ir: ModelIR, head: str, K: int) -> np.ndarray:
    """The index table of a triangle that ``_add_triangle`` added, found
    from the index of ``head[1]`` alone: it adds the whole triangle as
    one block of variables in pair order."""
    k, l = _pairs(K, first=0)
    table = np.full((K + 1, K + 1), -1)
    table[k, l] = _family(ir, head, 1)[1] + np.arange(k.size)
    return table


def _rows(*blocks) -> tuple[list[str], RowArrays]:
    """The rows of blocks (keys, families), in order, as their names and
    one ``RowArrays``. A block holds, for each key in turn, the row
    ``name + key`` of every family. A family is (name, columns,
    coefficients, sense, rhs): per term an index array with one entry
    per key (or a 2-D array, one column per term) and one coefficient.
    An index of -1 leaves its term out of that row. Keys None name no
    rows: the columns give their number. Blocks (groups, keys, families)
    give each key a group number; their rows are ordered by group and,
    within a group, by block."""
    names, parts, group = [], [], []
    for *groups, keys, families in blocks:
        col = np.column_stack([c for _, cols, *_ in families for c in cols])
        val = np.broadcast_to(np.concatenate([f[2] for f in families]),
                              col.shape)
        keep = col >= 0
        # terms kept per row and family, counted by a product with the
        # 0/1 matrix of terms to families: exact in floats, and several
        # times faster than np.add.reduceat over short runs of terms
        n_terms = keep @ np.repeat(np.eye(len(families)),
                                   [len(f[2]) for f in families], axis=0)
        shape = (len(col), len(families))
        if keys is not None:
            prefixes = [name for name, *_ in families]
            names += [name + key for key in keys for name in prefixes]
        group += [np.repeat(g, len(families)) for g in groups]
        parts.append((
            n_terms.astype(np.intp).ravel(), col[keep], val[keep],
            np.full(shape, [SENSES.index(f[3]) for f in families]).ravel(),
            np.full(shape, [f[4] for f in families]).ravel()))
    n_terms, col, val, sense, rhs = (parts[0] if len(parts) == 1 else
                                     map(np.concatenate, zip(*parts)))
    if group:
        # stable sorts keep the order of rows, and of terms, within a group
        group = np.concatenate(group)
        row = np.argsort(group, kind="stable")
        term = np.argsort(np.repeat(group, n_terms), kind="stable")
        names = [names[r] for r in row.tolist()]
        n_terms, sense, rhs = n_terms[row], sense[row], rhs[row]
        col, val = col[term], val[term]
    return names, _row_arrays(np.concatenate([[0], np.cumsum(n_terms)]),
                              col, val, sense, rhs)


def _add_rows(ir: ModelIR, *blocks) -> None:
    """Append the rows ``_rows(*blocks)``, if there are any."""
    if any(keys for *_, keys, _ in blocks):
        names, rows = _rows(*blocks)
        ir.add_rows(names, *rows)


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
    alpha = _add_family(ir, "alpha", K, lo, hi)
    beta = _add_family(ir, "beta", K, lo, hi)
    Laml = _add_triangle(ir, "laml", "Laml", K, (0.0, np.inf),
                         (0.0, np.inf))
    laml = Laml[:, 0]
    x0, xup = _family(ir, "x0", K), _family(ir, "x_up", K)
    k = np.arange(1, K + 1)
    _add_rows(ir, (_keys(K, k), [
        ("alpha_c", [alpha[k], x0[k]], [1.0, -ec], ">=", 0.0),
        ("alpha_d", [alpha[k], x0[k]], [1.0, -1.0 / ed], ">=", 0.0),
        ("beta_c", [beta[k], x0[k], xup[k]], [1.0, -ec, -ec], ">=", 0.0),
        ("beta_d", [beta[k], x0[k], xup[k]], [1.0, -1.0 / ed, -1.0 / ed],
         ">=", 0.0)]))
    # for each k the row soc_lo[k]: -gamma * laml[k], then -dt * (alpha[l]
    # + Laml[k,l]) for l = 1..k, the -1 entries of Laml leaving out the
    # terms for l > k; then the rows Laml_epi[k,1..k]
    L = Laml[k, 1:]
    body = np.stack([np.where(L < 0, -1, alpha[1:]), L], axis=2)
    kl, l = _pairs(K)
    _add_rows(
        ir, (k, _keys(K, k), [
            ("soc_lo", [laml[k], body.reshape(K, 2 * K)],
             [-gamma] + [-dt] * (2 * K), ">=", params.y_min - y0)]),
        (kl, _keys(K, kl, l), [
            ("Laml_epi", [Laml[kl, l], laml[kl], alpha[l], beta[l]],
             [1.0, 1.0, 1.0, -1.0], ">=", 0.0)]))


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
    Lamu = _add_triangle(ir, "lamu", "Lamu", K, (0.0, lam_cap),
                         (-np.inf, np.inf))
    lamu = Lamu[:, 0]
    # case-indicator binaries carry specific-loss offsets, so a lossless
    # battery needs none of them (the system is a plain LP block)
    with_cases = not params.is_lossless
    u1, u2 = np.full((2, K), -1)
    if with_cases:
        names = [u + key for key in _keys(K - 1) for u in ("u1", "u2")]
        u1[1:], u2[1:] = ir.add_variables(names, 0.0, 1.0,
                                          BINARY).reshape(-1, 2).T
    x0, xdn = _family(ir, "x0", K), _family(ir, "x_dn", K)

    k = np.arange(1, K + 1)
    diag = Lamu[k, k]
    _add_rows(ir, (_keys(K, k), [
        # the -1 entries of Lamu leave out Lamu[k,l] for l > k
        ("soc_hi", [lamu[k], Lamu[k, 1:]], [gamma] + [dt] * K, "<=",
         params.y_max - y0),
        ("Lamu_diag_b", [diag, x0[k]], [1.0, ec], ">=", 0.0),
        ("Lamu_diag_c", [diag, xdn[k], x0[k], lamu[k]], [1.0, -ec, ec, 1.0],
         ">=", 0.0),
        ("Lamu_diag_pos", [diag], [1.0], ">=", 0.0)]))

    # binary case indicators: u1_k = 1 iff x0_k >= x_dn_k, u2_k = 1 iff
    # x0_k <= 0
    if with_cases:
        k = np.arange(1, K)
        _add_rows(ir, (_keys(K, k), [
            ("u1_hi", [x0[k], xdn[k], u1[k]], [1.0, -1.0, -x_hi], "<=", 0.0),
            ("u1_lo", [x0[k], xdn[k], u1[k]], [1.0, -1.0, x_lo], ">=", x_lo),
            ("u2_hi", [x0[k], u2[k]], [1.0, x_hi], "<=", x_hi),
            ("u2_lo", [x0[k], u2[k]], [1.0, -x_lo], ">=", 0.0)]))

    # off-diagonal epigraph rows with the minimal valid big-M offsets;
    # at zero specific loss the offsets vanish (the -1 entries of u1 and
    # u2 leave out their terms), Lbd3/Lbd4 would repeat Lbd1/Lbd2, and
    # the epigraph is convex
    k, l = _pairs(K, strict=True)
    L, lamk, x0l, xdnl = Lamu[k, l], lamu[k], x0[l], xdn[l]
    families = [
        ("Lbd1", [L, xdnl, x0l, lamk, u1[l]],
         [1.0, -1.0 / ed, 1.0 / ed, 1.0, d_eta * x_lo], ">=", d_eta * x_lo),
        ("Lbd2", [L, x0l, u2[l]], [1.0, 1.0 / ed, -d_eta * x_lo], ">=", 0.0)]
    if with_cases:
        families += [
            ("Lbd3", [L, xdnl, x0l, lamk, u1[l]],
             [1.0, -ec, ec, 1.0, d_eta * x_hi], ">=", 0.0),
            ("Lbd4", [L, x0l, u2[l]], [1.0, ec, -d_eta * x_hi], ">=",
             -d_eta * x_hi)]
    _add_rows(ir, (_keys(K, k, l), families))


def build_soc_upper_exact(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                          gamma: float, y0: float) -> None:
    """Worst-case SOC upper bound of the exact model: ``build_soc_upper``
    plus K(K-1)/2 bilinear rows, or none for a lossless battery."""
    build_soc_upper(ir, params, grid, gamma, y0)
    if params.is_lossless:
        return
    K, ed = grid.K, params.eta_d
    x_lo, x_hi = params.x_min, params.x_max
    x0, xdn = _family(ir, "x0", K), _family(ir, "x_dn", K)
    Lamu = _triangle(ir, "lamu", K)
    u1, u2 = _family(ir, "u1", K - 1), _family(ir, "u2", K - 1)
    k, l = _pairs(K, strict=True)
    for a, b, key in zip(k.tolist(), l.tolist(), _keys(K, k, l)):
        ir.add_bilinear(
            "bil" + key,
            quad=[(Lamu[a, b], xdn[b], 1.0), (Lamu[a, 0], x0[b], 1.0)],
            linear=[(u2[b], -x_lo * (x_hi - x_lo) / ed),
                    (u1[b], x_hi ** 2 / (4 * ed))],
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
    u3 = _add_family(ir, "u3", K - 1, 0.0, 1.0, BINARY)
    x0, xdn = _family(ir, "x0", K), _family(ir, "x_dn", K)
    lamu = _family(ir, "lamu", K)
    u1, u2 = _family(ir, "u1", K - 1), _family(ir, "u2", K - 1)
    k = np.arange(1, K)
    _add_rows(ir, (_keys(K, k), [
        ("u3_lo", [xdn[k], x0[k], lamu[k], u3[k]],
         [1.0, -(1.0 - rt), -ed, -m_lo], ">=", -m_lo),
        ("u3_hi", [xdn[k], x0[k], lamu[k], u3[k]],
         [1.0, -(1.0 - rt), -ed, -m_hi], "<=", 0.0)]))
    # sign rules of the case binaries, for a relax-and-fix start
    _, rules = _rows((None, [
        ("u1", [x0[k], xdn[k]], [1.0, -1.0], ">=", 0.0),
        ("u2", [x0[k]], [-1.0], ">=", 0.0),
        ("u3", [xdn[k], x0[k], lamu[k]], [1.0, -(1.0 - rt), -ed], ">=",
         0.0)]))
    ir.add_indicators(np.column_stack([u1[k], u2[k], u3[k]]).ravel(),
                      rules.ptr, rules.col, rules.val)
    k, l = _pairs(K, strict=True)
    L = _triangle(ir, "lamu", K)[k, l]
    _add_rows(ir, (_keys(K, k, l), [
        ("res_a", [L, x0[l], u1[l], u3[l]],
         [1.0, ec, d_eta * x_hi, -d_eta * x_hi], ">=", -d_eta * x_hi),
        ("res_b", [L, xdn[l], x0[l], lamu[k], u2[l], u3[l]],
         [1.0, -1.0 / ed, 1.0 / ed, 1.0, -d_eta * x_lo, -d_eta * x_lo],
         ">=", 0.0)]))


def case_cuts(ir: ModelIR, params: StorageParams,
              grid: TimeGrid) -> RowArrays:
    """Two families of valid inequalities for a model with ``u2`` case
    binaries, as K(K-1) rows ``>= 0`` in CSR form over ``ir``'s columns:
    first, for each pair 1 <= l < k <= K in ``_pairs`` order,

        (A)  Lamu[k,l] + alpha[l] >= 0,

    then, in the same order,

        (B)  Lamu[k,l] + (1/(eta_c*eta_d) - 1) * Lamu[l,l] + x0[l]/eta_d
             >= 0.

    Both hold at every point of the model where ``u2[l]`` is integral.
    ``build_soc_lower`` gives alpha[l] >= eta_c*x0[l] and alpha[l] >=
    x0[l]/eta_d, and ``build_soc_upper`` gives Lamu[l,l] >= -eta_c*x0[l]
    (``Lamu_diag_b``) and Lamu[l,l] >= 0 (``Lamu_diag_pos``). Write L
    for Lamu[k,l], x for x0[l] and D for Lamu[l,l].

    - u2 = 1: ``u2_hi`` gives x <= 0, and ``Lbd4`` gives L >= -eta_c*x.
      Then L + alpha >= -eta_c*x + eta_c*x = 0, which is (A). With
      c = 1/(eta_c*eta_d) - 1 >= 0 (both efficiencies lie in (0, 1]),
      c*D >= -c*eta_c*x = -(1/eta_d - eta_c)*x, so
      L + c*D + x/eta_d >= (-eta_c - 1/eta_d + eta_c + 1/eta_d)*x = 0,
      which is (B).
    - u2 = 0: ``u2_lo`` gives x >= 0, and ``Lbd2`` gives L >= -x/eta_d.
      Then L + alpha >= -x/eta_d + x/eta_d = 0, which is (A), and
      L + x/eta_d >= 0 with c*D >= 0 gives (B).

    They are disjunctive cuts of each interval's ``u2`` disjunction
    (Balas, Discrete Appl. Math. 89, 1998): they cut points of the LP
    relaxation with fractional ``u2`` and no point with integral ``u2``.
    ``dispatch_variant`` attaches them to a lossy restriction as its
    ``cuts``, not as model rows; ``solve`` adds them to the LP that
    bounds the model's optimum.
    """
    ec, ed = params.eta_c, params.eta_d
    K = grid.K
    Lamu = _triangle(ir, "lamu", K)
    alpha, x0 = _family(ir, "alpha", K), _family(ir, "x0", K)
    k, l = _pairs(K, strict=True)
    L = Lamu[k, l]
    return _rows(
        (None, [("cut_a", [L, alpha[l]], [1.0, 1.0], ">=", 0.0)]),
        (None, [("cut_b", [L, Lamu[l, l], x0[l]],
                 [1.0, 1.0 / (ec * ed) - 1.0, 1.0 / ed], ">=", 0.0)]))[1]


def build_objective(ir: ModelIR, prices: PriceSeries, grid: TimeGrid,
                    fcr_enabled: bool) -> None:
    """Minimize negative revenue: day-ahead energy at per-interval prices
    plus FCR availability payments on the symmetric reserve bid."""
    # resolve every index first, so a missing variable leaves ir unchanged
    x0 = _family(ir, "x0", grid.K)
    xr = _family(ir, "xr", grid.K) if fcr_enabled else None
    ir.cost[x0[1:]] = (-prices.da_per_interval(grid) * MWH_PER_KWH
                       * grid.dt_hours)
    if fcr_enabled:
        ir.cost[xr[1:]] = -prices.fcr_per_interval(grid) * MWH_PER_KWH


def add_market_coupling(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                        fcr_block: int, da_block: int,
                        symmetric: bool = True) -> None:
    """Tie reserve bids to a symmetric xr and hold bids constant over
    market blocks (default 4h FCR and 1h day-ahead blocks)."""
    K = grid.K
    if K % fcr_block != 0 or K % da_block != 0:
        raise ModelError("block lengths must divide the number of intervals")
    if symmetric:
        xr = _add_family(ir, "xr", K, 0.0, min(params.x_max, -params.x_min))
        x_up, x_dn = _family(ir, "x_up", K), _family(ir, "x_dn", K)
        k = np.arange(1, K + 1)
        _add_rows(ir, (_keys(K, k), [
            ("sym_up", [x_up[k], xr[k]], [1.0, -1.0], "==", 0.0),
            ("sym_dn", [x_dn[k], xr[k]], [1.0, -1.0], "==", 0.0)]))
        blocks = [("xr", fcr_block)]
    else:
        blocks = [("x_up", fcr_block), ("x_dn", fcr_block)]
    for name, block in blocks + [("x0", da_block)]:
        bid = _family(ir, name, K)
        k, first = _block_starts(K, block)
        _add_rows(ir, (_keys(K, k), [
            (f"blk_{name}", [bid[k], bid[first]], [1.0, -1.0], "==", 0.0)]))


def add_terminal_condition(ir: ModelIR, grid: TimeGrid, y0: float,
                           y_star: float) -> None:
    """Guaranteed terminal SOC: y0 - dt * sum_k alpha_k >= y_star."""
    coeffs = [(i, -grid.dt_hours)
              for i in _family(ir, "alpha", grid.K)[1:].tolist()]
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
    dt = grid.dt_hours
    if not is_multiple_of(gamma_prime, dt):
        raise DomainError("gamma_prime must be a multiple of dt")
    win = recovery_window(Gamma_prime, grid)
    K = grid.K
    xr, x0, xup, xdn = (_family(ir, name, K)
                        for name in ("xr", "x0", "x_up", "x_dn"))
    rate = dt / (Gamma_prime - dt)
    scale = gamma_prime / dt
    # for each k < K: idlam[k], then w[k,i] for the n = min(k, win - 1)
    # intervals i <= k in the trailing window of interval k+1
    k = np.arange(1, K)
    n = np.minimum(k, win - 1)
    run, j = _runs(n + 1)
    e = j > 0
    kk, i = run + 1, np.where(e, run + 1 - n[run] + j, 0)
    idx = ir.add_variables(_head_names(K, "idlam", "w", kk, i),
                           lower=0.0)
    lam = np.concatenate([[-1], idx[~e]])
    ke, ie, we = kk[e], i[e], idx[e]
    # w[k,i] at (k, i - k + win - 2): each window right-aligned
    w = np.full((K, win - 1), -1)
    w[ke, ie - ke + win - 2] = we
    tight = [lam[k], w[k]]
    _add_rows(
        ir, (ke, _keys(K, ke, ie), [
            ("w_epi", [we, xr[ie], lam[ke]], [1.0, -rate, 1.0], ">=", 0.0)]),
        (k, _keys(K, k + 1), [
            ("pow_hi", [x0[k + 1], xup[k + 1], *tight],
             [1.0, 1.0, scale] + [1.0] * (win - 1), "<=", params.x_max),
            ("pow_lo", [x0[k + 1], xdn[k + 1], *tight],
             [1.0, -1.0, -scale] + [-1.0] * (win - 1), ">=", params.x_min)]))


def limited_arbitrage_rows(ir: ModelIR, params: StorageParams, grid: TimeGrid,
                           budget: UncertaintyBudget,
                           fcr_block: int) -> None:
    """Cap day-ahead trading by the worst-case regulation energy the FCR
    bid can induce: |x0| energy within each FCR block is at most the
    block's deviation budget times its reserve bid."""
    dt = grid.dt_hours
    K = grid.K
    xr, x0 = _family(ir, "xr", K), _family(ir, "x0", K)
    s = _add_family(ir, "s", K, 0.0, max(params.x_max, -params.x_min))
    k = np.arange(1, K + 1)
    _add_rows(ir, (_keys(K, k), [
        ("abs_pos", [s[k], x0[k]], [1.0, -1.0], ">=", 0.0),
        ("abs_neg", [s[k], x0[k]], [1.0, 1.0], ">=", 0.0)]))
    gamma_block = budget.total_gamma(fcr_block * dt)
    b = np.arange(1, K // fcr_block + 1)
    first = (b - 1) * fcr_block + 1
    _add_rows(ir, (_keys(K, b), [
        ("lim_arb_blk", [*(s[first + i] for i in range(fcr_block)),
                         xr[first]], [dt] * fcr_block + [-gamma_block],
         "<=", 0.0)]))


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
    c = _add_family(ir, "c", K, 0.0, -params.x_min)
    d = _add_family(ir, "d", K, 0.0, params.x_max)
    z = _add_family(ir, "z", K, params.y_min - y0, params.y_max - y0_up)
    k = np.arange(1, K + 1)
    # z[0] is -1: soc[1] has no previous state
    _add_rows(ir, (_keys(K, k), [
        ("soc", [z[k], c[k], d[k], z[k - 1]], [1.0, -dt * ec, dt / ed, -1.0],
         "==", 0.0)]))
    k, first = _block_starts(K, da_block)
    _add_rows(ir, (_keys(K, k), [
        ("blk_x0", [d[k], c[k], d[first], c[first]], [1.0, -1.0, -1.0, 1.0],
         "==", 0.0)]))
    if options.terminal_soc_floor is not None:
        ir.add_row("terminal_soc", [(z[K], 1.0)], ">=",
                   options.terminal_soc_floor - y0)
    ir.cost[d[1:]] = -prices.da_per_interval(grid) * MWH_PER_KWH * dt
    ir.cost[c[1:]] = -ir.cost[d[1:]]
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
        for key in _keys(grid.K):
            ir.fix_variable("x_up" + key, 0.0)
            ir.fix_variable("x_dn" + key, 0.0)

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
        ir.cuts = case_cuts(ir, params, grid)
    elif variant == "no_sell_lp" and has_cases:
        # with x0 <= 0 the worst case is always the pure-charge piece
        for key in _keys(grid.K - 1):
            ir.fix_variable("u1" + key, 0.0)
            ir.fix_variable("u2" + key, 1.0)
    elif variant == "arbitrage_only" and has_cases:
        # with x_dn = 0 the case regions merge: u1 = 1 - u2 suffices,
        # leaving K-1 effective charge/discharge binaries
        k = np.arange(1, grid.K)
        u1, u2 = _family(ir, "u1", grid.K - 1), _family(ir, "u2", grid.K - 1)
        ir.binary[u1[k]] = False
        _add_rows(ir, (_keys(grid.K, k), [
            ("u_complement", [u1[k], u2[k]], [1.0, 1.0], "==", 1.0)]))

    if options.terminal_soc_floor is not None:
        add_terminal_condition(ir, grid, y0, options.terminal_soc_floor)
    build_objective(ir, prices, grid, options.fcr_enabled)
    if options.limited_arbitrage:
        limited_arbitrage_rows(ir, params, grid, budget, fcr_block)
    return ir

