import runpy
from pathlib import Path

import storagebid.soc as soc
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from storagebid.types import (
    AlignmentError,
    BidSchedule,
    DomainError,
    RegulationSignal,
    StorageParams,
    TimeGrid,
    default_initial_soc,
    sigma,
    sigma_vector,
)
from storagebid.soc import (
    FeasibilityReport,
    alpha_beta,
    brute_force_max_soc,
    brute_force_min_soc,
    check_feasibility,
    max_soc_at_time,
    max_soc_estimate,
    max_soc_over_interval,
    min_soc_at_boundaries,
    phi,
    phi_lower_values,
    phi_upper_values,
    phi_values,
    power_output,
    simulate_soc,
    soc_rate,
)

ETA = 0.85
GRID2 = TimeGrid(dt_hours=1.0, K=2)
PARAMS2 = StorageParams(x_min=-5.0, x_max=5.0, y_min=0.0, y_max=100.0,
                        eta_c=ETA, eta_d=ETA)
BIDS2 = BidSchedule(x0=np.array([1.0, 0.5]), x_up=np.zeros(2),
                    x_dn=np.array([2.5, 3.5]))


def ordered_sum(values):
    """Sum left to right, the order of the oracles' interval sums."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def small_battery():
    return StorageParams(x_min=-2.0, x_max=2.0, y_min=0.0, y_max=6.0,
                         eta_c=0.9, eta_d=0.9)


class TestPowerOutput:
    def test_signs(self):
        assert power_output(1.0, 2.0, 3.0, 0.0) == 1.0
        assert power_output(1.0, 2.0, 3.0, 0.5) == 2.0
        assert power_output(1.0, 2.0, 3.0, -0.5) == -0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            power_output(0.0, -1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            power_output(0.0, 1.0, 1.0, 1.5)


class TestSimulate:
    def test_lossless_roundtrip(self):
        grid = TimeGrid(dt_hours=1.0, K=2)
        p = StorageParams(x_min=-2, x_max=2, y_min=0, y_max=10,
                          eta_c=1.0, eta_d=1.0)
        bids = BidSchedule(x0=np.array([-1.0, 1.0]), x_up=np.zeros(2),
                           x_dn=np.zeros(2))
        traj = simulate_soc(bids, RegulationSignal.constant(0.0, grid), p, grid, 5.0)
        assert traj.terminal == pytest.approx(5.0)
        assert traj.value_at(1.0) == pytest.approx(6.0)

    def test_charging_loss(self):
        grid = TimeGrid(dt_hours=1.0, K=1)
        p = small_battery()
        bids = BidSchedule(x0=np.array([-1.0]), x_up=np.zeros(1), x_dn=np.zeros(1))
        traj = simulate_soc(bids, RegulationSignal.constant(0.0, grid), p, grid, 1.0)
        assert traj.terminal == pytest.approx(1.0 + 0.9)

    def test_discharging_loss(self):
        grid = TimeGrid(dt_hours=1.0, K=1)
        p = small_battery()
        bids = BidSchedule(x0=np.array([1.0]), x_up=np.zeros(1), x_dn=np.zeros(1))
        traj = simulate_soc(bids, RegulationSignal.constant(0.0, grid), p, grid, 3.0)
        assert traj.terminal == pytest.approx(3.0 - 1.0 / 0.9)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(deadline=None)
    def test_symmetry_dominance(self, xi):
        # a pure downregulation signal of the same magnitude yields a
        # pointwise SOC at least as high as any signal of that magnitude
        grid = TimeGrid(dt_hours=0.5, K=2)
        p = small_battery()
        bids = BidSchedule(x0=np.array([0.3, -0.2]),
                           x_up=np.array([1.0, 1.0]), x_dn=np.array([1.0, 1.0]))
        base = simulate_soc(bids, RegulationSignal.constant(xi, grid), p, grid, 3.0)
        down = simulate_soc(bids, RegulationSignal.constant(-abs(xi), grid),
                            p, grid, 3.0)
        assert np.all(down.values >= base.values - 1e-9)


class TestPhi:
    def test_zero_bid_zero(self):
        assert phi(0.0, 0.0, 0.0, PARAMS2) == 0.0

    def test_piece_values(self):
        # pure charge region: phi(0.5, 3.5, 2.125) from the second
        # interval of the reference example
        v = phi(0.5, 3.5, 2.125, PARAMS2)
        assert v == pytest.approx(ETA * 3.0 - 2.125)

    def test_ratio_piece(self):
        # at lam = x_dn/eta_d the ratio piece is active for interval 1
        lam = 2.5 / ETA
        assert phi(1.0, 2.5, lam, PARAMS2) == pytest.approx(-1.0 / ETA)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi(0.0, -1.0, 0.0, PARAMS2)
        with pytest.raises(DomainError):
            phi(0.0, 1.0, -1.0, PARAMS2)

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(deadline=None)
    def test_convex_nonincreasing_in_lam(self, x0, x_dn, lam_a, lam_b):
        p = small_battery()
        lo, hi = sorted((lam_a, lam_b))
        v_lo = phi(x0, x_dn, lo, p)
        v_hi = phi(x0, x_dn, hi, p)
        assert v_hi <= v_lo + 1e-9
        v_mid = phi(x0, x_dn, 0.5 * (lo + hi), p)
        assert v_mid <= 0.5 * (v_lo + v_hi) + 1e-9

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(deadline=None)
    def test_bracketing_estimates(self, x0, x_dn, lam):
        p = small_battery()
        v = phi_values(np.array([x0]), np.array([x_dn]), lam, p)[0]
        lo = phi_lower_values(np.array([x0]), np.array([x_dn]), lam, p)[0]
        hi = phi_upper_values(np.array([x0]), np.array([x_dn]), lam, p)[0]
        assert lo - 1e-9 <= v <= hi + 1e-9


class TestTwoIntervalExample:
    """Frozen values for the worked two-interval instance: y0 = 0,
    eta = 0.85, gamma = dt = 1h, x0 = (1, 0.5), x_dn = (2.5, 3.5)."""

    def test_max_at_first_boundary(self):
        r = max_soc_at_time(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 1.0)
        assert r.value == pytest.approx(1.275, abs=1e-9)

    def test_max_over_second_interval(self):
        r = max_soc_over_interval(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 2)
        assert r.value == pytest.approx(1.53, abs=1e-9)
        assert r.lambda_star == pytest.approx(2.55, abs=1e-9)
        # peak strictly inside the interval, at budget exhaustion
        assert r.t_star == pytest.approx(1.6, abs=1e-6)
        np.testing.assert_allclose(r.witness_xi, [0.4, 1.0], atol=1e-6)

    def test_max_at_horizon_end(self):
        r = max_soc_at_time(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 2.0)
        assert r.value == pytest.approx(-1 / ETA + ETA * 3.0, abs=1e-9)

    def test_peak_profile_interior(self):
        # the fixed-time maximum rises to t = 1.6 and falls afterwards
        ts = np.linspace(1.0, 2.0, 21)
        vals = [max_soc_at_time(BIDS2, PARAMS2, GRID2, 1.0, 0.0, t).value
                for t in ts]
        assert int(np.argmax(vals)) == 12  # t = 1.6
        assert vals[12] == pytest.approx(1.53, abs=1e-9)

    def test_witness_resimulates(self):
        r = max_soc_over_interval(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 2)
        traj = simulate_soc(BIDS2, r.to_signal(GRID2), PARAMS2, GRID2, 0.0)
        assert traj.max() == pytest.approx(r.value, abs=1e-6)
        assert r.to_signal(GRID2).abs_integral() <= 1.0 + 1e-9

    @pytest.mark.parametrize("period", [0.3, 0.4])
    def test_witness_refuses_a_period_that_does_not_divide_dt(self, period):
        # round(1 / period) samples of 1 h would hold 1.06 h or 1.12 h of
        # deviation, more than the 1 h budget
        r = max_soc_over_interval(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 2)
        with pytest.raises(AlignmentError, match="does not divide dt"):
            r.to_signal(GRID2, period)

    def test_brute_force_agreement(self):
        bf = brute_force_max_soc(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 2, m=50)
        assert bf == pytest.approx(1.53, abs=1e-9)

    def test_first_interval(self):
        r = max_soc_over_interval(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 1)
        assert r.value == pytest.approx(1.275, abs=1e-9)
        bf = brute_force_max_soc(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 1, m=50)
        assert bf == pytest.approx(1.275, abs=1e-9)

    def test_demo_script_runs(self, capsys):
        # demos/worst_case_curve.py traces this instance
        demo = Path(__file__).resolve().parents[1] / "demos" / \
            "worst_case_curve.py"
        runpy.run_path(str(demo), run_name="__main__")
        out = capsys.readouterr().out
        assert "peak over interval 2: 1.530000 kWh at t = 1.600 h" in out
        assert "grid-enumeration check (m = 50): 1.530000 kWh" in out


class TestMinSoc:
    def test_matches_brute_force(self):
        grid = TimeGrid(dt_hours=1.0, K=2)
        p = PARAMS2
        bids = BidSchedule(x0=np.array([1.0, 0.5]), x_up=np.array([2.0, 3.0]),
                           x_dn=np.zeros(2))
        r = min_soc_at_boundaries(bids, p, grid, 1.0, 10.0, 2)
        bf = brute_force_min_soc(bids, p, grid, 1.0, 10.0, 2, m=50)
        assert r.value == pytest.approx(bf, abs=1e-9)
        traj = simulate_soc(bids, r.to_signal(grid), p, grid, 10.0)
        assert traj.value_at(2.0) == pytest.approx(r.value, abs=1e-6)

    def test_no_upregulation(self):
        grid = TimeGrid(dt_hours=1.0, K=2)
        bids = BidSchedule(x0=np.array([1.0, -1.0]), x_up=np.zeros(2),
                           x_dn=np.zeros(2))
        r = min_soc_at_boundaries(bids, PARAMS2, grid, 1.0, 10.0, 2)
        traj = simulate_soc(bids, RegulationSignal.constant(0.0, grid),
                            PARAMS2, grid, 10.0)
        assert r.value == pytest.approx(traj.value_at(2.0), abs=1e-9)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=40)
    def test_random_agreement(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(dt_hours=0.5, K=3)
        p = small_battery()
        x0 = rng.uniform(-1.0, 1.0, 3)
        x_up = rng.uniform(0.0, 1.0, 3)
        bids = BidSchedule(x0=x0, x_up=x_up, x_dn=np.zeros(3))
        gamma = 0.5
        r = min_soc_at_boundaries(bids, p, grid, gamma, 4.0, 3)
        bf = brute_force_min_soc(bids, p, grid, gamma, 4.0, 3, m=20)
        # brute-force grid can only reach values >= the true minimum
        assert r.value <= bf + 1e-9
        assert bf - r.value <= 0.2  # Lipschitz * grid resolution


class TestMaxSocRandom:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=40)
    def test_oracle_vs_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(dt_hours=0.5, K=3)
        p = small_battery()
        x0 = rng.uniform(-1.0, 1.0, 3)
        x_dn = rng.uniform(0.0, 1.5, 3)
        bids = BidSchedule(x0=x0, x_up=np.zeros(3), x_dn=x_dn)
        gamma = 0.5
        k = int(rng.integers(1, 4))
        r = max_soc_over_interval(bids, p, grid, gamma, 3.0, k)
        bf = brute_force_max_soc(bids, p, grid, gamma, 3.0, k, m=20)
        assert bf <= r.value + 1e-9
        assert r.value - bf <= 0.3

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=40)
    def test_oracle_vs_brute_force_outside_power_limits(self, seed):
        # every interval breaks both power limits (x0 + x_up > x_max and
        # x0 - x_dn < x_min); the oracle stays exact there
        rng = np.random.default_rng(seed)
        grid = TimeGrid(dt_hours=0.5, K=3)
        p = small_battery()
        bids = BidSchedule(x0=rng.uniform(-1.0, 1.0, 3),
                           x_up=rng.uniform(3.5, 5.0, 3),
                           x_dn=rng.uniform(3.5, 5.0, 3))
        assert np.all(bids.x0 + bids.x_up > p.x_max)
        assert np.all(bids.x0 - bids.x_dn < p.x_min)
        gamma = 0.5
        k = int(rng.integers(1, 4))
        r = max_soc_over_interval(bids, p, grid, gamma, 3.0, k)
        bf = brute_force_max_soc(bids, p, grid, gamma, 3.0, k, m=20)
        assert bf <= r.value + 1e-9
        assert r.value - bf <= 0.3

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=40)
    # seed 122181: phi_2 at its hinge root evaluates to 5.6e-17, which
    # once put the peak at the end of interval 2 instead of its start
    @example(122181)
    def test_witness_achieves_value(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(dt_hours=0.5, K=3)
        p = small_battery()
        bids = BidSchedule(x0=rng.uniform(-1.0, 1.0, 3), x_up=np.zeros(3),
                           x_dn=rng.uniform(0.0, 1.5, 3))
        k = int(rng.integers(1, 4))
        r = max_soc_over_interval(bids, p, grid, 0.5, 3.0, k)
        sig = r.to_signal(grid)
        assert sig.abs_integral() <= 0.5 + 1e-9  # witness respects the budget
        traj = simulate_soc(bids, sig, p, grid, 3.0)
        # the oracle value is the maximum within interval k; the sampled
        # witness may fall short by at most one sample worth of charging
        mask = (traj.times >= (k - 1) * 0.5 - 1e-12) & (traj.times <= k * 0.5 + 1e-12)
        achieved = traj.values[mask].max()
        eps = sig.sample_period_hours * (np.max(np.abs(bids.x0))
                                         + np.max(bids.x_dn)) / p.eta_d
        assert achieved <= r.value + 1e-9
        assert achieved >= r.value - eps

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=60)
    def test_greedy_witness_and_peak_identities(self, seed):
        # the greedy witness attains the dual value at any time within
        # budget, and the interval maximum is attained at t_star
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 6))
        grid = TimeGrid(dt_hours=float(rng.choice([0.25, 0.5, 1.0])), K=K)
        eta = rng.uniform(0.7, 1.0, 2)
        p = StorageParams(x_min=-2.0, x_max=2.0, y_min=0.0, y_max=6.0,
                          eta_c=eta[0], eta_d=eta[1])
        bids = BidSchedule(x0=rng.uniform(-1.0, 1.0, K), x_up=np.zeros(K),
                           x_dn=rng.uniform(0.0, 1.0, K))
        gamma = grid.dt_hours * int(rng.integers(1, K + 1))
        y0 = 3.0
        t = float(rng.uniform(0.0, grid.T))
        r = max_soc_at_time(bids, p, grid, gamma, y0, t)
        sig = sigma_vector(grid, t)
        assert sig @ r.witness_xi <= gamma + 1e-12
        assert np.all((r.witness_xi >= 0.0) & (r.witness_xi <= 1.0))
        gain = sig @ soc_rate(bids.x0 - bids.x_dn * r.witness_xi, p)
        assert gain == pytest.approx(r.value - y0, abs=1e-9)
        k = int(rng.integers(1, K + 1))
        over = max_soc_over_interval(bids, p, grid, gamma, y0, k)
        assert (k - 1) * grid.dt_hours <= over.t_star <= k * grid.dt_hours
        at_peak = max_soc_at_time(bids, p, grid, gamma, y0, over.t_star)
        assert at_peak.value == pytest.approx(over.value, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=60)
    def test_dual_equals_per_candidate_loop(self, seed):
        # the oracles evaluate every candidate multiplier of the day in one
        # broadcast and sum in interval order; a loop over the same
        # candidates, summing left to right, is the reference, hence
        # bit-identical
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 25))
        dt = float(rng.choice([0.25, 0.5, 1.0]))
        grid = TimeGrid(dt_hours=dt, K=K)
        eta = (1.0, 1.0) if rng.random() < 0.3 else rng.uniform(0.7, 1.0, 2)
        p = StorageParams(x_min=-2.0, x_max=2.0, y_min=0.0, y_max=6.0,
                          eta_c=eta[0], eta_d=eta[1])
        x0 = rng.uniform(-1.0, 1.0, K)
        bids = BidSchedule(x0=x0, x_up=rng.uniform(0.0, 1.0, K),
                           x_dn=rng.uniform(0.0, 1.0, K))
        gamma, y0 = float(rng.uniform(0.0, grid.T)), 3.0
        t = float(rng.uniform(1e-9, grid.T))
        k = grid.interval_of(t)
        sig_k = t - (k - 1) * dt
        x_dn = bids.x_dn
        vals = []
        for lam in np.unique(np.concatenate([[0.0], p.eta_c * x_dn,
                                             x_dn / p.eta_d])):
            v = phi_values(x0, x_dn, lam, p)
            vals.append(gamma * lam + dt * ordered_sum(v[:k - 1])
                        + sig_k * v[k - 1])
        r = max_soc_at_time(bids, p, grid, gamma, y0, t)
        assert r.value == y0 + min(vals)
        alpha, beta = alpha_beta(bids, p)
        diffs = beta - alpha
        vals = [y0 - gamma * lam - dt * ordered_sum(
                    alpha[:k] + np.maximum(diffs[:k] - lam, 0.0))
                for lam in np.unique(np.concatenate([[0.0],
                                                     diffs[diffs > 0]]))]
        lo = min_soc_at_boundaries(bids, p, grid, gamma, y0, k)
        assert lo.value == max(vals)

    def test_monotone_in_time(self):
        # fixed-time maxima over successive boundaries never decrease by
        # more than feasible discharge allows; and over-interval max
        # dominates the fixed-time values inside the interval
        for t in (1.2, 1.5, 1.9):
            at_t = max_soc_at_time(BIDS2, PARAMS2, GRID2, 1.0, 0.0, t).value
            over = max_soc_over_interval(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 2).value
            assert at_t <= over + 1e-9

    @pytest.mark.parametrize("x0_first", [0.0, 1.0])
    def test_first_interval_that_never_rises_peaks_at_zero(self, x0_first):
        # with x_dn[0] = 0 and x0[0] >= 0 no signal raises the SOC over
        # interval 1: its maximum is y0 at t = 0, with an idle witness
        bids = BidSchedule(x0=np.array([x0_first, 0.5]), x_up=np.zeros(2),
                           x_dn=np.array([0.0, 3.5]))
        r = max_soc_over_interval(bids, PARAMS2, GRID2, 1.0, 3.0, 1)
        assert r.t_star == 0.0
        assert r.value == 3.0
        np.testing.assert_array_equal(r.witness_xi, np.zeros(2))


def interval_max_by_loop(x0, x_dn, p, gamma, dt, phi_fn, k):
    """The worst-case SOC rise over interval k of the day ``x0``/``x_dn``
    by a loop over the dual's candidates: 0, the breakpoints of every
    interval of the day, and every interval's hinge root wherever its phi
    turns from positive to negative between two consecutive candidates.
    Each candidate c is the line a + s*b in the elapsed time s of interval
    k, with a = gamma*c + dt * (phi_1(c) + ... + phi_{k-1}(c)) summed left
    to right and b = phi_k(c). Returns the minimum of a + dt*max(b, 0),
    its smallest minimizer and the earliest offset at which min over lines
    of (a + s*b) reaches it."""
    ec, ed = p.eta_c, p.eta_d
    pts = [0.0, *(ec * x_dn), *(x_dn / ed)]
    if phi_fn is phi_upper_values and ec * ed < 1.0:
        pts += list((x_dn - (1.0 - ec * ed) * x0) / ed)  # case switch
    if phi_fn is phi_lower_values:
        pts += list(ec * (x_dn - x0) + x0 / ed)  # hinge without the ratio
    cands = np.unique([c for c in pts if c >= 0.0])
    phis = [phi_fn(x0, x_dn, c, p) for c in cands]
    roots = []
    for j in range(len(x0)):
        for lo, hi, v_lo, v_hi in zip(cands[:-1], cands[1:], phis[:-1],
                                      phis[1:]):
            fa, fb = v_lo[j], v_hi[j]
            if fa > 0.0 > fb:
                roots.append(lo + (hi - lo) * fa / (fa - fb))
    lines = []
    for c in [*cands, *roots]:
        v = phi_fn(x0, x_dn, c, p)
        lines.append((c, gamma * c + dt * ordered_sum(v[:k - 1]),
                      float(v[k - 1])))
    vals = [a + dt * max(b, 0.0) for _, a, b in lines]
    best = min(vals)
    lam_star = min(c for (c, _, _), v in zip(lines, vals) if v <= best + 1e-10)
    s = max([(best - a) / b for _, a, b in lines if b > 1e-12], default=0.0)
    return best, lam_star, min(max(s, 0.0), dt)


class TestIntervalMaxDual:
    """The interval-max dual against a per-candidate loop, exactly: the
    estimates of all three kinds, the interval oracle and the upper
    slacks of ``check_feasibility``. Every interval searches the day's
    candidates, so the loop's candidates and sums are those of the
    kernel; the estimates are also checked against the dual itself."""

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=60)
    def test_equals_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 13))
        dt = float(rng.choice([0.25, 0.5, 1.0]))
        grid = TimeGrid(dt_hours=dt, K=K)
        eta = (1.0, 1.0) if rng.random() < 0.2 else rng.uniform(0.7, 1.0, 2)
        p = StorageParams(x_min=-10.0, x_max=10.0, y_min=10.0, y_max=20.0,
                          eta_c=eta[0], eta_d=eta[1])
        x0, x_dn = rng.uniform(-3.0, 3.0, K), rng.uniform(0.0, 3.0, K)
        x_dn[rng.random(K) < 0.2] = 0.0
        bids = BidSchedule(x0=x0, x_up=rng.uniform(0.0, 3.0, K), x_dn=x_dn)
        gamma, y0 = float(rng.uniform(0.0, grid.T)), 15.0
        upper = {c.name: c.slack
                 for c in check_feasibility(bids, p, grid, gamma, y0).checks}
        for k in range(1, K + 1):
            for kind, phi_fn in (("exact", phi_values),
                                 ("lower", phi_lower_values),
                                 ("upper", phi_upper_values)):
                ref = interval_max_by_loop(x0, x_dn, p, gamma, dt, phi_fn, k)
                assert max_soc_estimate(bids, p, grid, gamma, y0, k,
                                        kind) == y0 + ref[0], (k, kind)
            best, lam_star, s = interval_max_by_loop(x0, x_dn, p, gamma, dt,
                                                     phi_values, k)
            r = max_soc_over_interval(bids, p, grid, gamma, y0, k)
            assert (r.value, r.lambda_star, r.t_star) == (
                y0 + best, lam_star, (k - 1) * dt + s), k
            assert upper[f"soc_upper[{k}]"] == p.y_max - (y0 + best), k

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=40)
    def test_estimates_never_exceed_the_dual(self, seed):
        # each estimate minimizes its dual over lam >= 0, so no lam on a
        # fine grid may give a smaller dual value; this needs every
        # breakpoint among the candidates, such as the relaxation's hinge
        # eta_c*(x_dn - x0) + x0/eta_d
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 7))
        dt = float(rng.choice([0.25, 0.5, 1.0]))
        grid = TimeGrid(dt_hours=dt, K=K)
        eta = rng.uniform(0.7, 1.0, 2)
        p = StorageParams(x_min=-10.0, x_max=10.0, y_min=10.0, y_max=20.0,
                          eta_c=eta[0], eta_d=eta[1])
        x0, x_dn = rng.uniform(-3.0, 3.0, K), rng.uniform(0.0, 3.0, K)
        bids = BidSchedule(x0=x0, x_up=np.zeros(K), x_dn=x_dn)
        gamma = float(rng.uniform(0.0, grid.T))
        lam = np.linspace(0.0, 6.0, 6001)[:, None]
        for kind, phi_fn in (("exact", phi_values),
                             ("lower", phi_lower_values),
                             ("upper", phi_upper_values)):
            v = phi_fn(x0, x_dn, lam, p)
            for k in range(1, K + 1):
                dual = (gamma * lam[:, 0] + dt * v[:, :k - 1].sum(axis=1)
                        + dt * np.maximum(v[:, k - 1], 0.0))
                est = max_soc_estimate(bids, p, grid, gamma, 0.0, k, kind)
                assert est <= dual.min() + 1e-12, (k, kind)


class TestBruteForceGuards:
    def test_too_many_intervals(self):
        grid = TimeGrid(dt_hours=1.0, K=6)
        bids = BidSchedule.zero(6)
        with pytest.raises(DomainError):
            brute_force_max_soc(bids, PARAMS2, grid, 1.0, 0.0, 5, m=10)

    def test_grid_too_fine(self):
        grid = TimeGrid(dt_hours=1.0, K=4)
        bids = BidSchedule.zero(4)
        with pytest.raises(DomainError):
            brute_force_max_soc(bids, PARAMS2, grid, 1.0, 0.0, 4, m=50)


class TestCheckFeasibility:
    def test_zero_bids_feasible(self):
        grid = TimeGrid(dt_hours=0.5, K=4)
        p = small_battery()
        rep = check_feasibility(BidSchedule.zero(4), p, grid, 0.5, 3.0)
        assert rep.feasible
        assert rep.worst_violation == 0.0

    def test_power_violation_reported(self):
        grid = TimeGrid(dt_hours=0.5, K=2)
        p = small_battery()
        bids = BidSchedule(x0=np.array([3.0, 0.0]), x_up=np.zeros(2),
                           x_dn=np.zeros(2))
        rep = check_feasibility(bids, p, grid, 0.5, 3.0)
        assert not rep.feasible
        names = [c.name for c in rep.violations()]
        assert "power_upper[1]" in names

    def test_soc_violation_with_witness(self):
        grid = TimeGrid(dt_hours=1.0, K=2)
        p = small_battery()
        # heavy downregulation offer overfills the battery from y0 near top
        bids = BidSchedule(x0=np.zeros(2), x_up=np.zeros(2),
                           x_dn=np.array([2.0, 2.0]))
        rep = check_feasibility(bids, p, grid, 2.0, 5.5, )
        bad = [c for c in rep.violations() if c.name.startswith("soc_upper")]
        assert bad
        w = bad[-1].witness
        traj = simulate_soc(bids, w.to_signal(grid), p, grid, 5.5)
        assert traj.max() > p.y_max + 1e-9

    @pytest.mark.parametrize("n_bids", [3, 5])
    def test_wrong_length_rejected(self, n_bids):
        # neither cut a longer schedule to the grid nor index past the
        # end of a shorter one
        grid = TimeGrid(dt_hours=0.5, K=4)
        with pytest.raises(DomainError, match=f"{n_bids} intervals.* 4"):
            check_feasibility(BidSchedule.zero(n_bids), small_battery(), grid,
                              0.5, 3.0)

    def test_soc_lower_violation_with_witness(self):
        grid = TimeGrid(dt_hours=1.0, K=2)
        p = small_battery()
        # heavy upregulation offer drains the battery from y0 near bottom
        bids = BidSchedule(x0=np.zeros(2), x_up=np.array([2.0, 2.0]),
                           x_dn=np.zeros(2))
        rep = check_feasibility(bids, p, grid, 2.0, 1.0)
        bad = [c for c in rep.violations() if c.name.startswith("soc_lower")]
        assert [c.name for c in bad] == ["soc_lower[1]", "soc_lower[2]"]
        for c in bad:
            w = c.witness
            traj = simulate_soc(bids, w.to_signal(grid), p, grid, 1.0)
            assert traj.value_at(w.t_star) == pytest.approx(w.value, abs=1e-6)
            assert traj.value_at(w.t_star) < p.y_min - 1e-9


ORACLES = {
    "check_feasibility": lambda gamma, y0: check_feasibility(
        BIDS2, PARAMS2, GRID2, gamma, y0),
    "max_soc_at_time": lambda gamma, y0: max_soc_at_time(
        BIDS2, PARAMS2, GRID2, gamma, y0, 1.5),
    "max_soc_over_interval": lambda gamma, y0: max_soc_over_interval(
        BIDS2, PARAMS2, GRID2, gamma, y0, 2),
    "max_soc_estimate": lambda gamma, y0: max_soc_estimate(
        BIDS2, PARAMS2, GRID2, gamma, y0, 2, "upper"),
    "min_soc_at_boundaries": lambda gamma, y0: min_soc_at_boundaries(
        BIDS2, PARAMS2, GRID2, gamma, y0, 2),
}


class TestBudgetAndStartDomain:
    """No oracle gives a verdict for a start SOC or a budget without
    meaning: a NaN start made every SOC slack NaN, and the report's
    worst check skipped them and read feasible."""

    @pytest.mark.parametrize("y0", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_non_finite_start_rejected(self, oracle, y0):
        with pytest.raises(DomainError, match="y0 must be finite"):
            ORACLES[oracle](1.0, y0)

    @pytest.mark.parametrize("gamma", [-1.0, -1e-12, np.nan, np.inf])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_negative_or_non_finite_budget_rejected(self, oracle, gamma):
        with pytest.raises(DomainError, match="gamma.*finite and nonnegative"):
            ORACLES[oracle](gamma, 50.0)

    def test_zero_budget_checks_the_nominal_path(self):
        rep = check_feasibility(BIDS2, PARAMS2, GRID2, 0.0, 50.0)
        path = soc.soc_path(BIDS2.x0, PARAMS2, GRID2.dt_hours, 50.0)
        slack = {c.name: c.slack for c in rep.checks}
        for k in (1, 2):
            assert slack[f"soc_lower[{k}]"] == pytest.approx(
                path[k] - PARAMS2.y_min, abs=1e-12)
            assert slack[f"soc_upper[{k}]"] == pytest.approx(
                PARAMS2.y_max - max(path[k - 1], path[k]), abs=1e-12)
        for oracle in ORACLES.values():
            oracle(0.0, 50.0)


@pytest.mark.parametrize("at_time", [
    lambda t: GRID2.interval_of(t),
    lambda t: sigma(GRID2, t, 1),
    lambda t: sigma_vector(GRID2, t),
    lambda t: max_soc_at_time(BIDS2, PARAMS2, GRID2, 1.0, 0.0, t)],
    ids=["interval_of", "sigma", "sigma_vector", "max_soc_at_time"])
def test_nan_time_rejected(at_time):
    with pytest.raises(DomainError, match="outside"):
        at_time(np.nan)


def per_interval_soc_checks(bids, p, grid, gamma, y0):
    """The SOC checks of ``check_feasibility`` as (name, slack, oracle
    result), one per-interval oracle call each. An upper check's result
    (with its witness) is computed only where it is violated."""
    out = []
    for k in range(1, grid.K + 1):
        lo = min_soc_at_boundaries(bids, p, grid, gamma, y0, k)
        out.append((f"soc_lower[{k}]", lo.value - p.y_min, lo))
        slack = p.y_max - max_soc_estimate(bids, p, grid, gamma, y0, k)
        hi = (max_soc_over_interval(bids, p, grid, gamma, y0, k)
              if slack < -FeasibilityReport.tol else None)
        out.append((f"soc_upper[{k}]", slack, hi))
    return out


def sweep_instance(i, rng):
    """Schedule i of the equivalence sweep: K = 1..29 in turn and K = 96
    every 97th, lossless every third; by i % 5 zero reserve, x_dn = 0
    entries, power-limit violators, reserve high enough to violate the SOC
    bounds, or a plain random schedule."""
    K = 96 if i % 97 == 0 else 1 + i % 29
    grid = TimeGrid(dt_hours=float(rng.choice([0.25, 0.5, 1.0])), K=K)
    eta = (1.0, 1.0) if i % 3 == 0 else rng.uniform(0.7, 1.0, 2)
    p = StorageParams(x_min=-10.0, x_max=10.0, y_min=10.0, y_max=90.0,
                      eta_c=eta[0], eta_d=eta[1])
    kind = i % 5
    x0 = rng.uniform(-4.0, 4.0, K)
    x_up, x_dn = rng.uniform(0.0, 3.0, K), rng.uniform(0.0, 3.0, K)
    if kind == 0:
        x_up, x_dn = np.zeros(K), np.zeros(K)
    elif kind == 1:
        x_dn[rng.random(K) < 0.5] = 0.0
    elif kind == 2:
        out = rng.random(K) < 0.3
        x0[out] = rng.uniform(10.0, 14.0, out.sum()) * rng.choice(
            [-1.0, 1.0], out.sum())
    elif kind == 3:
        high = rng.random(K) < 0.3
        x_up[high], x_dn[high] = rng.uniform(8.0, 12.0, (2, high.sum()))
    bids = BidSchedule(x0=x0, x_up=x_up, x_dn=x_dn)
    gamma = float(rng.uniform(0.0, grid.T))
    y0 = float(rng.uniform(p.y_min, p.y_max))
    return bids, p, grid, gamma, y0


class TestOnePassMatchesPerIntervalOracles:
    """``check_feasibility`` computes all SOC checks in one call of each
    dual kernel; the per-interval oracles make the same whole-day call
    and read their interval, so slacks, verdicts and witnesses agree bit
    for bit."""

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2017)
        tol = FeasibilityReport.tol
        seen = {"feasible": 0, "soc_lower": 0, "soc_upper": 0, "power": 0}
        for i in range(2000):
            bids, p, grid, gamma, y0 = sweep_instance(i, rng)
            rep = check_feasibility(bids, p, grid, gamma, y0)
            ref = per_interval_soc_checks(bids, p, grid, gamma, y0)
            n_power = 2 * grid.K + 2
            power, soc = rep.checks[:n_power], rep.checks[n_power:]
            assert [c.name for c in power] == [
                f"power_{side}[{k}]" for k in range(1, grid.K + 1)
                for side in ("upper", "lower")] + ["initial_soc_lower",
                                                   "initial_soc_upper"]
            assert [c.name for c in soc] == [name for name, _, _ in ref]
            for c, (_, slack, oracle) in zip(soc, ref):
                assert c.slack == slack, (i, c.name)
                assert (c.slack < -tol) == (slack < -tol), (i, c.name)
                if c.slack < -tol:
                    seen[c.name.split("[")[0]] += 1
                    w = c.witness
                    assert (w.value, w.lambda_star, w.t_star, w.sign) == (
                        oracle.value, oracle.lambda_star, oracle.t_star,
                        oracle.sign)
                    np.testing.assert_array_equal(w.witness_xi,
                                                  oracle.witness_xi)
                else:
                    assert c.witness is None, (i, c.name)
            seen["feasible"] += rep.feasible
            seen["power"] += any(c.slack < -tol for c in power)
            # the array-backed accessors equal their list definitions
            assert rep.worst == min(rep.checks, key=lambda c: c.slack)
            assert rep.feasible == (rep.worst.slack >= -tol)
            assert rep.violations() == [c for c in rep.checks
                                        if c.slack < -tol]
            assert rep.worst_violation == max(0.0, -rep.worst.slack)
        # every kind of verdict occurs in the sweep
        assert all(n > 50 for n in seen.values()), seen


class TestBatchedWitnesses:
    """``check_feasibility`` fills the witness signals of all violated
    checks on one side in one batch; each must equal its per-interval
    oracle's exactly."""

    @staticmethod
    def overbid_quarter_hours():
        # 40 kW symmetric reserve over a K = 96 day, with +-12 kW of
        # arbitrage on the first 50 quarter-hours, which also breaks the
        # power limits there
        p = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0, y_max=90.0,
                          eta_c=0.92, eta_d=0.92)
        x0 = np.zeros(96)
        x0[:50] = 12.0 * (-1.0) ** np.arange(50)
        reserve = np.full(96, 40.0)
        bids = BidSchedule(x0=x0, x_up=reserve, x_dn=reserve.copy())
        return bids, p, TimeGrid(dt_hours=0.25, K=96), default_initial_soc(p)

    @staticmethod
    def counted_fills(monkeypatch):
        calls = []
        fill = soc._greedy_fill

        def counted(*args):
            calls.append(args)
            return fill(*args)
        monkeypatch.setattr(soc, "_greedy_fill", counted)
        return calls

    def test_every_witness_equals_the_oracle(self, monkeypatch):
        bids, p, grid, y0 = self.overbid_quarter_hours()
        calls = self.counted_fills(monkeypatch)
        rep = check_feasibility(bids, p, grid, 2.0, y0)
        assert len(calls) <= 2
        monkeypatch.undo()
        assert len(rep.violations()) == 236
        violated = [c for c in rep.violations() if c.witness is not None]
        assert len(violated) == 186
        for c in violated:
            side, k = c.name[:-1].split("[")
            oracle = (min_soc_at_boundaries if side == "soc_lower"
                      else max_soc_over_interval)(bids, p, grid, 2.0, y0,
                                                  int(k))
            w = c.witness
            assert (w.value, w.lambda_star, w.t_star, w.sign) == (
                oracle.value, oracle.lambda_star, oracle.t_star,
                oracle.sign), c.name
            np.testing.assert_array_equal(w.witness_xi, oracle.witness_xi)

    def test_an_empty_fill_is_float(self):
        # no down-regulation bid, so no piece fills: the witnesses are
        # float zeros, like every filled witness
        p = StorageParams(x_min=-5.0, x_max=5.0, y_min=0.0, y_max=10.0,
                          eta_c=0.9, eta_d=0.9)
        bids = BidSchedule(x0=np.full(3, -3.0), x_up=np.zeros(3),
                           x_dn=np.zeros(3))
        grid = TimeGrid(dt_hours=1.0, K=3)
        violated = check_feasibility(bids, p, grid, 1.0, 8.0).violations()
        assert [c.name for c in violated] == ["soc_upper[1]", "soc_upper[2]",
                                              "soc_upper[3]"]
        for c in violated:
            assert c.witness.witness_xi.dtype == np.float64
            np.testing.assert_array_equal(c.witness.witness_xi, np.zeros(3))
        w = max_soc_over_interval(bids, p, grid, 1.0, 8.0, 2).witness_xi
        assert w.dtype == np.float64

    def test_a_certified_schedule_fills_nothing(self, monkeypatch):
        _, p, grid, y0 = self.overbid_quarter_hours()
        calm = BidSchedule(x0=np.zeros(96), x_up=np.full(96, 5.0),
                           x_dn=np.full(96, 5.0))
        calls = self.counted_fills(monkeypatch)
        assert check_feasibility(calm, p, grid, 2.0, y0).feasible
        assert calls == []
