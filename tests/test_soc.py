import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storagebid.types import (
    BidSchedule,
    DomainError,
    RegulationSignal,
    StorageParams,
    TimeGrid,
    sigma_vector,
)
from storagebid.soc import (
    _lam_candidates,
    alpha_beta,
    brute_force_max_soc,
    brute_force_min_soc,
    check_feasibility,
    max_soc_at_time,
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

    def test_brute_force_agreement(self):
        bf = brute_force_max_soc(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 2, m=50)
        assert bf == pytest.approx(1.53, abs=1e-9)

    def test_first_interval(self):
        r = max_soc_over_interval(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 1)
        assert r.value == pytest.approx(1.275, abs=1e-9)
        bf = brute_force_max_soc(BIDS2, PARAMS2, GRID2, 1.0, 0.0, 1, m=50)
        assert bf == pytest.approx(1.275, abs=1e-9)


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
        r = max_soc_over_interval(bids, p, grid, gamma, 3.0, k,
                                  lam_max=10.0)
        bf = brute_force_max_soc(bids, p, grid, gamma, 3.0, k, m=20)
        assert bf <= r.value + 1e-9
        assert r.value - bf <= 0.3

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(deadline=None, max_examples=40)
    def test_witness_achieves_value(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(dt_hours=0.5, K=3)
        p = small_battery()
        bids = BidSchedule(x0=rng.uniform(-1.0, 1.0, 3), x_up=np.zeros(3),
                           x_dn=rng.uniform(0.0, 1.5, 3))
        k = int(rng.integers(1, 4))
        r = max_soc_over_interval(bids, p, grid, 0.5, 3.0, k, lam_max=10.0)
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
        # the oracles evaluate every candidate multiplier in one broadcast;
        # a loop over the candidates is the reference, and the sums must
        # come out in the same order, hence bit-identical
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
        lam_max = (p.x_max - p.x_min) / p.eta_d
        vals = []
        for lam in _lam_candidates(x0[:k], bids.x_dn[:k], p, lam_max,
                                   phi_values):
            v = phi_values(x0[:k], bids.x_dn[:k], lam, p)
            vals.append(gamma * lam + dt * float(np.sum(v[:-1]))
                        + sig_k * v[-1])
        r = max_soc_at_time(bids, p, grid, gamma, y0, t)
        assert r.value == y0 + min(vals)
        alpha, beta = (a[:k] for a in alpha_beta(bids, p))
        diffs = beta - alpha
        vals = [y0 - gamma * lam
                - dt * float(np.sum(alpha + np.maximum(diffs - lam, 0.0)))
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
