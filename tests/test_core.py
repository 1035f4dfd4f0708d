import numpy as np
import pytest
from hypothesis import given, strategies as st

from storagebid.backtest import ExperimentConfig
from storagebid.ir import ModelOptions
from storagebid.soc import (
    check_feasibility,
    max_soc_over_interval,
    simulate_soc,
)
from storagebid.types import (
    AlignmentError,
    BidSchedule,
    DomainError,
    PriceSeries,
    RegulationSignal,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
    default_initial_soc,
    effective_budget,
    sigma,
    sigma_vector,
)


def reference_battery():
    return StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0, y_max=90.0,
                         eta_c=0.92, eta_d=0.92)


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(dt_hours=0.25, K=96)
        assert g.T == pytest.approx(24.0)
        assert g.interval_of(0.1) == 1
        assert g.interval_of(0.25) == 1  # boundary belongs to the earlier interval
        assert g.interval_of(0.26) == 2
        assert g.interval_of(24.0) == 96

    def test_invalid(self):
        with pytest.raises(DomainError):
            TimeGrid(dt_hours=0.0, K=4)
        with pytest.raises(DomainError):
            TimeGrid(dt_hours=0.25, K=0)


class TestSigma:
    def test_partial_weights(self):
        g = TimeGrid(dt_hours=1.0, K=2)
        assert sigma(g, 1.6, 1) == pytest.approx(1.0)
        assert sigma(g, 1.6, 2) == pytest.approx(0.6)
        assert sigma(g, 0.4, 2) == 0.0
        np.testing.assert_allclose(sigma_vector(g, 1.6), [1.0, 0.6])

    def test_t_zero(self):
        g = TimeGrid(dt_hours=1.0, K=3)
        np.testing.assert_allclose(sigma_vector(g, 0.0), np.zeros(3))

    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_weights_sum_to_t(self, t):
        g = TimeGrid(dt_hours=0.75, K=4)
        assert sigma_vector(g, t).sum() == pytest.approx(t, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_weights_bounded(self, t):
        g = TimeGrid(dt_hours=0.75, K=4)
        w = sigma_vector(g, t)
        assert np.all(w >= -1e-12) and np.all(w <= 0.75 + 1e-12)


class TestEffectiveBudget:
    def test_eu_rules_quarter_hour(self):
        # gamma' = 15 min, recovery window 2h => Gamma' = 2.25h; over a day
        # the worst case allows 2.75 hours of full deviation
        assert effective_budget(0.25, 2.25, 24.0) == pytest.approx(2.75)

    def test_window_equals_horizon(self):
        assert effective_budget(0.5, 24.0, 24.0) == pytest.approx(0.5)

    def test_short_horizon(self):
        assert effective_budget(0.25, 2.25, 2.0) == pytest.approx(0.25)

    def test_budget_object(self):
        b = UncertaintyBudget.from_eu_rules(gamma_prime=0.25)
        assert b.Gamma_prime == pytest.approx(2.25)
        assert b.total_gamma(24.0) == pytest.approx(2.75)

    @given(st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=1.0, max_value=48.0))
    def test_monotone_in_horizon(self, gp, T):
        Gp = gp + 2.0
        g1 = effective_budget(gp, Gp, T)
        g2 = effective_budget(gp, Gp, T + 1.0)
        assert g2 >= g1 - 1e-12

    @given(st.floats(min_value=0.05, max_value=2.0),
           st.floats(min_value=0.5, max_value=48.0))
    def test_bounded_by_horizon_and_rate(self, gp, T):
        Gp = gp + 2.0
        g = effective_budget(gp, Gp, T)
        assert g <= T + 1e-12
        assert g <= gp * (T / Gp + 1) + 1e-9


class TestStorageParams:
    def test_specific_loss(self):
        p = reference_battery()
        assert p.specific_loss() == pytest.approx(1 / 0.92 - 0.92)
        assert not p.is_lossless

    def test_lossless(self):
        p = StorageParams(x_min=-1, x_max=1, y_min=0, y_max=1,
                          eta_c=1.0, eta_d=1.0)
        assert p.is_lossless
        assert p.specific_loss() == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            StorageParams(x_min=1.0, x_max=-1.0, y_min=0, y_max=1,
                          eta_c=0.9, eta_d=0.9)
        with pytest.raises(DomainError):
            StorageParams(x_min=-1, x_max=1, y_min=2, y_max=1,
                          eta_c=0.9, eta_d=0.9)
        with pytest.raises(DomainError):
            StorageParams(x_min=-1, x_max=1, y_min=0, y_max=1,
                          eta_c=1.2, eta_d=0.9)

    @pytest.mark.parametrize("field", ["x_min", "x_max", "y_min", "y_max",
                                       "eta_c", "eta_d"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field, value):
        # every comparison with NaN is false, so a NaN y_max once passed
        # the bound checks and check_feasibility certified NaN slacks
        kw = dict(x_min=-1.0, x_max=1.0, y_min=0.0, y_max=1.0, eta_c=0.9,
                  eta_d=0.9)
        kw[field] = value
        with pytest.raises(DomainError, match=f"{field}=.* must be finite"):
            StorageParams(**kw)

    def test_default_initial_soc(self):
        # steady-state midpoint for the reference battery
        assert default_initial_soc(reference_battery()) == pytest.approx(53.328, abs=1e-3)


@pytest.mark.parametrize("make, name", [
    (lambda v: UncertaintyBudget(kind="total_budget", gamma=v), "gamma"),
    (lambda v: UncertaintyBudget(kind="rolling_window", gamma_prime=v,
                                 Gamma_prime=3.0), "gamma_prime"),
    (lambda v: UncertaintyBudget(kind="rolling_window", gamma_prime=1.0,
                                 Gamma_prime=v), "Gamma_prime"),
    (lambda v: TimeGrid(dt_hours=v, K=24), "dt_hours"),
    (lambda v: ModelOptions(terminal_soc_floor=v), "terminal_soc_floor"),
    (lambda v: PriceSeries(day_ahead=[40.0, v], fcr_availability=[]),
     "day_ahead"),
    (lambda v: PriceSeries(day_ahead=[40.0], fcr_availability=[v]),
     "fcr_availability"),
], ids=["gamma", "gamma_prime", "Gamma_prime", "dt_hours",
        "terminal_soc_floor", "day_ahead", "fcr_availability"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_a_domain_error(make, name, value):
    # a NaN budget or dt once raised a raw ValueError or OverflowError
    # from the duration checks, and a NaN floor or price reached the model
    with pytest.raises(DomainError, match=f"^{name}.* must be finite$"):
        make(value)


def _simulate(n):
    grid = TimeGrid(dt_hours=1.0, K=24)
    bids = BidSchedule.zero(n)
    simulate_soc(bids, RegulationSignal.constant(0.5, grid),
                 reference_battery(), grid, 50.0)


@pytest.mark.parametrize("make, message", [
    (lambda: TimeGrid(dt_hours=1.0, K=24.0), "K must be a positive integer, "
                                              "got 24.0"),
    (lambda: TimeGrid(dt_hours=1.0, K=np.float64(2.0)),
     "K must be a positive integer, got 2.0"),
    (lambda: TimeGrid(dt_hours=1.0, K=True), "K must be a positive integer, "
                                              "got True"),
    (lambda: _simulate(23), "bid schedule has 23 intervals, the grid has 24"),
    (lambda: _simulate(25), "bid schedule has 25 intervals, the grid has 24"),
    (lambda: check_feasibility(BidSchedule.zero(23), reference_battery(),
                               TimeGrid(dt_hours=1.0, K=24), 2.0, 50.0),
     "bid schedule has 23 intervals, the grid has 24"),
    (lambda: max_soc_over_interval(BidSchedule.zero(25), reference_battery(),
                                   TimeGrid(dt_hours=1.0, K=24), 2.0, 50.0,
                                   5),
     "bid schedule has 25 intervals, the grid has 24"),
    (lambda: PriceSeries(day_ahead=np.zeros((2, 12)),
                         fcr_availability=np.zeros(6)),
     "day_ahead prices must be 1-d"),
    (lambda: PriceSeries(day_ahead=np.zeros(24),
                         fcr_availability=np.zeros((6, 1))),
     "fcr_availability prices must be 1-d"),
], ids=["K-float", "K-numpy-float", "K-bool", "schedule-23", "schedule-25",
        "feasibility-23", "oracle-25", "day-ahead-2d", "fcr-2d"])
def test_malformed_input_is_a_domain_error(make, message):
    # each once raised a raw TypeError or broadcast ValueError, or was
    # flattened silently
    with pytest.raises(DomainError, match=f"^{message}$"):
        make()


def test_numpy_integer_K_is_a_grid_length():
    assert TimeGrid(dt_hours=1.0, K=np.int64(24)).T == 24.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_soc_is_named(value):
    with pytest.raises(DomainError, match=f"^initial_soc={value} must be "
                                          "finite$"):
        ExperimentConfig(params=reference_battery(),
                         grid=TimeGrid(dt_hours=1.0, K=24),
                         budget=UncertaintyBudget(kind="total_budget",
                                                  gamma=2.0),
                         initial_soc=value)


class TestBidSchedule:
    def test_negative_reserve_rejected(self):
        with pytest.raises(DomainError):
            BidSchedule(x0=np.zeros(2), x_up=np.array([-1.0, 0.0]),
                        x_dn=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            BidSchedule(x0=np.array([1.0, bad]), x_up=np.zeros(2),
                        x_dn=np.zeros(2))
        with pytest.raises(DomainError, match="finite"):
            BidSchedule(x0=np.zeros(2), x_up=np.zeros(2),
                        x_dn=np.array([bad, 0.0]))

    def test_zero(self):
        z = BidSchedule.zero(5)
        assert z.K == 5
        assert not z.x0.any() and not z.x_up.any() and not z.x_dn.any()


class TestRegulationSignal:
    def test_alignment(self):
        g = TimeGrid(dt_hours=0.25, K=4)
        sig = RegulationSignal.constant(0.5, g)
        assert sig.check_alignment(g) == 90  # 10-second samples per quarter hour

    def test_misaligned(self):
        g = TimeGrid(dt_hours=0.25, K=4)
        sig = RegulationSignal(values=np.zeros(17), sample_period_hours=10 / 3600)
        with pytest.raises(AlignmentError):
            sig.check_alignment(g)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            RegulationSignal(values=np.array([0.0, 1.5]),
                             sample_period_hours=10 / 3600)

    def test_abs_integral(self):
        g = TimeGrid(dt_hours=1.0, K=2)
        sig = RegulationSignal.constant(-0.5, g)
        assert sig.abs_integral() == pytest.approx(1.0)
        np.testing.assert_allclose(sig.interval_integrals(g), [-0.5, -0.5])


class TestPriceSeries:
    def test_per_interval_expansion(self):
        g = TimeGrid(dt_hours=0.25, K=96)
        da = np.arange(24, dtype=float)
        fcr = np.full(6, 12.0)  # EUR/MW per 4h block
        ps = PriceSeries(day_ahead=da, fcr_availability=fcr)
        dai = ps.da_per_interval(g)
        assert dai.shape == (96,)
        assert dai[0] == 0.0 and dai[4] == 1.0
        fi = ps.fcr_per_interval(g)
        assert fi.shape == (96,)
        # block payment split evenly across the 16 quarter hours
        np.testing.assert_allclose(fi, 12.0 / 16)

    def test_misaligned(self):
        g = TimeGrid(dt_hours=0.25, K=96)
        ps = PriceSeries(day_ahead=np.zeros(23), fcr_availability=np.zeros(6))
        with pytest.raises(AlignmentError):
            ps.da_per_interval(g)
