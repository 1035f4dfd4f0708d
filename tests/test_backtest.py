"""Tests for the daily bidding loop: intraday adjustments, accounting,
realized-feasibility, and the multi-day driver."""

import importlib
import itertools
import json
import os
import re
import runpy
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from storagebid import backtest
from storagebid.backtest import (
    BacktestRecord,
    BacktestReport,
    ExperimentConfig,
    budget_usage,
    drift_envelope,
    intraday_adjustments,
    is_dst_transition,
    run_backtest,
    run_day,
    run_day_with_bids,
    window_budget_usage,
    write_report,
)
from storagebid.builder import dispatch_variant, split_arbitrage_lp
from storagebid.data import Dataset, DayData, generate_synthetic_dataset
from storagebid.ir import ModelOptions
from storagebid.soc import check_feasibility, simulate_soc, soc_rate
from storagebid.solve import SolveResult, solve
from storagebid.types import (
    BidSchedule,
    DomainError,
    PriceSeries,
    RegulationSignal,
    StorageParams,
    TimeGrid,
    UncertaintyBudget,
)

REFERENCE_BATTERY = StorageParams(x_min=-50.0, x_max=50.0, y_min=10.0,
                              y_max=90.0, eta_c=0.92, eta_d=0.92)
HOURLY = TimeGrid(dt_hours=1.0, K=24)
QUARTER = TimeGrid(dt_hours=0.25, K=96)


def hourly_config(**kw):
    opts = kw.pop("options", ModelOptions(variant="restriction",
                                          fcr_block_len=4, da_block_len=1))
    defaults = dict(params=REFERENCE_BATTERY, grid=HOURLY,
                    budget=UncertaintyBudget(kind="total_budget", gamma=2.0),
                    options=opts, time_limit=60.0, gap_target=0.1)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    generate_synthetic_dataset(str(root), seed=5, days=3, gamma=2.0)
    return Dataset(str(root))


class TestConfigDomain:
    """A time limit or gap target without meaning is refused, not turned
    into a different solve path."""

    @pytest.mark.parametrize("time_limit", [np.nan, 0.0, -1.0, -np.inf])
    def test_bad_time_limit_rejected(self, time_limit):
        with pytest.raises(DomainError, match="time_limit=.* must be positive"):
            hourly_config(time_limit=time_limit)

    @pytest.mark.parametrize("gap_target", [np.nan, -0.1, np.inf])
    def test_bad_gap_target_rejected(self, gap_target):
        with pytest.raises(DomainError,
                           match="gap_target=.* finite and nonnegative"):
            hourly_config(gap_target=gap_target)

    def test_unset_or_unbounded_values_accepted(self):
        hourly_config(time_limit=None, gap_target=None)
        hourly_config(time_limit=np.inf, gap_target=0.0)


class TestBudgetUsage:
    def test_zero_signal(self):
        sig = RegulationSignal.constant(0.0, HOURLY)
        assert budget_usage(sig, 2.75) == 0.0

    def test_saturating_signal_for_gamma_hours(self):
        vals = np.zeros(24 * 360)
        vals[:2 * 360] = 1.0  # first 2 hours at full activation
        sig = RegulationSignal(values=vals)
        assert budget_usage(sig, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_values_above_one_allowed(self):
        sig = RegulationSignal.constant(0.5, HOURLY)
        assert budget_usage(sig, 2.75) == pytest.approx(12.0 / 2.75,
                                                        rel=1e-12)


class TestIntradayAdjustments:
    def test_zero_signal_zero_adjustment(self):
        sig = RegulationSignal.constant(0.0, QUARTER)
        xa = intraday_adjustments(np.full(96, 8.0), sig, QUARTER, 2.25)
        np.testing.assert_array_equal(xa, 0.0)

    def test_single_interval_full_activation(self):
        # xi = 1 on interval 1 only, xr_1 = 8 kW, dt = 0.25 h, Gamma' = 2.25 h
        # -> x^a_2 = -(1/2) * 8 * 0.25 = -1.0 kW
        vals = np.zeros(96 * 90)
        vals[:90] = 1.0
        sig = RegulationSignal(values=vals)
        xa = intraday_adjustments(np.full(96, 8.0), sig, QUARTER, 2.25)
        assert xa[0] == 0.0
        assert xa[1] == pytest.approx(-1.0, abs=1e-12)
        # the window is 9 intervals long, so the drift leaves after that
        assert xa[9] == pytest.approx(0.0, abs=1e-12)

    def test_magnitude_bound_constant_reserve(self):
        # |x^a| <= gamma'/(Gamma'-dt) * xr = xr/8 for the 15-min market
        rng = np.random.default_rng(0)
        sig = RegulationSignal(
            values=np.clip(rng.normal(0, 0.5, 96 * 90), -1, 1))
        xr = np.full(96, 8.0)
        xa = intraday_adjustments(xr, sig, QUARTER, 2.25)
        # the bound holds for window usage within the budget; rescale the
        # signal so every window is feasible, then check
        vals = sig.values.copy()
        wu = window_budget_usage(sig, QUARTER, 0.25, 2.25)
        sig2 = RegulationSignal(values=vals / max(wu, 1.0))
        xa2 = intraday_adjustments(xr, sig2, QUARTER, 2.25)
        assert np.max(np.abs(xa2)) <= 8.0 / 8.0 + 1e-9

    def test_drift_envelope_dominates_partial_sums(self):
        rng = np.random.default_rng(3)
        sig = RegulationSignal(
            values=np.clip(rng.normal(0, 0.4, 96 * 90), -1, 1))
        xr = rng.uniform(0, 10, 96)
        env = drift_envelope(xr, sig, QUARTER, 2.25)
        ints = sig.interval_integrals(QUARTER)
        # closed-form lossless drift (recursion from the adjustment rule)
        wlen = 9
        for k in range(1, 97):
            i0 = max(1, k - wlen + 1)
            dy = -sum((2.25 - (k - i + 1) * 0.25) / 2.0 * xr[i - 1]
                      * ints[i - 1] for i in range(i0, k + 1))
            assert abs(dy) <= env[k - 1] + 1e-12

    def test_samples_past_the_horizon_are_ignored(self):
        # a recorded day may run past the trading horizon; the window
        # sums use the horizon's samples only, like interval_integrals
        rng = np.random.default_rng(5)
        vals = np.clip(rng.normal(0, 0.4, 97 * 90), -1, 1)
        day = RegulationSignal(values=vals[:96 * 90])
        longer = RegulationSignal(values=vals)
        xr = rng.uniform(0, 10, 96)
        np.testing.assert_array_equal(
            drift_envelope(xr, longer, QUARTER, 2.25),
            drift_envelope(xr, day, QUARTER, 2.25))
        assert window_budget_usage(longer, QUARTER, 0.25, 2.25) == \
            window_budget_usage(day, QUARTER, 0.25, 2.25)

    @pytest.mark.parametrize("Gamma_prime, message", [
        (2.5, "Gamma_prime must be a multiple of dt"),
        (1.0, "Gamma_prime must exceed dt")])
    def test_bad_recovery_window(self, Gamma_prime, message):
        # 2.5 h is no whole number of hourly intervals: the window sums
        # once rounded it to 2 intervals without a word
        sig = RegulationSignal.constant(0.5, HOURLY)
        xr = np.full(24, 8.0)
        with pytest.raises(DomainError, match=message):
            drift_envelope(xr, sig, HOURLY, Gamma_prime)
        with pytest.raises(DomainError, match=message):
            window_budget_usage(sig, HOURLY, 0.5, Gamma_prime)
        with pytest.raises(DomainError, match=message):
            intraday_adjustments(xr, sig, HOURLY, Gamma_prime)


class TestRunDay:
    def test_zero_prices_zero_record(self, synth):
        day = synth.load_day("2021-01-01")
        day = type(day)(date=day.date,
                        prices=PriceSeries(day_ahead=np.zeros(24),
                                           fcr_availability=np.zeros(6)),
                        signal=day.signal)
        rec = run_day(hourly_config(), day, 53.328)[0]
        # any feasible point is optimal at zero prices, so only the cash
        # flows are pinned down
        assert rec.profit_total == pytest.approx(0.0, abs=1e-9)
        assert rec.profit_fcr == pytest.approx(0.0, abs=1e-9)
        assert rec.profit_dayahead == pytest.approx(0.0, abs=1e-9)
        assert not rec.violations

    @pytest.mark.parametrize("y0", [np.nan, np.inf])
    @pytest.mark.parametrize("options", [
        None,
        ModelOptions(variant="restriction", fcr_block_len=4, da_block_len=1,
                     limited_arbitrage=True),
        ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                     da_block_len=1)])
    def test_non_finite_start_rejected_before_building(self, synth,
                                                       monkeypatch, options,
                                                       y0):
        def no_build(*args, **kwargs):
            raise AssertionError("built a model")

        monkeypatch.setattr(backtest, "dispatch_variant", no_build)
        monkeypatch.setattr(backtest, "split_arbitrage_lp", no_build)
        config = hourly_config(**({"options": options} if options else {}))
        with pytest.raises(DomainError, match="y0 must be finite"):
            run_day(config, synth.load_day("2021-01-01"), y0)

    @pytest.mark.parametrize("drift", [-20.0, np.nan])
    @pytest.mark.parametrize("options", [
        None,
        ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                     da_block_len=1)])
    def test_negative_drift_rejected_before_building(self, tmp_path,
                                                     monkeypatch, options,
                                                     drift):
        # y0 +/- drift would be an inverted start interval: on this day
        # from 85 kWh, drift -20 gave "optimal" joint bids that break
        # soc_upper[11] by 20 kWh
        generate_synthetic_dataset(str(tmp_path), seed=21, days=1,
                                   gamma=2.0)
        day = Dataset(str(tmp_path)).load_day("2021-01-01")

        def no_build(*args, **kwargs):
            raise AssertionError("built a model")

        monkeypatch.setattr(backtest, "dispatch_variant", no_build)
        monkeypatch.setattr(backtest, "split_arbitrage_lp", no_build)
        config = hourly_config(**({"options": options} if options else {}))
        with pytest.raises(DomainError, match="drift=.* must be nonnegative"):
            run_day(config, day, 85.0, drift=drift)

    def test_accounting_identity(self, synth):
        rec = run_day(hourly_config(), synth.load_day("2021-01-01"),
                      53.328)[0]
        assert rec.profit_total == pytest.approx(
            rec.profit_fcr + rec.profit_dayahead + rec.profit_intraday,
            abs=1e-9)
        assert rec.throughput >= 0.0

    def test_realized_soc_within_bounds_when_budget_respected(self, synth):
        for date in synth.dates():
            day = synth.load_day(date)
            rec = run_day(hourly_config(), day, 53.328)[0]
            assert rec.budget_usage <= 1.0
            assert rec.soc_min >= REFERENCE_BATTERY.y_min - 1e-7
            assert rec.soc_max <= REFERENCE_BATTERY.y_max + 1e-7
            assert not rec.violations

    def test_two_price_lossless_full_cycle(self, synth):
        # night at 0, evening at 100 EUR/MWh, lossless, no FCR: the
        # optimum does one full cycle worth usable-capacity * spread
        params = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                               eta_c=1.0, eta_d=1.0)
        da = np.zeros(24)
        da[18:22] = 100.0
        day = synth.load_day("2021-01-01")
        day = type(day)(date=day.date,
                        prices=PriceSeries(day_ahead=da,
                                           fcr_availability=np.zeros(6)),
                        signal=day.signal)
        cfg = hourly_config(
            params=params,
            options=ModelOptions(variant="arbitrage_only",
                                 fcr_enabled=False, da_block_len=1),
            gap_target=None)
        rec = run_day(cfg, day, 10.0)[0]
        assert rec.profit_total == pytest.approx(80.0 * 100.0 * 1e-3,
                                                 abs=1e-6)

    def test_default_initial_soc(self):
        cfg = hourly_config()
        assert cfg.y0_default == pytest.approx(53.328, abs=1e-3)

    def test_replay_soc_equals_simulate_soc(self, synth):
        # the report's SOC figures come from the same integrator as
        # simulate_soc, so they agree exactly, not just to rounding
        day = synth.load_day("2021-01-01")
        rec, x0, x_up, x_dn = run_day(hourly_config(), day, 53.328)
        traj = simulate_soc(BidSchedule(x0=x0, x_up=x_up, x_dn=x_dn),
                            day.signal, REFERENCE_BATTERY, HOURLY, 53.328)
        assert rec.soc_min == traj.min()
        assert rec.soc_max == traj.max()
        assert rec.soc_midnight == traj.terminal

    def test_returns_record_and_bids(self, synth):
        out = run_day(hourly_config(), synth.load_day("2021-01-01"), 53.328)
        rec, x0, x_up, x_dn = out
        assert len(out) == 4 and isinstance(rec, BacktestRecord)
        for bid in (x0, x_up, x_dn):
            assert isinstance(bid, np.ndarray) and bid.shape == (24,)
        # the restriction model bids symmetric reserve
        np.testing.assert_array_equal(x_up, x_dn)

    def test_former_name_is_an_alias(self):
        # the benchmark's pipeline imports the day step by this name
        assert run_day_with_bids is run_day

    def test_samples_past_the_horizon_are_ignored(self, synth):
        # a recorded day may run past the trading horizon; the replay and
        # every record field, budget_usage included, use its samples only
        day = synth.load_day("2021-01-01")
        vals = day.signal.values
        longer = DayData(date=day.date, prices=day.prices,
                         signal=RegulationSignal(
                             np.concatenate((vals, np.ones(360))),
                             day.signal.sample_period_hours))
        rec, x0, x_up, x_dn = run_day(hourly_config(), day, 53.328)
        rec2, x0_2, x_up2, x_dn2 = run_day(hourly_config(), longer, 53.328)
        assert rec2.to_dict() == rec.to_dict()
        for a, b in ((x0, x0_2), (x_up, x_up2), (x_dn, x_dn2)):
            np.testing.assert_array_equal(a, b)


class TestRunBacktest:
    def test_uncoupled_identical_days_identical_records(self, tmp_path):
        root = tmp_path / "same"
        generate_synthetic_dataset(str(root), seed=1, days=1, gamma=2.0)
        # duplicate day 1 as day 2
        import shutil
        for sub in ("dayahead", "fcr", "frequency"):
            shutil.copy(root / sub / "2021-01-01.csv",
                        root / sub / "2021-01-02.csv")
        rep = run_backtest(hourly_config(), Dataset(str(root)))
        a, b = rep.records
        assert a.profit_total == b.profit_total
        assert a.soc_midnight == b.soc_midnight

    def test_stray_file_is_skipped_with_a_reason(self, tmp_path):
        root = tmp_path / "stray"
        generate_synthetic_dataset(str(root), seed=2, days=2, gamma=2.0)
        day = root / "dayahead" / "2021-01-01.csv"
        (root / "dayahead" / "2021-01-01 copy.csv").write_bytes(
            day.read_bytes())
        cfg = hourly_config(options=ARBITRAGE, gap_target=None)
        rep = run_backtest(cfg, Dataset(str(root)))
        assert [r.date for r in rep.records] == ["2021-01-01", "2021-01-02"]
        assert rep.skipped == [("2021-01-01 copy", "not a YYYY-MM-DD date")]
        records = write_report(rep, str(tmp_path / "out"))["records"]
        lines = Path(records).read_text().splitlines()
        assert json.loads(lines[-1]) == {"date": "2021-01-01 copy",
                                         "skipped": "not a YYYY-MM-DD date"}

    def test_day_coupling_seeds_next_day(self, synth):
        rep = run_backtest(hourly_config(day_coupling=True), synth)
        for prev, nxt in zip(rep.records, rep.records[1:]):
            assert nxt.y0 == pytest.approx(prev.soc_midnight, abs=1e-9)

    def test_series_is_prefix_sum(self, synth):
        rep = run_backtest(hourly_config(), synth)
        series = rep.series()
        totals = np.cumsum([r.profit_total for r in rep.records])
        np.testing.assert_allclose([s[1] for s in series], totals,
                                   atol=1e-12)

    def test_joint_beats_arbitrage_only(self, synth):
        joint = run_backtest(hourly_config(), synth)
        arb = run_backtest(hourly_config(
            options=ModelOptions(variant="arbitrage_only",
                                 fcr_enabled=False, da_block_len=1),
            gap_target=None), synth)
        for j, a in zip(joint.records, arb.records):
            assert j.profit_total >= a.profit_total - 1e-6

    def test_skip_missing_data(self, synth, tmp_path):
        root = tmp_path / "gappy"
        generate_synthetic_dataset(str(root), seed=2, days=2, gamma=2.0)
        (root / "frequency" / "2021-01-02.csv").unlink()
        rep = run_backtest(hourly_config(), Dataset(str(root)))
        assert len(rep.records) == 1
        assert len(rep.skipped) == 1
        assert rep.skipped[0][0] == "2021-01-02"

    def test_unreadable_day_file_skips_day(self, tmp_path):
        root = tmp_path / "dirday"
        generate_synthetic_dataset(str(root), seed=2, days=2, gamma=2.0)
        p = root / "frequency" / "2021-01-01.csv"
        p.unlink()
        p.mkdir()
        rep = run_backtest(hourly_config(
            options=ModelOptions(variant="arbitrage_only",
                                 fcr_enabled=False, da_block_len=1),
            gap_target=None), Dataset(str(root)))
        assert [r.date for r in rep.records] == ["2021-01-02"]
        assert len(rep.skipped) == 1
        date, reason = rep.skipped[0]
        assert date == "2021-01-01"
        assert "cannot read" in reason and str(p) in reason

    def test_solver_failure_skips_day(self, tmp_path, monkeypatch):
        root = tmp_path / "nosolver"
        generate_synthetic_dataset(str(root), seed=2, days=2, gamma=2.0)
        monkeypatch.setattr(
            backtest, "solve",
            lambda ir, **kw: SolveResult(status="error", message="injected"))
        rep = run_backtest(hourly_config(), Dataset(str(root)))
        assert rep.records == []
        assert [d for d, _ in rep.skipped] == ["2021-01-01", "2021-01-02"]
        assert all("solver returned error" in r for _, r in rep.skipped)
        paths = write_report(rep, str(tmp_path / "out"))
        assert sorted(paths) == ["records", "series", "summary"]
        assert all(os.path.exists(p) for p in paths.values())
        assert len(open(paths["records"]).read().splitlines()) == 2

    def test_solver_skip_keeps_state_like_data_skip(self, synth,
                                                    monkeypatch):
        # a failed second day must leave y0 and the 8am interval of the
        # third day as if the second day had never been there
        cfg = hourly_config(day_coupling=True, bidding_time="8am")
        d1, d2, d3 = synth.dates()
        expected = run_backtest(cfg, synth, dates=[d1, d3])
        real_solve, calls = backtest.solve, []

        def flaky(ir, **kw):
            calls.append(1)
            if len(calls) == 2:
                return SolveResult(status="error", message="injected")
            return real_solve(ir, **kw)

        monkeypatch.setattr(backtest, "solve", flaky)
        rep = run_backtest(cfg, synth, dates=[d1, d2, d3])
        assert rep.skipped == [(d2, f"{d2}: solver returned error: injected")]
        assert [r.to_dict() for r in rep.records] == \
            [r.to_dict() for r in expected.records]

    def test_non_finite_price_skips_day(self, tmp_path):
        root = tmp_path / "nanday"
        generate_synthetic_dataset(str(root), seed=2, days=2, gamma=2.0)
        p = root / "dayahead" / "2021-01-02.csv"
        lines = p.read_text().splitlines()
        lines[6] = "5,nan"  # the row of hour 5, after the header
        p.write_text("\n".join(lines) + "\n")
        rep = run_backtest(hourly_config(), Dataset(str(root)))
        assert [r.date for r in rep.records] == ["2021-01-01"]
        assert len(rep.skipped) == 1
        date, reason = rep.skipped[0]
        assert date == "2021-01-02"
        assert "non-finite" in reason and str(p) in reason

    def test_dst_exclusion(self, tmp_path):
        root = tmp_path / "dst"
        # 2021-03-28 is the last Sunday of March
        generate_synthetic_dataset(str(root), seed=2, days=3, gamma=2.0)
        import os
        for sub in ("dayahead", "fcr", "frequency"):
            os.rename(root / sub / "2021-01-02.csv",
                      root / sub / "2021-03-28.csv")
        rep = run_backtest(hourly_config(), Dataset(str(root)))
        assert ("2021-03-28", "dst_transition") in rep.skipped

    @pytest.mark.parametrize("bounds,expected", [
        (("2021-01-02", "2021-01-02"), ["2021-01-02"]),
        (("2021-01-02", None), ["2021-01-02", "2021-01-03"]),
        ((None, "2021-01-01"), ["2021-01-01"]),
        (("2021-02-01", None), [])])
    def test_start_and_end_date_bound_the_days(self, synth, bounds,
                                               expected):
        start, end = bounds
        cfg = hourly_config(options=ARBITRAGE, gap_target=None,
                            start_date=start, end_date=end)
        rep = run_backtest(cfg, synth)
        assert [r.date for r in rep.records] == expected
        assert rep.skipped == []
        # explicit dates are bounded the same way
        rep = run_backtest(cfg, synth, dates=["2021-01-03", "2021-01-01"])
        assert [r.date for r in rep.records] == \
            [d for d in ("2021-01-03", "2021-01-01") if d in expected]

    def test_8am_bidding_runs_and_is_conservative(self, synth):
        mid = run_backtest(hourly_config(day_coupling=True), synth,
                           dates=synth.dates())
        am = run_backtest(hourly_config(day_coupling=True,
                                        bidding_time="8am"), synth,
                          dates=synth.dates())
        assert len(am.records) == len(mid.records)
        # day 1 has no committed bids yet, so the records coincide
        assert am.records[0].profit_total == pytest.approx(
            mid.records[0].profit_total, abs=1e-9)
        # the replay starts from the previous day's realized midnight SOC,
        # not from the low end of the interval the bids are certified for
        for prev, rec in zip(am.records, am.records[1:]):
            assert rec.y0 == prev.soc_midnight


class TestEightAmDrift:
    @pytest.mark.parametrize("dt, K, start", [(3.0, 8, 6.0), (0.75, 32, 7.5)])
    def test_interval_running_at_8am_counts(self, dt, K, start):
        # reserve only in the interval [start, start + dt) that holds 8:00
        # is committed at 8am, so the next day's start SOC is uncertain
        cfg = hourly_config(grid=TimeGrid(dt_hours=dt, K=K),
                            budget=UncertaintyBudget(kind="total_budget",
                                                     gamma=3.0))
        t = np.arange(K) * dt
        xr = np.where(t == start, 10.0, 0.0)
        assert backtest._eight_am_drift(cfg, xr) == pytest.approx(
            3.0 * 10.0 / REFERENCE_BATTERY.eta_d)
        # reserve that ends by 8:00 is done before the bids are placed
        assert backtest._eight_am_drift(cfg, np.where(t < start, 10.0,
                                                      0.0)) == 0.0


class TestDstDetection:
    def test_known_transition_days(self):
        assert is_dst_transition("2021-03-28")
        assert is_dst_transition("2021-10-31")
        assert not is_dst_transition("2021-03-21")
        assert not is_dst_transition("2021-06-27")


class TestExtractBids:
    @pytest.mark.parametrize("point,missing", [
        ({"x0[1]": 1.0, "xr[1]": 2.0, "xr[2]": 2.0}, "x0[2]"),
        ({"x0[1]": 1.0, "x0[2]": 1.0, "xr[1]": 2.0}, "xr[2]")])
    def test_missing_bid_variable_raises(self, point, missing):
        # a missing name is a bug upstream, not a zero bid
        with pytest.raises(KeyError, match=re.escape(missing)):
            backtest._extract_bids(point, 2, ModelOptions())


class TestReportFiles:
    def test_write_and_determinism(self, synth, tmp_path):
        rep = run_backtest(hourly_config(), synth)
        p1 = write_report(rep, str(tmp_path / "a"))
        p2 = write_report(rep, str(tmp_path / "b"))
        for key in p1:
            assert open(p1[key], "rb").read() == open(p2[key], "rb").read()
        lines = open(p1["records"]).read().splitlines()
        assert len(lines) == len(rep.records)
        rec = json.loads(lines[0])
        assert "solve_time" not in rec  # timing excluded for reproducibility
        assert rec["date"] == rep.records[0].date

    @pytest.mark.parametrize("options,path", [
        (ModelOptions(variant="restriction", fcr_block_len=4,
                      da_block_len=1), "start+bound"),
        (ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                      da_block_len=1), "split-lp")])
    def test_timed_record_names_the_solve_path(self, synth, options, path):
        rec = run_day(hourly_config(options=options),
                      synth.load_day("2021-01-01"), 53.328)[0]
        assert rec.solve_path == path
        assert rec.to_dict(include_timing=True)["solve_path"] == path
        assert "solve_path" not in rec.to_dict()

    def test_timed_write_adds_only_the_timing_keys(self, synth, tmp_path):
        rep = run_backtest(hourly_config(options=ARBITRAGE), synth)
        plain = write_report(rep, str(tmp_path / "plain"))
        timed = write_report(rep, str(tmp_path / "timed"),
                             include_timing=True)
        for key in ("summary", "series"):
            assert open(timed[key], "rb").read() == \
                open(plain[key], "rb").read()
        plain_recs = [json.loads(line) for line in open(plain["records"])]
        timed_recs = [json.loads(line) for line in open(timed["records"])]
        assert len(timed_recs) == len(plain_recs) == len(rep.records) > 0
        for p, t, r in zip(plain_recs, timed_recs, rep.records):
            assert not {"solve_time", "gap", "solve_path"} & p.keys()
            assert (t.pop("solve_time"), t.pop("gap"), t.pop("solve_path")) \
                == (r.solve_time, r.gap, r.solve_path)
            assert t == p

    def test_series_csv_shape(self, synth, tmp_path):
        rep = run_backtest(hourly_config(), synth)
        paths = write_report(rep, str(tmp_path / "c"))
        lines = open(paths["series"]).read().splitlines()
        assert lines[0] == "date,cumulative_profit_eur,cumulative_throughput_kwh"
        assert len(lines) == 1 + len(rep.records)


ARBITRAGE = ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                         da_block_len=1)


def arbitrage_day(da, dt_hours=1.0):
    """A day of day-ahead prices ``da`` (one per interval) with a zero
    regulation signal."""
    K = len(da)
    return DayData(date="2021-01-01",
                   prices=PriceSeries(day_ahead=da, fcr_availability=[],
                                      da_block_hours=dt_hours),
                   signal=RegulationSignal(np.zeros(K), dt_hours))


class TestArbitrageSplitPath:
    """Every arbitrage-only day is bid from one model in one solve: the
    split LP, plus for a lossy battery one binary per day-ahead block
    with a price <= 0."""

    def _capture(self, monkeypatch):
        """The (model, result) of each solve that run_day makes."""
        results = []
        real = backtest.solve

        def capture(ir, **kw):
            results.append((ir, real(ir, **kw)))
            return results[-1][1]

        monkeypatch.setattr(backtest, "solve", capture)
        return results

    def _instance(self, rng, K):
        params = StorageParams(
            x_min=-float(rng.uniform(1, 5)), x_max=float(rng.uniform(1, 5)),
            y_min=0.0, y_max=float(rng.uniform(3, 10)),
            eta_c=float(rng.uniform(0.6, 1.0)),
            eta_d=float(rng.uniform(0.6, 1.0)))
        da = rng.uniform(0.0, 100.0, K)
        if rng.uniform() < 0.4:
            da -= rng.uniform(20.0, 80.0)
        da_block = int(rng.choice([b for b in (1, 2, 4) if K % b == 0]))
        y0 = float(rng.uniform(params.y_min, params.y_max))
        drift = float(rng.uniform(0.0, 1.0)) if rng.uniform() < 0.5 else 0.0
        floor = (float(rng.uniform(params.y_min, y0))
                 if rng.uniform() < 0.5 else None)
        options = ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                               da_block_len=da_block,
                               terminal_soc_floor=floor)
        # the reference MILP stops at a 1e-9 gap and run_day solves to
        # optimality, so their optima agree to 1e-7
        config = ExperimentConfig(
            params=params, grid=TimeGrid(dt_hours=1.0, K=K),
            budget=UncertaintyBudget(kind="total_budget", gamma=1.0),
            options=options, time_limit=60.0, gap_target=1e-9)
        return config, arbitrage_day(da), y0, drift

    def test_parity_with_the_milp(self, monkeypatch):
        results = self._capture(monkeypatch)
        rng = np.random.default_rng(2016)
        n_binaries = []
        for i in range(200):
            # a K = 24 reference MILP takes seconds, so one instance in
            # 100 is a full day
            K = 24 if i % 100 == 0 else int(rng.choice([3, 4, 6, 8, 12]))
            config, day, y0, drift = self._instance(rng, K)
            params, grid = config.params, config.grid
            y0_lo, y0_hi = np.clip([y0 - drift, y0 + drift],
                                   params.y_min, params.y_max).tolist()
            args = (params, grid, config.budget, y0_lo, day.prices,
                    config.options)
            milp = solve(dispatch_variant(*args, y0_high=y0_hi),
                         gap_target=config.gap_target)
            n_solves = len(results)
            try:
                rec, x0, _, _ = run_day(config, day, y0, drift)
            except backtest.SolverError:
                assert not milp.ok
                continue
            assert len(results) == n_solves + 1
            ir, res = results[-1]
            # one binary per block with a price <= 0, none if lossless
            blocks = day.prices.day_ahead.reshape(
                -1, config.options.da_block_len)
            assert ir.n_binaries == (0 if params.is_lossless else
                                     np.any(blocks <= 0, axis=1).sum())
            n_binaries.append(ir.n_binaries)
            assert rec.solve_path == "split-lp"
            assert res.objective == pytest.approx(milp.objective, abs=1e-7)
            assert rec.objective == res.objective
            # the bid completes to an optimum of the robust model
            ir = dispatch_variant(*args, y0_high=y0_hi)
            for k in range(1, grid.K + 1):
                ir.fix_variable(f"x0[{k}]", float(x0[k - 1]))
                if k < grid.K:
                    ir.fix_variable(f"u2[{k}]", float(x0[k - 1] <= 0))
            completed = solve(ir)
            assert completed.status == "optimal"
            assert completed.objective == pytest.approx(res.objective,
                                                        abs=1e-9)
            bids = BidSchedule(x0=x0, x_up=np.zeros(grid.K),
                               x_dn=np.zeros(grid.K))
            for start in (y0_lo, y0_hi):
                assert check_feasibility(bids, params, grid, 1.0,
                                         start).feasible
        # both kinds of model are exercised
        assert sum(n == 0 for n in n_binaries) >= 100
        assert sum(n > 0 for n in n_binaries) >= 10

    def _full_at_negative_price(self):
        """A day that a full battery starts at a negative price: the split
        LP earns by buying and selling in one interval, which no bid can
        do."""
        params = StorageParams(x_min=-4.0, x_max=4.0, y_min=0.0, y_max=8.0,
                               eta_c=0.8, eta_d=0.8)
        config = ExperimentConfig(
            params=params, grid=TimeGrid(dt_hours=1.0, K=4),
            budget=UncertaintyBudget(kind="total_budget", gamma=1.0),
            options=ARBITRAGE)
        return config, arbitrage_day([-60.0, 10.0, 80.0, 30.0])

    def test_negative_price_gets_a_binary_not_a_split_bid(self,
                                                          monkeypatch):
        config, day = self._full_at_negative_price()
        params = config.params
        split = split_arbitrage_lp(params, config.grid, 8.0, day.prices,
                                   ARBITRAGE)
        relaxed = solve(replace(split, binary=np.zeros(split.n_vars, bool)))
        assert relaxed.point["c[1]"] > 1e-6 and relaxed.point["d[1]"] > 1e-6
        results = self._capture(monkeypatch)
        rec = run_day(config, day, 8.0)[0]
        milp = solve(dispatch_variant(params, config.grid, config.budget,
                                      8.0, day.prices, ARBITRAGE))
        (ir, res), = results
        assert ir.var_names[ir.binary.nonzero()[0][0]] == "v[1]"
        assert ir.n_binaries == 1
        assert rec.solve_path == "split-lp"
        assert min(res.point["c[1]"], res.point["d[1]"]) == 0.0
        assert rec.objective == pytest.approx(milp.objective, abs=1e-9)
        assert milp.objective > relaxed.objective + 1e-3

    def _count_calls(self, monkeypatch):
        calls = {"dispatch_variant": 0, "solve": 0}
        for name in calls:
            real = getattr(backtest, name)

            def counted(*args, _name=name, _real=real, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(backtest, name, counted)
        return calls

    def test_complementary_day_builds_no_robust_model(self, monkeypatch):
        results = self._capture(monkeypatch)
        calls = self._count_calls(monkeypatch)
        da = 40 + 30 * np.sin(np.arange(24) / 24 * 4 * np.pi)
        rec, x0, _, _ = run_day(
            hourly_config(options=ARBITRAGE, gap_target=None),
            arbitrage_day(da), 50.0)
        assert calls == {"dispatch_variant": 0, "solve": 1}
        (ir, res), = results
        assert ir.n_binaries == 0
        assert rec.solve_path == "split-lp"
        assert res.status == "optimal" and res.gap == 0.0
        assert rec.solve_time == res.solve_time > 0.0
        np.testing.assert_array_equal(
            x0, [res.point[f"d[{k}]"] - res.point[f"c[{k}]"]
                 for k in range(1, 25)])
        assert np.any(x0 > 0) and np.any(x0 < 0)

    def test_negative_price_day_makes_one_solve(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        run_day(*self._full_at_negative_price(), 8.0)
        assert calls == {"dispatch_variant": 0, "solve": 1}

    def test_infeasible_split_lp_ends_the_day(self, monkeypatch):
        # a terminal floor above y_max: the split LP relaxes the robust
        # model, so its infeasibility settles the day without a build
        calls = self._count_calls(monkeypatch)
        options = ModelOptions(variant="arbitrage_only", fcr_enabled=False,
                               da_block_len=1, terminal_soc_floor=95.0)
        da = 40 + 30 * np.sin(np.arange(24) / 24 * 4 * np.pi)
        with pytest.raises(backtest.SolverError,
                           match="solver returned infeasible"):
            run_day(hourly_config(options=options, gap_target=None),
                    arbitrage_day(da), 50.0)
        assert calls == {"dispatch_variant": 0, "solve": 1}

    def test_lossless_arbitrage_is_one_lp(self, monkeypatch):
        # a lossless battery gets no binary, also at prices <= 0
        lossless = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                                 eta_c=1.0, eta_d=1.0)
        results = self._capture(monkeypatch)
        calls = self._count_calls(monkeypatch)
        da = 40 + 60 * np.sin(np.arange(24) / 24 * 4 * np.pi)
        assert np.any(da < 0)
        rec = run_day(hourly_config(params=lossless, options=ARBITRAGE,
                                    gap_target=None),
                      arbitrage_day(da), 50.0)[0]
        assert calls == {"dispatch_variant": 0, "solve": 1}
        (ir, res), = results
        assert ir.n_binaries == 0 and "c[1]" in ir.registry
        assert rec.solve_path == "split-lp"
        robust = solve(dispatch_variant(
            lossless, HOURLY, UncertaintyBudget(kind="total_budget",
                                                gamma=2.0),
            50.0, arbitrage_day(da).prices, ARBITRAGE))
        assert rec.objective == pytest.approx(robust.objective, abs=1e-9)

    @pytest.mark.parametrize("spread", [60.0, 120.0])
    def test_negative_price_days_from_the_generator(self, tmp_path,
                                                    monkeypatch, spread):
        # spread 60 gives 3-5 hours priced <= 0 a day, spread 120 gives
        # 6-7 (seed 21)
        generate_synthetic_dataset(str(tmp_path), seed=21, days=30,
                                   gamma=2.0, spread=spread)
        dataset = Dataset(str(tmp_path))
        results = self._capture(monkeypatch)
        calls = self._count_calls(monkeypatch)
        config = hourly_config(options=ARBITRAGE, gap_target=None)
        y0 = config.y0_default
        for i, date in enumerate(dataset.dates(), 1):
            day = dataset.load_day(date)
            rec, x0, x_up, x_dn = run_day(config, day, y0)
            assert calls == {"dispatch_variant": 0, "solve": i}
            ir, res = results[-1]
            nonpositive = np.sum(day.prices.day_ahead <= 0)
            assert ir.n_binaries == nonpositive >= 3
            # the split model with a binary on every interval is exact
            # by construction
            every = split_arbitrage_lp(
                REFERENCE_BATTERY, HOURLY, y0,
                PriceSeries(day_ahead=-np.ones(24), fcr_availability=[]),
                ARBITRAGE)
            every.cost[:3 * 24] = ir.cost[:3 * 24]
            assert every.n_binaries == 24
            reference = solve(every, gap_target=0.0)
            assert rec.objective == pytest.approx(reference.objective,
                                                  abs=1e-7)
            bids = BidSchedule(x0=x0, x_up=x_up, x_dn=x_dn)
            assert check_feasibility(bids, REFERENCE_BATTERY, HOURLY, 2.0,
                                     y0).feasible

    def test_guard_rejects_a_split_point(self, synth, monkeypatch):
        # a lossy point that charges and discharges at once is no bid:
        # run_day raises, and the backtest skips that day and goes on
        real = backtest.solve

        def split_first_day(ir, **kw):
            res = real(ir, **kw)
            if split_first_day.calls == 0:
                point = dict(res.point)
                point["c[3]"] += 1.0
                point["d[3]"] += 1.0
                res = replace(res, point=point)
            split_first_day.calls += 1
            return res

        split_first_day.calls = 0
        monkeypatch.setattr(backtest, "solve", split_first_day)
        config = hourly_config(options=ARBITRAGE)
        message = "charges and discharges at once in interval 3"
        with pytest.raises(backtest.SolverError, match=message):
            run_day(config, synth.load_day("2021-01-01"), 50.0)
        split_first_day.calls = 0
        report = run_backtest(config, synth)
        first, *rest = synth.dates()
        assert report.skipped == [
            (first, f"{first}: the arbitrage bid {message}")]
        assert [r.date for r in report.records] == rest


class TestIntradayMode:
    def test_intraday_day_runs_with_rolling_budget(self, tmp_path):
        root = tmp_path / "iday"
        generate_synthetic_dataset(str(root), seed=4, days=1, gamma=0.25)
        # the drift envelope is only guaranteed for lossless batteries
        lossless = StorageParams(x_min=-50, x_max=50, y_min=10, y_max=90,
                                 eta_c=1.0, eta_d=1.0)
        cfg = ExperimentConfig(
            params=lossless, grid=QUARTER,
            budget=UncertaintyBudget.from_eu_rules(0.25),
            options=ModelOptions(variant="restriction", intraday=True,
                                 fcr_block_len=16, da_block_len=4),
            time_limit=120.0, gap_target=0.1)
        rec = run_day(cfg, Dataset(str(root)).load_day("2021-01-01"),
                      53.328)[0]
        assert rec.status in ("optimal", "feasible_limit")
        assert rec.profit_total == pytest.approx(
            rec.profit_fcr + rec.profit_dayahead + rec.profit_intraday,
            abs=1e-9)
        # drift-envelope violations would be recorded explicitly
        assert not any(v.startswith("drift") for v in rec.violations)


class TestStartOnTimeLimit:
    def test_no_time_left_returns_the_start(self, synth, monkeypatch):
        # a clock that jumps 1000 s per reading leaves the MILP no time
        # after the relax-and-fix start, so the start is the incumbent
        ticks = itertools.count(0.0, 1000.0)
        monkeypatch.setattr(importlib.import_module("storagebid.solve"),
                            "time", SimpleNamespace(
                                perf_counter=lambda: next(ticks)))
        cfg = hourly_config()
        day = synth.load_day("2021-01-01")
        ir = dispatch_variant(cfg.params, cfg.grid, cfg.budget,
                              cfg.y0_default, day.prices, cfg.options)
        res = solve(ir, time_limit=cfg.time_limit,
                    gap_target=cfg.gap_target)
        assert res.status == "feasible_limit"
        assert res.path == "start+milp"
        assert res.objective == pytest.approx(res.start_objective, abs=1e-9)
        rep = run_backtest(cfg, synth, dates=["2021-01-01"])
        assert rep.skipped == []
        (rec,) = rep.records
        assert rec.status == "feasible_limit"
        assert rec.solve_path == "start+milp"
        assert rec.objective == res.objective


class TestReplayViolations:
    def test_signal_beyond_the_budget_is_recorded(self, synth):
        # full upregulation for the first 6 h, then full downregulation:
        # 3 h of deviation per 3 h window against a budget of 1 h
        params, grid = REFERENCE_BATTERY, HOURLY
        cfg = hourly_config(
            budget=UncertaintyBudget(kind="rolling_window", gamma_prime=1.0,
                                     Gamma_prime=3.0),
            options=ModelOptions(variant="restriction", intraday=True,
                                 fcr_block_len=4, da_block_len=1))
        day = synth.load_day("2021-01-01")
        n = len(day.signal.values)
        signal = RegulationSignal(np.where(np.arange(n) < n // 4, 1.0, -1.0),
                                  day.signal.sample_period_hours)
        day = DayData(date=day.date, prices=day.prices, signal=signal)
        rec, x0, x_up, _ = run_day(cfg, day, 53.328)
        assert rec.budget_usage == pytest.approx(3.0, abs=1e-9)
        low, high, drift = rec.violations
        assert low == f"soc_below_min:{rec.soc_min:.6f}"
        assert high == f"soc_above_max:{rec.soc_max:.6f}"
        assert rec.soc_min < params.y_min and rec.soc_max > params.y_max
        # interval 1 has no intraday trade yet: the plan moves at the
        # rate of x0, the replay at that of x0 + x_up
        dy = abs(float(soc_rate(x0[0] + x_up[0], params)
                       - soc_rate(x0[0], params))) * grid.dt_hours
        env = drift_envelope(x_up, signal, grid, 3.0)
        assert drift == f"drift_envelope[1]:{dy:.6f}"
        assert dy > env[0] + 1e-6
        clean = run_day(hourly_config(), synth.load_day("2021-01-01"),
                        53.328)[0]
        summary = BacktestReport(records=[rec, clean]).summary()
        assert summary["days_with_violations"] == 1
        assert summary["soc_min"] == rec.soc_min
        assert summary["soc_max"] == rec.soc_max


def test_synthetic_backtest_demo_runs(tmp_path, monkeypatch, capsys):
    # demos/synthetic_backtest.py solves a week with each of its three
    # strategies, limited arbitrage included; its data goes under tmp_path
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    demo = Path(__file__).resolve().parents[1] / "demos" / \
        "synthetic_backtest.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    (root,) = tmp_path.iterdir()
    assert f"synthetic data in {root}: 7 days" in out
    for name in ("arbitrage only", "joint", "joint, limited arbitrage"):
        assert re.search(rf"^{name} +-?\d+\.\d\d € ", out, re.M), name
