"""Tests for CSV ingestion, the frequency-to-signal mapping, and the
synthetic data generator."""

import hashlib
import os

import numpy as np
import pytest

from storagebid.data import (
    DataError,
    Dataset,
    SAMPLES_PER_DAY,
    frequency_to_signal,
    generate_synthetic_dataset,
    load_dayahead,
    load_fcr,
    load_frequency,
    signal_to_frequency,
    synthetic_prices,
    synthetic_signal,
)


class TestFrequencyToSignal:
    def test_nominal_frequency_gives_zero(self):
        assert frequency_to_signal(50.0) == 0.0

    def test_full_activation_thresholds(self):
        assert frequency_to_signal(49.8) == 1.0
        assert frequency_to_signal(50.2) == -1.0

    def test_linear_midpoint(self):
        assert frequency_to_signal(50.1) == -0.5

    def test_saturates_beyond_thresholds(self):
        f = np.array([49.7, 49.8, 50.0, 50.1, 50.2, 50.3])
        np.testing.assert_array_equal(
            frequency_to_signal(f), [1.0, 1.0, 0.0, -0.5, -1.0, -1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            frequency_to_signal(np.nan)
        with pytest.raises(DataError):
            frequency_to_signal(np.array([50.0, np.inf]))

    def test_inverse_on_linear_branch(self):
        sig = synthetic_signal(np.random.default_rng(0), 2.75)
        back = frequency_to_signal(signal_to_frequency(sig))
        np.testing.assert_allclose(back, sig.values, atol=1e-12)


class TestCsvReaders:
    def test_round_trip_via_generator(self, tmp_path):
        dates = generate_synthetic_dataset(str(tmp_path), seed=3, days=2,
                                           gamma=2.75)
        da = load_dayahead(str(tmp_path / "dayahead" / f"{dates[0]}.csv"))
        fcr = load_fcr(str(tmp_path / "fcr" / f"{dates[0]}.csv"))
        hz = load_frequency(str(tmp_path / "frequency" / f"{dates[0]}.csv"))
        assert da.shape == (24,)
        assert fcr.shape == (6,)
        assert hz.shape == (SAMPLES_PER_DAY,)
        assert np.all(np.isfinite(da)) and np.all(np.isfinite(hz))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_dayahead(str(tmp_path / "nope.csv"))

    def test_short_dayahead_rejected(self, tmp_path):
        p = tmp_path / "day.csv"
        p.write_text("hour,price\n0,10.0\n1,12.0\n")
        with pytest.raises(DataError, match="24 hourly"):
            load_dayahead(str(p))

    def test_frequency_gap_rejected(self, tmp_path):
        p = tmp_path / "freq.csv"
        rows = ["offset_s,hz"]
        rows += [f"{i * 10},50.0" for i in range(SAMPLES_PER_DAY)]
        del rows[100]  # drop one sample
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="gap"):
            load_frequency(str(p))

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "day.csv"
        p.write_text("hour,price\n" +
                     "\n".join(f"{h},abc" for h in range(24)))
        with pytest.raises(DataError):
            load_dayahead(str(p))

    @pytest.mark.parametrize("sub, value", [("dayahead", "nan"),
                                            ("fcr", "nan"),
                                            ("frequency", "inf")])
    def test_non_finite_value_rejected(self, tmp_path, sub, value):
        dates = generate_synthetic_dataset(str(tmp_path), seed=3, days=1,
                                           gamma=2.75)
        p = tmp_path / sub / f"{dates[0]}.csv"
        lines = p.read_text().splitlines()
        lines[1] = lines[1].split(",")[0] + "," + value
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-finite") as e:
            Dataset(str(tmp_path)).load_day(dates[0])
        assert str(p) in str(e.value)

    def test_dataset_lists_days_and_loads(self, tmp_path):
        dates = generate_synthetic_dataset(str(tmp_path), seed=1, days=3,
                                           gamma=2.0)
        ds = Dataset(str(tmp_path))
        assert ds.dates() == dates
        day = ds.load_day(dates[1])
        assert day.date == dates[1]
        assert day.prices.day_ahead.shape == (24,)
        assert day.signal.values.shape == (SAMPLES_PER_DAY,)


class TestSyntheticGenerator:
    def test_budget_target_calibration(self):
        gamma = 2.75
        usages = []
        for seed in range(20):
            sig = synthetic_signal(np.random.default_rng(seed), gamma,
                                   budget_target=0.7)
            usages.append(sig.abs_integral() / gamma)
        assert abs(np.mean(usages) - 0.7) < 0.05

    def test_signal_within_unit_band(self):
        sig = synthetic_signal(np.random.default_rng(7), 2.75)
        assert np.all(np.abs(sig.values) <= 1.0)

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic_dataset(str(a), seed=9, days=2, gamma=2.75)
        generate_synthetic_dataset(str(b), seed=9, days=2, gamma=2.75)
        for sub in ("dayahead", "fcr", "frequency"):
            for name in sorted(os.listdir(a / sub)):
                ha = hashlib.sha256((a / sub / name).read_bytes()).digest()
                hb = hashlib.sha256((b / sub / name).read_bytes()).digest()
                assert ha == hb

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic_dataset(str(a), seed=1, days=1, gamma=2.75)
        generate_synthetic_dataset(str(b), seed=2, days=1, gamma=2.75)
        fa = (a / "dayahead" / "2021-01-01.csv").read_text()
        fb = (b / "dayahead" / "2021-01-01.csv").read_text()
        assert fa != fb

    def test_zero_spread_flat_prices(self):
        da, _ = synthetic_prices(np.random.default_rng(0), spread=0.0)
        assert np.all(da == da[0])

    def test_fcr_prices_nonnegative(self):
        for seed in range(10):
            _, fcr = synthetic_prices(np.random.default_rng(seed))
            assert np.all(fcr >= 0.0)

    def test_rejects_zero_days(self, tmp_path):
        with pytest.raises(DataError):
            generate_synthetic_dataset(str(tmp_path), seed=0, days=0,
                                       gamma=2.75)
