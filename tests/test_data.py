"""Tests for CSV ingestion, the frequency-to-signal mapping, and the
synthetic data generator."""

import csv
import hashlib
import os
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from storagebid import data as data_module
from storagebid.data import (
    DataError,
    Dataset,
    SAMPLES_PER_DAY,
    _read_csv,
    _write_rows,
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

    def test_path_that_cannot_be_opened(self, tmp_path):
        p = tmp_path / "day.csv"
        p.mkdir()
        with pytest.raises(DataError, match="cannot read") as e:
            load_dayahead(str(p))
        assert str(p) in str(e.value)

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


def reference_read_csv(path: str, columns: int) -> list[list[float]]:
    """The row-by-row ``csv``-module reader that ``_read_csv`` replaced,
    kept as the reference for its values and its errors."""
    if not os.path.exists(path):
        raise DataError(f"missing data file {path}")
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        for line in reader:
            if len(line) < columns:
                raise DataError(f"{path}: short row {line!r}")
            try:
                rows.append([float(x) for x in line[:columns]])
            except ValueError as e:
                raise DataError(f"{path}: {e}") from None
    if not np.all(np.isfinite(rows)):
        raise DataError(f"{path}: non-finite value")
    return rows


FORMATS = (repr, str, lambda x: format(x, ".6f"), lambda x: format(x, "e"),
           lambda x: format(x, ".17g"), lambda x: f" {x!r} ")
finite = st.floats(allow_nan=False, allow_infinity=False)
extra_field = st.text(alphabet=string.ascii_letters + string.digits + " .",
                      max_size=5)


LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def day_file(draw):
    """A well-formed two-column day file: header, rows of finite values in
    one of several number formats, optional extra columns, LF, CRLF or
    lone CR line ends, with or without a final line end."""
    fmt = draw(st.sampled_from(FORMATS))
    values = draw(st.lists(st.tuples(finite, finite), max_size=30))
    rows = []
    for a, b in values:
        extra = draw(st.lists(extra_field, max_size=2))
        rows.append(",".join([fmt(a), fmt(b)] + extra))
    eol = draw(st.sampled_from(LINE_ENDS))
    text = eol.join(["offset,value"] + rows)
    if draw(st.booleans()):
        text += eol
    return text, values


BAD_TOKENS = ("", "abc", "1e", "--1", "0x10", "1 2", "1.2.3", "nan", "inf",
              "-inf", "NaN", "Infinity")


@st.composite
def malformed_file(draw):
    """A day file broken in one way: a short or blank row, a non-numeric
    or non-finite value, or no content at all; any line end."""
    text, values = draw(day_file())
    lines = text.splitlines()
    kind = draw(st.sampled_from(["short", "blank", "token", "empty"]))
    if kind == "empty":
        return ""
    at = draw(st.integers(1, len(lines)))
    if kind == "short":
        lines.insert(at, draw(st.sampled_from(["5", "  ", "abc"])))
    elif kind == "blank":
        lines.insert(at, "")
    else:
        lines.insert(at, "1," + draw(st.sampled_from(BAD_TOKENS)))
    eol = draw(st.sampled_from(LINE_ENDS))
    return eol.join(lines) + eol


@pytest.mark.filterwarnings("error::UserWarning")
class TestReaderMatchesCsvModule:
    """``_read_csv`` parses a file in one vectorized pass; the row-by-row
    ``csv`` reader is its reference."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=day_file())
    def test_well_formed_files_parse_bit_identically(self, tmp_path, case):
        text, values = case
        p = tmp_path / "day.csv"
        p.write_bytes(text.encode())
        got = _read_csv(str(p), 2)
        want = np.array(reference_read_csv(str(p), 2),
                        dtype=float).reshape(-1, 2)
        assert got.shape == want.shape == (len(values), 2)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=malformed_file())
    def test_malformed_files_raise_the_reference_error(self, tmp_path,
                                                       text):
        p = tmp_path / "day.csv"
        p.write_bytes(text.encode())
        with pytest.raises(DataError) as want:
            reference_read_csv(str(p), 2)
        with pytest.raises(DataError) as got:
            _read_csv(str(p), 2)
        assert str(got.value) == str(want.value)
        assert str(p) in str(got.value)

    def test_header_only_file_gives_no_rows(self, tmp_path):
        p = tmp_path / "day.csv"
        p.write_text("hour,price\n")
        assert _read_csv(str(p), 2).shape == (0, 2)
        with pytest.raises(DataError, match="24 hourly"):
            load_dayahead(str(p))

    def test_blank_line_is_a_short_row(self, tmp_path):
        p = tmp_path / "day.csv"
        p.write_text("hour,price\n" + "".join(
            f"{h},10.0\n" + ("\n" if h == 5 else "") for h in range(24)))
        with pytest.raises(DataError, match=r"short row \[\]"):
            load_dayahead(str(p))

    @pytest.mark.parametrize("ends", [("\r\n", "\n"), ("\r\n", "\r"),
                                      ("\n", "\r"), ("\r", "\r\n", "\n")])
    def test_mixed_line_ends_parse_as_the_reference(self, tmp_path, ends):
        p = tmp_path / "day.csv"
        lines = ["hour,price"] + [f"{h},{10.5 + h}" for h in range(24)]
        p.write_bytes("".join(line + ends[i % len(ends)]
                              for i, line in enumerate(lines)).encode())
        assert load_dayahead(str(p)).tolist() == \
            [row[1] for row in reference_read_csv(str(p), 2)]

    def test_undecodable_file_is_a_data_error(self, tmp_path):
        p = tmp_path / "day.csv"
        p.write_bytes(b"hour,price\n0,\xff\xfe\n")
        with pytest.raises(DataError) as e:
            load_dayahead(str(p))
        assert str(p) in str(e.value)

    @pytest.mark.parametrize("loader, sub, edit", [
        (load_dayahead, "dayahead", "drop"),
        (load_dayahead, "dayahead", "gap"),
        (load_dayahead, "dayahead", "half"),
        (load_fcr, "fcr", "drop"),
        (load_fcr, "fcr", "gap"),
        (load_fcr, "fcr", "half"),
        (load_frequency, "frequency", "drop"),
        (load_frequency, "frequency", "gap")])
    def test_missing_or_gapped_rows_rejected(self, tmp_path, loader, sub,
                                             edit):
        dates = generate_synthetic_dataset(str(tmp_path), seed=3, days=1,
                                           gamma=2.75)
        p = tmp_path / sub / f"{dates[0]}.csv"
        lines = p.read_text().splitlines()
        assert np.array_equal(
            loader(str(p)),
            np.array(reference_read_csv(str(p), 2))[:, 1])
        if edit == "drop":
            del lines[3]
        elif edit == "gap":
            first, rest = lines[3].split(",")
            lines[3] = f"{float(first) + 1.5},{rest}"
        else:
            # 0.5, 1.5, ... truncate to the expected labels but are none
            lines[1:] = [f"{float(first) + 0.5},{rest}" for first, rest
                         in (line.split(",") for line in lines[1:])]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match="expected|gap in 10 s") as e:
            loader(str(p))
        assert str(p) in str(e.value)


def reference_write_rows(path: str, header: str, keys, values) -> None:
    """The ``csv``-module writer that ``_write_rows`` replaced, kept as
    the reference for its bytes."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header.split(","))
        w.writerows([[k, format(v, ".6f")] for k, v in zip(keys, values)])


class TestWriterMatchesCsvModule:
    """``_write_rows`` formats a whole file in one ``%`` operation; the
    ``csv``-module writer it replaced must give the same bytes."""

    VALUES = np.array([-0.0, 0.0, -1.5, -49.9999995, 5e-7, 2.5e-7, -5e-7,
                       1.0000005, 0.1234565, 49.95, 1e15, -1e15, 1e22,
                       np.nan, np.inf, -np.inf])

    @pytest.mark.parametrize("keys", [range(16), np.arange(-8, 8) * 10],
                             ids=["range", "array"])
    def test_edge_values(self, tmp_path, keys):
        got, want = tmp_path / "got" / "f.csv", tmp_path / "want" / "f.csv"
        _write_rows(str(got), "offset_s,hz", keys, self.VALUES)
        reference_write_rows(str(want), "offset_s,hz", keys, self.VALUES)
        assert got.read_bytes() == want.read_bytes()

    def test_every_file_of_a_dataset(self, tmp_path, monkeypatch):
        kw = dict(seed=13, days=2, gamma=1.5, base=-20.0, spread=55.0,
                  fcr_level=12.5, budget_target=0.9)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic_dataset(str(a), **kw)
        monkeypatch.setattr(data_module, "_write_rows", reference_write_rows)
        generate_synthetic_dataset(str(b), **kw)
        names = {sub: sorted(os.listdir(a / sub))
                 for sub in ("dayahead", "fcr", "frequency")}
        assert names == {sub: sorted(os.listdir(b / sub)) for sub in names}
        for sub, files in names.items():
            assert len(files) == 2
            for name in files:
                assert (a / sub / name).read_bytes() == \
                    (b / sub / name).read_bytes(), (sub, name)
        prices = load_dayahead(str(a / "dayahead" / names["dayahead"][0]))
        assert prices.min() < 0.0


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

    # SHA-256 of the first two days of the acceptance dataset (seed 21,
    # gamma 2), which the benchmark's pools and the acceptance backtest
    # read: a change to the generator moves every digest built on them
    ACCEPTANCE_DAY_SHA256 = {
        ("dayahead", "2021-01-01"): "265f80c2655f7634e3f1b7ffecebd46a"
                                    "926f940c31bd984aea0bd38c4a8ae8fd",
        ("dayahead", "2021-01-02"): "aa5759aa86a0be4ed2d43d2e85ac75a5"
                                    "215058e1623d819862a04046ec58e83b",
        ("fcr", "2021-01-01"): "dcf4c4f288b2dc396be4439a29f71ce3"
                               "a2b85d28e30a0e00e53532911611f4db",
        ("fcr", "2021-01-02"): "2fdc7d82b05132ac9f61ad231c00004f"
                               "55c47446858542e3cb2f20f5accacab3",
        ("frequency", "2021-01-01"): "129c7b586507495de53439618367f716"
                                     "0ba0866aa640618acecb0e4f95a79fd4",
        ("frequency", "2021-01-02"): "77f33a415a528e3b63f87284e06137f"
                                     "ba12f2f633a50c51cd9e6d90954998346",
    }

    def test_acceptance_days_are_pinned(self, tmp_path):
        dates = generate_synthetic_dataset(str(tmp_path), seed=21, days=2,
                                           gamma=2.0)
        assert dates == ["2021-01-01", "2021-01-02"]
        got = {(sub, date): hashlib.sha256(
                   (tmp_path / sub / f"{date}.csv").read_bytes()).hexdigest()
               for sub, date in self.ACCEPTANCE_DAY_SHA256}
        assert got == self.ACCEPTANCE_DAY_SHA256

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
