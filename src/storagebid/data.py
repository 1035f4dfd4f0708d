"""Market-data ingestion, regulation-signal construction, and an offline
synthetic data generator.

Directory layout (one file per day, UTF-8 CSV with a header row):
    dayahead/YYYY-MM-DD.csv   hour, price_eur_mwh
    fcr/YYYY-MM-DD.csv        block_start_hour, price_eur_mw_4h
    frequency/YYYY-MM-DD.csv  offset_s, hz         (10 s cadence)

The generator writes each file as the header row followed by one
``int,value`` row per entry, the value with six decimals, every line
ending in CRLF. A reader reads a file once in text mode, which turns LF,
CRLF and lone CR line ends into LF, and hands its lines to one
``np.loadtxt`` call.
"""

from __future__ import annotations

import datetime
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags_array
from scipy.sparse.linalg import spsolve_triangular

from .types import PriceSeries, RegulationSignal

FREQ_SAMPLE_S = 10
SAMPLES_PER_DAY = 24 * 3600 // FREQ_SAMPLE_S  # 8640
FULL_ACTIVATION_HZ = 0.2  # deviation at which all promised power is called


class DataError(ValueError):
    """Missing, malformed, or gap-ridden input data."""


def frequency_to_signal(f):
    """Clipped-ramp mapping from grid frequency (Hz) to the regulation
    signal in [-1, 1]: full upregulation at 49.8 Hz and below, full
    downregulation at 50.2 Hz and above, linear in between."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise DataError("frequency values must be finite")
    # quantize the ratio well below measurement resolution so decimal
    # inputs like 50.1 map to exact ramp values
    out = np.clip(np.round((50.0 - f) / FULL_ACTIVATION_HZ, 12), -1.0, 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DayData:
    """One trading day of inputs."""

    date: str
    prices: PriceSeries
    signal: RegulationSignal


def _row_error(path: str, lines: list[str], columns: int) -> DataError:
    """The error for the first row that is short or not numeric, worded
    as the ``csv`` module and ``float`` report it."""
    for line in lines:
        fields = line.split(",") if line else []
        if len(fields) < columns:
            return DataError(f"{path}: short row {fields!r}")
        try:
            for x in fields[:columns]:
                float(x)
        except ValueError as e:
            return DataError(f"{path}: {e}")
    return DataError(f"{path}: unreadable numeric value")


def _read_csv(path: str, columns: int) -> np.ndarray:
    """The rows after the header line, as an (n, columns) array of the
    first ``columns`` fields of each row, parsed in one pass."""
    try:
        with open(path) as f:
            text = f.read()
    except FileNotFoundError:
        raise DataError(f"missing data file {path}") from None
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: {e}") from None
    if not text:
        raise DataError(f"{path}: empty file")
    body = text.split("\n")[1:]
    if body and not body[-1]:
        body.pop()  # the last line's end
    if not body:
        return np.empty((0, columns))
    rows = None
    # loadtxt skips blank lines (and warns when there is nothing else),
    # but they are short rows
    if any(body):
        try:
            rows = np.loadtxt(body, delimiter=",", ndmin=2,
                              usecols=range(columns), comments=None,
                              quotechar='"')
        except ValueError:
            pass
    if rows is None or len(rows) != len(body):
        raise _row_error(path, body, columns)
    if not np.all(np.isfinite(rows)):
        raise DataError(f"{path}: non-finite value")
    return rows


def load_dayahead(path: str) -> np.ndarray:
    rows = _read_csv(path, 2)
    if len(rows) != 24 or not np.array_equal(rows[:, 0], np.arange(24)):
        raise DataError(f"{path}: expected 24 hourly rows")
    return rows[:, 1]


def load_fcr(path: str) -> np.ndarray:
    rows = _read_csv(path, 2)
    if len(rows) != 6 or not np.array_equal(rows[:, 0], np.arange(0, 24, 4)):
        raise DataError(f"{path}: expected 6 four-hour blocks")
    return rows[:, 1]


def load_frequency(path: str) -> np.ndarray:
    rows = _read_csv(path, 2)
    expected = np.arange(SAMPLES_PER_DAY) * FREQ_SAMPLE_S
    if len(rows) != SAMPLES_PER_DAY or not np.array_equal(rows[:, 0],
                                                          expected):
        raise DataError(f"{path}: gap in 10 s frequency samples")
    return rows[:, 1]


@dataclass(frozen=True)
class Dataset:
    root: str

    def dates(self) -> list[str]:
        da_dir = os.path.join(self.root, "dayahead")
        if not os.path.isdir(da_dir):
            raise DataError(f"no dayahead directory under {self.root}")
        return sorted(f[:-4] for f in os.listdir(da_dir) if f.endswith(".csv"))

    def load_day(self, date: str) -> DayData:
        da = load_dayahead(os.path.join(self.root, "dayahead", f"{date}.csv"))
        fcr = load_fcr(os.path.join(self.root, "fcr", f"{date}.csv"))
        hz = load_frequency(os.path.join(self.root, "frequency", f"{date}.csv"))
        return DayData(date=date,
                       prices=PriceSeries(day_ahead=da, fcr_availability=fcr),
                       signal=RegulationSignal(
                           values=frequency_to_signal(hz),
                           sample_period_hours=FREQ_SAMPLE_S / 3600.0))


# ---------------------------------------------------------------------------
# Synthetic generator (offline substitute for the public archives).
# ---------------------------------------------------------------------------

def synthetic_prices(rng: np.random.Generator, base: float = 45.0,
                     spread: float = 30.0, fcr_level: float = 60.0):
    """Sinusoidal two-peak daily price shape with noise, plus FCR
    availability prices per 4h block."""
    hours = np.arange(24)
    shape = np.sin((hours - 4) / 24 * 2 * np.pi) + \
        0.6 * np.sin((hours - 1) / 12 * 2 * np.pi)
    da = base + spread * shape / 1.6 + rng.normal(0.0, spread * 0.05, 24)
    fcr = np.maximum(fcr_level + rng.normal(0.0, fcr_level * 0.2, 6), 0.0)
    if spread == 0.0:
        da = np.full(24, base)
    return da, fcr


def synthetic_signal(rng: np.random.Generator, gamma: float,
                     budget_target: float = 0.7,
                     n: int = SAMPLES_PER_DAY) -> RegulationSignal:
    """Mean-reverting frequency-deviation noise scaled so the daily
    deviation-time usage approximates ``budget_target`` of gamma."""
    sample_period_hours = FREQ_SAMPLE_S / 3600.0
    theta, sig = 0.02, 0.12
    noise = rng.normal(0.0, sig, n - 1)
    # x[0] = 0, x[i] = (1 - theta) x[i-1] + noise[i-1], by substitution
    ar1 = diags_array([1.0, theta - 1.0], offsets=[0, -1], shape=(n, n))
    x = spsolve_triangular(ar1.tocsc(), np.concatenate(([0.0], noise)),
                           lower=True, unit_diagonal=True)
    target = budget_target * gamma
    vals = np.clip(x, -1.0, 1.0)
    for _ in range(8):
        usage = float(np.sum(np.abs(vals))) * sample_period_hours
        if usage <= 0:
            break
        vals = np.clip(vals * (target / usage), -1.0, 1.0)
    return RegulationSignal(values=vals,
                            sample_period_hours=sample_period_hours)


def signal_to_frequency(signal: RegulationSignal) -> np.ndarray:
    """Inverse of the clipped ramp on its linear branch (saturated values
    map to the activation thresholds)."""
    return 50.0 - FULL_ACTIVATION_HZ * signal.values


def _write_rows(path: str, header: str, keys, values) -> None:
    """Write ``header`` and one ``key,value`` row per entry (integer key,
    value with six decimals, CRLF line ends), formatted in one
    ``%`` operation and written in one call."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    flat = [None] * (2 * len(values))
    flat[::2] = keys
    flat[1::2] = values.tolist()
    text = header + "\r\n" + ("%d,%.6f\r\n" * len(values)) % tuple(flat)
    with open(path, "w", newline="") as f:
        f.write(text)


def generate_synthetic_dataset(out_dir: str, seed: int, days: int,
                               gamma: float, base: float = 45.0,
                               spread: float = 30.0, fcr_level: float = 60.0,
                               budget_target: float = 0.7) -> list[str]:
    """Write a deterministic synthetic dataset; returns the date list.
    Dates are synthetic labels 2021-01-01 onward."""
    if days < 1:
        raise DataError("days must be >= 1")
    rng = np.random.default_rng(seed)
    d0 = datetime.date(2021, 1, 1)
    dates = []
    for d in range(days):
        date = (d0 + datetime.timedelta(days=d)).isoformat()
        dates.append(date)
        da, fcr = synthetic_prices(rng, base=base, spread=spread,
                                   fcr_level=fcr_level)
        sig = synthetic_signal(rng, gamma, budget_target=budget_target)
        hz = signal_to_frequency(sig)
        _write_rows(os.path.join(out_dir, "dayahead", f"{date}.csv"),
                    "hour,price_eur_mwh", range(24), da)
        _write_rows(os.path.join(out_dir, "fcr", f"{date}.csv"),
                    "block_start_hour,price_eur_mw_4h", range(0, 24, 4), fcr)
        _write_rows(os.path.join(out_dir, "frequency", f"{date}.csv"),
                    "offset_s,hz", range(0, len(hz) * FREQ_SAMPLE_S,
                                         FREQ_SAMPLE_S), hz)
    return dates
