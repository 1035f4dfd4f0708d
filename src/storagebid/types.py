"""Shared domain types for battery market bidding.

Internal units are fixed throughout the package: hours for time, kW for
power, kWh for energy, EUR for money. Market prices quoted in EUR/MWh are
converted with a factor of 1e-3 at the accounting boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for kW/kWh comparisons in validation. Well below any
# market tick.
ABS_TOL = 1e-9

# Durations are compared after rounding to whole seconds: market data is
# second-aligned and this avoids float-divisibility ambiguity.
_SECONDS_PER_HOUR = 3600.0


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class AlignmentError(ValueError):
    """Time series are not aligned with the trading grid."""


def _to_whole_seconds(hours: float) -> int:
    seconds = hours * _SECONDS_PER_HOUR
    rounded = round(seconds)
    if abs(seconds - rounded) > 1e-6:
        raise DomainError(f"duration {hours}h is not second-aligned")
    return int(rounded)


def require_finite(**values) -> None:
    """Raise DomainError for the first value given that is NaN or
    infinite; None stands for an unset value and passes."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name}={value} must be finite")


def is_multiple_of(duration_hours: float, base_hours: float) -> bool:
    """Exact integer-multiple check on second-aligned durations."""
    d = _to_whole_seconds(duration_hours)
    b = _to_whole_seconds(base_hours)
    return b > 0 and d % b == 0


@dataclass(frozen=True)
class TimeGrid:
    """Trading-interval discretization of the planning horizon.

    ``K`` intervals of equal length ``dt_hours`` cover ``[0, T]`` with
    ``T = K * dt_hours``. Interval ``k`` (1-based) spans
    ``[(k-1)*dt, k*dt)``; the last interval is closed on the right.
    """

    dt_hours: float
    K: int

    def __post_init__(self):
        if (isinstance(self.K, bool)
                or not isinstance(self.K, (int, np.integer)) or self.K < 1):
            raise DomainError(f"K must be a positive integer, got {self.K}")
        require_finite(dt_hours=self.dt_hours)
        if self.dt_hours <= 0:
            raise DomainError(f"dt_hours must be positive, got {self.dt_hours}")

    @property
    def T(self) -> float:
        return self.K * self.dt_hours

    def interval_of(self, t: float) -> int:
        """1-based index k such that t lies in interval k = ((k-1)dt, k dt].

        Boundary times belong to the interval that ends there; t = 0 maps
        to interval 1.
        """
        if not -ABS_TOL <= t <= self.T + ABS_TOL:
            raise DomainError(f"t={t} outside horizon [0, {self.T}]")
        if t <= 0:
            return 1
        return min(max(int(math.ceil(t / self.dt_hours - 1e-12)), 1), self.K)


def sigma(grid: TimeGrid, t: float, l: int) -> float:
    """Elapsed time within trading interval ``l`` up to time ``t``.

    Returns dt for fully elapsed intervals, the partial elapsed length for
    the interval containing t, and 0 for intervals not yet started. The
    values sum over l = 1..K to exactly t.
    """
    if not (1 <= l <= grid.K):
        raise DomainError(f"interval index l={l} outside 1..{grid.K}")
    return float(sigma_vector(grid, t)[l - 1])


def sigma_vector(grid: TimeGrid, t: float) -> np.ndarray:
    """All K sigma weights at time t as an array."""
    k = grid.interval_of(t)  # validates t
    if t <= 0:
        return np.zeros(grid.K)
    l = np.arange(1, grid.K + 1)
    return np.where(l < k, grid.dt_hours,
                    np.where(l == k, t - (k - 1) * grid.dt_hours, 0.0))


@dataclass(frozen=True)
class StorageParams:
    """Power/SOC bounds and charge/discharge efficiencies.

    Sign convention: positive power is discharge (sell), negative is
    charge (buy). ``x_min <= 0 <= x_max``.
    """

    x_min: float  # kW, <= 0
    x_max: float  # kW, >= 0
    y_min: float  # kWh, >= 0
    y_max: float  # kWh, >= y_min
    eta_c: float  # charging efficiency in (0, 1]
    eta_d: float  # discharging efficiency in (0, 1]

    def __post_init__(self):
        require_finite(**vars(self))
        if not (self.x_min <= ABS_TOL and self.x_max >= -ABS_TOL):
            raise DomainError("require x_min <= 0 <= x_max")
        if not (self.y_min >= -ABS_TOL and self.y_max >= self.y_min - ABS_TOL):
            raise DomainError("require 0 <= y_min <= y_max")
        if not (0 < self.eta_c <= 1) or not (0 < self.eta_d <= 1):
            raise DomainError("efficiencies must lie in (0, 1]")

    def specific_loss(self) -> float:
        """SOC asymmetry 1/eta_d - eta_c between discharging and charging
        one unit of energy; zero iff lossless."""
        return 1.0 / self.eta_d - self.eta_c

    @property
    def is_lossless(self) -> bool:
        return self.eta_c == 1.0 and self.eta_d == 1.0


@dataclass(frozen=True)
class UncertaintyBudget:
    """Deviation-time budget defining the admissible regulation signals.

    ``total_budget``: signals with 1-norm over the horizon at most
    ``gamma``. ``rolling_window``: at most ``gamma_prime`` within any
    window of length ``Gamma_prime`` (EU reserve rules use
    Gamma_prime = gamma_prime + 2h).
    """

    kind: str  # "total_budget" | "rolling_window"
    gamma: float | None = None
    gamma_prime: float | None = None
    Gamma_prime: float | None = None

    def __post_init__(self):
        require_finite(gamma=self.gamma, gamma_prime=self.gamma_prime,
                       Gamma_prime=self.Gamma_prime)
        if self.kind == "total_budget":
            if self.gamma is None or self.gamma <= 0:
                raise DomainError("total_budget requires gamma > 0")
        elif self.kind == "rolling_window":
            if self.gamma_prime is None or self.Gamma_prime is None:
                raise DomainError("rolling_window requires gamma_prime and Gamma_prime")
            if self.gamma_prime <= 0 or self.gamma_prime > self.Gamma_prime:
                raise DomainError("require 0 < gamma_prime <= Gamma_prime")
        else:
            raise DomainError(f"unknown budget kind {self.kind!r}")

    @classmethod
    def from_eu_rules(cls, gamma_prime: float) -> "UncertaintyBudget":
        """Rolling window with the 2 h recovery time of the EU rules."""
        return cls(kind="rolling_window", gamma_prime=gamma_prime,
                   Gamma_prime=gamma_prime + 2.0)

    def validate_for_grid(self, grid: TimeGrid) -> None:
        """Total budgets must be a positive integer multiple of dt and at
        most T; rolling budgets need gamma_prime to be a multiple of dt."""
        if self.kind == "total_budget":
            if self.gamma > grid.T + ABS_TOL:
                raise DomainError("gamma exceeds horizon length")
            if not is_multiple_of(self.gamma, grid.dt_hours):
                raise DomainError("gamma must be a positive multiple of dt")
        else:
            if not is_multiple_of(self.gamma_prime, grid.dt_hours):
                raise DomainError("gamma_prime must be a multiple of dt")

    def total_gamma(self, T: float) -> float:
        """Horizon-wide budget: gamma itself, or the tight total budget
        implied by the rolling window."""
        if self.kind == "total_budget":
            return self.gamma
        return effective_budget(self.gamma_prime, self.Gamma_prime, T)


def recovery_window(Gamma_prime: float, grid: TimeGrid) -> int:
    """Gamma_prime in intervals: a multiple of dt, longer than one."""
    if not is_multiple_of(Gamma_prime, grid.dt_hours):
        raise DomainError("Gamma_prime must be a multiple of dt")
    if Gamma_prime <= grid.dt_hours:
        raise DomainError("Gamma_prime must exceed dt")
    return round(Gamma_prime / grid.dt_hours)


def effective_budget(gamma_prime: float, Gamma_prime: float, T: float) -> float:
    """Horizon-wide deviation budget implied by a rolling-window budget.

    gamma = gamma' * floor(T/Gamma') + min{gamma', T - Gamma' * floor(T/Gamma')}
    """
    if gamma_prime <= 0 or Gamma_prime <= 0 or T <= 0:
        raise DomainError("effective_budget requires positive durations")
    if gamma_prime > Gamma_prime:
        raise DomainError("require gamma_prime <= Gamma_prime")
    n = math.floor(T / Gamma_prime + 1e-12)
    return gamma_prime * n + min(gamma_prime, T - Gamma_prime * n)


@dataclass(frozen=True)
class BidSchedule:
    """Per-interval market bids.

    ``x0``: arbitrage power (signed, + = sell/discharge). ``x_up`` and
    ``x_dn``: up-/down-regulation capacity offers, elementwise >= 0.
    """

    x0: np.ndarray
    x_up: np.ndarray
    x_dn: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        x_up = np.asarray(self.x_up, dtype=float)
        x_dn = np.asarray(self.x_dn, dtype=float)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x_up", x_up)
        object.__setattr__(self, "x_dn", x_dn)
        if not (x0.shape == x_up.shape == x_dn.shape) or x0.ndim != 1:
            raise DomainError("bid vectors must be 1-d and of equal length")
        if not all(np.all(np.isfinite(v)) for v in (x0, x_up, x_dn)):
            raise DomainError("bids must be finite")
        if np.any(x_up < -ABS_TOL) or np.any(x_dn < -ABS_TOL):
            raise DomainError("regulation bids must be nonnegative")

    @property
    def K(self) -> int:
        return len(self.x0)

    @classmethod
    def zero(cls, K: int) -> "BidSchedule":
        z = np.zeros(K)
        return cls(x0=z, x_up=z.copy(), x_dn=z.copy())


@dataclass(frozen=True)
class RegulationSignal:
    """Regulation signal sampled at a fixed period, piecewise constant
    between samples. Values lie in [-1, 1]."""

    values: np.ndarray
    sample_period_hours: float = 10.0 / 3600.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise DomainError("signal values must be 1-d")
        if not np.all(np.isfinite(values)):
            raise DomainError("signal values must be finite")
        if np.any(np.abs(values) > 1 + 1e-12):
            raise DomainError("signal values must lie in [-1, 1]")
        if self.sample_period_hours <= 0:
            raise DomainError("sample period must be positive")

    def check_alignment(self, grid: TimeGrid) -> int:
        """Samples per trading interval; raises if the period does not
        divide dt or the signal does not cover the horizon."""
        if not is_multiple_of(grid.dt_hours, self.sample_period_hours):
            raise AlignmentError("sample period does not divide dt")
        per = round(grid.dt_hours / self.sample_period_hours)
        if len(self.values) < per * grid.K:
            raise AlignmentError("signal shorter than the trading horizon")
        return per

    def abs_integral(self) -> float:
        """1-norm of the signal over its support, in hours."""
        return float(np.sum(np.abs(self.values))) * self.sample_period_hours

    def interval_integrals(self, grid: TimeGrid) -> np.ndarray:
        """Integral of the signal over each trading interval, in hours."""
        per = self.check_alignment(grid)
        v = self.values[: per * grid.K].reshape(grid.K, per)
        return v.sum(axis=1) * self.sample_period_hours

    @classmethod
    def constant(cls, value: float, grid: TimeGrid) -> "RegulationSignal":
        n = round(grid.T / cls.sample_period_hours)
        return cls(values=np.full(n, float(value)))


@dataclass(frozen=True)
class PriceSeries:
    """Day-ahead and FCR availability prices aligned to the grid.

    ``day_ahead``: EUR/MWh per day-ahead block (hourly by convention).
    ``fcr_availability``: EUR per MW per FCR block (4h by convention).
    """

    day_ahead: np.ndarray
    fcr_availability: np.ndarray
    da_block_hours: float = 1.0
    fcr_block_hours: float = 4.0

    def __post_init__(self):
        for name in ("day_ahead", "fcr_availability"):
            prices = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, prices)
            if prices.ndim != 1:
                raise DomainError(f"{name} prices must be 1-d")
            if not np.isfinite(prices).all():
                raise DomainError(f"{name} prices must be finite")

    def check_alignment(self, grid: TimeGrid) -> None:
        if not is_multiple_of(self.da_block_hours, grid.dt_hours):
            raise AlignmentError("day-ahead block length not a multiple of dt")
        if len(self.day_ahead) * self.da_block_hours < grid.T - ABS_TOL:
            raise AlignmentError("day-ahead prices do not cover the horizon")
        if len(self.fcr_availability) > 0:
            if not is_multiple_of(self.fcr_block_hours, grid.dt_hours):
                raise AlignmentError("FCR block length not a multiple of dt")
            if len(self.fcr_availability) * self.fcr_block_hours < grid.T - ABS_TOL:
                raise AlignmentError("FCR prices do not cover the horizon")

    def da_per_interval(self, grid: TimeGrid) -> np.ndarray:
        """Day-ahead price (EUR/MWh) for each trading interval."""
        self.check_alignment(grid)
        per = round(self.da_block_hours / grid.dt_hours)
        return np.repeat(self.day_ahead, per)[: grid.K]

    def fcr_per_interval(self, grid: TimeGrid) -> np.ndarray:
        """FCR availability price allocated per interval, in EUR per MW
        per interval (block payment split evenly across its intervals)."""
        if len(self.fcr_availability) == 0:
            return np.zeros(grid.K)
        self.check_alignment(grid)
        per = round(self.fcr_block_hours / grid.dt_hours)
        return np.repeat(self.fcr_availability / per, per)[: grid.K]


def default_initial_soc(params: StorageParams) -> float:
    """Initial SOC giving symmetric charge/discharge headroom:
    (y_max + eta_c*eta_d*y_min) / (1 + eta_c*eta_d)."""
    rt = params.eta_c * params.eta_d
    return (params.y_max + rt * params.y_min) / (1.0 + rt)
