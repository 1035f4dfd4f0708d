"""Solver-agnostic intermediate representation of the bidding models.

A ModelIR holds variables, linear rows, bilinear rows (only the exact
model has any) and a linear minimization objective. Variables are
referenced by integer index; a registry maps structured names like
``x0[3]`` or ``Lamu[5,2]`` to indices so that builders and verifiers
agree on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .types import DomainError

CONTINUOUS = "continuous"
BINARY = "binary"

SENSES = ("<=", ">=", "==")


# Rows and variables are slotted, and coefficient lists are tuples: a
# quarter-hour model holds tens of thousands of them, and every object
# with a __dict__ or a list is one more that the cyclic collector scans.
@dataclass(slots=True)
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: float = -np.inf
    upper: float = np.inf


@dataclass(slots=True)
class LinearRow:
    """sum(coeff * var) sense rhs."""

    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float


@dataclass(slots=True)
class BilinearRow:
    """sum(q_coeff * var_i * var_j) + sum(coeff * var) sense rhs."""

    name: str
    quad: tuple[tuple[int, int, float], ...]
    linear: tuple[tuple[int, float], ...]
    sense: str
    rhs: float


class ModelError(ValueError):
    """Inconsistent model construction."""


@dataclass
class ModelIR:
    """``indicators`` maps a binary's index to the linear form whose sign
    sets it in a good solution: the binary is 1 where the form is >= 0.
    Solvers may use the rules to build a start point; the model rows
    alone define feasibility, and model files do not carry the rules."""

    variables: list[Variable] = field(default_factory=list)
    rows: list[LinearRow] = field(default_factory=list)
    bilinear_rows: list[BilinearRow] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    registry: dict[str, int] = field(default_factory=dict)
    indicators: dict[int, list[tuple[int, float]]] = field(
        default_factory=dict)

    # -- construction -------------------------------------------------
    def add_variable(self, name: str, kind: str = CONTINUOUS,
                     lower: float = -np.inf, upper: float = np.inf) -> int:
        if name in self.registry:
            raise ModelError(f"duplicate variable {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        self.variables.append(Variable(name=name, kind=kind,
                                       lower=lower, upper=upper))
        idx = len(self.variables) - 1
        self.registry[name] = idx
        return idx

    def var(self, name: str) -> int:
        try:
            return self.registry[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def has_var(self, name: str) -> bool:
        return name in self.registry

    def add_row(self, name: str, coeffs, sense: str, rhs: float) -> int:
        coeffs = tuple(coeffs)
        # min and max compare the (index, coeff) pairs in C, index first;
        # the full check runs only to name what is wrong
        if sense not in SENSES or coeffs and (
                min(coeffs)[0] < 0 or max(coeffs)[0] >= len(self.variables)):
            self._check_refs(name, [i for i, _ in coeffs], sense)
        self.rows.append(LinearRow(name, coeffs, sense, float(rhs)))
        return len(self.rows) - 1

    def add_bilinear(self, name: str, quad, linear, sense: str,
                     rhs: float) -> int:
        quad, linear = tuple(quad), tuple(linear)
        refs = [i for i, _, _ in quad] + [j for _, j, _ in quad]
        refs += [i for i, _ in linear]
        self._check_refs(name, refs, sense)
        self.bilinear_rows.append(BilinearRow(name, quad, linear, sense,
                                              float(rhs)))
        return len(self.bilinear_rows) - 1

    def add_indicator(self, idx: int, coeffs) -> None:
        """Record that binary ``idx`` is 1 where sum(coeff * var) >= 0."""
        if not (0 <= idx < self.n_vars) or self.variables[idx].kind != BINARY:
            raise ModelError(f"indicator for non-binary variable {idx}")
        self._check_refs(f"indicator {idx}", (i for i, _ in coeffs), ">=")
        self.indicators[idx] = list(coeffs)

    def add_objective_term(self, idx: int, coeff: float) -> None:
        if not (0 <= idx < len(self.variables)):
            raise ModelError(f"objective references unknown variable {idx}")
        self.objective[idx] = self.objective.get(idx, 0.0) + float(coeff)

    def fix_variable(self, name: str, value: float) -> None:
        """Collapse a variable's bounds to a constant (keeps indices
        stable across model variants)."""
        v = self.variables[self.var(name)]
        v.lower = v.upper = float(value)
        v.kind = CONTINUOUS

    def _check_refs(self, name, refs, sense):
        if sense not in SENSES:
            raise ModelError(f"row {name!r}: unknown sense {sense!r}")
        n = len(self.variables)
        for i in refs:
            if not (0 <= i < n):
                raise ModelError(f"row {name!r} references unknown variable {i}")

    # -- inspection ---------------------------------------------------
    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_binaries(self) -> int:
        return sum(1 for v in self.variables if v.kind == BINARY)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        for i, coeff in self.objective.items():
            c[i] = coeff
        return c

    def bounds_arrays(self):
        lo = np.array([v.lower for v in self.variables])
        hi = np.array([v.upper for v in self.variables])
        return lo, hi

    def validate(self) -> None:
        """Raise ModelError for the first variable, in index order, with
        a NaN bound, an empty bound interval or a binary outside [0, 1],
        and for the first row whose name an earlier row holds."""
        lo, hi = self.bounds_arrays()
        binary = np.array([v.kind == BINARY for v in self.variables],
                          dtype=bool)
        nan = np.isnan(lo) | np.isnan(hi)
        empty = (lo > hi + 1e-12) | (lo == np.inf) | (hi == -np.inf)
        off = binary & ((lo < -1e-12) | (hi > 1 + 1e-12))
        bad = np.flatnonzero(nan | empty | off)
        if bad.size:
            i = bad[0]
            v = self.variables[i]
            if nan[i]:
                raise ModelError(f"variable {v.name}: NaN bound")
            if empty[i]:
                raise ModelError(f"variable {v.name}: empty bound interval")
            raise ModelError(f"binary {v.name}: bounds outside [0, 1]")
        names = list(map(attrgetter("name"), self.rows))
        if len(set(names)) != len(names):
            seen = set()
            for name in names:
                if name in seen:
                    raise ModelError(f"duplicate row name {name!r}")
                seen.add(name)

    # -- evaluation ---------------------------------------------------
    def point_from_map(self, values: dict[str, float]) -> np.ndarray:
        x = np.zeros(self.n_vars)
        seen = np.zeros(self.n_vars, dtype=bool)
        for name, val in values.items():
            idx = self.var(name)
            x[idx] = val
            seen[idx] = True
        if not seen.all():
            missing = [v.name for v, s in zip(self.variables, seen) if not s]
            raise ModelError(f"point missing variables: {missing[:5]}...")
        return x


def eval_linear(row: LinearRow, point: np.ndarray) -> float:
    return float(sum(c * point[i] for i, c in row.coeffs))


def eval_bilinear(row: BilinearRow, point: np.ndarray) -> float:
    v = sum(c * point[i] * point[j] for i, j, c in row.quad)
    v += sum(c * point[i] for i, c in row.linear)
    return float(v)


def residual(row, point: np.ndarray) -> float:
    """Signed slack of a row at a point; >= 0 means satisfied."""
    if isinstance(row, BilinearRow):
        lhs = eval_bilinear(row, point)
    else:
        lhs = eval_linear(row, point)
    if row.sense == "<=":
        return row.rhs - lhs
    if row.sense == ">=":
        return lhs - row.rhs
    return -abs(lhs - row.rhs)


@dataclass(frozen=True)
class ModelOptions:
    """Model-variant selection and market conventions."""

    variant: str = "restriction"
    fcr_enabled: bool = True
    intraday: bool = False
    terminal_soc_floor: float | None = None
    limited_arbitrage: bool = False
    fcr_block_len: int | None = None
    da_block_len: int | None = None

    VARIANTS = ("exact", "relaxation", "restriction", "arbitrage_only",
                "lossless_lp", "no_sell_lp")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.limited_arbitrage and not self.fcr_enabled:
            raise DomainError("limited_arbitrage requires fcr_enabled")
        if self.intraday and not self.fcr_enabled:
            raise DomainError("intraday requires fcr_enabled")
        if self.variant == "arbitrage_only" and self.fcr_enabled:
            raise DomainError("arbitrage_only excludes FCR participation")
