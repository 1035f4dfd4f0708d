"""Solver-agnostic intermediate representation of the bidding models.

A ModelIR holds variables, linear rows, bilinear rows (only the exact
model has any) and a linear minimization objective. Variables are
referenced by integer index; a registry maps structured names like
``x0[3]`` or ``Lamu[5,2]`` to indices so that builders and verifiers
agree on the layout.

A quarter-hour model has tens of thousands of variables and rows, so it
keeps them in arrays and flat lists rather than one object each:

- Variable ``i`` is ``var_names[i]`` with bounds ``lower[i]`` and
  ``upper[i]`` (float64 arrays); ``binary[i]`` (a bool array) marks a
  binary. ``add_variables`` appends to the three arrays.
- Linear rows are compressed sparse rows (``RowArrays``): row ``r`` has
  the coefficients ``val[ptr[r]:ptr[r+1]]`` on the columns
  ``col[ptr[r]:ptr[r+1]]`` in insertion order, repeated columns kept,
  a sense code (an index into ``SENSES``), a right-hand side and the
  name ``row_names[r]``. ``add_rows`` appends a block of rows as arrays
  (``add_row`` a block of one row); ``row_arrays`` joins the blocks into
  one when the rows are read.
- Relax-and-fix rules (``Indicators``, added in blocks by
  ``add_indicators``) are rows in the same format, one per binary, and
  so are the cuts (``cuts``) that strengthen the LP bound.

``rows`` is the one object view: it builds ``LinearRow`` objects on
every call, for tests and the benchmark tracer. Solving, verifying and
writing model files read the arrays.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .types import DomainError, require_finite

CONTINUOUS = "continuous"
BINARY = "binary"

SENSES = ("<=", ">=", "==")
LE, GE, EQ = range(3)
_SENSE_CODE = {sense: code for code, sense in enumerate(SENSES)}

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


class RowArrays(NamedTuple):
    """Linear rows in compressed sparse row form; read-only arrays."""

    ptr: np.ndarray    # int32, one more entry than rows
    col: np.ndarray    # int32
    val: np.ndarray    # float64
    sense: np.ndarray  # int8 codes into SENSES
    rhs: np.ndarray    # float64


def _row_arrays(ptr, col, val, sense, rhs) -> RowArrays:
    arrays = RowArrays(np.asarray(ptr, np.int32), np.asarray(col, np.int32),
                       np.asarray(val, np.float64),
                       np.asarray(sense, np.int8),
                       np.asarray(rhs, np.float64))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _join(blocks: list[RowArrays]) -> RowArrays:
    """The rows of several blocks, in order, as one block."""
    if len(blocks) == 1:
        return blocks[0]
    starts = np.cumsum([0] + [b.ptr[-1] for b in blocks[:-1]])
    ptr = np.concatenate([[0]] + [b.ptr[1:] + start
                                  for b, start in zip(blocks, starts)])
    return _row_arrays(ptr, *map(np.concatenate, zip(*(b[1:]
                                                       for b in blocks))))


class Indicators(NamedTuple):
    """Rules: binary ``binary[r]`` is 1 where row ``r`` (form >= 0) holds."""

    binary: np.ndarray  # int32, read-only, each binary at most once
    rows: RowArrays


class ModelError(ValueError):
    """Inconsistent model construction."""


@dataclass(eq=False)
class ModelIR:
    """``indicators`` (None: no rules) sets binaries in a good solution
    from the sign of a linear form each; ``cuts`` (None: no cuts) are
    rows valid at every point of the model with integral binaries.
    Solvers may use both to build a start point and bound it; the model
    rows alone define feasibility, and model files carry neither."""

    var_names: list[str] = field(default_factory=list)
    lower: np.ndarray = field(default_factory=list)   # float64
    upper: np.ndarray = field(default_factory=list)   # float64
    binary: np.ndarray = field(default_factory=list)  # bool
    registry: dict[str, int] = field(default_factory=dict)
    row_names: list[str] = field(default_factory=list)
    bilinear_rows: list[BilinearRow] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    indicators: Indicators | None = None
    cuts: RowArrays | None = None
    # row blocks in order
    _blocks: list[RowArrays] = field(default_factory=list)

    def __post_init__(self):
        # dataclasses.replace passes this model the containers of the one
        # it copies: take copies, so that neither model appends to the
        # other's (row blocks are read-only arrays, shared safely); the
        # columns become arrays
        for f in fields(self):
            setattr(self, f.name, copy.copy(getattr(self, f.name)))
        self.lower = np.asarray(self.lower, np.float64)
        self.upper = np.asarray(self.upper, np.float64)
        self.binary = np.asarray(self.binary, bool)

    # -- construction -------------------------------------------------
    def add_variable(self, name: str, kind: str = CONTINUOUS,
                     lower: float = -np.inf, upper: float = np.inf) -> int:
        return int(self.add_variables([name], lower, upper, kind)[0])

    def add_variables(self, names: list[str], lower=-np.inf, upper=np.inf,
                      kind: str = CONTINUOUS) -> np.ndarray:
        """Append variables of one kind, with bounds given as one number
        or one per variable. Returns their indices."""
        start, n = self.n_vars, len(names)
        new = dict(zip(names, range(start, start + n)))
        if len(new) < n or not self.registry.keys().isdisjoint(new):
            name = next(name for i, name in enumerate(names, start)
                        if name in self.registry or new[name] != i)
            raise ModelError(f"duplicate variable {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        self.registry.update(new)
        self.var_names += names
        self.lower = np.append(self.lower, np.full(n, lower, np.float64))
        self.upper = np.append(self.upper, np.full(n, upper, np.float64))
        self.binary = np.append(self.binary, np.full(n, kind == BINARY))
        return np.arange(start, start + n)

    def var(self, name: str) -> int:
        try:
            return self.registry[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def add_row(self, name: str, coeffs, sense: str, rhs: float) -> None:
        if sense not in _SENSE_CODE:
            raise ModelError(f"row {name!r}: unknown sense {sense!r}")
        coeffs = tuple(coeffs)
        self.add_rows([name], [0, len(coeffs)], [i for i, _ in coeffs],
                      [c for _, c in coeffs], _SENSE_CODE[sense], rhs)

    def add_rows(self, names: list[str], ptr, col, val, sense, rhs) -> None:
        """Append a block of rows: row i has the coefficients
        ``val[ptr[i]:ptr[i+1]]`` on the columns ``col[ptr[i]:ptr[i+1]]``.
        ``sense`` (a code, an index into SENSES) and ``rhs`` are each
        one value or one per row."""
        n = len(names)
        self._check_cols(ptr, col, names.__getitem__)
        self.row_names += names
        self._blocks.append(_row_arrays(ptr, col, val, np.full(n, sense),
                                        np.full(n, rhs)))

    def add_indicators(self, binaries, ptr, col, val) -> None:
        """Record that binary ``binaries[i]`` is 1 where row i, given as
        in ``add_rows``, has a form >= 0. A binary takes one rule."""
        binaries = np.array(binaries, np.int32)
        ok = (0 <= binaries) & (binaries < self.n_vars)
        ok[ok] = self.binary[binaries[ok]]
        if not ok.all():
            raise ModelError(
                f"indicator for non-binary variable {binaries[~ok][0]}")
        self._check_cols(ptr, col, lambda r: f"indicator {binaries[r]}")
        n, old = binaries.size, self.indicators
        rules = Indicators(binaries, _row_arrays(ptr, col, val,
                                                 np.full(n, GE), np.zeros(n)))
        if old is not None:
            rules = Indicators(np.concatenate([old.binary, binaries]),
                               _join([old.rows, rules.rows]))
        twice = np.flatnonzero(np.bincount(rules.binary) > 1)
        if twice.size:
            raise ModelError(f"second indicator for variable {twice[0]}")
        rules.binary.flags.writeable = False
        self.indicators = rules

    def add_bilinear(self, name: str, quad, linear, sense: str,
                     rhs: float) -> None:
        quad, linear = tuple(quad), tuple(linear)
        if sense not in _SENSE_CODE:
            raise ModelError(f"row {name!r}: unknown sense {sense!r}")
        refs = [i for i, _, _ in quad] + [j for _, j, _ in quad]
        refs += [i for i, _ in linear]
        self._check_cols([0, len(refs)], refs, lambda r: name)
        self.bilinear_rows.append(BilinearRow(name, quad, linear, sense,
                                              float(rhs)))

    def add_objective_term(self, idx: int, coeff: float) -> None:
        if not (0 <= idx < self.n_vars):
            raise ModelError(f"objective references unknown variable {idx}")
        idx = int(idx)
        self.objective[idx] = self.objective.get(idx, 0.0) + float(coeff)

    def fix_variable(self, name: str, value: float) -> None:
        """Collapse a variable's bounds to a constant (keeps indices
        stable across model variants)."""
        i = self.var(name)
        self.lower[i] = self.upper[i] = float(value)
        self.binary[i] = False

    def _check_cols(self, ptr, col, name_of) -> None:
        """Raise for the first column that is no variable; row r is named
        ``name_of(r)``."""
        col = np.asarray(col)
        bad = np.flatnonzero((col < 0) | (col >= self.n_vars))
        if bad.size:
            name = name_of(np.searchsorted(ptr, bad[0], side="right") - 1)
            raise ModelError(
                f"row {name!r} references unknown variable {col[bad[0]]}")

    # -- inspection ---------------------------------------------------
    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def nnz(self) -> int:
        return int(self.row_arrays().ptr[-1])

    @property
    def n_binaries(self) -> int:
        return int(np.count_nonzero(self.binary))

    def row_arrays(self) -> RowArrays:
        """Every linear row, as one set of read-only arrays."""
        if not self._blocks:
            return _row_arrays([0], [], [], [], [])
        self._blocks = [_join(self._blocks)]
        return self._blocks[0]

    @property
    def rows(self) -> list[LinearRow]:
        """The linear rows as objects, built on every call."""
        a = self.row_arrays()
        terms = list(zip(a.col.tolist(), a.val.tolist()))
        ptr = a.ptr.tolist()
        return [LinearRow(name, tuple(terms[ptr[r]:ptr[r + 1]]),
                          SENSES[s], rhs)
                for r, (name, s, rhs) in enumerate(zip(
                    self.row_names, a.sense.tolist(), a.rhs.tolist()))]

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        for i, coeff in self.objective.items():
            c[i] = coeff
        return c

    def validate(self) -> None:
        """Raise ModelError for the first of: a variable, in index order,
        with a NaN bound, an empty bound interval or a binary outside
        [0, 1]; a row whose name an earlier row holds; a NaN or infinite
        number in the objective (by column), a row (by index) or a
        bilinear row (in order). Every solve and model file runs it."""
        lo, hi = self.lower, self.upper
        nan = np.isnan(lo) | np.isnan(hi)
        empty = (lo > hi + 1e-12) | (lo == np.inf) | (hi == -np.inf)
        off = self.binary & ((lo < -1e-12) | (hi > 1 + 1e-12))
        bad = np.flatnonzero(nan | empty | off)
        if bad.size:
            i = bad[0]
            name = self.var_names[i]
            if nan[i]:
                raise ModelError(f"variable {name}: NaN bound")
            if empty[i]:
                raise ModelError(f"variable {name}: empty bound interval")
            raise ModelError(f"binary {name}: bounds outside [0, 1]")
        names = self.row_names
        if len(set(names)) != len(names):
            seen = set()
            for name in names:
                if name in seen:
                    raise ModelError(f"duplicate row name {name!r}")
                seen.add(name)
        for i, c in sorted(self.objective.items()):
            if not math.isfinite(c):
                raise ModelError(
                    f"column {self.var_names[i]!r}: objective coefficient {c}")
        a = self.row_arrays()
        rows = []
        if not (np.isfinite(a.val).all() and np.isfinite(a.rhs).all()):
            row_of = np.repeat(np.arange(self.n_rows), np.diff(a.ptr))
            r = min(row_of[~np.isfinite(a.val)].tolist()
                    + np.flatnonzero(~np.isfinite(a.rhs)).tolist())
            rows.append((names[r], a.val[a.ptr[r]:a.ptr[r + 1]], a.rhs[r]))
        rows += [(row.name, [c for _, c in row.linear]
                  + [c for _, _, c in row.quad], row.rhs)
                 for row in self.bilinear_rows]
        for name, coeffs, rhs in rows:
            bad = [c for c in coeffs if not math.isfinite(c)]
            if bad:
                raise ModelError(f"row {name!r}: coefficient {bad[0]}")
            if not math.isfinite(rhs):
                raise ModelError(f"row {name!r}: right-hand side {rhs}")

    # -- evaluation ---------------------------------------------------
    def point_from_map(self, values: dict[str, float]) -> np.ndarray:
        x = np.zeros(self.n_vars)
        seen = np.zeros(self.n_vars, dtype=bool)
        for name, val in values.items():
            idx = self.var(name)
            x[idx] = val
            seen[idx] = True
        if not seen.all():
            missing = [name for name, s in zip(self.var_names, seen)
                       if not s]
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
        require_finite(terminal_soc_floor=self.terminal_soc_floor)
        if self.variant not in self.VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.limited_arbitrage and not self.fcr_enabled:
            raise DomainError("limited_arbitrage requires fcr_enabled")
        if self.intraday and not self.fcr_enabled:
            raise DomainError("intraday requires fcr_enabled")
        if self.variant == "arbitrage_only" and self.fcr_enabled:
            raise DomainError("arbitrage_only excludes FCR participation")
