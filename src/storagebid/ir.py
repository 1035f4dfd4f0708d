"""Solver-agnostic intermediate representation of the bidding models.

A ModelIR holds variables, linear rows, bilinear rows (only the exact
model has any) and a linear minimization objective. Variables are
referenced by integer index; a registry maps structured names like
``x0[3]`` or ``Lamu[5,2]`` to indices so that builders and verifiers
agree on the layout.

A quarter-hour model has tens of thousands of variables and rows, so it
keeps them in arrays and flat lists rather than one object each:

- Variable ``i`` is ``var_names[i]`` with bounds ``lower[i]`` and
  ``upper[i]``; ``binary[i]`` marks a binary.
- Linear rows are compressed sparse rows (``RowArrays``): row ``r`` has
  the coefficients ``val[ptr[r]:ptr[r+1]]`` on the columns
  ``col[ptr[r]:ptr[r+1]]`` in insertion order, repeated columns kept,
  a sense code (an index into ``SENSES``), a right-hand side and the
  name ``row_names[r]``. ``add_rows`` appends a block of rows as arrays;
  ``add_row`` appends one row to flat lists in O(1), which become arrays
  when the next block comes or ``row_arrays`` reads the rows.

``variables`` and ``rows`` are read-only views that build ``Variable``
and ``LinearRow`` objects on every call, for tests and tracing; solving,
verifying and writing model files read the arrays.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from .types import DomainError

CONTINUOUS = "continuous"
BINARY = "binary"

SENSES = ("<=", ">=", "==")
LE, GE, EQ = range(3)
_SENSE_CODE = {sense: code for code, sense in enumerate(SENSES)}

# one term of an indicator rule's linear form
_TERM = np.dtype([("col", np.intp), ("val", np.float64)])


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


class ModelError(ValueError):
    """Inconsistent model construction."""


@dataclass(eq=False)
class ModelIR:
    """``indicators`` maps a binary's index to the linear form whose sign
    sets it in a good solution: the binary is 1 where the form is >= 0.
    Solvers may use the rules to build a start point; the model rows
    alone define feasibility, and model files do not carry the rules."""

    var_names: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    binary: list[bool] = field(default_factory=list)
    registry: dict[str, int] = field(default_factory=dict)
    row_names: list[str] = field(default_factory=list)
    bilinear_rows: list[BilinearRow] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    indicators: dict[int, np.ndarray] = field(default_factory=dict)
    # row blocks in order, then the rows added one at a time since the
    # last block: their (col, val) pairs and (term count, sense code,
    # rhs) triples, flattened
    _blocks: list[RowArrays] = field(default_factory=list)
    _terms: list[float] = field(default_factory=list)
    _heads: list[float] = field(default_factory=list)

    def __post_init__(self):
        # dataclasses.replace passes this model the containers of the one
        # it copies: take copies, so that neither model appends to the
        # other's (row blocks are read-only arrays, shared safely)
        for f in fields(self):
            setattr(self, f.name, copy.copy(getattr(self, f.name)))

    # -- construction -------------------------------------------------
    def add_variable(self, name: str, kind: str = CONTINUOUS,
                     lower: float = -np.inf, upper: float = np.inf) -> int:
        if name in self.registry:
            raise ModelError(f"duplicate variable {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        idx = self.registry[name] = len(self.var_names)
        self.var_names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.binary.append(kind == BINARY)
        return idx

    def add_variables(self, names: list[str], lower=-np.inf,
                      upper=np.inf) -> np.ndarray:
        """Append continuous variables, with bounds given as one number
        or one per variable. Returns their indices."""
        start, n = self.n_vars, len(names)
        new = dict(zip(names, range(start, start + n)))
        if len(new) < n or not self.registry.keys().isdisjoint(new):
            name = next(name for i, name in enumerate(names, start)
                        if name in self.registry or new[name] != i)
            raise ModelError(f"duplicate variable {name!r}")
        self.registry.update(new)
        self.var_names += names
        self.lower += np.broadcast_to(lower, n).astype(float).tolist()
        self.upper += np.broadcast_to(upper, n).astype(float).tolist()
        self.binary += [False] * n
        return np.arange(start, start + n)

    def var(self, name: str) -> int:
        try:
            return self.registry[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def add_row(self, name: str, coeffs, sense: str, rhs: float) -> None:
        coeffs = tuple(coeffs)
        # min and max compare the (index, coeff) pairs in C, index first;
        # the full check runs only to name what is wrong
        if sense not in _SENSE_CODE or coeffs and (
                min(coeffs)[0] < 0 or max(coeffs)[0] >= self.n_vars):
            self._check_refs(name, [i for i, _ in coeffs], sense)
        self.row_names.append(name)
        self._terms.extend(chain.from_iterable(coeffs))
        self._heads += (len(coeffs), _SENSE_CODE[sense], float(rhs))

    def add_rows(self, names: list[str], ptr, col, val, sense, rhs) -> None:
        """Append a block of rows: row i has the coefficients
        ``val[ptr[i]:ptr[i+1]]`` on the columns ``col[ptr[i]:ptr[i+1]]``.
        ``sense`` (a code, an index into SENSES) and ``rhs`` are each
        one value or one per row."""
        n, col = len(names), np.asarray(col)
        bad = np.flatnonzero((col < 0) | (col >= self.n_vars))
        if bad.size:
            name = names[np.searchsorted(ptr, bad[0], side="right") - 1]
            raise ModelError(
                f"row {name!r} references unknown variable {col[bad[0]]}")
        self._flush()
        self.row_names += names
        self._blocks.append(_row_arrays(ptr, col, val,
                                        np.broadcast_to(sense, n),
                                        np.broadcast_to(rhs, n)))

    def add_bilinear(self, name: str, quad, linear, sense: str,
                     rhs: float) -> None:
        quad, linear = tuple(quad), tuple(linear)
        refs = [i for i, _, _ in quad] + [j for _, j, _ in quad]
        refs += [i for i, _ in linear]
        self._check_refs(name, refs, sense)
        self.bilinear_rows.append(BilinearRow(name, quad, linear, sense,
                                              float(rhs)))

    def add_indicator(self, idx: int, coeffs) -> None:
        """Record that binary ``idx`` is 1 where sum(coeff * var) >= 0."""
        if not (0 <= idx < self.n_vars) or not self.binary[idx]:
            raise ModelError(f"indicator for non-binary variable {idx}")
        coeffs = list(coeffs)
        self._check_refs(f"indicator {idx}", (i for i, _ in coeffs), ">=")
        self.indicators[int(idx)] = np.array(coeffs, dtype=_TERM)

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

    def _check_refs(self, name, refs, sense):
        if sense not in SENSES:
            raise ModelError(f"row {name!r}: unknown sense {sense!r}")
        n = self.n_vars
        for i in refs:
            if not (0 <= i < n):
                raise ModelError(f"row {name!r} references unknown variable {i}")

    def _flush(self) -> None:
        """Turn the rows added one at a time into a block."""
        if not self._heads:
            return
        terms = np.array(self._terms, dtype=np.float64).reshape(-1, 2)
        heads = np.array(self._heads, dtype=np.float64).reshape(-1, 3)
        self._blocks.append(_row_arrays(
            np.concatenate([[0], np.cumsum(heads[:, 0])]), terms[:, 0],
            terms[:, 1], heads[:, 1], heads[:, 2]))
        self._terms, self._heads = [], []

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
        return sum(self.binary)

    def row_arrays(self) -> RowArrays:
        """Every linear row, as one set of read-only arrays."""
        self._flush()
        blocks = self._blocks
        if not blocks:
            return _row_arrays([0], [], [], [], [])
        if len(blocks) > 1:
            starts = np.cumsum([0] + [b.ptr[-1] for b in blocks[:-1]])
            ptr = np.concatenate([[0]] + [b.ptr[1:] + start for b, start
                                          in zip(blocks, starts)])
            self._blocks = [_row_arrays(ptr, *map(np.concatenate, zip(
                *(b[1:] for b in blocks))))]
        return self._blocks[0]

    @property
    def variables(self) -> list[Variable]:
        """The variables as objects, built on every call."""
        return [Variable(name, BINARY if b else CONTINUOUS, lo, hi)
                for name, b, lo, hi in zip(self.var_names, self.binary,
                                           self.lower, self.upper)]

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

    def bounds_arrays(self):
        return (np.array(self.lower, dtype=np.float64),
                np.array(self.upper, dtype=np.float64))

    def validate(self) -> None:
        """Raise ModelError for the first variable, in index order, with
        a NaN bound, an empty bound interval or a binary outside [0, 1],
        and for the first row whose name an earlier row holds."""
        lo, hi = self.bounds_arrays()
        binary = np.array(self.binary, dtype=bool)
        nan = np.isnan(lo) | np.isnan(hi)
        empty = (lo > hi + 1e-12) | (lo == np.inf) | (hi == -np.inf)
        off = binary & ((lo < -1e-12) | (hi > 1 + 1e-12))
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
        if self.variant not in self.VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.limited_arbitrage and not self.fcr_enabled:
            raise DomainError("limited_arbitrage requires fcr_enabled")
        if self.intraday and not self.fcr_enabled:
            raise DomainError("intraday requires fcr_enabled")
        if self.variant == "arbitrage_only" and self.fcr_enabled:
            raise DomainError("arbitrage_only excludes FCR participation")
