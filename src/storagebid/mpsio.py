"""Model-exchange files: the way to hand a model to another solver.

MPS (free format) and LP writers; bilinear rows are emitted as
quadratic-constraint sections (QCMATRIX in MPS, bracketed products in
LP). Emission is deterministic: fixed ordering, fixed float format.
"""

from __future__ import annotations

import math

from .ir import BINARY, ModelIR


class EmissionError(ValueError):
    """The requested format cannot express the model."""


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".12g")


class _NonFinite(EmissionError):
    """A NaN or infinite number where a model file needs a finite one."""


class _Numbers(dict):
    """Text of each distinct number of one write call, formatted once.

    A model repeats few distinct coefficients many times over, so most
    lookups are dict hits. The memo lives only as long as its write call,
    so memory stays bounded over long runs."""

    def __missing__(self, x):
        if not math.isfinite(x):
            raise _NonFinite(f"non-finite number {x}")
        text = self[x] = _num(x)
        return text


def _non_finite_error(ir: ModelIR) -> EmissionError:
    """Name the first objective term, row or column with a number that a
    model file cannot write: a NaN or infinite coefficient or right-hand
    side, or a bound that is NaN or fixed at infinity."""
    for i, c in sorted(ir.objective.items()):
        if not math.isfinite(c):
            return EmissionError(
                f"column {ir.variables[i].name!r}: objective coefficient {c}")
    rows = [(row, row.coeffs) for row in ir.rows]
    rows += [(row, row.linear + tuple((i, c) for i, _, c in row.quad))
             for row in ir.bilinear_rows]
    for row, terms in rows:
        bad = [c for _, c in terms if not math.isfinite(c)]
        if bad:
            return EmissionError(f"row {row.name!r}: coefficient {bad[0]}")
        if not math.isfinite(row.rhs):
            return EmissionError(
                f"row {row.name!r}: right-hand side {row.rhs}")
    for v in ir.variables:
        for bound in (v.lower, v.upper):
            if math.isnan(bound) or (math.isinf(bound) and v.lower == v.upper):
                return EmissionError(f"column {v.name!r}: bound {bound}")
    return EmissionError("non-finite number")


_SENSE_MPS = {"<=": "L", ">=": "G", "==": "E"}


def write_mps(ir: ModelIR) -> str:
    nums = _Numbers()
    out = ["NAME STORAGEBID", "ROWS", " N OBJ"]
    out += [f" {_SENSE_MPS[row.sense]} {row.name}"
            for row in ir.rows + ir.bilinear_rows]

    # column-major nonzeros, each column's entries as "row value" text:
    # the objective first, then the rows in order
    entries: list[list[str]] = [[] for _ in ir.variables]
    for i, coeff in sorted(ir.objective.items()):
        entries[i].append("OBJ " + nums[coeff])
    for name, terms in [(row.name, row.coeffs) for row in ir.rows] + \
            [(row.name, row.linear) for row in ir.bilinear_rows]:
        head = name + " "
        for i, c in terms:
            entries[i].append(head + nums[c])

    out.append("COLUMNS")
    in_int = False
    marker = 0
    for v, lines in zip(ir.variables, entries):
        want_int = v.kind == BINARY
        if want_int != in_int:
            kind = "INTORG" if want_int else "INTEND"
            out.append(f" MARKER{marker} 'MARKER' '{kind}'")
            marker += 1
            in_int = want_int
        head = f" {v.name} "
        out.append(head + ("\n" + head).join(lines or ["OBJ 0"]))
    if in_int:
        out.append(f" MARKER{marker} 'MARKER' 'INTEND'")

    out.append("RHS")
    out += [f" RHS {row.name} {nums[row.rhs]}"
            for row in ir.rows + ir.bilinear_rows if row.rhs != 0.0]

    out.append("BOUNDS")
    for v in ir.variables:
        lo, hi = v.lower, v.upper
        if v.kind == BINARY and lo == 0.0 and hi == 1.0:
            out.append(f" BV BND {v.name}")
            continue
        if lo == hi:
            out.append(f" FX BND {v.name} {nums[lo]}")
            continue
        if math.isinf(lo) and math.isinf(hi):
            out.append(f" FR BND {v.name}")
            continue
        if math.isinf(lo):
            out.append(f" MI BND {v.name}")
        elif lo != 0.0:
            out.append(f" LO BND {v.name} {nums[lo]}")
        if not math.isinf(hi):
            out.append(f" UP BND {v.name} {nums[hi]}")

    for row in ir.bilinear_rows:
        out.append(f"QCMATRIX {row.name}")
        for i, j, c in row.quad:
            ni, nj = ir.variables[i].name, ir.variables[j].name
            if i == j:
                out.append(f" {ni} {nj} {nums[c]}")
            else:
                out.append(f" {ni} {nj} {nums[c / 2]}")
                out.append(f" {nj} {ni} {nums[c / 2]}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


_SENSE_LP = {"<=": "<=", ">=": ">=", "==": "="}
# LP files reserve square brackets for quadratic terms, so names use
# parentheses there: x0[3] is written x0(3).
_LP_NAME = str.maketrans("[]", "()")


def _lp_linear(terms, names, nums) -> str:
    if not terms:
        return "0"
    return " ".join([f"{'+' if c >= 0 else '-'} {nums[abs(c)]} {names[i]}"
                     for i, c in terms])


def write_lp(ir: ModelIR) -> str:
    nums = _Numbers()
    names = [v.name.translate(_LP_NAME) for v in ir.variables]
    out = ["\\ STORAGEBID", "Minimize", " obj: " +
           _lp_linear(sorted(ir.objective.items()), names, nums)]
    out.append("Subject To")
    out += [f" {row.name.translate(_LP_NAME)}: "
            f"{_lp_linear(row.coeffs, names, nums)} "
            f"{_SENSE_LP[row.sense]} {nums[row.rhs]}"
            for row in ir.rows]
    for row in ir.bilinear_rows:
        quad = " ".join(
            f"{'+' if c >= 0 else '-'} {nums[abs(c)]} "
            f"{names[i]} * {names[j]}"
            for i, j, c in row.quad)
        lin = _lp_linear(row.linear, names, nums) if row.linear else ""
        body = f"[ {quad} ]" + (f" {lin}" if row.linear else "")
        out.append(f" {row.name.translate(_LP_NAME)}: {body} "
                   f"{_SENSE_LP[row.sense]} {nums[row.rhs]}")
    out.append("Bounds")
    for v, name in zip(ir.variables, names):
        lo = "-inf" if math.isinf(v.lower) else nums[v.lower]
        hi = "+inf" if math.isinf(v.upper) else nums[v.upper]
        out.append(f" {lo} <= {name} <= {hi}")
    bins = [name for v, name in zip(ir.variables, names)
            if v.kind == BINARY]
    if bins:
        out.append("Binaries")
        out.append(" " + " ".join(bins))
    out.append("End")
    return "\n".join(out) + "\n"


def emit_model(ir: ModelIR, fmt: str = "MPS") -> bytes:
    """Serialize a model; deterministic byte output."""
    ir.validate()
    write = {"MPS": write_mps, "LP": write_lp}.get(fmt.upper())
    if write is None:
        raise EmissionError(f"unsupported format {fmt!r}")
    try:
        return write(ir).encode()
    except _NonFinite:
        raise _non_finite_error(ir) from None
