"""Model-exchange files: the way to hand a model to another solver.

MPS (free format) and LP writers; bilinear rows are emitted as
quadratic-constraint sections (QCMATRIX in MPS, bracketed products in
LP). Emission is deterministic: fixed ordering, fixed float format.
"""

from __future__ import annotations

import numpy as np

from .ir import BINARY, ModelIR


class EmissionError(ValueError):
    """The requested format cannot express the model."""


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".12g")


_SENSE_MPS = {"<=": "L", ">=": "G", "==": "E"}


def write_mps(ir: ModelIR) -> str:
    out = ["NAME STORAGEBID", "ROWS", " N OBJ"]
    for row in ir.rows:
        out.append(f" {_SENSE_MPS[row.sense]} {row.name}")
    for row in ir.bilinear_rows:
        if row.active:
            out.append(f" {_SENSE_MPS[row.sense]} {row.name}")

    # column-major coefficient lists
    col_entries: list[list[tuple[str, float]]] = [[] for _ in ir.variables]
    for i, coeff in sorted(ir.objective.items()):
        col_entries[i].append(("OBJ", coeff))
    for row in ir.rows:
        for i, c in row.coeffs:
            col_entries[i].append((row.name, c))
    for row in ir.bilinear_rows:
        if row.active:
            for i, c in row.linear:
                col_entries[i].append((row.name, c))

    out.append("COLUMNS")
    in_int = False
    marker = 0
    for i, v in enumerate(ir.variables):
        want_int = v.kind == BINARY
        if want_int != in_int:
            kind = "INTORG" if want_int else "INTEND"
            out.append(f" MARKER{marker} 'MARKER' '{kind}'")
            marker += 1
            in_int = want_int
        for rname, c in col_entries[i]:
            out.append(f" {v.name} {rname} {_num(c)}")
        if not col_entries[i]:
            out.append(f" {v.name} OBJ 0")
    if in_int:
        out.append(f" MARKER{marker} 'MARKER' 'INTEND'")

    out.append("RHS")
    for row in ir.rows:
        if row.rhs != 0.0:
            out.append(f" RHS {row.name} {_num(row.rhs)}")
    for row in ir.bilinear_rows:
        if row.active and row.rhs != 0.0:
            out.append(f" RHS {row.name} {_num(row.rhs)}")

    out.append("BOUNDS")
    for v in ir.variables:
        lo, hi = v.lower, v.upper
        if v.kind == BINARY and lo == 0.0 and hi == 1.0:
            out.append(f" BV BND {v.name}")
            continue
        if lo == hi:
            out.append(f" FX BND {v.name} {_num(lo)}")
            continue
        if np.isinf(lo) and np.isinf(hi):
            out.append(f" FR BND {v.name}")
            continue
        if np.isinf(lo):
            out.append(f" MI BND {v.name}")
        elif lo != 0.0:
            out.append(f" LO BND {v.name} {_num(lo)}")
        if not np.isinf(hi):
            out.append(f" UP BND {v.name} {_num(hi)}")

    for row in ir.bilinear_rows:
        if not row.active:
            continue
        out.append(f"QCMATRIX {row.name}")
        for i, j, c in row.quad:
            ni, nj = ir.variables[i].name, ir.variables[j].name
            if i == j:
                out.append(f" {ni} {nj} {_num(c)}")
            else:
                out.append(f" {ni} {nj} {_num(c / 2)}")
                out.append(f" {nj} {ni} {_num(c / 2)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


_SENSE_LP = {"<=": "<=", ">=": ">=", "==": "="}
# LP files reserve square brackets for quadratic terms, so names use
# parentheses there: x0[3] is written x0(3).
_LP_NAME = str.maketrans("[]", "()")


def _lp_linear(terms, names) -> str:
    parts = []
    for i, c in terms:
        sign = "+" if c >= 0 else "-"
        parts.append(f"{sign} {_num(abs(c))} {names[i]}")
    return " ".join(parts) if parts else "0"


def write_lp(ir: ModelIR) -> str:
    names = [v.name.translate(_LP_NAME) for v in ir.variables]
    out = ["\\ STORAGEBID", "Minimize", " obj: " +
           _lp_linear(sorted(ir.objective.items()), names)]
    out.append("Subject To")
    for row in ir.rows:
        out.append(f" {row.name.translate(_LP_NAME)}: "
                   f"{_lp_linear(row.coeffs, names)} "
                   f"{_SENSE_LP[row.sense]} {_num(row.rhs)}")
    for row in ir.bilinear_rows:
        if not row.active:
            continue
        quad = " ".join(
            f"{'+' if c >= 0 else '-'} {_num(abs(c))} "
            f"{names[i]} * {names[j]}"
            for i, j, c in row.quad)
        lin = _lp_linear(row.linear, names) if row.linear else ""
        body = f"[ {quad} ]" + (f" {lin}" if row.linear else "")
        out.append(f" {row.name.translate(_LP_NAME)}: {body} "
                   f"{_SENSE_LP[row.sense]} {_num(row.rhs)}")
    out.append("Bounds")
    for v, name in zip(ir.variables, names):
        lo = "-inf" if np.isinf(v.lower) else _num(v.lower)
        hi = "+inf" if np.isinf(v.upper) else _num(v.upper)
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
    if fmt.upper() == "MPS":
        return write_mps(ir).encode()
    if fmt.upper() == "LP":
        return write_lp(ir).encode()
    raise EmissionError(f"unsupported format {fmt!r}")
