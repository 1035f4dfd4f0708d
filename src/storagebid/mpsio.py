"""Model-exchange files: the way to hand a model to another solver.

MPS (free format) and LP-text writers; bilinear rows are emitted as
quadratic-constraint sections (QCMATRIX in MPS, bracketed products in
LP-text). Emission is deterministic: fixed ordering, fixed float format.
``parse_mps`` reads the emitted MPS back into a model; LP-text is
written only.
"""

from __future__ import annotations

import numpy as np

from .ir import BINARY, ModelError, ModelIR


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


def _lp_linear(terms, ir) -> str:
    parts = []
    for i, c in terms:
        sign = "+" if c >= 0 else "-"
        parts.append(f"{sign} {_num(abs(c))} {ir.variables[i].name}")
    return " ".join(parts) if parts else "0"


def write_lp(ir: ModelIR) -> str:
    out = ["\\ STORAGEBID", "Minimize", " obj: " +
           _lp_linear(sorted(ir.objective.items()), ir)]
    out.append("Subject To")
    for row in ir.rows:
        out.append(f" {row.name}: {_lp_linear(row.coeffs, ir)} "
                   f"{_SENSE_LP[row.sense]} {_num(row.rhs)}")
    for row in ir.bilinear_rows:
        if not row.active:
            continue
        quad = " ".join(
            f"{'+' if c >= 0 else '-'} {_num(abs(c))} "
            f"{ir.variables[i].name} * {ir.variables[j].name}"
            for i, j, c in row.quad)
        lin = _lp_linear(row.linear, ir) if row.linear else ""
        body = f"[ {quad} ]" + (f" {lin}" if row.linear else "")
        out.append(f" {row.name}: {body} {_SENSE_LP[row.sense]} {_num(row.rhs)}")
    out.append("Bounds")
    for v in ir.variables:
        lo = "-inf" if np.isinf(v.lower) else _num(v.lower)
        hi = "+inf" if np.isinf(v.upper) else _num(v.upper)
        out.append(f" {lo} <= {v.name} <= {hi}")
    bins = [v.name for v in ir.variables if v.kind == BINARY]
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
    if fmt.upper() in ("LP", "LP-TEXT"):
        return write_lp(ir).encode()
    raise EmissionError(f"unsupported format {fmt!r}")


def parse_mps(text: str) -> ModelIR:
    """Parse (free-format) MPS back into a ModelIR. Supports the subset
    this package emits, including QCMATRIX sections."""
    ir = ModelIR()
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    obj_name = None
    col_data: dict[str, list[tuple[str, float]]] = {}
    col_order: list[str] = []
    int_cols: set[str] = set()
    rhs: dict[str, float] = {}
    bounds: dict[str, list[float]] = {}
    qc: dict[str, list[tuple[str, str, float]]] = {}
    qc_current = None
    in_int = False

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        upper = line.upper()
        head = upper.split()[0]
        if head in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "RANGES",
                    "ENDATA") and raw[:1] not in (" ", "\t"):
            section = head
            continue
        if head == "QCMATRIX" and raw[:1] not in (" ", "\t"):
            section = "QCMATRIX"
            qc_current = line.split()[1]
            qc[qc_current] = []
            continue
        toks = line.split()
        if section == "ROWS":
            sense, rname = toks[0], toks[1]
            if sense == "N":
                obj_name = rname
            else:
                inv = {"L": "<=", "G": ">=", "E": "=="}
                row_sense[rname] = inv[sense]
                row_order.append(rname)
        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[1] == "'MARKER'":
                in_int = toks[2] == "'INTORG'"
                continue
            cname = toks[0]
            if cname not in col_data:
                col_data[cname] = []
                col_order.append(cname)
                if in_int:
                    int_cols.add(cname)
            for p in range(1, len(toks) - 1, 2):
                col_data[cname].append((toks[p], float(toks[p + 1])))
        elif section == "RHS":
            for p in range(1, len(toks) - 1, 2):
                rhs[toks[p]] = float(toks[p + 1])
        elif section == "BOUNDS":
            btype, _, cname = toks[0], toks[1], toks[2]
            val = float(toks[3]) if len(toks) > 3 else None
            b = bounds.setdefault(cname, [0.0, np.inf])
            if btype == "LO":
                b[0] = val
            elif btype == "UP":
                b[1] = val
            elif btype == "FX":
                b[0] = b[1] = val
            elif btype == "FR":
                b[0], b[1] = -np.inf, np.inf
            elif btype == "MI":
                b[0] = -np.inf
            elif btype == "BV":
                b[0], b[1] = 0.0, 1.0
                int_cols.add(cname)
            else:
                raise ModelError(f"unsupported bound type {btype}")
        elif section == "QCMATRIX":
            qc[qc_current].append((toks[0], toks[1], float(toks[2])))

    for cname in col_order:
        lo, hi = bounds.get(cname, [0.0, np.inf])
        kind = BINARY if cname in int_cols else "continuous"
        ir.add_variable(cname, kind=kind, lower=lo, upper=hi)
    row_coeffs: dict[str, list[tuple[int, float]]] = {r: [] for r in row_order}
    for cname in col_order:
        ci = ir.var(cname)
        for rname, c in col_data[cname]:
            if rname == obj_name:
                if c != 0.0:
                    ir.add_objective_term(ci, c)
            else:
                row_coeffs[rname].append((ci, c))
    for rname in row_order:
        if rname in qc:
            pairs: dict[tuple[int, int], float] = {}
            for a, b, c in qc[rname]:
                i, j = ir.var(a), ir.var(b)
                key = (min(i, j), max(i, j))
                pairs[key] = pairs.get(key, 0.0) + c
            quad = [(i, j, c) for (i, j), c in sorted(pairs.items())]
            ir.add_bilinear(rname, quad=quad, linear=row_coeffs[rname],
                            sense=row_sense[rname], rhs=rhs.get(rname, 0.0))
        else:
            ir.add_row(rname, row_coeffs[rname], row_sense[rname],
                       rhs.get(rname, 0.0))
    return ir

