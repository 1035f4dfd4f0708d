"""Model-exchange files: the way to hand a model to another solver.

MPS (free format) and LP writers; bilinear rows are emitted as
quadratic-constraint sections (QCMATRIX in MPS, bracketed products in
LP). Emission is deterministic: fixed ordering, fixed float format.
"""

from __future__ import annotations

import math

import numpy as np

from .ir import SENSES, ModelIR


class EmissionError(ValueError):
    """The requested format cannot express the model."""


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".12g")


def _objects(strings) -> np.ndarray:
    return np.array(strings, dtype=object)


def _texts(values, fmt=_num) -> np.ndarray:
    """``fmt`` of each number, as an object array. A model repeats few
    distinct numbers many times, so each is formatted once."""
    distinct, inverse = np.unique(np.asarray(values, dtype=np.float64),
                                  return_inverse=True)
    return _objects([fmt(x) for x in distinct.tolist()])[inverse]


def _pieces(*parts) -> np.ndarray:
    """Item i of every part in turn, for each i: the pieces of lines,
    which one join writes faster than building each line. A str part
    stands for the same item every time."""
    n = max(len(part) for part in parts if not isinstance(part, str))
    table = np.empty((n, len(parts)), dtype=object)
    for j, part in enumerate(parts):
        table[:, j] = part
    return table.ravel()


def _check_finite(ir: ModelIR) -> None:
    """Raise EmissionError naming the first objective term or row with a
    NaN or infinite coefficient or right-hand side, which a model file
    cannot write. ``ModelIR.validate`` has checked the bounds."""
    for i, c in sorted(ir.objective.items()):
        if not math.isfinite(c):
            raise EmissionError(
                f"column {ir.var_names[i]!r}: objective coefficient {c}")
    a = ir.row_arrays()
    row_of = np.repeat(np.arange(ir.n_rows), np.diff(a.ptr))
    first = np.union1d(row_of[~np.isfinite(a.val)],
                       np.flatnonzero(~np.isfinite(a.rhs)))[:1]
    rows = [(ir.row_names[r], a.val[a.ptr[r]:a.ptr[r + 1]].tolist(),
             float(a.rhs[r])) for r in first.tolist()]
    rows += [(row.name, [c for _, c in row.linear] +
              [c for _, _, c in row.quad], row.rhs)
             for row in ir.bilinear_rows]
    for name, coeffs, rhs in rows:
        bad = [c for c in coeffs if not math.isfinite(c)]
        if bad:
            raise EmissionError(f"row {name!r}: coefficient {bad[0]}")
        if not math.isfinite(rhs):
            raise EmissionError(f"row {name!r}: right-hand side {rhs}")


_SENSE_MPS = _objects([" L ", " G ", " E "])  # by sense code


def write_mps(ir: ModelIR) -> str:
    rows, bil = ir.row_arrays(), ir.bilinear_rows
    names = _objects(ir.var_names)
    row_names = _objects(ir.row_names + [row.name for row in bil])
    sense = np.concatenate([rows.sense, np.array(
        [SENSES.index(row.sense) for row in bil], dtype=np.int8)])
    rhs = np.concatenate([rows.rhs, [row.rhs for row in bil]])
    binary = np.array(ir.binary, dtype=bool)
    out = ["NAME STORAGEBID\nROWS\n N OBJ\n"]
    out += _pieces(_SENSE_MPS[sense], row_names, "\n").tolist()

    # column-major nonzeros: in each column the objective first, then
    # the rows in order, then the linear parts of the bilinear rows; a
    # column with none of them gets a zero cost
    linear = [(i, c, r) for r, row in enumerate(bil, 1 + ir.n_rows)
              for i, c in row.linear]
    col = np.concatenate([list(ir.objective), rows.col,
                          [i for i, _, _ in linear]]).astype(np.intp)
    count = np.bincount(col, minlength=ir.n_vars)
    empty = np.flatnonzero(count == 0)
    col = np.concatenate([col, empty])
    val = np.concatenate([list(ir.objective.values()), rows.val,
                          [c for _, c, _ in linear], np.zeros(empty.size)])
    label = np.concatenate([
        np.zeros(len(ir.objective), dtype=np.intp),
        np.repeat(np.arange(1, ir.n_rows + 1), np.diff(rows.ptr)),
        np.array([r for *_, r in linear], dtype=np.intp),
        np.zeros(empty.size, dtype=np.intp)])
    order = np.argsort(col, kind="stable")
    heads = (" " + names + " ")[col[order]]
    labels = np.concatenate([_objects(["OBJ"]), row_names]) + " "
    # integer markers open before the first line of a column whose kind
    # differs from the previous column's
    first = np.concatenate([[0], np.cumsum(np.maximum(count, 1))])
    switch = np.flatnonzero(np.diff(binary, prepend=False))
    for m, c in enumerate(switch.tolist()):
        kind = "INTORG" if binary[c] else "INTEND"
        heads[first[c]] = f" MARKER{m} 'MARKER' '{kind}'\n" + heads[first[c]]
    out.append("COLUMNS\n")
    out += _pieces(heads, labels[label[order]],
                   _texts(val, lambda x: _num(x) + "\n")[order]).tolist()
    if binary.size and binary[-1]:
        out.append(f" MARKER{switch.size} 'MARKER' 'INTEND'\n")

    nz = np.flatnonzero(rhs != 0.0)
    out.append("RHS\n")
    out += _pieces(" RHS ", row_names[nz], " ", _texts(rhs[nz]),
                   "\n").tolist()

    lo, hi = ir.bounds_arrays()
    bv = binary & (lo == 0.0) & (hi == 1.0)
    fx = ~bv & (lo == hi)
    fr = ~bv & ~fx & np.isinf(lo) & np.isinf(hi)
    rest = ~(bv | fx | fr)
    mi = rest & np.isinf(lo)
    lo_set = rest & ~np.isinf(lo) & (lo != 0.0)
    up = rest & ~np.isinf(hi)
    # one bound line per column, and a second one for an upper bound
    lines = np.full((ir.n_vars, 2), "", dtype=object)
    lines[bv, 0] = " BV BND " + names[bv] + "\n"
    lines[fx, 0] = " FX BND " + names[fx] + " " + _texts(lo[fx]) + "\n"
    lines[fr, 0] = " FR BND " + names[fr] + "\n"
    lines[mi, 0] = " MI BND " + names[mi] + "\n"
    lines[lo_set, 0] = (" LO BND " + names[lo_set] + " "
                        + _texts(lo[lo_set]) + "\n")
    lines[up, 1] = " UP BND " + names[up] + " " + _texts(hi[up]) + "\n"
    out.append("BOUNDS\n")
    out += lines.ravel().tolist()

    for row in bil:
        out.append(f"QCMATRIX {row.name}\n")
        for i, j, c in row.quad:
            ni, nj = ir.var_names[i], ir.var_names[j]
            if i == j:
                out.append(f" {ni} {nj} {_num(c)}\n")
            else:
                half = _num(c / 2)
                out += [f" {ni} {nj} {half}\n", f" {nj} {ni} {half}\n"]
    out.append("ENDATA\n")
    return "".join(out)


_SENSE_LP = {"<=": " <= ", ">=": " >= ", "==": " = "}
# LP files reserve square brackets for quadratic terms, so names use
# parentheses there: x0[3] is written x0(3).
_LP_NAME = str.maketrans("[]", "()")


def _signed(c: float) -> str:
    return f" {'+' if c >= 0 else '-'} {_num(abs(c))} "


def _lp_terms(col, val, names) -> np.ndarray:
    """The pieces `` + c `` and ``name`` of each term, in order."""
    return _pieces(_texts(val, _signed), names[np.asarray(col, np.intp)])


def write_lp(ir: ModelIR) -> str:
    names = _objects([name.translate(_LP_NAME) for name in ir.var_names])
    obj = sorted(ir.objective.items())
    terms = _lp_terms([i for i, _ in obj], [c for _, c in obj], names)
    out = ["\\ STORAGEBID\nMinimize\n obj:",
           "".join(terms.tolist()) if obj else " 0", "\nSubject To\n"]

    # each row: its name, its terms or " 0" when it has none, its sense
    # and rhs, inserted around the terms at the row's start and end
    rows = ir.row_arrays()
    around = _pieces(
        " " + _objects([name.translate(_LP_NAME)
                        for name in ir.row_names]) + ":",
        np.where(np.diff(rows.ptr) == 0, " 0", "").astype(object),
        _objects([_SENSE_LP[s] for s in SENSES])[rows.sense]
        + _texts(rows.rhs) + "\n")
    at = 2 * np.column_stack([rows.ptr[:-1], rows.ptr[:-1], rows.ptr[1:]])
    out += np.insert(_lp_terms(rows.col, rows.val, names), at.ravel(),
                     around).tolist()

    for row in ir.bilinear_rows:
        quad = " ".join(
            f"{'+' if c >= 0 else '-'} {_num(abs(c))} "
            f"{names[i]} * {names[j]}"
            for i, j, c in row.quad)
        lin = _lp_terms([i for i, _ in row.linear],
                        [c for _, c in row.linear], names)
        out.append(f" {row.name.translate(_LP_NAME)}: [ {quad} ]"
                   f"{''.join(lin.tolist())}"
                   f"{_SENSE_LP[row.sense]}{_num(row.rhs)}\n")

    lo, hi = ir.bounds_arrays()
    lo_text = np.full(ir.n_vars, "-inf", dtype=object)
    hi_text = np.full(ir.n_vars, "+inf", dtype=object)
    lo_text[~np.isinf(lo)] = _texts(lo[~np.isinf(lo)])
    hi_text[~np.isinf(hi)] = _texts(hi[~np.isinf(hi)])
    out.append("Bounds\n")
    out += _pieces(" ", lo_text, " <= ", names, " <= ", hi_text,
                   "\n").tolist()
    bins = names[np.array(ir.binary, dtype=bool)].tolist()
    if bins:
        out.append("Binaries\n " + " ".join(bins) + "\n")
    out.append("End\n")
    return "".join(out)


def emit_model(ir: ModelIR, fmt: str = "MPS") -> bytes:
    """Serialize a model; deterministic byte output."""
    ir.validate()
    write = {"MPS": write_mps, "LP": write_lp}.get(fmt.upper())
    if write is None:
        raise EmissionError(f"unsupported format {fmt!r}")
    _check_finite(ir)
    return write(ir).encode()
