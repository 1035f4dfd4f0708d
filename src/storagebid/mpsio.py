"""Model-exchange files: the way to hand a model to another solver.

MPS (free format) and LP writers; bilinear rows are emitted as
quadratic-constraint sections (QCMATRIX in MPS, bracketed products in
LP). Emission is deterministic: fixed ordering, fixed float format.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .ir import SENSES, ModelError, ModelIR


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".12g")


def _objects(strings) -> np.ndarray:
    return np.array(strings, dtype=object)


def _texts(values, fmt=_num) -> np.ndarray:
    """``fmt`` of each number, as an object array. A model repeats few
    distinct numbers many times, so each is formatted once."""
    values = np.asarray(values, dtype=np.float64)
    distinct = np.unique(values)
    return _objects([fmt(x) for x in distinct.tolist()])[
        np.searchsorted(distinct, values)]


def _pieces(*parts) -> np.ndarray:
    """Item i of every part in turn, for each i: the pieces of lines,
    which one join writes faster than building each line. A str part
    stands for the same item every time."""
    n = max(len(part) for part in parts if not isinstance(part, str))
    table = np.empty((n, len(parts)), dtype=object)
    for j, part in enumerate(parts):
        table[:, j] = part
    return table.ravel()


_SENSE_MPS = _objects([" L ", " G ", " E "])  # by sense code


def write_mps(ir: ModelIR) -> str:
    rows, bil = ir.row_arrays(), ir.bilinear_rows
    names = _objects(ir.var_names)
    row_names = _objects(ir.row_names + [row.name for row in bil])
    sense = np.concatenate([rows.sense, np.array(
        [SENSES.index(row.sense) for row in bil], dtype=np.int8)])
    rhs = np.concatenate([rows.rhs, [row.rhs for row in bil]])
    out = ["NAME STORAGEBID\nROWS\n N OBJ\n"]
    out += _pieces(_SENSE_MPS[sense], row_names, "\n").tolist()

    # column-major nonzeros: in each column the objective first, then
    # the rows in order, then the linear parts of the bilinear rows. One
    # transpose of those rows, with each nonzero's index as its value,
    # gives that order and each nonzero's row label; a column with none
    # of them gets a zero cost.
    obj = np.flatnonzero(ir.cost)
    linear = [term for row in bil for term in row.linear]
    ptr = np.concatenate([[0], obj.size + rows.ptr, obj.size + rows.ptr[-1]
                          + np.cumsum([len(row.linear) for row in bil],
                                      dtype=np.int32)], dtype=np.int32)
    col = np.concatenate([obj, rows.col,
                          [i for i, _ in linear]]).astype(np.int32)
    val = np.concatenate([ir.cost[obj], rows.val,
                          [c for _, c in linear], [0.0]])
    csc = sparse.csr_array((np.arange(col.size), col, ptr),
                           shape=(ptr.size - 1, ir.n_vars)).tocsc()
    lines = np.diff(csc.indptr)
    empty = csc.indptr[:-1][lines == 0]
    order = np.insert(csc.data, empty, col.size)
    label = np.insert(csc.indices, empty, 0)
    lines[lines == 0] = 1
    heads = np.repeat(" " + names + " ", lines)
    labels = np.concatenate([_objects(["OBJ"]), row_names])
    # integer markers open before the first line of a column whose kind
    # differs from the previous column's
    first = np.concatenate([[0], np.cumsum(lines)])
    switch = np.flatnonzero(np.diff(ir.binary, prepend=False))
    for m, c in enumerate(switch.tolist()):
        kind = "INTORG" if ir.binary[c] else "INTEND"
        heads[first[c]] = f" MARKER{m} 'MARKER' '{kind}'\n" + heads[first[c]]
    out.append("COLUMNS\n")
    out += _pieces(heads, labels[label],
                   _texts(val[order], lambda x: f" {_num(x)}\n")).tolist()
    if ir.binary.size and ir.binary[-1]:
        out.append(f" MARKER{switch.size} 'MARKER' 'INTEND'\n")

    nz = np.flatnonzero(rhs != 0.0)
    out.append("RHS\n")
    out += _pieces(" RHS ", row_names[nz], " ", _texts(rhs[nz]),
                   "\n").tolist()

    lo, hi = ir.lower, ir.upper
    bv = ir.binary & (lo == 0.0) & (hi == 1.0)
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


def _lp_names(names) -> np.ndarray:
    """LP files reserve square brackets for quadratic terms, so names use
    parentheses there: x0[3] is written x0(3)."""
    return _objects([name.replace("[", "(").replace("]", ")")
                     for name in names])


def _signed(c: float) -> str:
    return f" {'+' if c >= 0 else '-'} {_num(abs(c))} "


def _lp_terms(col, val, names) -> np.ndarray:
    """The pieces `` + c `` and ``name`` of each term, in order."""
    return _pieces(_texts(val, _signed), names[np.asarray(col, np.intp)])


def write_lp(ir: ModelIR) -> str:
    names = _lp_names(ir.var_names)
    obj = np.flatnonzero(ir.cost)
    terms = _lp_terms(obj, ir.cost[obj], names)
    out = ["\\ STORAGEBID\nMinimize\n obj:",
           "".join(terms.tolist()) if obj.size else " 0", "\nSubject To\n"]

    # each row: its name, its terms or " 0" when it has none, its sense
    # and rhs, inserted around the terms at the row's start and end
    rows = ir.row_arrays()
    around = _pieces(
        " " + _lp_names(ir.row_names) + ":",
        np.where(np.diff(rows.ptr) == 0, " 0", "").astype(object),
        _objects([_SENSE_LP[s] for s in SENSES])[rows.sense]
        + _texts(rows.rhs, lambda x: _num(x) + "\n"))
    at = 2 * np.column_stack([rows.ptr[:-1], rows.ptr[:-1], rows.ptr[1:]])
    out += np.insert(_lp_terms(rows.col, rows.val, names), at.ravel(),
                     around).tolist()

    bil = ir.bilinear_rows
    for row, name in zip(bil, _lp_names(row.name for row in bil)):
        quad = " ".join(
            f"{'+' if c >= 0 else '-'} {_num(abs(c))} "
            f"{names[i]} * {names[j]}"
            for i, j, c in row.quad)
        lin = _lp_terms([i for i, _ in row.linear],
                        [c for _, c in row.linear], names)
        out.append(f" {name}: [ {quad} ]"
                   f"{''.join(lin.tolist())}"
                   f"{_SENSE_LP[row.sense]}{_num(row.rhs)}\n")

    lo, hi = ir.lower, ir.upper
    lo_text = np.full(ir.n_vars, "-inf", dtype=object)
    hi_text = np.full(ir.n_vars, "+inf", dtype=object)
    lo_text[~np.isinf(lo)] = _texts(lo[~np.isinf(lo)])
    hi_text[~np.isinf(hi)] = _texts(hi[~np.isinf(hi)])
    out.append("Bounds\n")
    out += _pieces(" ", lo_text, " <= ", names, " <= ", hi_text,
                   "\n").tolist()
    bins = names[ir.binary].tolist()
    if bins:
        out.append("Binaries\n " + " ".join(bins) + "\n")
    out.append("End\n")
    return "".join(out)


def emit_model(ir: ModelIR, fmt: str = "MPS") -> bytes:
    """Serialize a model; deterministic byte output."""
    ir.validate()
    write = {"MPS": write_mps, "LP": write_lp}.get(fmt.upper())
    if write is None:
        raise ModelError(f"unsupported format {fmt!r}")
    return write(ir).encode()
