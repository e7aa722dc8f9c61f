"""MPS model exchange: writer and reader.

Writes the free variant of the MPS format with fixed-field-compatible 8-char
generated names (R#######/X#######) and full-precision values via ``repr``,
so a re-import reproduces every coefficient from its decimal text exactly.
Two-sided information never uses RANGES; each constraint is one row.
"""

from __future__ import annotations

import numpy as np

from .milp import EQUAL, GREATER_EQUAL, INF, LESS_EQUAL, MilpModel, ModelError

_SENSE_TO_ROW = {LESS_EQUAL: "L", GREATER_EQUAL: "G", EQUAL: "E"}
_ROW_TO_SENSE = {v: k for k, v in _SENSE_TO_ROW.items()}

OBJ_ROW = "OBJ"


def _num(value: float) -> str:
    text = repr(float(value))
    return text


def _entry(f1: str, f2: str, f3: str = "", f4: str = "") -> str:
    line = f" {f1:<3}{f2:<10}"
    if f3:
        line += f"{f3:<10}"
    if f4:
        line += f4
    return line.rstrip()


def export_model(model: MilpModel, path: str) -> None:
    """Write the model as an MPS file (minimization, objective row OBJ)."""
    A, senses, rhs = model.constraint_arrays()
    lo, hi = model.bounds_arrays()
    binary = np.zeros(len(lo), dtype=bool)
    binary[model.binary_indices()] = True
    obj = model.objective_vector().tolist()
    in_obj = model.objective_columns().tolist()
    row_name = [f"R{i + 1:07d}" for i in range(len(rhs))]

    lines: list[str] = [f"NAME          {model.name[:60] or 'GRIDXPAND'}", "ROWS",
                        f" N   {OBJ_ROW}"]
    lines += [f" {_SENSE_TO_ROW[s]}   {row_name[i]}" for i, s in enumerate(senses.tolist())]

    lines.append("COLUMNS")
    in_int = False
    marker = 0
    bounds, rows, coeffs = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    for j, is_bin in enumerate(binary.tolist()):
        if is_bin != in_int:
            kind = "'INTORG'" if is_bin else "'INTEND'"
            lines.append(_entry("", f"MARK{marker:04d}", "'MARKER'", f"                 {kind}"))
            in_int = is_bin
            marker += 1
        head = f"    {f'X{j + 1:07d}':<10}"  # _entry("", name, row, value), inlined
        a, b = bounds[j], bounds[j + 1]
        # every column must appear at least once; park unused ones in OBJ
        if in_obj[j] or a == b:
            lines.append(f"{head}{OBJ_ROW:<10}{obj[j]!r}")
        lines += [f"{head}{row_name[i]:<10}{coeff!r}"
                  for i, coeff in zip(rows[a:b], coeffs[a:b])]
    if in_int:
        lines.append(_entry("", f"MARK{marker:04d}", "'MARKER'", "                 'INTEND'"))

    lines.append("RHS")
    for i, value in enumerate(rhs.tolist()):
        if value != 0.0:
            lines.append(_entry("", "RHS", row_name[i], _num(value)))

    lines.append("BOUNDS")
    for j, (low, high) in enumerate(zip(lo.tolist(), hi.tolist())):
        name = f"X{j + 1:07d}"
        if low == high:
            lines.append(_entry("FX", "BND", name, _num(low)))
        elif low == -INF and high == INF:
            lines.append(_entry("FR", "BND", name))
        elif low == -INF:
            lines.append(_entry("MI", "BND", name))
            lines.append(_entry("UP", "BND", name, _num(high)))
        else:
            if low != 0.0:
                lines.append(_entry("LO", "BND", name, _num(low)))
            if high != INF:
                lines.append(_entry("UP", "BND", name, _num(high)))
    lines.append("ENDATA")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_model(path: str) -> MilpModel:
    """Read an MPS file written by :func:`export_model` (or compatible)."""
    section = None
    name = "imported"
    rows: list[tuple[str, str]] = []  # (sense, row name)
    row_order: dict[str, int] = {}
    obj_row: str | None = None
    col_entries: dict[str, list[tuple[str, float]]] = {}
    col_order: list[str] = []
    integer_cols: set[str] = set()
    rhs: dict[str, float] = {}
    bounds: dict[str, list[tuple[str, float]]] = {}
    in_int = False

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("*"):
                continue
            if not line.startswith(" "):
                parts = line.split()
                keyword = parts[0].upper()
                if keyword == "NAME":
                    name = parts[1] if len(parts) > 1 else "imported"
                    continue
                if keyword == "ENDATA":
                    break
                if keyword in ("ROWS", "COLUMNS", "RHS", "BOUNDS"):
                    section = keyword
                    continue
                if keyword == "RANGES":
                    raise ModelError(f"{path}:{lineno}: RANGES section not supported")
                raise ModelError(f"{path}:{lineno}: unknown section {keyword!r}")
            fields = line.split()
            if section == "ROWS":
                sense, row = fields[0].upper(), fields[1]
                if sense == "N":
                    if obj_row is None:
                        obj_row = row
                    continue
                if sense not in _ROW_TO_SENSE:
                    raise ModelError(f"{path}:{lineno}: bad row sense {sense!r}")
                row_order[row] = len(rows)
                rows.append((_ROW_TO_SENSE[sense], row))
            elif section == "COLUMNS":
                if len(fields) >= 3 and fields[1] == "'MARKER'":
                    in_int = fields[2] == "'INTORG'"
                    continue
                col = fields[0]
                if col not in col_entries:
                    col_entries[col] = []
                    col_order.append(col)
                    if in_int:
                        integer_cols.add(col)
                pairs = fields[1:]
                if len(pairs) % 2:
                    raise ModelError(f"{path}:{lineno}: odd COLUMNS fields")
                for row, val in zip(pairs[::2], pairs[1::2]):
                    col_entries[col].append((row, float(val)))
            elif section == "RHS":
                pairs = fields[1:]
                for row, val in zip(pairs[::2], pairs[1::2]):
                    rhs[row] = float(val)
            elif section == "BOUNDS":
                kind = fields[0].upper()
                col = fields[2]
                val = float(fields[3]) if len(fields) > 3 else 0.0
                bounds.setdefault(col, []).append((kind, val))
            else:
                raise ModelError(f"{path}:{lineno}: data outside any section")

    model = MilpModel(name=name)
    lo, hi, binary = [], [], []
    for col in col_order:
        low, high, is_bin = 0.0, INF, False
        for kind, val in bounds.get(col, []):
            if kind == "UP":
                high = val
            elif kind == "LO":
                low = val
            elif kind == "FX":
                low = high = val
            elif kind == "FR":
                low, high = -INF, INF
            elif kind == "MI":
                low = -INF
            elif kind == "PL":
                high = INF
            elif kind == "BV":
                low, high, is_bin = 0.0, 1.0, True
            else:
                raise ModelError(f"bound type {kind!r} not supported")
        lo.append(low)
        hi.append(high)
        binary.append(is_bin or (col in integer_cols and low >= 0.0 and high <= 1.0))
    lo, hi, binary = np.array(lo), np.array(hi), np.array(binary, dtype=bool)
    pos = model.reserve(len(col_order)) + np.arange(len(col_order))
    for kind in (False, True):
        at = np.flatnonzero(binary == kind)
        model.add_vars("col", ([col_order[j] for j in at],), lo=lo[at], hi=hi[at],
                       binary=kind, pos=pos[at])

    obj_cols, obj_vals, cells, cols, vals = [], [], [], [], []
    for j, col in enumerate(col_order):
        for row, val in col_entries[col]:
            if row == obj_row:
                if val != 0.0:
                    obj_cols.append(j)
                    obj_vals.append(val)
            elif row in row_order:
                cells.append(row_order[row])
                cols.append(j)
                vals.append(val)
            else:
                raise ModelError(f"column {col} references unknown row {row}")
    model.add_costs("objective", obj_cols, obj_vals)
    model.add_rows(([row for _, row in rows],), [(
        "{0}", [sense for sense, _ in rows], [rhs.get(row, 0.0) for _, row in rows],
        [(np.array(cols, dtype=np.int64), vals, np.array(cells, dtype=np.int64))])])
    return model
