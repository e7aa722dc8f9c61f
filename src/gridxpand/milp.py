"""Language-neutral MILP representation: variables, linear rows, objective.

The model is stored as arrays. Variables come in blocks: a family, the
positions its variables take in the model's column order, and a grid of
index labels. Rows come in contiguous blocks: a grid of cells, each holding
the same pattern of row kinds, with their coefficients as COO triplets. The
solver reads the arrays; ``variables`` and ``constraints`` materialise
``VarRef``/``LinConstraint`` items only when someone reads them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

INF = float("inf")

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="

_SENSES = np.array([LESS_EQUAL, EQUAL, GREATER_EQUAL], dtype="<U2")
_SENSE_CODE = {s: i for i, s in enumerate(_SENSES.tolist())}


class ModelError(ValueError):
    """Ill-formed model construction (unknown variable, bad bounds, ...)."""


def _spread(values, n: int, dtype) -> np.ndarray:
    """``values`` as an array of ``n`` entries: one value repeated, or as given."""
    arr = np.asarray(values, dtype=dtype)
    return arr if arr.shape == (n,) else np.full(n, arr, dtype=dtype)


def _sense_codes(sense, size: int) -> np.ndarray:
    """Row-sense codes (indices into ``_SENSES``) of one sense or one per row."""
    if isinstance(sense, str) and sense in _SENSE_CODE:
        return np.full(size, _SENSE_CODE[sense], dtype=np.int8)
    sense = np.broadcast_to(np.asarray(sense, dtype=object), (size,))
    codes = np.full(size, -1, dtype=np.int8)
    for name, code in _SENSE_CODE.items():
        codes[sense == name] = code
    if (codes < 0).any():
        raise ModelError(f"bad sense {sense[np.argmax(codes < 0)]!r}")
    return codes


@dataclass(frozen=True)
class VarRef:
    """Handle to a declared decision variable."""

    family: str
    indices: tuple
    idx: int  # position in the owning model's variable list
    lo: float
    hi: float
    binary: bool = False
    owner: object = field(default=None, compare=False, repr=False)

    @property
    def name(self) -> str:
        if not self.indices:
            return self.family
        return f"{self.family}[{','.join(str(i) for i in self.indices)}]"

    def __repr__(self) -> str:  # keep solver traces readable
        return self.name


@dataclass(frozen=True)
class LinConstraint:
    """One linear row: sum(coeff * var) <sense> rhs, tagged by its family."""

    terms: tuple[tuple[VarRef, float], ...]
    sense: str
    rhs: float
    tag: str


def _grid_labels(axes: Sequence, perm: Sequence[int] | None = None) -> list[tuple]:
    """Index tuples of a grid's cells in C order; a tuple label spreads over
    several index positions, and ``perm`` reorders the axes in the tuple."""
    axes = [[a if isinstance(a, tuple) else (a,) for a in axis] for axis in axes]
    perm = tuple(range(len(axes))) if perm is None else tuple(perm)
    if len(perm) == 2:  # most families: (element, hour) grids
        i, j = perm
        return [cell[i] + cell[j] for cell in itertools.product(*axes)]
    return [sum((cell[k] for k in perm), ()) for cell in itertools.product(*axes)]


@dataclass(frozen=True)
class _VarBlock:
    family: str
    pos: np.ndarray  # model column of each grid cell, ascending
    axes: tuple
    perm: tuple | None
    lo: np.ndarray
    hi: np.ndarray
    binary: bool


@dataclass(frozen=True)
class _RowBlock:
    axes: tuple
    tags: tuple[str, ...]  # one format per row kind, fed the cell's index tuple


class _Items(Sequence):
    """Read-only sequence with O(1) ``len`` whose items are built on first read."""

    def __init__(self, size, build):
        self._size, self._build = size, build

    def __len__(self) -> int:
        return self._size()

    def __getitem__(self, i):
        return self._build()[i]

    def __iter__(self):
        return iter(self._build())


class MilpModel:
    """Minimization model; immutable by convention once built."""

    def __init__(self, name: str = "model"):
        self.name = name
        # constraint-family instance counts, including families realized as bounds
        self.metadata: dict[str, int] = {}
        self._n_vars = 0
        self._var_blocks: list[_VarBlock] = []
        self._n_rows = 0
        self._row_blocks: list[_RowBlock] = []
        self._coo: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._senses: list[np.ndarray] = []
        self._rhs: list[np.ndarray] = []
        # objective split into reportable cost groups (storage, line, ...)
        self._objective: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._names: set[str] | None = None
        self._cache: dict = {}
        self._owner = object()  # marks this model's VarRefs without a reference cycle

    @property
    def variables(self) -> Sequence[VarRef]:
        return _Items(lambda: self._n_vars, self._var_refs)

    @property
    def constraints(self) -> Sequence[LinConstraint]:
        return _Items(lambda: self._n_rows, self._row_items)

    def __repr__(self) -> str:
        return f"MilpModel({self.name!r}, {self._n_vars} vars, {self._n_rows} rows)"

    # -- building ------------------------------------------------------------------

    def reserve(self, n: int) -> int:
        """Claim ``n`` consecutive columns for blocks to fill; returns the first."""
        start = self._n_vars
        self._n_vars += n
        return start

    def add_vars(self, family: str, axes: Sequence, *, lo, hi, binary: bool = False,
                 pos: np.ndarray | None = None, perm: Sequence[int] | None = None,
                 ) -> np.ndarray:
        """Declare one variable per cell of the grid ``axes``; returns their columns.

        ``pos`` places them in columns claimed by :meth:`reserve` (consecutive
        new columns by default).
        """
        size = math.prod(len(a) for a in axes)
        if pos is None:
            pos = self.reserve(size) + np.arange(size)
        lo, hi = _spread(lo, size, float), _spread(hi, size, float)
        bad = (lo > hi) | ((lo < 0.0) | (hi > 1.0)) & binary
        if bad.any():
            at = int(np.argmax(bad))
            label = (family, _grid_labels(axes, perm)[at])
            if binary and not lo[at] > hi[at]:
                raise ModelError(f"binary variable {label} must have bounds within [0, 1]")
            raise ModelError(f"variable {label}: lo {lo[at]} > hi {hi[at]}")
        self._var_blocks.append(_VarBlock(family, pos, tuple(axes),
                                          None if perm is None else tuple(perm),
                                          lo, hi, binary))
        self._cache.clear()
        return pos

    def add_var(self, family: str, indices: tuple = (), *, lo: float = 0.0,
                hi: float = INF, binary: bool = False) -> VarRef:
        """Declare one variable (readers and hand-built models)."""
        ref = VarRef(family, indices, self._n_vars, lo, hi, binary, owner=self._owner)
        if self._names is None:
            self._names = {v.name for v in self.variables}
        if ref.name in self._names:
            raise ModelError(f"duplicate variable {ref.name}")
        self.add_vars(family, [[indices]] if indices else [], lo=lo, hi=hi, binary=binary)
        self._names.add(ref.name)
        return ref

    def add_rows(self, axes: Sequence, kinds: Sequence) -> int:
        """Append one row per (cell of the grid ``axes``, row kind), cell-major.

        Each kind is ``(tag, sense, rhs, terms)``. The tag is a format fed the
        cell's index tuple; ``sense`` and ``rhs`` are one value for every cell
        or one per cell; each term is ``(columns, coefficients)`` over every
        cell, or ``(columns, coefficients, cells)`` for the listed cells only.
        Repeated variables in a row are merged in term order. Returns the
        first row's position.
        """
        size = math.prod(len(a) for a in axes)
        start, width = self._n_rows, len(kinds)
        if size == 0 or width == 0:
            return start
        codes = [_sense_codes(sense, size) for _, sense, _, _ in kinds]
        cells = np.arange(size)
        for k, (_, _, _, terms) in enumerate(kinds):
            for cols, coeffs, *at in terms:
                at = at[0] if at else cells
                self._coo.append((start + at * width + k, _spread(cols, len(at), np.int64),
                                  _spread(coeffs, len(at), float)))
        self._senses.append(np.stack(codes, axis=1).ravel())
        self._rhs.append(np.stack([_spread(value, size, float) for _, _, value, _ in kinds],
                                  axis=1).ravel())
        self._row_blocks.append(_RowBlock(tuple(axes), tuple(k[0] for k in kinds)))
        self._n_rows += size * width
        self._cache.clear()
        return start

    def add_constraint(self, terms, sense: str, rhs: float, tag: str) -> LinConstraint:
        """Add a row; duplicate variables in ``terms`` are coefficient-merged."""
        merged: dict[int, float] = {}
        by_idx: dict[int, VarRef] = {}
        for ref, coeff in terms:
            if ref.owner is not self._owner:
                raise ModelError(f"variable {ref.name} does not belong to this model")
            merged[ref.idx] = merged.get(ref.idx, 0.0) + float(coeff)
            by_idx[ref.idx] = ref
        cols = sorted(merged)
        row = LinConstraint(terms=tuple((by_idx[i], merged[i]) for i in cols),
                            sense=sense, rhs=float(rhs), tag=tag)
        escaped = tag.replace("{", "{{").replace("}", "}}")
        self.add_rows([], [(escaped, sense, row.rhs,
                            [(np.array(cols, dtype=np.int64), [merged[i] for i in cols],
                              np.zeros(len(cols), dtype=np.int64))])])
        return row

    def add_costs(self, group: str, cols: np.ndarray, costs) -> None:
        """Objective coefficients ``costs`` on the columns ``cols`` in cost group
        ``group``; a group exists once it has a coefficient."""
        cols = np.asarray(cols, dtype=np.int64)
        if not len(cols):
            return
        costs = _spread(costs, len(cols), float)
        if not np.isfinite(costs).all():
            at = int(np.argmin(np.isfinite(costs)))
            raise ModelError(f"objective coefficient for {self.variables[cols[at]].name} "
                             "is not finite")
        self._objective.setdefault(group, []).append((cols, costs))
        self._cache.clear()

    def add_objective(self, group: str, ref: VarRef, cost: float) -> None:
        self.add_costs(group, np.array([ref.idx]), float(cost))

    def count(self, family: str, n: int = 1) -> None:
        self.metadata[family] = self.metadata.get(family, 0) + n

    # -- the compiled arrays ----------------------------------------------------------

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, binary) per column, in column order."""
        if "columns" not in self._cache:
            n = self._n_vars
            lo, hi = np.zeros(n), np.zeros(n)
            binary = np.zeros(n, dtype=bool)
            filled = np.zeros(n, dtype=np.int64)
            for b in self._var_blocks:
                lo[b.pos], hi[b.pos], binary[b.pos] = b.lo, b.hi, b.binary
                filled[b.pos] += 1
            bad = np.flatnonzero(filled != 1)
            if len(bad):  # a reserved column left empty or declared twice
                raise ModelError(f"column {bad[0]} is declared {filled[bad[0]]} times")
            self._cache["columns"] = (lo, hi, binary)
        return self._cache["columns"]

    def _objective_items(self, groups=None) -> tuple[np.ndarray, np.ndarray]:
        """(columns, costs) of the objective terms, group by group in order."""
        chunks = [chunk for g, items in self._objective.items()
                  if groups is None or g in groups for chunk in items]
        if not chunks:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        return (np.concatenate([c for c, _ in chunks]),
                np.concatenate([v for _, v in chunks]))

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self._n_vars)
        np.add.at(c, *self._objective_items())
        return c

    def objective_columns(self) -> np.ndarray:
        """Mask of the columns that carry an objective term (possibly 0.0)."""
        mask = np.zeros(self._n_vars, dtype=bool)
        mask[self._objective_items()[0]] = True
        return mask

    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(self._columns()[2])

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi, _ = self._columns()
        return lo.copy(), hi.copy()

    def constraint_arrays(self) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
        """(A, senses, rhs) with rows in declaration order; a variable repeated
        in a row has its coefficients summed in term order."""
        n_rows, n_vars = self._n_rows, self._n_vars
        if self._coo:
            rows, cols, vals = (np.concatenate(part) for part in zip(*self._coo))
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        merged = 0.0 + vals[first]
        if not first.all():
            # a variable repeated in a row: sum left to right, as the terms came
            starts = np.flatnonzero(first)
            ends = np.append(starts[1:], len(vals))
            for g in np.flatnonzero(ends - starts > 1):
                total = 0.0
                for v in vals[starts[g]:ends[g]].tolist():
                    total += v
                merged[g] = total
            rows, cols = rows[first], cols[first]
        indptr = np.zeros(n_vars + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n_vars), out=indptr[1:])
        A = sp.csc_matrix((merged, rows, indptr), shape=(n_rows, n_vars))
        senses = _SENSES[np.concatenate(self._senses)] if self._senses \
            else np.zeros(0, dtype="<U2")
        rhs = np.concatenate(self._rhs) if self._rhs else np.zeros(0)
        return A, senses, rhs

    # -- families and labels ----------------------------------------------------------

    def family_positions(self, family: str) -> np.ndarray:
        """Columns of a variable family, in column order."""
        key = ("positions", family)
        if key not in self._cache:
            pos = [b.pos for b in self._var_blocks if b.family == family]
            self._cache[key] = np.sort(np.concatenate(pos)) if pos \
                else np.zeros(0, dtype=np.int64)
        return self._cache[key]

    def family_indices(self, family: str) -> list[tuple]:
        """Index tuples of a variable family, aligned with its positions."""
        key = ("indices", family)
        if key not in self._cache:
            blocks = [b for b in self._var_blocks if b.family == family]
            pos = np.concatenate([b.pos for b in blocks]) if blocks else np.zeros(0)
            labels = [ix for b in blocks for ix in _grid_labels(b.axes, b.perm)]
            self._cache[key] = [labels[k] for k in np.argsort(pos, kind="stable").tolist()]
        return self._cache[key]

    def family_map(self, family: str) -> dict[tuple, int]:
        """Index tuple -> column, for one variable family."""
        key = ("map", family)
        if key not in self._cache:
            self._cache[key] = dict(zip(self.family_indices(family),
                                        self.family_positions(family).tolist()))
        return self._cache[key]

    def _var_refs(self) -> list[VarRef]:
        if "vars" not in self._cache:
            refs: list = [None] * self._n_vars
            for b in self._var_blocks:
                for j, ix, lo, hi in zip(b.pos.tolist(), _grid_labels(b.axes, b.perm),
                                         b.lo.tolist(), b.hi.tolist()):
                    refs[j] = VarRef(b.family, ix, j, lo, hi, b.binary, owner=self._owner)
            self._cache["vars"] = refs
        return self._cache["vars"]

    def row_tags(self) -> list[str]:
        if "tags" not in self._cache:
            self._cache["tags"] = [tag.format(*ix) for b in self._row_blocks
                                   for ix in _grid_labels(b.axes) for tag in b.tags]
        return self._cache["tags"]

    def _row_items(self) -> list[LinConstraint]:
        if "rows" not in self._cache:
            A, senses, rhs = self.constraint_arrays()
            A = A.tocsr()
            refs = self._var_refs()
            cols, vals = A.indices.tolist(), A.data.tolist()
            bounds = A.indptr.tolist()
            self._cache["rows"] = [
                LinConstraint(tuple(zip([refs[j] for j in cols[a:b]], vals[a:b])),
                              sense, value, tag)
                for a, b, sense, value, tag in zip(bounds, bounds[1:], senses.tolist(),
                                                   rhs.tolist(), self.row_tags())]
        return self._cache["rows"]

    @property
    def objective(self) -> list[tuple[VarRef, float]]:
        refs = self._var_refs()
        cols, costs = self._objective_items()
        return [(refs[j], c) for j, c in zip(cols.tolist(), costs.tolist())]

    def cost_groups(self) -> list[str]:
        """Names of the objective's cost groups, in declaration order."""
        return list(self._objective)

    # -- evaluation -------------------------------------------------------------------

    def group_cost(self, values: np.ndarray, group: str) -> float:
        cols, costs = self._objective_items((group,))
        # the builtin sum runs left to right, term by term
        return float(sum((costs * values[cols]).tolist()))


def row_residuals(A: sp.csc_matrix, senses, rhs: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Signed violation per row of compiled arrays (0 when satisfied)."""
    senses = np.asarray(senses, dtype="<U2")
    diff = A @ values - rhs
    return np.where(senses == EQUAL, diff,
                    np.where(senses == LESS_EQUAL, np.maximum(diff, 0.0),
                             np.minimum(diff, 0.0)))
