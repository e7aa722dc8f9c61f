"""Language-neutral MILP representation: variables, linear rows, objective."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

INF = float("inf")

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="


class ModelError(ValueError):
    """Ill-formed model construction (unknown variable, bad bounds, ...)."""


@dataclass(frozen=True)
class VarRef:
    """Handle to a declared decision variable."""

    family: str
    indices: tuple
    idx: int  # position in the owning model's variable list
    lo: float
    hi: float
    binary: bool = False

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


@dataclass
class MilpModel:
    """Minimization model; immutable by convention once built."""

    name: str = "model"
    variables: list[VarRef] = field(default_factory=list)
    constraints: list[LinConstraint] = field(default_factory=list)
    # objective split into reportable cost groups (storage, line, ...)
    objective_groups: dict[str, list[tuple[VarRef, float]]] = field(default_factory=dict)
    # constraint-family instance counts, including families realized as bounds
    metadata: dict[str, int] = field(default_factory=dict)
    _names: set = field(default_factory=set, repr=False)

    def add_var(self, family: str, indices: tuple = (), *, lo: float = 0.0,
                hi: float = INF, binary: bool = False) -> VarRef:
        if binary and not (lo >= 0.0 and hi <= 1.0):
            raise ModelError(f"binary variable {family}{indices} must have bounds within [0, 1]")
        if lo > hi:
            raise ModelError(f"variable {family}{indices}: lo {lo} > hi {hi}")
        ref = VarRef(family=family, indices=indices, idx=len(self.variables),
                     lo=lo, hi=hi, binary=binary)
        if ref.name in self._names:
            raise ModelError(f"duplicate variable {ref.name}")
        self._names.add(ref.name)
        self.variables.append(ref)
        return ref

    def add_constraint(self, terms, sense: str, rhs: float, tag: str) -> LinConstraint:
        """Add a row; duplicate variables in ``terms`` are coefficient-merged."""
        if sense not in (LESS_EQUAL, EQUAL, GREATER_EQUAL):
            raise ModelError(f"bad sense {sense!r}")
        merged: dict[int, float] = {}
        by_idx: dict[int, VarRef] = {}
        for ref, coeff in terms:
            if self.variables[ref.idx] is not ref:
                raise ModelError(f"variable {ref.name} does not belong to this model")
            merged[ref.idx] = merged.get(ref.idx, 0.0) + float(coeff)
            by_idx[ref.idx] = ref
        row = LinConstraint(
            terms=tuple((by_idx[i], merged[i]) for i in sorted(merged)),
            sense=sense, rhs=float(rhs), tag=tag,
        )
        self.constraints.append(row)
        return row

    def add_objective(self, group: str, ref: VarRef, cost: float) -> None:
        if not np.isfinite(cost):
            raise ModelError(f"objective coefficient for {ref.name} is not finite")
        self.objective_groups.setdefault(group, []).append((ref, float(cost)))

    def count(self, family: str, n: int = 1) -> None:
        self.metadata[family] = self.metadata.get(family, 0) + n

    @property
    def objective(self) -> list[tuple[VarRef, float]]:
        return [item for group in self.objective_groups.values() for item in group]

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.variables))
        for ref, cost in self.objective:
            c[ref.idx] += cost
        return c

    def binary_indices(self) -> np.ndarray:
        return np.array([v.idx for v in self.variables if v.binary], dtype=int)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([v.lo for v in self.variables])
        hi = np.array([v.hi for v in self.variables])
        return lo, hi

    def constraint_arrays(self) -> tuple[sp.csc_matrix, list[str], np.ndarray]:
        """(A, senses, rhs) with rows in declaration order."""
        rows, cols, vals = [], [], []
        senses, rhs = [], []
        for i, con in enumerate(self.constraints):
            for ref, coeff in con.terms:
                rows.append(i)
                cols.append(ref.idx)
                vals.append(coeff)
            senses.append(con.sense)
            rhs.append(con.rhs)
        A = sp.csc_matrix(
            (vals, (rows, cols)),
            shape=(len(self.constraints), len(self.variables)),
        )
        return A, senses, np.array(rhs)

    def group_cost(self, values: np.ndarray, group: str) -> float:
        return float(sum(cost * values[ref.idx]
                         for ref, cost in self.objective_groups.get(group, [])))

    def evaluate_objective(self, values: np.ndarray) -> float:
        return float(sum(cost * values[ref.idx] for ref, cost in self.objective))

    def constraint_residuals(self, values: np.ndarray) -> np.ndarray:
        """Signed violation per row (0 when satisfied)."""
        return row_residuals(*self.constraint_arrays(), values)


def row_residuals(A: sp.csc_matrix, senses: list[str], rhs: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Signed violation per row of compiled arrays (0 when satisfied)."""
    senses = np.asarray(senses, dtype="<U2")
    diff = A @ values - rhs
    return np.where(senses == EQUAL, diff,
                    np.where(senses == LESS_EQUAL, np.maximum(diff, 0.0),
                             np.minimum(diff, 0.0)))
