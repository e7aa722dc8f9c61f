"""LP/MILP solving with HiGHS (``scipy.optimize.milp``) on the compiled arrays.

HiGHS gets the relative gap and the node limit and never a time limit, so no
result depends on wall-clock time. Before a solution is accepted it is checked
against the model the way a simplex re-verifies its own basis: row residuals
and variable bounds within ``accept_tol``, binaries within ``INT_TOL``. A
solution that fails raises ``NumericalBreakdown`` instead of being reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .milp import GREATER_EQUAL, LESS_EQUAL, MilpModel, VarRef, row_residuals

DEFAULT_GAP = 1e-4
DEFAULT_NODE_LIMIT = 10 ** 6
INT_TOL = 1e-6

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_GAP_LIMIT = "gap_limit"
STATUS_ITERATION_LIMIT = "iteration_limit"

# scipy.optimize.milp status codes
_HIGHS_OPTIMAL, _HIGHS_LIMIT, _HIGHS_INFEASIBLE, _HIGHS_UNBOUNDED = 0, 1, 2, 3


class NumericalBreakdown(RuntimeError):
    """Solve abandoned rather than risk reporting a wrong optimum."""

    def __init__(self, msg: str, diagnostics: dict | None = None):
        super().__init__(msg if not diagnostics else f"{msg} ({diagnostics})")
        self.diagnostics = diagnostics or {}


@dataclass
class Solution:
    """Solved model: investment decisions, dispatch, objective, solve stats.

    ``x`` holds one value per column of ``model``; the family lookups go
    through the model's per-family index. ``status`` meanings: ``optimal``
    proves the optimum (zero remaining gap); ``gap_limit`` stops once the
    proven gap falls under a nonzero target; ``iteration_limit`` means the
    node budget ran out.
    """

    status: str
    objective: float
    x: np.ndarray | None = None  # None when the solve found no solution
    model: MilpModel | None = None
    mip_gap: float = 0.0
    node_count: int = 0
    wall_time: float = 0.0
    cost_breakdown: dict[str, float] = field(default_factory=dict)
    resolved: bool = True  # cleared by the expansion loop on residual slack

    @property
    def values(self) -> dict[VarRef, float]:
        """Value per variable, built on read."""
        if self.x is None:
            return {}
        return dict(zip(self.model.variables, self.x.tolist()))

    def value(self, ref: VarRef) -> float:
        return 0.0 if self.x is None else float(self.x[ref.idx])

    def lookup(self, family: str, indices: tuple) -> float:
        """The value of ``family[indices]`` (0.0 without a solution)."""
        if self.x is None:
            return 0.0
        return float(self.x[self.model.family_map(family)[indices]])

    def family_values(self, family: str) -> dict[tuple, float]:
        if self.x is None:
            return {}
        return dict(zip(self.model.family_indices(family),
                        self.x[self.model.family_positions(family)].tolist()))

    def family_total(self, family: str) -> float:
        if self.x is None:
            return 0
        # the builtin sum runs left to right in column order
        return sum(self.x[self.model.family_positions(family)].tolist())


class _Compiled:
    def __init__(self, model: MilpModel):
        self.model = model
        self.A, senses, self.b = model.constraint_arrays()
        self.senses = np.asarray(senses, dtype="<U2")
        self.c = model.objective_vector()
        self.lo, self.hi = model.bounds_arrays()
        self.binaries = model.binary_indices()
        # the test-oracle simplex's feasibility tolerance, floored at 1e-7: HiGHS
        # meets its own 1e-7 on the scaled model, so a bound can be off by
        # slightly more than 1e-7 once unscaled
        self.accept_tol = max(1e-7, 1e-9 * float(np.abs(self.b).sum()))

    def check(self, x: np.ndarray) -> None:
        """Raise ``NumericalBreakdown`` unless ``x`` satisfies every row and
        bound within ``accept_tol`` and every binary within ``INT_TOL``."""
        rows = np.abs(row_residuals(self.A, self.senses, self.b, x))
        bounds = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        frac = np.zeros(len(x))
        frac[self.binaries] = np.abs(x[self.binaries] - np.round(x[self.binaries]))
        if (np.all(np.isfinite(x)) and rows.max(initial=0.0) <= self.accept_tol
                and bounds.max(initial=0.0) <= self.accept_tol
                and frac.max(initial=0.0) <= INT_TOL):
            return
        tags = self.model.row_tags()
        names = [ref.name for ref in self.model.variables]
        diagnostics = {"accept_tol": self.accept_tol, "int_tol": INT_TOL}
        for key, errors, labels in (("row_residual", rows, tags),
                                    ("bound_violation", bounds, names),
                                    ("integrality", frac, names)):
            if len(errors):
                worst = int(np.argmax(errors))
                diagnostics[key] = (float(errors[worst]), labels[worst])
        raise NumericalBreakdown("HiGHS solution fails the acceptance check", diagnostics)


def _package(model: MilpModel, status: str, objective: float, x: np.ndarray | None,
             *, mip_gap: float = 0.0, nodes: int = 0, wall: float = 0.0) -> Solution:
    breakdown = {} if x is None else {group: model.group_cost(x, group)
                                      for group in model.cost_groups()}
    return Solution(status=status, objective=objective, x=x, model=model,
                    mip_gap=mip_gap, node_count=nodes, wall_time=wall,
                    cost_breakdown=breakdown)


def _solve(model: MilpModel, *, integral: bool, options: dict) -> Solution:
    # imported here: scipy.optimize would add about 60% to `import gridxpand`
    from scipy.optimize import Bounds, LinearConstraint, milp

    t0 = time.perf_counter()
    comp = _Compiled(model)
    row_lo = np.where(comp.senses == LESS_EQUAL, -np.inf, comp.b)
    row_hi = np.where(comp.senses == GREATER_EQUAL, np.inf, comp.b)
    integrality = np.zeros(len(comp.c))
    if integral:
        integrality[comp.binaries] = 1
    res = milp(c=comp.c, constraints=LinearConstraint(comp.A, row_lo, row_hi),
               integrality=integrality, bounds=Bounds(comp.lo, comp.hi),
               options=options)
    wall = time.perf_counter() - t0
    # HiGHS counts 0 nodes when presolve settles the model; the root still counts
    nodes = max(1, res.get("mip_node_count") or 0)
    if res.status == _HIGHS_INFEASIBLE:
        return _package(model, STATUS_INFEASIBLE, float("inf"), None, nodes=nodes, wall=wall)
    if res.status == _HIGHS_UNBOUNDED:
        raise NumericalBreakdown("HiGHS reports the model unbounded; planning models "
                                 "must be bounded", {"message": res.message})
    if res.status not in (_HIGHS_OPTIMAL, _HIGHS_LIMIT):
        raise NumericalBreakdown("HiGHS did not finish", {"status": int(res.status),
                                                          "message": res.message})
    if res.x is None:  # the node limit cut the search before the first incumbent
        return _package(model, STATUS_ITERATION_LIMIT, float("inf"), None,
                        nodes=nodes, wall=wall)
    x = np.asarray(res.x, dtype=float)
    comp.check(x)
    gap = float(res.get("mip_gap") or 0.0)
    if res.status == _HIGHS_LIMIT:
        status = STATUS_ITERATION_LIMIT
    else:
        status = STATUS_GAP_LIMIT if gap > 0 else STATUS_OPTIMAL
    return _package(model, status, float(comp.c @ x), x, mip_gap=gap, nodes=nodes,
                    wall=wall)


def solve_lp(model: MilpModel) -> Solution:
    """Solve the model with integrality relaxed."""
    return _solve(model, integral=False, options={})


def solve_milp(model: MilpModel, *, gap: float = DEFAULT_GAP,
               node_limit: int = DEFAULT_NODE_LIMIT) -> Solution:
    """Solve the model with its binaries integral, to relative gap ``gap``."""
    if gap < 0:
        raise ValueError("gap must be >= 0")
    return _solve(model, integral=True,
                  options={"mip_rel_gap": gap, "node_limit": node_limit})
