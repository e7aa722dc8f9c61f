"""Bounded-variable primal simplex (revised, product-form basis inverse).

Test oracle only: ``brute_force_milp`` completes each binary assignment with
this LP, so the reference optimum shares no code path with HiGHS, the solver
the package itself uses.

Standard form: the m rows get one logical column each (``A x + s = b``) whose
bounds encode the row sense, so any basis plus nonbasic-at-bound assignment is
a valid starting point and warm starts after bound changes need no artificial
variables. Phase 1 minimizes the total bound violation of the basic variables
(piecewise-linear composite objective); phase 2 is the usual bounded-variable
pricing with a Bland's-rule fallback once the objective stalls.

The basis inverse is represented as a sparse LU factorization plus a short
product-form eta file, refreshed every few dozen pivots; solves are two
triangular solves plus O(etas * m) updates, which keeps desk-scale models
(a few thousand rows) well under a millisecond per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gridxpand.milp import EQUAL, GREATER_EQUAL, LESS_EQUAL
from gridxpand.solver import NumericalBreakdown

INF = float("inf")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
STALL_LIMIT = 60  # non-improving pivots before switching to Bland's rule
REFRESH_EVERY = 80

AT_LO, AT_HI, NB_FREE, BASIC = 0, 1, 2, 3


@dataclass
class WarmBasis:
    """Restartable basis snapshot (column indices include logicals)."""

    basis: np.ndarray
    at_upper: np.ndarray


@dataclass
class LpResult:
    status: str
    objective: float
    x: np.ndarray  # structural variables only
    basis: WarmBasis | None
    iterations: int
    infeasibility: float = 0.0  # phase-1 residual when status == infeasible


def _logical_bounds(senses: list[str]) -> tuple[np.ndarray, np.ndarray]:
    lo = np.zeros(len(senses))
    hi = np.zeros(len(senses))
    for i, sense in enumerate(senses):
        if sense == LESS_EQUAL:
            lo[i], hi[i] = 0.0, INF
        elif sense == GREATER_EQUAL:
            lo[i], hi[i] = -INF, 0.0
        elif sense == EQUAL:
            lo[i], hi[i] = 0.0, 0.0
        else:
            raise ValueError(f"bad sense {sense!r}")
    return lo, hi


class _Simplex:
    def __init__(self, A: sp.csc_matrix, senses: list[str], b: np.ndarray,
                 c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        m, n = A.shape
        self.m, self.n = m, n
        slo, shi = _logical_bounds(senses)
        self.A = sp.hstack([A, sp.eye(m, format="csc")], format="csc") if m else A.tocsc()
        self.AT = self.A.T.tocsr()
        self.b = np.asarray(b, dtype=float)
        self.c = np.concatenate([np.asarray(c, dtype=float), np.zeros(m)])
        self.lo = np.concatenate([np.asarray(lo, dtype=float), slo])
        self.hi = np.concatenate([np.asarray(hi, dtype=float), shi])
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)) or np.any(np.isnan(self.b)):
            raise ValueError("NaN in bounds or right-hand side")
        if np.any(self.lo > self.hi):
            bad = int(np.argmax(self.lo > self.hi))
            raise ValueError(f"column {bad}: lower bound exceeds upper bound")
        self.ncols = n + m
        # raw CSC arrays for fast single-column extraction
        self._ap = self.A.indptr
        self._ai = self.A.indices
        self._ax = self.A.data
        if m and self.A.nnz:
            self.col_scale = np.maximum(1.0, abs(self.A).max(axis=0).toarray().ravel())
        else:
            self.col_scale = np.ones(self.ncols)
        self.iterations = 0
        self.bland = False
        self.stall = 0
        self.last_obj = INF
        # product-form inverse state
        self._lu = None
        self._etas: list[tuple[int, np.ndarray, float]] = []

    # -- basis inverse -------------------------------------------------------

    def _refactor(self) -> None:
        self._etas = []
        if self.m == 0:
            self._lu = None
            return
        B = self.A[:, self.basis].tocsc()
        try:
            self._lu = spla.splu(B)
        except RuntimeError as exc:
            raise NumericalBreakdown("singular basis during refactorization",
                                     {"basis_cols": self.basis[:8].tolist()}) from exc
        self._recompute_basics()

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v through the LU factors and the eta file."""
        if self.m == 0:
            return v
        x = self._lu.solve(v)
        for r, w, piv in self._etas:
            t = x[r] / piv
            if t != 0.0:
                x -= w * t
            x[r] = t
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """B^-T v (row prices)."""
        x = v.copy()
        for r, w, piv in reversed(self._etas):
            x[r] = (x[r] - (w @ x - w[r] * x[r])) / piv
        return self._lu.solve(x, trans="T")

    def _recompute_basics(self) -> None:
        if self.m == 0:
            return
        xn = self.x.copy()
        xn[self.basis] = 0.0
        rhs = self.b - self.A @ xn
        self.x[self.basis] = self.ftran(rhs)

    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        a, z = self._ap[j], self._ap[j + 1]
        col[self._ai[a:z]] = self._ax[a:z]
        return self.ftran(col)

    # -- start points ----------------------------------------------------------

    def start_cold(self) -> None:
        self.basis = np.arange(self.n, self.n + self.m)
        self.state = np.full(self.ncols, AT_LO, dtype=np.int8)
        self.x = np.zeros(self.ncols)
        for j in range(self.ncols):
            if self.lo[j] == -INF and self.hi[j] == INF:
                self.state[j] = NB_FREE
                self.x[j] = 0.0
            elif self.lo[j] == -INF:
                self.state[j] = AT_HI
                self.x[j] = self.hi[j]
            elif self.hi[j] == INF:
                self.state[j] = AT_LO
                self.x[j] = self.lo[j]
            else:
                near_hi = abs(self.hi[j]) < abs(self.lo[j])
                self.state[j] = AT_HI if near_hi else AT_LO
                self.x[j] = self.hi[j] if near_hi else self.lo[j]
        self.state[self.basis] = BASIC
        self._refactor()

    def start_warm(self, warm: WarmBasis) -> None:
        basis = np.asarray(warm.basis, dtype=int)
        if basis.shape != (self.m,) or len(np.unique(basis)) != self.m:
            raise ValueError("warm basis does not match model shape")
        self.basis = basis.copy()
        self.state = np.full(self.ncols, AT_LO, dtype=np.int8)
        self.x = np.zeros(self.ncols)
        at_upper = np.asarray(warm.at_upper, dtype=bool)
        for j in range(self.ncols):
            if self.lo[j] == -INF and self.hi[j] == INF:
                self.state[j] = NB_FREE
            elif at_upper[j] and self.hi[j] < INF:
                self.state[j] = AT_HI
                self.x[j] = self.hi[j]
            elif self.lo[j] > -INF:
                self.state[j] = AT_LO
                self.x[j] = self.lo[j]
            else:
                self.state[j] = AT_HI
                self.x[j] = self.hi[j]
        self.state[self.basis] = BASIC
        self._refactor()

    # -- infeasibility ---------------------------------------------------------

    def _basic_violation(self) -> tuple[np.ndarray, float]:
        xb = self.x[self.basis]
        lob = self.lo[self.basis]
        hib = self.hi[self.basis]
        scale = np.maximum(1.0, np.abs(xb))
        below = xb < lob - FEAS_TOL * scale
        above = xb > hib + FEAS_TOL * scale
        grad = np.where(below, -1.0, np.where(above, 1.0, 0.0))
        total = float(np.sum(np.where(below, lob - xb, 0.0)) +
                      np.sum(np.where(above, xb - hib, 0.0)))
        return grad, total

    # -- pricing ----------------------------------------------------------------

    def _reduced_costs(self, cb_row: np.ndarray, cost: np.ndarray | None) -> np.ndarray:
        if self.m == 0:
            self._ymax = 0.0
            return cost.copy() if cost is not None else np.zeros(self.ncols)
        y = self.btran(cb_row)
        z = -(self.AT @ y)
        if cost is not None:
            z += cost
        self._ymax = float(np.max(np.abs(y))) if len(y) else 0.0
        return z

    def _entering(self, z: np.ndarray, cost: np.ndarray | None) -> tuple[int, int] | None:
        """Most-improving nonbasic column and its move direction (+1/-1)."""
        base = 1e-9 * np.maximum(1.0, np.abs(cost)) if cost is not None else \
            np.full(self.ncols, 1e-9)
        dtol = base + 1e-12 * self._ymax * self.col_scale
        movable = self.hi - self.lo > 0
        can_up = ((self.state == AT_LO) | (self.state == NB_FREE)) & movable & (z < -dtol)
        can_dn = ((self.state == AT_HI) | (self.state == NB_FREE)) & movable & (z > dtol)
        if self.bland:
            cands = np.nonzero(can_up | can_dn)[0]
            if len(cands) == 0:
                return None
            j = int(cands[0])
            return j, +1 if can_up[j] else -1
        score = np.where(can_up, -z, np.where(can_dn, z, -INF))
        j = int(np.argmax(score))
        if score[j] <= 0:
            return None
        return j, +1 if can_up[j] else -1

    # -- ratio tests ---------------------------------------------------------

    def _ratio_phase2(self, q: int, direction: int, w: np.ndarray,
                      ) -> tuple[float, int | None]:
        """Max step for entering q; returns (t, blocking basis position or None
        for a bound flip); t = inf means unbounded."""
        u = -direction * w  # basic variables move by u * t
        xb = self.x[self.basis]
        lob = self.lo[self.basis]
        hib = self.hi[self.basis]
        wtol = PIVOT_TOL * ((1.0 + np.max(np.abs(w))) if len(w) else 1.0)
        t = np.full(self.m, INF)
        up = u > wtol
        dn = u < -wtol
        with np.errstate(invalid="ignore"):
            t[up] = (hib[up] - xb[up]) / u[up]
            t[dn] = (lob[dn] - xb[dn]) / u[dn]
        t[np.isnan(t)] = INF
        np.clip(t, 0.0, None, out=t)
        t_flip = self.hi[q] - self.lo[q]
        tmin = float(np.min(t)) if self.m else INF
        if t_flip <= tmin:
            if not np.isfinite(t_flip):
                return INF, None
            return t_flip, None
        if not np.isfinite(tmin):
            return INF, None
        ties = np.nonzero(t <= tmin + 1e-9 * (1.0 + tmin))[0]
        if self.bland:
            r = int(ties[np.argmin(self.basis[ties])])
        else:
            r = int(ties[np.argmax(np.abs(u[ties]))])
        return tmin, r

    def _ratio_phase1(self, q: int, direction: int, w: np.ndarray,
                      ) -> tuple[float, int | None]:
        """Phase-1 step: infeasible basics block at the bound they violate."""
        u = -direction * w
        xb = self.x[self.basis]
        lob = self.lo[self.basis]
        hib = self.hi[self.basis]
        scale = np.maximum(1.0, np.abs(xb))
        below = xb < lob - FEAS_TOL * scale
        above = xb > hib + FEAS_TOL * scale
        feas = ~(below | above)
        wtol = PIVOT_TOL * ((1.0 + np.max(np.abs(w))) if len(w) else 1.0)
        t = np.full(self.m, INF)
        up = u > wtol
        dn = u < -wtol
        sel = feas & up & np.isfinite(hib)
        t[sel] = (hib[sel] - xb[sel]) / u[sel]
        sel = feas & dn & np.isfinite(lob)
        t[sel] = (lob[sel] - xb[sel]) / u[sel]
        sel = below & up
        t[sel] = (lob[sel] - xb[sel]) / u[sel]
        sel = above & dn
        t[sel] = (hib[sel] - xb[sel]) / u[sel]
        np.clip(t, 0.0, None, out=t)
        t_flip = self.hi[q] - self.lo[q]
        tmin = float(np.min(t)) if self.m else INF
        if t_flip <= tmin:
            return (t_flip, None) if np.isfinite(t_flip) else (INF, None)
        if not np.isfinite(tmin):
            return INF, None
        ties = np.nonzero(t <= tmin + 1e-9 * (1.0 + tmin))[0]
        if self.bland:
            r = int(ties[np.argmin(self.basis[ties])])
        else:
            r = int(ties[np.argmax(np.abs(u[ties]))])
        return tmin, r

    # -- pivoting ------------------------------------------------------------

    def _apply_step(self, q: int, direction: int, t: float, w: np.ndarray,
                    r: int | None) -> None:
        if t > 0.0:
            self.x[self.basis] -= direction * t * w
            self.x[q] += direction * t
        if r is None:  # bound flip
            self.state[q] = AT_HI if direction > 0 else AT_LO
            self.x[q] = self.hi[q] if direction > 0 else self.lo[q]
            return
        leaving = int(self.basis[r])
        xl = self.x[leaving]
        lo_l, hi_l = self.lo[leaving], self.hi[leaving]
        # snap the leaving variable onto the bound it hit
        if abs(xl - lo_l) <= abs(xl - hi_l):
            self.state[leaving] = AT_LO
            self.x[leaving] = lo_l
        else:
            self.state[leaving] = AT_HI
            self.x[leaving] = hi_l
        self.basis[r] = q
        self.state[q] = BASIC
        piv = w[r]
        if abs(piv) < PIVOT_TOL:
            raise NumericalBreakdown("vanishing pivot", {"column": q, "pivot": float(piv)})
        self._etas.append((r, w.copy(), float(piv)))
        if len(self._etas) >= REFRESH_EVERY:
            self._refactor()

    # -- driver ---------------------------------------------------------------

    def _note_progress(self, value: float) -> None:
        if value < self.last_obj - 1e-12 * (1.0 + abs(self.last_obj)):
            self.stall = 0
            self.bland = False
        else:
            self.stall += 1
            if self.stall >= STALL_LIMIT:
                self.bland = True
        self.last_obj = value

    def run_phase1(self, max_iter: int) -> float:
        self.last_obj, self.stall, self.bland = INF, 0, False
        while True:
            grad, total = self._basic_violation()
            if total <= FEAS_TOL * (1.0 + abs(self.b).sum()):
                return 0.0
            self._note_progress(total)
            z = self._reduced_costs(grad, None)
            pick = self._entering(z, None)
            if pick is None:
                return total
            q, direction = pick
            w = self._column(q)
            t, r = self._ratio_phase1(q, direction, w)
            if not np.isfinite(t):
                raise NumericalBreakdown("phase-1 ray with positive infeasibility",
                                         {"column": q})
            self._apply_step(q, direction, t, w, r)
            self.iterations += 1
            if self.iterations > max_iter:
                raise NumericalBreakdown("iteration limit in phase 1",
                                         {"iterations": self.iterations})

    def run_phase2(self, max_iter: int) -> str:
        self.last_obj, self.stall, self.bland = INF, 0, False
        while True:
            z = self._reduced_costs(self.c[self.basis], self.c)
            pick = self._entering(z, self.c)
            if pick is None:
                return OPTIMAL
            self._note_progress(float(self.c @ self.x))
            q, direction = pick
            w = self._column(q)
            t, r = self._ratio_phase2(q, direction, w)
            if not np.isfinite(t):
                return UNBOUNDED
            self._apply_step(q, direction, t, w, r)
            self.iterations += 1
            if self.iterations > max_iter:
                raise NumericalBreakdown("iteration limit in phase 2",
                                         {"iterations": self.iterations})

    def verify(self) -> float:
        """Refactor and return the worst primal residual (rows and bounds)."""
        self._refactor()
        if self.m:
            resid = self.A @ self.x - self.b
            row_err = float(np.max(np.abs(resid)))
        else:
            row_err = 0.0
        lo_fin = np.isfinite(self.lo)
        hi_fin = np.isfinite(self.hi)
        lo_err = float(np.max(np.maximum(self.lo - self.x, 0.0)[lo_fin])) if lo_fin.any() else 0.0
        hi_err = float(np.max(np.maximum(self.x - self.hi, 0.0)[hi_fin])) if hi_fin.any() else 0.0
        return max(row_err, lo_err, hi_err)


def solve_lp_arrays(A: sp.csc_matrix, senses: list[str], b: np.ndarray,
                    c: np.ndarray, lo: np.ndarray, hi: np.ndarray, *,
                    warm: WarmBasis | None = None,
                    max_iter: int | None = None) -> LpResult:
    """Solve min c.x s.t. A x (<=,==,>=) b, lo <= x <= hi.

    Never returns a wrong "optimal": the claimed solution is re-verified from
    a fresh factorization and the solve is retried or aborted on residuals.
    """
    m, n = A.shape
    if max_iter is None:
        max_iter = 50 * (m + n) + 10_000
    sx = _Simplex(A.tocsc(), senses, b, c, lo, hi)
    if warm is not None and len(warm.at_upper) == sx.ncols:
        try:
            sx.start_warm(warm)
        except (NumericalBreakdown, ValueError):
            sx.start_cold()
    else:
        sx.start_cold()

    scale_b = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    accept_tol = max(1e-7, 1e-9 * scale_b)
    resid = 0.0
    for attempt in range(3):
        infeas = sx.run_phase1(max_iter)
        if infeas > 0.0:
            return LpResult(status=INFEASIBLE, objective=INF,
                            x=sx.x[:n].copy(),
                            basis=WarmBasis(sx.basis.copy(), sx.state == AT_HI),
                            iterations=sx.iterations, infeasibility=infeas)
        status = sx.run_phase2(max_iter)
        if status == UNBOUNDED:
            return LpResult(status=UNBOUNDED, objective=-INF, x=sx.x[:n].copy(),
                            basis=None, iterations=sx.iterations)
        resid = sx.verify()
        if resid <= accept_tol:
            return LpResult(
                status=OPTIMAL,
                objective=float(sx.c @ sx.x),
                x=sx.x[:n].copy(),
                basis=WarmBasis(sx.basis.copy(), sx.state == AT_HI),
                iterations=sx.iterations,
            )
        # residual too large: iterate again from the refreshed factorization
    cond = 0.0
    if m:
        B = sx.A[:, sx.basis]
        op = spla.LinearOperator((m, m), matvec=sx._lu.solve)
        cond = float(spla.onenormest(B)) * float(spla.onenormest(op))
    raise NumericalBreakdown(
        "primal residual would not settle below tolerance",
        {"residual": resid, "basis_condition_estimate": cond},
    )
