"""Correctness gate for one study: run outside every timed region.

A study is a paired with/without-CS comparison: one fleet row, one
``assess`` call, or one ``compare_siting`` entry. Each check returns a list
of problems; an empty list means the study passed.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

RESOLVED_STATUSES = ("optimal", "gap_limit")
VERIFY_TOL = 1e-6
BREAKDOWN_TOL_USD = 0.01
IDENTITY_TOL_USD = 1e-6
HIGHS_GAP = 1e-7
HIGHS_TIME_LIMIT_S = 60.0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def highs_objective(model) -> float:
    """Optimum of the model's compiled arrays by scipy's HiGHS MILP solver."""
    A, senses, b = model.constraint_arrays()
    senses = np.asarray(senses)
    lo = np.where(senses == ">=", b, -np.inf)
    lo = np.where(senses == "==", b, lo)
    hi = np.where(senses == "<=", b, np.inf)
    hi = np.where(senses == "==", b, hi)
    var_lo, var_hi = model.bounds_arrays()
    integrality = np.array([1 if v.binary else 0 for v in model.variables])
    res = milp(c=model.objective_vector(), constraints=LinearConstraint(A, lo, hi),
               integrality=integrality, bounds=Bounds(var_lo, var_hi),
               options={"mip_rel_gap": HIGHS_GAP, "time_limit": HIGHS_TIME_LIMIT_S})
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


def check_run(label: str, run, gap: float) -> list[str]:
    """One side of the study: resolved, solver status, HiGHS agreement, replay."""
    problems = []
    sol = run.solution
    if run.status != "resolved" or not sol.resolved:
        problems.append(f"{label}: plan is {run.status}")
    if sol.status not in RESOLVED_STATUSES:
        problems.append(f"{label}: solver status {sol.status}")
        return problems
    try:
        ref = highs_objective(run.model)
    except RuntimeError as exc:
        problems.append(f"{label}: {exc}")
    else:
        tol = (gap + HIGHS_GAP) * max(abs(ref), abs(sol.objective), 1.0) + 1e-6
        if abs(sol.objective - ref) > tol:
            problems.append(f"{label}: objective {sol.objective!r} but HiGHS {ref!r} "
                            f"(tolerance {tol:.3g})")
    if not run.verification_residual <= VERIFY_TOL:
        problems.append(f"{label}: verification residual {run.verification_residual:.3g}")
    if run.verification_violations:
        problems.append(f"{label}: {len(run.verification_violations)} verification "
                        "violations")
    return problems


def check_report(report) -> list[str]:
    """Arithmetic identities every report must satisfy."""
    problems = []
    if abs(report.c_itgr - (report.c_with_cs - report.c_without_cs)) > IDENTITY_TOL_USD:
        problems.append(f"c_itgr {report.c_itgr!r} != c_with - c_without "
                        f"({report.c_with_cs!r} - {report.c_without_cs!r})")
    net = sum(new - replaced for new, replaced in report.breakdown.values())
    if abs(net - report.c_itgr) > BREAKDOWN_TOL_USD:
        problems.append(f"breakdown new - replaced = {net!r}, c_itgr {report.c_itgr!r}")
    return problems


def check_study(report, with_run, without_run, gap: float) -> list[str]:
    if report is None or with_run is None or without_run is None:
        return ["study produced no captured result"]
    return (check_report(report) + check_run("with-CS", with_run, gap)
            + check_run("without-CS", without_run, gap))


def check_reference(key: str, report, expected: dict | None, gap: float) -> list[str]:
    """Classification and c_itgr against the committed answer for the default seed."""
    if expected is None:
        return [f"no reference answer for {key}"]
    problems = []
    if report.classification != expected["classification"]:
        problems.append(f"classification {report.classification} != reference "
                        f"{expected['classification']}")
    scale = max(abs(report.c_with_cs), abs(report.c_without_cs), 1.0)
    if abs(report.c_itgr - expected["c_itgr"]) > gap * scale + BREAKDOWN_TOL_USD:
        problems.append(f"c_itgr {report.c_itgr!r} != reference {expected['c_itgr']!r}")
    return problems


def load_reference(workload: str) -> dict:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload, {})


def save_reference(workload: str, answers: dict) -> None:
    doc = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            doc = json.load(fh)
    doc[workload] = answers
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
