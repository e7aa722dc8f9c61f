"""LP/MILP solver: oracle equality, statuses, determinism, acceptance check."""

import numpy as np
import pytest

from gridxpand.milp import MilpModel, ModelError
from gridxpand.solver import NumericalBreakdown, solve_lp, solve_milp

from conftest import brute_force_milp, scipy_milp_objective


def toy_upgrade_model(y_lo=0):
    # one binary upgrade (cost 5) expands capacity enough to avoid slack at 100
    m = MilpModel(name="toy")
    x = m.add_var("x", lo=0, hi=10.0)
    y = m.add_var("y", binary=True, lo=y_lo, hi=1)
    s = m.add_var("s", lo=0)
    m.add_constraint([(x, 1.0), (y, -6.0)], "<=", 4.0, tag="cap")
    m.add_constraint([(x, 1.0), (s, 1.0)], ">=", 9.0, tag="demand")
    m.add_objective("invest", y, 5.0)
    m.add_objective("slack", s, 100.0)
    return m, x, y, s


def test_lp_simple_lower_bound():
    m = MilpModel()
    x = m.add_var("x", lo=-100.0, hi=100.0)
    m.add_constraint([(x, 1.0)], ">=", 3.0, tag="lb")
    m.add_objective("obj", x, 1.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.value(x) == pytest.approx(3.0, abs=1e-9)


def test_lp_degenerate_zero_objective():
    m = MilpModel()
    x = m.add_var("x", lo=0.0, hi=1.0)
    m.add_constraint([(x, 1.0)], "<=", 1.0, tag="cap")
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert 0.0 - 1e-9 <= sol.value(x) <= 1.0 + 1e-9


def test_lp_infeasible():
    m = MilpModel()
    x = m.add_var("x", lo=0.0, hi=1.0)
    m.add_constraint([(x, 1.0)], ">=", 2.0, tag="impossible")
    sol = solve_lp(m)
    assert sol.status == "infeasible"


def test_milp_binary_beats_slack():
    m, x, y, s = toy_upgrade_model()
    sol = solve_milp(m, gap=0.0)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.value(y) == pytest.approx(1.0, abs=1e-6)
    # enumerating both branches by hand: y=0 costs 100*5, y=1 costs 5
    assert min(5.0, 500.0) == pytest.approx(sol.objective)
    assert sol.cost_breakdown == {"invest": pytest.approx(5.0),
                                  "slack": pytest.approx(0.0, abs=1e-12)}


def test_milp_all_binaries_fixed_equals_lp():
    m, x, y, s = toy_upgrade_model()
    # pin the binary via bounds: the MILP degenerates to the LP
    m2, x2, y2, s2 = toy_upgrade_model(y_lo=1.0)
    milp_sol = solve_milp(m2, gap=0.0)
    lp_sol = solve_lp(m2)
    assert milp_sol.objective == pytest.approx(lp_sol.objective, abs=1e-9)
    assert milp_sol.node_count == 1


def test_milp_matches_brute_force_and_scipy():
    rng = np.random.default_rng(17)
    for trial in range(25):
        nb = int(rng.integers(1, 8))
        nc = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 8))
        m = MilpModel()
        refs = [m.add_var("z", (j,), lo=0, hi=1, binary=True) for j in range(nb)]
        refs += [m.add_var("w", (j,), lo=-4.0, hi=4.0) for j in range(nc)]
        for i in range(rows):
            terms = [(r, float(np.round(rng.normal() * 2, 1))) for r in refs
                     if rng.random() > 0.35]
            if not terms:
                continue
            sense = str(rng.choice(["<=", ">=", "=="]))
            m.add_constraint(terms, sense, float(np.round(rng.normal() * 3, 1)),
                             tag=f"r{i}")
        for r in refs:
            m.add_objective("obj", r, float(np.round(rng.normal() * 3, 1)))
        sol = solve_milp(m, gap=0.0)
        brute, _ = brute_force_milp(m)
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(brute, rel=1e-6, abs=1e-6)
            assert scipy_milp_objective(m) == pytest.approx(sol.objective,
                                                            rel=1e-6, abs=1e-6)
        else:
            assert sol.status == "infeasible"
            assert brute == float("inf")


def test_milp_determinism():
    def run():
        m, *_ = toy_upgrade_model()
        sol = solve_milp(m, gap=0.0)
        return sol.objective, sorted((r.name, round(v, 12)) for r, v in sol.values.items())
    first = run()
    second = run()
    assert first == second


def test_milp_gap_statuses():
    m, x, y, s = toy_upgrade_model()
    exact = solve_milp(m, gap=0.0)
    assert exact.status == "optimal" and exact.mip_gap == 0.0
    loose = solve_milp(m, gap=0.9)
    assert loose.status in ("optimal", "gap_limit")
    assert loose.objective >= exact.objective - 1e-9
    if loose.status == "gap_limit":
        assert loose.mip_gap <= 0.9
    limited = solve_milp(m, node_limit=1)
    assert limited.status in ("iteration_limit", "optimal")


def test_binaries_integral_at_optimal():
    m, x, y, s = toy_upgrade_model()
    sol = solve_milp(m, gap=0.0)
    for ref, val in sol.values.items():
        if ref.binary:
            assert abs(val - round(val)) <= 1e-6


def test_model_validation_errors():
    m = MilpModel()
    with pytest.raises(ModelError):
        m.add_var("b", binary=True, lo=0.0, hi=2.0)
    x = m.add_var("x")
    other = MilpModel()
    foreign = other.add_var("x")
    with pytest.raises(ModelError):
        m.add_constraint([(foreign, 1.0)], "<=", 1.0, tag="bad")
    with pytest.raises(ModelError):
        m.add_var("x")  # duplicate name


def test_duplicate_terms_merge():
    m = MilpModel()
    x = m.add_var("x", lo=0.0, hi=10.0)
    con = m.add_constraint([(x, 1.0), (x, 2.0)], "<=", 6.0, tag="merged")
    assert con.terms == ((x, 3.0),)


def test_lp_unbounded_raises_with_diagnostics():
    from gridxpand.solver import NumericalBreakdown
    m = MilpModel()
    x = m.add_var("x", lo=0.0)
    m.add_objective("obj", x, -1.0)
    with pytest.raises(NumericalBreakdown, match="unbounded"):
        solve_lp(m)


def test_numerical_breakdown_carries_diagnostics():
    from gridxpand.solver import NumericalBreakdown
    err = NumericalBreakdown("bad basis", {"residual": 1.0, "basis_condition_estimate": 2.0})
    assert err.diagnostics["residual"] == 1.0
    assert "basis_condition_estimate" in str(err)


def _highs_returning(monkeypatch, x):
    """Make the next HiGHS call report ``x`` as an optimal solution."""
    import scipy.optimize
    from scipy.optimize import OptimizeResult

    def fake_milp(c, **kwargs):
        return OptimizeResult(status=0, message="stub", x=np.array(x, dtype=float),
                              fun=float(np.dot(c, x)), mip_node_count=1, mip_gap=0.0)
    monkeypatch.setattr(scipy.optimize, "milp", fake_milp)


@pytest.mark.parametrize("x, key", [
    ([4.0, 0.0, 4.0], "row_residual"),      # x + s >= 9 violated by 1
    ([10.0, 1.0, -0.5], "bound_violation"),  # s below its lower bound 0
    ([7.0, 0.5, 2.0], "integrality"),       # rows and bounds hold, y fractional
])
def test_acceptance_check_rejects_a_bad_highs_solution(monkeypatch, x, key):
    m, *_ = toy_upgrade_model()
    _highs_returning(monkeypatch, x)
    with pytest.raises(NumericalBreakdown, match="acceptance check") as info:
        solve_milp(m, gap=0.0)
    for part in ("row_residual", "bound_violation", "integrality"):
        err, _where = info.value.diagnostics[part]
        assert (err > 1e-6) if part == key else (err == 0.0)


def test_import_does_not_load_scipy_optimize():
    import os
    import subprocess
    import sys

    import gridxpand
    src = os.path.dirname(os.path.dirname(gridxpand.__file__))
    code = "import sys, gridxpand; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
