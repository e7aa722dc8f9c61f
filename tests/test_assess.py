"""Assessment: incremental cost, breakdown identity, normalization, siting."""

import numpy as np
import pytest

from gridxpand.assess import (
    UnresolvedPlanError,
    annual_energy_mwh,
    assess,
    breakdown,
    classify,
    compare_siting,
    downsizing_metric,
    incremental_cost,
    investment_cost,
    normalize,
)
from gridxpand.builder import CandidateSet, build, var_map
from gridxpand.scenarios import EngineConfig, make_scenario
from gridxpand.solver import Solution, solve_milp

from conftest import (
    NOON_CF,
    chain_feeder,
    cs_unit,
    day_map,
    feeder_cs_deferral,
    feeder_cs_hosting,
    flat,
    storage_unit,
)

CFG = EngineConfig(solver_gap=0.0)


def stub_solution(invest: float, status="optimal", resolved=True) -> Solution:
    return Solution(status=status, objective=invest, resolved=resolved,
                    cost_breakdown={"line": invest, "curtailment": 123.0})


def test_incremental_cost_subtraction():
    assert incremental_cost(stub_solution(100e3), stub_solution(150e3)) == \
        pytest.approx(-50e3)
    assert incremental_cost(stub_solution(80e3), stub_solution(80e3)) == 0.0
    assert incremental_cost(stub_solution(120e3), stub_solution(0.0)) == \
        pytest.approx(120e3)


def test_incremental_cost_excludes_curtailment_and_slack():
    with_cs = Solution(status="optimal", objective=10.0,
                       cost_breakdown={"line": 5.0, "curtailment": 1000.0,
                                       "imbalance": 99.0})
    without = Solution(status="optimal", objective=0.0, cost_breakdown={})
    assert incremental_cost(with_cs, without) == pytest.approx(5.0)


def test_unresolved_propagates():
    with pytest.raises(UnresolvedPlanError):
        incremental_cost(stub_solution(1.0, resolved=False), stub_solution(1.0))
    with pytest.raises(UnresolvedPlanError):
        incremental_cost(stub_solution(1.0), stub_solution(1.0, status="iteration_limit"))


def test_classification_bands():
    assert classify(-50e3) == "negative"
    assert classify(0.0) == "zero"
    assert classify(0.5) == "zero"  # below one dollar per year
    assert classify(-0.5) == "zero"
    assert classify(120e3) == "positive"


def test_normalize_examples():
    from gridxpand.assess import AssessmentReport
    net = chain_feeder(loads={"b2": day_map(("average",), flat(0.1))})
    rep = AssessmentReport(
        feeder_id="f", scenario="base", c_with_cs=50e3, c_without_cs=0.0,
        c_itgr=50e3, classification="positive", breakdown={}, cs_capacity_mw=1.0,
        siting_mode="optimal", siting_bus="b2")
    out = normalize(rep, net)
    assert out.cost_per_kw == pytest.approx(50.0)
    energy = 363.0 * 24 * 1.0  # 1 MW flat, weighted
    assert annual_energy_mwh(net) == pytest.approx(energy)
    assert out.cost_per_kwh_cents == pytest.approx(100.0 * 50e3 / (energy * 1000.0))
    zero = normalize(rep.__class__(**{**rep.__dict__, "c_itgr": 0.0}), net)
    assert zero.cost_per_kw == 0.0 and zero.cost_per_kwh_cents == 0.0


def test_annual_energy_hand_sum(tutorial_net):
    total = 0.0
    for day in tutorial_net.scenario_days:
        for h in range(24):
            for b in tutorial_net.buses:
                total += day.weight * float(b.active_load[day.label][h])
    assert annual_energy_mwh(tutorial_net) == pytest.approx(total * 10.0)


def test_breakdown_identity_on_deferral_run():
    net, cand, kw = feeder_cs_deferral()
    scen = make_scenario(net, "base")
    report, w, wo = assess(net, scen, config=CFG)
    assert report.c_itgr == pytest.approx(-60_000.0)
    total_new = sum(v[0] for v in report.breakdown.values())
    total_repl = sum(v[1] for v in report.breakdown.values())
    assert total_new - total_repl == pytest.approx(report.c_itgr, abs=1e-6)
    # deferral shape: something replaced, nothing new
    assert total_new == pytest.approx(0.0, abs=1e-9)
    assert report.breakdown["reconductor_OH"][1] == pytest.approx(60_000.0)


def test_breakdown_identity_on_positive_run():
    net, cand, kw = feeder_cs_hosting()
    scen = make_scenario(net, "base")
    report, w, wo = assess(net, scen, siting_mode="fixed", fixed_site="b2", config=CFG)
    assert report.c_itgr > 0
    total_new = sum(v[0] for v in report.breakdown.values())
    total_repl = sum(v[1] for v in report.breakdown.values())
    assert total_new - total_repl == pytest.approx(report.c_itgr, abs=1e-6)
    assert total_repl == pytest.approx(0.0, abs=1e-9)


def test_breakdown_identical_plans_all_zero():
    run_net = chain_feeder(loads={"b2": day_map(("average",), flat(0.05))},
                           storage=(storage_unit("b2"),),
                           solar=(cs_unit("b2", day_map(("average",), NOON_CF)),),
                           curtail_price=20.0)
    scen = make_scenario(run_net, "base")
    report, w, wo = assess(run_net, scen, config=CFG)
    assert report.classification == "zero"
    assert all(v == (0.0, 0.0) for v in report.breakdown.values())


def test_downsizing_zero_and_full():
    net = chain_feeder(loads={"b2": day_map(("average",), flat(0.3))},
                       storage=(storage_unit("b2"),),
                       solar=(cs_unit("b2", day_map(("average",), NOON_CF)),),
                       curtail_price=20.0)
    cand = CandidateSet(storage_sites=("b2",), cs_sites=("b2",))
    model = build(net, cand, "optimal", cs_capacity=0.2)
    sol = solve_milp(model, gap=0.0)
    assert downsizing_metric(sol, net) == pytest.approx(0.0, abs=1e-9)
    # force full curtailment by zeroing generation delivery
    full = Solution(status="optimal", objective=0.0, model=model, x=np.array([
        (0.2 if ref.family == "x_cs" else
         (0.2 * float(NOON_CF[ref.indices[2]]) if ref.family == "g_crt" else 0.0))
        for ref in model.variables
    ]))
    assert downsizing_metric(full, net) == pytest.approx(1.0)


def test_downsizing_matches_integrated_curtailment():
    # tight line forces part of the noon output to spill
    net = chain_feeder(loads={"b2": day_map(("average",), flat(0.02))},
                       line_caps=[0.1], line_rx=[(0.01, 0.02)],
                       storage=(storage_unit("b2", invest_cap=0.3, cost=1e9),),
                       solar=(cs_unit("b2", day_map(("average",), NOON_CF), invest_cap=0.3),),
                       curtail_price=5.0)
    cand = CandidateSet(storage_sites=("b2",), cs_sites=("b2",))
    model = build(net, cand, "optimal", cs_capacity=0.3)
    sol = solve_milp(model, gap=0.0)
    assert sol.status == "optimal"
    refs = var_map(model)
    curtailed = sum(363.0 * sol.value(refs[("g_crt", ("cs@b2", "average", h))])
                    for h in range(24))
    available = sum(363.0 * 0.3 * float(NOON_CF[h]) for h in range(24))
    assert curtailed > 0
    assert downsizing_metric(sol, net) == pytest.approx(curtailed / available, rel=1e-9)


def test_compare_siting_weak_far_end():
    net, cand, kw = feeder_cs_hosting()
    scen = make_scenario(net, "base")
    table = compare_siting(net, scen, config=CFG, seed=3)
    assert set(table) == {"fixed-head", "fixed-middle", "random", "optimal"}
    assert table["fixed-middle"].c_itgr > table["fixed-head"].c_itgr
    best_fixed = min(v.c_itgr for k, v in table.items() if k.startswith("fixed"))
    assert table["optimal"].c_itgr <= best_fixed + 1e-6
    assert table["random"].c_itgr in {table["fixed-head"].c_itgr,
                                      table["fixed-middle"].c_itgr}
    assert table["random"].siting_mode == "random"


def test_compare_siting_unloaded_feeder_ties():
    days = ("average",)
    net = chain_feeder(
        n_load_buses=2, loads={"b3": day_map(days, flat(0.05))},
        line_caps=[0.8, 0.8],
        storage=(storage_unit("b1"), storage_unit("b2"), storage_unit("b3")),
        solar=(cs_unit("b1", day_map(days, NOON_CF)),
               cs_unit("b2", day_map(days, NOON_CF)),
               cs_unit("b3", day_map(days, NOON_CF))),
        curtail_price=20.0,
    )
    scen = make_scenario(net, "base")
    table = compare_siting(net, scen, config=CFG)
    fixed_costs = [v.c_itgr for k, v in table.items() if k.startswith("fixed")]
    assert len(fixed_costs) == 3
    assert all(c == pytest.approx(0.0, abs=1e-6) for c in fixed_costs)
    assert table["optimal"].c_itgr <= min(fixed_costs) + 1e-6


def test_investment_cost_reads_groups():
    sol = Solution(status="optimal", objective=0.0,
                   cost_breakdown={"storage": 1.0, "regulator": 2.0, "line": 3.0,
                                   "feeder_head": 4.0, "imbalance": 100.0,
                                   "curtailment": 50.0})
    assert investment_cost(sol) == pytest.approx(10.0)


def test_compare_siting_solves_the_without_cs_plan_once(monkeypatch):
    import importlib
    assess_mod = importlib.import_module("gridxpand.assess")  # the package re-exports assess

    net, cand, kw = feeder_cs_hosting()
    scen = make_scenario(net, "base")
    calls = []
    original = assess_mod.expansion_loop

    def counting(net, scenario, with_cs, *args, **kwargs):
        calls.append(with_cs)
        return original(net, scenario, with_cs, *args, **kwargs)
    monkeypatch.setattr(assess_mod, "expansion_loop", counting)
    table = compare_siting(net, scen, config=CFG, seed=3)
    sites = [r.siting_bus for k, r in table.items() if k.startswith("fixed")]
    assert calls.count(False) == 1
    assert calls.count(True) == len(sites) + 1  # each fixed site, then optimal

    # the same reports as assessing each entry on its own
    monkeypatch.setattr(assess_mod, "expansion_loop", original)
    for label, report in table.items():
        if label == "random":
            continue
        mode = "optimal" if label == "optimal" else "fixed"
        alone, _, _ = assess(net, scen, siting_mode=mode,
                             fixed_site=None if mode == "optimal" else report.siting_bus,
                             config=CFG)
        assert alone == report
