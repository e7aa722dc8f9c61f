"""Expansion-model builder: family counts, big-M values, solved-row behavior."""

import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from gridxpand.builder import (
    BuildError,
    CandidateSet,
    build,
    dispatch_operating_points,
    realized_network,
    slack_total,
    var_map,
)
from gridxpand.network import RegulatorKind
from gridxpand.powerflow import solve_lindistflow
from gridxpand.solver import solve_lp, solve_milp

from conftest import (
    NOON_CF,
    ORACLE_CASES,
    chain_feeder,
    cs_unit,
    day_map,
    expected_counts,
    flat,
    hours,
    rooftop_unit,
    storage_unit,
    upgrade_kind,
)

SQRT2 = math.sqrt(2.0)


def rich_feeder():
    """Two days, fixed line, regulator, rooftop, both storage kinds, CS site."""
    days = ("peak_load", "average")
    kind = upgrade_kind(0.35, (0.01, 0.02), (0.8, (0.005, 0.01), 50_000.0))
    net = chain_feeder(
        n_load_buses=4, days=days, weights=(1.0, 363.0),
        loads={"b3": day_map(days, flat(0.25), flat(0.18)),
               "b5": day_map(days, flat(0.1), flat(0.08))},
        qloads={"b3": day_map(days, flat(0.08), flat(0.05))},
        head_cap=1.0, head_upgrade=0.1, head_cost=16_000.0,
        line_caps=[0.35, 0.5, 0.4, 0.4], line_rx=[(0.01, 0.02)] * 4,
        line_kinds=[kind, None, None,
                    RegulatorKind(existing=True, capacity=0.5, install_cost=0.0)],
        storage=(storage_unit("b2", invest_cap=0.3),
                 storage_unit("b5", status="existing", p_max=0.05, invest_cap=0.0)),
        solar=(rooftop_unit("b3", 0.1, day_map(days, NOON_CF)),
               cs_unit("b2", day_map(days, NOON_CF), invest_cap=0.4)),
        curtail_price=30.0,
    )
    cand = CandidateSet(
        reconductor_segments=("l1",), feeder_head_upgrade=True,
        vr_sites=("l2",), storage_sites=("b2",), cs_sites=("b2",),
    )
    return net, cand


def test_constraint_count_audit_rich():
    net, cand = rich_feeder()
    for with_cs, cs_cap in ((False, None), (True, 0.2)):
        model = build(net, cand, "optimal", cs_capacity=cs_cap)
        expect = expected_counts(net, cand, with_cs)
        got = {k: model.metadata.get(k, 0) for k in expect}
        assert got == expect, {k: (got[k], expect[k]) for k in expect
                               if got[k] != expect[k]}


def test_row_tags_match_metadata_for_row_families():
    net, cand = rich_feeder()
    model = build(net, cand, "optimal", cs_capacity=0.2)
    by_tag: dict[str, int] = {}
    for con in model.constraints:
        fam = con.tag.split("[")[0]
        by_tag[fam] = by_tag.get(fam, 0) + 1
    row_families = ["Eq2", "Eq3", "Eq8", "Eq9", "Eq10", "Eq11", "Eq12", "Eq14",
                    "Eq15", "Eq16", "Eq17", "Eq18", "Eq19", "Eq20", "Eq22",
                    "Eq25", "Eq26", "Eq27", "Eq28", "Eq29", "Eq31", "Eq32",
                    "Eq33", "Eq34", "Eq36", "Eq37", "Eq38", "Eq39", "Eq41",
                    "Eq43", "Eq45", "Eq47"]
    for fam in row_families:
        assert by_tag.get(fam, 0) == model.metadata.get(fam, 0), fam
    assert sum(by_tag.values()) == len(model.constraints)


def test_every_variable_constrained_and_costed_objective():
    net, cand = rich_feeder()
    model = build(net, cand, "optimal", cs_capacity=0.2)
    used = set()
    for con in model.constraints:
        for ref, _ in con.terms:
            used.add(ref.idx)
    for v in model.variables:
        bounded = np.isfinite(v.lo) and np.isfinite(v.hi)
        assert v.idx in used or bounded, f"{v.name} unconstrained"
    costed = {ref.idx for ref, _ in model.objective}
    for v in model.variables:
        if v.family.startswith("slack") or v.family == "g_crt":
            assert v.idx in costed
    for fam in ("x_st", "x_vr", "x_line", "x_fh"):
        for v in model.variables:
            if v.family == fam:
                assert v.idx in costed


def test_octagon_rows_carry_surd_coefficients():
    net, cand = rich_feeder()
    model = build(net, cand, "optimal", cs_capacity=0.2)
    slopes = {1: -(SQRT2 + 1), 2: -(SQRT2 - 1), 3: SQRT2 - 1, 4: SQRT2 + 1}
    intercepts = {1: SQRT2 + 1, 2: 1.0, 3: 1.0, 4: SQRT2 + 1}
    checked = 0
    for con in model.constraints:
        if not con.tag.startswith(("Eq8[", "Eq9[")):
            continue
        e = int(con.tag.rstrip("]").rsplit(",e", 1)[1])
        coeff = {ref.family: c for ref, c in con.terms}
        sign = 1.0 if con.tag.startswith("Eq8") else -1.0
        assert coeff["f_q"] == pytest.approx(sign, abs=0)
        assert coeff["f_p"] == pytest.approx(-slopes[e], abs=1e-9)
        seg_id = con.tag.split("[")[1].split(",")[0]
        cap = net.segment(seg_id).capacity
        assert con.rhs == pytest.approx(intercepts[e] * cap, abs=1e-9)
        checked += 1
    expect = expected_counts(net, cand, True)
    assert checked == expect["Eq8"] + expect["Eq9"] > 0


def test_line_big_m_formula():
    net, cand = rich_feeder()
    model = build(net, cand, "optimal", cs_capacity=0.2)
    seg = net.segment("l1")
    opts = seg.kind.options
    vmax2 = max(net.bus(seg.from_bus).vmax, net.bus(seg.to_bus).vmax) ** 2
    vmin2 = min(net.bus(seg.from_bus).vmin, net.bus(seg.to_bus).vmin) ** 2
    m_expect = (vmax2 - vmin2) + 2.0 * max(o.resistance + o.reactance for o in opts) \
        * max(o.capacity for o in opts)
    rows = [c for c in model.constraints if c.tag.startswith("Eq18[l1,") and
            c.tag.endswith("r0,up]")]
    assert rows
    for con in rows:
        coeff = {ref.family: c for ref, c in con.terms}
        assert coeff["x_line"] == pytest.approx(m_expect, rel=1e-12)
        assert con.rhs == pytest.approx(m_expect, rel=1e-12)


def test_tap_band_and_vr_big_m():
    net, cand = rich_feeder()
    model = build(net, cand, "optimal", cs_capacity=0.2)
    # Eq19 band: vmid <= tap_max^2 * v_to and vmid >= tap_min^2 * v_to
    up = [c for c in model.constraints if c.tag.startswith("Eq19[fh,") and
          c.tag.endswith("up]")][0]
    coeff = {ref.family: c for ref, c in up.terms}
    assert coeff["v2"] == pytest.approx(-1.05 ** 2)
    # Eq20 big-M from the band extremes
    vmax2 = net.bus("b3").vmax ** 2
    m_expect = vmax2 * (1.0 / 0.95 ** 2 - 1.0 / 1.05 ** 2)
    row = [c for c in model.constraints if c.tag.startswith("Eq20[l2,") and
           c.tag.endswith("up]")][0]
    coeff = {ref.family: c for ref, c in row.terms}
    assert coeff["x_vr"] == pytest.approx(-m_expect, rel=1e-12)


def test_beta_loss_allocation_rhs_and_coefficients():
    days = ("average",)
    net = chain_feeder(
        loads={"b2": day_map(days, flat(1.0))},
        line_caps=[2.0], head_cap=2.0,
        solar=(rooftop_unit("b2", 0.2, day_map(days, flat(0.5))),),
    )
    from dataclasses import replace
    net = replace(net, loss_factors={"l1": (0.02, 0.01)})
    model = build(net, CandidateSet(), "optimal", cs_capacity=None)
    rows = {c.tag: c for c in model.constraints}
    # 10 MW net load, beta 0.02: 0.1 MW (0.01 pu) allocated per incident bus
    r_b2 = rows["Eq2[b2,average,0]"]
    assert r_b2.rhs == pytest.approx(1.0 + 0.01 * 1.0)
    coeff = {ref.name: c for ref, c in r_b2.terms}
    assert coeff["g_rts[rts@b2,average,0]"] == pytest.approx(1.0 + 0.01)
    r_b1 = rows["Eq2[b1,average,0]"]
    assert r_b1.rhs == pytest.approx(0.0 + 0.01 * 1.0)
    r_src = rows["Eq2[src,average,0]"]
    assert r_src.rhs == pytest.approx(0.0)  # only fh incident, beta zero
    # reactive side uses the constant load bracket only
    r_q = rows["Eq3[b2,average,0]"]
    assert r_q.rhs == pytest.approx(0.0 + 0.005 * 0.0)


def test_two_bus_slack_lp_hand_value():
    # load 3 MW on a 2 MVA head: 1 MW of deficit slack every hour
    net = chain_feeder(loads={"b2": day_map(("average",), flat(0.3))},
                       head_cap=0.2, line_caps=[0.2], line_rx=[(0.001, 0.001)],
                       head_rx=(0.001, 0.001))
    model = build(net, CandidateSet(), "optimal", cs_capacity=None)
    sol = solve_milp(model, gap=0.0)
    assert sol.status == "optimal"
    hand = 24 * 0.1 * 1.0e6 * 363.0 * 10.0  # hours * slack_pu * C_I * weight * base
    assert sol.objective == pytest.approx(hand, rel=1e-9)
    assert slack_total(sol) == pytest.approx(24 * 0.1, rel=1e-9)


def test_feasibility_backstop_always_optimal():
    net = chain_feeder(loads={"b2": day_map(("average",), flat(5.0))},
                       head_cap=0.1, line_caps=[0.05])
    model = build(net, CandidateSet(), "optimal", cs_capacity=None)
    sol = solve_milp(model, gap=0.0)
    assert sol.status == "optimal"
    assert slack_total(sol) > 0


def test_no_candidates_pure_lp():
    net = chain_feeder(loads={"b2": day_map(("average",), flat(0.1))})
    model = build(net, CandidateSet(), "optimal", cs_capacity=None)
    sol = solve_milp(model, gap=0.0)
    lp = solve_lp(model)
    assert sol.node_count == 1
    assert sol.objective == pytest.approx(lp.objective, abs=1e-9)
    assert sol.objective == pytest.approx(0.0, abs=1e-6)


def test_build_errors():
    net, cand = rich_feeder()
    with pytest.raises(BuildError, match="not a segment"):
        build(net, CandidateSet(reconductor_segments=("nope",)))
    with pytest.raises(BuildError, match="disjoint"):
        build(net, CandidateSet(reconductor_segments=("l2",), vr_sites=("l2",)))
    with pytest.raises(BuildError, match="no upgrade options"):
        build(net, CandidateSet(reconductor_segments=("l2",)))
    with pytest.raises(BuildError, match="summed site"):
        build(net, CandidateSet(storage_sites=("b2",), cs_sites=("b2",)),
              cs_capacity=0.9)  # site limit is 0.4
    with pytest.raises(BuildError, match="colocation"):
        build(net, CandidateSet(storage_sites=(), cs_sites=("b2",)), cs_capacity=0.2)
    two_site = chain_feeder(
        n_load_buses=2, loads={"b3": day_map(("average",), flat(0.3))},
        line_caps=[0.6, 0.6],
        storage=(storage_unit("b2"), storage_unit("b3")),
        solar=(cs_unit("b2", day_map(("average",), NOON_CF)),
               cs_unit("b3", day_map(("average",), NOON_CF))),
    )
    with pytest.raises(BuildError, match="single site"):
        build(two_site, CandidateSet(storage_sites=("b2", "b3"),
                                     cs_sites=("b2", "b3")), cs_capacity=0.7)


def test_eq18_collapses_for_chosen_option():
    kind = upgrade_kind(0.35, (0.01, 0.02), (0.8, (0.005, 0.01), 50_000.0))
    net = chain_feeder(loads={"b2": day_map(("average",), flat(0.5))},
                       line_kinds=[kind], head_cap=1.0)
    cand = CandidateSet(reconductor_segments=("l1",))
    model = build(net, cand, "optimal", cs_capacity=None)
    sol = solve_milp(model, gap=0.0)
    refs = var_map(model)
    chosen = [r for r in range(2) if sol.value(refs[("x_line", ("l1", r))]) > 0.5]
    assert chosen == [1]  # load 5 MW forces the 8 MVA option
    seg = net.segment("l1")
    opts = seg.kind.options
    for d, h in net.time_index():
        v_to = sol.value(refs[("v2", ("b2", d, h))])
        v_fr = sol.value(refs[("v2", ("b1", d, h))])
        fp = sol.value(refs[("f_p", ("l1", d, h))])
        fq = sol.value(refs[("f_q", ("l1", d, h))])
        for r, opt in enumerate(opts):
            resid = v_to - v_fr + 2.0 * (opt.resistance * fp + opt.reactance * fq)
            if r == chosen[0]:
                assert abs(resid) <= 1e-6
    # keep-as-is keeps current electrical parameters
    keep = opts[0]
    assert keep.capacity == seg.capacity
    assert keep.resistance == seg.resistance


def test_storage_rows_and_cyclicity():
    net = chain_feeder(
        loads={"b2": day_map(("average",), hours((8, 0.1), (8, 0.42), (8, 0.1)))},
        line_caps=[0.35], head_cap=1.0,
        storage=(storage_unit("b2", invest_cap=0.3, cost=20_000.0),),
    )
    cand = CandidateSet(storage_sites=("b2",), cs_sites=())
    model = build(net, cand, "optimal", cs_capacity=None)
    rows = {c.tag: c for c in model.constraints}
    r38 = rows["Eq38[bess@b2,average]"]
    coeff = {ref.family: c for ref, c in r38.terms}
    assert coeff["p_in"] == pytest.approx(-0.85)
    assert coeff["p_out"] == pytest.approx(1.0)
    sol = solve_milp(model, gap=0.0)
    assert sol.status == "optimal"
    assert slack_total(sol) <= 1e-9
    mw = sol.value(var_map(model)[("x_st", ("bess@b2",))])
    assert mw > 0.05  # peak shave requires real storage
    p_in = sol.family_values("p_in")
    p_out = sol.family_values("p_out")
    net_charge = sum(0.85 * v for k, v in p_in.items()) - sum(p_out.values())
    assert net_charge == pytest.approx(0.0, abs=1e-6)


def test_storage_zero_investment_forces_zero_dispatch():
    net = chain_feeder(
        loads={"b2": day_map(("average",), flat(0.1))},
        line_caps=[0.5], storage=(storage_unit("b2", invest_cap=0.3, cost=50_000.0),),
    )
    cand = CandidateSet(storage_sites=("b2",), cs_sites=())
    model = build(net, cand, "optimal", cs_capacity=None)
    sol = solve_milp(model, gap=0.0)
    refs = var_map(model)
    assert sol.value(refs[("x_st", ("bess@b2",))]) == pytest.approx(0.0, abs=1e-9)
    assert sol.family_total("p_in") == pytest.approx(0.0, abs=1e-8)
    assert sol.family_total("p_out") == pytest.approx(0.0, abs=1e-8)
    assert sol.family_total("soc") == pytest.approx(0.0, abs=1e-8)
    # the selected-site binary may be 1 with zero megawatts built
    assert sum(sol.family_values("x_st_bin").values()) == pytest.approx(1.0)


def test_colocation_binds_cs_to_storage_site():
    days = ("average",)
    net = chain_feeder(
        n_load_buses=2,
        loads={"b3": day_map(days, flat(0.3))},
        line_caps=[0.6, 0.6],
        storage=(storage_unit("b2"), storage_unit("b3")),
        solar=(cs_unit("b2", day_map(days, NOON_CF)),
               cs_unit("b3", day_map(days, NOON_CF))),
        curtail_price=25.0,
    )
    cand = CandidateSet(storage_sites=("b2", "b3"), cs_sites=("b2", "b3"))
    model = build(net, cand, "fixed", cs_capacity=0.2, fixed_site="b3")
    sol = solve_milp(model, gap=0.0)
    refs = var_map(model)
    assert sol.value(refs[("x_cs", ("cs@b3",))]) == pytest.approx(0.2)
    assert sol.value(refs[("x_cs", ("cs@b2",))]) == pytest.approx(0.0)
    assert sol.value(refs[("x_st_bin", ("bess@b3",))]) == pytest.approx(1.0)
    assert sol.value(refs[("x_st_bin", ("bess@b2",))]) == pytest.approx(0.0)


def test_cs_energy_balance_eq31():
    days = ("average",)
    net = chain_feeder(
        loads={"b2": day_map(days, flat(0.3))},
        line_caps=[0.6],
        storage=(storage_unit("b2"),),
        solar=(cs_unit("b2", day_map(days, NOON_CF)),),
        curtail_price=25.0,
    )
    cand = CandidateSet(storage_sites=("b2",), cs_sites=("b2",))
    model = build(net, cand, "optimal", cs_capacity=0.2)
    sol = solve_milp(model, gap=0.0)
    refs = var_map(model)
    cap = sol.value(refs[("x_cs", ("cs@b2",))])
    assert cap == pytest.approx(0.2)
    for d, h in net.time_index():
        g = sol.value(refs[("g_cs", ("cs@b2", d, h))])
        crt = sol.value(refs[("g_crt", ("cs@b2", d, h))])
        assert g + crt == pytest.approx(cap * float(NOON_CF[h]), abs=1e-8)


def test_dispatch_replay_matches_model_voltages():
    net, cand = rich_feeder()
    model = build(net, cand, "optimal", cs_capacity=0.2)
    sol = solve_milp(model, gap=0.0)
    assert sol.status == "optimal"
    plan_net = realized_network(net, model, sol, cand)
    refs = var_map(model)
    worst = 0.0
    for op in dispatch_operating_points(net, model, sol):
        res = solve_lindistflow(plan_net, op)
        for b in net.buses:
            key = ("v2", (b.id, op.day, op.hour))
            worst = max(worst, abs(res.v2[b.id] - sol.value(refs[key])))
        for seg in net.segments:
            key = ("f_p", (seg.id, op.day, op.hour))
            worst = max(worst, abs(res.flow_p[seg.id] - sol.value(refs[key])))
    assert worst <= 1e-6


def test_variable_capacity_cut_scales_with_transformer_rating():
    # the apparent-power cuts on tappable segments reference the capacity
    # variable, so their intercepts scale with the chosen rating
    net, cand = rich_feeder()
    model = build(net, cand, "optimal", cs_capacity=0.2)
    rows = [c for c in model.constraints if c.tag.startswith("Eq27[fh,")]
    assert rows
    intercepts = {1: SQRT2 + 1, 2: 1.0, 3: 1.0, 4: SQRT2 + 1}
    for con in rows:
        e = int(con.tag.rstrip("]").rsplit(",e", 1)[1])
        coeff = {ref.family: c for ref, c in con.terms}
        assert coeff["f_trf"] == pytest.approx(-intercepts[e], abs=1e-9)
        assert con.rhs == 0.0


# -- golden parity: MPS bytes, row tags and variable names ---------------------------

def _model_digests(model, path):
    from gridxpand.mps import export_model
    export_model(model, str(path))

    return tuple(hashlib.sha256(data).hexdigest() for data in (
        path.read_bytes(),
        "\n".join(con.tag for con in model.constraints).encode(),
        "\n".join(v.name for v in model.variables).encode()))


def _golden_models(tutorial_net):
    from gridxpand.scenarios import first_round_model, make_scenario, storage_cs_sites
    for label in ("base", "highpv", "highload"):
        scen = make_scenario(tutorial_net, label)
        yield f"{label}/off", first_round_model(tutorial_net, scen, False)
        yield f"{label}/optimal", first_round_model(tutorial_net, scen, True)
        for bus in storage_cs_sites(scen.network):
            yield f"{label}/fixed:{bus}", first_round_model(
                tutorial_net, scen, True, "fixed", fixed_site=bus)
    for name, factory in ORACLE_CASES:
        net, cand, kw = factory()
        yield name, build(net, cand, "optimal", **kw)
    net, cand = rich_feeder()
    yield "rich/off", build(net, cand)
    yield "rich/optimal", build(net, cand, "optimal", cs_capacity=0.2)
    yield "rich/fixed:b2", build(net, cand, "fixed", cs_capacity=0.2, fixed_site="b2")
    # loss shares put rooftop and CS output twice into the same balance rows
    lossy = replace(net, loss_factors={"fh": (0.003, 0.001), "l1": (0.02, 0.01),
                                       "l2": (0.013, 0.007)})
    yield "rich/losses", build(lossy, cand, "optimal", cs_capacity=0.2)


# sha256 of (MPS bytes, row tags, variable names), recorded from the row-by-row builder
GOLDEN = {
    'base/off': (
        '1d3de03ccbecdaf372b288932ccbd6458d897d29eadfccf64b0917dc250f7460',
        '1d0a30b8b9dd51c8ab34e1a2b3c2d2a44244079b19f8ba1556fe4a545cb3f543',
        'a85356f9b69fad9540b5fd3af06fc38ad8ac9024940f60a38a3c9b39a9c234ed'),
    'base/optimal': (
        '114ebcc6261b824a90ca74516e6a006212ad1f38399c1dea99bf2309c106a97f',
        '184eaf763842f7af4e1f311aeb74dd34a65701af3298a0a8bde94ca964496d43',
        '05a1ddf9db0f431d1e1ccb9f875b5960931dd6267806dc44a634f9623c32a524'),
    'base/fixed:b1': (
        '810b1acec46b8653e01be1843ca267168cb57bd02ef9b2aaa0b8552dcf3218c8',
        '184eaf763842f7af4e1f311aeb74dd34a65701af3298a0a8bde94ca964496d43',
        '05a1ddf9db0f431d1e1ccb9f875b5960931dd6267806dc44a634f9623c32a524'),
    'base/fixed:b2': (
        'e0fb32e9c8b7ef52f80929326fad3890598a9a9f14840b8826fb6bf02048e7ce',
        '184eaf763842f7af4e1f311aeb74dd34a65701af3298a0a8bde94ca964496d43',
        '05a1ddf9db0f431d1e1ccb9f875b5960931dd6267806dc44a634f9623c32a524'),
    'base/fixed:b3': (
        '3aa4719a1ed8d342ac53362655f52cc85bae7a0f107cb1d9418a66e8574fb95f',
        '184eaf763842f7af4e1f311aeb74dd34a65701af3298a0a8bde94ca964496d43',
        '05a1ddf9db0f431d1e1ccb9f875b5960931dd6267806dc44a634f9623c32a524'),
    'highpv/off': (
        'f49317c808237e8a441c36441a9e78c26957e8e4dfd1d5551fc5f8f480c44faa',
        '02ecae84fc4efdaffad038d27c96d6407aa47792efa449688ec0603d017da152',
        '07684b8ac7c36329a59006ab195a0c85713266e986a808174eb69d6a348a565a'),
    'highpv/optimal': (
        '56365aedf5c18a96f0db0719b56881da203ab1f2aa82076a69f2b0eb8ed5ea2d',
        '8f6577b90a8da0d2312a3de1b39c611ad4874f5268524f2c8285f212b46c7a31',
        '3255ff8c60f42edf017cd3c97a0af6ed23d52b1bb3f8aca42f9064e54736157e'),
    'highpv/fixed:b1': (
        '61df4722c9c56a0e110f34451952a01719af1a56a73857d606ae93c59e02eefa',
        '8f6577b90a8da0d2312a3de1b39c611ad4874f5268524f2c8285f212b46c7a31',
        '3255ff8c60f42edf017cd3c97a0af6ed23d52b1bb3f8aca42f9064e54736157e'),
    'highpv/fixed:b2': (
        'f3cf8a16266bed12bfdc54b6e6587a041a2b1af545b5b3767f6875556e86375c',
        '8f6577b90a8da0d2312a3de1b39c611ad4874f5268524f2c8285f212b46c7a31',
        '3255ff8c60f42edf017cd3c97a0af6ed23d52b1bb3f8aca42f9064e54736157e'),
    'highpv/fixed:b3': (
        'fa232d58a3b568d759f343383da3978c7493dda42b997bda307dae3eecbfd9f0',
        '8f6577b90a8da0d2312a3de1b39c611ad4874f5268524f2c8285f212b46c7a31',
        '3255ff8c60f42edf017cd3c97a0af6ed23d52b1bb3f8aca42f9064e54736157e'),
    'highload/off': (
        '62a0cdd43a0c7c647d3a80a0aa5a75e8da91ee3467151851c7ab1883a605d4ae',
        '1d0a30b8b9dd51c8ab34e1a2b3c2d2a44244079b19f8ba1556fe4a545cb3f543',
        'a85356f9b69fad9540b5fd3af06fc38ad8ac9024940f60a38a3c9b39a9c234ed'),
    'highload/optimal': (
        '54c9aebe089765315f14e6c9ecb4aa82eba1260e00445f6505b8ef946443bc8f',
        '184eaf763842f7af4e1f311aeb74dd34a65701af3298a0a8bde94ca964496d43',
        '05a1ddf9db0f431d1e1ccb9f875b5960931dd6267806dc44a634f9623c32a524'),
    'highload/fixed:b1': (
        'fb82d7e4d9dfd97df9c50e4c9f786e1278b3eda9c7928bda1b6b5f00072e3b9b',
        '184eaf763842f7af4e1f311aeb74dd34a65701af3298a0a8bde94ca964496d43',
        '05a1ddf9db0f431d1e1ccb9f875b5960931dd6267806dc44a634f9623c32a524'),
    'highload/fixed:b2': (
        '89372c8b6f4ae0368de2c2c1953e2b14b8fcb22904d828893ee4c0cb5e60d837',
        '184eaf763842f7af4e1f311aeb74dd34a65701af3298a0a8bde94ca964496d43',
        '05a1ddf9db0f431d1e1ccb9f875b5960931dd6267806dc44a634f9623c32a524'),
    'highload/fixed:b3': (
        '64eced4d85a762c2038ec6579a2644016d27490b0475e3a34aaa0dffe7d3d95b',
        '184eaf763842f7af4e1f311aeb74dd34a65701af3298a0a8bde94ca964496d43',
        '05a1ddf9db0f431d1e1ccb9f875b5960931dd6267806dc44a634f9623c32a524'),
    'line_upgrade': (
        '8eb9d0d68bee0005b3586ed71b99d0b78ff71066927a69813cbe6012f139d67b',
        'e09516e6d1b89c632a7596eeda7fdad46d702cb83f05379295117f7428ba5b93',
        'dd34075380d9fa8e269056a190ca0c898727276824c214f776196aada99d911b'),
    'storage_shave': (
        '4d33b026a278c5d0ec00ff4fb3ef0a3f979ee937f2a29c2114b8d164a1e39c78',
        'a9663ab4dab498aeda9f5c05f7f7fb78abde1abe436071f1286e760845aa5b3b',
        'a9f549f5ef06acd4e0448d90a417a91d5ad076614256bff3de69bc7374049fd9'),
    'vr_undervoltage': (
        '1f3f5de8bbb26bdd9af1a96a2ed707a93fa17367f4cc10c50c6bb32b56f5a670',
        'ac3f1ec6efcd038c789c2a19a05df646f6aa741d59dc9dd04b3dc5ef52c454bc',
        'e1c3a28a774fcc9202ddc6791dc9102e0cdafee084a6a94406f0c65b37dddc65'),
    'cs_deferral': (
        '16545ea7cc3eecd61a3a05475c4ba0ab62f616158db313aa701f9d4a10c4aab4',
        '346fdd98ba94f1d39e6740f04521e32c92157425c645d3d95b7eae21573e82c0',
        'cfcd6d1bee9f272a7c0e30fb0d9771e86c9acf83898502267ad7ea98b31a4453'),
    'multi_binary': (
        'd959fe3b61b712feb7d95e185f29e38c1d31b75bad64a1102e197bd89506cace',
        '1e3d55530aa9a99d85d66e1c6076c1442712c515c3589046deef73ef10c401e3',
        '0862bb01314848c01d3ff9265123fb916bd8413ba296a1bc46c3be23d9e2f06d'),
    'rich/off': (
        'd11746ab5b0958e71e7fb6b58792f1ebb4d2b062dd0d1e91d9ad459822eae6ce',
        '092cb6647c0c36cd21dcb51c2848979b7609b29d59d08f77dbbcf41624c5317c',
        '20c5b7ade9e9193de6f111f58b33d0b77a0a4192e2b5ec875a25c1f80fd9015e'),
    'rich/optimal': (
        '6aebf9ec05d4311594123021f1482522d2fa5a8b3f373742831d89a031eb791c',
        '3c823a677c1982df3b054399946e045c3cba49aabeaf3cd851c14cbc99296459',
        '26f6f9f1713670ff940820b5bcf08810945e3b5ff1f8fafca81287de0a4d865c'),
    'rich/fixed:b2': (
        '8d3277cb5adda8e2d99efeba7adb61d1913c3231990d7eea2cd89a4aac70df5a',
        '3c823a677c1982df3b054399946e045c3cba49aabeaf3cd851c14cbc99296459',
        '26f6f9f1713670ff940820b5bcf08810945e3b5ff1f8fafca81287de0a4d865c'),
    'rich/losses': (
        'c950f274627f9a6a1c4b11d13aa24d4bfa182b201333c599980f99589403103a',
        '3c823a677c1982df3b054399946e045c3cba49aabeaf3cd851c14cbc99296459',
        '26f6f9f1713670ff940820b5bcf08810945e3b5ff1f8fafca81287de0a4d865c'),
}


def test_models_match_golden_digests(tutorial_net, tmp_path):
    got = {name: _model_digests(model, tmp_path / "m.mps")
           for name, model in _golden_models(tutorial_net)}
    assert got == GOLDEN


def _compiled(model):
    A, senses, rhs = model.constraint_arrays()
    lo, hi = model.bounds_arrays()
    return [A.data, A.indices, A.indptr, senses, rhs, lo, hi, model.objective_vector()]


def test_concurrent_builds_match_a_serial_build(tutorial_net):
    from concurrent.futures import ThreadPoolExecutor

    from gridxpand.scenarios import first_round_model, make_scenario
    scen = make_scenario(tutorial_net, "base")

    def arrays(_=None):
        return _compiled(first_round_model(tutorial_net, scen, True))
    serial = arrays()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(arrays, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    for got in results:
        # bytes, so that a zero's sign counts too
        assert [a.tobytes() for a in got] == [a.tobytes() for a in serial]
