"""Shared feeder factories and independent oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gridxpand.builder import CandidateSet
from gridxpand.milp import EQUAL, GREATER_EQUAL, LESS_EQUAL, MilpModel
from gridxpand.network import (
    Bus,
    CandidateUpgradeKind,
    FeederHeadKind,
    FeederNetwork,
    FixedKind,
    LineSegment,
    RegulatorKind,
    ScenarioDay,
    SolarUnit,
    StorageUnit,
    UpgradeOption,
    validate,
)
from simplex import solve_lp_arrays


def hours(*segments):
    """Build a 24-hour profile from (count, value) runs."""
    out = []
    for count, value in segments:
        out.extend([float(value)] * count)
    assert len(out) == 24, f"profile covers {len(out)} hours"
    return np.array(out)


def flat(value):
    return np.full(24, float(value))


def day_map(days, *profiles):
    if len(profiles) == 1:
        profiles = profiles * len(days)
    return {d: np.asarray(p, dtype=float) for d, p in zip(days, profiles)}


def chain_feeder(*, n_load_buses=1, days=("average",), weights=(363.0,),
                 loads=None, qloads=None, head_cap=2.0, head_upgrade=0.0,
                 head_cost=0.0, head_rx=(0.002, 0.01), line_caps=None,
                 line_rx=None, line_kinds=None, storage=(), solar=(),
                 base_mva=10.0, v_ref=1.0, imbalance_cost=1.0e6,
                 curtail_price=None, cs_capacity_mw=None, kv_base=None,
                 line_lengths=None, line_placements=None):
    """Radial chain src -> b1 -> ... -> b{n}; the head segment is src->b1.

    ``loads``/``qloads``: per load bus (b2..), map day -> 24 array in pu.
    ``line_kinds``: per line segment (b1->b2 onward) a SegmentKind or None
    for a fixed line of the matching capacity.
    """
    labels = [f"b{i}" for i in range(1, n_load_buses + 2)]
    bus_ids = ["src"] + labels
    loads = loads or {}
    qloads = qloads or {}
    zero = {d: np.zeros(24) for d in days}
    buses = []
    for bid in bus_ids:
        buses.append(Bus(
            bid,
            active_load={d: np.asarray(loads.get(bid, zero)[d], dtype=float) for d in days},
            reactive_load={d: np.asarray(qloads.get(bid, zero)[d], dtype=float) for d in days},
        ))
    n_lines = n_load_buses
    line_caps = line_caps or [0.5] * n_lines
    line_rx = line_rx or [(0.01, 0.02)] * n_lines
    line_kinds = line_kinds or [None] * n_lines
    segments = [LineSegment("fh", "src", "b1", head_rx[0], head_rx[1],
                            FeederHeadKind(base_capacity=head_cap,
                                           upgrade_capacity=head_upgrade,
                                           upgrade_cost=head_cost))]
    line_lengths = line_lengths or [0.0] * n_lines
    line_placements = line_placements or [""] * n_lines
    for i in range(n_lines):
        kind = line_kinds[i] or FixedKind(capacity=line_caps[i])
        r, x = line_rx[i]
        segments.append(LineSegment(f"l{i + 1}", labels[i], labels[i + 1], r, x, kind,
                                    length_miles=line_lengths[i],
                                    placement=line_placements[i]))
    scenario_days = tuple(ScenarioDay(d, w) for d, w in zip(days, weights))
    prices = {}
    if curtail_price is not None:
        prices = {d: flat(curtail_price) for d in days}
    return validate(FeederNetwork(
        base_mva=base_mva, v_ref=v_ref, buses=tuple(buses), segments=tuple(segments),
        storage_units=tuple(storage), solar_units=tuple(solar),
        scenario_days=scenario_days, feeder_head_segment="fh",
        imbalance_cost=imbalance_cost, curtailment_price=prices,
        cs_total_capacity=cs_capacity_mw if cs_capacity_mw is None
        else cs_capacity_mw / base_mva,
        kv_base=kv_base,
    ))


def upgrade_kind(keep_cap, keep_rx, *options):
    """Candidate kind: keep-as-is plus (cap, (r, x), annual_total_cost) options."""
    opts = [UpgradeOption(capacity=keep_cap, resistance=keep_rx[0], reactance=keep_rx[1],
                          annual_cost_per_mva=0.0, conductor="keep")]
    for cap, rx, cost in options:
        opts.append(UpgradeOption(capacity=cap, resistance=rx[0], reactance=rx[1],
                                  annual_cost_per_mva=cost / (cap * 10.0),
                                  conductor=f"opt{cap}"))
    return CandidateUpgradeKind(options=tuple(opts))


def storage_unit(bus, *, invest_cap=0.5, cost=61000.0, duration=2.0, eff=0.85,
                 psi=1.0, status="candidate", p_max=1.0):
    return StorageUnit(id=f"bess@{bus}", bus=bus, status=status, p_in_max=p_max,
                       p_out_max=p_max, duration=duration, efficiency=eff,
                       reactive_fraction=psi, annual_cost_per_mw=cost,
                       invest_cap=invest_cap)


def cs_unit(bus, cf_by_day, invest_cap=0.5):
    return SolarUnit(id=f"cs@{bus}", bus=bus, role="cs_candidate",
                     capacity_factor={d: np.asarray(v, dtype=float)
                                      for d, v in cf_by_day.items()},
                     invest_cap=invest_cap)


def rooftop_unit(bus, capacity, cf_by_day, uid=None):
    return SolarUnit(id=uid or f"rts@{bus}", bus=bus, role="rooftop_existing",
                     installed_capacity=capacity,
                     capacity_factor={d: np.asarray(v, dtype=float)
                                      for d, v in cf_by_day.items()})


NOON_CF = hours((6, 0.0), (2, 0.3), (2, 0.7), (4, 0.95), (2, 0.7), (2, 0.3), (6, 0.0))


def expected_counts(net, cand, with_cs):
    """Closed-form constraint-family instance counts, derived independently."""
    T = sum(d.hours for d in net.scenario_days)
    D = len(net.scenario_days)
    N = len(net.buses)
    head = net.segment(net.feeder_head_segment)
    vr_existing = [s for s in net.segments
                   if isinstance(s.kind, RegulatorKind) and s.kind.existing]
    vr_cand = [s for s in net.segments
               if isinstance(s.kind, RegulatorKind) and not s.kind.existing]
    promoted_vr = [sid for sid in cand.vr_sites
                   if not isinstance(net.segment(sid).kind, RegulatorKind)]
    n_vr = len(vr_existing) + len(vr_cand) + len(promoted_vr)
    n_vr_c = len(vr_cand) + len(promoted_vr)
    cand_segs = [net.segment(sid) for sid in cand.reconductor_segments]
    n_c = len(cand_segs)
    n_opts = sum(len(s.kind.options) for s in cand_segs)
    n_f = len(net.segments) - 1 - n_vr - n_c  # everything else is fixed
    r_e = len(net.rooftop_units())
    r_c = len([u for u in net.cs_units() if u.bus in cand.cs_sites]) if with_cs else 0
    h_e = len([u for u in net.storage_units if u.status == "existing"])
    h_c = len([u for u in net.storage_units
               if u.status == "candidate" and u.bus in cand.storage_sites])
    h_all = h_e + h_c
    n_bins_sites = h_c if h_c else 1  # dummy site keeps the selection row alive
    reg = n_vr + 1  # regulators plus the feeder head
    return {
        "Eq2": N * T, "Eq3": N * T, "Eq4": T, "Eq5": N * T,
        "Eq6": n_f * T, "Eq7": n_f * T, "Eq8": 4 * n_f * T, "Eq9": 4 * n_f * T,
        "Eq10": n_f * T,
        "Eq11": n_c, "Eq12": n_c, "Eq13": n_opts,
        "Eq14": 2 * n_c * T, "Eq15": 2 * n_c * T,
        "Eq16": 4 * n_c * T, "Eq17": 4 * n_c * T, "Eq18": 2 * n_opts * T,
        "Eq19": 2 * reg * T, "Eq20": 2 * n_vr_c * T, "Eq21": n_vr_c,
        "Eq22": 1, "Eq23": n_vr, "Eq24": 1,
        "Eq25": 2 * reg * T, "Eq26": 2 * reg * T,
        "Eq27": 4 * reg * T, "Eq28": 4 * reg * T, "Eq29": reg * T,
        "Eq30": r_e * T, "Eq31": r_c * T, "Eq32": 1 if r_c else 0,
        "Eq33": h_c, "Eq34": 1, "Eq35": n_bins_sites, "Eq36": r_c if r_c else 0,
        "Eq37": h_all * D, "Eq38": h_all * D, "Eq39": h_all * (T - D),
        "Eq40": h_e * T, "Eq41": h_c * T, "Eq42": h_e * T, "Eq43": h_c * T,
        "Eq44": h_e * T, "Eq45": h_c * T, "Eq46": h_e * T, "Eq47": 2 * h_c * T,
    }

# -- independent oracles -----------------------------------------------------------


def brute_force_milp(model: MilpModel) -> tuple[float, dict]:
    """Exhaustive enumeration over binary assignments, each completed by an LP.

    Assignments violating constraints whose variables are all binaries are
    discarded by direct evaluation; the rest fix the binaries through their
    bounds and solve the LP with the embedded simplex (`tests/simplex.py`), so
    the oracle shares no code path with HiGHS.
    """
    A, senses, b = model.constraint_arrays()
    c = model.objective_vector()
    lo, hi = model.bounds_arrays()
    bins = [v.idx for v in model.variables if v.binary]
    free = [j for j in bins if hi[j] > lo[j]]
    fixed_vals = {j: lo[j] for j in bins if hi[j] <= lo[j]}

    pure_rows = []
    bin_set = set(bins)
    for con in model.constraints:
        if con.terms and all(ref.idx in bin_set for ref, _ in con.terms):
            pure_rows.append(con)

    best = float("inf")
    best_assign = None
    warm = None
    for combo in itertools.product((0.0, 1.0), repeat=len(free)):
        assign = dict(zip(free, combo))
        assign.update(fixed_vals)
        ok = True
        for con in pure_rows:
            val = sum(coeff * assign[ref.idx] for ref, coeff in con.terms)
            if con.sense == EQUAL and abs(val - con.rhs) > 1e-9:
                ok = False
            elif con.sense == LESS_EQUAL and val > con.rhs + 1e-9:
                ok = False
            elif con.sense == GREATER_EQUAL and val < con.rhs - 1e-9:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        lo2, hi2 = lo.copy(), hi.copy()
        for j, v in assign.items():
            lo2[j] = hi2[j] = v
        res = solve_lp_arrays(A, senses, b, c, lo2, hi2, warm=warm)
        if res.status == "optimal":
            warm = res.basis
            if res.objective < best:
                best = res.objective
                best_assign = dict(assign)
    return best, best_assign or {}


def scipy_milp_objective(model: MilpModel) -> float:
    """Cross-check objective via scipy's HiGHS-backed MILP solver."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    A, senses, b = model.constraint_arrays()
    c = model.objective_vector()
    lo, hi = model.bounds_arrays()
    constraints = []
    for i, sense in enumerate(senses):
        row = A[[i], :]
        if sense == LESS_EQUAL:
            constraints.append(LinearConstraint(row, -np.inf, b[i]))
        elif sense == GREATER_EQUAL:
            constraints.append(LinearConstraint(row, b[i], np.inf))
        else:
            constraints.append(LinearConstraint(row, b[i], b[i]))
    integrality = np.array([1 if v.binary else 0 for v in model.variables])
    res = milp(c=c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lo, hi))
    assert res.status == 0, f"scipy milp status {res.status}: {res.message}"
    return float(res.fun)


@pytest.fixture(scope="session")
def tutorial_path():
    from importlib import resources
    return str(resources.files("gridxpand").joinpath("data/tutorial_feeder.json"))


@pytest.fixture(scope="session")
def tutorial_net(tutorial_path):
    from gridxpand.network import load_feeder
    return load_feeder(tutorial_path)


# -- crafted feeders for oracle-equivalence and sign-reproduction cases -------------


def feeder_line_upgrade():
    """Flat 4.5 MW behind a 3.5 MVA candidate line: the upgrade is forced."""
    kind = upgrade_kind(0.35, (0.01, 0.02), (0.8, (0.005, 0.01), 60_000.0))
    net = chain_feeder(
        loads={"b2": day_map(("average",), hours((7, 0.3), (10, 0.45), (7, 0.3)))},
        qloads={"b2": day_map(("average",), hours((7, 0.09), (10, 0.14), (7, 0.09)))},
        head_cap=1.0, head_upgrade=0.1, head_cost=16_263.0,
        line_kinds=[kind],
    )
    cand = CandidateSet(reconductor_segments=("l1",), feeder_head_upgrade=True,
                        storage_sites=(), cs_sites=())
    return net, cand, dict(cs_capacity=None)


def feeder_storage_shave():
    """Two-hour 4.2 MW peak over a 4 MVA line: a small battery beats rewiring."""
    kind = upgrade_kind(0.4, (0.01, 0.02), (0.9, (0.005, 0.01), 120_000.0))
    net = chain_feeder(
        loads={"b2": day_map(("average",), hours((10, 0.2), (2, 0.42), (12, 0.2)))},
        head_cap=1.0,
        line_kinds=[kind],
        storage=(storage_unit("b2", invest_cap=0.5, cost=61_000.0),),
    )
    cand = CandidateSet(reconductor_segments=("l1",), feeder_head_upgrade=True,
                        storage_sites=("b2",), cs_sites=())
    return net, cand, dict(cs_capacity=None)


def feeder_vr_undervoltage():
    """Deep flat-load voltage drop beyond the head tap band: regulator needed."""
    net = chain_feeder(
        loads={"b2": day_map(("average",), flat(0.22))},
        qloads={"b2": day_map(("average",), flat(0.07))},
        head_cap=1.0, line_caps=[0.5], line_rx=[(0.5, 0.05)],
        storage=(storage_unit("b2", invest_cap=0.5, cost=61_000.0),),
    )
    cand = CandidateSet(vr_sites=("l1",), feeder_head_upgrade=True,
                        storage_sites=("b2",), cs_sites=())
    return net, cand, dict(cs_capacity=None, vr_install_cost=2504.0)


def feeder_cs_deferral():
    """Noon-peaking load overloads the line; noon solar at the far site
    removes the overload, deferring the reconductoring."""
    days = ("average",)
    kind = upgrade_kind(0.35, (0.01, 0.02), (0.8, (0.005, 0.01), 60_000.0))
    load = hours((8, 0.2), (2, 0.33), (4, 0.42), (2, 0.33), (8, 0.2))
    net = chain_feeder(
        loads={"b2": day_map(days, load)},
        qloads={"b2": day_map(days, load * 0.3)},
        head_cap=1.0, head_upgrade=0.1, head_cost=16_263.0,
        line_kinds=[kind],
        storage=(storage_unit("b1", invest_cap=0.5), storage_unit("b2", invest_cap=0.5)),
        solar=(cs_unit("b1", day_map(days, NOON_CF), invest_cap=0.5),
               cs_unit("b2", day_map(days, NOON_CF), invest_cap=0.5)),
        curtail_price=25.0,
    )
    cand = CandidateSet(reconductor_segments=("l1",), feeder_head_upgrade=True,
                        storage_sites=("b1", "b2"), cs_sites=("b1", "b2"))
    return net, cand, dict(cs_capacity=0.2)


def feeder_cs_hosting():
    """Rooftop PV leaves just enough headroom; project capacity at the far
    site tips the voltage over the band, so integration needs hardware."""
    days = ("average",)
    roof = 0.2105
    net = chain_feeder(
        loads={"b1": day_map(days, flat(0.40)),
               "b2": day_map(days, flat(0.01))},
        head_cap=1.5, line_caps=[0.8], line_rx=[(0.5, 0.02)], head_rx=(0.001, 0.01),
        storage=(storage_unit("b1", invest_cap=0.4), storage_unit("b2", invest_cap=0.4)),
        solar=(rooftop_unit("b2", roof, day_map(days, NOON_CF)),
               cs_unit("b1", day_map(days, NOON_CF), invest_cap=0.4),
               cs_unit("b2", day_map(days, NOON_CF), invest_cap=0.4)),
        curtail_price=60.0,
    )
    cand = CandidateSet(vr_sites=("l1",), feeder_head_upgrade=True,
                        storage_sites=("b1", "b2"), cs_sites=("b1", "b2"))
    return net, cand, dict(cs_capacity=None, vr_install_cost=2504.0)


def feeder_multi_binary():
    """Five-bus chain with three candidate lines, nine free binaries."""
    days = ("average",)
    k1 = upgrade_kind(0.30, (0.01, 0.02), (0.7, (0.005, 0.01), 40_000.0))
    k2 = upgrade_kind(0.25, (0.01, 0.02), (0.6, (0.005, 0.01), 35_000.0))
    k3 = upgrade_kind(0.20, (0.01, 0.02), (0.5, (0.005, 0.01), 30_000.0))
    net = chain_feeder(
        n_load_buses=3, days=days,
        loads={"b3": day_map(days, hours((8, 0.1), (8, 0.22), (8, 0.1))),
               "b4": day_map(days, hours((8, 0.05), (8, 0.12), (8, 0.05)))},
        head_cap=0.6, head_upgrade=0.2, head_cost=16_263.0,
        line_kinds=[k1, k2, k3],
        storage=(storage_unit("b2", invest_cap=0.3), storage_unit("b4", invest_cap=0.3)),
    )
    cand = CandidateSet(reconductor_segments=("l1", "l2", "l3"),
                        feeder_head_upgrade=True,
                        storage_sites=("b2", "b4"), cs_sites=())
    return net, cand, dict(cs_capacity=None)


ORACLE_CASES = [
    ("line_upgrade", feeder_line_upgrade),
    ("storage_shave", feeder_storage_shave),
    ("vr_undervoltage", feeder_vr_undervoltage),
    ("cs_deferral", feeder_cs_deferral),
    ("multi_binary", feeder_multi_binary),
]
