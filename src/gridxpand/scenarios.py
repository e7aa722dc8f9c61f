"""Netload scenarios, candidate screening, and the iterative expansion loop.

Scenario construction scales the feeder homothetically (loads for High Load,
rooftop PV for High Rooftop PV) in fixed steps until one more step would
introduce the first violation under the screening tap rules: the feeder-head
tap sits at its maximum while undervoltage and capacity are checked, and at
its minimum while overvoltage is checked, with regulators neutral.

The expansion loop alternates power-flow screening, model build, and MILP
solve until the imbalance slacks reach zero or the candidate set stops
growing; the surviving plan is re-verified by replaying the dispatch through
the power-flow engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .builder import (
    BuildError,
    CandidateSet,
    PlanDecisions,
    build,
    dispatch_operating_points,
    extract_decisions,
    realized_network,
    slack_total,
)
from .costs import CostDatabase, attach_upgrade_options, default_cost_database
from .milp import MilpModel
from .network import (
    FeederNetwork,
    FixedKind,
    RegulatorKind,
    SolarUnit,
    StorageUnit,
    minimum_daily_load,
    scale_loads,
    scale_rooftop,
)
from .powerflow import (
    FlowResult,
    Violation,
    check_violations,
    operating_point,
    solve_lindistflow,
)
from .solver import Solution, solve_milp

SLACK_TOL_MWH = 1e-6

BASE = "base"
HIGH_PV = "highpv"
HIGH_LOAD = "highload"
SCENARIO_LABELS = (BASE, HIGH_PV, HIGH_LOAD)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs the methodology leaves open; every default is overridable."""

    scale_step: float = 0.05
    scale_max_iter: int = 100
    loading_threshold: float = 0.9
    voltage_margin: float = 0.01
    storage_efficiency: float = 0.85
    storage_reactive_fraction: float = 1.0
    storage_invest_cap_mw: float | None = None  # None: feeder peak load
    solver_gap: float = 1e-4
    node_limit: int = 10 ** 6
    max_rounds: int = 12


@dataclass(frozen=True)
class NetloadScenario:
    label: str
    scale_factor: float
    network: FeederNetwork
    pre_existing_violation: bool = False
    hit_scan_limit: bool = False


@dataclass
class ExpansionResult:
    """Loop outcome; iterates as (solution, candidates, iterations)."""

    solution: Solution
    candidates: CandidateSet
    iterations: int
    status: str  # "resolved" | "unresolved"
    residual_slack_mwh: float
    decisions: PlanDecisions
    network: FeederNetwork  # promoted network the final model was built on
    model: MilpModel
    verification_residual: float = 0.0
    verification_violations: tuple[Violation, ...] = ()

    def __iter__(self):
        return iter((self.solution, self.candidates, self.iterations))


def _scan_violations(net: FeederNetwork, label: str) -> list[Violation]:
    """Scenario-specific screening violations across every hour."""
    out: list[Violation] = []
    for d, h in net.time_index():
        if label in (BASE, HIGH_LOAD):
            res = solve_lindistflow(net, operating_point(net, d, h, tap_rule="peak"))
            out.extend(v for v in check_violations(res, net)
                       if v.kind in ("undervoltage", "overload"))
        if label in (BASE, HIGH_PV):
            res = solve_lindistflow(net, operating_point(net, d, h, tap_rule="solar"))
            out.extend(v for v in check_violations(res, net)
                       if v.kind in ("overvoltage", "overload"))
    return out


def _scaled(net: FeederNetwork, label: str, factor: float) -> FeederNetwork:
    if label == HIGH_LOAD:
        return scale_loads(net, factor)
    if label == HIGH_PV:
        return scale_rooftop(net, factor)
    return net


def make_scenario(net: FeederNetwork, label: str, step: float = 0.05,
                  max_iter: int = 100) -> NetloadScenario:
    """Largest scaling, in step multiples, whose next step first violates."""
    if label not in SCENARIO_LABELS:
        raise ValueError(f"unknown scenario label {label!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    if label == BASE:
        return NetloadScenario(label=BASE, scale_factor=1.0, network=net)
    if label == HIGH_PV and not net.rooftop_units():
        return NetloadScenario(label=label, scale_factor=1.0, network=net,
                               hit_scan_limit=True)
    if _scan_violations(net, label):
        return NetloadScenario(label=label, scale_factor=1.0, network=net,
                               pre_existing_violation=True)
    k = 0
    while k < max_iter:
        nxt = _scaled(net, label, 1.0 + (k + 1) * step)
        if _scan_violations(nxt, label):
            break
        k += 1
    factor = 1.0 + k * step
    return NetloadScenario(label=label, scale_factor=factor,
                           network=_scaled(net, label, factor),
                           hit_scan_limit=k >= max_iter)


def screening_flows(net: FeederNetwork) -> list[FlowResult]:
    """Both tap-rule passes over every scenario hour, tagged by rule."""
    flows = []
    for d, h in net.time_index():
        for rule in ("peak", "solar"):
            res = solve_lindistflow(net, operating_point(net, d, h, tap_rule=rule))
            flows.append(replace(res, tap_rule=rule))
    return flows


def storage_cs_sites(net: FeederNetwork) -> tuple[str, ...]:
    """Feeder-head, median-depth, and deepest buses (duplicates dropped)."""
    depths = net.depths()
    head_bus = net.segment(net.feeder_head_segment).to_bus
    candidates = sorted(b for b in depths if b != net.source_bus)
    if not candidates:
        return (head_bus,)
    # ties on depth resolve to the lower bus id
    depth_values = sorted(depths[b] for b in candidates)
    median = depth_values[(len(depth_values) - 1) // 2]
    mid = min(b for b in candidates if depths[b] == median)
    deepest_depth = max(depth_values)
    deepest = min(b for b in candidates if depths[b] == deepest_depth)
    return tuple(dict.fromkeys((head_bus, mid, deepest)))


def random_site(net: FeederNetwork, seed: int) -> str:
    """The seeded random siting draw over the storage/CS sites."""
    return random.Random(seed).choice(storage_cs_sites(net))


def select_candidates(net: FeederNetwork, flows: list[FlowResult],
                      config: EngineConfig = EngineConfig()) -> CandidateSet:
    """Screen solved flows for upgrade candidates.

    Segments at or above the loading threshold become reconductoring
    candidates (the feeder head becomes a transformer-upgrade candidate);
    buses within the voltage margin of either band edge nominate their
    adjacent segments for a regulator; storage and community-solar share the
    three fixed sites.
    """
    peak_loading: dict[str, float] = {s.id: 0.0 for s in net.segments}
    vmin_seen: dict[str, float] = {b.id: math.inf for b in net.buses}
    vmax_seen: dict[str, float] = {b.id: -math.inf for b in net.buses}
    for res in flows:
        for sid, load in res.loading.items():
            peak_loading[sid] = max(peak_loading[sid], load)
        # low voltages only matter under the boosted (peak) pass, high ones
        # under the reduced (solar) pass; untagged flows count for both
        for bid, v2 in res.v2.items():
            v = math.sqrt(max(v2, 0.0))
            if res.tap_rule in ("", "peak"):
                vmin_seen[bid] = min(vmin_seen[bid], v)
            if res.tap_rule in ("", "solar"):
                vmax_seen[bid] = max(vmax_seen[bid], v)

    head = net.segment(net.feeder_head_segment)
    recond: list[str] = []
    fh_upgrade = peak_loading[head.id] >= config.loading_threshold
    for seg in net.segments:
        if seg.id == head.id or isinstance(seg.kind, RegulatorKind):
            continue
        if peak_loading[seg.id] >= config.loading_threshold:
            recond.append(seg.id)

    vr: list[str] = []
    by_from: dict[str, list[str]] = {}
    parent: dict[str, str] = {}
    for seg in net.segments:
        by_from.setdefault(seg.from_bus, []).append(seg.id)
        parent[seg.to_bus] = seg.id
    for b in net.buses:
        near_low = vmin_seen[b.id] <= b.vmin + config.voltage_margin
        near_high = vmax_seen[b.id] >= b.vmax - config.voltage_margin
        if not (near_low or near_high):
            continue
        for sid in [parent.get(b.id)] + by_from.get(b.id, []):
            if sid is None or sid == head.id or sid in recond:
                continue
            seg = net.segment(sid)
            if isinstance(seg.kind, RegulatorKind):
                continue
            if sid not in vr:
                vr.append(sid)

    sites = storage_cs_sites(net)
    return CandidateSet(
        reconductor_segments=tuple(recond),
        feeder_head_upgrade=fh_upgrade,
        vr_sites=tuple(vr),
        storage_sites=sites,
        cs_sites=sites,
    )


def size_cs_capacity(net: FeederNetwork) -> float:
    """Project size in per-unit MW: the file's value, else the minimum daily
    load of the average day (Base conditions)."""
    if net.cs_total_capacity is not None:
        return net.cs_total_capacity
    labels = [d.label for d in net.scenario_days]
    day = "average" if "average" in labels else labels[-1]
    mdl = minimum_daily_load(net, day) / net.base_mva
    return max(mdl, 0.0)


def _cs_profile_template(net: FeederNetwork) -> SolarUnit | None:
    declared = net.cs_units()
    if declared:
        return declared[0]
    rooftop = net.rooftop_units()
    if rooftop:
        return rooftop[0]
    return None


def promote_candidates(net: FeederNetwork, cand: CandidateSet, db: CostDatabase, *,
                       with_cs: bool, cs_capacity: float,
                       config: EngineConfig = EngineConfig()) -> FeederNetwork:
    """Attach the data the model needs at the selected candidates.

    Reconductoring candidates without declared options get them from the
    conductor tables; candidate storage (and, with CS, solar) units are
    created at any site that lacks one.
    """
    segments = []
    for seg in net.segments:
        if seg.id in cand.reconductor_segments and isinstance(seg.kind, FixedKind):
            segments.append(attach_upgrade_options(seg, db, net))
        else:
            segments.append(seg)

    invest_cap = config.storage_invest_cap_mw
    if invest_cap is None:
        peak = max(max(float(b.active_load[d][h]) for b in net.buses)
                   for d, h in net.time_index())
        total_peak = max(net.total_active_load(d, h) for d, h in net.time_index())
        invest_cap = max(total_peak, peak, cs_capacity, 1e-3)
    else:
        invest_cap = invest_cap / net.base_mva

    storage = list(net.storage_units)
    have_storage = {u.bus for u in storage if u.status == "candidate"}
    for bus in cand.storage_sites:
        if bus in have_storage:
            continue
        storage.append(StorageUnit(
            id=f"bess@{bus}", bus=bus, status="candidate",
            p_in_max=1.0, p_out_max=1.0, duration=db.bess.duration_h,
            efficiency=config.storage_efficiency,
            reactive_fraction=config.storage_reactive_fraction,
            annual_cost_per_mw=db.bess_annual_cost_per_mw(),
            invest_cap=invest_cap,
        ))

    solar = list(net.solar_units)
    if with_cs:
        template = _cs_profile_template(net)
        have_cs = {u.bus for u in solar if u.role == "cs_candidate"}
        for bus in cand.cs_sites:
            if bus in have_cs:
                continue
            if template is None:
                raise BuildError(
                    "no solar profile available to derive a community-solar "
                    "candidate; declare a cs_candidate or rooftop unit")
            solar.append(SolarUnit(
                id=f"cs@{bus}", bus=bus, role="cs_candidate",
                capacity_factor=dict(template.capacity_factor),
                invest_cap=max(cs_capacity, 1e-9),
            ))

    return replace(net, segments=tuple(segments), storage_units=tuple(storage),
                   solar_units=tuple(solar))


def _normalized(cand: CandidateSet) -> CandidateSet:
    vr = tuple(s for s in cand.vr_sites if s not in cand.reconductor_segments)
    return replace(cand, vr_sites=vr)


def _escalate(net: FeederNetwork, sol: Solution, cand: CandidateSet) -> CandidateSet:
    """Grow the candidate set toward buses that still needed slack."""
    slack_buses = set()
    for family in ("slack_p_pos", "slack_p_neg", "slack_q_pos", "slack_q_neg"):
        for idx, val in sol.family_values(family).items():
            if val > 1e-9:
                slack_buses.add(idx[0])
    if not slack_buses:
        return cand
    head = net.segment(net.feeder_head_segment)
    parent = {s.to_bus: s for s in net.segments}
    recond, vr = [], []
    for bus in sorted(slack_buses):
        node = bus
        while node in parent:
            seg = parent[node]
            if seg.id != head.id and not isinstance(seg.kind, RegulatorKind):
                recond.append(seg.id)
                vr.append(seg.id)
            node = seg.from_bus
    extra = CandidateSet(reconductor_segments=tuple(dict.fromkeys(recond)),
                         feeder_head_upgrade=True,
                         vr_sites=tuple(dict.fromkeys(vr)))
    return cand.union(extra)


def _setup(net: FeederNetwork, scenario: NetloadScenario, with_cs: bool,
           siting_mode: str, fixed_site: str | None, costdb: CostDatabase | None,
           config: EngineConfig):
    """Size the CS capacity, screen the scenario once and check the fixed site.

    Returns the first candidate set and the round step, which turns a
    candidate set into its (active candidates, promoted network, model).
    """
    db = costdb if costdb is not None else default_cost_database()
    work = scenario.network
    cs_cap = size_cs_capacity(net) if with_cs else 0.0
    if with_cs and cs_cap <= 0:
        raise BuildError("community-solar capacity is zero; nothing to integrate")

    cand = select_candidates(work, screening_flows(work), config)
    if with_cs and siting_mode == "fixed":
        if fixed_site not in cand.cs_sites:
            raise BuildError(f"fixed site {fixed_site!r} is not one of the candidate "
                             f"sites {cand.cs_sites}")
    vr_cost = db.vr_annual_cost(work.region)

    def build_round(cand: CandidateSet) -> tuple[CandidateSet, FeederNetwork, MilpModel]:
        active = _normalized(cand)
        promoted = promote_candidates(work, active, db, with_cs=with_cs,
                                      cs_capacity=cs_cap, config=config)
        model = build(promoted, active,
                      siting_mode if with_cs else "optimal",
                      cs_capacity=cs_cap if with_cs else None,
                      fixed_site=fixed_site if with_cs else None,
                      vr_install_cost=vr_cost)
        return active, promoted, model
    return cand, build_round


def first_round_model(net: FeederNetwork, scenario: NetloadScenario, with_cs: bool,
                      siting_mode: str = "optimal", *,
                      fixed_site: str | None = None,
                      costdb: CostDatabase | None = None,
                      config: EngineConfig = EngineConfig()) -> MilpModel:
    """The model the first round of ``expansion_loop`` solves."""
    cand, build_round = _setup(net, scenario, with_cs, siting_mode, fixed_site,
                               costdb, config)
    return build_round(cand)[2]


def expansion_loop(net: FeederNetwork, scenario: NetloadScenario, with_cs: bool,
                   siting_mode: str = "optimal", *,
                   fixed_site: str | None = None,
                   costdb: CostDatabase | None = None,
                   config: EngineConfig = EngineConfig()) -> ExpansionResult:
    """Iterate screening, build, and solve until the slacks vanish.

    ``net`` is the unscaled feeder (community-solar sizing always reflects
    Base conditions); ``scenario.network`` is what gets planned.
    """
    cand, build_round = _setup(net, scenario, with_cs, siting_mode, fixed_site,
                               costdb, config)
    for iterations in range(1, config.max_rounds + 1):
        active, promoted, model = build_round(cand)
        sol = solve_milp(model, gap=config.solver_gap, node_limit=config.node_limit)
        residual_mwh = slack_total(sol) * promoted.base_mva
        if sol.status in ("optimal", "gap_limit") and residual_mwh < SLACK_TOL_MWH:
            return _finish(promoted, active, model, sol, iterations, "resolved",
                           residual_mwh)
        grown = _escalate(promoted, sol, cand)
        plan_net = realized_network(promoted, model, sol, active)
        grown = grown.union(select_candidates(plan_net, screening_flows(plan_net), config))
        if grown == cand:
            break
        cand = grown
    sol.resolved = False
    return _finish(promoted, active, model, sol, iterations, "unresolved", residual_mwh)


def _finish(promoted: FeederNetwork, cand: CandidateSet, model: MilpModel,
            sol: Solution, iterations: int, status: str,
            residual_mwh: float) -> ExpansionResult:
    decisions = extract_decisions(promoted, model, sol, cand)
    worst = 0.0
    violations: list[Violation] = []
    if sol.x is not None and status == "resolved":
        plan_net = realized_network(promoted, model, sol, cand)
        v2 = sol.family_values("v2")
        for op in dispatch_operating_points(promoted, model, sol):
            res = solve_lindistflow(plan_net, op)
            for b in promoted.buses:
                worst = max(worst, abs(res.v2[b.id] - v2[(b.id, op.day, op.hour)]))
            violations.extend(check_violations(res, plan_net, tol=1e-6))
    return ExpansionResult(
        solution=sol, candidates=cand, iterations=iterations, status=status,
        residual_slack_mwh=residual_mwh, decisions=decisions, network=promoted,
        model=model, verification_residual=worst,
        verification_violations=tuple(violations))
