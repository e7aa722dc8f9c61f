"""Expansion-planning MILP builder.

Builds the least-cost upgrade model for one feeder over the weighted
representative days: nodal active/reactive balance with penalized imbalance
slacks, squared-voltage drop per segment, box plus octagonal apparent-power
limits on every segment class, reconductoring option selection, feeder-head
transformer upgrade, voltage-regulator installation with tap bands,
community-solar placement coupled to storage siting, and cyclic per-day
battery dispatch.

Segment classes are disjoint per model: the feeder head; regulator segments
(existing, declared candidates, and screening-promoted sites); reconductoring
candidates activated by the candidate set; everything else fixed. Big-M
constants are derived per constraint from variable bounds, never a global
constant.

Constraint families carry their row tags ("Eq2[n,day,h]", ...) and the model
metadata counts every family instance, including families realized as pure
variable bounds, so audits can check instance counts against closed-form
formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .milp import EQUAL, GREATER_EQUAL, LESS_EQUAL, MilpModel, VarRef
from .network import (
    CandidateUpgradeKind,
    FeederHeadKind,
    FeederNetwork,
    FixedKind,
    LineSegment,
    RegulatorKind,
    StorageUnit,
)
from .powerflow import OperatingPoint, octagon_cuts
from .solver import Solution

DUMMY_SITE = "__site0__"


class BuildError(ValueError):
    """Candidate set or capacity data inconsistent with the network."""


@dataclass(frozen=True)
class CandidateSet:
    """Which elements the expansion model may invest in.

    Storage and community-solar sites are the same three locations (feeder
    head, middle, end); ``vr_sites`` name segments that may receive a
    regulator, ``reconductor_segments`` name segments with upgrade options.
    """

    reconductor_segments: tuple[str, ...] = ()
    feeder_head_upgrade: bool = False
    vr_sites: tuple[str, ...] = ()
    storage_sites: tuple[str, ...] = ()
    cs_sites: tuple[str, ...] = ()

    def union(self, other: "CandidateSet") -> "CandidateSet":
        def merge(a, b):
            return tuple(dict.fromkeys(tuple(a) + tuple(b)))
        return CandidateSet(
            reconductor_segments=merge(self.reconductor_segments, other.reconductor_segments),
            feeder_head_upgrade=self.feeder_head_upgrade or other.feeder_head_upgrade,
            vr_sites=merge(self.vr_sites, other.vr_sites),
            storage_sites=merge(self.storage_sites, other.storage_sites),
            cs_sites=merge(self.cs_sites, other.cs_sites),
        )

    def issubset(self, other: "CandidateSet") -> bool:
        return (set(self.reconductor_segments) <= set(other.reconductor_segments)
                and self.feeder_head_upgrade <= other.feeder_head_upgrade
                and set(self.vr_sites) <= set(other.vr_sites)
                and set(self.storage_sites) <= set(other.storage_sites)
                and set(self.cs_sites) <= set(other.cs_sites))


@dataclass
class _Ctx:
    """Column positions shared by the per-family builders.

    Hourly families map an element id to its columns over the horizon (one
    per ``times`` entry); investment families map an element id to a column.
    """

    net: FeederNetwork
    model: MilpModel
    times: list[tuple[str, int]]
    fixed_segs: list[LineSegment]
    cand_segs: list[LineSegment]
    vr_segs: list[LineSegment]  # existing + candidate regulators
    vr_cand_ids: set[str]
    head: LineSegment
    fh_candidate: bool
    storage_existing: list[StorageUnit]
    storage_cand: list[StorageUnit]
    cs_units: list  # SolarUnit candidates in play
    cs_capacity: float
    siting_mode: str
    fixed_site: str | None
    f_p: dict = field(default_factory=dict)
    f_q: dict = field(default_factory=dict)
    v2: dict = field(default_factory=dict)
    v2mid: dict = field(default_factory=dict)
    p_subs: np.ndarray | None = None
    q_subs: np.ndarray | None = None
    slack: dict = field(default_factory=dict)  # (axis, sign) -> columns, (hour, bus)
    g_rts: dict = field(default_factory=dict)
    g_cs: dict = field(default_factory=dict)
    g_crt: dict = field(default_factory=dict)
    x_cs: dict = field(default_factory=dict)
    x_line: dict = field(default_factory=dict)  # segment -> one column per option
    x_fh: int = -1
    x_vr: dict = field(default_factory=dict)
    x_st: dict = field(default_factory=dict)
    x_st_bin: dict = field(default_factory=dict)
    p_in: dict = field(default_factory=dict)
    p_out: dict = field(default_factory=dict)
    q_st: dict = field(default_factory=dict)
    soc: dict = field(default_factory=dict)
    soc0: dict = field(default_factory=dict)  # unit -> one column per day
    f_trf: dict = field(default_factory=dict)
    f_upd: dict = field(default_factory=dict)


def _series(profile, days) -> np.ndarray:
    """A per-day profile as one value per (day, hour) of the horizon."""
    return np.concatenate([np.asarray(profile[d.label], dtype=float)[:d.hours]
                           for d in days])


def _stack(by_id: dict, ids) -> np.ndarray:
    """Hourly columns of the listed elements, element-major."""
    return np.stack([by_id[i] for i in ids]).ravel() if ids else np.zeros(0, dtype=int)


def _rows(m: MilpModel, axes, kinds) -> None:
    """Append a row block and count its rows under each kind's family."""
    m.add_rows(axes, kinds)
    n = math.prod(len(a) for a in axes)
    if n:
        for tag, *_ in kinds:
            m.count(tag.split("[")[0], n)


def _classify(net: FeederNetwork, candidates: CandidateSet) -> tuple[
        LineSegment, list[LineSegment], list[LineSegment], list[LineSegment], set[str]]:
    known = {s.id for s in net.segments}
    for sid in candidates.reconductor_segments:
        if sid not in known:
            raise BuildError(f"reconductor candidate {sid!r} is not a segment")
    for sid in candidates.vr_sites:
        if sid not in known:
            raise BuildError(f"regulator candidate {sid!r} is not a segment")
    overlap = set(candidates.reconductor_segments) & set(candidates.vr_sites)
    if overlap:
        raise BuildError(f"segments {sorted(overlap)} are both reconductoring and "
                         "regulator candidates; the segment classes must be disjoint")

    head = net.segment(net.feeder_head_segment)
    fixed, cand, vr = [], [], []
    vr_cand_ids: set[str] = set()
    recond = set(candidates.reconductor_segments)
    vr_sites = set(candidates.vr_sites)
    for seg in net.segments:
        if seg.id == head.id:
            if seg.id in recond or seg.id in vr_sites:
                raise BuildError("the feeder head cannot be a line or regulator candidate")
            continue
        if isinstance(seg.kind, RegulatorKind):
            if seg.id in recond:
                raise BuildError(f"regulator segment {seg.id!r} cannot be reconductored")
            vr.append(seg)
            if not seg.kind.existing:
                vr_cand_ids.add(seg.id)
            continue
        if seg.id in recond:
            if not isinstance(seg.kind, CandidateUpgradeKind):
                raise BuildError(f"segment {seg.id!r} has no upgrade options; promote it "
                                 "with the cost database before building")
            cand.append(seg)
            continue
        if seg.id in vr_sites:
            # promote in place: a candidate regulator keeps the line impedance
            # and capacity and adds a tap changer when built
            promoted = replace(seg, kind=RegulatorKind(
                existing=False, capacity=seg.capacity, install_cost=0.0))
            vr.append(promoted)
            vr_cand_ids.add(seg.id)
            continue
        fixed.append(seg)
    return head, fixed, cand, vr, vr_cand_ids


def build(net: FeederNetwork, candidates: CandidateSet, siting_mode: str = "optimal", *,
          cs_capacity: float | None = None, fixed_site: str | None = None,
          vr_install_cost: float | None = None) -> MilpModel:
    """Assemble the expansion MILP.

    ``cs_capacity`` (per-unit MW) switches the community-solar project on;
    None builds the without-CS counterfactual. ``siting_mode`` is "optimal"
    (placement decided by the model) or "fixed" (all capacity at
    ``fixed_site``). ``vr_install_cost`` overrides the per-segment regulator
    cost for screening-promoted sites.
    """
    if siting_mode not in ("fixed", "optimal"):
        raise BuildError(f"unknown siting mode {siting_mode!r}")
    head, fixed, cand, vr, vr_cand_ids = _classify(net, candidates)
    if vr_install_cost is not None:
        vr = [replace(s, kind=replace(s.kind, install_cost=vr_install_cost))
              if s.id in vr_cand_ids and s.kind.install_cost == 0.0 else s
              for s in vr]
    assert isinstance(head.kind, FeederHeadKind)

    bus_ids = {b.id for b in net.buses}
    for bus in tuple(candidates.storage_sites) + tuple(candidates.cs_sites):
        if bus not in bus_ids:
            raise BuildError(f"site {bus!r} is not a bus")

    storage_sites = set(candidates.storage_sites)
    storage_existing = [u for u in net.storage_units if u.status == "existing"]
    storage_cand = [u for u in net.storage_units
                    if u.status == "candidate" and u.bus in storage_sites]

    with_cs = cs_capacity is not None and cs_capacity > 0
    cs_sites = set(candidates.cs_sites)
    cs_units = [u for u in net.cs_units() if u.bus in cs_sites] if with_cs else []
    if with_cs:
        if not cs_units:
            raise BuildError("with-CS build requires community-solar candidate units "
                             "at the candidate sites")
        if siting_mode == "fixed":
            if fixed_site is None:
                raise BuildError("fixed siting requires a site bus")
            if fixed_site not in {u.bus for u in cs_units}:
                raise BuildError(f"no community-solar candidate at bus {fixed_site!r}")
        cand_buses = {u.bus for u in cs_units}
        missing = cand_buses - {u.bus for u in storage_cand}
        if missing:
            raise BuildError(f"community-solar sites {sorted(missing)} lack a candidate "
                             "storage unit for colocation")
        total_cap = sum(u.invest_cap for u in cs_units)
        if cs_capacity > total_cap + 1e-12:
            raise BuildError(f"project capacity {cs_capacity} exceeds the summed site "
                             f"limits {total_cap}")
        if cs_capacity > max(u.invest_cap for u in cs_units) + 1e-12:
            raise BuildError("project capacity exceeds every single site limit; "
                             "colocation admits one site only")

    model = MilpModel(name=f"expansion[{'cs' if with_cs else 'nocs'}]")
    ctx = _Ctx(
        net=net, model=model,
        times=net.time_index(),
        fixed_segs=fixed, cand_segs=cand, vr_segs=vr, vr_cand_ids=vr_cand_ids,
        head=head, fh_candidate=candidates.feeder_head_upgrade,
        storage_existing=storage_existing, storage_cand=storage_cand,
        cs_units=cs_units, cs_capacity=cs_capacity if with_cs else 0.0,
        siting_mode=siting_mode, fixed_site=fixed_site,
    )
    _declare_variables(ctx)
    _build_objective(ctx)
    _build_nodal(ctx)
    _build_fixed_lines(ctx)
    _build_candidate_lines(ctx)
    _build_taps(ctx)
    _build_transformers(ctx)
    _build_solar(ctx)
    _build_colocation(ctx)
    _build_storage(ctx)
    return model


# -- variable declaration -------------------------------------------------------


def _declare_variables(ctx: _Ctx) -> None:
    net, m = ctx.net, ctx.model
    INF = float("inf")
    head_kind: FeederHeadKind = ctx.head.kind
    times, days = ctx.times, net.scenario_days
    T = len(times)
    hours = np.arange(T)

    fixed_ids = {s.id for s in ctx.fixed_segs}
    seg_ids = [s.id for s in net.segments]
    cap = np.array([s.capacity if s.id in fixed_ids else INF for s in net.segments])
    cols = m.reserve(2 * len(seg_ids) * T) + 2 * np.arange(len(seg_ids) * T)
    lo, hi = np.repeat(-cap, T), np.repeat(cap, T)
    # f_p and f_q alternate per (segment, hour)
    for name, by_id, pos in (("f_p", ctx.f_p, cols), ("f_q", ctx.f_q, cols + 1)):
        m.add_vars(name, (seg_ids, times), lo=lo, hi=hi, pos=pos)
        by_id.update(zip(seg_ids, pos.reshape(len(seg_ids), T)))
    m.count("Eq6", len(ctx.fixed_segs) * T)
    m.count("Eq7", len(ctx.fixed_segs) * T)

    source = net.source_bus
    vref2 = net.v_ref ** 2
    bounds = []
    for b in net.buses:
        lo, hi = b.vmin ** 2, b.vmax ** 2
        if b.id == source:
            if not (lo <= vref2 <= hi):
                raise BuildError(f"reference voltage {net.v_ref} outside the band of "
                                 f"bus {b.id!r}")
            lo = hi = vref2
        bounds.append((lo, hi))
    bus_ids = [b.id for b in net.buses]
    lo, hi = np.array(bounds).reshape(len(bus_ids), 2).T
    pos = m.add_vars("v2", (bus_ids, times), lo=np.repeat(lo, T), hi=np.repeat(hi, T))
    ctx.v2.update(zip(bus_ids, pos.reshape(len(bus_ids), T)))
    m.count("Eq5", len(net.buses) * T)
    m.count("Eq4", T)  # one feeder head

    tap_ids = [s.id for s in [ctx.head] + ctx.vr_segs]
    pos = m.add_vars("v2mid", (tap_ids, times), lo=0.0, hi=INF)
    ctx.v2mid.update(zip(tap_ids, pos.reshape(len(tap_ids), T)))

    # per hour: p_subs, q_subs, then the four imbalance slacks of every bus
    N = len(bus_ids)
    stride = 2 + 4 * N
    first = m.reserve(T * stride) + stride * hours
    ctx.p_subs = m.add_vars("p_subs", (times,), lo=-INF, hi=INF, pos=first)
    ctx.q_subs = m.add_vars("q_subs", (times,), lo=-INF, hi=INF, pos=first + 1)
    k = 0
    for axis in ("p", "q"):
        for sign in ("pos", "neg"):
            pos = (first[:, None] + 2 + k + 4 * np.arange(N)[None, :]).ravel()
            ctx.slack[axis, sign] = m.add_vars(f"slack_{axis}_{sign}", (times, bus_ids),
                                               lo=0.0, hi=INF, pos=pos, perm=(1, 0))
            k += 1

    rooftop = net.rooftop_units()
    for u in rooftop:
        out = u.installed_capacity * _series(u.capacity_factor, days)
        ctx.g_rts[u.id] = m.add_vars("g_rts", ([u.id], times), lo=out, hi=out)
    m.count("Eq30", len(rooftop) * T)

    for u in ctx.cs_units:
        first = m.reserve(1 + 2 * T)
        if ctx.siting_mode == "fixed":
            cap = ctx.cs_capacity if u.bus == ctx.fixed_site else 0.0
            lo, hi = cap, cap
        else:
            lo, hi = 0.0, u.invest_cap
        ctx.x_cs[u.id] = int(m.add_vars("x_cs", ([u.id],), lo=lo, hi=hi,
                                        pos=np.array([first]))[0])
        pos = first + 1 + 2 * hours
        ctx.g_cs[u.id] = m.add_vars("g_cs", ([u.id], times), lo=0.0, hi=INF, pos=pos)
        ctx.g_crt[u.id] = m.add_vars("g_crt", ([u.id], times), lo=0.0, hi=INF,
                                     pos=pos + 1)

    for seg in ctx.cand_segs:
        opts = seg.kind.options
        ctx.x_line[seg.id] = m.add_vars("x_line", ([seg.id], range(len(opts))),
                                        lo=0, hi=1, binary=True)
        ctx.f_upd[seg.id] = _one(m, "f_upd", seg.id, 0.0, max(o.capacity for o in opts))
        m.count("Eq13", len(opts))

    fh_hi = 1.0 if (ctx.fh_candidate and head_kind.upgrade_capacity > 0) else 0.0
    ctx.x_fh = _one(m, "x_fh", ctx.head.id, 0.0, fh_hi, binary=True)
    m.count("Eq24", 1)

    cap_hi = head_kind.base_capacity + head_kind.upgrade_capacity
    ctx.f_trf[ctx.head.id] = _one(m, "f_trf", ctx.head.id, 0.0, cap_hi)
    for seg in ctx.vr_segs:
        cap = seg.kind.capacity
        ctx.f_trf[seg.id] = _one(m, "f_trf", seg.id, cap, cap)
    m.count("Eq23", len(ctx.vr_segs))

    for seg in ctx.vr_segs:
        if seg.id in ctx.vr_cand_ids:
            ctx.x_vr[seg.id] = _one(m, "x_vr", seg.id, 0, 1, binary=True)
    m.count("Eq21", len(ctx.x_vr))

    storage_all = ctx.storage_existing + ctx.storage_cand
    for u in ctx.storage_cand:
        ctx.x_st[u.id] = _one(m, "x_st", u.id, 0.0, u.invest_cap)
        ctx.x_st_bin[u.id] = _one(m, "x_st_bin", u.id, 0, 1, binary=True)
    if not ctx.storage_cand:
        # keep the site-selection row well-defined with a zero-capacity site
        ctx.x_st_bin[DUMMY_SITE] = _one(m, "x_st_bin", DUMMY_SITE, 0, 1, binary=True)
    m.count("Eq35", len(ctx.x_st_bin))

    # per unit: p_in, p_out, soc and q_st per hour, then soc0 per day
    for u in storage_all:
        cand = u.status == "candidate"
        p_hi = (u.invest_cap * u.p_in_max) if cand else u.p_in_max
        o_hi = (u.invest_cap * u.p_out_max) if cand else u.p_out_max
        s_hi = u.duration * p_hi
        q_hi = u.reactive_fraction * p_hi
        first = m.reserve(4 * T + len(days))
        for k, (name, by_id, lo, hi) in enumerate((
                ("p_in", ctx.p_in, 0.0, p_hi), ("p_out", ctx.p_out, 0.0, o_hi),
                ("soc", ctx.soc, 0.0, s_hi), ("q_st", ctx.q_st, -q_hi, q_hi))):
            by_id[u.id] = m.add_vars(name, ([u.id], times), lo=lo, hi=hi,
                                     pos=first + k + 4 * hours)
        ctx.soc0[u.id] = m.add_vars("soc0", ([u.id], [d.label for d in days]),
                                    lo=0.0, hi=s_hi,
                                    pos=first + 4 * T + np.arange(len(days)))
    m.count("Eq40", len(ctx.storage_existing) * T)
    m.count("Eq42", len(ctx.storage_existing) * T)
    m.count("Eq44", len(ctx.storage_existing) * T)
    m.count("Eq46", len(ctx.storage_existing) * T)


def _one(m: MilpModel, family: str, element: str, lo, hi, binary: bool = False) -> int:
    """Declare the single variable ``family[element]``; returns its column."""
    return int(m.add_vars(family, ([element],), lo=lo, hi=hi, binary=binary)[0])


# -- objective -------------------------------------------------------------------


def _build_objective(ctx: _Ctx) -> None:
    net, m = ctx.net, ctx.model
    base = net.base_mva
    m.add_costs("storage", [ctx.x_st[u.id] for u in ctx.storage_cand],
                [u.annual_cost_per_mw * base for u in ctx.storage_cand])
    vr = [seg for seg in ctx.vr_segs if seg.id in ctx.x_vr]
    m.add_costs("regulator", [ctx.x_vr[seg.id] for seg in vr],
                [seg.kind.install_cost for seg in vr])
    m.add_costs("line", np.concatenate([ctx.x_line[seg.id] for seg in ctx.cand_segs])
                if ctx.cand_segs else [],
                [opt.annual_cost_per_mva * opt.capacity * base
                 for seg in ctx.cand_segs for opt in seg.kind.options])
    m.add_costs("feeder_head", [ctx.x_fh], ctx.head.kind.upgrade_cost)
    days = net.scenario_days
    weight = np.repeat([d.weight for d in days], [d.hours for d in days])
    # the slacks in column order: hour by hour, bus by bus, p/q pos/neg
    slack = np.stack([ctx.slack[axis, sign] for axis in ("p", "q")
                      for sign in ("pos", "neg")], axis=1)
    per_hour = (net.imbalance_cost * weight * base).repeat(slack.size // len(weight))
    m.add_costs("imbalance", slack.ravel(), per_hour)
    prices = {d.label: np.asarray(net.curtailment_price[d.label], dtype=float)[:d.hours]
              if d.label in net.curtailment_price else np.zeros(d.hours) for d in days}
    price = _series(prices, days) * weight * base
    m.add_costs("curtailment", _stack(ctx.g_crt, [u.id for u in ctx.cs_units]),
                np.tile(price, len(ctx.cs_units)))


# -- nodal balance ----------------------------------------------------------------


def _build_nodal(ctx: _Ctx) -> None:
    net, m = ctx.net, ctx.model
    days = net.scenario_days
    T = len(ctx.times)
    bus_ids = [b.id for b in net.buses]
    N = len(bus_ids)
    at = {b: i for i, b in enumerate(bus_ids)}
    hours = np.arange(T)

    def cells(buses) -> np.ndarray:
        """Cells of the (hour, bus) grid at each listed bus, bus-major."""
        return (np.array([at[b] for b in buses], dtype=int)[:, None]
                + N * hours[None, :]).ravel()

    segs = net.segments
    seg_ids = [s.id for s in segs]
    into = cells([s.to_bus for s in segs])
    outof = cells([s.from_bus for s in segs])
    src = cells([net.source_bus])
    rooftop = net.rooftop_units()
    storage = ctx.storage_existing + ctx.storage_cand

    beta = net.loss_factors
    incident: dict[str, list[str]] = {b: [] for b in bus_ids}
    for seg in segs:
        incident[seg.to_bus].append(seg.id)
    for seg in segs:
        incident[seg.from_bus].append(seg.id)
    beta_p = [sum(beta.get(sid, (0.0, 0.0))[0] for sid in incident[b]) for b in bus_ids]
    beta_q = [sum(beta.get(sid, (0.0, 0.0))[1] for sid in incident[b]) for b in bus_ids]
    total_p = np.zeros(T)
    total_q = np.zeros(T)
    for b in net.buses:  # bus by bus, as the hourly totals sum
        total_p = total_p + _series(b.active_load, days)
        total_q = total_q + _series(b.reactive_load, days)
    half_p = np.array([bp / 2.0 for bp in beta_p])
    half_q = np.array([bq / 2.0 for bq in beta_q])
    load_p = np.stack([_series(b.active_load, days) for b in net.buses], axis=1)
    load_q = np.stack([_series(b.reactive_load, days) for b in net.buses], axis=1)

    # loss allocation: half of each incident segment's loss share of the
    # system-wide net load; generation reduces the allocated loss
    lossy = [i for i, bp in enumerate(beta_p) if bp]
    loss_terms = [(np.tile(cols, len(lossy)), half_p[lossy].repeat(T), cells(
                   [bus_ids[i] for i in lossy]))
                  for cols in [ctx.g_rts[u.id] for u in rooftop]
                  + [ctx.g_cs[u.id] for u in ctx.cs_units]]
    p_terms = [
        (ctx.p_subs, 1.0, src),
        (_stack(ctx.f_p, seg_ids), 1.0, into),
        (_stack(ctx.f_p, seg_ids), -1.0, outof),
        (_stack(ctx.g_cs, [u.id for u in ctx.cs_units]), 1.0,
         cells([u.bus for u in ctx.cs_units])),
        (_stack(ctx.g_rts, [u.id for u in rooftop]), 1.0, cells([u.bus for u in rooftop])),
        (_stack(ctx.p_out, [u.id for u in storage]), 1.0, cells([u.bus for u in storage])),
        (_stack(ctx.p_in, [u.id for u in storage]), -1.0, cells([u.bus for u in storage])),
        *loss_terms,
        (ctx.slack["p", "neg"], 1.0),
        (ctx.slack["p", "pos"], -1.0),
    ]
    q_terms = [
        (ctx.q_subs, 1.0, src),
        (_stack(ctx.f_q, seg_ids), 1.0, into),
        (_stack(ctx.f_q, seg_ids), -1.0, outof),
        (_stack(ctx.q_st, [u.id for u in storage]), 1.0, cells([u.bus for u in storage])),
        (ctx.slack["q", "neg"], 1.0),
        (ctx.slack["q", "pos"], -1.0),
    ]
    _rows(m, (ctx.times, bus_ids), [
        ("Eq2[{2},{0},{1}]", EQUAL, (load_p + half_p[None, :] * total_p[:, None]).ravel(),
         p_terms),
        ("Eq3[{2},{0},{1}]", EQUAL, (load_q + half_q[None, :] * total_q[:, None]).ravel(),
         q_terms),
    ])


# -- fixed lines -------------------------------------------------------------------


def _cut_kinds(fp, fq, cap_const, cap_var, family_pos: str, family_neg: str) -> list:
    """Octagonal cuts sign*fq <= slope*fp + intercept*cap for each (segment, t)."""
    kinds = []
    for e, sign, slope, intercept in octagon_cuts():
        family = family_pos if sign > 0 else family_neg
        terms = [(fq, float(sign)), (fp, -slope)]
        if cap_var is not None:
            terms.append((cap_var, -intercept))
            rhs = 0.0
        else:
            rhs = intercept * cap_const
        kinds.append((f"{family}[{{0}},{{1}},{{2}},e{e}]", LESS_EQUAL, rhs, terms))
    return kinds


def _build_fixed_lines(ctx: _Ctx) -> None:
    m, T = ctx.model, len(ctx.times)
    segs = ctx.fixed_segs
    ids = [s.id for s in segs]
    fp, fq = _stack(ctx.f_p, ids), _stack(ctx.f_q, ids)
    cap = np.repeat([s.capacity for s in segs], T)
    _rows(m, (ids, ctx.times), _cut_kinds(fp, fq, cap, None, "Eq8", "Eq9") + [
        ("Eq10[{0},{1},{2}]", EQUAL, 0.0,
         [(_stack(ctx.v2, [s.to_bus for s in segs]), 1.0),
          (_stack(ctx.v2, [s.from_bus for s in segs]), -1.0),
          (fp, np.repeat([2.0 * s.resistance for s in segs], T)),
          (fq, np.repeat([2.0 * s.reactance for s in segs], T))]),
    ])


# -- candidate lines ----------------------------------------------------------------


def _line_big_m(seg: LineSegment, net: FeederNetwork) -> float:
    opts = seg.kind.options
    vmax2 = max(net.bus(seg.from_bus).vmax, net.bus(seg.to_bus).vmax) ** 2
    vmin2 = min(net.bus(seg.from_bus).vmin, net.bus(seg.to_bus).vmin) ** 2
    worst_rx = max(o.resistance + o.reactance for o in opts)
    worst_cap = max(o.capacity for o in opts)
    return (vmax2 - vmin2) + 2.0 * worst_rx * worst_cap


def _build_candidate_lines(ctx: _Ctx) -> None:
    m = ctx.model
    for seg in ctx.cand_segs:
        opts = seg.kind.options
        x, fupd = ctx.x_line[seg.id], ctx.f_upd[seg.id]
        _rows(m, ([seg.id],), [
            ("Eq11[{0}]", EQUAL, 0.0,
             [(fupd, 1.0)] + [(x[r], -opt.capacity) for r, opt in enumerate(opts)]),
            ("Eq12[{0}]", EQUAL, 1.0, [(x[r], 1.0) for r in range(len(opts))]),
        ])
        big_m = _line_big_m(seg, ctx.net)
        fp, fq = ctx.f_p[seg.id], ctx.f_q[seg.id]
        v_to, v_fr = ctx.v2[seg.to_bus], ctx.v2[seg.from_bus]
        kinds = [
            ("Eq14[{0},{1},{2},up]", LESS_EQUAL, 0.0, [(fp, 1.0), (fupd, -1.0)]),
            ("Eq14[{0},{1},{2},lo]", GREATER_EQUAL, 0.0, [(fp, 1.0), (fupd, 1.0)]),
            ("Eq15[{0},{1},{2},up]", LESS_EQUAL, 0.0, [(fq, 1.0), (fupd, -1.0)]),
            ("Eq15[{0},{1},{2},lo]", GREATER_EQUAL, 0.0, [(fq, 1.0), (fupd, 1.0)]),
        ] + _cut_kinds(fp, fq, None, fupd, "Eq16", "Eq17")
        for r, opt in enumerate(opts):
            # v_to - v_fr + 2(R_r fp + X_r fq) within +-(1-x)M
            common = [(v_to, 1.0), (v_fr, -1.0),
                      (fp, 2.0 * opt.resistance), (fq, 2.0 * opt.reactance)]
            kinds += [
                (f"Eq18[{{0}},{{1}},{{2}},r{r},up]", LESS_EQUAL, big_m,
                 common + [(x[r], big_m)]),
                (f"Eq18[{{0}},{{1}},{{2}},r{r},lo]", GREATER_EQUAL, -big_m,
                 common + [(x[r], -big_m)]),
            ]
        _rows(m, ([seg.id], ctx.times), kinds)


# -- tap changing --------------------------------------------------------------------


def _build_taps(ctx: _Ctx) -> None:
    m, T = ctx.model, len(ctx.times)
    segs = [ctx.head] + ctx.vr_segs
    ids = [s.id for s in segs]
    vmid, v_to = _stack(ctx.v2mid, ids), _stack(ctx.v2, [s.to_bus for s in segs])
    _rows(m, (ids, ctx.times), [
        ("Eq19[{0},{1},{2},up]", LESS_EQUAL, 0.0,
         [(vmid, 1.0), (v_to, np.repeat([-s.kind.tap_max ** 2 for s in segs], T))]),
        ("Eq19[{0},{1},{2},lo]", GREATER_EQUAL, 0.0,
         [(vmid, 1.0), (v_to, np.repeat([-s.kind.tap_min ** 2 for s in segs], T))]),
    ])
    segs = [s for s in ctx.vr_segs if s.id in ctx.x_vr]
    ids = [s.id for s in segs]
    big_m = [ctx.net.bus(s.to_bus).vmax ** 2
             * (1.0 / s.kind.tap_min ** 2 - 1.0 / s.kind.tap_max ** 2) for s in segs]
    vmid, v_to = _stack(ctx.v2mid, ids), _stack(ctx.v2, [s.to_bus for s in segs])
    x = np.repeat([ctx.x_vr[i] for i in ids], T)
    _rows(m, (ids, ctx.times), [
        ("Eq20[{0},{1},{2},up]", LESS_EQUAL, 0.0,
         [(vmid, 1.0), (v_to, -1.0), (x, -np.repeat(big_m, T))]),
        ("Eq20[{0},{1},{2},lo]", GREATER_EQUAL, 0.0,
         [(vmid, 1.0), (v_to, -1.0), (x, np.repeat(big_m, T))]),
    ])


# -- feeder head and regulators ---------------------------------------------------------


def _build_transformers(ctx: _Ctx) -> None:
    m, T = ctx.model, len(ctx.times)
    head_kind: FeederHeadKind = ctx.head.kind
    _rows(m, ([ctx.head.id],), [
        ("Eq22[{0}]", EQUAL, head_kind.base_capacity,
         [(ctx.f_trf[ctx.head.id], 1.0), (ctx.x_fh, -head_kind.upgrade_capacity)]),
    ])
    segs = [ctx.head] + ctx.vr_segs
    ids = [s.id for s in segs]
    fp, fq = _stack(ctx.f_p, ids), _stack(ctx.f_q, ids)
    ftrf = np.repeat([ctx.f_trf[i] for i in ids], T)
    _rows(m, (ids, ctx.times), [
        ("Eq25[{0},{1},{2},up]", LESS_EQUAL, 0.0, [(fp, 1.0), (ftrf, -1.0)]),
        ("Eq25[{0},{1},{2},lo]", GREATER_EQUAL, 0.0, [(fp, 1.0), (ftrf, 1.0)]),
        ("Eq26[{0},{1},{2},up]", LESS_EQUAL, 0.0, [(fq, 1.0), (ftrf, -1.0)]),
        ("Eq26[{0},{1},{2},lo]", GREATER_EQUAL, 0.0, [(fq, 1.0), (ftrf, 1.0)]),
    ] + _cut_kinds(fp, fq, None, ftrf, "Eq27", "Eq28") + [
        ("Eq29[{0},{1},{2}]", EQUAL, 0.0,
         [(_stack(ctx.v2mid, ids), 1.0),
          (_stack(ctx.v2, [s.from_bus for s in segs]), -1.0),
          (fp, np.repeat([2.0 * s.resistance for s in segs], T)),
          (fq, np.repeat([2.0 * s.reactance for s in segs], T))]),
    ])


# -- solar ---------------------------------------------------------------------------


def _build_solar(ctx: _Ctx) -> None:
    m, T = ctx.model, len(ctx.times)
    units = ctx.cs_units
    ids = [u.id for u in units]
    cf = np.concatenate([_series(u.capacity_factor, ctx.net.scenario_days)
                         for u in units]) if units else np.zeros(0)
    _rows(m, (ids, ctx.times), [
        ("Eq31[{0},{1},{2}]", EQUAL, 0.0,
         [(_stack(ctx.g_cs, ids), 1.0), (_stack(ctx.g_crt, ids), 1.0),
          (np.repeat([ctx.x_cs[i] for i in ids], T), -cf)]),
    ])
    if units:
        _rows(m, (), [("Eq32", EQUAL, ctx.cs_capacity,
                       [(ctx.x_cs[i], 1.0) for i in ids])])


# -- colocation ------------------------------------------------------------------------


def _build_colocation(ctx: _Ctx) -> None:
    m = ctx.model
    units = ctx.storage_cand
    _rows(m, ([u.id for u in units],), [
        ("Eq33[{0}]", LESS_EQUAL, 0.0,
         [([ctx.x_st[u.id] for u in units], 1.0),
          ([ctx.x_st_bin[u.id] for u in units], [-u.invest_cap for u in units])]),
    ])
    _rows(m, (), [("Eq34", EQUAL, 1.0, [(col, 1.0) for col in ctx.x_st_bin.values()])])
    storage_at = {u.bus: u for u in ctx.storage_cand}
    units = ctx.cs_units
    _rows(m, ([u.id for u in units],), [
        ("Eq36[{0}]", LESS_EQUAL, 0.0,
         [([ctx.x_cs[u.id] for u in units], 1.0),
          ([ctx.x_st_bin[storage_at[u.bus].id] for u in units],
           [-u.invest_cap for u in units])]),
    ])


# -- storage -----------------------------------------------------------------------------


def _build_storage(ctx: _Ctx) -> None:
    m = ctx.model
    for u in ctx.storage_existing + ctx.storage_cand:
        eta = u.efficiency
        soc, soc0 = ctx.soc[u.id], ctx.soc0[u.id]
        p_in, p_out = ctx.p_in[u.id], ctx.p_out[u.id]
        first = 0  # the day's first hour in the horizon
        for k, day in enumerate(ctx.net.scenario_days):
            h0, last = first, first + day.hours - 1
            _rows(m, ([u.id], [day.label]), [
                ("Eq37[{0},{1}]", EQUAL, 0.0, [(soc0[k], 1.0), (soc[last], -1.0)]),
                ("Eq38[{0},{1}]", EQUAL, 0.0,
                 [(soc[h0], 1.0), (soc0[k], -1.0), (p_in[h0], -eta), (p_out[h0], 1.0)]),
            ])
            now = slice(h0 + 1, last + 1)
            _rows(m, ([u.id], [day.label], range(1, day.hours)), [
                ("Eq39[{0},{1},{2}]", EQUAL, 0.0,
                 [(soc[now], 1.0), (soc[h0:last], -1.0), (p_in[now], -eta),
                  (p_out[now], 1.0)]),
            ])
            first += day.hours
        if u.status == "candidate":
            x = ctx.x_st[u.id]
            _rows(m, ([u.id], ctx.times), [
                ("Eq41[{0},{1},{2}]", LESS_EQUAL, 0.0,
                 [(soc, 1.0), (x, -u.duration * u.p_in_max)]),
                ("Eq43[{0},{1},{2}]", LESS_EQUAL, 0.0, [(p_in, 1.0), (x, -u.p_in_max)]),
                ("Eq45[{0},{1},{2}]", LESS_EQUAL, 0.0, [(p_out, 1.0), (x, -u.p_out_max)]),
                ("Eq47[{0},{1},{2},up]", LESS_EQUAL, 0.0,
                 [(ctx.q_st[u.id], 1.0), (x, -u.reactive_fraction * u.p_in_max)]),
                ("Eq47[{0},{1},{2},lo]", GREATER_EQUAL, 0.0,
                 [(ctx.q_st[u.id], 1.0), (x, u.reactive_fraction * u.p_in_max)]),
            ])


# -- solution interpretation ----------------------------------------------------------


def var_map(model: MilpModel) -> dict[tuple[str, tuple], VarRef]:
    return {(v.family, v.indices): v for v in model.variables}


@dataclass(frozen=True)
class PlanDecisions:
    """Investment content of a solved expansion model, in real units."""

    line_options: dict[str, tuple[int, str, float]]  # seg -> (option, conductor, $/yr)
    feeder_head_upgrade: bool
    feeder_head_cost: float
    regulators: dict[str, float]  # seg -> $/yr, installed candidates only
    storage_mw: dict[str, tuple[str, float, float]]  # unit -> (bus, MW, $/yr)
    cs_mw: dict[str, tuple[str, float]]  # unit -> (bus, MW)
    investment_cost: float
    slack_total_mwh: float = 0.0


def _chosen_option(sol: Solution, seg: LineSegment) -> int:
    return max(range(len(seg.kind.options)),
               key=lambda r: sol.lookup("x_line", (seg.id, r)))


def extract_decisions(net: FeederNetwork, model: MilpModel, sol: Solution,
                      candidates: CandidateSet) -> PlanDecisions:
    # objective coefficients are the single source of truth for asset costs,
    # so per-asset sums reproduce the investment groups exactly
    cost = model.objective_vector()

    def asset_cost(family: str, indices: tuple) -> float:
        return float(cost[model.family_map(family)[indices]])

    line_options: dict[str, tuple[int, str, float]] = {}
    for seg in net.segments:
        if seg.id not in candidates.reconductor_segments:
            continue
        if not isinstance(seg.kind, CandidateUpgradeKind):
            continue
        chosen = _chosen_option(sol, seg)
        line_options[seg.id] = (chosen, seg.kind.options[chosen].conductor,
                                asset_cost("x_line", (seg.id, chosen)))
    head = net.segment(net.feeder_head_segment)
    fh = sol.lookup("x_fh", (head.id,)) > 0.5
    regulators = {idx[0]: asset_cost("x_vr", idx)
                  for idx, val in sol.family_values("x_vr").items() if val > 0.5}
    storage = {}
    x_st = sol.family_values("x_st")
    for u in net.storage_units:
        mw = x_st.get((u.id,), 0.0)
        if mw > 1e-9:
            storage[u.id] = (u.bus, mw * net.base_mva, mw * asset_cost("x_st", (u.id,)))
    cs = {}
    x_cs = sol.family_values("x_cs")
    for u in net.cs_units():
        mw = x_cs.get((u.id,), 0.0)
        if mw > 1e-9:
            cs[u.id] = (u.bus, mw * net.base_mva)
    invest = sum(sol.cost_breakdown.get(g, 0.0)
                 for g in ("storage", "regulator", "line", "feeder_head"))
    return PlanDecisions(
        line_options=line_options, feeder_head_upgrade=fh,
        feeder_head_cost=asset_cost("x_fh", (head.id,)) if fh else 0.0,
        regulators=regulators, storage_mw=storage, cs_mw=cs,
        investment_cost=invest, slack_total_mwh=slack_total(sol) * net.base_mva)


def slack_total(sol: Solution) -> float:
    """Total imbalance slack (per-unit MW summed over buses and hours)."""
    return (sol.family_total("slack_p_pos") + sol.family_total("slack_p_neg")
            + sol.family_total("slack_q_pos") + sol.family_total("slack_q_neg"))


def realized_network(net: FeederNetwork, model: MilpModel, sol: Solution,
                     candidates: CandidateSet) -> FeederNetwork:
    """The network with the solved plan applied (for power-flow replay)."""
    new_segments = []
    for seg in net.segments:
        if seg.id in candidates.reconductor_segments and \
                isinstance(seg.kind, CandidateUpgradeKind):
            opt = seg.kind.options[_chosen_option(sol, seg)]
            new_segments.append(replace(
                seg, resistance=opt.resistance, reactance=opt.reactance,
                kind=FixedKind(capacity=opt.capacity)))
        elif isinstance(seg.kind, FeederHeadKind):
            upgraded = sol.lookup("x_fh", (seg.id,)) > 0.5
            extra = seg.kind.upgrade_capacity if upgraded else 0.0
            new_segments.append(replace(seg, kind=replace(
                seg.kind, base_capacity=seg.kind.base_capacity + extra,
                upgrade_capacity=0.0)))
        elif seg.id in candidates.vr_sites and not isinstance(seg.kind, RegulatorKind):
            installed = sol.lookup("x_vr", (seg.id,)) > 0.5
            if installed:
                new_segments.append(replace(seg, kind=RegulatorKind(
                    existing=True, capacity=seg.capacity, install_cost=0.0)))
            else:
                new_segments.append(seg)
        else:
            new_segments.append(seg)
    return replace(net, segments=tuple(new_segments))


def dispatch_operating_points(net: FeederNetwork, model: MilpModel, sol: Solution,
                              ) -> list[OperatingPoint]:
    """Per-hour injections and tap ratios implied by a solved model.

    Replaying these through the power-flow engine must reproduce the model's
    squared voltages (lossless networks).
    """
    values = {family: sol.family_values(family) for family in (
        "slack_p_neg", "slack_p_pos", "slack_q_neg", "slack_q_pos", "g_rts", "g_cs",
        "p_out", "p_in", "q_st", "v2mid", "v2")}

    def val(family: str, idx: tuple) -> float:
        return values[family].get(idx, 0.0)

    points = []
    for d, h in net.time_index():
        inj: dict[str, tuple[float, float]] = {}
        for b in net.buses:
            p = -float(b.active_load[d][h])
            q = -float(b.reactive_load[d][h])
            p += val("slack_p_neg", (b.id, d, h)) - val("slack_p_pos", (b.id, d, h))
            q += val("slack_q_neg", (b.id, d, h)) - val("slack_q_pos", (b.id, d, h))
            inj[b.id] = (p, q)
        for u in net.rooftop_units():
            p, q = inj[u.bus]
            inj[u.bus] = (p + val("g_rts", (u.id, d, h)), q)
        for u in net.cs_units():
            p, q = inj[u.bus]
            inj[u.bus] = (p + val("g_cs", (u.id, d, h)), q)
        for u in net.storage_units:
            p, q = inj[u.bus]
            inj[u.bus] = (p + val("p_out", (u.id, d, h)) - val("p_in", (u.id, d, h)),
                          q + val("q_st", (u.id, d, h)))
        taps = {}
        for seg in net.segments:
            v2mid = values["v2mid"].get((seg.id, d, h))
            if v2mid is not None:
                v2to = val("v2", (seg.to_bus, d, h))
                if v2to > 1e-9:
                    taps[seg.id] = math.sqrt(max(v2mid, 0.0) / v2to)
        points.append(OperatingPoint(day=d, hour=h, injections=inj, taps=taps))
    return points
