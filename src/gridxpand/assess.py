"""Paired with/without-CS studies: incremental cost, breakdowns, normalizations.

The incremental integration cost is the difference of the two plans'
annualized investment costs (curtailment and slack penalties are reported
separately, never netted into it); a negative value is a deferral. Breakdown
columns compare the plans asset by asset, so "new" minus "replaced" always
reproduces the incremental cost exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace

from .costs import CostDatabase, default_cost_database
from .network import FeederNetwork
from .scenarios import (
    EngineConfig,
    ExpansionResult,
    NetloadScenario,
    expansion_loop,
    random_site,
    size_cs_capacity,
    storage_cs_sites,
)
from .solver import Solution

INVESTMENT_GROUPS = ("storage", "regulator", "line", "feeder_head")
ZERO_BAND_USD = 1.0  # +-$1/yr counts as "no incremental cost"

ASSET_TYPES = ("reconductor_OH", "reconductor_UG", "feeder_head", "VR", "storage")


class UnresolvedPlanError(RuntimeError):
    """A side of the comparison ended with residual slack; no cost is defined."""


@dataclass(frozen=True)
class AssessmentReport:
    feeder_id: str
    scenario: str
    c_with_cs: float
    c_without_cs: float
    c_itgr: float
    classification: str  # negative | zero | positive
    breakdown: dict[str, tuple[float, float]]  # type -> ($new, $replaced)
    cs_capacity_mw: float
    siting_mode: str
    siting_bus: str
    cost_per_kw: float = 0.0
    cost_per_kwh_cents: float = 0.0
    curtailed_fraction: float = 0.0
    curtailment_cost_with_cs: float = 0.0
    slack_cost_with_cs: float = 0.0
    iterations_with_cs: int = 0
    iterations_without_cs: int = 0


def _solution(run: Solution | ExpansionResult) -> Solution:
    return run.solution if isinstance(run, ExpansionResult) else run


def investment_cost(run: Solution | ExpansionResult) -> float:
    sol = _solution(run)
    return float(sum(sol.cost_breakdown.get(g, 0.0) for g in INVESTMENT_GROUPS))


def incremental_cost(with_cs: Solution | ExpansionResult,
                     without_cs: Solution | ExpansionResult) -> float:
    """Annualized investment cost with the project minus without it."""
    for label, run in (("with-CS", with_cs), ("without-CS", without_cs)):
        sol = _solution(run)
        if not sol.resolved or sol.status not in ("optimal", "gap_limit"):
            raise UnresolvedPlanError(f"{label} plan is unresolved ({sol.status}); "
                                      "incremental cost undefined")
    return investment_cost(with_cs) - investment_cost(without_cs)


def classify(c_itgr: float) -> str:
    if abs(c_itgr) < ZERO_BAND_USD:
        return "zero"
    return "negative" if c_itgr < 0 else "positive"


def _assets(run: ExpansionResult) -> dict[tuple[str, str], float]:
    """Asset key -> annual cost of that asset in the plan."""
    d = run.decisions
    out: dict[tuple[str, str], float] = {}
    net = run.network
    for seg_id, (_opt, _label, cost) in d.line_options.items():
        if cost <= 0.0:
            continue
        seg = net.segment(seg_id)
        kind = "reconductor_UG" if seg.placement == "urban-UG" else "reconductor_OH"
        out[(kind, seg_id)] = cost
    if d.feeder_head_upgrade:
        out[("feeder_head", net.feeder_head_segment)] = d.feeder_head_cost
    for seg_id, cost in d.regulators.items():
        out[("VR", seg_id)] = cost
    for unit_id, (_bus, _mw, cost) in d.storage_mw.items():
        if cost > 0.0:
            out[("storage", unit_id)] = cost
    return out


def breakdown(with_cs: ExpansionResult, without_cs: ExpansionResult,
              ) -> dict[str, tuple[float, float]]:
    """Per-type ($new, $replaced): investment present only with CS is new,
    only without CS is replaced; partial sizing changes contribute their
    signed difference. new - replaced sums to the incremental cost."""
    a = _assets(with_cs)
    b = _assets(without_cs)
    out = {t: (0.0, 0.0) for t in ASSET_TYPES}
    for key in sorted(set(a) | set(b)):
        delta = a.get(key, 0.0) - b.get(key, 0.0)
        kind = key[0]
        new, repl = out.get(kind, (0.0, 0.0))
        if delta > 0:
            out[kind] = (new + delta, repl)
        elif delta < 0:
            out[kind] = (new, repl - delta)
    return out


def downsizing_metric(solution: Solution, net: FeederNetwork) -> float:
    """Annual curtailed fraction of the project's available energy; the
    implied capacity downsizing proxy (a model definition, not a measured
    capacity reduction)."""
    weights = {d.label: d.weight for d in net.scenario_days}
    cs_caps = solution.family_values("x_cs")
    if not cs_caps:
        return 0.0
    cf = {u.id: u.capacity_factor for u in net.cs_units()}
    available = 0.0
    for (uid,), cap in cs_caps.items():
        if uid not in cf:
            continue
        for d, h in net.time_index():
            available += weights[d] * cap * float(cf[uid][d][h])
    curtailed = sum(weights[idx[1]] * val
                    for idx, val in solution.family_values("g_crt").items())
    if available <= 0.0:
        return 0.0
    return min(1.0, curtailed / available)


def annual_energy_mwh(net: FeederNetwork) -> float:
    """Weighted load energy over the representative days, in MWh."""
    total = 0.0
    for day in net.scenario_days:
        day_sum = sum(net.total_active_load(day.label, h) for h in range(day.hours))
        total += day.weight * day_sum
    return total * net.base_mva


def normalize(report: AssessmentReport, net: FeederNetwork) -> AssessmentReport:
    """Fill the $/kW-of-CS and cents-per-kWh-of-demand views."""
    per_kw = 0.0
    if report.cs_capacity_mw > 0:
        per_kw = report.c_itgr / (report.cs_capacity_mw * 1000.0)
    energy = annual_energy_mwh(net)
    per_kwh = 100.0 * report.c_itgr / (energy * 1000.0) if energy > 0 else 0.0
    return replace(report, cost_per_kw=per_kw, cost_per_kwh_cents=per_kwh)


def assess(net: FeederNetwork, scenario: NetloadScenario, *,
           siting_mode: str = "optimal", fixed_site: str | None = None,
           feeder_id: str = "feeder", costdb: CostDatabase | None = None,
           config: EngineConfig = EngineConfig(),
           without_run: ExpansionResult | None = None,
           ) -> tuple[AssessmentReport, ExpansionResult, ExpansionResult]:
    """Run the paired with/without-CS study for one feeder and scenario.

    ``without_run`` is the without-CS plan for the same feeder, scenario,
    cost data and config, when the caller has already solved it.
    """
    db = costdb if costdb is not None else default_cost_database()
    with_run = expansion_loop(net, scenario, True, siting_mode,
                              fixed_site=fixed_site, costdb=db, config=config)
    if without_run is None:
        without_run = expansion_loop(net, scenario, False, costdb=db, config=config)
    c_itgr = incremental_cost(with_run, without_run)
    cs_mw = size_cs_capacity(net) * net.base_mva
    sited = _chosen_site(with_run)
    report = AssessmentReport(
        feeder_id=feeder_id,
        scenario=scenario.label,
        c_with_cs=investment_cost(with_run),
        c_without_cs=investment_cost(without_run),
        c_itgr=c_itgr,
        classification=classify(c_itgr),
        breakdown=breakdown(with_run, without_run),
        cs_capacity_mw=cs_mw,
        siting_mode=siting_mode,
        siting_bus=sited,
        curtailed_fraction=downsizing_metric(with_run.solution, with_run.network),
        curtailment_cost_with_cs=with_run.solution.cost_breakdown.get("curtailment", 0.0),
        slack_cost_with_cs=with_run.solution.cost_breakdown.get("imbalance", 0.0),
        iterations_with_cs=with_run.iterations,
        iterations_without_cs=without_run.iterations,
    )
    return normalize(report, scenario.network), with_run, without_run


def _chosen_site(run: ExpansionResult) -> str:
    best_bus, best_mw = "", 0.0
    for _uid, (bus, mw) in run.decisions.cs_mw.items():
        if mw > best_mw:
            best_bus, best_mw = bus, mw
    return best_bus


def compare_siting(net: FeederNetwork, scenario: NetloadScenario, *,
                   feeder_id: str = "feeder", costdb: CostDatabase | None = None,
                   config: EngineConfig = EngineConfig(), seed: int = 0,
                   ) -> dict[str, AssessmentReport]:
    """Assess every siting mode: the three fixed sites, a seeded random draw
    over them, and optimal placement. The without-CS plan does not depend on
    the siting, so it is solved once and shared by every entry."""
    db = costdb if costdb is not None else default_cost_database()
    without_run = expansion_loop(net, scenario, False, costdb=db, config=config)
    sites = storage_cs_sites(scenario.network)
    labels = ("fixed-head", "fixed-middle", "fixed-end")[:len(sites)]
    out: dict[str, AssessmentReport] = {}
    for label, bus in zip(labels, sites):
        report, _, _ = assess(net, scenario, siting_mode="fixed", fixed_site=bus,
                              feeder_id=feeder_id, costdb=db, config=config,
                              without_run=without_run)
        out[label] = report
    drawn_label = labels[sites.index(random_site(scenario.network, seed))]
    out["random"] = replace(out[drawn_label], siting_mode="random")
    report, _, _ = assess(net, scenario, siting_mode="optimal",
                          feeder_id=feeder_id, costdb=db, config=config,
                          without_run=without_run)
    out["optimal"] = report
    return out


def report_to_dict(report: AssessmentReport) -> dict:
    doc = asdict(report)
    doc["breakdown"] = {k: {"new": v[0], "replaced": v[1]}
                        for k, v in report.breakdown.items()}
    return doc


def write_report_json(report: AssessmentReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=1, sort_keys=True)
        fh.write("\n")


FLEET_COLUMNS = [
    "feeder_id", "scenario", "status", "c_with_cs", "c_without_cs", "c_itgr",
    "classification", "cost_per_kw", "cost_per_kwh_cents", "cs_capacity_mw",
    "curtailed_fraction", "siting_mode", "siting_bus",
] + [f"{t}_{col}" for t in ASSET_TYPES for col in ("new", "replaced")]


def fleet_row(report: AssessmentReport | None, feeder_id: str, scenario: str,
              status: str = "ok") -> list[str]:
    if report is None:
        return [feeder_id, scenario, status] + [""] * (len(FLEET_COLUMNS) - 3)
    row = [report.feeder_id, report.scenario, status,
           f"{report.c_with_cs:.6f}", f"{report.c_without_cs:.6f}",
           f"{report.c_itgr:.6f}", report.classification,
           f"{report.cost_per_kw:.6f}", f"{report.cost_per_kwh_cents:.6f}",
           f"{report.cs_capacity_mw:.6f}", f"{report.curtailed_fraction:.6f}",
           report.siting_mode, report.siting_bus]
    for t in ASSET_TYPES:
        new, repl = report.breakdown.get(t, (0.0, 0.0))
        row.extend([f"{new:.6f}", f"{repl:.6f}"])
    return row


def write_fleet_csv(rows: list[list[str]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FLEET_COLUMNS)
        writer.writerows(rows)


def histogram_rows(values: list[float], bins: int = 20) -> list[list[str]]:
    """Plot-ready histogram (bin lower edge, upper edge, count)."""
    if not values:
        return []
    lo, hi = min(values), max(values)
    if hi <= lo:
        hi = lo + 1.0
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    return [[f"{lo + i * width:.6f}", f"{lo + (i + 1) * width:.6f}", str(c)]
            for i, c in enumerate(counts)]
