"""Which names are wrapped for each layer, and the per-layer metrics from spans.

Each name is wrapped where its caller looks it up: ``scenarios.build`` is the
builder as the expansion loop sees it, while ``builder.build`` is what
``export-mps`` imports at call time. ``scenarios.solve_lindistflow`` carries
the scan, screening and replay power flows alike; the parent span tells
them apart.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

from spans import Span, Tracer, self_times

from gridxpand import builder, cli, milp, mps, network, scenarios, solver

assess_mod = sys.modules["gridxpand.assess"]  # the package re-exports the function

PASS_SPAN = "bench.pass"
PF = "powerflow.solve"

# per-layer metrics in the JSON result: every layer all three workloads enter
PER_LAYER = (
    ("simplex.lp_s", "s"), ("simplex.lp_calls", "count"), ("simplex.iterations", "count"),
    ("simplex.us_per_iteration", "us"),
    ("solver.solve_s", "s"), ("solver.bb_self_s", "s"), ("solver.calls", "count"),
    ("solver.nodes", "count"), ("solver.max_gap", "frac"),
    ("scenarios.expansion_calls", "count"), ("scenarios.expansion_unique", "count"),
    ("scenarios.rounds", "count"),
    ("scenarios.scan_s", "s"), ("scenarios.scan_pf_calls", "count"),
    ("scenarios.screen_s", "s"), ("scenarios.screen_pf_calls", "count"),
    ("scenarios.candidates", "count"), ("scenarios.promote_s", "s"),
    ("scenarios.replay_s", "s"), ("scenarios.replay_pf_calls", "count"),
    ("builder.build_s", "s"), ("builder.vars", "count"), ("builder.rows", "count"),
    ("builder.binaries", "count"),
    ("milp.compile_s", "s"), ("milp.compile_calls", "count"), ("milp.nnz", "count"),
    ("network.load_s", "s"), ("network.load_calls", "count"),
    ("assess.self_s", "s"), ("assess.calls", "count"),
    ("trace.overhead_frac", "frac"), ("trace.coverage_frac", "frac"),
)

# layers only one workload enters: printed in its run record, not in the JSON,
# because on the other workloads they would read exactly 0 on every run
WORKLOAD_ONLY = {
    "fleet-mix": (("cli.fleet_s", "s"), ("cli.csv_s", "s"), ("cli.worker_busy_frac", "frac")),
    "ladder-easy": (("mps.export_s", "s"), ("mps.bytes", "count")),
    "hard-siting": (),
}


def _model_size(args, kwargs, model):
    return (len(model.variables), len(model.constraints), len(model.binary_indices()))


def _candidates(args, kwargs, cand):
    return (len(cand.reconductor_segments) + len(cand.vr_sites) + len(cand.storage_sites)
            + len(cand.cs_sites) + int(cand.feeder_head_upgrade))


def _expansion_key(args, kwargs, result):
    """Distinct studies: feeder, scenario, with-CS and (with CS) the site.
    The feeder object is kept so its id stays unique for the pass."""
    net, scen, with_cs = args[0], args[1], args[2]
    siting = args[3] if len(args) > 3 else kwargs.get("siting_mode", "optimal")
    site = (siting, kwargs.get("fixed_site")) if with_cs else None
    return ((id(net), scen.label, scen.scale_factor, with_cs, site), net,
            result.iterations)


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    w(cli, "_fleet_job", "cli.job")
    w(cli, "write_fleet_csv", "cli.csv")
    w(cli, "load_feeder", "network.load")
    w(network, "load_feeder", "network.load")
    w(cli, "make_scenario", "scenarios.scan")
    w(scenarios, "make_scenario", "scenarios.scan")
    w(cli, "run_assess", "assess.assess")
    w(assess_mod, "assess", "assess.assess")
    w(assess_mod, "compare_siting", "assess.compare_siting")
    w(assess_mod, "expansion_loop", "scenarios.expansion", _expansion_key)
    w(scenarios, "screening_flows", "scenarios.screen")
    w(scenarios, "select_candidates", "scenarios.select", _candidates)
    w(scenarios, "promote_candidates", "scenarios.promote")
    w(scenarios, "build", "builder.build", _model_size)
    w(builder, "build", "builder.build", _model_size)
    w(milp.MilpModel, "constraint_arrays", "milp.compile", lambda a, k, r: r[0].nnz)
    w(scenarios, "solve_milp", "solver.solve",
      lambda a, k, sol: (sol.node_count, sol.mip_gap))
    w(solver, "solve_lp_arrays", "simplex.lp", lambda a, k, res: res.iterations)
    w(scenarios, "solve_lindistflow", PF)
    w(scenarios, "_finish", "scenarios.replay")
    w(mps, "export_model", "mps.export", lambda a, k, r: os.path.getsize(a[1]))


def metrics(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float],
            workers: int) -> dict[str, float]:
    """Per-layer metrics, each per traced pass (sums and counts divided by the
    number of traced passes; sizes and gaps are maxima)."""
    spans = tracer.spans
    n = max(1, len(traced_walls))
    own = self_times(spans)
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by[name]) / n

    def count(name):
        return len(by[name]) / n

    def self_s(name):
        return sum(own[id(s)] for s in by[name]) / n

    def info_sum(name, i=None):
        return sum((s.info if i is None else s.info[i]) for s in by[name]
                   if s.info is not None) / n

    def info_max(name, i=None):
        return max(((s.info if i is None else s.info[i]) for s in by[name]
                    if s.info is not None), default=0)

    def pf_under(parent):
        return sum(1 for s in by[PF] if s.parent is not None and s.parent.name == parent) / n

    iterations = info_sum("simplex.lp")
    expansions = [s.info for s in by["scenarios.expansion"] if s.info is not None]
    passes = by[PASS_SPAN]
    pass_time = sum(s.duration for s in passes)
    uncovered = sum(own[id(s)] for s in passes)
    fleet_s = total("cli.fleet")
    untraced = sorted(untraced_walls)[len(untraced_walls) // 2] if untraced_walls else 0.0
    traced = sorted(traced_walls)[len(traced_walls) // 2] if traced_walls else 0.0
    return {
        "simplex.lp_s": total("simplex.lp"),
        "simplex.lp_calls": count("simplex.lp"),
        "simplex.iterations": iterations,
        "simplex.us_per_iteration": 1e6 * total("simplex.lp") / iterations if iterations else 0.0,
        "solver.solve_s": total("solver.solve"),
        "solver.bb_self_s": self_s("solver.solve"),
        "solver.calls": count("solver.solve"),
        "solver.nodes": info_sum("solver.solve", 0),
        "solver.max_gap": info_max("solver.solve", 1),
        "scenarios.expansion_calls": count("scenarios.expansion"),
        "scenarios.expansion_unique": len({key for key, _net, _r in expansions}) / n,
        "scenarios.rounds": sum(r for _k, _net, r in expansions) / n,
        "scenarios.scan_s": total("scenarios.scan"),
        "scenarios.scan_pf_calls": pf_under("scenarios.scan"),
        "scenarios.screen_s": total("scenarios.screen"),
        "scenarios.screen_pf_calls": pf_under("scenarios.screen"),
        "scenarios.candidates": info_sum("scenarios.select"),
        "scenarios.promote_s": total("scenarios.promote"),
        "scenarios.replay_s": total("scenarios.replay"),
        "scenarios.replay_pf_calls": pf_under("scenarios.replay"),
        "builder.build_s": total("builder.build"),
        "builder.vars": info_max("builder.build", 0),
        "builder.rows": info_max("builder.build", 1),
        "builder.binaries": info_max("builder.build", 2),
        "milp.compile_s": total("milp.compile"),
        "milp.compile_calls": count("milp.compile"),
        "milp.nnz": info_max("milp.compile"),
        "network.load_s": total("network.load"),
        "network.load_calls": count("network.load"),
        "assess.self_s": self_s("assess.assess"),
        "assess.calls": count("assess.assess"),
        "trace.overhead_frac": traced / untraced - 1.0 if untraced else 0.0,
        "trace.coverage_frac": 1.0 - uncovered / pass_time if pass_time else 0.0,
        "cli.fleet_s": fleet_s,
        "cli.csv_s": total("cli.csv"),
        "cli.worker_busy_frac": (total("cli.job") / (workers * fleet_s)) if fleet_s else 0.0,
        "mps.export_s": total("mps.export"),
        "mps.bytes": info_sum("mps.export"),
    }
