"""Command-line interface: validate, pf, scenario, plan, assess, fleet, export-mps.

Exit codes: 0 success, 1 domain outcome (infeasible or unresolved plan, or a
solver breakdown), 2 usage or I/O error. Diagnostics go to stderr; data goes to files or stdout.
A config file (INI sections, e.g. ``[solver] gap = 1e-4``) supplies defaults;
explicit flags win. Outputs are byte-stable for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from . import mps
from .assess import (
    UnresolvedPlanError,
    assess as run_assess,
    fleet_row,
    histogram_rows,
    report_to_dict,
    write_fleet_csv,
    write_report_json,
)
from .builder import BuildError
from .costs import CostDatabase, CostDataError, default_cost_database, load_cost_database
from .network import NetworkError, load_feeder
from .powerflow import operating_point, solve_lindistflow
from .scenarios import (
    SCENARIO_LABELS,
    EngineConfig,
    expansion_loop,
    first_round_model,
    make_scenario,
    random_site,
    size_cs_capacity,
)
from .solver import NumericalBreakdown

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, msg: str, code: int = EXIT_USAGE):
        super().__init__(msg)
        self.code = code


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path:
        if not os.path.exists(path):
            raise CliError(f"config file not found: {path}")
        cfg.read(path)
    return cfg


def _engine_config(cfg: configparser.ConfigParser, args) -> EngineConfig:
    def get(section: str, key: str, cast, default):
        if cfg.has_option(section, key):
            return cast(cfg.get(section, key))
        return default
    ec = EngineConfig(
        scale_step=get("engine", "scale_step", float, EngineConfig.scale_step),
        scale_max_iter=get("engine", "scale_max_iter", int, EngineConfig.scale_max_iter),
        loading_threshold=get("engine", "loading_threshold", float,
                              EngineConfig.loading_threshold),
        voltage_margin=get("engine", "voltage_margin", float, EngineConfig.voltage_margin),
        storage_efficiency=get("engine", "storage_efficiency", float,
                               EngineConfig.storage_efficiency),
        storage_reactive_fraction=get("engine", "storage_reactive_fraction", float,
                                      EngineConfig.storage_reactive_fraction),
        solver_gap=get("solver", "gap", float, EngineConfig.solver_gap),
        node_limit=get("solver", "node_limit", int, EngineConfig.node_limit),
    )
    if getattr(args, "gap", None) is not None:
        ec = replace(ec, solver_gap=args.gap)
    if getattr(args, "step", None) is not None:
        ec = replace(ec, scale_step=args.step)
    return ec


def _settings(args) -> tuple[EngineConfig, CostDatabase]:
    """The engine config and the cost database of one command."""
    ec = _engine_config(_load_config(args.config), args)
    if args.costs or args.conductors:
        if not (args.costs and args.conductors):
            raise CliError("--costs and --conductors must be given together")
        return ec, load_cost_database(args.costs, args.conductors)
    return ec, default_cost_database()


def _resolve_feeder(path: str):
    if not os.path.exists(path):
        raise CliError(f"feeder file not found: {path}")
    return load_feeder(path)


def _study(path: str, scenario: str, args, ec: EngineConfig):
    """One feeder and the siting flags as every study command solves them:
    the feeder in its region, its scenario, and the siting keywords. A random
    siting becomes the fixed site its seed draws."""
    net = _resolve_feeder(path)
    region = args.region or net.region
    if region not in ("CA", "nonCA"):
        raise CliError(f"unknown region {region!r}")
    net = replace(net, region=region)
    scen = make_scenario(net, scenario, step=ec.scale_step, max_iter=ec.scale_max_iter)
    siting_mode, fixed_site = args.siting
    if siting_mode == "random":
        siting_mode, fixed_site = "fixed", random_site(scen.network, args.seed)
    return net, scen, {"siting_mode": siting_mode, "fixed_site": fixed_site}


def _parse_siting(text: str) -> tuple[str, str | None]:
    if text == "optimal" or text == "random":
        return text, None
    if text.startswith("fixed:") and text != "fixed:":
        return "fixed", text.split(":", 1)[1]
    raise argparse.ArgumentTypeError(
        f"bad --siting value {text!r} (optimal, random, or fixed:<bus>)")


def cmd_validate(args) -> int:
    net = _resolve_feeder(args.feeder)
    cand = sum(1 for s in net.segments
               if s.kind.__class__.__name__ == "CandidateUpgradeKind")
    print(f"buses: {len(net.buses)}")
    print(f"segments: {len(net.segments)} (candidates: {cand})")
    print(f"storage units: {len(net.storage_units)}")
    print(f"solar units: {len(net.solar_units)}")
    print(f"days: {', '.join(d.label for d in net.scenario_days)}")
    print(f"cs capacity (MW): {size_cs_capacity(net) * net.base_mva:.6f}")
    return EXIT_OK


def cmd_pf(args) -> int:
    net = _resolve_feeder(args.feeder)
    rule = None if args.taps == "neutral" else args.taps
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["day", "hour", "element", "kind", "value"])
    hours = [args.hour] if args.hour is not None else None
    for d, h in net.time_index():
        if args.day and d != args.day:
            continue
        if hours is not None and h not in hours:
            continue
        res = solve_lindistflow(net, operating_point(net, d, h, tap_rule=rule),
                                losses=args.losses)
        for seg in net.segments:
            writer.writerow([d, h, seg.id, "flow_p_pu", repr(res.flow_p[seg.id])])
            writer.writerow([d, h, seg.id, "flow_q_pu", repr(res.flow_q[seg.id])])
            writer.writerow([d, h, seg.id, "loading", repr(res.loading[seg.id])])
        for bus in net.buses:
            writer.writerow([d, h, bus.id, "voltage_pu", repr(res.voltage(bus.id))])
    return EXIT_OK


def cmd_scenario(args) -> int:
    net = _resolve_feeder(args.feeder)
    cfg = _load_config(args.config)
    ec = _engine_config(cfg, args)
    scen = make_scenario(net, args.scenario, step=ec.scale_step,
                         max_iter=ec.scale_max_iter)
    print(json.dumps({
        "label": scen.label,
        "scale_factor": scen.scale_factor,
        "pre_existing_violation": scen.pre_existing_violation,
        "hit_scan_limit": scen.hit_scan_limit,
    }, sort_keys=True))
    return EXIT_OK


def _solution_doc(result) -> dict:
    sol = result.solution
    d = result.decisions
    return {
        "status": result.status,
        "solver_status": sol.status,
        "objective": sol.objective,
        "mip_gap": sol.mip_gap,
        "node_count": sol.node_count,
        "iterations": result.iterations,
        "residual_slack_mwh": result.residual_slack_mwh,
        "cost_breakdown": {k: sol.cost_breakdown.get(k, 0.0)
                           for k in sorted(sol.cost_breakdown)},
        "investment_cost": d.investment_cost,
        "line_options": {k: {"option": v[0], "conductor": v[1], "annual_cost": v[2]}
                         for k, v in sorted(d.line_options.items())},
        "feeder_head_upgrade": d.feeder_head_upgrade,
        "regulators": dict(sorted(d.regulators.items())),
        "storage_mw": {k: {"bus": v[0], "mw": v[1], "annual_cost": v[2]}
                       for k, v in sorted(d.storage_mw.items())},
        "cs_mw": {k: {"bus": v[0], "mw": v[1]} for k, v in sorted(d.cs_mw.items())},
        "verification_residual": result.verification_residual,
        "verification_violations": len(result.verification_violations),
    }


def cmd_plan(args) -> int:
    ec, db = _settings(args)
    net, scen, siting = _study(args.feeder, args.scenario, args, ec)
    with_cs = args.cs == "on"
    result = expansion_loop(net, scen, with_cs, **siting, costdb=db, config=ec)
    if args.trace:
        print(json.dumps({"event": "plan_done", "scenario": scen.label,
                          "with_cs": with_cs, "status": result.status,
                          "iterations": result.iterations,
                          "objective": result.solution.objective,
                          "residual_slack_mwh": result.residual_slack_mwh},
                         sort_keys=True), file=sys.stderr, flush=True)
    doc = _solution_doc(result)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if result.status == "resolved" else EXIT_DOMAIN


def cmd_assess(args) -> int:
    ec, db = _settings(args)
    net, scen, siting = _study(args.feeder, args.scenario, args, ec)
    report, _, _ = run_assess(net, scen, **siting, feeder_id=os.path.basename(args.feeder),
                              costdb=db, config=ec)
    if args.out:
        write_report_json(report, args.out)
    else:
        json.dump(report_to_dict(report), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK


def _fleet_job(path: str, scenario: str, args, ec, db):
    """One (feeder, scenario) row. Any failure becomes an error row, so one
    bad feeder never stops the fleet."""
    feeder_id = os.path.basename(path)
    try:
        net, scen, siting = _study(path, scenario, args, ec)
        report, _, _ = run_assess(net, scen, **siting, feeder_id=feeder_id,
                                  costdb=db, config=ec)
        return fleet_row(report, feeder_id, scenario), report, None
    except Exception as exc:
        status = "unresolved" if isinstance(exc, UnresolvedPlanError) else "error"
        # a load error names the file's path, which the feeder id already gives
        detail = exc.__cause__ if isinstance(exc, NetworkError) and exc.__cause__ else exc
        print(f"{feeder_id} [{scenario}]: {detail}", file=sys.stderr)
        return fleet_row(None, feeder_id, scenario, status), None, exc


def cmd_fleet(args) -> int:
    if not os.path.exists(args.manifest):
        raise CliError(f"manifest not found: {args.manifest}")
    with open(args.manifest) as fh:
        paths = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    ec, db = _settings(args)
    scenarios = args.scenarios.split(",") if args.scenarios else list(SCENARIO_LABELS)
    for s in scenarios:
        if s not in SCENARIO_LABELS:
            raise CliError(f"unknown scenario {s!r}")
    jobs = [(p, s) for p in paths for s in scenarios]
    workers = max(1, args.threads or 1)
    env = os.environ.get("GRIDXPAND_THREADS", "0")
    try:
        env_cap = int(env)
    except ValueError:
        raise CliError(f"GRIDXPAND_THREADS must be an integer, not {env!r}") from None
    if env_cap > 0:
        workers = min(workers, env_cap)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda job: _fleet_job(job[0], job[1], args, ec, db),
                                    jobs))
    else:
        results = [_fleet_job(p, s, args, ec, db) for p, s in jobs]

    os.makedirs(args.out_dir, exist_ok=True)
    rows = [r[0] for r in results]
    write_fleet_csv(rows, os.path.join(args.out_dir, "fleet.csv"))
    costs = [r[1].c_itgr for r in results if r[1] is not None]
    with open(os.path.join(args.out_dir, "histogram_c_itgr.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_lo", "bin_hi", "count"])
        writer.writerows(histogram_rows(costs))
    failed = [r for r in results if r[2] is not None]
    return EXIT_DOMAIN if failed else EXIT_OK


def cmd_export_mps(args) -> int:
    ec, db = _settings(args)
    net, scen, siting = _study(args.feeder, args.scenario, args, ec)
    model = first_round_model(net, scen, args.cs == "on", **siting, costdb=db, config=ec)
    mps.export_model(model, args.out)
    print(f"wrote {args.out}: {len(model.variables)} columns, "
          f"{len(model.constraints)} rows", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gridxpand",
                                description="Distribution grid expansion planning "
                                            "for community solar integration")
    p.add_argument("--config", help="INI config file (flags win over it)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, feeder=True, gap=True):
        """The flags of the study commands: plan, assess, export-mps and fleet."""
        if feeder:
            sp.add_argument("feeder", help="feeder JSON file")
            sp.add_argument("--scenario", default="base", choices=SCENARIO_LABELS)
        sp.add_argument("--siting", type=_parse_siting, default="optimal",
                        help="optimal | random | fixed:<bus>")
        sp.add_argument("--seed", type=int, default=0, help="seed of --siting random")
        sp.add_argument("--region", choices=["CA", "nonCA"], default=None)
        sp.add_argument("--costs", help="costs CSV (with --conductors)")
        sp.add_argument("--conductors", help="conductor table CSV")
        if gap:
            sp.add_argument("--gap", type=float, default=None, help="MILP gap")
        sp.add_argument("--step", type=float, default=None, help="scenario scaling step")

    sp = sub.add_parser("validate", help="parse and validate a feeder file")
    sp.add_argument("feeder")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("pf", help="run the power flow and dump CSV")
    sp.add_argument("feeder")
    sp.add_argument("--day", default=None)
    sp.add_argument("--hour", type=int, default=None)
    sp.add_argument("--taps", choices=["neutral", "peak", "solar"], default="neutral")
    sp.add_argument("--losses", action="store_true")
    sp.set_defaults(func=cmd_pf)

    sp = sub.add_parser("scenario", help="build a netload scenario")
    sp.add_argument("feeder", help="feeder JSON file")
    sp.add_argument("--scenario", default="base", choices=SCENARIO_LABELS)
    sp.add_argument("--step", type=float, default=None, help="scenario scaling step")
    sp.set_defaults(func=cmd_scenario)

    sp = sub.add_parser("plan", help="run the expansion loop")
    common(sp)
    sp.add_argument("--cs", choices=["on", "off"], default="off")
    sp.add_argument("--out", help="write solution JSON here")
    sp.add_argument("--trace", action="store_true",
                    help="emit JSON-lines iteration trace to stderr")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("assess", help="paired with/without-CS study")
    common(sp)
    sp.add_argument("--out", help="write report JSON here")
    sp.set_defaults(func=cmd_assess)

    sp = sub.add_parser("fleet", help="run many feeders from a manifest")
    common(sp, feeder=False)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--scenarios", default=None,
                    help="comma-separated subset of base,highpv,highload")
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=cmd_fleet)

    sp = sub.add_parser("export-mps", help="write the first-round expansion MILP as MPS")
    common(sp, gap=False)
    sp.add_argument("--cs", choices=["on", "off"], default="off")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_export_mps)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NetworkError, CostDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BuildError, NumericalBreakdown) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except UnresolvedPlanError as exc:
        print(f"unresolved: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
