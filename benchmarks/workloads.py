"""The three workloads: inputs, one pass over them, and the studies it produced.

A pass runs the whole input set of a seed once. Studies are captured by
wrapping the names the program calls (see ``Recorder``), timed, and handed
to the gate after the pass; nothing here runs inside a timed region except
the pass itself.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import feeders
import gate
from spans import Patcher

from gridxpand import cli, mps, network, scenarios

assess_mod = sys.modules["gridxpand.assess"]  # the package re-exports the function

SCENARIOS = ("base", "highpv", "highload")
FLEET_THREADS = 2
GAP = scenarios.EngineConfig().solver_gap


@dataclass
class Study:
    key: str
    seconds: float | None
    report: object = None
    with_run: object = None
    without_run: object = None
    problems: list[str] = field(default_factory=list)
    copy_of: bool = False  # repeats another study's result; arithmetic checks only


@dataclass
class Pass:
    wall: float
    studies: list[Study]
    properties: dict


class Recorder(Patcher):
    """Captures each study's result and duration; always on, spans off."""

    def __init__(self):
        super().__init__()
        self.calls: list[dict] = []
        for owner, attr in ((cli, "_fleet_job"), (cli, "run_assess"), (assess_mod, "assess")):
            self.patch(owner, attr, self._capturing(attr), f"{owner.__name__}.{attr}")

    def _capturing(self, kind: str):
        calls = self.calls

        def make(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = original(*args, **kwargs)
                calls.append({"kind": kind, "seconds": time.perf_counter() - t0,
                              "args": args, "result": result})
                return result
            return wrapper
        return make

    def take(self, *kinds: str) -> list[dict]:
        return [c for c in self.calls if c["kind"] in kinds]


def _assessed(recorder: Recorder) -> list[dict]:
    """Captured (report, with-CS run, without-CS run) triples with their scenario."""
    out = []
    for call in recorder.take("run_assess", "assess"):
        report, with_run, without_run = call["result"]
        out.append({"report": report, "with": with_run, "without": without_run,
                    "scenario": call["args"][1], "seconds": call["seconds"]})
    return out


def _properties(triples: list[dict], studies: list[Study]) -> dict:
    runs = [t[side] for t in triples for side in ("with", "without")]
    return {
        "feeders": {t["report"].feeder_id: len(t["with"].network.buses) for t in triples},
        "binaries_max": max((len(r.model.binary_indices()) for r in runs), default=0),
        "final_solves": len(runs),
        "final_nodes": sum(r.solution.node_count for r in runs),
        "rounds": sum(r.iterations for r in runs),
        "scan_factors": {f"{t['report'].feeder_id}/{t['scenario'].label}":
                         t["scenario"].scale_factor for t in triples},
        "classes": dict(sorted(Counter(s.report.classification for s in studies
                                       if s.report is not None).items())),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.inputs = os.path.join(work_dir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)

    def prepare(self, recorder: Recorder) -> None:
        """Generate the inputs; anything else that must precede timing."""

    def run(self, tracer) -> None:
        raise NotImplementedError

    def collect(self, recorder: Recorder, wall: float) -> Pass:
        raise NotImplementedError

    def properties_hold(self, props: dict) -> dict[str, bool]:
        raise NotImplementedError


class FleetMix(Workload):
    """``gridxpand fleet`` in-process over the tutorial plus a loose feeder,
    all three scenarios, optimal siting, two worker threads."""

    name = "fleet-mix"

    def prepare(self, recorder: Recorder) -> None:
        paths = feeders.fleet_inputs(self.seed, self.inputs)
        self.manifest = os.path.join(self.inputs, "manifest.txt")
        with open(self.manifest, "w") as fh:
            fh.write("".join(p + "\n" for p in paths))
        # single-thread reference output; also lets lazy set-up finish
        self.reference_csv = self._fleet("reference", threads=1)
        recorder.calls.clear()
        self.passes = 0

    def _fleet(self, tag: str, threads: int) -> bytes:
        out_dir = os.path.join(self.work_dir, tag)
        rc = cli.main(["fleet", "--manifest", self.manifest, "--out-dir", out_dir,
                       "--scenarios", ",".join(SCENARIOS), "--siting", "optimal",
                       "--threads", str(threads)])
        path = os.path.join(out_dir, "fleet.csv")
        if rc != 0:
            print(f"fleet exited {rc}", file=sys.stderr)
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as fh:
            return fh.read()

    def run(self, tracer) -> None:
        self.passes += 1
        with tracer.span("cli.fleet", root=True):
            self.csv = self._fleet(f"pass{self.passes}", threads=FLEET_THREADS)

    def collect(self, recorder: Recorder, wall: float) -> Pass:
        job_seconds = {}
        for call in recorder.take("_fleet_job"):
            path, scenario = call["args"][0], call["args"][1]
            job_seconds[f"{os.path.basename(path)}/{scenario}"] = call["seconds"]
        triples = {f"{t['report'].feeder_id}/{t['report'].scenario}": t
                   for t in _assessed(recorder)}
        ref_rows = _csv_rows(self.reference_csv)
        rows = _csv_rows(self.csv)
        studies = []
        for i, row in enumerate(rows):
            key = f"{row['feeder_id']}/{row['scenario']}"
            t = triples.get(key, {})
            study = Study(key, job_seconds.get(key, t.get("seconds")), t.get("report"),
                          t.get("with"), t.get("without"))
            if row["status"] != "ok":
                study.problems.append(f"fleet row status {row['status']}")
            if i >= len(ref_rows) or row != ref_rows[i]:
                study.problems.append("fleet.csv row differs from the --threads 1 run")
            elif study.report is not None and row["c_itgr"] != f"{study.report.c_itgr:.6f}":
                study.problems.append("fleet.csv c_itgr differs from the report")
            studies.append(study)
        if not studies:
            studies = [Study("fleet", None, problems=["no fleet.csv rows"])]
        elif self.csv != self.reference_csv and not any(s.problems for s in studies):
            studies[0].problems.append("fleet.csv is not byte-identical to --threads 1")
        props = _properties(list(triples.values()), studies)
        props["csv_identical"] = self.csv == self.reference_csv
        return Pass(wall, studies, props)

    def properties_hold(self, props: dict) -> dict[str, bool]:
        return {"scan_factor_above_1": max(props["scan_factors"].values(), default=1) > 1,
                "csv_identical_to_1_thread": props["csv_identical"]}


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


class LadderEasy(Workload):
    """Loose feeders at two sizes, Base: ``export-mps --cs on``, then assess."""

    name = "ladder-easy"

    def prepare(self, recorder: Recorder) -> None:
        self.paths = feeders.ladder_inputs(self.seed, self.inputs)

    def run(self, tracer) -> None:
        self.exports, self.errors = {}, {}
        for path in self.paths:
            feeder_id = os.path.basename(path)
            mps_path = os.path.join(self.work_dir, feeder_id + ".mps")
            try:
                with tracer.span("cli.export"):
                    rc = cli.main(["export-mps", path, "--scenario", "base", "--cs", "on",
                                   "--out", mps_path])
                self.exports[feeder_id] = (rc, mps_path)
                net = network.load_feeder(path)
                scen = scenarios.make_scenario(net, "base")
                assess_mod.assess(net, scen, feeder_id=feeder_id)
            except Exception as exc:  # one failed study must not end the run
                self.errors[f"{feeder_id}/base"] = describe(exc)

    def collect(self, recorder: Recorder, wall: float) -> Pass:
        triples = _assessed(recorder)
        studies = [Study(key, None, problems=[msg]) for key, msg in self.errors.items()]
        for t in triples:
            r = t["report"]
            study = Study(f"{r.feeder_id}/{r.scenario}", t["seconds"], r, t["with"],
                          t["without"])
            study.problems += _check_export(*self.exports[r.feeder_id], t["with"])
            studies.append(study)
        return Pass(wall, studies, _properties(triples, studies))

    def properties_hold(self, props: dict) -> dict[str, bool]:
        return {"one_node_per_final_solve": props["final_nodes"] == props["final_solves"],
                "only_zero_classes": set(props["classes"]) == {"zero"}}


def describe(exc: Exception) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"raised {type(exc).__name__}: {exc}"


def _check_export(rc: int, mps_path: str, with_run) -> list[str]:
    """The exported first-round model has the shape of the with-CS model the
    solver read, when the plan resolved in its first round."""
    if rc != 0:
        return [f"export-mps exited {rc}"]
    try:
        model = mps.import_model(mps_path)
    except Exception as exc:  # a malformed export is a failed study
        return [f"exported MPS does not re-import: {describe(exc)}"]
    if with_run.iterations == 1:
        want = (len(with_run.model.variables), len(with_run.model.constraints))
        got = (len(model.variables), len(model.constraints))
        if got != want:
            return [f"exported model has {got} columns/rows, solved model {want}"]
    return []


class HardSiting(Workload):
    """Tight feeders, Base, ``compare_siting``: three fixed sites, a seeded
    random draw and optimal placement."""

    name = "hard-siting"

    def prepare(self, recorder: Recorder) -> None:
        self.paths = feeders.hard_inputs(self.seed, self.inputs)

    def run(self, tracer) -> None:
        self.entries, self.errors = [], {}
        for path in self.paths:
            feeder_id = os.path.basename(path)
            try:
                net = network.load_feeder(path)
                scen = scenarios.make_scenario(net, "base")
                self.entries.append(assess_mod.compare_siting(
                    net, scen, feeder_id=feeder_id, seed=self.seed))
            except Exception as exc:  # one failed feeder must not end the run
                self.errors[f"{feeder_id}/compare_siting"] = describe(exc)

    def collect(self, recorder: Recorder, wall: float) -> Pass:
        triples = _assessed(recorder)
        by_report = {id(t["report"]): t for t in triples}
        studies = [Study(key, None, problems=[msg]) for key, msg in self.errors.items()]
        for entries in self.entries:
            fixed = {}
            for label, report in entries.items():
                key = f"{report.feeder_id}/{label}"
                t = by_report.get(id(report))
                if t is not None:
                    studies.append(Study(key, t["seconds"], report, t["with"], t["without"]))
                    if report.siting_mode == "fixed":
                        fixed[report.siting_bus] = report
                    continue
                # the random entry copies the fixed entry at the drawn site
                study = Study(key, None, report, copy_of=True)
                src = fixed.get(report.siting_bus)
                if src is None or src.c_itgr != report.c_itgr:
                    study.problems.append("random entry does not match its fixed site")
                studies.append(study)
        return Pass(wall, studies, _properties(triples, studies))

    def properties_hold(self, props: dict) -> dict[str, bool]:
        return {"nodes_exceed_final_solves": props["final_nodes"] > props["final_solves"],
                "positive_and_negative_classes":
                    {"positive", "negative"} <= set(props["classes"])}


WORKLOADS = {w.name: w for w in (FleetMix, LadderEasy, HardSiting)}


def gate_pass(result: Pass, reference: dict | None) -> None:
    """Run the correctness gate on every study of a pass, in place."""
    for study in result.studies:
        if study.copy_of:
            study.problems += gate.check_report(study.report)
        else:
            study.problems += gate.check_study(study.report, study.with_run,
                                               study.without_run, GAP)
        if reference is not None and study.report is not None:
            study.problems += gate.check_reference(study.key, study.report,
                                                   reference.get(study.key), GAP)
