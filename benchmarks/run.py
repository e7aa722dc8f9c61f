#!/usr/bin/env python3
"""Seeded benchmark for gridxpand.

Run from the repository root:

    python3 benchmarks/run.py --workload {fleet-mix,ladder-easy,hard-siting}
        [--seed N] [--seconds S] [--trace 0|1] [--record-reference]

The run generates the workload's feeders from the seed, then repeats passes
over them until ``--seconds`` of pass time have gone by. Each study is
checked by the correctness gate after its pass, outside the timed region.
The run prints a record (every metric by name and unit, the workload's
property counts, machine and library versions), and then, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` (studies) and
``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; the spans are
written to ``.bench_out/`` as JSON lines. ``--record-reference`` (default seed
only) stores the run's answers as the committed reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 0
SETUP_RUNS = 7
SETUP_CODE = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gridxpand
gridxpand.default_cost_database()
print(repr(time.perf_counter() - t0))
"""

END_TO_END = (("wall_s", "s"), ("study_s_p50", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# printed in the record only: the slowest study moves with the branch-and-bound
# tree of one seeded input, by more than a bound could absorb across seeds
RECORD_ONLY = (("study_s_max", "s"), ("failed_frac", "frac"))


class SetupError(RuntimeError):
    pass


def measure_setup() -> list[float]:
    """The program's own set-up, ``import gridxpand`` plus the cost-database
    load, each in a fresh interpreter; one sample per interpreter."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def import_program():
    """Import gridxpand from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "gridxpand", "__init__.py")):
        raise SetupError(f"no gridxpand sources under {SRC}")
    sys.path.insert(0, SRC)
    import gridxpand
    where = os.path.realpath(os.path.dirname(gridxpand.__file__))
    if where != os.path.realpath(os.path.join(SRC, "gridxpand")):
        raise SetupError(f"imported gridxpand from {where}, not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    return ref[5:]


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "commit": git_commit()}


def run_passes(args, wl, recorder, tracer):
    """Repeat passes until the pass time reaches ``args.seconds``; in trace
    mode untraced and traced passes alternate. Returns the passes as
    (traced, Pass) pairs and the peak RSS after the first pass."""
    import gate
    import layers
    import workloads
    from spans import NullTracer

    reference = None
    if args.seed == DEFAULT_SEED and not args.record_reference:
        reference = gate.load_reference(args.workload)
    passes, peak_rss_mb, measured = [], None, 0.0
    null = NullTracer()
    while True:
        traced = bool(args.trace) and sum(1 for t, _ in passes if not t) > \
            sum(1 for t, _ in passes if t)
        error = None
        if traced:
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span(layers.PASS_SPAN, root=True):
                    wl.run(tracer)
            else:
                wl.run(null)
        except Exception as exc:  # a broken pass is reported, not fatal
            error = workloads.describe(exc)
        finally:
            wall = time.perf_counter() - t0
            tracer.restore()
        measured += wall
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None:
            result = wl.collect(recorder, wall)
        else:
            result = workloads.Pass(wall, [workloads.Study("pass", None, problems=[error])],
                                    {})
        recorder.calls.clear()
        workloads.gate_pass(result, reference)
        passes.append((traced, result))
        kinds = {t for t, _ in passes}
        if measured >= args.seconds and (kinds == {False, True} or not args.trace):
            return passes, peak_rss_mb


def end_to_end(passes, setup, peak_rss_mb) -> dict[str, float]:
    untraced = [p for t, p in passes if not t]
    # every pass runs the same studies: a study's time is its median over the
    # passes, so one pass slowed by the machine moves the slowest study less
    by_study: dict[str, list[float]] = {}
    for p in untraced:
        for s in p.studies:
            if s.seconds is not None:
                by_study.setdefault(s.key, []).append(s.seconds)
    times = [statistics.median(v) for v in by_study.values()]
    return {
        "wall_s": statistics.median(p.wall for p in untraced),
        "study_s_p50": statistics.median(times) if times else 0.0,
        "study_s_max": max(times, default=0.0),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-mix", "ladder-easy", "hard-siting"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("--record-reference needs the default seed")

    try:
        import_program()
        setup = measure_setup()
    except (SetupError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    import layers
    import workloads
    from spans import Tracer

    work_dir = os.path.join(OUT, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    recorder = workloads.Recorder()
    tracer = Tracer()
    try:
        t0 = time.perf_counter()
        wl.prepare(recorder)
        prepare_s = time.perf_counter() - t0
        passes, peak_rss_mb = run_passes(args, wl, recorder, tracer)
    finally:
        recorder.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    studies = [s for _, p in passes for s in p.studies]
    failed = [s for s in studies if s.problems]
    first = next((p for t, p in passes if not t), passes[0][1])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "input_prepare_s": prepare_s,
        "passes": {"untraced": sum(1 for t, _ in passes if not t),
                   "traced": sum(1 for t, _ in passes if t)},
        "studies": {"attempted": len(studies), "failed": len(failed),
                    "failed_frac": len(failed) / len(studies),
                    "timed_samples": sum(1 for t, p in passes if not t
                                         for s in p.studies if s.seconds is not None)},
        "properties": first.properties,
        "property_holds": wl.properties_hold(first.properties) if first.properties else {},
        "problems": {s.key: s.problems for s in failed},
        "absent_layers": sorted(set(tracer.absent + recorder.absent)),
    }
    if args.trace:
        walls = {t: [p.wall for tt, p in passes if tt == t] for t in (False, True)}
        per_layer = layers.metrics(tracer, walls[True], walls[False],
                                   workloads.FLEET_THREADS)
        units = layers.PER_LAYER + layers.WORKLOAD_ONLY[args.workload]
        record["metrics"] = {name: {"value": per_layer[name], "unit": unit}
                             for name, unit in units}
        reported = layers.PER_LAYER
        _write_spans(args, tracer)
    else:
        e2e = end_to_end(passes, setup, peak_rss_mb)
        e2e["failed_frac"] = record["studies"]["failed_frac"]
        record["metrics"] = {name: {"value": e2e[name], "unit": unit}
                             for name, unit in END_TO_END + RECORD_ONLY}
        record["setup_samples_s"] = setup
        reported = END_TO_END

    if args.record_reference:
        _record_reference(args.workload, first, failed)

    _print_record(record)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-s{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(studies),
        "failed": len(failed),
        "metrics": {name: record["metrics"][name] for name, _ in reported},
    }))
    return 0


def _record_reference(workload: str, first, failed) -> None:
    import gate
    if failed:
        print("not recording a reference: some studies failed", file=sys.stderr)
        return
    gate.save_reference(workload, {
        s.key: {"classification": s.report.classification, "c_itgr": s.report.c_itgr}
        for s in first.studies})


def _print_record(record: dict) -> None:
    m = record["machine"]
    print(f"# gridxpand benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['seconds']:g} s, trace {record['trace']}")
    print(f"machine: nproc {m['nproc']} (affinity {m['affinity']}), python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, commit {m['commit']}")
    print(f"passes: {record['passes']['untraced']} untraced, {record['passes']['traced']} "
          f"traced; studies {record['studies']['attempted']} attempted, "
          f"{record['studies']['failed']} failed, "
          f"{record['studies']['timed_samples']} timed samples")
    for key, value in record["properties"].items():
        print(f"property {key}: {json.dumps(value, sort_keys=True)}")
    for key, holds in record["property_holds"].items():
        print(f"property holds {key}: {holds}")
    for key, problems in record["problems"].items():
        for problem in problems:
            print(f"FAILED {key}: {problem}")
    if record["absent_layers"]:
        print(f"absent layers (names no longer found): {', '.join(record['absent_layers'])}")
    for name, m in record["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")


def _write_spans(args, tracer) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-s{args.seed}-spans.jsonl")
    with open(path, "w") as fh:
        for rec in tracer.to_records():
            fh.write(json.dumps(rec) + "\n")


if __name__ == "__main__":
    sys.exit(main())
