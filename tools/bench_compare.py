"""Compare two sets of ``benchmarks/run.py`` results for one workload.

Each file holds the JSON result lines of several runs (other lines are
skipped), one file for the parent tree and one for the change. For every
end-to-end metric in ``BENCHMARK.json`` the script prints the median and
quartiles of each side, the change/parent ratio of the medians, and in how
many run pairs (line k of each file) the change was better. A metric whose
median got worse by more than its bound is flagged, and the exit code is 1.

    python3 tools/bench_compare.py parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_results(path: str) -> list[dict]:
    """The JSON result lines of a file: objects with a ``metrics`` map."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict) and isinstance(doc.get("metrics"), dict):
                out.append(doc)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per end-to-end metric that both sides report."""
    rows = []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
        if not a or not b:
            continue
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("inf")
        worse = ratio > 1 + metric["bound"] if lower else ratio < 1 - metric["bound"]
        pairs = list(zip(a, b))
        better = sum(1 for x, y in pairs if (y < x if lower else y > x))
        rows.append({"name": name, "unit": metric["unit"], "parent": qa, "change": qb,
                     "ratio": ratio, "bound": metric["bound"], "worse": worse,
                     "better_pairs": better, "pairs": len(pairs)})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="result lines of the parent tree")
    parser.add_argument("change", help="result lines of the change")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)
    parent, change = read_results(args.parent), read_results(args.change)
    if not parent or not change:
        print("error: no result lines in "
              f"{args.parent if not parent else args.change}", file=sys.stderr)
        return 2
    failed = [sum(r.get("failed", 0) for r in runs) for runs in (parent, change)]
    print(f"runs: parent {len(parent)}, change {len(change)}; "
          f"failed studies: parent {failed[0]}, change {failed[1]}")
    print(f"{'metric':<12} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'ratio':>7} {'better':>7}")
    rows = compare(parent, change, spec)
    for r in rows:
        pa, ch = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {r['unit']}"
                  for q in (r["parent"], r["change"]))
        flag = f"  WORSE beyond bound {r['bound']:.0%}" if r["worse"] else ""
        print(f"{r['name']:<12} {pa:>32} {ch:>32} {r['ratio']:>7.3f} "
              f"{r['better_pairs']:>3}/{r['pairs']:<3}{flag}")
    return 1 if any(r["worse"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
