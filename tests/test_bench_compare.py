"""tools/bench_compare.py on synthetic result lines."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import bench_compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "hit_rate", "unit": "frac", "better": "higher", "bound": 0.1},
]}


def _lines(path, runs, noise="passes: 3 untraced\n"):
    with open(path, "w") as fh:
        for metrics in runs:
            fh.write(noise)
            fh.write(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
                k: {"value": v, "unit": "s"} for k, v in metrics.items()}}) + "\n")
    return str(path)


def test_reports_medians_quartiles_ratio_and_pairs(tmp_path):
    parent = _lines(tmp_path / "p", [{"wall_s": w, "peak_rss_mb": 100.0, "hit_rate": 0.5}
                                     for w in (2.0, 2.2, 2.4, 2.1, 2.3)])
    change = _lines(tmp_path / "c", [{"wall_s": w, "peak_rss_mb": 101.0, "hit_rate": 0.5}
                                     for w in (1.4, 1.5, 2.5, 1.3, 1.6)])
    rows = {r["name"]: r for r in bench_compare.compare(
        bench_compare.read_results(parent), bench_compare.read_results(change), SPEC)}
    wall = rows["wall_s"]
    assert wall["parent"] == pytest.approx((2.1, 2.2, 2.3))
    assert wall["change"] == pytest.approx((1.4, 1.5, 1.6))
    assert wall["ratio"] == pytest.approx(1.5 / 2.2)
    assert (wall["better_pairs"], wall["pairs"]) == (4, 5)
    assert not any(r["worse"] for r in rows.values())


def test_flags_a_metric_worse_beyond_its_bound(tmp_path, capsys):
    parent = _lines(tmp_path / "p", [{"wall_s": 1.0, "peak_rss_mb": 100.0, "hit_rate": 0.5}])
    change = _lines(tmp_path / "c", [{"wall_s": 1.2, "peak_rss_mb": 121.0, "hit_rate": 0.44}])
    code = bench_compare.main([parent, change, "--spec", _spec(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    flagged = {line.split()[0] for line in out.splitlines() if "WORSE" in line}
    # 20% slower is inside the 25% bound; 21% more memory and 12% fewer hits are not
    assert flagged == {"peak_rss_mb", "hit_rate"}


def test_no_result_lines_is_a_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.write_text("not json\n")
    parent = _lines(tmp_path / "p", [{"wall_s": 1.0}])
    assert bench_compare.main([parent, str(empty), "--spec", _spec(tmp_path)]) == 2


def _spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)
