"""Tests of the benchmark's own parts: generator, gate and span arithmetic."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import feeders
import gate
from spans import Span, Tracer, self_times

from gridxpand import AssessmentReport, load_feeder, make_scenario
from gridxpand.assess import assess


def _read_all(paths):
    out = []
    for p in paths:
        with open(p, "rb") as fh:
            out.append(fh.read())
    return out


@pytest.mark.parametrize("inputs", [feeders.fleet_inputs, feeders.ladder_inputs,
                                    feeders.hard_inputs])
def test_generator_is_deterministic_for_a_seed(tmp_path, inputs):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _read_all(inputs(7, str(tmp_path / "a")))
    again = _read_all(inputs(7, str(tmp_path / "b")))
    other = _read_all(inputs(8, str(tmp_path / "c")))
    assert first == again
    assert first != other


def test_generated_feeders_load_through_the_public_format(tmp_path):
    for path in feeders.ladder_inputs(3, str(tmp_path)) + feeders.hard_inputs(3, str(tmp_path)):
        net = load_feeder(path)
        assert net.feeder_head_segment == "fh"


def _report(c_with=5_000.0, c_without=1_000.0, classification="positive"):
    c_itgr = c_with - c_without
    return AssessmentReport(
        feeder_id="f.json", scenario="base", c_with_cs=c_with, c_without_cs=c_without,
        c_itgr=c_itgr, classification=classification,
        breakdown={"reconductor_OH": (c_with, 0.0), "storage": (0.0, c_without)},
        cs_capacity_mw=1.0, siting_mode="fixed", siting_bus="b0")


def test_gate_accepts_a_consistent_report():
    report = _report()
    expected = {"classification": "positive", "c_itgr": 4_000.0}
    assert gate.check_report(report) == []
    assert gate.check_reference("f.json/base", report, expected, 1e-4) == []


def test_gate_rejects_an_off_by_one_dollar_c_itgr():
    report = _report()
    off = replace(report, c_itgr=report.c_itgr + 1.0)
    assert gate.check_report(off)  # no longer c_with - c_without
    expected = {"classification": "positive", "c_itgr": report.c_itgr}
    assert gate.check_reference("f.json/base", off, expected, 1e-4)


def test_gate_rejects_a_flipped_classification():
    report = _report()
    expected = {"classification": "negative", "c_itgr": report.c_itgr}
    problems = gate.check_reference("f.json/base", report, expected, 1e-4)
    assert any("classification" in p for p in problems)
    assert gate.check_reference("f.json/base", report, None, 1e-4)


def test_gate_checks_solved_plans_against_highs(tmp_path):
    doc = feeders.loose_feeder(random.Random(1), 2)
    net = load_feeder(feeders.write(doc, str(tmp_path / "small.json")))
    report, with_run, without_run = assess(net, make_scenario(net, "base"))
    assert gate.check_study(report, with_run, without_run, 1e-4) == []
    with_run.solution.objective += 1.0
    problems = gate.check_study(report, with_run, without_run, 1e-4)
    assert any("HiGHS" in p for p in problems)
    without_run.status = "unresolved"
    assert any("unresolved" in p for p in gate.check_study(report, with_run, without_run,
                                                           1e-4))


def test_self_time_uses_the_union_of_overlapping_children():
    root = Span("root", 0.0, None)
    root.t1 = 10.0
    a = Span("a", 1.0, root)
    a.t1 = 5.0
    b = Span("b", 3.0, root)  # on another thread, overlapping a
    b.t1 = 7.0
    own = self_times([root, a, b])
    assert own[id(root)] == pytest.approx(4.0)
    assert own[id(a)] == pytest.approx(4.0)


class _Owner:
    @staticmethod
    def work(x):
        return x * 2


def test_tracer_wraps_restores_and_reports_absent_names():
    tracer = Tracer()
    original = _Owner.work
    assert tracer.wrap(_Owner, "work", "owner.work", lambda a, k, r: r)
    assert not tracer.wrap(_Owner, "gone", "owner.gone")
    with tracer.span("outer"):
        assert _Owner.work(21) == 42
    tracer.restore()
    assert _Owner.work is original
    assert tracer.absent == ["_Owner.gone"]
    outer, inner = tracer.spans
    assert inner.parent is outer and inner.info == 42
