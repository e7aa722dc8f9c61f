"""Command-line interface: exit codes, wrapper identity, fleet determinism."""

import json
import os
import random
import re
import shlex
from pathlib import Path

import pytest

from gridxpand.cli import build_parser, main
from gridxpand.mps import export_model, import_model
from gridxpand.network import load_feeder
from gridxpand.scenarios import (
    SCENARIO_LABELS,
    EngineConfig,
    expansion_loop,
    make_scenario,
    storage_cs_sites,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_tutorial(tutorial_path, capsys):
    code, out, err = run(capsys, "validate", tutorial_path)
    assert code == 0
    assert "buses: 4" in out
    assert "segments: 3" in out


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/feeder.json")
    assert code == 2


def test_unknown_flag_usage_error(tutorial_path, capsys):
    code, out, err = run(capsys, "validate", "--bogus", tutorial_path)
    assert code == 2


def test_unknown_subcommand(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 2


def test_pf_dumps_csv(tutorial_path, capsys):
    code, out, err = run(capsys, "pf", tutorial_path, "--day", "average",
                         "--hour", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "day,hour,element,kind,value"
    assert any(",voltage_pu," in ln for ln in lines[1:])
    # 3 segments * 3 quantities + 4 buses
    assert len(lines) == 1 + 9 + 4


def test_scenario_command_json(tutorial_path, capsys):
    code, out, err = run(capsys, "scenario", tutorial_path, "--scenario", "highload")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "highload"
    assert doc["scale_factor"] >= 1.0


def test_plan_matches_library_call(tutorial_path, tmp_path, capsys):
    out_path = tmp_path / "solution.json"
    code, out, err = run(capsys, "plan", tutorial_path, "--scenario", "base",
                         "--cs", "on", "--gap", "0.0", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    net = load_feeder(tutorial_path)
    result = expansion_loop(net, make_scenario(net, "base"), True, "optimal",
                            config=EngineConfig(solver_gap=0.0))
    assert doc["objective"] == pytest.approx(result.solution.objective, rel=1e-9)
    assert doc["status"] == result.status == "resolved"
    assert doc["residual_slack_mwh"] == pytest.approx(result.residual_slack_mwh)


def test_assess_report_written(tutorial_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "assess", tutorial_path, "--scenario", "base",
                         "--gap", "0.0", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["classification"] == "zero"
    assert doc["c_itgr"] == pytest.approx(doc["c_with_cs"] - doc["c_without_cs"])


def test_export_mps_parses_back(tutorial_path, tmp_path, capsys):
    out_path = tmp_path / "model.mps"
    code, out, err = run(capsys, "export-mps", tutorial_path, "--scenario", "base",
                         "--cs", "on", "--out", str(out_path))
    assert code == 0
    model = import_model(str(out_path))
    assert len(model.variables) > 100
    assert len(model.constraints) > 100


def test_config_file_supplies_defaults(tutorial_path, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[solver]\ngap = 0.0\n[engine]\nscale_step = 0.25\n")
    code, out, err = run(capsys, "--config", str(cfg), "scenario", tutorial_path,
                         "--scenario", "highload")
    assert code == 0
    doc = json.loads(out)
    # step 0.25 quantizes the scale factor differently than the default 0.05
    assert (doc["scale_factor"] - 1.0) % 0.25 == pytest.approx(0.0, abs=1e-9)


def _write_manifest(tmp_path, tutorial_path):
    manifest = tmp_path / "feeders.txt"
    manifest.write_text(f"{tutorial_path}\n")
    return manifest


def test_fleet_rows_and_determinism(tutorial_path, tmp_path, capsys):
    manifest = _write_manifest(tmp_path, tutorial_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code, _, _ = run(capsys, "fleet", "--manifest", str(manifest),
                     "--out-dir", str(out1), "--scenarios", "base,highload",
                     "--gap", "0.0", "--seed", "7")
    assert code == 0
    code, _, _ = run(capsys, "fleet", "--manifest", str(manifest),
                     "--out-dir", str(out2), "--scenarios", "base,highload",
                     "--gap", "0.0", "--seed", "7")
    assert code == 0
    csv1 = (out1 / "fleet.csv").read_bytes()
    csv2 = (out2 / "fleet.csv").read_bytes()
    assert csv1 == csv2
    rows = csv1.decode().strip().splitlines()
    assert len(rows) == 1 + 2  # header + feeders x scenarios
    assert (out1 / "histogram_c_itgr.csv").exists()


def test_fleet_threads_env(tutorial_path, tmp_path, capsys, monkeypatch):
    manifest = _write_manifest(tmp_path, tutorial_path)
    out1 = tmp_path / "seq"
    out2 = tmp_path / "par"
    run(capsys, "fleet", "--manifest", str(manifest), "--out-dir", str(out1),
        "--scenarios", "base", "--gap", "0.0")
    monkeypatch.setenv("GRIDXPAND_THREADS", "2")
    run(capsys, "fleet", "--manifest", str(manifest), "--out-dir", str(out2),
        "--scenarios", "base", "--gap", "0.0", "--threads", "4")
    assert (out1 / "fleet.csv").read_bytes() == (out2 / "fleet.csv").read_bytes()


def test_fleet_three_feeders_three_scenarios(tmp_path, capsys):
    from gridxpand.network import save_feeder
    from conftest import (NOON_CF, chain_feeder, cs_unit, day_map, flat,
                          rooftop_unit, storage_unit)

    days = ("average",)
    nets = []
    for i, load in enumerate((0.08, 0.12, 0.16)):
        nets.append(chain_feeder(
            loads={"b2": day_map(days, flat(load))},
            line_caps=[0.9], head_cap=1.5, kv_base=12.47,
            line_lengths=[0.5], line_placements=["rural-OH"],
            storage=(storage_unit("b1"), storage_unit("b2")),
            solar=(rooftop_unit("b2", 0.02, day_map(days, NOON_CF)),
                   cs_unit("b1", day_map(days, NOON_CF)),
                   cs_unit("b2", day_map(days, NOON_CF))),
            curtail_price=20.0,
        ))
    paths = []
    for i, net in enumerate(nets):
        p = tmp_path / f"feeder{i}.json"
        save_feeder(net, str(p))
        paths.append(str(p))
    manifest = tmp_path / "three.txt"
    manifest.write_text("\n".join(paths) + "\n")
    out = tmp_path / "fleet3"
    code, _, err = run(capsys, "fleet", "--manifest", str(manifest),
                       "--out-dir", str(out), "--gap", "0.0")
    assert code == 0, err
    rows = (out / "fleet.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3 * 3  # header + feeders x scenarios


def _break_solver(monkeypatch):
    import gridxpand.scenarios
    from gridxpand.solver import NumericalBreakdown

    def broken(model, **kwargs):
        raise NumericalBreakdown("stub breakdown", {"row_residual": 1.0})
    monkeypatch.setattr(gridxpand.scenarios, "solve_milp", broken)


@pytest.mark.parametrize("command", [("plan", "--cs", "on"), ("assess",)])
def test_solver_breakdown_exits_1(tutorial_path, capsys, monkeypatch, command):
    _break_solver(monkeypatch)
    code, out, err = run(capsys, command[0], tutorial_path, *command[1:])
    assert code == 1
    assert err.startswith("error: stub breakdown")
    assert "Traceback" not in err


def test_fleet_writes_error_rows_on_solver_breakdown(tutorial_path, tmp_path, capsys,
                                                     monkeypatch):
    _break_solver(monkeypatch)
    manifest = _write_manifest(tmp_path, tutorial_path)
    code, _, err = run(capsys, "fleet", "--manifest", str(manifest),
                       "--out-dir", str(tmp_path / "out"), "--scenarios", "base")
    assert code == 1
    assert "stub breakdown" in err
    rows = (tmp_path / "out" / "fleet.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[2] == "error"


@pytest.mark.parametrize("scenario", SCENARIO_LABELS)
def test_export_mps_writes_the_model_plan_solves(tutorial_path, tmp_path, capsys, scenario):
    net = load_feeder(tutorial_path)
    scen = make_scenario(net, scenario)
    sites = storage_cs_sites(scen.network)
    # (--cs, --siting, --seed) and the loop call it must match: (with_cs, mode, site)
    cases = [("off", "optimal", 0, (False, "optimal", None)),
             ("on", "optimal", 0, (True, "optimal", None))]
    cases += [("on", f"fixed:{bus}", 0, (True, "fixed", bus)) for bus in sites]
    cases += [("on", "random", seed, (True, "fixed", random.Random(seed).choice(sites)))
              for seed in range(5)]
    want: dict[tuple, bytes] = {}
    for cs, siting, seed, (with_cs, mode, site) in cases:
        if (with_cs, mode, site) not in want:
            result = expansion_loop(net, scen, with_cs, mode, fixed_site=site)
            assert result.iterations == 1
            path = tmp_path / "loop.mps"
            export_model(result.model, str(path))
            want[with_cs, mode, site] = path.read_bytes()
        out = tmp_path / "cli.mps"
        code, _, err = run(capsys, "export-mps", tutorial_path, "--scenario", scenario,
                           "--cs", cs, "--siting", siting, "--seed", str(seed),
                           "--out", str(out))
        assert code == 0, err
        assert out.read_bytes() == want[with_cs, mode, site], (cs, siting, seed)


def test_export_mps_applies_the_loop_site_check(tutorial_path, tmp_path, capsys):
    out = tmp_path / "model.mps"
    code, _, err = run(capsys, "export-mps", tutorial_path, "--cs", "on",
                       "--siting", "fixed:bogus", "--out", str(out))
    assert code == 1
    assert err.startswith("error: ")
    assert "not one of the candidate sites" in err
    assert not out.exists()


def test_fleet_costs_without_conductors_is_a_usage_error(tutorial_path, tmp_path, capsys):
    manifest = _write_manifest(tmp_path, tutorial_path)
    code, _, err = run(capsys, "fleet", "--manifest", str(manifest),
                       "--out-dir", str(tmp_path / "out"), "--costs", "costs.csv")
    assert code == 2
    assert err == "error: --costs and --conductors must be given together\n"
    assert not (tmp_path / "out").exists()


def test_fleet_bad_siting_is_a_usage_error(tutorial_path, tmp_path, capsys):
    manifest = _write_manifest(tmp_path, tutorial_path)
    code, _, err = run(capsys, "fleet", "--manifest", str(manifest),
                       "--out-dir", str(tmp_path / "out"), "--siting", "sideways")
    assert code == 2
    assert "bad --siting value 'sideways'" in err
    assert not (tmp_path / "out").exists()


def test_fleet_rejects_a_non_integer_thread_cap(tutorial_path, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setenv("GRIDXPAND_THREADS", "abc")
    manifest = _write_manifest(tmp_path, tutorial_path)
    code, _, err = run(capsys, "fleet", "--manifest", str(manifest),
                       "--out-dir", str(tmp_path / "out"), "--scenarios", "base")
    assert code == 2
    assert err.startswith("error: ")
    assert "GRIDXPAND_THREADS" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_fleet_keeps_going_past_a_malformed_feeder(tutorial_path, tmp_path, capsys):
    doc = json.loads(Path(tutorial_path).read_text())
    del doc["storage"][0]["status"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    both = tmp_path / "both.txt"
    both.write_text(f"{tutorial_path}\n{bad}\n")
    code, _, err = run(capsys, "fleet", "--manifest", str(both),
                       "--out-dir", str(tmp_path / "both"))
    assert code == 1
    for scenario in SCENARIO_LABELS:
        assert f"bad.json [{scenario}]: 'status'" in err
    code, _, _ = run(capsys, "fleet", "--manifest", str(_write_manifest(tmp_path, tutorial_path)),
                     "--out-dir", str(tmp_path / "alone"))
    assert code == 0
    rows = (tmp_path / "both" / "fleet.csv").read_bytes().splitlines(keepends=True)
    alone = (tmp_path / "alone" / "fleet.csv").read_bytes().splitlines(keepends=True)
    assert len(alone) == 1 + len(SCENARIO_LABELS)
    assert rows[:len(alone)] == alone
    assert [r.split(b",")[:3] for r in rows[len(alone):]] == [
        [b"bad.json", s.encode(), b"error"] for s in SCENARIO_LABELS]


def _readme_command_lines() -> list[str]:
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [ln for ln in block.splitlines() if ln.startswith("gridxpand ")]


def test_readme_shows_every_subcommand():
    shown = {shlex.split(ln)[1] for ln in _readme_command_lines()}
    assert shown == {"validate", "pf", "scenario", "plan", "assess", "export-mps", "fleet"}


# flags a subcommand does not read are rejected, not silently ignored
_UNREAD_FLAGS = [f"gridxpand scenario $TUTORIAL {flag}" for flag in
                 ("--region CA", "--costs c.csv", "--conductors k.csv", "--gap 0", "--seed 1")]
_UNREAD_FLAGS.append("gridxpand export-mps $TUTORIAL --out m.mps --gap 0")


@pytest.mark.parametrize("line, parses", [(ln, True) for ln in _readme_command_lines()]
                         + [(ln, False) for ln in _UNREAD_FLAGS])
def test_command_lines_parse_as_documented(line, parses, capsys):
    argv = shlex.split(line)[1:]
    if parses:
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_siting_fixed_with_an_empty_bus_is_a_usage_error(tutorial_path, capsys):
    code, _, err = run(capsys, "plan", tutorial_path, "--cs", "on", "--siting", "fixed:")
    assert code == 2
    assert "--siting" in err


def _drop(key):
    return lambda entry: entry.pop(key)


MALFORMED = [
    ("storage", 0, _drop("status"), "storage[bess@b1].status"),
    ("solar", 0, _drop("bus"), "solar[rts_b3].bus"),
    ("days", 0, lambda day: day.update(weight="abc"), "days[peak_load].weight"),
    ("buses", 1, None, "buses[1]"),
    ("buses", 1, lambda bus: bus["active_load"]["average"].__setitem__(5, float("nan")),
     "buses[b1].active_load[average]"),
]


@pytest.mark.parametrize("section, i, mutate, path", MALFORMED,
                         ids=[m[3] for m in MALFORMED])
def test_malformed_feeder_names_the_field(tutorial_path, tmp_path, capsys,
                                          section, i, mutate, path):
    from gridxpand.network import FeederFormatError

    doc = json.loads(Path(tutorial_path).read_text())
    if mutate is None:
        doc[section][i] = 5
    else:
        mutate(doc[section][i])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FeederFormatError, match=re.escape(path)):
        load_feeder(str(bad))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert path in err
    assert "Traceback" not in err
