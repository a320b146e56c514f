import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ehdetect import ScenarioError, emit_scenario, load_scenario, optimize_power_map
from ehdetect.cli import (
    CALIBRATION_SEED_OFFSET,
    EXIT_CONVERGENCE,
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    main,
    write_table,
)
import ehdetect.battery
import ehdetect.optimizer
from references import package_env, read_table

WIDE_SCENARIO = """\
[network]
prior_h0 = 0.5
capacity = 14
unit_energy = 0.1
slot_seconds = 0.1
mean_harvest = 2.0
drop_fraction = 0.2
power_budget = 5.0

[sensor.1]
mean_gain = 1.0
noise_var = 1.0
p_f = 0.2
p_d = 0.9
outage_confidence = 0.9
thresholds = 0, 0.3, 0.7, 1.2, 1.8, 2.5, inf
"""


def _toy(scenario_dir) -> str:
    return str(scenario_dir / "toy.scn")


# toy.scn at the former stall point: outside the concavity band, and the
# spend jumps across the budget, so the price bracket collapses
STALL_NOTES = [
    "warning: sensor 0: operating point outside the concavity band; "
    "the stationarity condition may have multiple roots",
    "warning: price bracket collapsed before meeting the budget tolerance",
]


def _stall_point(tmp_path, toy_scenario) -> str:
    net = replace(toy_scenario.network, power_budget=0.291, mean_harvest=3.78)
    sensor = replace(toy_scenario.sensors[0], p_f=0.073, p_d=0.26)
    path = tmp_path / "stall.scn"
    emit_scenario(replace(toy_scenario, network=net, sensors=(sensor,)), path)
    return str(path)


def _read_bytes(*paths) -> bytes:
    return b"".join(Path(p).read_bytes() for p in paths)


# ---------------------------------------------------------------------------
# powermap


def test_powermap_writes_deterministic_tables(tmp_path, scenario_dir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["powermap", "--scenario", _toy(scenario_dir),
                 "--out", str(out1)]) == EXIT_OK
    assert main(["powermap", "--scenario", _toy(scenario_dir),
                 "--out", str(out2)]) == EXIT_OK
    names = ("power_map.csv", "battery_psi.csv", "summary.csv")
    for name in names:
        assert (out1 / name).is_file()
    assert _read_bytes(*(out1 / n for n in names)) == \
        _read_bytes(*(out2 / n for n in names))

    meta, rows = read_table(out1 / "power_map.csv")
    assert meta["format"] == "power_map"
    assert meta["converged"] == "true"
    assert len(rows) == 1 * 3 * 6  # sensors x levels x battery states
    assert list(rows[0]) == ["sensor", "level", "battery_state",
                             "power_watts", "alpha_units"]
    # dead level never transmits; causality holds row by row
    for row in rows:
        if row["level"] == "0":
            assert row["power_watts"] == "0.0"
        assert int(row["alpha_units"]) <= int(row["battery_state"])

    meta, rows = read_table(out1 / "battery_psi.csv")
    assert len(rows) == 6
    total = sum(float(r["probability"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)

    _, rows = read_table(out1 / "summary.csv")
    metrics = {r["metric"]: r["value"] for r in rows}
    assert metrics["converged"] == "true"
    assert float(metrics["lambda_star"]) == 0.0
    assert int(metrics["warning_count"]) == 0
    names = list(metrics)
    assert names.index("price_evaluations") == names.index("outer_iterations") + 1
    # the loose budget is met at price 0: one evaluation per round
    assert int(metrics["price_evaluations"]) == int(metrics["outer_iterations"])


def test_powermap_row_order_and_scaling(tmp_path):
    scn = tmp_path / "wide.scn"
    scn.write_text(WIDE_SCENARIO)
    out = tmp_path / "out"
    assert main(["powermap", "--scenario", str(scn), "--out", str(out)]) == EXIT_OK
    _, rows = read_table(out / "power_map.csv")
    assert len(rows) == 6 * 15  # six quantizer levels, fifteen battery states
    # (sensor, level, state) lexicographic order
    triples = [(int(r["sensor"]), int(r["level"]), int(r["battery_state"]))
               for r in rows]
    assert triples == sorted(triples)
    assert triples[0] == (0, 0, 0)
    assert triples[-1] == (0, 5, 14)


RECORDED_TABLES = Path(__file__).resolve().parent / "data" / "powermap"


def _agrees(fresh: str, recorded: str) -> bool:
    """Counts and words exactly; other numbers to 1e-12 relative or 1e-15
    absolute, so last-bit moves of a LAPACK build pass and exact zeros and
    psi entries near 1e-19 compare as equal."""
    if fresh.lstrip("-").isdigit() or recorded.lstrip("-").isdigit():
        return fresh == recorded
    try:
        a, b = float(fresh), float(recorded)
    except ValueError:
        return fresh == recorded
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("name", ["toy", "two_sensor"])
def test_powermap_tables_match_the_committed_record(tmp_path, scenario_dir, name):
    # regenerate a record with: python -m ehdetect powermap --scenario
    # scenarios/<name>.scn --out tests/data/powermap/<name>
    scenario = scenario_dir / f"{name}.scn"
    assert main(["powermap", "--scenario", str(scenario), "--out", str(tmp_path)]) == EXIT_OK
    for table in ("power_map.csv", "battery_psi.csv", "summary.csv"):
        meta, rows = read_table(tmp_path / table)
        want_meta, want_rows = read_table(RECORDED_TABLES / name / table)
        assert list(meta) == list(want_meta), table
        for key in meta:
            assert _agrees(meta[key], want_meta[key]), (table, key, meta[key], want_meta[key])
        assert len(rows) == len(want_rows), table
        assert list(rows[0]) == list(want_rows[0]), table
        for i, (row, want) in enumerate(zip(rows, want_rows)):
            if table == "summary.csv":
                assert row["metric"] == want["metric"], (table, i)
                # a rounding-level value, held to validate's certificate
                # bounds instead; the evaluation count is not part of the record
                if row["metric"] in ("price_evaluations", "max_interior_residual",
                                     "slackness"):
                    continue
            for column in row:
                assert _agrees(row[column], want[column]), \
                    (table, i, column, row[column], want[column])
    # rows holds summary.csv, the table read last
    metrics = {row["metric"]: float(row["value"]) for row in rows
               if row["metric"] != "converged"}
    budget = load_scenario(scenario).network.power_budget
    assert metrics["max_interior_residual"] <= 1e-6 * max(metrics["lambda_star"], 1e-12)
    assert abs(metrics["slackness"]) <= 1e-6 * budget


def test_powermap_nonconverged_exit(tmp_path, scenario_dir, toy_scenario,
                                    monkeypatch):
    real = optimize_power_map(toy_scenario)
    fake = replace(real, converged=False,
                   warnings=("battery fixed point did not settle",))
    monkeypatch.setattr("ehdetect.cli.optimize_power_map", lambda sc: fake)
    out = tmp_path / "out"
    code = main(["powermap", "--scenario", _toy(scenario_dir), "--out", str(out)])
    assert code == EXIT_CONVERGENCE
    # the partial result is still written for inspection
    assert (out / "power_map.csv").is_file()
    meta, _ = read_table(out / "power_map.csv")
    assert meta["converged"] == "false"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_report_and_occupancy(tmp_path, scenario_dir):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", _toy(scenario_dir), "--out", str(out),
                 "--seed", "7", "--samples", "4000"])
    assert code == EXIT_OK
    meta, rows = read_table(out / "report.csv")
    assert meta["format"] == "mc_report"
    metrics = {r["metric"]: r for r in rows}
    pd = float(metrics["pd_fc"]["value"])
    pf = float(metrics["pf_fc"]["value"])
    assert 0.0 <= pf < pd <= 1.0
    assert float(metrics["pd_fc"]["ci_low"]) <= pd <= float(metrics["pd_fc"]["ci_high"])
    assert metrics["seed"]["value"] == "7"
    assert metrics["samples"]["value"] == "4000"

    _, occ = read_table(out / "occupancy.csv")
    assert len(occ) == 6
    emp = sum(float(r["empirical"]) for r in occ)
    ana = sum(float(r["analytic"]) for r in occ)
    assert emp == pytest.approx(1.0, abs=1e-9)
    assert ana == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("prior_h0,empty", [(0.999, "pd_fc"), (0.001, "pf_fc")])
def test_simulate_reports_an_unseen_hypothesis_as_infinite_width(tmp_path, toy_scenario,
                                                                  prior_h0, empty):
    # 200 slots at these priors hold no slot of the rare hypothesis: its rate
    # has no estimate, which is a property of the run, not a bad input
    scn = tmp_path / "rare.scn"
    emit_scenario(replace(toy_scenario,
                          network=replace(toy_scenario.network, prior_h0=prior_h0)), scn)
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", str(scn), "--out", str(out), "--samples", "200",
                 "--calibration-samples", "200", "--seed", "1"])
    assert code == EXIT_OK
    _, rows = read_table(out / "report.csv")
    row = {r["metric"]: r for r in rows}[empty]
    assert (row["ci_low"], row["ci_high"]) == ("-inf", "inf")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_first_rank_reproduces_simulate(tmp_path, scenario_dir):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--scenario", _toy(scenario_dir),
                 "--out", str(sim_out), "--seed", "7", "--samples", "4000"]) == EXIT_OK
    _, rows = read_table(sim_out / "report.csv")
    sim_pd = {r["metric"]: r["value"] for r in rows}["pd_fc"]

    sweep_out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", _toy(scenario_dir), "--out", str(sweep_out),
                 "--variable", "power_budget", "--values", "2,4",
                 "--seed", "7", "--samples", "4000"])
    assert code == EXIT_OK
    meta, rows = read_table(sweep_out)
    assert meta["variable"] == "power_budget"
    assert "incomplete" not in meta
    assert len(rows) == 2
    # the toy budget is already 2.0, so rank 0 re-runs the same seeds
    assert rows[0]["value"] == "2.0"
    assert rows[0]["pd_fc"] == sim_pd


def test_sweep_skip_simulation(tmp_path, scenario_dir):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", _toy(scenario_dir), "--out", str(out),
                 "--variable", "mean_harvest", "--values", "1,3",
                 "--skip-simulation"])
    assert code == EXIT_OK
    _, rows = read_table(out)
    assert len(rows) == 2
    for row in rows:
        assert row["pd_fc"] == "nan"
        assert row["pf_fc"] == "nan"
        assert float(row["objective_j"]) >= 2.0


def test_sweep_marks_partial_output(tmp_path, scenario_dir, monkeypatch, capsys):
    calls = {"n": 0}

    def flaky(scenario, **kwargs):
        calls["n"] += 1
        outcome = optimize_power_map(scenario, **kwargs)
        if calls["n"] > 1:
            outcome = replace(outcome, converged=False,
                              warnings=("instrumented failure",))
        return outcome

    monkeypatch.setattr("ehdetect.cli.optimize_power_map", flaky)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", _toy(scenario_dir), "--out", str(out),
                 "--variable", "power_budget", "--values", "2,4",
                 "--skip-simulation"])
    assert code == EXIT_CONVERGENCE
    meta, rows = read_table(out)
    assert meta["incomplete"] == "true"
    assert len(rows) == 1  # the completed prefix survives
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: instrumented failure",
                   "sweep point power_budget=4.0 failed: power map did not converge"]


def test_sweep_exits_on_a_point_its_solve_rejects(tmp_path, scenario_dir,
                                                   monkeypatch, capsys):
    calls = {"n": 0}

    def picky(scenario, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise ScenarioError("instrumented rejection")
        return optimize_power_map(scenario, **kwargs)

    monkeypatch.setattr("ehdetect.cli.optimize_power_map", picky)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", _toy(scenario_dir), "--out", str(out),
                 "--variable", "power_budget", "--values", "2,4,6",
                 "--skip-simulation"])
    # every point passed NetworkParams, so a ScenarioError from a solve is a
    # library fault: main reports it like any input error and no CSV is written
    assert code == EXIT_INPUT
    assert calls["n"] == 2
    assert capsys.readouterr().err.splitlines() == ["error: instrumented rejection"]
    assert not out.exists()


def test_sweep_reports_why_a_point_did_not_converge(tmp_path, scenario_dir,
                                                    monkeypatch, capsys):
    # one round prices the full-battery start, whose unit map cannot repeat yet
    monkeypatch.setattr(ehdetect.battery, "MAX_ROUNDS", 1)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", _toy(scenario_dir), "--out", str(out),
                 "--variable", "power_budget", "--values", "2,4",
                 "--skip-simulation"])
    assert code == EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert "warning: battery fixed point did not settle" in err
    assert "residual=nan" not in err
    meta, rows = read_table(out)
    assert meta["incomplete"] == "true"
    assert rows == []


@pytest.mark.parametrize("argv, solves, code", [
    (["powermap", "--out", "{tmp}/map"], 1, EXIT_OK),
    (["simulate", "--out", "{tmp}/sim", "--samples", "2000"], 1, EXIT_OK),
    (["sweep", "--out", "{tmp}/sweep.csv", "--variable", "power_budget",
      "--values", "0.1,0.2,0.3", "--skip-simulation"], 3, EXIT_OK),
    # the collapsed bracket misses the budget, so the certificate check fails
    (["validate"], 1, EXIT_INPUT),
], ids=["powermap", "simulate", "sweep", "validate"])
def test_every_command_prints_each_note_once_per_solve(tmp_path, toy_scenario,
                                                       capsys, argv, solves, code):
    args = [a.format(tmp=tmp_path) for a in argv[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the solve's trouble is never a Python warning
        assert main([argv[0], "--scenario", _stall_point(tmp_path, toy_scenario),
                     *args]) == code
    err = capsys.readouterr().err.splitlines()
    assert err == STALL_NOTES * solves


OVERRIDE_FLAGS = ["--transmit-prob-model", "decision", "--fc-knowledge", "map_marginal"]
SMALL_RUN = ["--samples", "2000", "--calibration-samples", "2000", "--seed", "7"]


def _outputs(path) -> dict:
    """The bytes of one CSV, or of every file in a directory by name."""
    path = Path(path)
    if path.is_dir():
        return {f.name: f.read_bytes() for f in sorted(path.iterdir())}
    return {"": path.read_bytes()}


@pytest.mark.parametrize("argv", [
    ["powermap", "--out", "{out}"],
    ["simulate", "--out", "{out}", *SMALL_RUN],
    ["sweep", "--out", "{out}.csv", "--variable", "power_budget",
     "--values", "0.5,1", *SMALL_RUN],
    ["validate"],
], ids=["powermap", "simulate", "sweep", "validate"])
def test_override_flags_equal_a_scenario_that_sets_the_keys(tmp_path, scenario_dir,
                                                            toy_scenario, capsys,
                                                            monkeypatch, argv):
    # every command takes both flags, and they act as the scenario keys would
    keyed = tmp_path / "keyed.scn"
    emit_scenario(replace(toy_scenario, network=replace(
        toy_scenario.network, transmit_prob_model="decision",
        fc_knowledge="map_marginal")), keyed)
    runs = {
        "flags": [_toy(scenario_dir), *OVERRIDE_FLAGS],
        "keys": [str(keyed)],
        "plain": [_toy(scenario_dir)],
    }
    solved = []  # the two keys of every scenario the command solves

    def recording_solve(scenario, **kwargs):
        net = scenario.network
        solved.append((net.transmit_prob_model, net.fc_knowledge))
        return optimize_power_map(scenario, **kwargs)

    monkeypatch.setattr("ehdetect.cli.optimize_power_map", recording_solve)
    written, printed, solves = {}, {}, {}
    for name, scenario in runs.items():
        out = str(tmp_path / name)
        args = [a.format(out=out) for a in argv[1:]]
        solved.clear()
        assert main([argv[0], "--scenario", *scenario, *args]) == EXIT_OK
        printed[name] = capsys.readouterr().out
        solves[name] = list(solved)
        if "--out" in args:
            written[name] = _outputs(args[args.index("--out") + 1])
    # the flags reach every solve, and the plain run keeps toy's own keys
    assert solves["flags"] and set(solves["flags"]) == {("decision", "map_marginal")}
    assert solves["keys"] == solves["flags"]
    assert solves["plain"] == [("prior", "genie")] * len(solves["flags"])
    if argv[0] == "validate":
        # both runs are exact against the oracle, so the printed checks may
        # coincide; what the flags change is the solve recorded above
        assert printed["flags"] == printed["keys"]
    else:
        assert written["flags"] and written["flags"] == written["keys"]
        assert written["flags"] != written["plain"]  # the keys change the tables


def test_fc_knowledge_leaves_the_power_map_tables_alone(tmp_path, scenario_dir, capsys):
    # the solve never reads the fusion model: only the Monte Carlo does
    runs = {"plain": [], "flag": ["--fc-knowledge", "map_marginal"]}
    written = {}
    for name, flags in runs.items():
        out = tmp_path / name
        assert main(["powermap", "--scenario", _toy(scenario_dir), "--out", str(out),
                     *flags]) == EXIT_OK
        written[name] = _outputs(out)
    capsys.readouterr()
    assert written["plain"] and written["plain"] == written["flag"]


@pytest.mark.parametrize("variable, values, message", [
    ("noise_floor", "1", "argument --variable: invalid choice"),
    ("power_budget", "", "argument --values: expected strictly ascending"),
    ("power_budget", "2,1", "argument --values: expected strictly ascending"),
    ("power_budget", "1,1", "argument --values: expected strictly ascending"),
    ("power_budget", "0,1", "error: power_budget: must be finite and > 0"),
    ("power_budget", "nan", "error: power_budget: must be finite and > 0"),
    ("mean_harvest", "inf", "error: mean_harvest: must be finite and > 0"),
    ("capacity", "0", "error: capacity: must be >= 1"),
    ("capacity", "2.5", "error: capacity: must be an integer"),
    ("capacity", "3,5.5", "error: capacity: must be an integer"),
    # NumPy could not size its battery chain: a traceback from np.arange
    ("capacity", "1e30", "error: capacity: must be at most "),
])
def test_sweep_refuses_a_bad_request_before_any_solve(tmp_path, scenario_dir, monkeypatch,
                                                      capsys, variable, values, message):
    solves = []
    monkeypatch.setattr("ehdetect.cli.optimize_power_map", solves.append)
    out = tmp_path / "sweep.csv"
    try:
        code = main(["sweep", "--scenario", _toy(scenario_dir), "--out", str(out),
                     "--variable", variable, "--values", values, "--skip-simulation"])
    except SystemExit as exc:  # the parser's usage error
        code = exc.code
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert solves == []
    assert not out.exists()


def test_a_scenario_file_with_a_capacity_numpy_cannot_size_exits_with_input_code(
        tmp_path, scenario_dir, monkeypatch, capsys):
    # the file-side twin of the sweep's 1e30: it used to end in a traceback
    text = (scenario_dir / "toy.scn").read_text(encoding="utf-8")
    assert "\ncapacity = 5\n" in text
    scn = tmp_path / "huge.scn"
    scn.write_text(text.replace("\ncapacity = 5\n", f"\ncapacity = {10**30}\n"),
                   encoding="utf-8")
    solves = []
    monkeypatch.setattr("ehdetect.cli.optimize_power_map", solves.append)
    out = tmp_path / "map"
    assert main(["powermap", "--scenario", str(scn), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: [network] capacity: must be at most ")
    assert solves == []
    assert not out.exists()


def test_sweep_passes_a_whole_capacity_as_an_int(tmp_path, scenario_dir, monkeypatch):
    seen = []

    def spy(scenario, **kwargs):
        seen.append(scenario.network.capacity)
        return optimize_power_map(scenario, **kwargs)

    monkeypatch.setattr("ehdetect.cli.optimize_power_map", spy)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", _toy(scenario_dir), "--out", str(out),
                 "--variable", "capacity", "--values", "3,5", "--skip-simulation"])
    assert code == EXIT_OK
    assert seen == [3, 5] and all(type(c) is int for c in seen)
    meta, rows = read_table(out)
    assert meta["variable"] == "capacity"
    assert [(r["variable"], r["value"]) for r in rows] == [("capacity", "3.0"),
                                                          ("capacity", "5.0")]


@pytest.mark.parametrize("name, values", [
    ("toy", "0.1,0.2,0.3,2"),
    ("two_sensor", "0.5,1,2"),
    ("stall", "0.25,0.291,0.5"),
])
def test_a_budget_sweep_equals_standalone_solves_of_its_points(
        tmp_path, scenario_dir, toy_scenario, monkeypatch, capsys, name, values):
    # the sweep shares its sensor contexts across points; each point must
    # still be the solve it would be alone, to the last bit and note
    path = (_stall_point(tmp_path, toy_scenario) if name == "stall"
            else str(scenario_dir / f"{name}.scn"))
    swept = []

    def spy(scenario, **kwargs):
        swept.append(optimize_power_map(scenario, **kwargs))
        return swept[-1]

    monkeypatch.setattr("ehdetect.cli.optimize_power_map", spy)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", path, "--out", str(out), "--variable",
                 "power_budget", "--values", values, "--skip-simulation"]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    base = load_scenario(path)
    alone = [optimize_power_map(replace(base, network=replace(
        base.network, power_budget=float(v)))) for v in values.split(",")]
    _, rows = read_table(out)
    assert [[row[c] for c in ("lambda_star", "objective_j", "expected_power")]
            for row in rows] == [[repr(o.lambda_star), repr(o.objective_j),
                                  repr(o.expected_power)] for o in alone]
    assert err == [f"warning: {note}" for o in alone for note in o.warnings]
    for mine, theirs in zip(swept, alone, strict=True):
        assert mine.warnings == theirs.warnings
        assert mine.outer_iterations == theirs.outer_iterations
        assert mine.price_evaluations == theirs.price_evaluations
        for a, b in zip(mine.power_map.powers + tuple(p.psi for p in mine.psi_star),
                        theirs.power_map.powers + tuple(p.psi for p in theirs.psi_star),
                        strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("variable, values, builds", [
    ("power_budget", "0.5,1,2", 1),
    ("capacity", "20,40,60", 3),
    ("mean_harvest", "1,2,3", 3),
], ids=["power_budget", "capacity", "mean_harvest"])
def test_a_sweep_builds_a_sensor_context_once_per_point_unless_only_the_budget_moves(
        tmp_path, scenario_dir, monkeypatch, variable, values, builds):
    built = []
    real = ehdetect.optimizer._sensor_context

    def counting(network, sensor):
        built.append(sensor)
        return real(network, sensor)

    monkeypatch.setattr(ehdetect.optimizer, "_sensor_context", counting)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", str(scenario_dir / "two_sensor.scn"),
                 "--out", str(out), "--variable", variable, "--values", values,
                 "--skip-simulation"]) == EXIT_OK
    assert len(built) == 2 * builds  # two_sensor.scn has two sensors


@pytest.mark.parametrize("argv, written", [
    (["powermap", "--out", "{tmp}/map"], "map"),
    (["sweep", "--out", "{tmp}/sweep.csv", "--variable", "power_budget",
      "--values", "1,2", "--skip-simulation"], "sweep.csv"),
], ids=["powermap", "sweep"])
def test_a_solve_past_the_machines_memory_exits_with_input_code(
        tmp_path, scenario_dir, monkeypatch, capsys, argv, written):
    # a capacity NumPy can size may still not fit in memory; no real
    # allocation is tried here: the solve raises as NumPy's allocator would
    calls = []

    def starved(scenario, **kwargs):
        calls.append(scenario.network.power_budget)
        if argv[0] == "sweep" and len(calls) == 1:
            return optimize_power_map(scenario, **kwargs)
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000001, 1000001) and data type float64")

    monkeypatch.setattr("ehdetect.cli.optimize_power_map", starved)
    args = [a.format(tmp=tmp_path) for a in argv[1:]]
    assert main([argv[0], "--scenario", _toy(scenario_dir), *args]) == EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [
        "error: Unable to allocate 7.28 TiB for an array with shape "
        "(1000001, 1000001) and data type float64"]
    assert len(calls) == (2 if argv[0] == "sweep" else 1)
    assert not (tmp_path / written).exists()


# ---------------------------------------------------------------------------
# validate and error paths


def test_validate_passes_on_bundled_scenarios(scenario_dir, capsys):
    assert main(["validate", "--scenario", _toy(scenario_dir)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert "PASS fixed-point" in text
    assert "PASS certificate" in text
    assert "PASS exhaustive" in text  # toy is small enough to enumerate
    # the oracle's work: toy's slack budget admits all (6!)^2 maps
    assert "(tol 1e-3) over 518400 candidates, 518400 feasible\n" in text
    printed = text

    assert main(["validate", "--scenario",
                 str(scenario_dir / "two_sensor.scn")]) == EXIT_OK
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert "SKIP exhaustive" in text  # capacity 100 exceeds the guard
    printed += text
    # formula identities that hold on every scenario that loads are tier-1
    # tests, not checks of a scenario
    for gone in ("divergence-identity", "gain-cells", "arrival-pmf", "divergence-floor"):
        assert gone not in printed


# every command, run in one fresh interpreter, then the list of scipy modules
# it loaded: the program needs numpy only, and scipy is a test dependency
_EVERY_COMMAND_WITHOUT_SCIPY = """\
import sys
from ehdetect.cli import main
toy, out = sys.argv[1:]
for argv in (["powermap", "--out", out + "/map"],
             ["simulate", "--out", out + "/sim", "--samples", "500"],
             ["sweep", "--out", out + "/sweep.csv", "--variable", "power_budget",
              "--values", "1,2", "--skip-simulation"],
             ["validate"]):
    assert main([argv[0], "--scenario", toy, *argv[1:]]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_command_imports_scipy(tmp_path, scenario_dir):
    run = subprocess.run([sys.executable, "-c", _EVERY_COMMAND_WITHOUT_SCIPY,
                          _toy(scenario_dir), str(tmp_path)],
                         capture_output=True, text=True, env=package_env(), check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_cli_module_runs_as_a_script(scenario_dir):
    # python -m ehdetect.cli runs the command, as python -m ehdetect does
    run = subprocess.run([sys.executable, "-m", "ehdetect.cli", "validate",
                          "--scenario", _toy(scenario_dir)],
                         capture_output=True, text=True, env=package_env(), check=False)
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.splitlines()[-1] == "all 3 checks passed"


def test_powermap_bytes_do_not_follow_an_unset_blas_thread_count(tmp_path, scenario_dir):
    # the stacked solve's last bits follow the OpenBLAS thread count on two or
    # more CPUs; the package's one-thread default makes an unset variable
    # write the bytes of OPENBLAS_NUM_THREADS=1
    tables = []
    for threads in (None, "1"):
        out = tmp_path / f"threads-{threads}"
        run = subprocess.run([sys.executable, "-m", "ehdetect", "powermap", "--scenario",
                              str(scenario_dir / "two_sensor.scn"), "--out", str(out)],
                             capture_output=True, text=True,
                             env=package_env(OPENBLAS_NUM_THREADS=threads), check=False)
        assert run.returncode == EXIT_OK, run.stderr
        tables.append({csv.name: csv.read_bytes() for csv in out.glob("*.csv")})
    assert sorted(tables[0]) == ["battery_psi.csv", "power_map.csv", "summary.csv"]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("threads, seen", [(None, "1"), ("2", "2")])
def test_importing_the_package_defaults_blas_to_one_thread_unless_set(threads, seen):
    run = subprocess.run([sys.executable, "-c",
                          "import os, ehdetect; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                         capture_output=True, text=True,
                         env=package_env(OPENBLAS_NUM_THREADS=threads), check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == seen


def test_validate_skips_the_oracle_when_its_guard_refuses(tmp_path, toy_scenario,
                                                          capsys):
    # capacity 6 passes the size limits but not the candidate cap
    path = tmp_path / "toy6.scn"
    emit_scenario(replace(toy_scenario,
                          network=replace(toy_scenario.network, capacity=6)), path)
    assert main(["validate", "--scenario", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert "SKIP exhaustive: 25401600 candidate maps exceed the 2000000 cap" in text


def test_validate_fails_an_oracle_error_past_the_guard(scenario_dir, monkeypatch, capsys):
    # the solver and evaluate_unit_map reach the stacked solve through
    # ehdetect.battery, so only the oracle sees the failing one
    def singular(M):
        raise ValueError("no numerically unique stationary law: injected")

    monkeypatch.setattr(ehdetect.optimizer, "stationary_solve", singular)
    assert main(["validate", "--scenario", _toy(scenario_dir)]) == EXIT_INPUT
    text = capsys.readouterr().out
    assert "FAIL exhaustive: no numerically unique stationary law: injected" in text
    assert "SKIP" not in text
    assert "PASS fixed-point" in text


@pytest.mark.parametrize("argv", [
    ["simulate", "--samples", "0"],
    ["simulate", "--target-pf", "1.5"],
    ["simulate", "--warmup", "-3"],
    ["simulate", "--seed", "-1"],
    ["sweep", "--variable", "power_budget", "--values", "1,x"],
])
def test_bad_numeric_arguments_exit_with_input_code(tmp_path, scenario_dir, argv,
                                                    capsys):
    argv = [argv[0], "--scenario", _toy(scenario_dir),
            "--out", str(tmp_path / "out"), *argv[1:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "expected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# what each command needs besides --scenario; main loads the scenario for all
COMMAND_ARGS = {
    "powermap": ["--out", "{tmp}/out"],
    "simulate": ["--out", "{tmp}/out", "--samples", "2000"],
    "sweep": ["--out", "{tmp}/out/sweep.csv", "--variable", "power_budget",
              "--values", "0.5,1"],
    "validate": [],
}


def _command(command, scenario, tmp_path) -> list[str]:
    return [command, "--scenario", str(scenario),
            *(a.format(tmp=tmp_path) for a in COMMAND_ARGS[command])]


@pytest.mark.parametrize("command", COMMAND_ARGS)
def test_missing_scenario_maps_to_io_exit(tmp_path, command):
    code = main(_command(command, tmp_path / "nope.scn", tmp_path))
    assert code == EXIT_IO
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMAND_ARGS)
def test_malformed_scenario_maps_to_input_exit(tmp_path, command):
    bad = tmp_path / "bad.scn"
    bad.write_text("this is not a scenario\n")
    assert main(_command(command, bad, tmp_path)) == EXIT_INPUT

    nosensor = tmp_path / "nosensor.scn"
    nosensor.write_text("[network]\nprior_h0 = 0.5\ncapacity = 4\n"
                        "unit_energy = 0.1\nslot_seconds = 0.1\n"
                        "mean_harvest = 1.0\ndrop_fraction = 0.2\n"
                        "power_budget = 1.0\n")
    assert main(_command(command, nosensor, tmp_path)) == EXIT_INPUT
    assert not (tmp_path / "out").exists()


def test_scenario_that_is_not_utf8_maps_to_input_exit(tmp_path):
    # one error line and no traceback, from a fresh interpreter
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff\xfe[network]\n")
    run = subprocess.run([sys.executable, "-m", "ehdetect", "validate",
                          "--scenario", str(bad)],
                         capture_output=True, text=True, env=package_env(), check=False)
    assert run.returncode == EXIT_INPUT
    assert run.stderr.splitlines() == [
        f"error: {bad}: not UTF-8 text at byte 0 (invalid start byte)"]


def test_convergence_error_maps_to_exit_3(tmp_path, scenario_dir, monkeypatch,
                                          capsys):
    # one round cannot repeat a unit map, so every solve ends unconverged
    monkeypatch.setattr(ehdetect.battery, "MAX_ROUNDS", 1)
    for argv in (["powermap", "--out", str(tmp_path / "map")],
                 ["simulate", "--out", str(tmp_path / "sim")],
                 ["validate"]):
        assert main([argv[0], "--scenario", _toy(scenario_dir),
                     *argv[1:]]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.count("warning: battery fixed point did not settle") == 1
    meta, _ = read_table(tmp_path / "map" / "power_map.csv")
    assert meta["converged"] == "false"
    assert not (tmp_path / "sim").exists()  # simulate writes nothing


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# table helpers


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, {"alpha": 1, "flag": True, "x": 0.125},
                ("name", "value"),
                [("a", 1), ("b", 2.5), ("c", float("nan"))])
    meta, rows = read_table(path)
    assert meta == {"alpha": "1", "flag": "true", "x": "0.125"}
    assert [r["name"] for r in rows] == ["a", "b", "c"]
    assert rows[1]["value"] == "2.5"
    assert rows[2]["value"] == "nan"
    text = path.read_text()
    assert text.startswith("# alpha=1\n")
    assert "\r" not in text


def test_seed_offset_separates_calibration_from_measurement():
    assert CALIBRATION_SEED_OFFSET >= 10 ** 6
