import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import ehdetect

from references import read_table

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                         capture_output=True, text=True, env=env, check=True)
    return run.stdout.splitlines()


def test_unit_map_fingerprint_smoke():
    # the script builds its grid and oracle scenarios from perfbench and its
    # stall points from toy.scn; one solve of each kind keeps that wiring honest
    lines = _run_script("unit_map_fingerprint.py", "--smoke")
    labels = [line.split("  ", 4)[4] for line in lines]
    assert labels == ["toy.scn", "grid h=2 K=100 B=1", "oracle seed=1 item=0",
                      "stall item=0"]
    for line in lines:
        digest, rounds, evaluations, j, _label = line.split("  ", 4)
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert int(rounds) >= 1
        # at least one price evaluation per round
        assert int(evaluations) >= int(rounds)
        assert float(j) > 0.0
    # --oracle runs the one-sensor scenarios only, so the grid point drops out
    lines = _run_script("unit_map_fingerprint.py", "--oracle", "--smoke")
    labels = [line.split("  ", 4)[4] for line in lines]
    assert labels == ["toy.scn", "oracle seed=1 item=0", "stall item=0"]
    for line in lines:
        digest, candidates, feasible, j, _label = line.split("  ", 4)
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert 0 < int(feasible) <= int(candidates)
        assert float(j) > 0.0
    assert lines[0].split("  ")[1] == "518400"


def test_unit_maps_match_the_committed_record():
    # a change that moves a unit map or a round count regenerates the record:
    # PYTHONPATH=src python3 scripts/unit_map_fingerprint.py --record > tests/data/unit_maps.txt
    fresh = _run_script("unit_map_fingerprint.py", "--record")
    recorded = (ROOT / "tests" / "data" / "unit_maps.txt").read_text().splitlines()
    assert len(recorded) == 352
    for mine, theirs in zip(fresh, recorded):
        assert mine == theirs, f"first scenario that differs: {theirs.split('  ', 2)[2]}"
    assert len(fresh) == len(recorded)


def test_oracle_matches_the_committed_record_at_capacity_4():
    # tests/data/oracle_maps.txt is `unit_map_fingerprint.py --oracle`; the
    # capacity-4 lines (14 400 candidates each) are re-run here, the rest by
    # hand. Winner hashes stay out: an exact tie between maps that differ only
    # in a state the chain never visits goes to the last bits of a runner's LAPACK
    recorded = (ROOT / "tests" / "data" / "oracle_maps.txt").read_text().splitlines()
    assert len(recorded) == 321
    expected = {}
    for line in recorded:
        _digest, candidates, feasible, j, label = line.split("  ", 4)
        if candidates == "14400":
            expected[label] = (int(feasible), float(j))
    assert len(expected) == 151
    program = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import unit_map_fingerprint as fp\n"
        "for label, scenario in fp.scenarios():\n"
        "    if scenario.num_sensors == 1 and scenario.network.capacity == 4:\n"
        "        best = fp.exhaustive_best_map(scenario)\n"
        "        print(f'{best.candidates}  {best.feasible}  {best.objective_j!r}  {label}')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", program, str(ROOT / "scripts")],
                         capture_output=True, text=True, env=env, check=True)
    fresh = {}
    for line in run.stdout.splitlines():
        candidates, feasible, j, label = line.split("  ", 3)
        assert candidates == "14400", label
        fresh[label] = (int(feasible), float(j))
    assert fresh.keys() == expected.keys()
    for label, (feasible, j) in expected.items():
        assert fresh[label][0] == feasible, label
        assert abs(fresh[label][1] - j) <= 1e-12 * abs(j), label


def test_csv_fingerprint_covers_every_table():
    lines = _run_script("csv_fingerprint.py")
    tables = {
        "powermap": ("battery_psi.csv", "power_map.csv", "summary.csv"),
        "simulate_genie": ("occupancy.csv", "report.csv"),
        "simulate_map_marginal": ("occupancy.csv", "report.csv"),
        "simulate_decision": ("occupancy.csv", "report.csv"),
        "sweep": ("sweep.csv",),
        "simulate_long_warmup": ("occupancy.csv", "report.csv"),
        "sweep_capacity": ("sweep.csv",),
    }
    expected = [f"{scenario}/{run}/{name}"
                for scenario in ("toy.scn", "two_sensor.scn")
                for run, names in tables.items() for name in names]
    assert len(lines) == 26
    assert [line.split("  ", 1)[1] for line in lines] == expected
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}", line.split("  ", 1)[0])


def test_harvest_occupancy_runs(tmp_path):
    # README's one documented experiment: two rates, two sensors of 101 states
    out = tmp_path / "occupancy.csv"
    lines = _run_script("harvest_occupancy.py",
                        "--scenario", str(ROOT / "scenarios" / "two_sensor.scn"),
                        "--rates", "0.5,3.0", "--out", str(out))
    assert sum("vs previous rate: dominates" in line for line in lines) == 2
    meta, rows = read_table(out)
    assert meta == {"format": "harvest_occupancy"}
    assert len(rows) == 404
    # one CDF per (rate, sensor), each ending at the full battery
    ends = [float(row["cdf"]) for row in rows if row["state"] == "100"]
    assert len(ends) == 4
    assert all(abs(cdf - 1.0) <= 1e-12 for cdf in ends)


def test_every_traced_name_resolves():
    # a traced benchmark run patches these names by lookup, so deleting or
    # renaming one breaks only the traced runs; loaded from its file, without
    # registering the benchmark package
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module_name, attr, _span in tracing.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_export_resolves():
    # a deleted name left in __all__ breaks `from ehdetect.<module> import *`
    package = ROOT / "src" / "ehdetect"
    modules = sorted(p.stem for p in package.glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    owner = {}
    for name in modules:
        module = importlib.import_module(f"ehdetect.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"ehdetect.{name}.__all__ names {attr}"
            # the package star-imports the lists, so a shared name would
            # silently shadow the earlier module's object
            assert attr not in owner, \
                f"{attr} is in both ehdetect.{owner[attr]} and ehdetect.{name} __all__"
            owner[attr] = name
    # the package republishes every library module's list (not the cli's),
    # each name as the module's own object, and nothing else
    library = {attr: name for attr, name in owner.items() if name != "cli"}
    for attr, name in library.items():
        assert getattr(ehdetect, attr, None) is getattr(
            importlib.import_module(f"ehdetect.{name}"), attr), \
            f"ehdetect.{attr} is not ehdetect.{name}.{attr}"
    public = {attr for attr, value in vars(ehdetect).items()
              if not attr.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(library)
