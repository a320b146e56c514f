import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                         capture_output=True, text=True, env=env, check=True)
    return run.stdout.splitlines()


def test_unit_map_fingerprint_smoke():
    # the script builds its grid and oracle scenarios from perfbench; one
    # solve of each kind keeps that wiring honest
    lines = _run_script("unit_map_fingerprint.py", "--smoke")
    labels = [line.split("  ", 3)[3] for line in lines]
    assert labels == ["toy.scn", "grid h=2 K=100 B=1", "oracle seed=1 item=0"]
    for line in lines:
        digest, rounds, j, _label = line.split("  ", 3)
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert int(rounds) >= 1
        assert float(j) > 0.0


def test_csv_fingerprint_covers_every_table():
    lines = _run_script("csv_fingerprint.py")
    tables = {
        "powermap": ("battery_psi.csv", "power_map.csv", "summary.csv"),
        "simulate_genie": ("occupancy.csv", "report.csv"),
        "simulate_map_marginal": ("occupancy.csv", "report.csv"),
        "sweep": ("sweep.csv",),
    }
    expected = [f"{scenario}/{run}/{name}"
                for scenario in ("toy.scn", "two_sensor.scn")
                for run, names in tables.items() for name in names]
    assert len(lines) == 16
    assert [line.split("  ", 1)[1] for line in lines] == expected
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}", line.split("  ", 1)[0])


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
