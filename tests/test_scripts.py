import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_unit_map_fingerprint_smoke():
    # the script builds its grid and oracle scenarios from perfbench; one
    # solve of each kind keeps that wiring honest
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "unit_map_fingerprint.py"), "--smoke"],
        capture_output=True, text=True, env=env, check=True)
    lines = run.stdout.splitlines()
    labels = [line.split("  ", 3)[3] for line in lines]
    assert labels == ["toy.scn", "grid h=2 K=100 B=1", "oracle seed=1 item=0"]
    for line in lines:
        digest, rounds, j, _label = line.split("  ", 3)
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert int(rounds) >= 1
        assert float(j) > 0.0
