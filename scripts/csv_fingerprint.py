#!/usr/bin/env python3
"""SHA-256 fingerprints of the CSVs the CLI writes on the bundled scenarios.

Runs `powermap`, `simulate` (genie and map_marginal fusion) and a power-budget
`sweep` on scenarios/toy.scn and scenarios/two_sensor.scn with fixed seeds and
small sample counts, in a temporary directory, and prints one line per CSV:

    <sha256>  <scenario>/<run>/<file>

Two checkouts that print the same lines write byte-identical tables, so a
refactor that must not move any number is checked by diffing this output
before and after it.

    PYTHONPATH=src python3 scripts/csv_fingerprint.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from ehdetect.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SIM_FLAGS = ["--samples", "2000", "--calibration-samples", "2000", "--seed", "7"]
RUNS = (
    ("powermap", ["powermap"]),
    ("simulate_genie", ["simulate", *SIM_FLAGS]),
    ("simulate_map_marginal", ["simulate", *SIM_FLAGS, "--fc-knowledge", "map_marginal"]),
    ("sweep", ["sweep", *SIM_FLAGS, "--variable", "power_budget",
               "--values", "0.5,1,2,4"]),
)


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in ("toy.scn", "two_sensor.scn"):
            for name, argv in RUNS:
                out = Path(tmp) / scenario / name
                target = out / "sweep.csv" if name == "sweep" else out
                out.mkdir(parents=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([*argv, "--scenario", str(SCENARIOS / scenario),
                                     "--out", str(target)])
                if code != 0:
                    print(f"{scenario}/{name}: exit code {code}", file=sys.stderr)
                    status = 1
                for csv in sorted(out.glob("*.csv")):
                    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                    print(f"{digest}  {scenario}/{name}/{csv.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
