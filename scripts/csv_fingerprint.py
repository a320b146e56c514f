#!/usr/bin/env python3
"""SHA-256 fingerprints of the CSVs the CLI writes on the bundled scenarios.

Runs `powermap`, `simulate` (genie and map_marginal fusion, and genie under
the `decision` transmit model), a power-budget `sweep`, `simulate` after a
100 000-slot warm-up, a capacity `sweep` and a solve-only power-budget
`sweep` over the acceptance budgets 1-105 W on scenarios/toy.scn and
scenarios/two_sensor.scn with fixed seeds, in a temporary directory, and
prints one line per CSV. `simulate` calibrates and measures 20 000 slots,
several Monte Carlo blocks and a remainder, so the bytes cover the block
loop; the simulated sweeps and the long warm-up run keep 2 000, the latter
after thirteen capped warm-up blocks. two_sensor.scn as shipped is the
benchmark grid's (mean_harvest 3, capacity 100) config, so its
`sweep_grid` table holds the results of ten of the grid's solves:

    <sha256>  <scenario>/<run>/<file>

Two checkouts that print the same lines write byte-identical tables, so a
refactor that must not move any number is checked by diffing this output
before and after it.

    PYTHONPATH=src python3 scripts/csv_fingerprint.py

It needs numpy alone, so CI's `runtime-only` job, which installs the package
without the test extra, runs it as its check that every CLI run works there.

The bytes hold for one BLAS build. The thread count is the package's: importing
ehdetect runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is set, so
compare runs made with the same setting, or with it unset.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from ehdetect.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SIM_FLAGS = ["--samples", "20000", "--calibration-samples", "20000", "--seed", "7"]
SHORT_FLAGS = ["--samples", "2000", "--calibration-samples", "2000", "--seed", "7"]
RUNS = (
    ("powermap", ["powermap"]),
    ("simulate_genie", ["simulate", *SIM_FLAGS]),
    ("simulate_map_marginal", ["simulate", *SIM_FLAGS, "--fc-knowledge", "map_marginal"]),
    ("simulate_decision", ["simulate", *SIM_FLAGS, "--transmit-prob-model", "decision"]),
    ("sweep", ["sweep", *SHORT_FLAGS, "--variable", "power_budget",
               "--values", "0.5,1,2,4"]),
    ("simulate_long_warmup", ["simulate", *SHORT_FLAGS, "--warmup", "100000"]),
    ("sweep_capacity", ["sweep", *SHORT_FLAGS, "--variable", "capacity",
                        "--values", "3,5"]),
    ("sweep_grid", ["sweep", "--skip-simulation", "--variable", "power_budget",
                    "--values", "1,2,4,7,11,20,40,70,95,105"]),
)


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in ("toy.scn", "two_sensor.scn"):
            for name, argv in RUNS:
                out = Path(tmp) / scenario / name
                target = out / "sweep.csv" if argv[0] == "sweep" else out
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
