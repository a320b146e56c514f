#!/usr/bin/env python3
"""Unit-map fingerprints of optimize_power_map over a fixed set of scenarios.

Solves the two bundled scenarios, the 30 acceptance-grid points
(two_sensor.scn at mean_harvest/capacity 2/100, 3/100 and 3/70, ten budgets
each) and the benchmark's oracle_check scenarios for seeds 1-20 (the eight
toy-shaped points of one cycle per seed, 160 in all). For each solve it
prints one line:

    <sha256 of the unit maps>  <outer_iterations>  <price_evaluations>  <objective_j, 6 digits>  <label>

A numeric refactor whose CSVs move only in the last digits is checked by
diffing this output before and after it: the first three columns must match
on every line. A change to the roots that moves the price search's path
shows in the price_evaluations column even when the unit maps come out the
same. The objective column is for orientation; a move far below
one part in 10^6 can still flip its last printed digit, so judge a
difference there by the size of the move. Run from the repository root,
pointing PYTHONPATH at the library under test:

    PYTHONPATH=src python3 scripts/unit_map_fingerprint.py [--smoke]

--smoke solves only the first scenario of each kind (bundled, grid, oracle).
"""

import argparse
import hashlib
import itertools
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from ehdetect import load_scenario, optimize_power_map  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import GRID_BUDGETS, GRID_CONFIGS, OracleCheck  # noqa: E402

ORACLE_SEEDS = range(1, 21)


def bundled():
    for name in ("toy.scn", "two_sensor.scn"):
        yield name, load_scenario(ROOT / "scenarios" / name)


def grid():
    base = load_scenario(ROOT / "scenarios" / "two_sensor.scn")
    for harvest, cap in GRID_CONFIGS:
        for budget in GRID_BUDGETS:
            net = replace(base.network, mean_harvest=harvest, capacity=cap,
                          power_budget=budget)
            yield f"grid h={harvest:g} K={cap} B={budget:g}", replace(base, network=net)


def oracle():
    for seed in ORACLE_SEEDS:
        check = OracleCheck(ROOT, workdir=None, seed=seed, quick=False, tr=NullTracer())
        check.setup()
        for i in range(check.cycle):
            yield f"oracle seed={seed} item={i}", check.scenario(i)[0]


def scenarios(smoke=False):
    """(label, scenario) pairs in a fixed order."""
    for kind in (bundled, grid, oracle):
        yield from itertools.islice(kind(), 1 if smoke else None)


def fingerprint(outcome) -> str:
    digest = hashlib.sha256()
    for units in outcome.power_map.units:
        digest.update(repr(units.shape).encode())
        digest.update(units.astype("<i8").tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="solve only the first scenario of each kind")
    args = parser.parse_args(argv)
    for label, scenario in scenarios(args.smoke):
        out = optimize_power_map(scenario)
        print(f"{fingerprint(out)}  {out.outer_iterations}  "
              f"{out.price_evaluations}  {out.objective_j:.6g}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
