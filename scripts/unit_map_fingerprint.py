#!/usr/bin/env python3
"""Unit-map fingerprints of the solver, or of the exhaustive oracle, over fixed scenarios.

Solves the two bundled scenarios, the 30 acceptance-grid points
(two_sensor.scn at mean_harvest/capacity 2/100, 3/100 and 3/70, ten budgets
each), the benchmark's oracle_check scenarios for seeds 1-20 (the eight
toy-shaped points of one cycle per seed, 160 in all) and 160 toy-shaped
stall points with a negative ROC slope (seed 20261018: capacity 4-5, budget
0.05-0.35, mean_harvest 1.5-4, p_f 0.05-0.2, p_d from p_f + 0.05 to 0.45),
a region oracle_check never draws. For each solve it prints one line:

    <sha256 of the unit maps>  <outer_iterations>  <price_evaluations>  <objective_j, 6 digits>  <label>

A numeric refactor whose CSVs move only in the last digits is checked by
diffing this output before and after it: the first three columns must match
on every line. A change to the roots that moves the price search's path
shows in the price_evaluations column even when the unit maps come out the
same. The objective column is for orientation; a move far below
one part in 10^6 can still flip its last printed digit, so judge a
difference there by the size of the move. Run from the repository root,
pointing PYTHONPATH at the library under test:

    PYTHONPATH=src python3 scripts/unit_map_fingerprint.py [--smoke] [--oracle | --record]

--smoke solves only the first scenario of each kind (bundled, grid, oracle,
stall).

--oracle runs exhaustive_best_map instead, on the one-sensor scenarios, all
of which its guard admits (toy.scn and the oracle and stall points, 321 in
all), and prints

    <sha256 of the winning unit map>  <candidates>  <feasible>  <repr(objective_j)>  <label>

A change to the oracle, or its replacement, must leave every line as it was.
The output is recorded in tests/data/oracle_maps.txt, written with

    PYTHONPATH=src python3 scripts/unit_map_fingerprint.py --oracle > tests/data/oracle_maps.txt

The tests re-run its capacity-4 lines and compare the counts exactly and
the objective to 1e-12; the capacity-5 lines and the winners' hashes are
checked by diffing a full run against the file. An exact tie between maps
that differ only in a state the chain never visits is decided by the last
bits of the LAPACK build, so a hash can move on another machine.

--record prints only the first two columns of the solver's lines,

    <sha256 of the unit maps>  <outer_iterations>  <label>

which is the format of tests/data/unit_maps.txt; the tests compare a fresh
run with that file. A change that moves a unit map or a round count
regenerates it with

    PYTHONPATH=src python3 scripts/unit_map_fingerprint.py --record > tests/data/unit_maps.txt

Price-evaluation counts stay out of the record: they can move with the last
bits of a root while every unit map stays the same.

The thread count is the package's: ehdetect is imported before numpy, so
OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS is set, and the laws
are those of a single-threaded LAPACK solve on any machine with the same
BLAS build.
"""

import argparse
import hashlib
import itertools
import sys
from dataclasses import replace
from pathlib import Path

# before numpy, so that the package's OpenBLAS thread default applies
from ehdetect import exhaustive_best_map, load_scenario, optimize_power_map

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import NullTracer  # noqa: E402
from workloads import GRID_BUDGETS, GRID_CONFIGS, OracleCheck  # noqa: E402

ORACLE_SEEDS = range(1, 21)
STALL_SEED, STALL_POINTS = 20261018, 160


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


def stall():
    template = load_scenario(ROOT / "scenarios" / "toy.scn")
    rng = np.random.default_rng(STALL_SEED)
    for i in range(STALL_POINTS):
        capacity = int(rng.integers(4, 6))
        budget = float(rng.uniform(0.05, 0.35))
        harvest = float(rng.uniform(1.5, 4.0))
        p_f = float(rng.uniform(0.05, 0.2))
        p_d = float(rng.uniform(p_f + 0.05, 0.45))
        net = replace(template.network, capacity=capacity, power_budget=budget,
                      mean_harvest=harvest)
        sensor = replace(template.sensors[0], p_f=p_f, p_d=p_d)
        yield f"stall item={i}", replace(template, network=net, sensors=(sensor,))


def scenarios(smoke=False):
    """(label, scenario) pairs in a fixed order."""
    for kind in (bundled, grid, oracle, stall):
        yield from itertools.islice(kind(), 1 if smoke else None)


def fingerprint(unit_maps) -> str:
    digest = hashlib.sha256()
    for units in unit_maps:
        digest.update(repr(units.shape).encode())
        digest.update(units.astype("<i8").tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="solve only the first scenario of each kind")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--oracle", action="store_true",
                      help="fingerprint the exhaustive oracle's winners instead")
    mode.add_argument("--record", action="store_true",
                      help="print the unit-map hash, round count and label of each solve")
    args = parser.parse_args(argv)
    for label, scenario in scenarios(args.smoke):
        if args.oracle:
            # the guard admits every one-sensor scenario here and refuses the
            # rest; skipping by sensor count lets an older library run this too
            if scenario.num_sensors != 1:
                continue
            best = exhaustive_best_map(scenario)
            print(f"{fingerprint([best.units])}  {best.candidates}  "
                  f"{best.feasible}  {best.objective_j!r}  {label}")
        else:
            out = optimize_power_map(scenario)
            digest = fingerprint(out.power_map.units)
            if args.record:
                print(f"{digest}  {out.outer_iterations}  {label}")
            else:
                print(f"{digest}  {out.outer_iterations}  "
                      f"{out.price_evaluations}  {out.objective_j:.6g}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
