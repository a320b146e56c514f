"""Command-line front end: powermap, sweep, simulate, validate.

All CSV output is byte-deterministic for fixed inputs on one BLAS build (the
package runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is set; see
ehdetect's docstring): floats are written with repr (round-trip exact), rows
have a documented order, and the header comments carry parameters rather
than timestamps.

Every command that solves a power map prints each note of the solve's
outcome once to stderr as "warning: ...". Exit codes: 0 success, also when
the solve noted a collapsed price bracket or an operating point outside the
concavity band; 2 malformed scenario or argument or a failed check; 3 the
battery fixed point did not settle (powermap still writes its tables
flagged converged=false, sweep keeps the completed prefix, simulate writes
nothing); 4 file-system errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    FC_KNOWLEDGE_MODES,
    TRANSMIT_PROB_MODELS,
    Scenario,
    ScenarioError,
    load_scenario,
)
from .optimizer import (
    BUDGET_TOL,
    ExhaustiveRefused,
    OptimizationOutcome,
    evaluate_unit_map,
    exhaustive_best_map,
    optimize_power_map,
)
from .simulator import calibrate_threshold, run_monte_carlo

__all__ = ["main", "build_parser", "SweepSpec"]

EXIT_OK, EXIT_INPUT, EXIT_CONVERGENCE, EXIT_IO = 0, 2, 3, 4

CALIBRATION_SEED_OFFSET = 10 ** 6

SWEEP_VARIABLES = ("power_budget", "mean_harvest", "capacity")


@dataclass(frozen=True)
class SweepSpec:
    """One scenario knob and the ascending positive values to sweep it over."""

    variable: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ScenarioError(
                f"sweep variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise ScenarioError("sweep needs at least one value")
        if any(not math.isfinite(v) or v <= 0.0 for v in vals):
            raise ScenarioError("sweep values must be finite and > 0")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ScenarioError("sweep values must be strictly ascending")
        if self.variable == "capacity" and any(v != int(v) for v in vals):
            raise ScenarioError("capacity sweep values must be whole numbers")
        object.__setattr__(self, "values", vals)

    def apply(self, scenario: Scenario, value: float) -> Scenario:
        if self.variable == "capacity":
            net = replace(scenario.network, capacity=int(value))
        else:
            net = replace(scenario.network, **{self.variable: value})
        return replace(scenario, network=net)


# ---------------------------------------------------------------------------
# deterministic CSV helpers


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, comments: dict, columns, rows) -> None:
    buf = io.StringIO()
    for key, value in comments.items():
        buf.write(f"# {key}={_cell(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _power_map_rows(outcome: OptimizationOutcome):
    for n, (p, u) in enumerate(zip(outcome.power_map.powers, outcome.power_map.units)):
        for l in range(p.shape[0]):
            for k in range(p.shape[1]):
                yield (n, l, k, float(p[l, k]), int(u[l, k]))


def _write_outcome(outdir, scenario: Scenario, outcome: OptimizationOutcome) -> None:
    os.makedirs(outdir, exist_ok=True)
    net = scenario.network
    common = {
        "format": "power_map",
        "sensors": scenario.num_sensors,
        "capacity": net.capacity,
        "unit_energy": net.unit_energy,
        "slot_seconds": net.slot_seconds,
        "power_budget": net.power_budget,
        "lambda_star": outcome.lambda_star,
        "expected_power": outcome.expected_power,
        "objective_j": outcome.objective_j,
        "converged": outcome.converged,
    }
    write_table(
        os.path.join(outdir, "power_map.csv"), common,
        ("sensor", "level", "battery_state", "power_watts", "alpha_units"),
        _power_map_rows(outcome),
    )
    write_table(
        os.path.join(outdir, "battery_psi.csv"),
        {"format": "battery_psi", "sensors": scenario.num_sensors,
         "capacity": net.capacity},
        ("sensor", "state", "probability"),
        ((n, k, float(psi.psi[k]))
         for n, psi in enumerate(outcome.psi_star)
         for k in range(psi.psi.size)),
    )
    summary = [
        ("lambda_star", outcome.lambda_star),
        ("objective_j", outcome.objective_j),
        ("expected_power", outcome.expected_power),
        ("outer_iterations", outcome.outer_iterations),
        ("price_evaluations", outcome.price_evaluations),
        ("converged", outcome.converged),
        ("max_interior_residual", outcome.kkt.max_interior_residual),
        ("slackness", outcome.kkt.slackness),
        ("warning_count", len(outcome.warnings)),
    ]
    write_table(os.path.join(outdir, "summary.csv"), {"format": "summary"},
                ("metric", "value"), summary)


def _solve(scenario: Scenario) -> OptimizationOutcome:
    """Optimize the power map and print each note of the outcome once to stderr."""
    outcome = optimize_power_map(scenario)
    for note in outcome.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return outcome


def cmd_powermap(args, scenario: Scenario) -> int:
    outcome = _solve(scenario)
    _write_outcome(args.out, scenario, outcome)
    print(f"power map for {scenario.num_sensors} sensor(s) written to {args.out} "
          f"(lambda_star={outcome.lambda_star:.6g}, "
          f"expected_power={outcome.expected_power:.6g} W, "
          f"objective_j={outcome.objective_j:.6g})")
    return EXIT_OK if outcome.converged else EXIT_CONVERGENCE


def _simulate_point(scenario: Scenario, outcome: OptimizationOutcome, args,
                    measure_seed: int, calibrate_seed: int):
    calibration_samples = args.calibration_samples or args.samples
    psis = outcome.psi_star
    threshold, _ = calibrate_threshold(
        scenario, outcome.power_map, args.target_pf, calibration_samples,
        calibrate_seed, warmup=args.warmup, psis=psis,
    )
    report = run_monte_carlo(
        scenario, outcome.power_map, threshold, args.samples, measure_seed,
        warmup=args.warmup, psis=psis,
    )
    return threshold, report


def cmd_simulate(args, scenario: Scenario) -> int:
    outcome = _solve(scenario)
    if not outcome.converged:
        print("power map did not converge; not simulating", file=sys.stderr)
        return EXIT_CONVERGENCE
    threshold, report = _simulate_point(
        scenario, outcome, args, args.seed, args.seed + CALIBRATION_SEED_OFFSET)
    os.makedirs(args.out, exist_ok=True)
    rows = [
        ("pd_fc", report.pd_fc, report.pd_fc - report.ci_pd, report.pd_fc + report.ci_pd),
        ("pf_fc", report.pf_fc, report.pf_fc - report.ci_pf, report.pf_fc + report.ci_pf),
        ("threshold", threshold, "", ""),
        ("target_pf", args.target_pf, "", ""),
        ("samples", report.samples, "", ""),
        ("seed", args.seed, "", ""),
        ("lambda_star", outcome.lambda_star, "", ""),
        ("expected_power", outcome.expected_power, "", ""),
        ("objective_j", outcome.objective_j, "", ""),
    ]
    write_table(os.path.join(args.out, "report.csv"),
                {"format": "mc_report", "sensors": scenario.num_sensors},
                ("metric", "value", "ci_low", "ci_high"), rows)
    write_table(
        os.path.join(args.out, "occupancy.csv"),
        {"format": "occupancy", "sensors": scenario.num_sensors,
         "capacity": scenario.network.capacity},
        ("sensor", "state", "empirical", "analytic"),
        ((n, k, float(report.empirical_psi[n][k]), float(outcome.psi_star[n].psi[k]))
         for n in range(scenario.num_sensors)
         for k in range(scenario.network.capacity + 1)),
    )
    print(f"simulated {report.samples} slots: pd_fc={report.pd_fc:.4f} "
          f"(+-{report.ci_pd:.4f}), pf_fc={report.pf_fc:.4f} "
          f"(+-{report.ci_pf:.4f}), threshold={threshold:.6g}")
    return EXIT_OK


def cmd_sweep(args, scenario: Scenario) -> int:
    spec = SweepSpec(variable=args.variable, values=args.values)
    columns = ("variable", "value", "lambda_star", "objective_j",
               "expected_power", "pd_fc", "pf_fc", "ci_pd", "ci_pf")
    rows = []
    failure: int | None = None
    for rank, value in enumerate(spec.values):
        point = spec.apply(scenario, value)
        try:
            outcome = _solve(point)
            if not outcome.converged:
                print(f"sweep point {spec.variable}={value} failed: "
                      "power map did not converge", file=sys.stderr)
                failure = EXIT_CONVERGENCE
                break
            if args.skip_simulation:
                pd = pf = ci_pd = ci_pf = math.nan
            else:
                _, report = _simulate_point(
                    point, outcome, args,
                    args.seed + rank,
                    args.seed + rank + CALIBRATION_SEED_OFFSET)
                pd, pf = report.pd_fc, report.pf_fc
                ci_pd, ci_pf = report.ci_pd, report.ci_pf
        except ScenarioError as exc:
            print(f"sweep point {spec.variable}={value} rejected: {exc}",
                  file=sys.stderr)
            failure = EXIT_INPUT
            break
        rows.append((spec.variable, value, outcome.lambda_star,
                     outcome.objective_j, outcome.expected_power,
                     pd, pf, ci_pd, ci_pf))
        print(f"{spec.variable}={value:g}: lambda_star={outcome.lambda_star:.6g}, "
              f"objective_j={outcome.objective_j:.6g}, "
              f"expected_power={outcome.expected_power:.6g}")
    comments = {
        "format": "sweep",
        "variable": spec.variable,
        "seed": args.seed,
        "samples": args.samples,
        "target_pf": args.target_pf,
    }
    if failure is not None:
        comments["incomplete"] = True
    parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(parent, exist_ok=True)
    write_table(args.out, comments, columns, rows)
    print(f"wrote {len(rows)} sweep row(s) to {args.out}")
    return failure if failure is not None else EXIT_OK


# ---------------------------------------------------------------------------
# validate: self-consistency checks on one scenario


def _check(name: str, ok: bool, detail: str) -> tuple[str, bool]:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return name, ok


def cmd_validate(args, scenario: Scenario) -> int:
    net = scenario.network
    results: list[tuple[str, bool]] = []

    # full optimization with certificate
    outcome = _solve(scenario)
    if not outcome.converged:
        results.append(_check("fixed-point", False,
                              "policy iteration on the unit map did not converge"))
    else:
        mine, _, solved = evaluate_unit_map(scenario, outcome.power_map.units)
        worst = max(
            0.5 * float(np.abs(psi.psi - exact_psi.psi).sum())
            for psi, exact_psi in zip(outcome.psi_star, solved)
        )
        # the fixed point returns the exact stationary laws of its own map
        results.append(_check("fixed-point", worst == 0.0,
                              f"max TV(fixed point, solved) = {worst:.3e} (must be 0)"))
        lam = outcome.lambda_star
        res_ok = outcome.kkt.max_interior_residual <= 1e-6 * max(lam, 1e-12)
        slack_ok = abs(outcome.kkt.slackness) <= BUDGET_TOL * net.power_budget
        results.append(_check(
            "certificate", res_ok and slack_ok,
            f"interior residual {outcome.kkt.max_interior_residual:.3e}, "
            f"slackness {outcome.kkt.slackness:.3e}"))
        # exhaustive cross-check wherever the oracle's own guard admits the
        # scenario; an oracle that fails past its guard fails the check
        try:
            best = exhaustive_best_map(scenario)
        except ExhaustiveRefused as exc:
            print(f"SKIP exhaustive: {exc}")
        except ValueError as exc:
            results.append(_check("exhaustive", False, str(exc)))
        else:
            gap = (best.objective_j - mine) / max(1.0, abs(best.objective_j))
            results.append(_check(
                "exhaustive", gap <= 1e-3,
                f"relative gap to enumerated best {gap:.3e} (tol 1e-3) over "
                f"{best.candidates} candidates, {best.feasible} feasible"))

    failed = [name for name, ok in results if not ok]
    if not outcome.converged:
        return EXIT_CONVERGENCE
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
        return EXIT_INPUT
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _arg_type(convert, accept, expected: str):
    """argparse type: a usage error (exit 2, EXIT_INPUT) unless accept(convert(text))."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_NONNEGATIVE = _arg_type(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _arg_type(int, lambda v: v >= 1, "an integer >= 1")
_PROBABILITY = _arg_type(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_NUMBERS = _arg_type(lambda t: tuple(float(v) for v in t.split(",")),
                     lambda v: True, "comma-separated numbers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehdetect",
        description="Transmit-power maps and Monte Carlo for energy-harvesting "
                    "distributed detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out):
        # out: the --out help text, or None for a command that writes no file
        p.add_argument("--scenario", required=True, help="scenario file path")
        if out is not None:
            p.add_argument("--out", required=True, help=out)
        p.add_argument("--transmit-prob-model", choices=TRANSMIT_PROB_MODELS,
                       default=None, help="override the scenario's spend model")
        p.add_argument("--fc-knowledge", choices=FC_KNOWLEDGE_MODES, default=None,
                       help="override the fusion side information model; only the "
                            "Monte Carlo of simulate and sweep reads it")

    def sim_flags(p):
        p.add_argument("--seed", type=_NONNEGATIVE, default=42, help="master seed (default 42)")
        p.add_argument("--samples", type=_POSITIVE, default=100_000,
                       help="measured slots (default 100000)")
        p.add_argument("--calibration-samples", type=_POSITIVE, default=None,
                       help="slots simulated for threshold calibration, each one a null "
                            "sample whatever the prior (default: --samples)")
        p.add_argument("--warmup", type=_NONNEGATIVE, default=None,
                       help="burn-in slots (default: 10x capacity)")
        p.add_argument("--target-pf", type=_PROBABILITY, default=0.1,
                       help="fusion false-alarm target (default 0.1)")

    p = sub.add_parser("powermap", help="optimize and write the power map")
    common(p, "output directory")
    p.set_defaults(func=cmd_powermap)

    p = sub.add_parser("simulate", help="optimize, calibrate, and measure by Monte Carlo")
    common(p, "output directory")
    sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="re-optimize and measure across one variable")
    common(p, "output CSV file")
    sim_flags(p)
    p.add_argument("--variable", required=True, choices=SWEEP_VARIABLES)
    p.add_argument("--values", required=True, type=_NUMBERS,
                   help="comma-separated ascending values, e.g. 2,6,10")
    p.add_argument("--skip-simulation", action="store_true",
                   help="record only the analytic columns")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run self-consistency checks on a scenario")
    common(p, None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        overrides = {key: value for key in ("transmit_prob_model", "fc_knowledge")
                     if (value := getattr(args, key)) is not None}
        if overrides:
            scenario = replace(scenario, network=replace(scenario.network, **overrides))
        return args.func(args, scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
