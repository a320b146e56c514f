#!/usr/bin/env python3
"""Benchmark of the ehdetect library: one workload, one run, one JSON line.

Run from the root of a source checkout (the package is imported from src/):

    python3 perfbench/run.py --workload solve_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload oracle_check --quick --trace 1

Everything runs in this one process and thread, except the extra set-up
samples, which run this script with --setup-only in a fresh interpreter.
With --trace 0 the last line carries the end-to-end metrics, with set-up
and work time paced against a reference kernel (see pace.py); with
--trace 1 it carries the per-layer metrics of a separate traced run. The
lines before it name every metric in workload terms, with units, and
record the machine. Full results, and the spans of a traced run, go to
.perfbench/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pace
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("solve_grid", "mc_genie", "mc_map_marginal", "oracle_check")
SETUP_CHILDREN = 2          # extra set-up samples; the run's own set-up is a third
CHILD_TIMEOUT_S = 170
PROBE_S = 3.0               # least untraced time the tracing-overhead probe spans

# the metrics BENCHMARK.json gates; the workloads' own names for the plain
# rates and solve_s_p50 are printed by name only, because on a shared host
# unpaced times spread between runs more than any bound a gated metric may have
END_TO_END = (("setup_s", "s"), ("paced_work_per_s", "1/s"), ("peak_rss_mb", "MB"))

# name, unit, better; counts are per measured cycle, *_pct are shares of the
# measured wall time, setup.* shares of the set-up wall time
PER_LAYER = (
    ("optimizer.solve.calls", "count", "lower"),
    ("optimizer.solve.busy_pct", "%", "lower"),
    ("optimizer.solve.self_pct", "%", "lower"),
    ("optimizer.outer_iterations", "count", "lower"),
    ("optimizer.unconverged", "count", "lower"),
    ("optimizer.price_search.calls", "count", "lower"),
    ("optimizer.price_search.busy_pct", "%", "lower"),
    ("optimizer.scalar_root.calls", "count", "lower"),
    ("optimizer.scalar_root.busy_pct", "%", "lower"),
    ("optimizer.warnings", "count", "lower"),
    ("optimizer.exhaustive.busy_pct", "%", "lower"),
    ("optimizer.exhaustive.candidates", "count", "higher"),
    ("optimizer.exhaustive.feasible_ratio", "ratio", "higher"),
    ("optimizer.evaluate.busy_pct", "%", "lower"),
    ("optimizer.oracle_gap_min", "ratio", "higher"),
    ("optimizer.drained_over_budget", "count", "lower"),
    ("battery.fixed_point.busy_pct", "%", "lower"),
    ("battery.fixed_point.self_pct", "%", "lower"),
    ("battery.chain_step.calls", "count", "lower"),
    ("battery.chain_step.busy_pct", "%", "lower"),
    ("battery.stationary.calls", "count", "lower"),
    ("battery.stationary.busy_pct", "%", "lower"),
    ("simulator.walk.calls", "count", "lower"),
    ("simulator.walk.slots", "count", "lower"),
    ("simulator.walk.busy_pct", "%", "lower"),
    ("simulator.fusion.genie.busy_pct", "%", "lower"),
    ("simulator.fusion.map_marginal.busy_pct", "%", "lower"),
    ("simulator.fusion.slots", "count", "lower"),
    ("simulator.calibrate.busy_pct", "%", "lower"),
    ("simulator.calibrate.useful_ratio", "ratio", "higher"),
    ("simulator.measure.busy_pct", "%", "lower"),
    ("cli.sweep.busy_pct", "%", "lower"),
    ("cli.write_table.busy_pct", "%", "lower"),
    ("cli.write_table.rows", "count", "lower"),
    ("config.load_scenario.busy_pct", "%", "lower"),
    ("setup.optimizer.solve.busy_pct", "%", "lower"),
    ("setup.config.load_scenario.busy_pct", "%", "lower"),
    ("trace.cycles", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

# each workload's own names for its plain (unpaced) end-to-end metrics
NAMED = {
    "solve_grid": (("solves_per_s", "work_per_s", "1/s"),
                   ("solve_s_p50", "solve_s_p50", "s")),
    "mc_genie": (("slots_per_s", "work_per_s", "1/s"),),
    "mc_map_marginal": (("slots_per_s", "work_per_s", "1/s"),),
    "oracle_check": (("oracle_candidates_per_s", "work_per_s", "1/s"),
                     ("solves_per_s", "items_per_s", "1/s")),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measured time; the loop stops at the first cycle end past it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, one cycle, one set-up sample")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for the extra samples)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine record


def _blas_threads():
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    import numpy
    import scipy

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# one run


def child_setup(args):
    """Time one set-up in a fresh interpreter, as the run's own is timed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def probe_overhead(tr, wl, least_s):
    """Time the first items untraced and traced in turn (after one warm-up item).

    Returns (untraced seconds, traced seconds); their difference is the
    tracing overhead.
    """
    tr.set_phase(tracing.PROBE)
    tr.uninstall()
    wl.item(0)          # first calls pay one-off costs that would count as untraced
    spent = {False: 0.0, True: 0.0}
    j = 0
    while j == 0 or spent[False] < least_s:
        for traced in (False, True):
            if traced:
                tr.install()
            t = time.perf_counter()
            wl.item(j)
            spent[traced] += time.perf_counter() - t
            if traced:
                tr.uninstall()
        j += 1
    tr.install()
    return spent[False], spent[True]


def per_layer(tr, cycles, wall, setup_wall, probe, gap_min):
    layers = tr.layers(tracing.MEASURE)
    setup = tr.layers(tracing.SETUP)
    counts = tr.counts[tracing.MEASURE]

    def field(table, name, key):
        return table.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {"trace.cycles": cycles,
              "trace.overhead_pct": 100.0 * (probe[1] - probe[0]) / probe[0],
              "optimizer.oracle_gap_min": gap_min if math.isfinite(gap_min) else 0.0,
              "optimizer.exhaustive.feasible_ratio": ratio(
                  counts["optimizer.exhaustive.feasible"],
                  counts["optimizer.exhaustive.candidates"]),
              "simulator.calibrate.useful_ratio": ratio(
                  counts["simulator.calibrate.kept"], counts["simulator.calibrate.slots"])}
    for name, _unit, _better in PER_LAYER:
        if name in values:
            continue
        if name.startswith("setup."):
            layer = name[len("setup."):].rsplit(".", 1)[0]
            values[name] = 100.0 * ratio(field(setup, layer, "busy_s"), setup_wall)
            continue
        layer, _, kind = name.rpartition(".")
        if kind in ("busy_pct", "self_pct"):
            key = "busy_s" if kind == "busy_pct" else "self_s"
            values[name] = 100.0 * ratio(field(layers, layer, key), wall)
        elif kind == "calls":
            values[name] = field(layers, layer, "calls") / cycles
        else:
            values[name] = counts[name] / cycles
    return values


def run(args):
    if not (ROOT / "src" / "ehdetect" / "__init__.py").is_file():
        print(f"error: no ehdetect sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    setups = []
    if not (args.trace or args.quick or args.setup_only):
        setups = [child_setup(args) for _ in range(SETUP_CHILDREN)]

    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    pc = pace.NoPace() if args.trace else pace.Pace()
    pc.start()
    import workloads
    if not Path(workloads.ehdetect.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError("ehdetect was not imported from this checkout")
    if args.trace:
        tr.install()
    wl = workloads.make(args.workload, ROOT, workdir, args.seed, args.quick, tr, pc)
    wl.setup()
    setup_wall, setup_s = pc.stop()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups.append(setup_s)

    probe = probe_overhead(tr, wl, 0.0 if args.quick else PROBE_S) if args.trace else None

    attempted = failed = 0
    work = 0.0
    solve_s = []
    i = 0
    pc.start(wl.pace_mix)
    start = time.perf_counter()
    while True:
        tr.set_phase(tracing.MEASURE, unit=i)
        try:
            res = tr.span("unit", wl.item, i)
        except Exception:   # a unit that raises is a failed unit; keep measuring
            traceback.print_exc()
            res = workloads.ItemResult(wl.units_per_item, wl.units_per_item, 0.0)
        attempted += res.attempted
        failed += res.failed
        work += res.work
        solve_s.extend(res.solve_s)
        i += 1
        if i % wl.cycle == 0 and (args.quick or time.perf_counter() - start >= args.seconds):
            break
    work_s, paced_s = pc.stop()
    wall = time.perf_counter() - start
    cycles = i // wl.cycle

    e2e = {
        "setup_s": statistics.median(setups),
        "paced_work_per_s": work / paced_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    derived = dict(e2e, work_per_s=work / work_s, items_per_s=i / work_s,
                   failed_frac=failed / attempted,
                   solve_s_p50=statistics.median(solve_s) if solve_s else None)
    named = [("setup_s", e2e["setup_s"], "s")]
    if not args.trace:
        named.append(("paced_work_per_s", e2e["paced_work_per_s"], "1/s"))
    named += [(n, derived[key], unit) for n, key, unit in NAMED[args.workload]]
    named += [("failed_frac", derived["failed_frac"], "ratio"),
              ("peak_rss_mb", e2e["peak_rss_mb"], "MB")]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "machine": machine(),
        "attempted": attempted, "failed": failed, "cycles": cycles,
        "work_unit": wl.work_unit, "measured_s": wall, "work_s": work_s,
        "setup_samples_s": setups, "setup_wall_s": setup_wall, "solve_s": solve_s,
        "pace_kernel_s": pc.kernel_s,
        "named": {n: {"value": v, "unit": u} for n, v, u in named},
    }
    print(f"machine {json.dumps(record['machine'])}")
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={cycles} items={i} measured_s={wall:.3f} work_s={work_s:.3f} "
          f"attempted={attempted} failed={failed}")
    if not args.trace:
        print(f"pace kernel_s median={statistics.median(pc.kernel_s):.5f} "
              f"calls={len(pc.kernel_s)} nominal={pace.nominal_s(wl.pace_mix):.5f}")
    if args.trace:
        tr.uninstall()
        record["probe_untraced_traced_s"] = probe
        metrics = per_layer(tr, cycles, wall, setup_wall, probe,
                            getattr(wl, "gap_min", math.inf))
        units = {n: u for n, u, _ in PER_LAYER}
        record["layers"] = {p: tr.layers(p) for p in (tracing.SETUP, tracing.MEASURE)}
        record["counts"] = {p: dict(c) for p, c in tr.counts.items()}
        _print_layers(record["layers"][tracing.MEASURE], wall)
        for name, value in metrics.items():
            print(f"layer {name:<40} {value:>14.6g} {units[name]}")
        _write(f"{args.workload}-seed{args.seed}-spans.json", {
            "fields": ["name", "start", "end", "parent", "unit", "phase"],
            "spans": tr.spans})
    else:
        units = dict(END_TO_END)
        metrics = e2e
        for name, value, unit in named:
            print(f"metric {name:<28} {value:>14.6g} {unit}")
    record["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def _print_layers(layers, wall):
    rows = sorted(((v["self_s"], k, v) for k, v in layers.items() if k != "unit"),
                  reverse=True)
    print(f"layers over {wall:.3f} s measured: name, calls, busy_s, self_s")
    for _self, name, v in rows:
        print(f"  {name:<34} {v['calls']:>9} {v['busy_s']:>10.4f} {v['self_s']:>10.4f}")
    if rows:
        print(f"dominant layer by self time: {rows[0][1]} "
              f"({100.0 * rows[0][0] / wall:.1f}% of measured wall)")


def _write(name, payload):
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def run_all(args):
    """Every workload in its own process; prints each one's metrics by name."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S * 2, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        print(f"{workload}: "
              + (f"correct={result['correct']} attempted={result['attempted']} "
                 f"failed={result['failed']}" if result else
                 f"exit {proc.returncode}\n{proc.stderr}"))
        for line in lines[:-1]:
            print(f"  {line}")
        if result is None or not result["correct"]:
            status = 1
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
