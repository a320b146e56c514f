"""Quick-mode checks of the benchmark: every workload, untraced and traced.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import pace  # noqa: E402
import tracing  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({n: m["unit"] for n, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "solve_grid", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_layer_summary_busy_and_self_time():
    tr = tracing.Tracer()
    tr.enabled = True
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner nests itself once
    tr.spans = [
        ["outer", 0.0, 10.0, -1, 0, tracing.MEASURE],
        ["inner", 1.0, 4.0, 0, 0, tracing.MEASURE],
        ["inner", 2.0, 3.0, 1, 0, tracing.MEASURE],
        ["inner", 5.0, 6.0, 0, 0, tracing.MEASURE],
        ["outer", 0.0, 2.0, -1, None, tracing.SETUP],
    ]
    layers = tr.layers(tracing.MEASURE)
    assert layers["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert layers["inner"] == {"calls": 3, "busy_s": 4.0, "self_s": 4.0}
    assert tr.layers(tracing.SETUP)["outer"]["busy_s"] == 2.0


def test_pace_divides_work_by_kernel_slowdown():
    pc = pace.Pace()
    kernel_s = 2.0 * pace.nominal_s(pace.COMPUTE)   # a host at half the nominal speed
    pc._kernel = lambda: kernel_s
    pc.start()
    time.sleep(3.5 * pace.INTERVAL_S)           # the timer interrupts the sleep
    work_s, paced_s = pc.stop()
    assert len(pc.kernel_s) >= 4                # start, at least two alarms, stop
    assert work_s >= 3.5 * pace.INTERVAL_S
    assert paced_s == pytest.approx(work_s / 2.0)
