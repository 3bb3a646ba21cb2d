"""The benchmark still runs against the package: one generated cycle of
every workload in BENCHMARK.json, through perfbench's own executors and
checks, and one set-up probe in a fresh process. A renamed or reshaped
entry point that perfbench calls fails here rather than in a benchmark
run. The test reads perfbench/ and writes nothing there."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """perfbench's run and workloads modules, imported without bytecode."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return run, workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_cycle_runs_clean(bench, name, tmp_path):
    run, workloads = bench
    wl = workloads.WORKLOADS[name]
    ops = wl.cycle_ops(random.Random(f"perfbench:{name}:1"))  # seed 1's first cycle
    tally = run.Tally()
    run.run_cycles(wl, ops, run.Context(tmp_path), tally, cycles=1)
    assert tally.attempted == wl.cycle == len(ops)
    # a malformed argv counts as a failure unless it exits 2, 3 or 4
    assert (tally.failed, tally.tracebacks) == (0, 0), sorted(tally.failures)
    if name == "cli":
        rejected = sum(tally.exits.get(code, 0) for code in (2, 3, 4))
        assert rejected == len(workloads.MALFORMED)


def test_setup_probe_reports_its_stages():
    probe = [sys.executable, "-B", str(PERFBENCH / "setup_probe.py"), str(ROOT), "cli"]
    run = subprocess.run(probe, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    stages = json.loads(run.stdout.splitlines()[-1])
    assert {"import_s", "calibrate_s", "frame_s"} <= set(stages)
