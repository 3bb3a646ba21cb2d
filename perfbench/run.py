"""anyonjc benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload holonomy --seed 1 --seconds 20 --trace 0

Workloads: holonomy, adiabatic, ramsey, cli (see perfbench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off. With ``--trace 1`` it runs a fixed number of cycles twice,
untraced and then traced, and reports the per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are a readable report. A fuller record, with provenance and the span
trace, is written under ``.perfbench-out/`` in the checkout.

The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"

# end-to-end metrics in the final JSON line: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = {0: 5, 1: 3}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import anyonjc from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "anyonjc" / "__init__.py").is_file():
        print(f"perfbench: no anyonjc sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import anyonjc

    if Path(anyonjc.__file__).resolve().parent != (src / "anyonjc").resolve():
        print(f"perfbench: imported anyonjc from {anyonjc.__file__}", file=sys.stderr)
        sys.exit(2)
    return anyonjc


# --- provenance ---------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, asked from the library."""
    import ctypes

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(anyonjc) -> dict:
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "anyonjc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_name = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "anyonjc": anyonjc.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


# --- measurement --------------------------------------------------------------


def measure_setup(workload: str, runs: int) -> list[dict]:
    """Time fresh processes from spawn until the first operation is ready."""
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or not line:
            raise RuntimeError("set-up probe failed")
        stages = json.loads(line)
        stages["wall_s"] = wall
        samples.append(stages)
    return samples


class Context:
    """What executors need besides the operation: a scratch directory."""

    def __init__(self, tmp_dir: Path):
        self.tmp_dir = tmp_dir
        self._next = 0

    def next_id(self) -> int:
        self._next += 1
        return self._next


class Tally:
    """Running verdicts of one pass; keeps no per-operation results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures on operations drawn as valid input
        self.failures: set[str] = set()
        self.latencies: list[float] = []  # completed operations only
        self.slots: dict[int, list[float]] = {}  # latencies by cycle slot
        self.phase_err = None
        self.p_down_err = None
        self.exits: dict[int, int] = {}
        self.tracebacks = 0

    def add(self, verdict: dict, latency: float, slot: int):
        self.attempted += 1
        self.slots.setdefault(slot, []).append(latency)
        if verdict.get("fail"):
            self.failed += 1
            self.failures.add(verdict["fail"])
            if verdict.get("valid", True):
                self.wrong += 1
        else:
            self.latencies.append(latency)
        for key in ("phase_err", "p_down_err"):
            if key in verdict:
                old = getattr(self, key)
                setattr(self, key, verdict[key] if old is None else max(old, verdict[key]))
        if verdict.get("traceback"):
            self.tracebacks += 1
        elif "exit" in verdict:
            self.exits[verdict["exit"]] = self.exits.get(verdict["exit"], 0) + 1

    def absorb(self, other: "Tally"):
        """Add another pass's verdict counts (not its latencies or exits)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures |= other.failures


def warm_up(wl, ops, ctx):
    """Run operations from the start of the list, untimed, for wl.warmup_s.

    On a 2-core x86 VM the throughput of the short-operation workloads
    climbs by up to a quarter over the first seconds of a process; the
    timed loop then starts again from the first operation.
    """
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < wl.warmup_s:
        wl.execute(ops[index % len(ops)], ctx)
        index += 1


def run_cycles(wl, ops, ctx, tally, *, seconds=None, cycles=None, tracer=None):
    """Run whole cycles, closed loop, until the time or cycle count is used.

    Each result is checked right after its operation, outside the timed
    region. Returns the loop's wall time without the checking time.
    """
    index = 0
    checking = 0.0
    start = time.perf_counter()
    done = 0
    while True:
        for _ in range(wl.cycle):
            op = ops[index % len(ops)]
            if tracer is not None:
                tracer.op_id = index
            t0 = time.perf_counter()
            outcome = wl.execute(op, ctx)
            t1 = time.perf_counter()
            tally.add(wl.check(op, outcome), t1 - t0, index % wl.cycle)
            checking += time.perf_counter() - t1
            index += 1
        done += 1
        if cycles is not None and done >= cycles:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return time.perf_counter() - start - checking


def tail_latency(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(numpy.percentile(latencies, pct))
    return None, None


def end_to_end(wl, ops, ctx, seconds, setup):
    tally = Tally()
    wall = run_cycles(wl, ops, ctx, tally, seconds=seconds)
    done = tally.latencies
    pct, tail = tail_latency(done)
    metrics = {
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "ops_per_s": len(done) / wall,
        "op_p50_ms": statistics.median(done) * 1e3 if done else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "samples": {"ops": tally.attempted, "completed": len(done), "setup": len(setup)},
        "wall_s": wall,
        "op_tail_ms": tail * 1e3 if tail is not None else None,
        "op_tail_percentile": pct,
        "slot_p50_ms": [
            round(statistics.median(tally.slots[k]) * 1e3, 3) for k in sorted(tally.slots)
        ],
        "fail_frac": tally.failed / tally.attempted,
        "phase_err_rad": tally.phase_err,
        "p_down_err": tally.p_down_err,
        "failures": sorted(tally.failures),
    }
    return metrics, extra, tally


def traced(wl, ops, ctx, setup, anyonjc, trace_path):
    tally = Tally()
    wall_a = run_cycles(wl, ops, ctx, tally, cycles=wl.trace_cycles)
    tracer = tracing.Tracer()
    tracer.install(anyonjc)
    traced_tally = Tally()
    try:
        wall_b = run_cycles(wl, ops, ctx, traced_tally, cycles=wl.trace_cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    metrics["berry.calibrate.s"] = statistics.median(s["calibrate_s"] for s in setup)
    for code in (0, 2, 3, 4):
        metrics[f"cli.exit.{code}"] = traced_tally.exits.get(code, 0)
    metrics["cli.tracebacks"] = traced_tally.tracebacks
    metrics["trace.overhead_frac"] = wall_b / wall_a - 1.0
    steps_t200 = sorted(
        {
            steps
            for op_id, counts in tracer.steps_by_op("iontrap.protocol").items()
            if ops[op_id % len(ops)].get("total_time") == 200.0
            for steps in counts
        }
    )
    tracer.dump(trace_path)
    tally.absorb(traced_tally)
    extra = {
        "samples": {
            "ops_per_pass": traced_tally.attempted,
            "spans": len(tracer.spans),
            "setup": len(setup),
        },
        "wall_untraced_s": wall_a,
        "wall_traced_s": wall_b,
        "ramsey_steps_at_T200": steps_t200,
        "failures": sorted(tally.failures),
    }
    return metrics, extra, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    anyonjc = import_program()
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    prov = provenance(anyonjc)
    ops = wl.generate(random.Random(f"perfbench:{wl.name}:{args.seed}"))
    ops_sha = hashlib.sha256(
        json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    tmp_dir = OUT_DIR / f"tmp-{tag}-{os.getpid()}"
    tmp_dir.mkdir()
    try:
        setup = measure_setup(wl.name, SETUP_RUNS[args.trace])
        anyonjc.calibrate_sign_convention()  # lazy set-up is measured above
        ctx = Context(tmp_dir)
        warm_up(wl, ops, ctx)
        if args.trace:
            metrics, extra, tally = traced(
                wl, ops, ctx, setup, anyonjc, OUT_DIR / f"trace-{tag}.jsonl"
            )
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            metrics, extra, tally = end_to_end(wl, ops, ctx, args.seconds, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "ops_sha256": ops_sha,
        "ops_generated": len(ops),
        "setup_samples": setup,
        "metrics": {name: metrics[name] for name in units},
        "extra": extra,
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"ops sha256={ops_sha} generated={len(ops)} cycle={wl.cycle}")
    print("samples " + json.dumps(extra["samples"]))
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        done = extra["samples"]["completed"]
        if extra["op_tail_ms"] is None:
            print(f"  {'op_tail_ms':32s} {'-':>14s}     too few operations ({done})")
        else:
            print(f"  {'op_tail_ms':32s} {extra['op_tail_ms']:>14.6g} ms   "
                  f"p{extra['op_tail_percentile']:g} of {done} completed operations")
        for name, unit in (("phase_err_rad", "rad"), ("p_down_err", "1")):
            if extra[name] is not None:
                print(f"  {name:32s} {extra[name]:>14.6g} {unit:4s} worst over the run")
    print(f"  {'fail_frac':32s} {tally.failed / tally.attempted:>14.6g} 1    "
          f"{tally.failed} of {tally.attempted} operations failed")
    shown = {"samples", "op_tail_ms", "op_tail_percentile", "phase_err_rad", "p_down_err", "fail_frac"}
    for name, value in extra.items():
        if name not in shown:
            print(f"  {name:32s} {value}")
    print(
        json.dumps(
            {
                # correct: every operation drawn as valid input agreed with
                # its reference; malformed CLI inputs count only in failed
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
