"""Repeat the benchmark over seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --runs 10 --seconds 20 --trace 0
    python3 perfbench/collect.py --runs 2 --trace 1 --same-seed

Each run is ``perfbench/run.py`` in a fresh process, one after another.
For every workload and metric the summary gives the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the number of runs. With ``--same-seed`` every run
uses the first seed, and the traced runs must then report identical call,
step and row counts; any difference is printed and makes the exit code 1.
``--out FILE`` writes the summary as JSON, with the provenance of the
first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("holonomy", "adiabatic", "ramsey", "cli")
COUNT_SUFFIXES = (".calls", ".steps", ".rows", ".guard_trips", ".tracebacks")


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench-out" / f"result-{workload}-s{seed}-t{trace}.json").read_text()
    )
    return result, record


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    status = 0
    summary = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.seed0 if args.same_seed else args.seed0 + i
            result, record = one_run(workload, seed, args.seconds, args.trace)
            runs.append((seed, result, record))
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary.setdefault("provenance", runs[0][2]["provenance"])
        entry = {
            "seeds": [seed for seed, _, _ in runs],
            "ops_sha256": [record["ops_sha256"] for _, _, record in runs],
            "correct": [result["correct"] for _, result, _ in runs],
            "attempted": [result["attempted"] for _, result, _ in runs],
            "failed": [result["failed"] for _, result, _ in runs],
            "metrics": {},
            "extra": {},
        }
        for name in runs[0][1]["metrics"]:
            values = [result["metrics"][name]["value"] for _, result, _ in runs]
            stats = summarise(values) if len(values) > 1 else {"median": values[0], "n": 1}
            stats["unit"] = runs[0][1]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            if args.trace == 0:
                spread = stats.get("spread")
                print(f"  {workload:10s} {name:14s} median={stats['median']:.6g} "
                      f"spread={'n/a' if spread is None else f'{spread:.4f}'} n={stats['n']}")
        for name in ("op_tail_ms", "op_tail_percentile", "fail_frac", "phase_err_rad",
                     "p_down_err", "ramsey_steps_at_T200"):
            values = [record["extra"].get(name) for _, _, record in runs]
            if any(v is not None for v in values):
                entry["extra"][name] = values
        if args.same_seed and args.trace:
            counts = [
                {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                for _, result, _ in runs
            ]
            same = all(c == counts[0] for c in counts)
            entry["counts_repeat_exactly"] = same
            print(f"  {workload}: counts repeat exactly across {len(counts)} runs: {same}")
            if not same:
                status = 1
                for name in counts[0]:
                    vals = [c[name] for c in counts]
                    if len(set(vals)) > 1:
                        print(f"    {name}: {vals}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
