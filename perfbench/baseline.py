#!/usr/bin/env python3
"""Measure every workload over several seeds and record the results.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload of BENCHMARK.json this runs ``run.py --trace 0`` once per
seed, then ``run.py --trace 1`` once with the first seed.  It records every
run's environment and result, and for each end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  Runs are
sequential, so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}{done.stderr}"
        )
    env = next(line for line in lines if line.startswith("environment "))
    return {
        "seed": seed,
        "trace": trace,
        "environment": json.loads(env.split(" ", 1)[1]),
        "result": json.loads(lines[-1]),
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = seed_list(args.seeds)
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summary(values), unit=metric["unit"], values=values)
            print(f"{workload:14s} {name:14s} median {metrics[name]['median']:<12.6g} "
                  f"spread {metrics[name]['spread']:.4f} (bound {metric['bound']})", flush=True)
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "runs": runs,
            "traced": bench(workload, seeds[0], spec["run_seconds"], 1),
        }
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
