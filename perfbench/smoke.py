#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs each kind of workload small (a height-3 grid, height-6 fibres, 20
cubics), untraced and traced.  Each run must
pass its checks and name every metric of BENCHMARK.json, with its unit, in
the printed table and in the result line.  Then a grid is run against a
wrong pinned digest, which must trip the gate, and the benchmark is run
from a copy holding only BENCHMARK.json and this directory, where it must
fail without printing a result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import run

TINY = {
    "grid-h3": run.Grid(
        height=3,
        counts={0: 205, 1: 0, 2: 20, 3: 0, 4: 0, 5: 0, 6: 0},
        singular=18,
        digest="173a23c7a04e75d6fac3b8be91f75e4cb2ffb54b784dadff13b45f1a636899da",
    ),
    # Five blocks per fibre, searched in three resumed calls.
    "fibre-h6": run.Fibre(
        height=6, b0_height=3, c_min=Fraction(1), c_max=Fraction(2), max_blocks=2
    ),
    "cubics-20": run.Cubics(split=13, random=7, height=100),
}


def bench(workload: str, trace: int, workloads: dict):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            workloads,
        )
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def check_run(workload: str, trace: int, listed: list[dict]) -> dict:
    code, lines, result = bench(workload, trace, TINY)
    where = f"{workload} --trace {trace}"
    assert code == 0, f"{where}: exit code {code}\n" + "\n".join(lines)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
    assert list(result["metrics"]) == [m["name"] for m in listed], where
    table = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit, f"{where}: unit of {name}"
        assert table.get(name) == unit, f"{where}: {name} not printed with its unit"
    return result["metrics"]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in TINY:
        check_run(workload, 0, spec["end_to_end"])
        check_run(workload, 1, spec["per_layer"])
        print(f"ok: {workload}")

    wrong = dict(TINY, **{"grid-h3": dataclasses.replace(TINY["grid-h3"], digest="0" * 64)})
    code, lines, result = bench("grid-h3", 0, wrong)
    assert code == 1 and not result["correct"], lines
    assert result["failed"] == result["attempted"] == 225 * run.Grid.min_rounds, result
    assert any(line.startswith("FAILED: records digest") for line in lines), lines
    print("ok: a wrong pinned digest fails the run")

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid-h4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert done.returncode != 0 and '"correct"' not in done.stdout, done
    print("ok: without the program the benchmark fails and prints no result")
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
