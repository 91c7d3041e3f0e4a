#!/usr/bin/env python3
"""Benchmark of cuboidsearch through its public API.

    python3 perfbench/run.py --workload grid-h4 --seed 1 --seconds 55 --trace 0

The package is imported from the ``src/`` directory beside this one.  Every
workload is a closed loop: one caller in one process issues the next call
when the previous one returns.  README.md says why each workload exists and
which layer should move which metric.

With ``--trace 0`` the run repeats rounds of its workload, as often as the
workload asks and then while another round is expected to end within
``--seconds``, and reports the end-to-end metrics named in BENCHMARK.json.
With ``--trace 1`` it runs one untraced and one traced round and reports
the per-layer metrics; the spans are written to ``.perfbench_out/``.

Every output is checked: an operation whose output is wrong counts as
failed, and the exit code is then 1.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil
from pathlib import Path
from types import SimpleNamespace

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 15
SHOWN_PROBLEMS = 10


def load_program() -> SimpleNamespace:
    """Import the package afresh from ``src/``, as a new process would."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n.split(".")[0] == "cuboidsearch"]:
        del sys.modules[name]
    return SimpleNamespace(
        search=importlib.import_module("cuboidsearch.search"),
        verifier=importlib.import_module("cuboidsearch.verifier"),
        cubic=importlib.import_module("cuboidsearch.cubic"),
    )


def reduced_fractions(height: int) -> list[Fraction]:
    """Every p/q in lowest terms with |p| <= height and 1 <= q <= height, ascending.

    Built here rather than taken from ``search.fraction_values``, so that
    the reference output does not share the code it checks.
    """
    return sorted(
        {Fraction(p, q) for q in range(1, height + 1) for p in range(-height, height + 1)}
    )


def records_digest(records: list[dict]) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()


# --- search workloads ---------------------------------------------------------


def search_call(prog, space, max_blocks=None, recorder=None) -> SimpleNamespace:
    """Search ``space`` with ``jobs=1`` into a fresh checkpoint and JSONL file.

    With ``max_blocks``, the search is a series of ``search.run`` calls of
    that many blocks each, every one resuming from the checkpoint the last
    one wrote.  Each call is one segment, timed on its own.
    """
    segments = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        kwargs = dict(
            jobs=1,
            checkpoint_path=os.path.join(tmp, "checkpoint.json"),
            output_path=os.path.join(tmp, "records.jsonl"),
            max_blocks=max_blocks,
        )
        cursor = -1
        while True:
            start = time.perf_counter()
            if recorder is None:
                summary = prog.search.run(space, **kwargs)
            else:
                summary = recorder.call("search.run", prog.search.run, (space,), kwargs)
            segments.append((summary["visited"], time.perf_counter() - start))
            if summary["completed"] or summary["cursor"] == cursor:
                break
            cursor = summary["cursor"]
        records = prog.search.canonical_records(kwargs["output_path"])
    # Counts come back cumulative from the checkpoint; visited is per call.
    summary = dict(summary, visited=sum(visited for visited, _ in segments))
    return SimpleNamespace(
        space=space,
        summary=summary,
        records=records,
        segments=segments,
        wall=sum(wall for _, wall in segments),
    )


def search_round(prog, calls, max_blocks=None, recorder=None) -> SimpleNamespace:
    """Run each (space, points, check) call; each segment of a call is one item.

    ``points`` is the number of in-range points the call must grade; a call
    whose output fails its check counts all of them as failed.
    """
    results, problems, failed = [], [], 0
    for space, points, check in calls:
        result = search_call(prog, space, max_blocks, recorder)
        found = check_completed(result, points) + check(result)
        if found:
            failed += points
            problems += found
        results.append(result)
    return SimpleNamespace(
        items=[segment for r in results for segment in r.segments],
        failed=failed,
        problems=problems,
        calls=results,
    )


def check_completed(result, points: int) -> list[str]:
    summary = result.summary
    problems = []
    if not summary["completed"]:
        problems.append("search.run did not complete")
    if summary["visited"] != points:
        problems.append(f"visited {summary['visited']} points, expected {points}")
    return problems


class SearchWorkload:
    # A round takes a second or two, so a run holds many.
    min_rounds = 3

    def figures(self, best_items) -> dict:
        return {}


@dataclass(frozen=True)
class Grid(SearchWorkload):
    """``search.run`` over the full grid of one height, against pinned output."""

    height: int
    counts: dict
    singular: int
    digest: str

    def inputs(self, prog, seed: int):
        prog.search.fraction_values(self.height)
        return prog.search.SearchSpace(height=self.height)

    def round(self, prog, space, recorder=None):
        points = len(reduced_fractions(self.height)) ** 2
        return search_round(prog, [(space, points, self.check)], recorder=recorder)

    def check(self, result) -> list[str]:
        problems = []
        counts = {int(level): n for level, n in result.summary["counts"].items()}
        if counts != self.counts:
            problems.append(f"level counts {counts}, pinned {self.counts}")
        if result.summary["singular"] != self.singular:
            problems.append(f"singular {result.summary['singular']}, pinned {self.singular}")
        digest = records_digest(result.records)
        if digest != self.digest:
            problems.append(f"records digest {digest}, pinned {self.digest}")
        return problems


@dataclass(frozen=True)
class Fibre(SearchWorkload):
    """``search.run`` along the fibres b = b0 and b = -b0 at one height.

    Only the points with ``c_min <= c <= c_max`` are in range, so the walk
    over every cursor position outweighs the grading.  The seed draws
    b0 > 0 among the values of height <= ``b0_height``.  With
    ``max_blocks``, each fibre is searched in resumed calls of that many
    blocks.  Each fibre is checked against records built by calling
    ``verifier.grade`` directly on its points, outside the timed region.
    """

    height: int
    b0_height: int
    c_min: Fraction
    c_max: Fraction
    max_blocks: int | None = None

    def inputs(self, prog, seed: int):
        prog.search.fraction_values(self.height)
        b0 = random.Random(seed).choice([v for v in reduced_fractions(self.b0_height) if v > 0])
        return SimpleNamespace(
            spaces=[
                prog.search.SearchSpace(
                    height=self.height, b_min=b, b_max=b, c_min=self.c_min, c_max=self.c_max
                )
                for b in (b0, -b0)
            ],
            cs=[c for c in reduced_fractions(self.height) if self.c_min <= c <= self.c_max],
            expected={},
        )

    def reference(self, prog, fibres, space) -> SimpleNamespace:
        """Expected level counts and records of one fibre, from ``verifier.grade``."""
        b = space.b_min
        if b not in fibres.expected:
            counts = {str(level): 0 for level in prog.search.LEVELS}
            records = []
            for c in fibres.cs:
                verdict = prog.verifier.grade(b, c, space.e21_form)
                counts[str(verdict.level)] += 1
                if verdict.level >= 1:
                    record = prog.search.make_record(b, c, verdict, space.e21_form)
                    record.pop("ts")
                    records.append(record)
            fibres.expected[b] = SimpleNamespace(counts=counts, records=records)
        return fibres.expected[b]

    def round(self, prog, fibres, recorder=None):
        # The first round, which is never traced, builds the references.
        calls = [
            (space, len(fibres.cs), partial(self.check, self.reference(prog, fibres, space)))
            for space in fibres.spaces
        ]
        return search_round(prog, calls, self.max_blocks, recorder)

    @staticmethod
    def check(expected, result) -> list[str]:
        where = f"fibre b = {result.space.b_min}"
        problems = []
        counts = {str(level): n for level, n in result.summary["counts"].items()}
        if counts != expected.counts:
            problems.append(f"{where}: level counts {counts}, verifier.grade gives {expected.counts}")
        if result.records != expected.records:
            problems.append(f"records of {where} differ from verifier.grade")
        return problems


# --- cubic workload -------------------------------------------------------------


@dataclass(frozen=True)
class Cubics:
    """``cubic.rational_roots`` on cubics built from three rational roots, and on random cubics.

    Rationals are p/q with |p| <= ``height`` and 1 <= q <= ``height``.
    """

    split: int
    random: int
    height: int
    # A round takes a second or two, so a run holds many.
    min_rounds = 3

    def inputs(self, prog, seed: int):
        rng = random.Random(seed)
        h = self.height

        def rational():
            return Fraction(rng.randint(-h, h), rng.randint(1, h))

        cubics = []
        for _ in range(self.split):
            roots = tuple(sorted(rational() for _ in range(3)))
            cubics.append((prog.cubic.CubicPoly(*vieta(roots)), roots))
        for _ in range(self.random):
            cubics.append((prog.cubic.CubicPoly(rational(), rational(), rational()), None))
        rng.shuffle(cubics)
        return cubics

    def round(self, prog, cubics, recorder=None):
        solve = prog.cubic.rational_roots
        seconds, problems = [], []
        for index, (q, built_from) in enumerate(cubics):
            start = time.perf_counter_ns()
            if recorder is None:
                roots = solve(q)
            else:
                roots = recorder.call(
                    "cubic.rational_roots", solve, (q,), item=index, note=lambda r: r is not None
                )
            seconds.append((time.perf_counter_ns() - start) / 1e9)
            if built_from is not None and roots != built_from:
                problems.append(f"cubic {index}: roots {roots}, built from {built_from}")
            elif roots is not None and vieta(roots) != tuple(q):
                problems.append(f"cubic {index}: roots {roots} break Vieta's relations")
        return SimpleNamespace(
            items=[(1, t) for t in seconds],
            failed=len(problems),
            problems=problems,
            calls=[],
        )

    def figures(self, best_items) -> dict:
        best = [seconds * 1e6 for _, seconds in best_items]
        return {
            "solve_p50_us": (layers.percentile(best, 0.5), "us"),
            "solve_p99_us": (layers.percentile(best, 0.99), "us"),
            "solve_samples": (len(best), "count"),
        }


def vieta(roots) -> tuple:
    """(c2, c1, c0) of the monic cubic with the given roots."""
    r1, r2, r3 = roots
    return (-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3)


WORKLOADS = {
    "grid-h4": Grid(
        height=4,
        counts={0: 497, 1: 0, 2: 32, 3: 0, 4: 0, 5: 0, 6: 0},
        singular=28,
        digest="ee3b29f250c09a8d1c3a8f07633930cc7977f8ae799311e575e3bcec9e1e0a46",
    ),
    # Not in BENCHMARK.json, so it runs by name only; README.md says why.
    "fibre-h20": Fibre(
        height=20, b0_height=9, c_min=Fraction(1), c_max=Fraction(2), max_blocks=64
    ),
    "split-cubics": Cubics(split=800, random=400, height=1000),
}


# --- metrics ----------------------------------------------------------------------


class Tally:
    """The rounds of one run, folded as they end.

    An item is one ``search.run`` call or one cubic, and every round repeats
    the same items in the same order.  Only each item's fastest time is
    kept: other tenants of the machine only ever add time, so the fastest
    repeat is the steadiest estimate of the program's own cost, and the
    run's memory does not grow with its number of rounds.
    """

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.best: list[tuple[int, float]] = []

    def add(self, round_) -> None:
        self.rounds += 1
        self.attempted += sum(ops for ops, _ in round_.items)
        self.failed += round_.failed
        self.problems += round_.problems
        if self.best:
            self.best = [(ops, min(s, t)) for (ops, s), (_, t) in zip(self.best, round_.items)]
        else:
            self.best = list(round_.items)

    def ops_per_s(self) -> float:
        """Operations per second, each item at its fastest time."""
        return sum(ops for ops, _ in self.best) / sum(t for _, t in self.best)


def wall_seconds(round_) -> float:
    return sum(t for _, t in round_.items)


def end_to_end_metrics(setups: list[float], tally: Tally) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": tally.ops_per_s(),
        # ru_maxrss is in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(prog, plain, traced, recorder) -> dict[str, float]:
    metrics = layers.layer_metrics(recorder.spans)
    calls = traced.calls
    cursor = sum(c.summary["cursor"] for c in calls)
    visited = sum(c.summary["visited"] for c in calls)
    wall = sum(c.wall for c in calls)
    metrics.update({
        "search.self_s": wall - layers.grade_seconds(recorder.spans),
        "search.cursor_positions": cursor,
        "search.points_visited": visited,
        "search.visit_ratio": visited / cursor if cursor else 0.0,
        "search.blocks": sum(
            ceil(c.summary["cursor"] / prog.search.DEFAULT_BLOCK_SIZE) for c in calls
        ),
        "search.records_written": sum(len(c.records) for c in calls),
        "trace.overhead_s": wall_seconds(traced) - wall_seconds(plain),
    })
    return metrics


# --- run environment ------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """Digest of the program's sources: identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, load_1m: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "loadavg_1m_at_start": load_1m,
    }


# --- main -------------------------------------------------------------------------------


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    load_1m = os.getloadavg()[0]
    args = parse_args(argv, workloads)
    workload = workloads[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)

    setups, tally = [], Tally()
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            prog = load_program()
            inputs = workload.inputs(prog, args.seed)
            setups.append(time.perf_counter() - start)
    except ImportError as exc:
        print(f"perfbench: cannot import cuboidsearch from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        plain = workload.round(prog, inputs)
        recorder = layers.Recorder()
        with layers.traced_layers(recorder, prog.search, prog.verifier):
            traced = workload.round(prog, inputs, recorder)
        tally.add(plain)
        tally.add(traced)
        computed = traced_metrics(prog, plain, traced, recorder)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(str(spans_path))
        listed = spec["per_layer"]
    else:
        took = []
        start = time.perf_counter()
        # Start another round only while it is expected to end in time.
        while tally.rounds < workload.min_rounds or (
            time.perf_counter() - start + statistics.median(took) <= args.seconds
        ):
            began = time.perf_counter()
            tally.add(workload.round(prog, inputs))
            took.append(time.perf_counter() - began)
        computed = end_to_end_metrics(setups, tally)
        listed = spec["end_to_end"]

    attempted, failed = tally.attempted, tally.failed
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={tally.rounds}")
    print("environment " + json.dumps(environment(args.seed, load_1m), sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        for name, (value, unit) in workload.figures(tally.best).items():
            print(f"  {name:32s} {value:>16.6g} {unit}  (not in BENCHMARK.json)")
    print(f"  {'failed_ratio':32s} {failed / attempted:>16.6g} ({failed} of {attempted})")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    problems = tally.problems
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"FAILED: {problem}")
    if len(problems) > SHOWN_PROBLEMS:
        print(f"FAILED: ... and {len(problems) - SHOWN_PROBLEMS} more")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
