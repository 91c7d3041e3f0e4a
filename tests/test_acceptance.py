"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every check is exact (zero tolerance); the runtime
budgets are part of the criteria and asserted.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import first_curve_b, second_curve_b
from cuboidsearch import cli
from cuboidsearch.coefficients import (
    E21_COMMON,
    E21_PRINTED,
    eval_coefficients,
)
from cuboidsearch.cubic import CubicPoly, rational_roots
from cuboidsearch.identities import eval_coefficients_cleared, run_identity_checks
from cuboidsearch.search import (
    SearchSpace,
    canonical_records,
    e21_form_discrepancies,
    fraction_values,
    load_records,
    point_index,
    run,
)
from cuboidsearch.singularity import SingularFlag, classify

F = Fraction


def report(name, elapsed, budget, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE PASS {name}: {elapsed:.2f}s of {budget:.0f}s budget{suffix}")


# --- 1. identity suite --------------------------------------------------------


def test_identity_suite():
    budget = 1.0
    t0 = time.monotonic()
    results = run_identity_checks()
    elapsed = time.monotonic() - t0
    names = [r.name for r in results]
    assert names == [
        "shared-denominator-factors",
        "denominator-reduction",
        "quartic-discriminant",
        "quartic-sum-of-squares",
    ]
    for result in results:
        assert result.passed, f"identity {result.name} failed: {result.detail}"
    assert elapsed < budget
    report("identity-suite", elapsed, budget, "4 exact symbolic checks")


# --- 2. classifier agreement on the full height<=20 grid ----------------------


def test_classifier_agreement_height_20():
    budget = 30.0
    t0 = time.monotonic()
    values = fraction_values(20)
    double_flags = 0
    third_points = []
    mismatches = 0
    for b in values:
        b2 = b * b
        for c in values:
            # unreduced denominator: quartic * curve1^2 * curve2^2 * six-term
            # factor, evaluated from scratch; it vanishes iff a factor does
            c2 = c * c
            f1 = b * c - 1 - b
            f2 = b * c - c - 2 * b
            quart = (
                b2 * c2 * c2 - 6 * b2 * c2 * c + 13 * b2 * c2 - 12 * b2 * c
                + 4 * b2 + c2
            )
            shared = b2 * c2 + 2 * b2 - 3 * b2 * c + c - b * c2 + 2 * b
            unreduced_zero = f1 == 0 or f2 == 0 or quart == 0 or shared == 0
            flags = classify(b, c)
            if bool(flags) != unreduced_zero:
                mismatches += 1
            if SingularFlag.FIRST_CURVE in flags and SingularFlag.SECOND_CURVE in flags:
                double_flags += 1
            if SingularFlag.THIRD_VARIETY in flags:
                third_points.append((b, c))
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert double_flags == 0
    assert third_points == [(F(0), F(0))]
    assert elapsed < budget
    report(
        "classifier-agreement",
        elapsed,
        budget,
        f"{len(values) ** 2} grid points, third variety only at the origin",
    )


# --- 3. curve coverage ---------------------------------------------------------


def test_curve_coverage():
    budget = 5.0
    rng = random.Random(20260810)
    t0 = time.monotonic()
    checked = 0
    while checked < 200:
        c = F(rng.randint(-10_000, 10_000), rng.randint(1, 10_000))
        if c == 1 or c == 2:
            continue
        assert SingularFlag.FIRST_CURVE in classify(first_curve_b(c), c)
        assert SingularFlag.SECOND_CURVE in classify(second_curve_b(c), c)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report("curve-coverage", elapsed, budget, "200 random parameters per curve")


# --- 4. cubic solver oracle equivalence ----------------------------------------


def _naive_divisors(n):
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            out.append(n // d)
    return sorted(set(out))


def _oracle_full_split(q):
    """Independent brute force over all rational-root-theorem candidates."""
    lcm = 1
    for coeff in q:
        lcm = lcm * coeff.denominator // math.gcd(lcm, coeff.denominator)
    low_to_high = [int(q.c0 * lcm), int(q.c1 * lcm), int(q.c2 * lcm), lcm]
    low = 0
    while low_to_high[low] == 0:
        low += 1
    candidates = {F(0)} if low > 0 else set()
    for p in _naive_divisors(low_to_high[low]):
        for s in _naive_divisors(lcm):
            candidates.add(F(p, s))
            candidates.add(F(-p, s))
    roots = [
        r for r in candidates if r**3 + q.c2 * r * r + q.c1 * r + q.c0 == 0
    ]
    for combo in combinations_with_replacement(sorted(roots), 3):
        r1, r2, r3 = combo
        if (
            r1 + r2 + r3 == -q.c2
            and r1 * r2 + r1 * r3 + r2 * r3 == q.c1
            and r1 * r2 * r3 == -q.c0
        ):
            return combo
    return None


def test_cubic_solver_oracle_equivalence():
    budget = 60.0
    rng = random.Random(424242)
    t0 = time.monotonic()
    for _ in range(10_000):
        roots = sorted(F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3))
        q = CubicPoly(
            -(roots[0] + roots[1] + roots[2]),
            roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2],
            -(roots[0] * roots[1] * roots[2]),
        )
        assert rational_roots(q) == tuple(roots)
    constructed_done = time.monotonic()
    agreements = 0
    for _ in range(10_000):
        q = CubicPoly(
            F(rng.randint(-50, 50), rng.randint(1, 50)),
            F(rng.randint(-50, 50), rng.randint(1, 50)),
            F(rng.randint(-50, 50), rng.randint(1, 50)),
        )
        mine = rational_roots(q)
        assert mine == _oracle_full_split(q)
        if mine is not None:
            agreements += 1
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "cubic-solver-oracle",
        elapsed,
        budget,
        f"10^4 constructed recovered in {constructed_done - t0:.1f}s, "
        f"10^4 random agreed ({agreements} split)",
    )


# --- 5. coefficient spot values -------------------------------------------------


def test_coefficient_spot_values():
    t0 = time.monotonic()
    # oracle: the second, independently transcribed cleared-fraction path
    oracle = eval_coefficients_cleared(F(1), F(1))
    assert oracle.e11 == F(1, 2)
    assert oracle.e10 == F(1, 2)
    assert oracle.e01 == F(-1, 2)
    assert oracle.e20 == F(-3, 8)
    production = eval_coefficients(F(1), F(1))
    assert production == oracle
    report("coefficient-spot-values", time.monotonic() - t0, 1.0, "exact at (1, 1)")


# --- 6. search determinism and emptiness at height 8 ----------------------------


def test_search_determinism_and_emptiness(tmp_path):
    budget = 600.0
    t0 = time.monotonic()
    space = SearchSpace(height=8)

    # run once through the CLI (jobs=1) and once through the API (jobs=4)
    one_out = str(tmp_path / "jobs1.jsonl")
    one_ck = str(tmp_path / "jobs1.ck")
    code = cli.main(
        [
            "search", "--height", "8", "--jobs", "1",
            "--checkpoint", one_ck, "--output", one_out, "--quiet",
        ]
    )
    assert code == 0
    four_out = str(tmp_path / "jobs4.jsonl")
    summary_four = run(
        space, jobs=4, checkpoint_path=str(tmp_path / "jobs4.ck"), output_path=four_out
    )
    assert summary_four["completed"]
    assert canonical_records(one_out) == canonical_records(four_out)

    # kill/resume: interrupt mid-run, add an uncheckpointed tail, resume
    resumed_out = str(tmp_path / "resumed.jsonl")
    resumed_ck = str(tmp_path / "resumed.ck")
    partial = run(
        space,
        jobs=4,
        checkpoint_path=resumed_ck,
        output_path=resumed_out,
        block_size=256,
        max_blocks=9,
    )
    assert not partial["completed"]
    leftovers = [
        record
        for record in load_records(one_out)
        if point_index(
            space,
            F(record["b"]),
            F(record["c"]),
        )
        >= partial["cursor"]
    ]
    with open(resumed_out, "a", encoding="utf-8") as handle:
        for record in leftovers[:2]:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    summary_resumed = run(
        space, jobs=1, checkpoint_path=resumed_ck, output_path=resumed_out
    )
    assert summary_resumed["completed"]
    assert summary_resumed["counts"] == summary_four["counts"]
    assert summary_resumed["singular"] == summary_four["singular"]
    assert canonical_records(resumed_out) == canonical_records(one_out)

    # no perfect cuboid shows up at this height (observed outcome, not proof)
    assert summary_four["counts"][6] == 0
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "search-determinism",
        elapsed,
        budget,
        f"{summary_four['visited']} points, jobs 1 vs 4 identical, resume exact, 0 hits",
    )


# --- 7. e21 form audit -----------------------------------------------------------


def test_e21_form_audit(tmp_path):
    t0 = time.monotonic()
    outputs = {}
    for form in (E21_PRINTED, E21_COMMON):
        out = str(tmp_path / f"{form}.jsonl")
        summary = run(
            SearchSpace(height=5, e21_form=form),
            jobs=2,
            checkpoint_path=str(tmp_path / f"{form}.ck"),
            output_path=out,
        )
        assert summary["completed"]
        records = load_records(out)
        assert all(record["e21_form"] == form for record in records)
        outputs[form] = records

    discrepancies = e21_form_discrepancies(outputs[E21_PRINTED], outputs[E21_COMMON])
    surfaced = [d for d in discrepancies if d["level5_plus"]]
    # the audit's job is to surface level>=5 disagreements; at this height
    # nothing reaches the auxiliary stage, so the surfaced list must be empty
    assert surfaced == []
    report(
        "e21-form-audit",
        time.monotonic() - t0,
        60.0,
        f"both forms complete, {len(discrepancies)} sub-level-5 differences, "
        f"{len(surfaced)} surfaced at level>=5",
    )
