from cuboidsearch.bipoly import B, C, IntPoly2
from cuboidsearch.identities import (
    EDGE_DISC_G,
    all_identities_hold,
    check_edge_discriminant_factorization,
    check_edge_g_has_no_rational_zero,
    run_identity_checks,
)
from cuboidsearch.singularity import QUARTIC_POLY
from cuboidsearch.verifier import EDGE_DISC_S


def test_all_four_identities_pass():
    results = run_identity_checks()
    assert [r.name for r in results] == [
        "shared-denominator-factors",
        "denominator-reduction",
        "quartic-discriminant",
        "quartic-sum-of-squares",
    ]
    for result in results:
        assert result.passed, f"{result.name}: difference = {result.detail}"
        assert result.difference.is_zero()
        assert result.detail == "0"
    assert all_identities_hold()


def test_corrupted_input_fails_with_difference():
    # negative control: a corrupted quartic must break three of the checks
    # and report the exact difference polynomial
    corrupted = run_identity_checks(overrides={"quartic": QUARTIC_POLY + B * C})
    by_name = {r.name: r for r in corrupted}
    assert by_name["shared-denominator-factors"].passed  # untouched inputs
    assert not by_name["quartic-discriminant"].passed
    assert not by_name["quartic-sum-of-squares"].passed
    assert by_name["quartic-sum-of-squares"].difference == B * C
    assert by_name["quartic-sum-of-squares"].detail == "b*c"


def test_corrupted_curve_factor_detected():
    corrupted = run_identity_checks(overrides={"first_curve": B * C - 1 - 2 * B})
    by_name = {r.name: r for r in corrupted}
    assert not by_name["shared-denominator-factors"].passed
    assert not by_name["denominator-reduction"].passed
    assert not by_name["shared-denominator-factors"].difference.is_zero()


def test_checks_are_exact_not_sampled():
    # the sum-of-squares identity proves the quartic's only rational zero is
    # the origin; check the expansion literally once more here
    assert QUARTIC_POLY == (C - 1) ** 2 * (C - 2) ** 2 * B**2 + C**2


def test_edge_discriminant_factorization_holds():
    result = check_edge_discriminant_factorization()
    assert result.name == "edge-discriminant-factorization"
    assert result.passed, f"difference = {result.detail}"
    assert result.difference.is_zero()
    # the tables the verifier evaluates: G has 14 terms, S has 57
    assert sum(1 for row in EDGE_DISC_G for coeff in row if coeff) == 14
    assert sum(1 for row in EDGE_DISC_S for coeff in row if coeff) == 57


def test_edge_discriminant_factorization_detects_altered_coefficient():
    # negative control: one coefficient of S off by one (the b^4 c^4 term)
    altered = [list(row) for row in EDGE_DISC_S]
    altered[4][4] += 1
    result = check_edge_discriminant_factorization(s_table=tuple(map(tuple, altered)))
    assert not result.passed
    assert not result.difference.is_zero()
    assert result.detail != "0"
    # the check also guards G
    altered_g = (EDGE_DISC_G[0], EDGE_DISC_G[1], EDGE_DISC_G[2][:-1] + (2,))
    assert not check_edge_discriminant_factorization(g_table=altered_g).passed


def test_edge_g_has_no_rational_zero_holds():
    results = check_edge_g_has_no_rational_zero()
    assert [r.name for r in results] == [
        "edge-g-b2-coefficient",
        "edge-g-b1-coefficient",
        "edge-g-b0-coefficient",
        "edge-g-discriminant",
    ]
    for result in results:
        assert result.passed, f"{result.name}: difference = {result.detail}"
        assert result.detail == "0"
    # the value of G at c = 0, 1 and 2 that the argument reads off
    g = IntPoly2(
        {(i, j): coeff for i, row in enumerate(EDGE_DISC_G) for j, coeff in enumerate(row)}
    )
    assert [g.eval(b, c) for b, c in [(3, 0), (5, 1), (7, 2)]] == [72, 1, 8]


def test_edge_g_has_no_rational_zero_detects_altered_coefficient():
    # negative control: the b^2 c^6 coefficient of G off by one
    altered = (EDGE_DISC_G[0], EDGE_DISC_G[1], EDGE_DISC_G[2][:-1] + (2,))
    by_name = {r.name: r for r in check_edge_g_has_no_rational_zero(altered)}
    assert not by_name["edge-g-b2-coefficient"].passed
    assert by_name["edge-g-b2-coefficient"].detail == "c^6"
    assert not by_name["edge-g-discriminant"].passed
    assert by_name["edge-g-b1-coefficient"].passed
    assert by_name["edge-g-b0-coefficient"].passed
