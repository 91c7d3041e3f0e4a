from fractions import Fraction as F

import pytest

from cuboidsearch.bipoly import B, C, IntPoly2
from cuboidsearch.identities import (
    EDGE_DISC_G,
    FIRST_CURVE_POLY,
    QUARTIC_POLY,
    SECOND_CURVE_POLY,
    TWO_ADIC_CELLS,
    _CLEARED,
    _two_adic_points,
    check_b0_row,
    check_edge_discriminant_factorization,
    check_edge_g_has_no_rational_zero,
    check_s_residue_classes,
    check_s_sigma_rule,
    check_s_two_adic_cells,
    check_s_zero_column,
    run_identity_checks,
)
from cuboidsearch.search import B0_ROW_VERDICT, fraction_values
from cuboidsearch.sieve import (
    EDGE_DISC_S,
    RESIDUE_MODULI,
    SCREENED_C_CLASSES,
    _class_masks,
    p1_classes,
    p1_points,
    piece_columns,
    square_classes,
)
from cuboidsearch.verifier import grade


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


def test_b0_row_holds():
    results = check_b0_row()
    assert [r.name for r in results] == [
        "b0-first-curve",
        "b0-second-curve",
        "b0-quartic",
        "b0-e10-numerator",
        "b0-e10-denominator",
        "b0-e20-numerator",
        "b0-e20-denominator",
        "b0-e30-numerator",
        "b0-e30-denominator",
    ]
    for result in results:
        assert result.passed, f"{result.name}: difference = {result.detail}"
    # the check stays outside the four denominator identities
    assert not {r.name for r in run_identity_checks()} & {r.name for r in results}
    # the verdict the search writes on the row is grade's at c != 0
    for c in (F(1), F(-1), F(1, 3), F(-7, 2), F(100, 99)):
        assert grade(F(0), c) == grade(F(0), c, "common") == B0_ROW_VERDICT, c


def test_b0_row_detects_altered_coefficient():
    # negative control: e20's numerator given a term free of b, and the
    # second curve factor given one more c
    altered = dict(_CLEARED, e20=(_CLEARED["e20"][0] + C**3, _CLEARED["e20"][1]))
    by_name = {r.name: r for r in check_b0_row(altered)}
    assert not by_name["b0-e20-numerator"].passed
    assert by_name["b0-e20-numerator"].detail == "c^3"
    assert sum(not r.passed for r in by_name.values()) == 1
    factors = (FIRST_CURVE_POLY, SECOND_CURVE_POLY - C, QUARTIC_POLY)
    by_name = {r.name: r for r in check_b0_row(factors=factors)}
    assert not by_name["b0-second-curve"].passed
    assert by_name["b0-first-curve"].passed and by_name["b0-quartic"].passed


# the cells proven empty modulo 2^6 (all of v2(b) = 0) and the four more
# that 2^10 proves; sigma mirrors the last two onto (2, 2) and (-2, 1)
MOD_64_CELLS = {(0, -1), (0, 0), (0, 1), (0, 2), (1, -1), (-1, 0)}
MOD_1024_CELLS = {(1, 2), (-1, 1), (2, -1), (-2, 0)}


def test_two_adic_cells_modulo_64():
    assert len(TWO_ADIC_CELLS) == 20
    assert check_s_two_adic_cells(6) == MOD_64_CELLS
    # a smaller modulus proves less, never more
    assert check_s_two_adic_cells(4) <= MOD_64_CELLS
    with pytest.raises(ValueError):
        check_s_two_adic_cells(2)


def test_two_adic_points_cover_the_projective_line():
    # the proof is sound only if each class enumerates its whole part of
    # P^1(Z/2^k), up to odd units: the c classes partition p1_points(m),
    # and so do the exact valuations -k..k of b
    m, k = 64, 6
    c_points = [point for kappa in range(-1, 3) for point in _two_adic_points(m, kappa, -1, 2)]
    assert len(c_points) == len(set(c_points)) == m + m // 2
    b_points = [point for v in range(-k, k + 1) for point in _two_adic_points(m, v, -k, k)]
    assert sorted(b_points) == sorted(c_points) == sorted(p1_points(m))
    assert _two_adic_points(m, k, -k, k) == [(0, 1)]
    assert _two_adic_points(m, -k, -k, k) == [(1, 0)]
    # negative controls on the ends of the c classes.  With S = c^7,
    # t = q^8 r^7 s is a non-square wherever v2(c) = -1, but 4q^8 at c = 1/4;
    # with S = 2c, t = 2q^8 r s^7 is a non-square wherever v2(c) = 2, but 0
    # at c = 0.  A check that cut class -1 or 2 short would call these empty
    def monomial(j, coeff):  # the table of S = coeff * c^j
        rows = [[0] * 9 for _ in range(9)]
        rows[0][j] = coeff
        return tuple(map(tuple, rows))

    assert check_s_two_adic_cells(k, {(0, -1), (0, 2)}, monomial(7, 1)) == set()
    assert check_s_two_adic_cells(k, {(0, -1), (0, 2)}, monomial(1, 2)) == set()


def test_two_adic_cells_modulo_1024():
    assert check_s_two_adic_cells(10, MOD_1024_CELLS) == MOD_1024_CELLS
    # the same cells are not all empty modulo 2^6
    assert check_s_two_adic_cells(6, MOD_1024_CELLS) != MOD_1024_CELLS


def test_sigma_rule_and_zero_column():
    result = check_s_sigma_rule()
    assert result.name == "s-sigma-rule"
    assert result.passed, f"difference = {result.detail}"
    # c = 0 at v2(b) = 2: t has valuation 13, so 2^14 is the first modulus
    # that shows it is not a square
    assert check_s_zero_column(2, 14)
    assert not check_s_zero_column(2, 13)


def test_search_sieve_is_the_proven_table():
    # the cells the search skips are exactly those the checks prove empty
    sieved = {
        (v, kappa)
        for v, kept in SCREENED_C_CLASSES.items()
        for kappa in range(-1, 3)
        if kappa not in kept
    }
    mod_64 = check_s_two_adic_cells(6)
    mod_1024 = check_s_two_adic_cells(10, MOD_1024_CELLS)
    assert check_s_sigma_rule().passed
    # sigma keeps v2(b) and sends the c class kappa to 1 - kappa; its image
    # of class -1 misses c = 0, which check_s_zero_column covers
    mirrored = {(v, 1 - kappa) for v, kappa in mod_1024 if abs(v) == 2}
    assert all(check_s_zero_column(v, 14) for v, kappa in mirrored if kappa == 2)
    assert mirrored == {(2, 2), (-2, 1)}
    assert sieved == mod_64 | mod_1024 | mirrored
    assert len(sieved) == 12


def test_two_adic_checks_detect_altered_coefficient():
    # negative control: the b^4 coefficient of S off by one
    altered = [list(row) for row in EDGE_DISC_S]
    altered[4][0] += 1
    altered = tuple(map(tuple, altered))
    assert check_s_two_adic_cells(6, s_table=altered) == {(0, -1), (1, -1)}
    assert check_s_two_adic_cells(10, MOD_1024_CELLS, altered) == {(2, -1)}
    result = check_s_sigma_rule(altered)
    assert not result.passed
    assert result.detail == "b^4*c^8 - 16*b^4"
    assert not check_s_zero_column(2, 14, altered)


# --- fact F4: the residue classes of P^1(Z/m) ---------------------------------


def primitive_pairs(m, ell):
    return [(p, q) for p in range(m) for q in range(m) if p % ell or q % ell]


def forms(pairs, m):
    """Each pair's vector (a^k b^(8-k) mod m) for k = 0..8, by which t is a bilinear form."""
    return {(a, b): [a**k * b ** (8 - k) % m for k in range(9)] for a, b in pairs}


def row_of(form, m):
    """The coefficients, mod m, of t = sum S[i][j] p^i q^(8-i) r^j s^(8-j) in r^j s^(8-j)."""
    return [sum(EDGE_DISC_S[i][j] * form[i] for i in range(9)) % m for j in range(9)]


def square_at(row, form, m, squares):
    """Whether t, given by the row's coefficients and the column's vector, is a square mod m."""
    return sum(a * w for a, w in zip(row, form)) % m in squares


@pytest.mark.parametrize(
    "m, ell", [(5, 5), (9, 3), (25, 5), (27, 3), (37, 37), (8, 2), (64, 2)]
)
def test_every_pair_is_a_unit_multiple_of_its_representative(m, ell):
    # the sieve's representatives are a complete system: its class map
    # sends each pair mod m that l does not divide twice to a class whose
    # representative the pair is a unit multiple of, and every class holds
    # exactly phi(m) pairs, so no two representatives are unit multiples of
    # each other; at m = 2^k this is the enumeration that the 2-adic cell
    # checks (F3) rest on
    points = p1_points(m)
    assert len(points) == m + m // ell
    sizes = [0] * len(points)
    pairs = primitive_pairs(m, ell)
    for (p, q), k in zip(pairs, p1_classes(m, pairs)):
        unit = q if q % ell else p
        x, y = points[k]
        assert unit % ell and (unit * x - p) % m == 0 and (unit * y - q) % m == 0, (p, q)
        sizes[k] += 1
    assert sizes == [m - m // ell] * len(points)


@pytest.mark.parametrize("m", RESIDUE_MODULI)
def test_residue_class_tables_hold_and_are_the_search_tables(m):
    # t at every (p, q) and column representative agrees with the sieve's
    # table at its class, and the sieve's mask of each value of height <= 8
    # keeps exactly the columns at which t has a square residue mod m
    check = check_s_residue_classes(m)
    assert check.failures == ()
    # some class pair has no square residue, or the modulus would sieve nothing
    assert not all(all(row) for row in check.table)
    pairs = [v.as_integer_ratio() for v in fraction_values(8)]
    vectors = forms(pairs, m)
    squares = {y * y % m for y in range(m)}
    for pair, mask in zip(pairs, _class_masks(m, m, square_classes, pairs, pairs)):
        row = row_of(vectors[pair], m)
        expected = [
            j for j, column in enumerate(pairs) if square_at(row, vectors[column], m, squares)
        ]
        assert piece_columns((mask,), 0, len(pairs)) == expected, pair


@pytest.mark.parametrize("m", [m for m in RESIDUE_MODULI if m <= 13])
def test_residue_class_table_on_every_four_tuple(m):
    # direct evaluation of t mod m at every (p, q, r, s) with neither pair
    # divisible by l, against the sieve's table at the sieve's classes
    ell = min(d for d in range(2, m + 1) if m % d == 0)
    table = check_s_residue_classes(m).table
    squares = {y * y % m for y in range(m)}
    pairs = primitive_pairs(m, ell)
    vectors = forms(pairs, m)
    classes = dict(zip(pairs, p1_classes(m, pairs)))
    for p, q in pairs:
        row = row_of(vectors[p, q], m)
        kept = table[classes[p, q]]
        for r, s in pairs:
            assert square_at(row, vectors[r, s], m, squares) == kept[classes[r, s]], (p, q, r, s)


def test_residue_class_check_detects_altered_table():
    # negative control.  The b^4 coefficient of S off by one keeps t a form
    # of bidegree (8, 8), so the lemma still holds, but the table changes
    # and no longer equals the search's
    altered = [list(row) for row in EDGE_DISC_S]
    altered[4][0] += 1
    altered = tuple(map(tuple, altered))
    for m in (5, 37):
        check = check_s_residue_classes(m, altered)
        assert check.failures == ()
        assert check.table != check_s_residue_classes(m).table
    # a term b^9 makes t a form of degree 9 in (p, q): the unit 2 mod 5
    # scales it by 2^9, a non-square, and the check names where it fails
    check = check_s_residue_classes(5, EDGE_DISC_S + ((1,) + (0,) * 8,))
    assert len(check.failures) == 52
    assert check.failures[0] == (0, 2, 1)
