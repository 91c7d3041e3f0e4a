import random
from fractions import Fraction

import pytest

from conftest import PoleError, first_curve_b, second_curve_b
from cuboidsearch.identities import (
    FIRST_CURVE_POLY,
    QUARTIC_POLY,
    SECOND_CURVE_POLY,
    SHARED_DENOMINATOR_POLY,
    factor_values,
)
from cuboidsearch.singularity import (
    NONSINGULAR,
    SingularFlag,
    classify,
    singular_columns,
)

FIRST = SingularFlag.FIRST_CURVE
SECOND = SingularFlag.SECOND_CURVE
THIRD = SingularFlag.THIRD_VARIETY


def grid(height):
    from cuboidsearch.search import fraction_values

    values = fraction_values(height)
    return [(b, c) for b in values for c in values]


def test_classify_first_curve_point():
    assert classify(Fraction(1, 2), Fraction(3)) == {FIRST}


def test_classify_second_curve_point():
    assert classify(Fraction(2), Fraction(4)) == {SECOND}


def test_classify_origin():
    assert classify(Fraction(0), Fraction(0)) == {SECOND, THIRD}
    # the quartic factor vanishes at the origin, and not at (1, 1)
    assert QUARTIC_POLY.eval(Fraction(0), Fraction(0)) == 0
    assert QUARTIC_POLY.eval(Fraction(1), Fraction(1)) == 1


def test_classify_nonsingular():
    assert classify(Fraction(1), Fraction(1)) == frozenset()
    assert classify(Fraction(1), Fraction(1)) is NONSINGULAR


def test_first_curve_parametrization():
    assert first_curve_b(Fraction(3)) == Fraction(1, 2)
    assert first_curve_b(Fraction(0)) == Fraction(-1)
    with pytest.raises(PoleError):
        first_curve_b(Fraction(1))


def test_second_curve_parametrization():
    assert second_curve_b(Fraction(4)) == Fraction(2)
    assert second_curve_b(Fraction(0)) == Fraction(0)
    with pytest.raises(PoleError):
        second_curve_b(Fraction(2))


def test_factor_values_at_nonsingular_point():
    f1, f2, quart = factor_values(Fraction(1), Fraction(1))
    assert (f1, f2, quart) == (-1, -2, 1)


def test_curve_parametrizations_land_on_curves():
    rng = random.Random(41)
    seen = 0
    while seen < 200:
        c = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        if c == 1:
            continue
        assert FIRST in classify(first_curve_b(c), c)
        if c != 2:
            assert SECOND in classify(second_curve_b(c), c)
        seen += 1


def test_mutual_exclusion_and_third_variety_on_grid():
    for b, c in grid(8):
        flags = classify(b, c)
        assert not (FIRST in flags and SECOND in flags)
        if THIRD in flags:
            assert (b, c) == (0, 0)


def test_classify_agrees_with_unreduced_denominator_on_grid():
    # vanishing of the full unreduced denominator product is equivalent to
    # vanishing of one of the reduced factors; the full grid runs in the
    # acceptance suite, a height-8 slice here
    for b, c in grid(8):
        unreduced_zero = (
            QUARTIC_POLY.eval(b, c) == 0
            or FIRST_CURVE_POLY.eval(b, c) == 0
            or SECOND_CURVE_POLY.eval(b, c) == 0
            or SHARED_DENOMINATOR_POLY.eval(b, c) == 0
        )
        assert (classify(b, c) == frozenset()) == (not unreduced_zero)


def test_integer_classify_matches_factor_values_on_grid():
    # classify decides on integer forms of f1 and f2; the zero tests of the
    # Fraction-valued factors are the reference, on every point of the H=8 grid
    for b, c in grid(8):
        f1, f2, quart = factor_values(b, c)
        expected = {
            flag for flag, value in ((FIRST, f1), (SECOND, f2), (THIRD, quart)) if value == 0
        }
        assert classify(b, c) == expected


def _columns_match_classify(bs, cs):
    # both directions: each named column is singular, and each singular
    # point is named; the pairs are reduced with a positive denominator
    for b in bs:
        columns = singular_columns(b.numerator, b.denominator)
        assert len(set(columns)) == len(columns) <= 2
        for r, s in columns:
            assert s > 0 and Fraction(r, s).denominator == s, (b, r, s)
            assert classify(b, Fraction(r, s)), (b, r, s)
        for c in cs:
            if classify(b, c):
                assert (c.numerator, c.denominator) in columns, (b, c)


def test_singular_columns_match_classify_on_grid():
    from cuboidsearch.search import fraction_values

    values = fraction_values(8)
    _columns_match_classify(values, values)


def test_singular_columns_on_special_rows():
    # p = 0 (only the origin, on the second curve), p = q (no second-curve
    # point) and p = -q, each against classify on the H=20 c axis
    from cuboidsearch.search import fraction_values

    rows = (Fraction(0), Fraction(1), Fraction(-1))
    _columns_match_classify(rows, fraction_values(20))
    assert singular_columns(0, 1) == ((0, 1),)
    assert singular_columns(1, 1) == ((2, 1),)
    assert singular_columns(-1, 1) == ((0, 1), (1, 1))
