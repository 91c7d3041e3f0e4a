import random
from fractions import Fraction

import pytest

from conftest import random_nonsingular
from cuboidsearch.bipoly import B, C
from cuboidsearch.coefficients import (
    CoefficientSet,
    E21_COMMON,
    E21_PRINTED,
    E21DenominatorPole,
    SingularPoint,
    diagonal_cubic,
    edge_coefficients,
    edge_cubic,
    edge_integer_cubic,
    eval_coefficients,
)
from cuboidsearch.cubic import CubicPoly, rational_roots
from cuboidsearch.identities import (
    SHARED_DENOMINATOR_POLY,
    _E21_QUART_PRINTED,
    eval_coefficients_cleared,
)
from cuboidsearch.singularity import SingularFlag, classify

F = Fraction

# frozen from the independent cleared-fraction transcription (and spot-checked
# by hand for the first four); see test_both_paths_agree_at_reference_point
REFERENCE_POINT_VALUES = CoefficientSet(
    e10=F(1, 2),
    e20=F(-3, 8),
    e30=F(0),
    e01=F(-1, 2),
    e02=F(-7, 8),
    e03=F(3, 8),
    e21=F(-7, 24),
    e11=F(1, 2),
    e12=F(-1),
)


def test_spot_values_at_one_one():
    cs = eval_coefficients(F(1), F(1))
    assert cs.e11 == F(1, 2)
    assert cs.e10 == F(1, 2)
    assert cs.e01 == F(-1, 2)
    assert cs.e20 == F(-3, 8)


def test_full_reference_point():
    assert eval_coefficients(F(1), F(1)) == REFERENCE_POINT_VALUES


def test_both_paths_agree_at_reference_point():
    assert eval_coefficients_cleared(F(1), F(1)) == REFERENCE_POINT_VALUES


def test_e21_forms_differ():
    printed = eval_coefficients(F(1), F(1), E21_PRINTED)
    common = eval_coefficients(F(1), F(1), E21_COMMON)
    assert printed.e21 == F(-7, 24)
    assert common.e21 == F(7, 8)
    # nothing else depends on the form
    assert printed._replace(e21=F(0)) == common._replace(e21=F(0))


def test_singular_point_first_curve():
    with pytest.raises(SingularPoint) as info:
        eval_coefficients(F(1, 2), F(3))
    assert info.value.flags == {SingularFlag.FIRST_CURVE}


def test_singular_point_origin():
    with pytest.raises(SingularPoint) as info:
        eval_coefficients(F(0), F(0))
    assert info.value.flags == {SingularFlag.SECOND_CURVE, SingularFlag.THIRD_VARIETY}


def test_invalid_form_rejected():
    with pytest.raises(ValueError):
        eval_coefficients(F(1), F(1), "typo")


@pytest.mark.parametrize(
    "b,c",
    [(F(0), F(1, 4)), (F(2, 3), F(1, 2)), (F(-2, 3), F(1, 2))],
)
def test_printed_form_poles_off_the_singular_set(b, c):
    # the printed e21 denominator's extra -4c^3 term vanishes at these
    # nonsingular points; the common form stays well defined
    assert classify(b, c) == frozenset()
    assert _E21_QUART_PRINTED.eval(b, c) == 0
    with pytest.raises(E21DenominatorPole):
        eval_coefficients(b, c, E21_PRINTED)
    with pytest.raises(E21DenominatorPole):
        eval_coefficients_cleared(b, c, E21_PRINTED)
    eval_coefficients(b, c, E21_COMMON)


def test_transcription_paths_agree_on_random_points():
    rng = random.Random(12)
    for _ in range(120):
        b, c = random_nonsingular(rng)
        for form in (E21_PRINTED, E21_COMMON):
            assert eval_coefficients(b, c, form) == eval_coefficients_cleared(b, c, form)


def test_edge_and_diagonal_sum_of_squares_relations():
    # the six cubic coefficients describe edges x_i and face diagonals d_i of
    # a box with unit space diagonal, so sum x_i^2 = 1, sum d_i^2 = 2, and
    # {d_i^2} = {1 - x_i^2}; any transcription typo in e10..e03 breaks these
    rng = random.Random(13)
    for _ in range(120):
        b, c = random_nonsingular(rng)
        cs = eval_coefficients(b, c)
        assert cs.e10**2 - 2 * cs.e20 == 1
        assert cs.e01**2 - 2 * cs.e02 == 2
        edge_at_one = 1 - cs.e10 + cs.e20 - cs.e30
        edge_at_minus_one = -1 - cs.e10 - cs.e20 - cs.e30
        assert cs.e03**2 == edge_at_one * (-edge_at_minus_one)
        assert cs.e02**2 - 2 * cs.e01 * cs.e03 == 1 + cs.e20**2 - 2 * cs.e10 * cs.e30


def test_simple_denominators_equal_curve_product():
    rng = random.Random(14)
    f1f2 = (B * C - 1 - B) * (B * C - C - 2 * B)
    for _ in range(60):
        b, c = random_nonsingular(rng)
        assert SHARED_DENOMINATOR_POLY.eval(b, c) == f1f2.eval(b, c)


def test_evaluation_succeeds_exactly_off_the_singular_set():
    from cuboidsearch.search import fraction_values

    values = fraction_values(6)
    for b in values:
        for c in values:
            singular = bool(classify(b, c))
            try:
                eval_coefficients(b, c, E21_COMMON)
                assert not singular
            except SingularPoint:
                assert singular


def test_integer_edge_coefficients_match_cleared_path_height_6():
    # the edge stage runs in integer coordinates; the cleared path is the
    # reference on every nonsingular point of the H=6 grid
    from cuboidsearch.search import fraction_values

    values = fraction_values(6)
    checked = 0
    for b in values:
        for c in values:
            if classify(b, c):
                continue
            cs = eval_coefficients_cleared(b, c, E21_COMMON)
            assert edge_coefficients(b, c) == (cs.e10, cs.e20, cs.e30)
            checked += 1
    assert checked == 2148


def test_edge_integer_cubic_is_primitive_cleared_edge_cubic_height_8():
    # grade solves this integer cubic in place of the Fraction edge cubic:
    # primitive, a3 > 0, and the cleared path's monic edge cubic at every
    # nonsingular point of the H=8 grid
    from math import gcd

    from cuboidsearch.search import fraction_values

    values = fraction_values(8)
    checked = 0
    for b in values:
        for c in values:
            if classify(b, c):
                continue
            a3, a2, a1, a0 = edge_integer_cubic(*b.as_integer_ratio(), *c.as_integer_ratio())
            assert a3 > 0 and gcd(a3, a2, a1, a0) == 1, (b, c)
            monic = CubicPoly(F(a2, a3), F(a1, a3), F(a0, a3))
            assert monic == edge_cubic(eval_coefficients_cleared(b, c, E21_COMMON)), (b, c)
            checked += 1
    assert checked == 7454


def test_edge_integer_cubic_is_cleared_edge_cubic_on_random_points():
    # numerators and denominators up to 10^6, where the products that the
    # integer path shares carry many digits: still primitive, a3 > 0, and
    # the cleared path's monic edge cubic
    from math import gcd

    rng = random.Random(29)
    for _ in range(400):
        b, c = random_nonsingular(rng, 10**6)
        a3, a2, a1, a0 = edge_integer_cubic(*b.as_integer_ratio(), *c.as_integer_ratio())
        assert a3 > 0 and gcd(a3, a2, a1, a0) == 1, (b, c)
        monic = CubicPoly(F(a2, a3), F(a1, a3), F(a0, a3))
        assert monic == edge_cubic(eval_coefficients_cleared(b, c, E21_COMMON)), (b, c)


def test_edge_cubic_sign_convention():
    cs = REFERENCE_POINT_VALUES._replace(e10=F(6), e20=F(11), e30=F(6))
    cubic = edge_cubic(cs)
    assert cubic == CubicPoly(F(-6), F(11), F(-6))
    assert rational_roots(cubic) == (F(1), F(2), F(3))

    zeros = REFERENCE_POINT_VALUES._replace(e10=F(0), e20=F(0), e30=F(0))
    assert edge_cubic(zeros) == CubicPoly(F(0), F(0), F(0))


def test_edge_cubic_from_reference_point():
    cubic = edge_cubic(eval_coefficients(F(1), F(1)))
    assert cubic == CubicPoly(F(-1, 2), F(-3, 8), F(0))


def test_diagonal_cubic_sign_convention():
    cs = REFERENCE_POINT_VALUES._replace(e01=F(3), e02=F(3), e03=F(1))
    cubic = diagonal_cubic(cs)
    assert cubic == CubicPoly(F(-3), F(3), F(-1))
    assert rational_roots(cubic) == (F(1), F(1), F(1))


def test_diagonal_cubic_from_reference_point():
    cs = eval_coefficients(F(1), F(1))
    assert diagonal_cubic(cs) == CubicPoly(-cs.e01, cs.e02, -cs.e03)
    assert diagonal_cubic(cs) == CubicPoly(F(1, 2), F(-7, 8), F(-3, 8))
