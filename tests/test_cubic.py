import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from conftest import discriminant, is_rational_square
from cuboidsearch.coefficients import edge_integer_cubic
from cuboidsearch.cubic import (
    CubicPoly,
    _clear_to_integer_cubic,
    _largest_integer_root,
    integer_discriminant,
    is_perfect_square,
    rational_roots,
    root_numerators,
)

F = Fraction


def cubic_from_roots(r1, r2, r3):
    """Monic cubic with the given roots, by elementary symmetric functions."""
    return CubicPoly(-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3))


def cubic_value(q, x):
    return x**3 + q.c2 * x * x + q.c1 * x + q.c0


# --- independent brute-force oracle ----------------------------------------


def naive_divisors(n):
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            out.append(n // d)
    return sorted(set(out))


def oracle_full_split(q):
    """Brute force: try every rational-root-theorem candidate in every slot.

    Clears denominators naively and collects all candidate roots that
    actually vanish.  A zero constant term means 0 is a root and the
    candidate set comes from the lowest nonzero coefficient (the theorem
    applies to the polynomial with the x-power factored out).  Accepts any
    multiset of three vanishing candidates matching the coefficients by the
    symmetric-function relations.  Shares no code with the production
    solver.
    """
    lcm = 1
    for coeff in q:
        lcm = lcm * coeff.denominator // math.gcd(lcm, coeff.denominator)
    low_to_high = [int(q.c0 * lcm), int(q.c1 * lcm), int(q.c2 * lcm), lcm]
    low = 0
    while low_to_high[low] == 0:
        low += 1
    candidates = {F(0)} if low > 0 else set()
    for p in naive_divisors(low_to_high[low]):
        for s in naive_divisors(lcm):
            candidates.add(F(p, s))
            candidates.add(F(-p, s))
    actual_roots = [r for r in candidates if cubic_value(q, r) == 0]
    for combo in combinations_with_replacement(sorted(actual_roots), 3):
        r1, r2, r3 = combo
        if (
            r1 + r2 + r3 == -q.c2
            and r1 * r2 + r1 * r3 + r2 * r3 == q.c1
            and r1 * r2 * r3 == -q.c0
        ):
            return combo
    return None


# --- discriminant -----------------------------------------------------------


def test_discriminant_examples():
    assert discriminant(CubicPoly(F(-6), F(11), F(-6))) == 4
    assert discriminant(CubicPoly(F(0), F(0), F(0))) == 0
    assert discriminant(CubicPoly(F(0), F(-1), F(0))) == 4


def test_discriminant_equals_squared_root_differences():
    rng = random.Random(5)
    for _ in range(200):
        roots = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        q = cubic_from_roots(*roots)
        expected = (
            (roots[0] - roots[1]) ** 2
            * (roots[0] - roots[2]) ** 2
            * (roots[1] - roots[2]) ** 2
        )
        assert discriminant(q) == expected


def textbook_integer_discriminant(a3, a2, a1, a0):
    """The discriminant of a3*x^3 + a2*x^2 + a1*x + a0 in its textbook expansion."""
    return (
        18 * a3 * a2 * a1 * a0
        - 4 * a2**3 * a0
        + a2 * a2 * a1 * a1
        - 4 * a3 * a1**3
        - 27 * a3 * a3 * a0 * a0
    )


def test_integer_discriminant_is_the_textbook_polynomial():
    """``integer_discriminant`` and the textbook expansion are one polynomial.

    Both sides have degree at most 3 in each of a3, a2, a1 and a0, so their
    difference does too.  A polynomial of degree at most 3 in each variable
    that vanishes on a grid S^4 with |S| = 4 is zero: read as a polynomial
    in a3 whose coefficients are polynomials in the other three, it has
    four zeros at each point of S^3, so each coefficient vanishes on S^3,
    and induction on the number of variables ends at a univariate cubic
    with four zeros.  Agreement on {-1, 0, 1, 2}^4 is therefore a proof;
    the random 200-bit values are a spot check on top.
    """
    grid = range(-1, 3)
    for cubic in product(grid, repeat=4):
        assert integer_discriminant(*cubic) == textbook_integer_discriminant(*cubic)
    rng = random.Random(24)
    for _ in range(200):
        cubic = [rng.randint(-(2**200), 2**200) for _ in range(4)]
        assert integer_discriminant(*cubic) == textbook_integer_discriminant(*cubic)
    # monic, it is the rational discriminant of the test oracle
    assert integer_discriminant(1, -6, 11, -6) == discriminant(CubicPoly(F(-6), F(11), F(-6))) == 4


# --- squares ----------------------------------------------------------------


def test_is_rational_square_examples():
    assert is_rational_square(F(9, 4)) == F(3, 2)
    assert is_rational_square(F(2)) is None
    assert is_rational_square(F(0)) == 0
    assert is_rational_square(F(-4)) is None
    assert is_rational_square(F(63, 256)) is None


def test_is_perfect_square_large():
    n = 10**40 + 2 * 10**20 + 1  # (10^20 + 1)^2
    assert is_perfect_square(n) == 10**20 + 1
    assert is_perfect_square(n + 1) is None
    assert is_perfect_square(-1) is None


# --- rational_roots ----------------------------------------------------------


def test_roots_from_vieta_construction():
    q = cubic_from_roots(F(1, 4), F(1, 3), F(1, 2))
    assert q == CubicPoly(F(-13, 12), F(3, 8), F(-1, 24))
    assert rational_roots(q) == (F(1, 4), F(1, 3), F(1, 2))


def test_no_rational_cube_root_of_two():
    assert rational_roots(CubicPoly(F(0), F(0), F(-2))) is None


def test_partial_splitting_rejected():
    # x^3 - x^2 + x - 1 = (x - 1)(x^2 + 1): one rational root is not enough
    assert rational_roots(CubicPoly(F(-1), F(1), F(-1))) is None
    # x^3 - 2x + 4 = (x + 2)(x^2 - 2x + 2): a negative discriminant
    q = CubicPoly(F(0), F(-2), F(4))
    assert discriminant(q) < 0
    assert rational_roots(q) is None


def test_square_discriminant_without_rational_roots():
    # x^3 - 3x + 1 has discriminant 81 but its roots are irrational
    q = CubicPoly(F(0), F(-3), F(1))
    assert is_rational_square(discriminant(q)) == 9
    assert rational_roots(q) is None


def test_repeated_roots_returned_with_multiplicity():
    assert rational_roots(cubic_from_roots(F(2), F(2), F(2))) == (F(2), F(2), F(2))
    assert rational_roots(cubic_from_roots(F(-1), F(-1), F(3))) == (F(-1), F(-1), F(3))
    # a double root at the larger critical point
    assert rational_roots(cubic_from_roots(F(-1), F(3), F(3))) == (F(-1), F(3), F(3))
    assert rational_roots(cubic_from_roots(F(0), F(0), F(5, 7))) == (F(0), F(0), F(5, 7))
    third = F(-4, 3)
    assert rational_roots(cubic_from_roots(third, third, third)) == (third, third, third)
    # the ends of the search interval: a double largest root at the larger
    # critical point; a triple root (D = 0); the edge cubic at b = 0,
    # x^2 (x - 1); and two cubics whose largest root attains Samuelson's bound
    for roots in [
        (F(1), F(3), F(3)),
        (F(-5, 3), F(-5, 3), F(-5, 3)),
        (F(0), F(0), F(1)),
        (F(0), F(0), F(3)),
        (F(2, 7), F(2, 7), F(9, 4)),
    ]:
        assert rational_roots(cubic_from_roots(*roots)) == roots


def test_root_with_large_semiprime_factor():
    # a0 has two large prime factors; the root search must not factor it
    big = (2**61 - 1) * (2**89 - 1)
    assert rational_roots(cubic_from_roots(F(1), F(2), F(big))) == (F(1), F(2), F(big))


def test_zero_root_returned():
    assert rational_roots(CubicPoly(F(-1), F(0), F(0))) == (F(0), F(0), F(1))


def test_recovery_of_constructed_roots():
    rng = random.Random(7)
    for _ in range(300):
        roots = sorted(F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3))
        q = cubic_from_roots(*roots)
        # the square prefilter must never lose a constructed instance
        assert is_rational_square(discriminant(q)) is not None
        found = rational_roots(q)
        assert found == tuple(roots)
        for r in found:
            assert cubic_value(q, r) == 0


def test_agreement_with_brute_force_oracle():
    rng = random.Random(8)
    for _ in range(300):
        q = CubicPoly(
            F(rng.randint(-30, 30), rng.randint(1, 12)),
            F(rng.randint(-30, 30), rng.randint(1, 12)),
            F(rng.randint(-30, 30), rng.randint(1, 12)),
        )
        assert rational_roots(q) == oracle_full_split(q)


def test_determinism():
    q = cubic_from_roots(F(5, 7), F(-3, 2), F(8))
    first = rational_roots(q)
    for _ in range(5):
        assert rational_roots(q) == first


def test_roots_sorted_ascending():
    found = rational_roots(cubic_from_roots(F(9), F(-2, 3), F(1, 5)))
    assert found == (F(-2, 3), F(1, 5), F(9))


def test_cleared_integer_cubic_is_primitive():
    rng = random.Random(9)
    for _ in range(300):
        q = CubicPoly(*(F(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(3)))
        a3, a2, a1, a0 = _clear_to_integer_cubic(q)
        assert a3 > 0
        assert math.gcd(a3, a2, a1, a0) == 1
        assert (F(a2, a3), F(a1, a3), F(a0, a3)) == tuple(q)


# --- root_numerators, the integer core ------------------------------------------


def test_root_numerators_over_twice_the_leading_coefficient():
    # 24x^3 - 26x^2 + 9x - 1 = (4x - 1)(3x - 1)(2x - 1)
    ys = root_numerators(24, -26, 9, -1)
    assert ys == (12, 16, 24)
    assert [F(y, 48) for y in ys] == [F(1, 4), F(1, 3), F(1, 2)]
    # 6x^3 - x^2 - 11x + 6 = (3x - 2)(2x + 3)(x - 1): sorted, signs mixed
    ys = root_numerators(6, -1, -11, 6)
    assert ys == (-18, 8, 12)
    assert [F(y, 12) for y in ys] == [F(-3, 2), F(2, 3), F(1)]


def test_root_numerators_double_root_at_zero():
    # the edge cubic of `solve 0 -1`, x^2 (x - 1)
    edge = edge_integer_cubic(0, 1, -1, 1)
    assert edge == (1, -1, 0, 0)
    assert root_numerators(*edge) == (0, 0, 2)
    # x^2 (5x - 3), with a3 = 5
    assert root_numerators(5, -3, 0, 0) == (0, 0, 6)


def test_root_numerators_square_discriminant_irrational_roots():
    # 8x^3 - 6x - 1: the cyclic cubic with the roots cos(pi/9 + 2 pi k/3),
    # whose discriminant 5184 = 72^2 is a square
    assert is_perfect_square(integer_discriminant(8, 0, -6, -1)) == 72
    assert root_numerators(8, 0, -6, -1) is None


def assert_ascending_root_numerators(cubic, ys):
    """ys is ascending and y / (2*a3) runs over the roots of the cubic, with multiplicity.

    Vieta's formulas over the common denominator 2*a3, in integers: the
    roots' elementary symmetric functions are -a2/a3, a1/a3 and -a0/a3.
    """
    a3, a2, a1, a0 = cubic
    y0, y1, y2 = ys
    assert y0 <= y1 <= y2
    assert y0 + y1 + y2 == -2 * a2
    assert y0 * y1 + y0 * y2 + y1 * y2 == 4 * a1 * a3
    assert y0 * y1 * y2 == -8 * a0 * a3 * a3


def test_root_numerators_ascending_on_a_full_box():
    # every cubic of the largest-root box test with a square discriminant
    k = 50
    square = split = 0
    for a2 in range(-k, k + 1):
        for b1 in range(-k, k + 1):
            for b0 in range(-k, k + 1):
                if is_perfect_square(integer_discriminant(1, a2, b1, b0)) is None:
                    continue
                square += 1
                ys = root_numerators(1, a2, b1, b0)
                if ys is not None:
                    assert_ascending_root_numerators((1, a2, b1, b0), ys)
                    split += 1
    assert (square, split) == (2918, 1244)


def test_root_numerators_ascending_on_every_integer_root_multiset():
    r = 60
    for roots in combinations_with_replacement(range(-r, r + 1), 3):
        cubic = (1, *cubic_from_roots(*roots))
        assert root_numerators(*cubic) == tuple(2 * y for y in roots)
    # rational roots, so that a3 > 1: every multiset of height-4 fractions
    values = sorted({F(p, q) for p in range(-4, 5) for q in range(1, 5)})
    for roots in combinations_with_replacement(values, 3):
        cubic = _clear_to_integer_cubic(cubic_from_roots(*roots))
        ys = root_numerators(*cubic)
        assert_ascending_root_numerators(cubic, ys)
        assert tuple(F(y, 2 * cubic[0]) for y in ys) == roots


@pytest.mark.parametrize("digits", [60, 200])
def test_root_numerators_ascending_near_double_and_triple_roots(digits):
    # the exact-root families of the largest-root test below, through the whole core
    size = 10**digits
    rng = random.Random(digits)
    small = [0, 1, 2]
    for _ in range(40):
        r = rng.randint(-size, size)
        big = rng.randint(3, size)
        mid = rng.randint(3, 10**6)
        for g1 in small + [mid, big]:
            for g2 in small + [mid, big]:
                roots = (r, r + g1, r + g1 + g2)
                a2, b1, b0 = cubic_from_roots(*roots)
                assert root_numerators(1, a2, b1, b0) == tuple(2 * y for y in roots)


def newton_root_numerators(a3, a2, a1, a0):
    """``root_numerators`` by the Newton search and deflation, for any a0."""
    b1, b0 = a1 * a3, a0 * a3 * a3
    top = _largest_integer_root(a2, b1, b0)
    if top is None:
        return None
    p = a2 + top
    root = is_perfect_square(p * p - 4 * (b1 + top * p))
    return None if root is None else (-p - root, -p + root, 2 * top)


def test_root_numerators_zero_constant_is_the_newton_path():
    # a0 = 0 splits off the root 0 and solves the quadratic with no root search;
    # every such cubic of the box with a square discriminant, a1 = 0 (a double
    # root 0) among them, must give the Newton path's ascending triple
    k = 30
    seen = {"split": 0, "double zero": 0, "zero in the middle": 0}
    for a3 in range(1, k + 1):
        for a2 in range(-k, k + 1):
            for a1 in range(-k, k + 1):
                if is_perfect_square(integer_discriminant(a3, a2, a1, 0)) is None:
                    continue
                ys = root_numerators(a3, a2, a1, 0)
                assert ys == newton_root_numerators(a3, a2, a1, 0), (a3, a2, a1)
                assert_ascending_root_numerators((a3, a2, a1, 0), ys)
                seen["split"] += 1
                seen["double zero"] += a1 == 0
                seen["zero in the middle"] += ys[0] < 0 < ys[2] and ys[1] == 0
    assert all(seen.values()), seen
    # large roots, where the Newton search takes many steps
    rng = random.Random(0)
    for _ in range(200):
        r, t = (F(rng.randint(-(2**200), 2**200), rng.randint(1, 2**20)) for _ in range(2))
        cubic = _clear_to_integer_cubic(cubic_from_roots(F(0), r, t))
        assert cubic[3] == 0
        ys = root_numerators(*cubic)
        assert ys == newton_root_numerators(*cubic)
        assert tuple(F(y, 2 * cubic[0]) for y in ys) == tuple(sorted((F(0), r, t)))


# --- the largest-root search against the bisection it replaced ------------------------


def bisection_largest_root(a2, b1, b0):
    """Largest root of y^3 + a2*y^2 + b1*y + b0 if it is an integer, by bisection.

    The search the Newton iteration replaced, kept as a reference: the last
    integer with g <= 0 on [ceil(c), hi), where g is increasing; c is the
    larger critical point and hi lies above Samuelson's bound.
    """

    def g(y):
        return ((y + a2) * y + b1) * y + b0

    d = a2 * a2 - 3 * b1
    s = math.isqrt(d)
    if s * s < d:
        s += 1
    lo = -((a2 - s) // 3)
    hi = (2 * s - a2) // 3 + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo if g(lo) == 0 else None


def test_largest_root_matches_bisection_on_a_full_box():
    k = 50
    checked = 0
    for a2 in range(-k, k + 1):
        for b1 in range(-k, k + 1):
            for b0 in range(-k, k + 1):
                # three real roots, the function's precondition
                if integer_discriminant(1, a2, b1, b0) < 0:
                    continue
                assert _largest_integer_root(a2, b1, b0) == bisection_largest_root(a2, b1, b0)
                checked += 1
    assert checked == 549989


def test_largest_root_of_every_integer_root_multiset():
    r = 60
    for roots in combinations_with_replacement(range(-r, r + 1), 3):
        coeffs = cubic_from_roots(*roots)
        assert _largest_integer_root(*coeffs) == roots[2] == bisection_largest_root(*coeffs)


@pytest.mark.parametrize("digits", [60, 200])
def test_largest_root_near_double_and_triple_roots(digits):
    # roots r <= r + g1 <= r + g1 + g2 with gaps 0, 1, 2 or random: near-
    # triple roots when both gaps are small, near-double when one is.
    # Moving the constant term by 1 moves the roots off the integers, or
    # turns two of them complex, which the test skips.
    size = 10**digits
    rng = random.Random(digits)
    small = [0, 1, 2]
    for _ in range(40):
        r = rng.randint(-size, size)
        big = rng.randint(3, size)
        mid = rng.randint(3, 10**6)
        gaps = [(g1, g2) for g1 in small + [mid, big] for g2 in small + [mid, big]]
        for g1, g2 in gaps:
            roots = (r, r + g1, r + g1 + g2)
            a2, b1, b0 = cubic_from_roots(*roots)
            assert _largest_integer_root(a2, b1, b0) == roots[2]
            for shift in (-1, 1):
                if integer_discriminant(1, a2, b1, b0 + shift) < 0:
                    continue
                expected = bisection_largest_root(a2, b1, b0 + shift)
                assert _largest_integer_root(a2, b1, b0 + shift) == expected
