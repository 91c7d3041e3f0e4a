"""Exact detection and extraction of full rational root triples of monic cubics.

The search pipeline asks one question per candidate point, twice: does a
monic cubic with rational coefficients split completely over the rationals,
and if so into which roots?  The answer is computed exactly:

  1. prefilter: the discriminant must be the square of a rational, since
     for a fully split cubic it equals the squared product of root
     differences.  A cheap integer perfect-square test rejects the cubic
     before any root search.  (The verifier settles this for the edge
     cubic earlier, from the discriminant's factored form, so the edge
     cubics that reach this function all pass it.)
  2. clear denominators to a primitive integer cubic.
  3. find the largest root: the substitution y = a3*x makes the cubic
     monic with integer coefficients, so every rational root is y/a3 for
     an integer root y, and the largest y is found by integer bisection on
     an interval where the cubic is monotone.  No integer is factored.
  4. deflate and solve the remaining quadratic exactly.

No floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional


class CubicPoly(NamedTuple):
    """Monic cubic x^3 + c2*x^2 + c1*x + c0 with rational coefficients."""

    c2: Fraction
    c1: Fraction
    c0: Fraction


# A fully split cubic's roots, as a sorted ascending triple (multiset).
RootTriple = tuple


def discriminant(q: CubicPoly) -> Fraction:
    """Discriminant of the monic cubic; equals prod (r_i - r_j)^2 over roots."""
    c2, c1, c0 = q
    return (
        18 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2 * c2 * c1 * c1
        - 4 * c1**3
        - 27 * c0 * c0
    )


def is_perfect_square(n: int) -> Optional[int]:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    root = math.isqrt(n)
    return root if root * root == n else None


def is_rational_square(r: Fraction) -> Optional[Fraction]:
    """Nonnegative rational square root of r if one exists, else None.

    A reduced fraction is a rational square exactly when numerator and
    denominator are both perfect integer squares.
    """
    if r < 0:
        return None
    num_root = is_perfect_square(r.numerator)
    if num_root is None:
        return None
    den_root = is_perfect_square(r.denominator)
    if den_root is None:
        return None
    return Fraction(num_root, den_root)


def _clear_to_integer_cubic(q: CubicPoly) -> tuple[int, int, int, int]:
    """Primitive integer form a3*x^3 + a2*x^2 + a1*x + a0 with a3 > 0."""
    lcm = 1
    for coeff in q:
        lcm = lcm * coeff.denominator // math.gcd(lcm, coeff.denominator)
    a3 = lcm
    a2 = q.c2.numerator * (lcm // q.c2.denominator)
    a1 = q.c1.numerator * (lcm // q.c1.denominator)
    a0 = q.c0.numerator * (lcm // q.c0.denominator)
    content = math.gcd(math.gcd(a3, a2), math.gcd(a1, a0))
    return a3 // content, a2 // content, a1 // content, a0 // content


def _largest_rational_root(a3: int, a2: int, a1: int, a0: int) -> Optional[Fraction]:
    """Largest root of the integer cubic if it is rational, else None.

    The cubic must have three real roots (nonnegative discriminant).  Write
    g(y) = y^3 + a2*y^2 + a1*a3*y + a0*a3^2 = a3^2 * cubic(y / a3).  g is
    monic with integer coefficients, so its rational roots are integers and
    the cubic's rational roots are exactly y / a3 for them.  If the cubic
    splits over Q, its largest root r times a3 is therefore an integer.

    Search interval.  g'(y) = 3y^2 + 2*a2*y + a1*a3 has roots
    (-a2 +- sqrt(D)) / 3 with D = a2^2 - 3*a1*a3.  By Rolle (Gauss-Lucas
    with multiplicities), the critical points of a cubic with three real
    roots lie between its smallest and largest root, so D >= 0 and
    a3*r >= c = (-a2 + sqrt(D)) / 3.  This holds with equality when the
    largest root is a double root (it is then the larger critical point)
    or a triple root (D = 0).  Being an integer, a3*r is at least ceil(c),
    which is computed exactly: with s = ceil(sqrt(D)) from isqrt,
    ceil((s - a2) / 3) = ceil(c).  For square D the two are equal; for
    nonsquare D, c lies strictly between (s - 1 - a2) / 3 and (s - a2) / 3,
    and no integer k has c <= k < (s - a2) / 3, since 3k would lie strictly
    between the consecutive integers s - 1 - a2 and s - a2.  By Cauchy's bound
    every root has |y| < M = 1 + max(|a2|, |a1*a3|, |a0*a3^2|), so
    g(M) > 0.

    Bisection.  g is nondecreasing on [ceil(c), M], so g(y) <= 0 holds on
    a prefix of its integers.  Every y above the largest root of g has
    g(y) > 0, so when a3*r is an integer the last integer of that prefix
    is a3*r, and g is zero there.  Otherwise g is nonzero there (or the
    prefix is empty), the largest root is irrational, and None is returned.
    """
    b1 = a1 * a3
    b0 = a0 * a3 * a3

    def g(y: int) -> int:
        return ((y + a2) * y + b1) * y + b0

    d = a2 * a2 - 3 * b1
    s = math.isqrt(d)
    if s * s < d:
        s += 1
    lo = -((a2 - s) // 3)
    hi = 1 + max(abs(a2), abs(b1), abs(b0))
    # g(hi) > 0 throughout; the last integer with g <= 0, if any, is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, a3) if g(lo) == 0 else None


def rational_roots(q: CubicPoly) -> Optional[RootTriple]:
    """All three roots if the cubic splits completely over the rationals.

    Returns a sorted ascending triple (a multiset: repeated roots appear
    with multiplicity), or None when the cubic does not fully split.
    Deterministic: equal inputs give bit-identical outputs.
    """
    if is_rational_square(discriminant(q)) is None:
        return None
    a3, a2, a1, a0 = _clear_to_integer_cubic(q)
    first = _largest_rational_root(a3, a2, a1, a0)
    if first is None:
        return None
    # q(x) = (x - r)(x^2 + p*x + s) by synthetic division
    p = q.c2 + first
    s = q.c1 + first * p
    quad_disc = p * p - 4 * s
    root = is_rational_square(quad_disc)
    if root is None:
        return None
    second = (-p + root) / 2
    third = (-p - root) / 2
    return tuple(sorted((first, second, third)))
