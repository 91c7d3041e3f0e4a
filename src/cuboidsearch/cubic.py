"""Exact detection and extraction of full rational root triples of monic cubics.

The search pipeline asks one question per candidate point, twice: does a
monic cubic with rational coefficients split completely over the rationals,
and if so into which roots?  The answer is computed exactly:

  1. clear denominators once, to a primitive integer cubic
     P = a3*x^3 + a2*x^2 + a1*x + a0 with a3 > 0.  The monic integer
     cubic g(y) = y^3 + a2*y^2 + a1*a3*y + a0*a3^2 has the roots a3*x, so
     every rational root is y/a3 for an integer root y.
  2. (``grade`` and the search only) the discriminant must be the
     square of a rational, since for a fully split cubic it equals the
     squared product of root differences.  As disc(P) = a3^4 * disc, this
     is one integer perfect-square test on ``integer_discriminant(P)``;
     both run it on the edge cubic because the level-0 verdict and its
     residual need it.  ``rational_roots`` skips it: the root search of
     step 3 decides splitting alone.
  3. find the largest root y of g by integer Newton steps from above,
     starting at Samuelson's bound on the largest root, after two exact
     exits.  If D = a2^2 - 3*a1*a3 < 0, g has one real root and does not
     split.  If g is positive at lo, the least integer at or above the
     larger critical point c, it does not split either, since the largest
     root of a split cubic is at least c.  Past them, g has one root Y in
     [c, oo), and any complex pair's real part is at most Y, so every
     Newton step removes at least a third of the distance to Y: an
     integer root is met exactly, and an irrational one is passed within
     a logarithmic number of steps.  No integer is factored.  A cubic
     with a zero constant term has the root 0 and skips this step.
  4. deflate g in integers and solve the remaining quadratic with isqrt;
     the core ``root_numerators`` (steps 3 and 4) returns the root
     numerators over 2*a3, ascending with no sort: the quadratic's two
     roots are roots of g, so they lie at or below the largest root
     found in step 3, and its isqrt is nonnegative.  ``root_fractions``
     turns the numerators into the roots y / (2*a3), each reduced with one
     gcd and built without ``Fraction``'s constructor.

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


def is_perfect_square(n: int) -> Optional[int]:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    root = math.isqrt(n)
    return root if root * root == n else None


def _clear_to_integer_cubic(q: CubicPoly) -> tuple[int, int, int, int]:
    """Primitive integer form a3*x^3 + a2*x^2 + a1*x + a0 with a3 > 0.

    a3 is the lcm of the reduced denominators, so the form is primitive
    without dividing out a content: a prime p dividing a3 divides some
    denominator d to the full power p^e of a3, and that coefficient's
    numerator, prime to d, times a3 / d, prime to p, is not divisible by p.
    """
    c2, c1, c0 = q
    n2, d2 = c2.as_integer_ratio()
    n1, d1 = c1.as_integer_ratio()
    n0, d0 = c0.as_integer_ratio()
    a3 = math.lcm(d2, d1, d0)
    return a3, n2 * (a3 // d2), n1 * (a3 // d1), n0 * (a3 // d0)


def _largest_integer_root(a2: int, b1: int, b0: int) -> Optional[int]:
    """Largest root of g(y) = y^3 + a2*y^2 + b1*y + b0 if it is an integer, else None.

    Exits.  g'(y) = 3y^2 + 2*a2*y + b1 has roots (-a2 +- sqrt(D)) / 3 with
    D = a2^2 - 3*b1.  If D < 0, g is increasing with one real root, so
    None is returned.  Otherwise let c = (-a2 + sqrt(D)) / 3 be the larger
    critical point.  By Rolle (Gauss-Lucas with multiplicities), the
    critical points of a cubic with three real roots lie between its
    smallest and largest root, so its largest root Y satisfies Y >= c,
    with equality when Y is a double root (it is then the larger critical
    point) or a triple root (D = 0).  An integer Y is therefore at least
    lo = ceil(c), which is computed exactly: with s = ceil(sqrt(D)) from
    isqrt, ceil((s - a2) / 3) = ceil(c).  For square D the two are equal;
    for nonsquare D, c lies strictly between (s - 1 - a2) / 3 and
    (s - a2) / 3, and no integer k has c <= k < (s - a2) / 3, since 3k
    would lie strictly between the consecutive integers s - 1 - a2 and
    s - a2.  g' > 0 on (c, oo), so g(lo) <= g(Y) = 0 when g splits with
    an integer largest root; if g(lo) > 0, None is returned.  This exit
    also keeps the loop below off an integer critical point, where g'
    vanishes.

    Lemma.  If g(lo) <= 0, g has exactly one root Y in [c, oo), as g
    increases there to infinity, and Y is g's largest real root.  Its
    other roots are real and at most Y, or a complex pair a +- ie with
    a <= Y: the critical points' mean -a2/3 = (Y + 2a)/3 is at most c,
    itself at most Y.

    Above, Samuelson's inequality bounds the largest of n real numbers by
    their mean plus sqrt(n - 1) standard deviations.  When the roots are
    real, they have mean -a2/3 and, as their squares sum to a2^2 - 2*b1,
    variance 2D/9, so Y <= (-a2 + 2*sqrt(D)) / 3 <= (2s - a2) / 3, with
    equality in the first step when the two smaller roots coincide (as
    for x^2 (x - 3)).  So floor(Y) <= hi = floor((2s - a2) / 3).  With a
    complex pair Y may lie above hi; the loop below then stops at its
    first iterate, where g < 0, or before it, and returns None, which is
    right, as g does not split.

    Newton from above.  Starting at y = hi, step to the floor of the
    Newton point, y <- y - ceil(g(y) / g'(y)), while y >= lo and g(y) > 0.
    On [c, oo) g is increasing and convex, as the inflection point -a2/3
    is at most c.  So g(y) > 0 means y > Y, where g'(y) > 0, and the
    tangent at y meets the axis in [Y, y): the Newton point is at least Y,
    and every iterate is at least floor(Y).  When Y is an integer, the
    iterates thus stay >= Y and stop where g vanishes, at Y itself.  When
    it is not, they stop at floor(Y), where g < 0 if floor(Y) >= lo, or
    fall below lo, where no integer is the largest root; None is returned.

    Bounded work.  With u = y - Y > 0, g(y) / g'(y) is
    1 / (1/u + 1/(y - r2) + 1/(y - r3)) for real roots r3 <= r2 <= Y, and
    1 / (1/u + 2(y - a) / ((y - a)^2 + e^2)) for a complex pair; as
    y - r2, y - r3 and y - a are at least u, either is at least u/3.  So
    each step takes at least a third of u, and the next u' <= 2u/3: from
    u0 = hi - Y < hi - lo + 1, u_k <= (2/3)^k u0.  Every iterate but the
    last two is at least floor(Y) + 2 > Y + 1, so u_k > 1 there, and g is
    evaluated fewer than log_{3/2}(hi - lo + 1) + 3 times in the loop
    (never when hi < lo), and once before it.  No integer is factored.
    """
    d = a2 * a2 - 3 * b1
    if d < 0:
        return None
    s = math.isqrt(d)
    if s * s < d:
        s += 1
    lo = -((a2 - s) // 3)
    if ((lo + a2) * lo + b1) * lo + b0 > 0:
        return None
    y = (2 * s - a2) // 3
    while y >= lo:
        # Horner's rule for g, and its derivative g' = q + (p + y)*y alongside
        p = y + a2
        q = p * y + b1
        v = q * y + b0
        if v <= 0:
            return y if v == 0 else None
        # to the floor of the Newton point, y - v / g'(y)
        y += -v // (q + (p + y) * y)
    return None


def integer_discriminant(a3: int, a2: int, a1: int, a0: int) -> int:
    """Discriminant of a3*x^3 + a2*x^2 + a1*x + a0; a3^4 times that of its monic form.

    The textbook expansion 18*a3*a2*a1*a0 - 4*a2^3*a0 + a2^2*a1^2
    - 4*a3*a1^3 - 27*a3^2*a0^2, regrouped around t = a2*a1 and u = a3*a0:
    13 products instead of 17.
    """
    t = a2 * a1
    u = a3 * a0
    return t * (t + 18 * u) - 27 * u * u - 4 * (a3 * a1 * a1 * a1 + a0 * a2 * a2 * a2)


def root_numerators(a3: int, a2: int, a1: int, a0: int) -> Optional[tuple[int, int, int]]:
    """Ascending integers y with the roots y / (2*a3) if the cubic splits over Q, else None.

    a3 must be positive; any integer cubic will do, with no test on its
    discriminant first.  Steps 3 and 4 of the module docstring: the root
    search decides splitting by itself, and its two exits and bounded
    work are proven in ``_largest_integer_root``.

    The triple is ascending by construction, with no sort: the deflated
    quadratic's roots (-p -+ root) / 2, root >= 0, are roots of g, so
    neither exceeds its largest root top.  Doubled, -p - root <= -p + root
    <= 2*top, and dividing by 2*a3 > 0 keeps the order.

    With a0 = 0 the cubic is x*(a3*x^2 + a2*x + a1): its roots are 0 and
    the quadratic's (-a2 -+ r) / (2*a3), r the isqrt of a2^2 - 4*a3*a1,
    and no root is searched for.
    """
    if not a0:
        root = is_perfect_square(a2 * a2 - 4 * a3 * a1)
        if root is None:
            return None
        low, high = -a2 - root, -a2 + root
        # ascending: low <= high, and 0 goes where its sign puts it
        return (low, high, 0) if high <= 0 else (0, low, high) if low >= 0 else (low, 0, high)
    b1 = a1 * a3
    b0 = a0 * a3 * a3
    top = _largest_integer_root(a2, b1, b0)
    if top is None:
        return None
    # g(y) = (y - top)(y^2 + p*y + s) by synthetic division
    p = a2 + top
    s = b1 + top * p
    root = is_perfect_square(p * p - 4 * s)
    if root is None:
        return None
    # ascending: root >= 0, and top is the largest root of g
    return -p - root, -p + root, 2 * top


def rational_roots(q: CubicPoly) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """All three roots if the cubic splits completely over the rationals.

    Returns a sorted ascending triple (a multiset: repeated roots appear
    with multiplicity), or None when the cubic does not fully split.
    Clears the denominators and calls ``root_numerators``, with no
    discriminant test, and builds the roots with ``root_fractions``.
    Deterministic: equal inputs give bit-identical outputs.
    """
    a3, a2, a1, a0 = _clear_to_integer_cubic(q)
    ys = root_numerators(a3, a2, a1, a0)
    if ys is None:
        return None
    return root_fractions(ys, a3)


def root_fractions(ys: tuple[int, int, int], a3: int) -> tuple[Fraction, Fraction, Fraction]:
    """The roots y / (2*a3) of ``root_numerators``' triple, each in lowest terms.

    a3 must be positive.  Each root is made with ``object.__new__`` and
    its two slots set, with one gcd and no call of ``Fraction``'s
    constructor, which would check its arguments' types before taking the
    same gcd.  With g = gcd(y, 2*a3), y // g over 2*a3 // g is coprime
    with a positive denominator: the normal form that the constructor
    leaves, so the roots equal ``Fraction(y, 2*a3)`` in value, hash, text
    and pickle.  ``_numerator`` and ``_denominator`` are all of
    ``Fraction``'s slots, a layout the tests pin.  The three roots are
    written out, as a generator over them gave a smaller gain.
    """
    y0, y1, y2 = ys
    den = 2 * a3
    g = math.gcd(y0, den)
    r0 = object.__new__(Fraction)
    r0._numerator = y0 // g
    r0._denominator = den // g
    g = math.gcd(y1, den)
    r1 = object.__new__(Fraction)
    r1._numerator = y1 // g
    r1._denominator = den // g
    g = math.gcd(y2, den)
    r2 = object.__new__(Fraction)
    r2._numerator = y2 // g
    r2._denominator = den // g
    return r0, r1, r2
