"""Classification of parameter points against the three singular subvarieties.

The reduced common denominator of the coefficient formulas factors into
three pieces: two rational curves (each linear in b) and one quartic-in-c
factor that is quadratic in b.  A parameter pair (b, c) is singular exactly
when one of those factors vanishes there.  Over the rationals the quartic
factor vanishes only at the origin, because it can be rewritten as
(c-1)^2 (c-2)^2 b^2 + c^2, a sum of squares; that rewriting is one of the
machine-checked identities (see the identities module).  The curves are
linear in c too, so a row b has at most two singular columns
(``singular_columns``).

The classifier works on the integers of a point's numerators and
denominators.  The three factors as polynomials, and ``factor_values``,
which evaluates them, live in the identities module with the checks that
use them.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd


class SingularFlag(enum.Enum):
    """Which denominator factor vanishes at a point."""

    FIRST_CURVE = "FirstCurve"
    SECOND_CURVE = "SecondCurve"
    THIRD_VARIETY = "ThirdVariety"


# frozenset of SingularFlag; empty means nonsingular
SingularityClass = frozenset

NONSINGULAR: SingularityClass = frozenset()


def curve_forms(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    """The integers F1 = qs*f1 and F2 = qs*f2 of the two curve factors at b = p/q, c = r/s."""
    return p * r - q * s - p * s, p * r - q * r - 2 * p * s


def singular_columns(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """The reduced c = r/s (s > 0) where (p/q, c) is singular, p/q in lowest terms.

    f1 vanishes at c = (p + q)/p if p != 0, and f2 at c = 2p/(p - q) if
    p != q; at p = 0 that is the origin, the third variety's only point.
    """
    columns = []
    for r, s in ((p + q, p), (2 * p, p - q)):
        if s:
            g = gcd(r, s) if s > 0 else -gcd(r, s)
            columns.append((r // g, s // g))
    return tuple(columns)


def classify(b: Fraction, c: Fraction) -> SingularityClass:
    """Flags of the denominator factors vanishing at (b, c); empty = nonsingular.

    The two curve tests are decided on the integers of ``curve_forms``, so
    no Fraction is built; a nonsingular point returns NONSINGULAR itself.
    The third-variety test checks for the origin, the quartic factor's
    only rational zero by its sum-of-squares form, instead of evaluating
    the factor.
    """
    p, r = b.numerator, c.numerator
    f1, f2 = curve_forms(p, b.denominator, r, c.denominator)
    hits = (f1 == 0, f2 == 0, p == 0 and r == 0)
    if not any(hits):
        return NONSINGULAR
    return frozenset(flag for flag, hit in zip(SingularFlag, hits) if hit)
