"""Exact evaluation of the nine coefficient formulas at a rational point.

The two cubics of the inverse problem and the right-hand sides of its three
auxiliary equations are rational functions of the parameters (b, c).  This
module evaluates all nine of them with exact rational arithmetic, refusing
points where a denominator vanishes.

Each formula is evaluated in its nested-product shape, in three stages:
edge (e10, e20, e30), diagonal (e01, e02, e03) and auxiliary (e21, e11,
e12).  The verifier's `grade` calls each stage only for the points that
reach it; `eval_coefficients` checks the point and evaluates all three.
The edge stage, the only one most graded points reach, runs in integers:
``edge_integer_cubic`` gives the primitive integer edge cubic that
``grade`` tests and solves, and ``edge_coefficients`` reads e10, e20, e30
off it as ratios of its coefficients; the other two stages run in
Fractions.

A second, independent transcription of every formula, as one cleared
fraction of integer polynomials, lives with the identity checks
(``identities.eval_coefficients_cleared``); agreement of the two on random
nonsingular points is a standing test guarding against transcription
typos.

One ambiguity is kept configurable rather than resolved: the e21 formula
exists in two denominator variants, selected by ``e21_form``.  The
"printed" variant carries an extra -4c^3 term inside its quartic factor;
the "common" variant uses the same quartic factor as every other formula.
The extra term gives the printed variant zeros away from the singular set
— e.g. at (0, 1/4) — and evaluation there raises E21DenominatorPole.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cubic import CubicPoly
from .singularity import SingularityClass, classify

E21_PRINTED = "printed"
E21_COMMON = "common"
E21_FORMS = (E21_PRINTED, E21_COMMON)


class EdgeCoefficients(NamedTuple):
    """The edge stage: the coefficients of the edge cubic."""

    e10: Fraction
    e20: Fraction
    e30: Fraction


class DiagonalCoefficients(NamedTuple):
    """The diagonal stage: the coefficients of the diagonal cubic."""

    e01: Fraction
    e02: Fraction
    e03: Fraction


class AuxiliaryCoefficients(NamedTuple):
    """The auxiliary stage: right-hand sides of the auxiliary equations."""

    e21: Fraction
    e11: Fraction
    e12: Fraction


class CoefficientSet(NamedTuple):
    """The nine coefficient values at a nonsingular point.

    e10, e20, e30 build the edge cubic, e01, e02, e03 the diagonal cubic,
    and e21, e11, e12 are the auxiliary-equation right-hand sides.
    """

    e10: Fraction
    e20: Fraction
    e30: Fraction
    e01: Fraction
    e02: Fraction
    e03: Fraction
    e21: Fraction
    e11: Fraction
    e12: Fraction


class SingularPoint(ValueError):
    """Coefficient evaluation was attempted at a singular parameter point."""

    def __init__(self, b: Fraction, c: Fraction, flags: SingularityClass):
        self.b = b
        self.c = c
        self.flags = flags
        names = ", ".join(sorted(flag.value for flag in flags))
        super().__init__(f"({b}, {c}) is singular: {names}")


class E21DenominatorPole(ZeroDivisionError):
    """The printed-form e21 denominator vanished at a nonsingular point.

    Only the printed form can raise this: its extra -4c^3 term gives the
    e21 denominator zeros that the singularity classifier (correctly) does
    not flag.  The first eight coefficients are still well defined there.
    """

    def __init__(self, b: Fraction, c: Fraction):
        self.b = b
        self.c = c
        super().__init__(
            f"printed e21 denominator vanishes at nonsingular point ({b}, {c})"
        )


def check_e21_form(e21_form: str) -> None:
    """Raise ValueError unless ``e21_form`` names one of the two e21 variants."""
    if e21_form not in E21_FORMS:
        raise ValueError(f"e21_form must be one of {E21_FORMS}, got {e21_form!r}")


def eval_coefficients(b: Fraction, c: Fraction, e21_form: str = E21_PRINTED) -> CoefficientSet:
    """All nine coefficients at (b, c), each an exact reduced Fraction.

    Raises SingularPoint if any reduced denominator factor vanishes, and
    E21DenominatorPole at the printed form's extra zeros (see module docs).
    """
    flags = classify(b, c)
    if flags:
        raise SingularPoint(b, c, flags)
    return CoefficientSet(
        *edge_coefficients(b, c),
        *diagonal_coefficients(b, c),
        *auxiliary_coefficients(b, c, e21_form),
    )


def _denominators(b: Fraction, c: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The shared denominator, the squared curve product and the quartic factor."""
    b2 = b * b
    c2 = c * c
    f1 = b * c - 1 - b
    f2 = b * c - c - 2 * b
    shared = b2 * c2 + 2 * b2 - 3 * b2 * c + c - b * c2 + 2 * b
    quart = b2 * c2 * c2 - 6 * b2 * c2 * c + 13 * b2 * c2 - 12 * b2 * c + 4 * b2 + c2
    return shared, f1 * f1 * f2 * f2, quart


def edge_coefficients(b: Fraction, c: Fraction) -> EdgeCoefficients:
    """Direct-path e10, e20, e30 at a nonsingular point (not checked)."""
    a3, a2, a1, a0 = edge_integer_cubic(*b.as_integer_ratio(), *c.as_integer_ratio())
    return EdgeCoefficients(Fraction(-a2, a3), Fraction(a1, a3), Fraction(-a0, a3))


def edge_integer_cubic(p: int, q: int, r: int, s: int) -> tuple[int, int, int, int]:
    """x^3 - e10 x^2 + e20 x - e30 at a nonsingular point (not checked), in integers.

    At b = p/q, c = r/s in lowest terms, q, s > 0, each factor is
    evaluated in homogeneous integer form: a factor of degree (i, j) in
    (b, c) is multiplied by q^i s^j.
    The shared denominator equals f1*f2, and quart is written from its
    sum-of-squares form (c-1)^2 (c-2)^2 b^2 + c^2; here f1 and f2 stand for
    qs*f1 and qs*f2 (``singularity.curve_forms``), and quart for
    q^2 s^4 * quart.  Then e10 = n10 / (f1 f2), e20 = n20 / (2 (f1 f2)^2)
    and e30 = n30 / (quart (f1 f2)^2).  All of them are expanded over the
    products p r^2, p r s, p s^2, q r^2, q r s and q s^2, each formed once.

    Returns the primitive (a3, a2, a1, a0): the coefficients times the
    common denominator 2 quart (f1 f2)^2, over their content.  a3 > 0, as
    quart is a sum of squares that vanishes only at the singular origin.
    """
    rr, rs, ss = r * r, r * s, s * s
    prr, prs, pss = p * rr, p * rs, p * ss
    qrr, qrs, qss = q * rr, q * rs, q * ss
    # pu = p (r - s)(r - 2s); f1 f2 = pa + qb - pq (r^2 - 2s^2), and n10 = qb - pa
    pu = prr - 3 * prs + 2 * pss
    pa = p * pu
    qb = q * qrs
    shared = pa + qb - p * (qrr - 2 * qss)
    quart = pu * pu + qrs * qrs
    n10 = qb - pa
    n20 = p * q * (prr - 2 * qrs - 2 * pss) * (2 * prr - qrr - 6 * prs + 2 * qss + 4 * pss)
    n30 = -pa * qb * (prr - 4 * prs + 2 * qss + 4 * pss) * (2 * prr - qrr - 4 * prs + 2 * pss)
    a3 = 2 * quart * shared * shared
    a2 = -2 * quart * shared * n10
    a1 = quart * n20
    a0 = -2 * n30
    content = gcd(a3, a2, a1, a0)
    return a3 // content, a2 // content, a1 // content, a0 // content


def diagonal_coefficients(b: Fraction, c: Fraction) -> DiagonalCoefficients:
    """Direct-path e01, e02, e03 at a nonsingular point (not checked)."""
    shared, curves_sq, quart = _denominators(b, c)
    b2 = b * b
    b3 = b2 * b
    b4 = b3 * b
    c2 = c * c
    c3 = c2 * c
    c4 = c3 * c
    e01 = -(b * (c2 + 2 - 2 * c)) / shared
    e02 = (
        28 * b2 * c2 - 16 * b2 * c - 2 * c2 - 4 * b2 - b2 * c4
        + 4 * b3 * c4 - 12 * b3 * c3 + 4 * b * c3 + 24 * b3 * c
        - 8 * b * c - 2 * b4 * c4 + 12 * b4 * c3 - 26 * b4 * c2
        - 8 * b2 * c3 + 24 * b4 * c - 16 * b3 - 8 * b4
    ) / (2 * curves_sq)
    e03 = (
        b
        * (b2 * c4 - 5 * b2 * c3 + 10 * b2 * c2 - 10 * b2 * c + 4 * b2
           + 2 * b * c + 2 * c2 - b * c3)
        * (2 * b2 * c4 - 12 * b2 * c3 + 26 * b2 * c2 - 24 * b2 * c + 8 * b2
           - c4 * b + 3 * b * c3 - 6 * b * c + 4 * b + c3 - 2 * c2 + 2 * c)
    ) / (2 * quart * curves_sq)
    return DiagonalCoefficients(e01, e02, e03)


def auxiliary_coefficients(b: Fraction, c: Fraction, e21_form: str) -> AuxiliaryCoefficients:
    """Direct-path e21, e11, e12 at a nonsingular point (not checked).

    Raises E21DenominatorPole at the printed form's extra zeros.
    """
    check_e21_form(e21_form)
    shared, curves_sq, quart = _denominators(b, c)
    b2 = b * b
    b3 = b2 * b
    b4 = b3 * b
    c2 = c * c
    c3 = c2 * c
    c4 = c3 * c
    c5 = c4 * c
    c6 = c5 * c
    c7 = c6 * c
    c8 = c7 * c

    e21_quart = quart - 4 * c3 if e21_form == E21_PRINTED else quart
    if e21_quart == 0:
        raise E21DenominatorPole(b, c)
    e21 = (
        b
        * (5 * c6 * b - 2 * c6 * b2 + 52 * c5 * b2 - 16 * c5 * b
           - 2 * c7 * b2 + 2 * b4 * c8 - 26 * b4 * c7 - 426 * b4 * c5
           - 61 * b3 * c6 + 100 * b3 * c5 + 14 * c7 * b3 - c8 * b3
           - 20 * b * c2 - 8 * b2 * c2 - 16 * b2 * c - 128 * b2 * c4
           - 200 * b3 * c3 + 244 * b3 * c2 + 32 * b * c3 + 768 * b4 * c4
           - 852 * b4 * c3 + 568 * b4 * c2 + 104 * b2 * c3 - 208 * b4 * c
           + 8 * c4 + 16 * b3 - 112 * b3 * c + 142 * b4 * c6 + 32 * b4 - 2 * c5)
    ) / (2 * e21_quart * curves_sq)
    e11 = -(b * (c2 + 2 - 4 * c)) / shared
    e12 = (
        16 * b**6 + 32 * b**5 - 6 * c5 * b2 + 2 * c5 * b - 62 * b**5 * c6
        + 62 * b**6 * c6 + 16 * b4 - 180 * b**6 * c5 - c7 * b3 + 18 * b**5 * c7
        - 12 * b**6 * c7 - 2 * b**5 * c8 + b**6 * c8 + 248 * b**5 * c2
        + 248 * b**6 * c2 - 96 * b**6 * c + 321 * b**6 * c4 - 180 * b**5 * c3
        - 144 * b**5 * c - 360 * b**6 * c3 + b4 * c8 + 8 * b4 * c6
        - 6 * b4 * c7 + 18 * b4 * c5 + 7 * b3 * c6 + 90 * b**5 * c5
        - 14 * b3 * c5 + 17 * b2 * c4 + 32 * b4 * c2 + 28 * b3 * c3
        - 28 * b3 * c2 - 4 * b * c3 + 8 * b3 * c - 57 * b4 * c4
        + 36 * b4 * c3 - 12 * b2 * c3 - 48 * b4 * c - c4
    ) / (quart * curves_sq)
    return AuxiliaryCoefficients(e21, e11, e12)


def edge_cubic(cs: EdgeCoefficients | CoefficientSet) -> CubicPoly:
    """Monic cubic whose roots are the candidate edges: x^3 - e10 x^2 + e20 x - e30."""
    return CubicPoly(-cs.e10, cs.e20, -cs.e30)


def diagonal_cubic(cs: DiagonalCoefficients | CoefficientSet) -> CubicPoly:
    """Monic cubic whose roots are the candidate face diagonals."""
    return CubicPoly(-cs.e01, cs.e02, -cs.e03)
