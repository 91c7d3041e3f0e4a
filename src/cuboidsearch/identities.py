"""Machine verification of the symbolic identities behind the denominators.

The module holds the symbolic reference side of the package, as IntPoly2
transcriptions: the three denominator factors (``FIRST_CURVE_POLY``,
``SECOND_CURVE_POLY``, ``QUARTIC_POLY``, and ``factor_values``, which the
``classify`` command prints), and every coefficient formula as one cleared
fraction (``eval_coefficients_cleared``), entered independently of the
coefficients module's direct path; the tests compare the two.  The search
pipeline imports none of this, so it never loads ``bipoly``.

Four exact polynomial identities justify how the singularity classifier and
the coefficient formulas fit together:

  1. the six-term shared denominator of the three simplest formulas factors
     into the two curve factors;
  2. consequently the full product of all denominator factors equals the
     collapsed form with the curve factors cubed;
  3. the quartic factor, viewed as a quadratic in b, has discriminant
     -4 (c-1)^2 (c-2)^2 c^2;
  4. the quartic factor equals (c-1)^2 (c-2)^2 b^2 + c^2, the sum-of-squares
     form that pins its only rational zero to the origin.

Each check expands both sides with exact integer arithmetic and compares
canonical forms, so a pass is a proof of the identity, not a sampling
argument.

Two more checks, run on their own, back the verifier's level-0 test: the
factored edge discriminant (``check_edge_discriminant_factorization``) and
fact F1, that its factor G has no rational zero but the origin.

Three more back the sieve module's 2-adic sieve, fact F3: the cells of
(v2(b), v2(c)) in which t = q^8 s^8 S is never a square.  Modulo 2^k,
``check_s_two_adic_cells`` enumerates the cells outright, over the
sieve's own representatives of P^1 (``sieve.p1_points``), which F4 below
uses too, classed by the sieve's ``v2``; ``check_s_sigma_rule`` proves
the involution sigma(b, c) = (-b, 2/c) that mirrors two proven cells
onto two more; and ``check_s_zero_column`` covers the point c = 0, which
sigma misses.

One more backs the sieve's odd moduli, fact F4: for an odd prime power
m, ``check_s_residue_classes`` checks the sieve's own table of the class
pairs of P^1(Z/m) x P^1(Z/m) at which t has a square residue
(``sieve.square_classes``), and its class map (``sieve.p1_classes``),
against t evaluated at every pair (p, q) mod m.

One more, also run on its own, backs the search's closed-form row
b = 0, fact F5: ``check_b0_row`` restricts the factors and the edge
formulas to b = 0, where the origin is the only singular point and the
edge cubic is x^2 (x - 1) at every other point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .bipoly import B, C, IntPoly2, discriminant_in_b
from .coefficients import (
    E21_PRINTED,
    CoefficientSet,
    E21DenominatorPole,
    SingularPoint,
    check_e21_form,
)
from .sieve import EDGE_DISC_S, p1_classes, p1_points, prime_of, square_classes, v2
from .singularity import classify


# Symbolic forms of the three factors, used by the identity checks, by
# factor_values and by test oracles.
FIRST_CURVE_POLY = B * C - 1 - B
SECOND_CURVE_POLY = B * C - C - 2 * B
QUARTIC_POLY: IntPoly2 = (
    B**2 * C**4 - 6 * B**2 * C**3 + 13 * B**2 * C**2 - 12 * B**2 * C + 4 * B**2 + C**2
)


def factor_values(b: Fraction, c: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Values of the three reduced denominator factors at (b, c)."""
    return tuple(poly.eval(b, c) for poly in (FIRST_CURVE_POLY, SECOND_CURVE_POLY, QUARTIC_POLY))


# --- cleared-fraction path: each formula as one polynomial fraction -------
#
# Re-entered independently of the direct path of the coefficients module.
# Factors below are deliberately retranscribed rather than reused from
# FIRST_CURVE_POLY, SECOND_CURVE_POLY and QUARTIC_POLY above, so a typo in
# either place is caught by the identity checks and the path-agreement
# tests.

SHARED_DENOMINATOR_POLY: IntPoly2 = (
    B**2 * C**2 + 2 * B**2 - 3 * B**2 * C + C - B * C**2 + 2 * B
)

_F1 = B * C - 1 - B
_F2 = B * C - C - 2 * B
_F2_ALT = -C + B * C - 2 * B  # spelling used by two of the formulas; same polynomial
_QUART = B**2 * C**4 - 6 * B**2 * C**3 + 13 * B**2 * C**2 - 12 * B**2 * C + 4 * B**2 + C**2
_E21_QUART_PRINTED = (
    B**2 * C**4 - 6 * B**2 * C**3 + 13 * B**2 * C**2 - 12 * B**2 * C
    - 4 * C**3 + 4 * B**2 + C**2
)
_CURVES_SQ = _F1**2 * _F2**2

_E11_NUM = -(B * (C**2 + 2 - 4 * C))
_E10_NUM = -(B**2 * C**2 + 2 * B**2 - 3 * B**2 * C - C)
_E01_NUM = -(B * (C**2 + 2 - 2 * C))
_E20_NUM = B * (B * C**2 - 2 * C - 2 * B) * (2 * B * C**2 - C**2 - 6 * B * C + 2 + 4 * B)
_E20_DEN = 2 * _CURVES_SQ
_E02_NUM = (
    28 * B**2 * C**2 - 16 * B**2 * C - 2 * C**2 - 4 * B**2 - B**2 * C**4
    + 4 * B**3 * C**4 - 12 * B**3 * C**3 + 4 * B * C**3 + 24 * B**3 * C
    - 8 * B * C - 2 * B**4 * C**4 + 12 * B**4 * C**3 - 26 * B**4 * C**2
    - 8 * B**2 * C**3 + 24 * B**4 * C - 16 * B**3 - 8 * B**4
)
_E02_DEN = 2 * _CURVES_SQ
_E30_NUM = (
    C * B**2 * (1 - C) * (C - 2)
    * (B * C**2 - 4 * B * C + 2 + 4 * B)
    * (2 * B * C**2 - C**2 - 4 * B * C + 2 * B)
)
_E30_DEN = _QUART * _F1**2 * _F2_ALT**2
_E03_NUM = B * (
    B**2 * C**4 - 5 * B**2 * C**3 + 10 * B**2 * C**2 - 10 * B**2 * C + 4 * B**2
    + 2 * B * C + 2 * C**2 - B * C**3
) * (
    2 * B**2 * C**4 - 12 * B**2 * C**3 + 26 * B**2 * C**2 - 24 * B**2 * C + 8 * B**2
    - C**4 * B + 3 * B * C**3 - 6 * B * C + 4 * B + C**3 - 2 * C**2 + 2 * C
)
_E03_DEN = 2 * _QUART * _F1**2 * _F2_ALT**2
_E21_NUM = B * (
    5 * C**6 * B - 2 * C**6 * B**2 + 52 * C**5 * B**2 - 16 * C**5 * B
    - 2 * C**7 * B**2 + 2 * B**4 * C**8 - 26 * B**4 * C**7 - 426 * B**4 * C**5
    - 61 * B**3 * C**6 + 100 * B**3 * C**5 + 14 * C**7 * B**3 - C**8 * B**3
    - 20 * B * C**2 - 8 * B**2 * C**2 - 16 * B**2 * C - 128 * B**2 * C**4
    - 200 * B**3 * C**3 + 244 * B**3 * C**2 + 32 * B * C**3 + 768 * B**4 * C**4
    - 852 * B**4 * C**3 + 568 * B**4 * C**2 + 104 * B**2 * C**3 - 208 * B**4 * C
    + 8 * C**4 + 16 * B**3 - 112 * B**3 * C + 142 * B**4 * C**6 + 32 * B**4 - 2 * C**5
)
_E21_DEN_PRINTED = 2 * _E21_QUART_PRINTED * _F1**2 * _F2**2
_E21_DEN_COMMON = 2 * _QUART * _F1**2 * _F2**2
_E12_NUM = (
    16 * B**6 + 32 * B**5 - 6 * C**5 * B**2 + 2 * C**5 * B - 62 * B**5 * C**6
    + 62 * B**6 * C**6 + 16 * B**4 - 180 * B**6 * C**5 - C**7 * B**3
    + 18 * B**5 * C**7 - 12 * B**6 * C**7 - 2 * B**5 * C**8 + B**6 * C**8
    + 248 * B**5 * C**2 + 248 * B**6 * C**2 - 96 * B**6 * C + 321 * B**6 * C**4
    - 180 * B**5 * C**3 - 144 * B**5 * C - 360 * B**6 * C**3 + B**4 * C**8
    + 8 * B**4 * C**6 - 6 * B**4 * C**7 + 18 * B**4 * C**5 + 7 * B**3 * C**6
    + 90 * B**5 * C**5 - 14 * B**3 * C**5 + 17 * B**2 * C**4 + 32 * B**4 * C**2
    + 28 * B**3 * C**3 - 28 * B**3 * C**2 - 4 * B * C**3 + 8 * B**3 * C
    - 57 * B**4 * C**4 + 36 * B**4 * C**3 - 12 * B**2 * C**3 - 48 * B**4 * C - C**4
)
_E12_DEN = _QUART * _F1**2 * _F2**2

_CLEARED = {
    "e10": (_E10_NUM, SHARED_DENOMINATOR_POLY),
    "e20": (_E20_NUM, _E20_DEN),
    "e30": (_E30_NUM, _E30_DEN),
    "e01": (_E01_NUM, SHARED_DENOMINATOR_POLY),
    "e02": (_E02_NUM, _E02_DEN),
    "e03": (_E03_NUM, _E03_DEN),
    "e11": (_E11_NUM, SHARED_DENOMINATOR_POLY),
    "e12": (_E12_NUM, _E12_DEN),
}


def eval_coefficients_cleared(
    b: Fraction, c: Fraction, e21_form: str = E21_PRINTED
) -> CoefficientSet:
    """Second, independently transcribed path: one cleared fraction per formula."""
    check_e21_form(e21_form)
    flags = classify(b, c)
    if flags:
        raise SingularPoint(b, c, flags)
    values = {}
    for name, (num, den) in _CLEARED.items():
        values[name] = num.eval(b, c) / den.eval(b, c)
    e21_den = _E21_DEN_PRINTED if e21_form == E21_PRINTED else _E21_DEN_COMMON
    e21_den_value = e21_den.eval(b, c)
    if e21_den_value == 0:
        raise E21DenominatorPole(b, c)
    values["e21"] = _E21_NUM.eval(b, c) / e21_den_value
    return CoefficientSet(**values)


# The factor G of the edge discriminant, laid out as sieve.EDGE_DISC_S.
# By F1 it vanishes at no nonsingular rational point, so level 0 tests S alone.
EDGE_DISC_G = (
    (0, 0, -2, 4, -1, 0, 0),
    (0, -8, 12, 0, -6, 2, 0),
    (8, -40, 78, -76, 39, -10, 1),
)


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    difference: IntPoly2  # left minus right; zero when passed

    @property
    def detail(self) -> str:
        return "0" if self.passed else str(self.difference)


def _compare(name: str, left: IntPoly2, right: IntPoly2) -> IdentityResult:
    diff = left - right
    return IdentityResult(name, diff.is_zero(), diff)


def run_identity_checks(
    overrides: dict[str, IntPoly2] | None = None,
) -> list[IdentityResult]:
    """Run all four identity checks and report each one.

    ``overrides`` replaces named inputs (first_curve, second_curve, quartic,
    shared_denominator) before checking; tests use it as a negative control
    to prove the checks can fail loudly.
    """
    overrides = overrides or {}
    f1 = overrides.get("first_curve", FIRST_CURVE_POLY)
    f2 = overrides.get("second_curve", SECOND_CURVE_POLY)
    quart = overrides.get("quartic", QUARTIC_POLY)
    shared = overrides.get("shared_denominator", SHARED_DENOMINATOR_POLY)

    return [
        _compare("shared-denominator-factors", f1 * f2, shared),
        _compare("denominator-reduction", quart * f1**2 * f2**2 * shared, quart * f1**3 * f2**3),
        _compare(
            "quartic-discriminant",
            discriminant_in_b(quart),
            -4 * (C - 1) ** 2 * (C - 2) ** 2 * C**2,
        ),
        _compare("quartic-sum-of-squares", quart, (C - 1) ** 2 * (C - 2) ** 2 * B**2 + C**2),
    ]


def _table_poly(rows: tuple) -> IntPoly2:
    """The polynomial whose coefficient of b^i c^j is rows[i][j]."""
    return IntPoly2(
        {(i, j): coeff for i, row in enumerate(rows) for j, coeff in enumerate(row)}
    )


def check_edge_discriminant_factorization(
    g_table: tuple = EDGE_DISC_G, s_table: tuple = EDGE_DISC_S
) -> IdentityResult:
    """Prove disc(edge cubic) = b^2 G^2 S / (4 f1^6 f2^6 Q^2) by expansion.

    The edge cubic x^3 + a2 x^2 + a1 x + a0 has a2 = -e10, a1 = e20 and
    a0 = -e30, taken from the cleared numerators n and denominators d of
    the coefficient formulas.  Its discriminant
    18 a2 a1 a0 - 4 a2^3 a0 + a2^2 a1^2 - 4 a1^3 - 27 a0^2, multiplied by
    M = d10^3 d20^3 d30^2, is a polynomial; the check expands
    4 f1^6 f2^6 Q^2 * (M * disc) and M * b^2 G^2 S and compares them.  G
    comes from EDGE_DISC_G and S from the table the sieve evaluates;
    tests pass altered tables as a negative control.
    """
    n2, d2 = -_E10_NUM, SHARED_DENOMINATOR_POLY
    n1, d1 = _E20_NUM, _E20_DEN
    n0, d0 = -_E30_NUM, _E30_DEN
    cleared_disc = (
        18 * n2 * n1 * n0 * d2**2 * d1**2 * d0
        - 4 * n2**3 * n0 * d1**3 * d0
        + n2**2 * n1**2 * d2 * d1 * d0**2
        - 4 * n1**3 * d2**3 * d0**2
        - 27 * n0**2 * d2**3 * d1**3
    )
    left = 4 * FIRST_CURVE_POLY**6 * SECOND_CURVE_POLY**6 * QUARTIC_POLY**2 * cleared_disc
    g = _table_poly(g_table)
    right = d2**3 * d1**3 * d0**2 * B**2 * g * g * _table_poly(s_table)
    return _compare("edge-discriminant-factorization", left, right)


def check_b0_row(
    cleared: dict = _CLEARED,
    factors: tuple = (FIRST_CURVE_POLY, SECOND_CURVE_POLY, QUARTIC_POLY),
) -> list[IdentityResult]:
    """Prove fact F5: on the row b = 0 every point but the origin has edge cubic x^2 (x - 1).

    Each polynomial is restricted to b = 0 by its coefficient of b^0.
    There f1 = -1, f2 = -c and quart = c^2, so the origin is the row's only
    singular point.  The cleared numerators and denominators of e10, e20
    and e30 become c / c, 0 / 2c^2 and 0 / c^4, with denominators nonzero
    for c != 0, so e10 = 1 and e20 = e30 = 0 as rational functions of c.
    The edge cubic x^3 - e10 x^2 + e20 x - e30 is then x^2 (x - 1): its
    discriminant is 0, a square, and it splits with the nonpositive double
    root 0, so every such point is at level 2, "edge-root-nonpositive",
    with residuals (0, 0).  Tests pass altered formulas as a negative
    control.
    """
    f1, f2, quart = factors
    (n10, d10), (n20, d20), (n30, d30) = (cleared[name] for name in ("e10", "e20", "e30"))
    restricted = (
        ("first-curve", f1, -1),
        ("second-curve", f2, -C),
        ("quartic", quart, C**2),
        ("e10-numerator", n10, C),
        ("e10-denominator", d10, C),
        ("e20-numerator", n20, 0),
        ("e20-denominator", d20, 2 * C**2),
        ("e30-numerator", n30, 0),
        ("e30-denominator", d30, C**4),
    )
    return [_compare(f"b0-{name}", poly.coeff_in_b(0), value) for name, poly, value in restricted]


def check_edge_g_has_no_rational_zero(g_table: tuple = EDGE_DISC_G) -> list[IdentityResult]:
    """Prove fact F1: G vanishes at no rational point except the origin.

    Four identities are checked, each on its own: as a quadratic in b,
    G = A b^2 + L b + K with

        A = (c-1)^2 (c-2)^2 (c^2 - 4c + 2),
        L = 2c (c-1)(c-2)(c^2 - 2),
        K = -c^2 (c^2 - 4c + 2),

    and its discriminant in b is 8 (c (c-1)(c-2)(c^2 - 2c + 2))^2.

    F1 follows.  Fix a rational c outside {0, 1, 2}.  Then A(c) != 0, since
    c^2 - 4c + 2 has the irrational roots 2 +- sqrt(2), so G is a genuine
    quadratic in b, and it has a rational zero only if its discriminant is
    a rational square.  c^2 - 2c + 2 = (c-1)^2 + 1 is positive, so the
    discriminant is 8 times a nonzero rational square, and as sqrt(2) is
    irrational it is not a square.  At c = 0, 1 and 2, G is 8b^2, 1 and 8,
    read off A, L and K, so its only zero there is b = 0 at c = 0.
    """
    g = _table_poly(g_table)
    quad = C**2 - 4 * C + 2
    return [
        _compare("edge-g-b2-coefficient", g.coeff_in_b(2), (C - 1) ** 2 * (C - 2) ** 2 * quad),
        _compare("edge-g-b1-coefficient", g.coeff_in_b(1), 2 * C * (C - 1) * (C - 2) * (C**2 - 2)),
        _compare("edge-g-b0-coefficient", g.coeff_in_b(0), -(C**2) * quad),
        _compare(
            "edge-g-discriminant",
            discriminant_in_b(g),
            8 * (C * (C - 1) * (C - 2) * (C**2 - 2 * C + 2)) ** 2,
        ),
    ]


# The 2-adic cells.  A cell is (v, kappa): the points with v2(b) = v and
# v2(c) in the class kappa, which is v2(c) clamped to -1..2: -1 holds every
# c with v2(c) < 0, and 2 holds c = 0 and every c with v2(c) >= 2.
TWO_ADIC_CELLS = frozenset((v, kappa) for v in range(-2, 3) for kappa in range(-1, 3))


def _two_adic_points(m: int, v: int, low: int, high: int) -> list[tuple[int, int]]:
    """The points of ``p1_points(m)``, m = 2^k, whose ratio's ``v2``, clamped to low..high, is v.

    ``v2`` reads an entry 0 as divisible by m, so odd unit multiples share it.
    """
    return [point for point in p1_points(m) if min(max(v2(m, point), low), high) == v]


def _homogeneous_horner(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """den^n * P(num/den) for P(x) = sum(coeffs[i] * x^i) of degree n, by Horner's rule."""
    acc = 0
    den_power = 1
    for coeff in reversed(coeffs):
        acc = acc * num + coeff * den_power
        den_power *= den
    return acc


def _never_square(m: int, b_points: list, c_points: list, s_table: tuple) -> bool:
    """Whether t = q^8 s^8 S(p/q, r/s) is a non-square modulo m at every pair of points."""
    squares = {y * y % m for y in range(m // 2 + 1)}
    columns = tuple(zip(*s_table))
    for p, q in b_points:
        row = tuple(_homogeneous_horner(column, p, q) % m for column in columns)
        if any(_homogeneous_horner(row, r, s) % m in squares for r, s in c_points):
            return False
    return True


def check_s_two_adic_cells(
    k: int, cells=TWO_ADIC_CELLS, s_table: tuple = EDGE_DISC_S
) -> frozenset:
    """The cells among ``cells`` in which t has no square residue modulo 2^k.

    t = q^8 s^8 S(p/q, r/s) is a form of degree 8 in (p, q) and in (r, s),
    so multiplying either pair by an odd unit multiplies t by an odd
    eighth power, a square; each cell is therefore enumerated over the
    representatives ``p1_points(2^k)`` of its valuations, for b and for c.
    A perfect square reduces to a square residue, so no rational point of
    a returned cell passes level 0.  Tests pass altered tables as a
    negative control.

    Modulo 2^6 the empty cells are v2(b) = 0 with every c class, (1, -1)
    and (-1, 0).  Modulo 2^10 so are (1, 2), (-1, 1), (2, -1) and (-2, 0);
    there an empty cell costs 2^16 to 2^18 evaluations, so a test names
    the cells it checks at that modulus.
    """
    if k < 3:
        raise ValueError("k must be at least 3 to tell the valuations -2..2 apart")
    m = 1 << k
    return frozenset(
        (v, kappa) for v, kappa in cells
        if _never_square(
            m, _two_adic_points(m, v, -k, k), _two_adic_points(m, kappa, -1, 2), s_table
        )
    )


def check_s_sigma_rule(s_table: tuple = EDGE_DISC_S) -> IdentityResult:
    """Prove c^8 S(-b, 2/c) = 16 S(b, c) as a rule on the coefficients of S.

    The left side's coefficient of b^i c^j is (-1)^i 2^(8-j) a[i][8-j].
    So sigma(b, c) = (-b, 2/c) multiplies S by the square (c^4/4)^2, and
    a point passes level 0 exactly when its image does.  Sigma keeps
    v2(b) and sends v2(c) to 1 - v2(c), so it maps the cell (v, kappa) onto
    (v, 1 - kappa), except that nothing maps to c = 0: the proven cells
    (2, -1) and (-2, 0) give (2, 2) without c = 0, and (-2, 1).
    """
    mirrored = tuple(
        tuple((-1) ** i * 2 ** (8 - j) * row[8 - j] for j in range(9))
        for i, row in enumerate(s_table)
    )
    return _compare("s-sigma-rule", _table_poly(mirrored), 16 * _table_poly(s_table))


def check_s_zero_column(v: int, k: int, s_table: tuple = EDGE_DISC_S) -> bool:
    """Whether t has no square residue modulo 2^k at c = 0 for every b with v2(b) = v.

    The point (0, 1) of P^1(Z/2^k) stands for c = 0 and every c with
    v2(c) >= k.  At v = 2, t = q^8 S(b, 0) = 16 q^8 b^4 (2 + 12b + 25b^2 +
    20b^3 + 4b^4) has valuation 13, which is odd, and k = 14 shows it.
    """
    m = 1 << k
    return _never_square(m, _two_adic_points(m, v, -k, k), [(0, 1)], s_table)


class ResidueClassCheck(NamedTuple):
    """The class table of t modulo m, and the evaluations that disagree with it.

    ``table[k][kappa]`` says whether t has a square residue at the
    representatives of row class k and column class kappa, indexed as in
    ``p1_points``.  A failure is (p, q, kappa): a pair that is not a unit
    multiple of its class representative, with kappa None, or one whose t
    at column class kappa is a square residue where the table says not, or
    the reverse.
    """

    table: tuple[tuple[bool, ...], ...]
    failures: tuple[tuple[int, int, int | None], ...]


def check_s_residue_classes(m: int, s_table: tuple = EDGE_DISC_S) -> ResidueClassCheck:
    """Check fact F4 modulo the prime power m: t's square residues depend only on classes.

    t = q^8 s^8 S(p/q, r/s) is a form of degree 8 in (p, q) and in (r, s).
    So t(u p, u q, w r, w s) = u^8 w^8 t for units u, w mod m, and u^8 w^8
    is a unit square, which maps square residues to square residues and
    the others to the others.  Whether t has a square residue therefore
    depends only on the classes of (p : q) and (r : s) in P^1(Z/m), and
    the table at the class representatives decides it.

    The check is by machine, on the sieve's own code: the table is
    ``square_classes``' and each pair's class is ``p1_classes``'.  Every
    pair (p, q) mod m that l does not divide twice must be u times its
    class representative, u = q when l does not divide q and u = p
    otherwise, a unit either way; and t evaluated at it and every column
    representative must agree with the table at its class.  By the degree
    in (r, s), that covers every (p, q, r, s).  The degrees are read off
    the table's shape, so a table of another degree is checked as such;
    tests pass one as a negative control.
    """
    ell = prime_of(m)
    points = p1_points(m)
    table = tuple(square_classes(m, range(len(points)), s_table).values())
    squares = {y * y % m for y in range(m)}
    columns = tuple(zip(*s_table))
    pairs = [(p, q) for p in range(m) for q in range(m) if p % ell or q % ell]
    failures = []
    for (p, q), k in zip(pairs, p1_classes(m, pairs)):
        unit = q if q % ell else p
        x, y = points[k]
        if (unit * x - p) % m or (unit * y - q) % m:
            failures.append((p, q, None))
            continue
        row = tuple(_homogeneous_horner(column, p, q) % m for column in columns)
        failures += [
            (p, q, kappa)
            for kappa, (r, s) in enumerate(points)
            if (_homogeneous_horner(row, r, s) % m in squares) != table[k][kappa]
        ]
    return ResidueClassCheck(table, tuple(failures))
