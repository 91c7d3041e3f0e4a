"""Graded verification of candidate parameter points.

A candidate point is pushed through a pipeline of increasingly demanding
exact checks, and the verdict records how deep it got:

  level 0  singular point, or the edge cubic's discriminant is not a
           rational square
  level 1  edge-cubic discriminant is a rational square
  level 2  edge cubic splits completely over the rationals
  level 3  all edge roots are positive
  level 4  diagonal cubic splits with all roots positive
  level 5  some pairing of the diagonal roots satisfies all three
           auxiliary equations
  level 6  the pairing also passes the defining Pythagorean relations
           with unit space diagonal: a perfect cuboid

All residuals are exact rationals; a check passes only on residual zero,
never within a tolerance.

The stages of ``grade`` run in this order, and each computes only what its
level needs:

  1. classify the point against the singular factors;
  2. build the edge cubic as a primitive integer cubic and compute its
     discriminant once; a discriminant that is not a perfect square puts
     the point at level 0, with the discriminant as residual;
  3. from here on ``grade_square``, which assumes a nonsingular point with
     a square edge discriminant.  ``edge_split`` splits the edge cubic
     with the core ``cubic.root_numerators``: a cubic that does not split
     is at level 1, again with the discriminant as residual, and one with
     a root <= 0 at level 2, with those roots as residuals.  It works in
     integers and gives each residual as a numerator/denominator pair;
  4. compute e01, e02, e03 and split the diagonal cubic;
  5. compute e21, e11, e12 and check the auxiliary equations, then the
     Pythagorean relations.

The search applies stage 2 only at the points its residue sieve keeps:
the 2-adic cells and the odd moduli of fact F4 (see the search module)
prove every other point to be at level 0.  It drops the singular columns
by index, takes stage 2's edge cubic and discriminant on to ``edge_split``,
and builds no Fraction or Verdict; only a survivor past level 2 goes on
through ``grade_square``.  Where the edge cubic's a0 is 0 (e30 = 0) it
calls neither: the discriminant is a1^2 (a2^2 - 4 a3 a1), so stage 2's
test is that a2^2 - 4 a3 a1 is a square (as it is when a1 = 0), and the
roots are 0 and (-a2 -+ r) / (2 a3), r its isqrt.  With the root 0 the
point is at level 2, "edge-root-nonpositive", and its residuals are the
nonpositive roots, ascending: what ``root_numerators``' a0 = 0 branch
and ``edge_split`` return.  On the row b = 0 it takes a further shortcut,
fact F5: it writes one fixed level-2 verdict at every point but the
origin, grading none.  ``grade`` never takes that shortcut or consults
the sieve's masks, so grading every point checks both against the
definition.

Root extraction returns unordered multisets, while the auxiliary equations
are written with fixed indices.  Their three left-hand sides are invariant
under permuting edges and diagonals simultaneously, so holding the edges in
sorted order and trying all six diagonal permutations covers every joint
assignment.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .coefficients import (
    AuxiliaryCoefficients,
    E21_PRINTED,
    E21DenominatorPole,
    auxiliary_coefficients,
    check_e21_form,
    diagonal_coefficients,
    diagonal_cubic,
    edge_integer_cubic,
)
from .cubic import integer_discriminant, is_perfect_square, rational_roots, root_numerators
from .singularity import SingularityClass, classify

# All permutations of the three diagonal slots, in lexicographic order.
PERMUTATIONS = tuple(itertools.permutations((0, 1, 2)))

LEVEL_PERFECT = 6

# The edge cubic's discriminant factors as
#
#     disc = b^2 * G^2 * S / (4 * f1^6 * f2^6 * Q^2)
#
# with f1, f2 and Q the singular factors.  Row i, column j holds the
# coefficient of b^i c^j in S; identities holds G and proves the identity.
EDGE_DISC_S = (
    (0, 0, 0, 0, 4, 0, 0, 0, 0),
    (0, 0, 0, 40, 0, -20, 0, 0, 0),
    (0, 0, 132, 64, -236, 32, 33, 0, 0),
    (0, 160, 432, -904, 0, 452, -108, -20, 0),
    (32, 784, -888, -1448, 2368, -724, -222, 98, 2),
    (192, 960, -3904, 3816, 0, -1908, 976, -120, -12),
    (400, -560, -1948, 5784, -6036, 2892, -487, -70, 25),
    (320, -1440, 2480, -1800, 0, 900, -620, 180, -20),
    (64, -384, 992, -1440, 1284, -720, 248, -48, 4),
)


class Verdict(NamedTuple):
    """Outcome of grading one candidate point.

    For verdicts deep enough to have them, the fully assembled candidate
    data rides along: the edge and diagonal root triples and the accepted
    diagonal pairing.  ``grade`` returns one for every point, and a
    NamedTuple is the cheapest immutable record with this repr and
    equality.
    """

    level: int
    reason: str
    flags: SingularityClass = frozenset()
    residuals: tuple[Fraction, ...] = ()
    edges: tuple | None = None
    diagonals: tuple | None = None
    pairing: tuple | None = None


def _permuted(d: tuple, perm: tuple) -> tuple:
    return (d[perm[0]], d[perm[1]], d[perm[2]])


def auxiliary_residuals(
    x: tuple, d: tuple, perm: tuple, cs: AuxiliaryCoefficients
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (left side - right side) of the three auxiliary equations.

    The diagonals are rearranged by ``perm`` before substitution; the edges
    stay in the given order.
    """
    dp = _permuted(d, perm)
    r1 = x[0] * x[1] * dp[2] + x[1] * x[2] * dp[0] + x[2] * x[0] * dp[1] - cs.e21
    r2 = (
        x[0] * dp[1] + dp[0] * x[1] + x[1] * dp[2]
        + dp[1] * x[2] + x[2] * dp[0] + dp[2] * x[0]
    ) - cs.e11
    r3 = x[0] * dp[1] * dp[2] + x[1] * dp[2] * dp[0] + x[2] * dp[0] * dp[1] - cs.e12
    return (r1, r2, r3)


def check_pairings(x: tuple, d: tuple, cs: AuxiliaryCoefficients) -> tuple | None:
    """First permutation (lexicographic) zeroing all three auxiliary residuals."""
    for perm in PERMUTATIONS:
        if all(r == 0 for r in auxiliary_residuals(x, d, perm, cs)):
            return perm
    return None


# Face i is spanned by the two edges other than i.
_FACE_EDGES = ((1, 2), (0, 2), (0, 1))


def pythagorean_check(
    x: tuple, d: tuple, perm: tuple
) -> tuple[bool, tuple[Fraction, Fraction, Fraction], Fraction]:
    """Definitional cuboid check for a paired candidate.

    After applying ``perm`` to the diagonals, each diagonal must span the
    face of the two complementary edges and the squared edges must sum to 1
    (unit space diagonal).  Nothing fixes which cyclic labelling of the
    diagonals matches the faces, so all three are tried and any is accepted.

    Returns (ok, face residuals, space residual); residuals are reported
    for the accepted labelling, or for the unshifted one when all fail.
    """
    dp = _permuted(d, perm)
    space = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] - 1
    reported = None
    for shift in (0, 1, 2):
        faces = tuple(
            dp[(i + shift) % 3] ** 2 - (x[j] ** 2 + x[k] ** 2)
            for i, (j, k) in enumerate(_FACE_EDGES)
        )
        if reported is None:
            reported = faces
        if all(r == 0 for r in faces):
            return (space == 0, faces, space)
    return (False, reported, space)


def grade(b: Fraction, c: Fraction, e21_form: str = E21_PRINTED) -> Verdict:
    """Run the whole pipeline on one point and report the deepest level reached.

    The stages run in the order the module docstring gives; past level 0
    they are ``grade_square``'s.
    """
    check_e21_form(e21_form)
    flags = classify(b, c)
    if flags:
        return Verdict(0, "singular", flags=flags)
    edge = edge_integer_cubic(*b.as_integer_ratio(), *c.as_integer_ratio())
    disc = integer_discriminant(*edge)
    if is_perfect_square(disc) is None:
        return Verdict(0, "disc-nonsquare", residuals=(Fraction(disc, edge[0] ** 4),))
    return grade_square(b, c, e21_form, edge, disc)


def edge_split(
    b: Fraction,
    c: Fraction,
    edge: tuple[int, int, int, int] | None = None,
    disc: int | None = None,
) -> tuple:
    """Levels 1 and 2 in integers, at a nonsingular point with a square edge discriminant.

    Splits ``edge``, the point's ``edge_integer_cubic`` (built here when the
    caller has not), with ``root_numerators``, and computes its
    ``integer_discriminant``, unless given as ``disc``, only when it does
    not split.  Returns (level, reason, residuals, ys, den), each residual
    an exact (numerator, denominator) pair with a positive denominator, not
    reduced:

      * (1, "edge-no-split", the edge cubic's discriminant disc / a3^4,
        None, None);
      * (2, "edge-root-nonpositive", the roots y / den <= 0, the sorted root
        numerators ys, den = 2 a3);
      * (3, None, (), ys, den) when every root is positive: the point is
        past level 2, and ``grade_square`` goes on from the roots ys / den.
    """
    if edge is None:
        edge = edge_integer_cubic(*b.as_integer_ratio(), *c.as_integer_ratio())
    ys = root_numerators(*edge)
    if ys is None:
        if disc is None:
            disc = integer_discriminant(*edge)
        # the edge cubic's own discriminant is disc / a3^4, a3^4 a square
        return (1, "edge-no-split", ((disc, edge[0] ** 4),), None, None)
    den = 2 * edge[0]
    if ys[0] <= 0:
        return (2, "edge-root-nonpositive", tuple((y, den) for y in ys if y <= 0), ys, den)
    return (3, None, (), ys, den)


def grade_square(
    b: Fraction,
    c: Fraction,
    e21_form: str = E21_PRINTED,
    edge: tuple[int, int, int, int] | None = None,
    disc: int | None = None,
) -> Verdict:
    """``grade`` from the edge split on, at a nonsingular point with a square edge discriminant.

    ``edge`` and ``disc`` are the point's ``edge_integer_cubic`` and its
    ``integer_discriminant`` when the caller has them; ``edge_split``
    decides levels 1 and 2 from them.  The e21 form, the singularity and
    the square test are not checked, so the caller must know them:

      * ``grade`` has just checked all three;
      * the search validates the form in ``SearchSpace``, drops the
        singular columns by index (a table of ``singular_columns``),
        and runs ``grade``'s own square test on ``edge_integer_cubic`` at
        the points its residue sieve keeps, calling this only past level 2.
        The sieve drops only points at which t = q^8 s^8 S is not a
        square, and off the row b = 0 a nonsingular point has b, f1,
        f2, Q and, by fact F1, G nonzero, so the factorization b^2 G^2 S / (4 f1^6 f2^6 Q^2)
        of the edge cubic's discriminant makes each of them a point at
        which ``grade`` fails its square test.

    Under the printed e21 form, a point where that form's extra denominator
    factor vanishes cannot be checked against the auxiliary equations, so
    it caps at level 4 with reason "e21-printed-pole".
    """
    level, reason, residuals, ys, den = edge_split(b, c, edge, disc)
    edges = None if ys is None else tuple(Fraction(y, den) for y in ys)
    if reason is not None:
        residuals = tuple(Fraction(n, d) for n, d in residuals)
        return Verdict(level, reason, residuals=residuals, edges=edges)

    diagonals = rational_roots(diagonal_cubic(diagonal_coefficients(b, c)))
    if diagonals is None:
        return Verdict(3, "diag-no-split", edges=edges)
    if diagonals[0] <= 0:
        bad = tuple(r for r in diagonals if r <= 0)
        return Verdict(
            3, "diag-root-nonpositive", residuals=bad, edges=edges, diagonals=diagonals
        )

    try:
        aux = auxiliary_coefficients(b, c, e21_form)
    except E21DenominatorPole:
        return Verdict(4, "e21-printed-pole", edges=edges, diagonals=diagonals)

    pairing = check_pairings(edges, diagonals, aux)
    if pairing is None:
        first = auxiliary_residuals(edges, diagonals, PERMUTATIONS[0], aux)
        return Verdict(
            4, "aux-unsatisfied", residuals=first, edges=edges, diagonals=diagonals
        )

    ok, faces, space = pythagorean_check(edges, diagonals, pairing)
    if not ok:
        return Verdict(
            5,
            "pythagoras-failed",
            residuals=faces + (space,),
            edges=edges,
            diagonals=diagonals,
            pairing=pairing,
        )
    return Verdict(
        6, "perfect-cuboid", edges=edges, diagonals=diagonals, pairing=pairing
    )
