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
  3. split the edge cubic with the integer core ``cubic.root_numerators``:
     a cubic that does not split is at level 1, again with the
     discriminant as residual, and one with a root <= 0 at level 2, with
     those roots as residuals;
  4. compute e01, e02, e03 and split the diagonal cubic;
  5. compute e21, e11, e12 and check the auxiliary equations, then the
     Pythagorean relations.

The search applies stage 2's test only at the points that the sieve
module's residue sieve keeps: the 2-adic cells of fact F3 and the odd
moduli of fact F4 prove every other point to be at level 0.  It drops the
singular columns by index and writes two kinds of survivor in closed form
(see the search module): the row b = 0, by fact F5, and the points on
e30 = 0, where the edge cubic's a0 is 0 and one isqrt decides the test
and the roots.  Every other survivor is handed to ``grade``, which
classifies it and builds its cubic again; up to H=400 there are at most
24 such points, all at level 1.  ``grade`` never takes the shortcuts or
consults the sieve's masks, so grading every point checks them against
the definition.

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

    The stages run in the order the module docstring gives.  Under the
    printed e21 form, a point where that form's extra denominator factor
    vanishes cannot be checked against the auxiliary equations, so it caps
    at level 4 with reason "e21-printed-pole".
    """
    check_e21_form(e21_form)
    flags = classify(b, c)
    if flags:
        return Verdict(0, "singular", flags=flags)
    edge = edge_integer_cubic(*b.as_integer_ratio(), *c.as_integer_ratio())
    disc = integer_discriminant(*edge)
    if is_perfect_square(disc) is None:
        return Verdict(0, "disc-nonsquare", residuals=(Fraction(disc, edge[0] ** 4),))
    ys = root_numerators(*edge)
    if ys is None:
        # the edge cubic's own discriminant is disc / a3^4, a3^4 a square
        return Verdict(1, "edge-no-split", residuals=(Fraction(disc, edge[0] ** 4),))
    edges = tuple(Fraction(y, 2 * edge[0]) for y in ys)
    if edges[0] <= 0:
        bad = tuple(x for x in edges if x <= 0)
        return Verdict(2, "edge-root-nonpositive", residuals=bad, edges=edges)

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
