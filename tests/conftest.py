import itertools
import random
from fractions import Fraction


def random_fraction(rng: random.Random, height: int) -> Fraction:
    """A random rational with numerator and denominator bounded by height."""
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_nonsingular(rng: random.Random, height: int = 60):
    """A random point avoiding all denominator zeros, both e21 forms included."""
    from cuboidsearch.identities import _E21_QUART_PRINTED
    from cuboidsearch.singularity import classify

    while True:
        b = random_fraction(rng, height)
        c = random_fraction(rng, height)
        if not classify(b, c) and _E21_QUART_PRINTED.eval(b, c) != 0:
            return b, c


# Oracles that only the tests use.


def enumerate_points(space):
    """All in-range points (b, c) of a search space, in cursor order.

    Built from ``fraction_values`` and the space's ranges, apart from the
    search's own axes.
    """
    from cuboidsearch.search import fraction_values

    def axis(lo, hi):
        return [
            v for v in fraction_values(space.height)
            if (lo is None or lo <= v) and (hi is None or v <= hi)
        ]

    return itertools.product(axis(space.b_min, space.b_max), axis(space.c_min, space.c_max))


def is_rational_square(r: Fraction):
    """Nonnegative rational square root of r if one exists, else None.

    A reduced fraction is a rational square exactly when numerator and
    denominator are both perfect integer squares.
    """
    from cuboidsearch.cubic import is_perfect_square

    if r < 0:
        return None
    num_root = is_perfect_square(r.numerator)
    den_root = is_perfect_square(r.denominator)
    if num_root is None or den_root is None:
        return None
    return Fraction(num_root, den_root)


def discriminant(q) -> Fraction:
    """Discriminant of the monic cubic ``CubicPoly`` q; equals prod (r_i - r_j)^2 over roots."""
    c2, c1, c0 = q
    return (
        18 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2 * c2 * c1 * c1
        - 4 * c1**3
        - 27 * c0 * c0
    )


class PoleError(ZeroDivisionError):
    """A curve parametrization was evaluated at the pole of its chart."""


def first_curve_b(c: Fraction) -> Fraction:
    """The unique b putting (b, c) on the first singular curve: b = 1/(c-1)."""
    if c == 1:
        raise PoleError("the first curve has no point over c = 1")
    return 1 / (c - 1)


def second_curve_b(c: Fraction) -> Fraction:
    """The unique b putting (b, c) on the second singular curve: b = c/(c-2)."""
    if c == 2:
        raise PoleError("the second curve has no point over c = 2")
    return c / (c - 2)
