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
