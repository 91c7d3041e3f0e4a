"""``root_numerators`` decides splitting alone: its two exits, and no discriminant on the path.

``rational_roots`` runs no discriminant test before the root search, so
``_largest_integer_root`` must return None, and raise nothing, on any
integer cubic that does not split: one real root (D < 0, or a complex
pair past the larger critical point), or a cubic positive at the least
integer at or above its larger critical point.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

from conftest import discriminant, is_rational_square
from cuboidsearch import cubic
from cuboidsearch.cubic import (
    CubicPoly,
    integer_discriminant,
    is_perfect_square,
    rational_roots,
    root_numerators,
)
from cuboidsearch.verifier import grade

F = Fraction


def gated(a3, a2, a1, a0):
    """``root_numerators`` behind the square-discriminant test ``rational_roots`` used to run."""
    if is_perfect_square(integer_discriminant(a3, a2, a1, a0)) is None:
        return None
    return root_numerators(a3, a2, a1, a0)


def exit_taken(a3, a2, a1, a0):
    """How ``root_numerators`` leaves: "a0 = 0", "D < 0", "g(lo) > 0" or "loop"."""
    if not a0:
        return "a0 = 0"
    b1, b0 = a1 * a3, a0 * a3 * a3
    d = a2 * a2 - 3 * b1
    if d < 0:
        return "D < 0"
    s = math.isqrt(d)
    s += s * s < d
    lo = -((a2 - s) // 3)
    return "g(lo) > 0" if ((lo + a2) * lo + b1) * lo + b0 > 0 else "loop"


def test_root_numerators_alone_is_the_gated_call_on_a_full_box():
    exits = dict.fromkeys(["a0 = 0", "D < 0", "g(lo) > 0", "loop"], 0)
    split = 0
    for a3 in range(1, 5):
        for a2 in range(-9, 10):
            for a1 in range(-9, 10):
                for a0 in range(-9, 10):
                    ys = root_numerators(a3, a2, a1, a0)
                    assert ys == gated(a3, a2, a1, a0), (a3, a2, a1, a0)
                    exits[exit_taken(a3, a2, a1, a0)] += 1
                    split += ys is not None
    assert sum(exits.values()) == 4 * 19**3 == 27436
    assert all(exits.values()) and split, (exits, split)


def one_real_root(big, a, e):
    """(y - big)((y - a)^2 + e^2), e > 0, as the integer cubic (1, a2, a1, a0)."""
    norm = a * a + e * e
    return 1, -(big + 2 * a), 2 * a * big + norm, -big * norm


def test_root_numerators_none_on_one_real_root():
    # D = (big - a)^2 - 3e^2, so both signs of D occur, and a complex pair on
    # either side of the real root; big = 0 is the a0 = 0 branch
    cubics = [
        one_real_root(big, a, e)
        for big in range(-6, 7) for a in range(-6, 7) for e in range(1, 7)
    ]
    rng = random.Random(20)
    for _ in range(3000):
        big, a = (rng.choice([-1, 1]) * rng.randint(0, 10 ** rng.randint(0, 20)) for _ in range(2))
        cubics.append(one_real_root(big, a, rng.randint(1, 10 ** rng.randint(0, 20))))
    exits = dict.fromkeys(["a0 = 0", "D < 0", "g(lo) > 0", "loop"], 0)
    for integer_cubic in cubics:
        assert root_numerators(*integer_cubic) is None, integer_cubic
        assert rational_roots(CubicPoly(*map(F, integer_cubic[1:]))) is None
        exits[exit_taken(*integer_cubic)] += 1
    assert all(exits.values()), exits


def test_root_numerators_none_where_positive_at_an_integer_critical_point():
    # g'(c) = 0 at an integer c = lo, so a Newton step there would divide
    # by zero: g(c) > 0 must be refused before the loop
    checked = 0
    for a3 in range(1, 5):
        for a2 in range(-20, 21):
            for a1 in range(-20, 21):
                b1 = a1 * a3
                s = is_perfect_square(a2 * a2 - 3 * b1)
                if s is None or (s - a2) % 3:
                    continue
                c = (s - a2) // 3
                for a0 in range(-20, 21):
                    if ((c + a2) * c + b1) * c + a0 * a3 * a3 > 0:
                        assert root_numerators(a3, a2, a1, a0) is None, (a3, a2, a1, a0)
                        checked += 1
    assert checked == 5159


def forbid_discriminant(monkeypatch):
    """Make ``integer_discriminant`` raise wherever the package has bound it."""
    original = cubic.integer_discriminant

    def forbidden(*args):
        raise AssertionError(f"integer_discriminant called: {args}")

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "integer_discriminant", None)
        if name.split(".")[0] == "cuboidsearch" and bound is original:
            monkeypatch.setattr(module, "integer_discriminant", forbidden)


def test_rational_roots_computes_no_discriminant(monkeypatch):
    rng = random.Random(31)

    def rational(height):
        return F(rng.randint(-height, height), rng.randint(1, height))

    built = []
    for height in (3, 1000, 10**12):
        for _ in range(200):
            roots = tuple(sorted(rational(height) for _ in range(3)))
            r1, r2, r3 = roots
            q = CubicPoly(-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3)
            built.append((q, roots))
    randoms = [CubicPoly(*(rational(h) for _ in range(3))) for h in (3, 1000) for _ in range(300)]
    # what the old path, a square-discriminant test first, gave on the random cubics
    expected = [
        None if is_rational_square(discriminant(q)) is None else rational_roots(q) for q in randoms
    ]
    assert any(expected) and not all(expected)
    forbid_discriminant(monkeypatch)
    for q, roots in built:
        assert rational_roots(q) == roots
    assert [rational_roots(q) for q in randoms] == expected


def test_forbidden_discriminant_is_live(monkeypatch):
    # grade keeps its own discriminant test, so under the same patch it
    # reaches the forbidden function at a level-1 point
    assert grade(F(-3, 2), F(7, 8)).level == 1
    forbid_discriminant(monkeypatch)
    with pytest.raises(AssertionError, match="integer_discriminant called"):
        grade(F(-3, 2), F(7, 8))
