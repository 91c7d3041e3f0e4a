import random
from fractions import Fraction

import pytest

from conftest import discriminant, enumerate_points, is_rational_square
from cuboidsearch.coefficients import (
    E21_COMMON,
    E21_PRINTED,
    CoefficientSet,
    E21DenominatorPole,
    diagonal_cubic,
    edge_coefficients,
    edge_cubic,
    edge_integer_cubic,
    eval_coefficients,
)
from cuboidsearch.cubic import integer_discriminant, is_perfect_square, rational_roots
from cuboidsearch.identities import eval_coefficients_cleared
from cuboidsearch.search import SearchSpace, fraction_values
from cuboidsearch import verifier
from cuboidsearch.singularity import SingularFlag, classify
from cuboidsearch.verifier import (
    PERMUTATIONS,
    Verdict,
    auxiliary_residuals,
    check_pairings,
    grade,
    pythagorean_check,
)

F = Fraction


def make_cs(e21=F(0), e11=F(0), e12=F(0)):
    return CoefficientSet(
        e10=F(0), e20=F(0), e30=F(0), e01=F(0), e02=F(0), e03=F(0),
        e21=e21, e11=e11, e12=e12,
    )


IDENTITY = (0, 1, 2)


def test_residuals_all_ones_matching():
    cs = make_cs(F(3), F(6), F(3))
    ones = (F(1), F(1), F(1))
    assert auxiliary_residuals(ones, ones, IDENTITY, cs) == (0, 0, 0)


def test_residuals_all_ones_zero_targets():
    cs = make_cs()
    ones = (F(1), F(1), F(1))
    assert auxiliary_residuals(ones, ones, IDENTITY, cs) == (3, 6, 3)


def test_residuals_mixed_roots():
    # direct evaluation of the three auxiliary left sides at x=(1,2,3), d=(1,1,1):
    # first 1*2 + 2*3 + 3*1 = 11, second 2*(1+2+3) = 12, third 1+2+3 = 6
    cs = make_cs()
    x = (F(1), F(2), F(3))
    d = (F(1), F(1), F(1))
    assert auxiliary_residuals(x, d, IDENTITY, cs) == (11, 12, 6)


def test_residuals_invariant_under_simultaneous_permutation():
    rng = random.Random(3)
    cs = make_cs(F(1), F(2), F(3))
    for _ in range(50):
        x = tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        d = tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        base = auxiliary_residuals(x, d, IDENTITY, cs)
        for perm in PERMUTATIONS:
            xp = tuple(x[perm[i]] for i in range(3))
            dp = tuple(d[perm[i]] for i in range(3))
            assert auxiliary_residuals(xp, dp, IDENTITY, cs) == base


def test_check_pairings_symmetric_case():
    cs = make_cs(F(3), F(6), F(3))
    ones = (F(1), F(1), F(1))
    assert check_pairings(ones, ones, cs) == IDENTITY


def test_check_pairings_positive_roots_zero_targets_absent():
    cs = make_cs()
    assert check_pairings((F(1), F(2), F(3)), (F(1), F(1), F(2)), cs) is None


def test_check_pairings_recovers_scramble():
    # build targets from a known diagonal arrangement, then scramble the
    # diagonals; the found pairing must restore zero residuals
    rng = random.Random(4)
    for _ in range(30):
        x = tuple(sorted(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3)))
        d_arranged = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3))
        cs = make_cs(
            e21=x[0] * x[1] * d_arranged[2] + x[1] * x[2] * d_arranged[0] + x[2] * x[0] * d_arranged[1],
            e11=x[0] * d_arranged[1] + d_arranged[0] * x[1] + x[1] * d_arranged[2]
            + d_arranged[1] * x[2] + x[2] * d_arranged[0] + d_arranged[2] * x[0],
            e12=x[0] * d_arranged[1] * d_arranged[2] + x[1] * d_arranged[2] * d_arranged[0]
            + x[2] * d_arranged[0] * d_arranged[1],
        )
        scramble = PERMUTATIONS[rng.randrange(6)]
        d_given = tuple(d_arranged[scramble[i]] for i in range(3))
        found = check_pairings(x, d_given, cs)
        assert found is not None
        assert auxiliary_residuals(x, d_given, found, cs) == (0, 0, 0)


def test_positive_roots_give_positive_left_sides():
    rng = random.Random(6)
    cs = make_cs()
    for _ in range(100):
        x = tuple(F(rng.randint(1, 50), rng.randint(1, 20)) for _ in range(3))
        d = tuple(F(rng.randint(1, 50), rng.randint(1, 20)) for _ in range(3))
        residuals = auxiliary_residuals(x, d, IDENTITY, cs)
        assert all(r > 0 for r in residuals)


def test_pythagorean_near_miss_integers():
    # classic triple with all three faces Pythagorean but space diagonal != 1
    x = (F(44), F(117), F(240))
    d = (F(267), F(244), F(125))
    ok, faces, space = pythagorean_check(x, d, IDENTITY)
    assert not ok
    assert faces == (0, 0, 0)
    assert space == 44**2 + 117**2 + 240**2 - 1 == 73224


def test_pythagorean_degenerate_true():
    ok, faces, space = pythagorean_check((F(1), F(0), F(0)), (F(0), F(1), F(1)), IDENTITY)
    assert ok
    assert faces == (0, 0, 0)
    assert space == 0


def test_pythagorean_all_ones_false():
    ok, faces, space = pythagorean_check((F(1), F(1), F(1)), (F(1), F(1), F(1)), IDENTITY)
    assert not ok
    assert space == 2


def test_pythagorean_accepts_cyclic_relabelling():
    x = (F(44), F(117), F(240))
    d_shifted = (F(125), F(267), F(244))  # faces match after one cyclic shift
    ok, faces, space = pythagorean_check(x, d_shifted, IDENTITY)
    assert not ok  # space diagonal still wrong
    assert faces == (0, 0, 0)


def test_grade_singular_point():
    verdict = grade(F(1, 2), F(3))
    assert verdict == Verdict(0, "singular", flags=frozenset({SingularFlag.FIRST_CURVE}))


def test_grade_rejects_unknown_e21_form_at_every_point():
    # the form is checked before classification, so singular points raise too
    for b, c in [(F(0), F(0)), (F(1, 2), F(3)), (F(1), F(1))]:
        with pytest.raises(ValueError):
            grade(b, c, "bogus")


def test_grade_disc_nonsquare():
    verdict = grade(F(1), F(1))
    assert verdict.level == 0
    assert verdict.reason == "disc-nonsquare"
    assert verdict.residuals == (F(63, 256),)


def test_grade_square_disc_without_splitting():
    # found by the height-8 search: discriminant is a square, cubic irreducible
    verdict = grade(F(-3, 2), F(7, 8))
    assert verdict.level == 1
    assert verdict.reason == "edge-no-split"


def test_edge_split_matches_the_fraction_path_height_8():
    # exhaustive: at every nonsingular point of the H=8 grid with a square
    # edge discriminant, grade's integer edge split against the edge cubic
    # built from the Fraction coefficients and split by rational_roots,
    # with that cubic's own discriminant as the level-1 residual and its
    # roots <= 0 as the level-2 ones
    levels = {1: 0, 2: 0}
    for b, c in enumerate_points(SearchSpace(height=8)):
        if classify(b, c):
            continue
        cubic = edge_cubic(edge_coefficients(b, c))
        disc = discriminant(cubic)
        if is_rational_square(disc) is None:
            continue
        verdict = grade(b, c)
        roots = rational_roots(cubic)
        if roots is None:
            expected = (1, "edge-no-split", (disc,), None)
        else:
            expected = (2, "edge-root-nonpositive", tuple(r for r in roots if r <= 0), roots)
        assert (verdict.level, verdict.reason, verdict.residuals, verdict.edges) == expected, (
            b, c,
        )
        levels[verdict.level] += 1
    assert levels == {1: 1, 2: 113}  # the H=8 search's records


def test_edge_split_past_level_two(monkeypatch):
    # (3x - 1)(2x - 1)(3x - 2) has the positive roots 1/3, 1/2, 2/3: as the
    # edge cubic of the nonsingular point (1, 1) it takes grade past level
    # 2, with those roots as the edges, to the point's diagonal cubic
    monkeypatch.setattr(verifier, "edge_integer_cubic", lambda p, q, r, s: (18, -27, 13, -2))
    verdict = grade(F(1), F(1))
    assert (verdict.level, verdict.reason) == (3, "diag-no-split")
    assert verdict.edges == (F(1, 3), F(1, 2), F(2, 3))


def test_grade_edge_root_nonpositive():
    verdict = grade(F(0), F(-1))
    assert verdict.level == 2
    assert verdict.reason == "edge-root-nonpositive"
    assert verdict.edges == (F(0), F(0), F(1))


def test_grade_levels_monotone_structure():
    # any verdict with level >= 2 has edges recorded; >= 4 has diagonals
    for b, c in enumerate_points(SearchSpace(height=4)):
        verdict = grade(b, c)
        if verdict.level >= 2:
            assert verdict.edges is not None
        if verdict.level >= 4:
            assert verdict.diagonals is not None


def test_grade_at_printed_pole_points_never_raises():
    for b, c in [(F(0), F(1, 4)), (F(2, 3), F(1, 2)), (F(-2, 3), F(1, 2))]:
        printed = grade(b, c, "printed")
        common = grade(b, c, "common")
        # below the auxiliary stage the forms cannot disagree
        if printed.level < 4:
            assert (printed.level, printed.reason) == (common.level, common.reason)


def test_grade_caps_at_level_four_on_printed_pole(monkeypatch):
    # force both cubics to split with positive roots at a printed-pole point
    # to exercise the cap; the real grid reaches this state rarely if ever
    import cuboidsearch.verifier as verifier

    # (3x - 1)(2x - 1)(3x - 2): the edge stage solves it to 1/3, 1/2, 2/3
    monkeypatch.setattr(verifier, "edge_integer_cubic", lambda p, q, r, s: (18, -27, 13, -2))
    monkeypatch.setattr(
        verifier, "rational_roots", lambda q: (F(1, 3), F(1, 2), F(2, 3))
    )
    verdict = verifier.grade(F(2, 3), F(1, 2), "printed")
    assert verdict.level == 4
    assert verdict.reason == "e21-printed-pole"
    # under the common form the same point proceeds to the auxiliary stage
    common = verifier.grade(F(2, 3), F(1, 2), "common")
    assert common.level == 4
    assert common.reason == "aux-unsatisfied"


def test_grade_uses_verifier_pipeline_consistently():
    cs = eval_coefficients(F(1), F(1))
    assert cs.e10 == F(1, 2)  # grading above relied on these exact values


def test_prefilter_matches_cleared_discriminant_height_6():
    # exhaustive: the search's level-0 test, a perfect-square test on the
    # integer discriminant of edge_integer_cubic, against the discriminant
    # of the edge cubic built from the cleared transcription, and grade's
    # residual at every rejected point against that discriminant (the
    # common e21 form never raises, and the edge cubic ignores e21).  The
    # test runs at every point of the H=6 grid, unsieved: at the
    # nonsingular points it must pass exactly those with a square
    # discriminant.  The search drops the singular points by index
    # (test_search covers their count)
    values = fraction_values(6)
    checked = rejected = 0
    for b in values:
        for c in values:
            if classify(b, c):
                continue
            disc = discriminant(edge_cubic(eval_coefficients_cleared(b, c, E21_COMMON)))
            edge = edge_integer_cubic(*b.as_integer_ratio(), *c.as_integer_ratio())
            passed = is_perfect_square(integer_discriminant(*edge)) is not None
            assert passed == (is_rational_square(disc) is not None), (b, c)
            if not passed:
                assert grade(b, c) == Verdict(0, "disc-nonsquare", residuals=(disc,)), (b, c)
            checked += 1
            rejected += not passed
    assert checked == 2148
    assert rejected == 2089


def reference_grade(b, c, e21_form):
    """Grading with all nine cleared-path coefficients computed up front."""
    flags = classify(b, c)
    if flags:
        return Verdict(0, "singular", flags=flags)
    aux_defined = True
    try:
        cs = eval_coefficients_cleared(b, c, e21_form)
    except E21DenominatorPole:
        cs = eval_coefficients_cleared(b, c, E21_COMMON)
        aux_defined = False
    edge = edge_cubic(cs)
    disc = discriminant(edge)
    if is_rational_square(disc) is None:
        return Verdict(0, "disc-nonsquare", residuals=(disc,))
    edges = rational_roots(edge)
    if edges is None:
        return Verdict(1, "edge-no-split", residuals=(disc,))
    if edges[0] <= 0:
        bad = tuple(r for r in edges if r <= 0)
        return Verdict(2, "edge-root-nonpositive", residuals=bad, edges=edges)
    diagonals = rational_roots(diagonal_cubic(cs))
    if diagonals is None:
        return Verdict(3, "diag-no-split", edges=edges)
    if diagonals[0] <= 0:
        bad = tuple(r for r in diagonals if r <= 0)
        return Verdict(3, "diag-root-nonpositive", residuals=bad, edges=edges, diagonals=diagonals)
    if not aux_defined:
        return Verdict(4, "e21-printed-pole", edges=edges, diagonals=diagonals)
    pairing = check_pairings(edges, diagonals, cs)
    if pairing is None:
        first = auxiliary_residuals(edges, diagonals, PERMUTATIONS[0], cs)
        return Verdict(4, "aux-unsatisfied", residuals=first, edges=edges, diagonals=diagonals)
    ok, faces, space = pythagorean_check(edges, diagonals, pairing)
    if not ok:
        return Verdict(
            5, "pythagoras-failed", residuals=faces + (space,),
            edges=edges, diagonals=diagonals, pairing=pairing,
        )
    return Verdict(6, "perfect-cuboid", edges=edges, diagonals=diagonals, pairing=pairing)


def test_staged_grade_matches_reference_height_4(monkeypatch):
    # grade decides level 0 from its own edge cubic, never through the
    # search's sieve or the search's copy of the discriminant test
    import cuboidsearch.search as search_module

    def never(name):
        def called(*args):
            raise AssertionError(f"grade called the search's {name}")

        return called

    seams = {
        name: getattr(search_module, name) for name in ("piece_columns", "edge_integer_cubic")
    }
    for name in seams:
        monkeypatch.setattr(search_module, name, never(name))
    reasons = set()
    for b, c in enumerate_points(SearchSpace(height=4)):
        verdict = grade(b, c, E21_PRINTED)
        assert verdict == reference_grade(b, c, E21_PRINTED), (b, c)
        reasons.add(verdict.reason)
    assert reasons == {"singular", "disc-nonsquare", "edge-root-nonpositive"}
    # the patches are live: the search reaches each of them in turn
    for name, seam in seams.items():
        with pytest.raises(AssertionError, match=name):
            search_module.run(SearchSpace(height=4), jobs=1)
        monkeypatch.setattr(search_module, name, seam)


@pytest.mark.parametrize("e21_form", [E21_PRINTED, E21_COMMON])
def test_grade_matches_reference_at_square_discriminants_height_6(e21_form):
    # every H=6 point past level 0 by the cleared path: grade's integer edge
    # stage must give the reference's whole Verdict, the edges included
    values = fraction_values(6)
    checked = 0
    for b in values:
        for c in values:
            if classify(b, c):
                continue
            disc = discriminant(edge_cubic(eval_coefficients_cleared(b, c, E21_COMMON)))
            if is_rational_square(disc) is None:
                continue
            expected = reference_grade(b, c, e21_form)
            assert grade(b, c, e21_form) == expected, (b, c)
            assert expected.edges is not None
            checked += 1
    assert checked == 59


def test_verdict_is_an_immutable_record():
    verdict = Verdict(2, "edge-root-nonpositive", residuals=(F(0),), edges=(F(0), F(0), F(1)))
    assert verdict == Verdict(
        2, "edge-root-nonpositive", residuals=(F(0),), edges=(F(0), F(0), F(1))
    )
    assert verdict != Verdict(2, "edge-root-nonpositive")
    assert repr(Verdict(0, "singular")) == (
        "Verdict(level=0, reason='singular', flags=frozenset(), residuals=(), "
        "edges=None, diagonals=None, pairing=None)"
    )
    with pytest.raises(AttributeError):
        verdict.level = 3
