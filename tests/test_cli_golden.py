"""Golden output of the point commands: exact stdout lines, stderr and exit code.

Each expectation below is written out literally, so any change in what
``classify``, ``coeffs``, ``solve``, ``verify`` or ``identities`` prints,
in either output format, fails here.  The points cover the singular
point (1/2, 3) and the singular origin, the nonsingular level-0 point
(1, 1), the level-1 point (-3/2, 7/8), two level-2 points on the row
b = 0, the point (-2, 1/3) where neither cubic splits, an unreduced
argument (2/4) and two malformed ones.
"""

from fractions import Fraction

import pytest

from cuboidsearch import cli
from cuboidsearch.verifier import Verdict

GOLDEN = {
    ("classify", "text", "1/2", "3"): (
        0,
        [
            "flags: FirstCurve",
            "first_curve=0",
            "second_curve=-5/2",
            "third_variety=10",
        ],
        "",
    ),
    ("classify", "text", "0", "0"): (
        0,
        [
            "flags: SecondCurve, ThirdVariety",
            "first_curve=-1",
            "second_curve=0",
            "third_variety=0",
        ],
        "",
    ),
    ("classify", "text", "1", "1"): (
        0,
        [
            "flags: (none)",
            "first_curve=-1",
            "second_curve=-2",
            "third_variety=1",
        ],
        "",
    ),
    ("classify", "text", "-3/2", "7/8"): (
        0,
        [
            "flags: (none)",
            "first_curve=-13/16",
            "second_curve=13/16",
            "third_variety=13273/16384",
        ],
        "",
    ),
    ("classify", "text", "0", "-1"): (
        0,
        [
            "flags: (none)",
            "first_curve=-1",
            "second_curve=1",
            "third_variety=1",
        ],
        "",
    ),
    ("classify", "text", "0", "1/4"): (
        0,
        [
            "flags: (none)",
            "first_curve=-1",
            "second_curve=-1/4",
            "third_variety=1/16",
        ],
        "",
    ),
    ("classify", "text", "-2", "1/3"): (
        0,
        [
            "flags: (none)",
            "first_curve=1/3",
            "second_curve=3",
            "third_variety=409/81",
        ],
        "",
    ),
    ("classify", "text", "2/4", "3"): (
        0,
        [
            "flags: FirstCurve",
            "first_curve=0",
            "second_curve=-5/2",
            "third_variety=10",
        ],
        "notice: reduced 2/4 to 1/2\n",
    ),
    ("classify", "text", "0.5", "1"): (
        3,
        [],
        "cuboidsearch: invalid rational: '0.5' is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)\n",
    ),
    ("classify", "text", "1", "1/0"): (
        3,
        [],
        "cuboidsearch: invalid rational: '1/0' has a zero denominator\n",
    ),
    ("classify", "json", "1/2", "3"): (
        0,
        [
            '{"b": "1/2", "c": "3", "first_curve": "0", "flags": ["FirstCurve"], "second_curve": "-5/2", "third_variety": "10"}',
        ],
        "",
    ),
    ("classify", "json", "0", "0"): (
        0,
        [
            '{"b": "0", "c": "0", "first_curve": "-1", "flags": ["SecondCurve", "ThirdVariety"], "second_curve": "0", "third_variety": "0"}',
        ],
        "",
    ),
    ("classify", "json", "1", "1"): (
        0,
        [
            '{"b": "1", "c": "1", "first_curve": "-1", "flags": [], "second_curve": "-2", "third_variety": "1"}',
        ],
        "",
    ),
    ("classify", "json", "-3/2", "7/8"): (
        0,
        [
            '{"b": "-3/2", "c": "7/8", "first_curve": "-13/16", "flags": [], "second_curve": "13/16", "third_variety": "13273/16384"}',
        ],
        "",
    ),
    ("classify", "json", "0", "-1"): (
        0,
        [
            '{"b": "0", "c": "-1", "first_curve": "-1", "flags": [], "second_curve": "1", "third_variety": "1"}',
        ],
        "",
    ),
    ("classify", "json", "0", "1/4"): (
        0,
        [
            '{"b": "0", "c": "1/4", "first_curve": "-1", "flags": [], "second_curve": "-1/4", "third_variety": "1/16"}',
        ],
        "",
    ),
    ("classify", "json", "-2", "1/3"): (
        0,
        [
            '{"b": "-2", "c": "1/3", "first_curve": "1/3", "flags": [], "second_curve": "3", "third_variety": "409/81"}',
        ],
        "",
    ),
    ("classify", "json", "2/4", "3"): (
        0,
        [
            '{"b": "1/2", "c": "3", "first_curve": "0", "flags": ["FirstCurve"], "second_curve": "-5/2", "third_variety": "10"}',
        ],
        "notice: reduced 2/4 to 1/2\n",
    ),
    ("classify", "json", "0.5", "1"): (
        3,
        [],
        "cuboidsearch: invalid rational: '0.5' is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)\n",
    ),
    ("classify", "json", "1", "1/0"): (
        3,
        [],
        "cuboidsearch: invalid rational: '1/0' has a zero denominator\n",
    ),
    ("coeffs", "text", "1/2", "3"): (
        3,
        [],
        "singular: FirstCurve\n",
    ),
    ("coeffs", "text", "0", "0"): (
        3,
        [],
        "singular: SecondCurve, ThirdVariety\n",
    ),
    ("coeffs", "text", "1", "1"): (
        0,
        [
            "e10=1/2",
            "e20=-3/8",
            "e30=0",
            "e01=-1/2",
            "e02=-7/8",
            "e03=3/8",
            "e21=-7/24",
            "e11=1/2",
            "e12=-1",
        ],
        "",
    ),
    ("coeffs", "text", "-3/2", "7/8"): (
        0,
        [
            "e10=-11/13",
            "e20=-24/169",
            "e30=145152/2243137",
            "e01=-30/13",
            "e02=281/169",
            "e03=-794616/2243137",
            "e21=2119522584/874851991",
            "e11=282/169",
            "e12=-1851583/2243137",
        ],
        "",
    ),
    ("coeffs", "text", "0", "-1"): (
        0,
        [
            "e10=1",
            "e20=0",
            "e30=0",
            "e01=0",
            "e02=-1",
            "e03=0",
            "e21=0",
            "e11=0",
            "e12=-1",
        ],
        "",
    ),
    ("coeffs", "text", "0", "1/4"): (
        3,
        [],
        "e21 denominator (printed form) vanishes here; re-run with --e21-form common\n",
    ),
    ("coeffs", "text", "-2", "1/3"): (
        0,
        [
            "e10=-37/9",
            "e20=644/81",
            "e30=-21760/11043",
            "e01=26/9",
            "e02=257/81",
            "e03=-217564/33129",
            "e21=-208816/32157",
            "e11=14/9",
            "e12=-11203/11043",
        ],
        "",
    ),
    ("coeffs", "text", "2/4", "3"): (
        3,
        [],
        "notice: reduced 2/4 to 1/2\nsingular: FirstCurve\n",
    ),
    ("coeffs", "text", "0.5", "1"): (
        3,
        [],
        "cuboidsearch: invalid rational: '0.5' is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)\n",
    ),
    ("coeffs", "text", "1", "1/0"): (
        3,
        [],
        "cuboidsearch: invalid rational: '1/0' has a zero denominator\n",
    ),
    ("coeffs", "json", "1/2", "3"): (
        3,
        [],
        "singular: FirstCurve\n",
    ),
    ("coeffs", "json", "0", "0"): (
        3,
        [],
        "singular: SecondCurve, ThirdVariety\n",
    ),
    ("coeffs", "json", "1", "1"): (
        0,
        [
            '{"b": "1", "c": "1", "e01": "-1/2", "e02": "-7/8", "e03": "3/8", "e10": "1/2", "e11": "1/2", "e12": "-1", "e20": "-3/8", "e21": "-7/24", "e21_form": "printed", "e30": "0"}',
        ],
        "",
    ),
    ("coeffs", "json", "-3/2", "7/8"): (
        0,
        [
            '{"b": "-3/2", "c": "7/8", "e01": "-30/13", "e02": "281/169", "e03": "-794616/2243137", "e10": "-11/13", "e11": "282/169", "e12": "-1851583/2243137", "e20": "-24/169", "e21": "2119522584/874851991", "e21_form": "printed", "e30": "145152/2243137"}',
        ],
        "",
    ),
    ("coeffs", "json", "0", "-1"): (
        0,
        [
            '{"b": "0", "c": "-1", "e01": "0", "e02": "-1", "e03": "0", "e10": "1", "e11": "0", "e12": "-1", "e20": "0", "e21": "0", "e21_form": "printed", "e30": "0"}',
        ],
        "",
    ),
    ("coeffs", "json", "0", "1/4"): (
        3,
        [],
        "e21 denominator (printed form) vanishes here; re-run with --e21-form common\n",
    ),
    ("coeffs", "json", "-2", "1/3"): (
        0,
        [
            '{"b": "-2", "c": "1/3", "e01": "26/9", "e02": "257/81", "e03": "-217564/33129", "e10": "-37/9", "e11": "14/9", "e12": "-11203/11043", "e20": "644/81", "e21": "-208816/32157", "e21_form": "printed", "e30": "-21760/11043"}',
        ],
        "",
    ),
    ("coeffs", "json", "2/4", "3"): (
        3,
        [],
        "notice: reduced 2/4 to 1/2\nsingular: FirstCurve\n",
    ),
    ("coeffs", "json", "0.5", "1"): (
        3,
        [],
        "cuboidsearch: invalid rational: '0.5' is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)\n",
    ),
    ("coeffs", "json", "1", "1/0"): (
        3,
        [],
        "cuboidsearch: invalid rational: '1/0' has a zero denominator\n",
    ),
    ("solve", "text", "1/2", "3"): (
        3,
        [],
        "singular: FirstCurve\n",
    ),
    ("solve", "text", "0", "0"): (
        3,
        [],
        "singular: SecondCurve, ThirdVariety\n",
    ),
    ("solve", "text", "1", "1"): (
        0,
        [
            "edge: no full rational splitting",
            "diagonal: no full rational splitting",
        ],
        "",
    ),
    ("solve", "text", "-3/2", "7/8"): (
        0,
        [
            "edge: no full rational splitting",
            "diagonal: no full rational splitting",
        ],
        "",
    ),
    ("solve", "text", "0", "-1"): (
        0,
        [
            "edge: 0 0 1",
            "diagonal: -1 0 1",
        ],
        "",
    ),
    ("solve", "text", "0", "1/4"): (
        0,
        [
            "edge: 0 0 1",
            "diagonal: -1 0 1",
        ],
        "",
    ),
    ("solve", "text", "-2", "1/3"): (
        0,
        [
            "edge: no full rational splitting",
            "diagonal: no full rational splitting",
        ],
        "",
    ),
    ("solve", "text", "2/4", "3"): (
        3,
        [],
        "notice: reduced 2/4 to 1/2\nsingular: FirstCurve\n",
    ),
    ("solve", "text", "0.5", "1"): (
        3,
        [],
        "cuboidsearch: invalid rational: '0.5' is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)\n",
    ),
    ("solve", "text", "1", "1/0"): (
        3,
        [],
        "cuboidsearch: invalid rational: '1/0' has a zero denominator\n",
    ),
    ("solve", "json", "1/2", "3"): (
        3,
        [],
        "singular: FirstCurve\n",
    ),
    ("solve", "json", "0", "0"): (
        3,
        [],
        "singular: SecondCurve, ThirdVariety\n",
    ),
    ("solve", "json", "1", "1"): (
        0,
        [
            '{"b": "1", "c": "1", "diagonal": {"roots": null, "splits": false}, "e21_form": "printed", "edge": {"roots": null, "splits": false}}',
        ],
        "",
    ),
    ("solve", "json", "-3/2", "7/8"): (
        0,
        [
            '{"b": "-3/2", "c": "7/8", "diagonal": {"roots": null, "splits": false}, "e21_form": "printed", "edge": {"roots": null, "splits": false}}',
        ],
        "",
    ),
    ("solve", "json", "0", "-1"): (
        0,
        [
            '{"b": "0", "c": "-1", "diagonal": {"roots": ["-1", "0", "1"], "splits": true}, "e21_form": "printed", "edge": {"roots": ["0", "0", "1"], "splits": true}}',
        ],
        "",
    ),
    ("solve", "json", "0", "1/4"): (
        0,
        [
            '{"b": "0", "c": "1/4", "diagonal": {"roots": ["-1", "0", "1"], "splits": true}, "e21_form": "printed", "edge": {"roots": ["0", "0", "1"], "splits": true}}',
        ],
        "",
    ),
    ("solve", "json", "-2", "1/3"): (
        0,
        [
            '{"b": "-2", "c": "1/3", "diagonal": {"roots": null, "splits": false}, "e21_form": "printed", "edge": {"roots": null, "splits": false}}',
        ],
        "",
    ),
    ("solve", "json", "2/4", "3"): (
        3,
        [],
        "notice: reduced 2/4 to 1/2\nsingular: FirstCurve\n",
    ),
    ("solve", "json", "0.5", "1"): (
        3,
        [],
        "cuboidsearch: invalid rational: '0.5' is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)\n",
    ),
    ("solve", "json", "1", "1/0"): (
        3,
        [],
        "cuboidsearch: invalid rational: '1/0' has a zero denominator\n",
    ),
    ("verify", "text", "1/2", "3"): (
        0,
        [
            "level=0",
            "reason=singular",
            "singular: FirstCurve",
        ],
        "",
    ),
    ("verify", "text", "0", "0"): (
        0,
        [
            "level=0",
            "reason=singular",
            "singular: SecondCurve, ThirdVariety",
        ],
        "",
    ),
    ("verify", "text", "1", "1"): (
        0,
        [
            "level=0",
            "reason=disc-nonsquare",
            "residuals: 63/256",
        ],
        "",
    ),
    ("verify", "text", "-3/2", "7/8"): (
        0,
        [
            "level=1",
            "reason=edge-no-split",
            "residuals: 1054696136256/5031663600769",
        ],
        "",
    ),
    ("verify", "text", "0", "-1"): (
        0,
        [
            "level=2",
            "reason=edge-root-nonpositive",
            "residuals: 0 0",
            "edges: 0 0 1",
        ],
        "",
    ),
    ("verify", "text", "0", "1/4"): (
        0,
        [
            "level=2",
            "reason=edge-root-nonpositive",
            "residuals: 0 0",
            "edges: 0 0 1",
        ],
        "",
    ),
    ("verify", "text", "-2", "1/3"): (
        0,
        [
            "level=0",
            "reason=disc-nonsquare",
            "residuals: -38681448791152/88899981921",
        ],
        "",
    ),
    ("verify", "text", "2/4", "3"): (
        0,
        [
            "level=0",
            "reason=singular",
            "singular: FirstCurve",
        ],
        "notice: reduced 2/4 to 1/2\n",
    ),
    ("verify", "text", "0.5", "1"): (
        3,
        [],
        "cuboidsearch: invalid rational: '0.5' is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)\n",
    ),
    ("verify", "text", "1", "1/0"): (
        3,
        [],
        "cuboidsearch: invalid rational: '1/0' has a zero denominator\n",
    ),
    ("verify", "json", "1/2", "3"): (
        0,
        [
            '{"b": "1/2", "c": "3", "diagonals": null, "e21_form": "printed", "edges": null, "flags": ["FirstCurve"], "level": 0, "pairing": null, "reason": "singular", "residuals": []}',
        ],
        "",
    ),
    ("verify", "json", "0", "0"): (
        0,
        [
            '{"b": "0", "c": "0", "diagonals": null, "e21_form": "printed", "edges": null, "flags": ["SecondCurve", "ThirdVariety"], "level": 0, "pairing": null, "reason": "singular", "residuals": []}',
        ],
        "",
    ),
    ("verify", "json", "1", "1"): (
        0,
        [
            '{"b": "1", "c": "1", "diagonals": null, "e21_form": "printed", "edges": null, "flags": [], "level": 0, "pairing": null, "reason": "disc-nonsquare", "residuals": ["63/256"]}',
        ],
        "",
    ),
    ("verify", "json", "-3/2", "7/8"): (
        0,
        [
            '{"b": "-3/2", "c": "7/8", "diagonals": null, "e21_form": "printed", "edges": null, "flags": [], "level": 1, "pairing": null, "reason": "edge-no-split", "residuals": ["1054696136256/5031663600769"]}',
        ],
        "",
    ),
    ("verify", "json", "0", "-1"): (
        0,
        [
            '{"b": "0", "c": "-1", "diagonals": null, "e21_form": "printed", "edges": ["0", "0", "1"], "flags": [], "level": 2, "pairing": null, "reason": "edge-root-nonpositive", "residuals": ["0", "0"]}',
        ],
        "",
    ),
    ("verify", "json", "0", "1/4"): (
        0,
        [
            '{"b": "0", "c": "1/4", "diagonals": null, "e21_form": "printed", "edges": ["0", "0", "1"], "flags": [], "level": 2, "pairing": null, "reason": "edge-root-nonpositive", "residuals": ["0", "0"]}',
        ],
        "",
    ),
    ("verify", "json", "-2", "1/3"): (
        0,
        [
            '{"b": "-2", "c": "1/3", "diagonals": null, "e21_form": "printed", "edges": null, "flags": [], "level": 0, "pairing": null, "reason": "disc-nonsquare", "residuals": ["-38681448791152/88899981921"]}',
        ],
        "",
    ),
    ("verify", "json", "2/4", "3"): (
        0,
        [
            '{"b": "1/2", "c": "3", "diagonals": null, "e21_form": "printed", "edges": null, "flags": ["FirstCurve"], "level": 0, "pairing": null, "reason": "singular", "residuals": []}',
        ],
        "notice: reduced 2/4 to 1/2\n",
    ),
    ("verify", "json", "0.5", "1"): (
        3,
        [],
        "cuboidsearch: invalid rational: '0.5' is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)\n",
    ),
    ("verify", "json", "1", "1/0"): (
        3,
        [],
        "cuboidsearch: invalid rational: '1/0' has a zero denominator\n",
    ),
}

IDENTITIES_JSON = (
    0,
    [
        '{"difference": "0", "identity": "shared-denominator-factors", "pass": true}',
        '{"difference": "0", "identity": "denominator-reduction", "pass": true}',
        '{"difference": "0", "identity": "quartic-discriminant", "pass": true}',
        '{"difference": "0", "identity": "quartic-sum-of-squares", "pass": true}',
    ],
    "",
)

LEVEL5 = {
    "text": (
        0,
        [
            "level=5",
            "reason=pythagoras-failed",
            "residuals: 0 -7/4 3 1/9",
            "edges: 3 4 12",
            "diagonals: 5 -13/2 15",
            "pairing: 2 0 1",
        ],
        "notice: reduced 2/4 to 1/2\n",
    ),
    "json": (
        0,
        [
            '{"b": "1/2", "c": "3", "diagonals": ["5", "-13/2", "15"], "e21_form": "printed", "edges": ["3", "4", "12"], "flags": [], "level": 5, "pairing": [2, 0, 1], "reason": "pythagoras-failed", "residuals": ["0", "-7/4", "3", "1/9"]}',
        ],
        "notice: reduced 2/4 to 1/2\n",
    ),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


@pytest.mark.parametrize("key", list(GOLDEN), ids="-".join)
def test_point_command_output_is_golden(capsys, key):
    command, output_format, b, c = key
    assert run_cli(capsys, command, "--output-format", output_format, "--", b, c) == GOLDEN[key]


def test_identities_json_is_golden(capsys):
    assert run_cli(capsys, "identities", "--output-format", "json") == IDENTITIES_JSON


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_verify_of_a_level_5_verdict_is_golden(capsys, monkeypatch, output_format):
    # no point grades to level 5 in any grid searched so far, so the verdict is
    # patched in, with diagonals and a pairing that verify must print
    verdict = Verdict(
        5,
        "pythagoras-failed",
        residuals=(Fraction(0), Fraction(-7, 4), Fraction(3), Fraction(1, 9)),
        edges=(Fraction(3), Fraction(4), Fraction(12)),
        diagonals=(Fraction(5), Fraction(-13, 2), Fraction(15)),
        pairing=(2, 0, 1),
    )
    monkeypatch.setattr(cli, "grade", lambda b, c, e21_form: verdict)
    result = run_cli(capsys, "verify", "--output-format", output_format, "--", "2/4", "3")
    assert result == LEVEL5[output_format]
