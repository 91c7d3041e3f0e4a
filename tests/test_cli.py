import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cuboidsearch import cli, identities
from cuboidsearch.bipoly import B
from cuboidsearch.identities import IdentityResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


# --- identities ---------------------------------------------------------------


def test_identities_pass(capsys):
    code, out, _ = run_cli(capsys, "identities")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines)


def test_identities_json(capsys):
    code, out, _ = run_cli(capsys, "identities", "--output-format", "json")
    assert code == 0
    payloads = json_lines(out)
    assert len(payloads) == 4
    for payload in payloads:
        assert set(payload) == {"identity", "pass", "difference"}
        assert payload["pass"] is True
        assert payload["difference"] == "0"


def test_identities_failure_rendering(capsys, monkeypatch):
    fake = [
        IdentityResult("shared-denominator-factors", True, B - B),
        IdentityResult("quartic-sum-of-squares", False, 3 * B),
    ]
    # the subcommand imports the identities module when it runs
    monkeypatch.setattr(identities, "run_identity_checks", lambda: fake)
    code, out, _ = run_cli(capsys, "identities")
    assert code == cli.EXIT_IDENTITY
    assert "FAIL quartic-sum-of-squares: difference = 3*b" in out


# --- classify / coeffs / solve -------------------------------------------------


def test_classify_singular_point(capsys):
    code, out, _ = run_cli(capsys, "classify", "1/2", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "flags: FirstCurve"
    assert "first_curve=0" in lines


def test_classify_nonsingular_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "classify", "1", "1", "--output-format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"] == []
    assert Fraction(payload["first_curve"]) == Fraction(-1)
    assert Fraction(payload["second_curve"]) == Fraction(-2)
    assert Fraction(payload["third_variety"]) == Fraction(1)


def test_coeffs_output(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "e10=1/2",
        "e20=-3/8",
        "e30=0",
        "e01=-1/2",
        "e02=-7/8",
        "e03=3/8",
        "e21=-7/24",
        "e11=1/2",
        "e12=-1",
    ]


def test_coeffs_common_form(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "1", "1", "--e21-form", "common")
    assert code == 0
    assert "e21=7/8" in out


def test_coeffs_singular_is_an_error(capsys):
    code, _, err = run_cli(capsys, "coeffs", "1/2", "3")
    assert code == cli.EXIT_INVALID
    assert "singular: FirstCurve" in err


def test_coeffs_printed_pole_hint(capsys):
    code, _, err = run_cli(capsys, "coeffs", "0", "1/4")
    assert code == cli.EXIT_INVALID
    assert "--e21-form common" in err
    code, out, _ = run_cli(capsys, "coeffs", "0", "1/4", "--e21-form", "common")
    assert code == 0


def test_solve_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "0", "-1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "edge: 0 0 1"
    assert lines[1] == "diagonal: -1 0 1"


def test_solve_at_printed_pole(capsys):
    # solve reads no e21, so the printed form's pole at (0, 1/4) is no error
    code, out, _ = run_cli(capsys, "solve", "0", "1/4")
    assert code == 0
    assert out.strip().splitlines() == ["edge: 0 0 1", "diagonal: -1 0 1"]


def test_solve_singular_rejected(capsys):
    code, _, err = run_cli(capsys, "solve", "1/2", "3")
    assert code == cli.EXIT_INVALID
    assert "singular: FirstCurve" in err


def test_solve_no_splitting(capsys):
    code, out, _ = run_cli(capsys, "solve", "1", "1")
    assert code == 0
    assert "edge: no full rational splitting" in out


def test_solve_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "0", "-1", "--output-format", "json")
    payload = json.loads(out)
    assert payload["edge"] == {"splits": True, "roots": ["0", "0", "1"]}
    assert payload["diagonal"] == {"splits": True, "roots": ["-1", "0", "1"]}


# --- verify --------------------------------------------------------------------


def test_verify_singular(capsys):
    code, out, _ = run_cli(capsys, "verify", "1/2", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert "level=0" in lines
    assert "reason=singular" in lines
    assert "singular: FirstCurve" in lines


def test_verify_reference_point_stable(capsys):
    code, out, _ = run_cli(capsys, "verify", "1", "1")
    assert code == 0
    assert out.strip().splitlines() == [
        "level=0",
        "reason=disc-nonsquare",
        "residuals: 63/256",
    ]


def test_verify_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "verify", "0", "-1", "--output-format", "json")
    payload = json.loads(out)
    assert payload["level"] == 2
    assert payload["reason"] == "edge-root-nonpositive"
    assert [Fraction(r) for r in payload["edges"]] == [0, 0, 1]
    assert payload["b"] == "0" and payload["c"] == "-1"
    # rationals round-trip exactly through their string form
    for text in payload["residuals"]:
        assert str(Fraction(text)) == text


# --- argument handling -----------------------------------------------------------


def test_malformed_rational_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "1/0", "2")
    assert code == cli.EXIT_INVALID
    assert "zero denominator" in err


def test_decimal_rejected_with_hint(capsys):
    code, _, err = run_cli(capsys, "verify", "0.5", "2")
    assert code == cli.EXIT_INVALID
    assert "1/2" in err


def test_unreduced_input_notice(capsys):
    code, out, err = run_cli(capsys, "classify", "2/4", "3")
    assert code == 0
    assert "notice: reduced 2/4 to 1/2" in err
    assert "flags: FirstCurve" in out


def test_quiet_suppresses_notice(capsys):
    code, _, err = run_cli(capsys, "classify", "2/4", "3", "--quiet")
    assert code == 0
    assert "notice" not in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "1"])
    assert info.value.code == cli.EXIT_INVALID


def test_unknown_command_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == cli.EXIT_INVALID


# --- search ----------------------------------------------------------------------


def test_search_end_to_end(tmp_path, capsys):
    out_path = str(tmp_path / "records.jsonl")
    ck_path = str(tmp_path / "ck.json")
    code, out, _ = run_cli(
        capsys,
        "search",
        "--height",
        "2",
        "--jobs",
        "1",
        "--checkpoint",
        ck_path,
        "--output",
        out_path,
        "--quiet",
        "--output-format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["completed"] is True
    assert payload["visited"] == 49
    assert payload["hits"] == 0
    assert payload["interrupted"] is False
    assert sorted(payload["counts"]) == [str(level) for level in range(7)]
    assert (tmp_path / "ck.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--height", "0"), ("--jobs", "0")],
)
def test_search_invalid_number_exit_code(tmp_path, capsys, flag, value):
    # argparse keeps the last value given, so the flag under test overrides --height 2
    code, out, err = run_cli(
        capsys, "search", "--height", "2", flag, value,
        "--checkpoint", str(tmp_path / "ck.json"),
        "--output", str(tmp_path / "o.jsonl"), "--quiet",
    )
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and "invalid input" in err
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize(
    "bounds",
    [("--b-min", "-3/2", "--c-min", "-2"), ("--b-max", "-1/4", "--c-max", "-1/3"),
     ("--b-mi", "-3/2", "--c-ma", "-1/3")],
)
def test_search_negative_bound_as_separate_argument(tmp_path, capsys, bounds):
    # argparse reads -3/2 as an option unless it is joined to its flag with
    # "="; a negative bound given as the next argument must run the same search
    results = []
    for form in ("joined", "separate"):
        args = ([f"{bounds[0]}={bounds[1]}", f"{bounds[2]}={bounds[3]}"]
                if form == "joined" else list(bounds))
        out_path = tmp_path / f"{form}.jsonl"
        code, out, err = run_cli(
            capsys, "search", "--height", "4", *args, "--quiet",
            "--checkpoint", str(tmp_path / f"{form}.json"), "--output", str(out_path),
        )
        assert code == 0 and err == ""
        records = json_lines(out_path.read_text())
        results.append((out, [{k: v for k, v in r.items() if k != "ts"} for r in records]))
    assert results[0] == results[1]
    # the bounds were applied: the full H=4 grid has 529 points
    assert "cursor=529/529" not in results[0][0]
    if bounds[1] == "-3/2":
        assert results[0][1]


def test_search_missing_checkpoint_directory_exit_code(tmp_path, capsys):
    # the run fails before it grades a block, so the output is never opened
    out_path = tmp_path / "o.jsonl"
    code, out, err = run_cli(
        capsys, "search", "--height", "4", "--quiet",
        "--checkpoint", str(tmp_path / "sub" / "ck.json"), "--output", str(out_path),
    )
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.count("\n") == 1 and "i/o error" in err
    assert not out_path.exists()


@pytest.mark.parametrize("axis", ["b", "c"])
def test_search_inverted_range_exit_code(tmp_path, capsys, axis):
    # an inverted range used to exit 0 with completed=True, truncate the
    # output to empty and write no checkpoint
    out_path = tmp_path / "out.jsonl"
    out_path.write_text('{"b": "1/2", "c": "1/2"}\n')
    code, out, err = run_cli(
        capsys, "search", "--height", "4", "--quiet", f"--{axis}-min", "3", f"--{axis}-max", "1",
        "--checkpoint", str(tmp_path / "ck.json"), "--output", str(out_path),
    )
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and "invalid input" in err
    assert os.listdir(tmp_path) == ["out.jsonl"]
    assert out_path.read_text() == '{"b": "1/2", "c": "1/2"}\n'


def test_search_checkpoint_directory_is_a_file_exit_code(tmp_path, capsys):
    # E/file is a regular file: the run fails before it grades a block
    (tmp_path / "file").write_text("")
    out_path = tmp_path / "out.jsonl"
    code, out, err = run_cli(
        capsys, "search", "--height", "4", "--quiet",
        "--checkpoint", str(tmp_path / "file" / "ck.json"), "--output", str(out_path),
    )
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.count("\n") == 1 and "i/o error" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "checkpoint, output", [("", ""), ("", "o.jsonl"), ("ck.json", "")],
    ids=["both", "checkpoint", "output"],
)
def test_search_empty_path_exit_code(tmp_path, capsys, monkeypatch, checkpoint, output):
    # an empty path used to mean no file, so every record was lost silently
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "search", "--height", "4", "--quiet",
        "--checkpoint", checkpoint, "--output", output,
    )
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and "invalid input" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "checkpoint, output, expected",
    [
        ("ck.json", "ck.json", cli.EXIT_INVALID),
        ("ck.json", "ck.json.tmp", cli.EXIT_INVALID),
        ("o.jsonl.hits", "o.jsonl", cli.EXIT_INVALID),
        # the output and its hits file are cut in place, never written through
        # a .tmp, so the checkpoint may take those names
        ("o.jsonl.tmp", "o.jsonl", cli.EXIT_OK),
        ("o.jsonl.hits.tmp", "o.jsonl", cli.EXIT_OK),
        ("sub/../ck.json", "./ck.json", cli.EXIT_INVALID),
        # the checkpoint's .tmp is "sub/..tmp" and "sub/...tmp", which
        # abspath of the checkpoint with ".tmp" appended would not name
        ("sub/.", "sub/..tmp", cli.EXIT_INVALID),
        ("sub/..", "sub/...tmp", cli.EXIT_INVALID),
    ],
    ids=[
        "output", "output-is-tmp", "hits", "output-tmp", "hits-tmp", "normalised",
        "dot-tmp", "dotdot-tmp",
    ],
)
def test_search_output_on_checkpoint_exit_code(
    tmp_path, capsys, monkeypatch, checkpoint, output, expected
):
    # the checkpoint write used to replace the records written to the same file
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "search", "--height", "4", "--quiet",
        "--checkpoint", checkpoint, "--output", output,
    )
    assert code == expected
    if expected == cli.EXIT_OK:
        assert "cursor=529/529" in out
        assert json.loads((tmp_path / checkpoint).read_text(encoding="utf-8"))["cursor"] == 529
        assert sorted(os.listdir(tmp_path)) == sorted([checkpoint, output])
        return
    assert out == ""
    assert err.count("\n") == 1 and "invalid input" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter's int() reads any number of digits",
)
@pytest.mark.parametrize("command", ["classify", "coeffs", "solve", "verify", "search"])
def test_over_long_rational_exit_code(tmp_path, capsys, command):
    # int() refuses more digits than sys.get_int_max_str_digits() with a
    # plain ValueError, which used to escape as a traceback and exit 1
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    argv = [command, digits, "1"]
    if command == "search":
        argv = ["search", "--height", "4", "--b-min", digits, "--quiet",
                "--checkpoint", str(tmp_path / "ck.json"), "--output", str(tmp_path / "o.jsonl")]
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and "invalid rational" in err and "too many digits" in err
    assert os.listdir(tmp_path) == []


def test_search_checkpoint_mismatch_exit_code(tmp_path, capsys):
    out_path = str(tmp_path / "records.jsonl")
    ck_path = str(tmp_path / "ck.json")
    run_cli(capsys, "search", "--height", "2", "--checkpoint", ck_path,
            "--output", out_path, "--quiet")
    code, _, err = run_cli(capsys, "search", "--height", "3", "--checkpoint", ck_path,
                           "--output", out_path, "--quiet")
    assert code == cli.EXIT_CHECKPOINT
    assert "checkpoint mismatch" in err


@pytest.mark.parametrize(
    "text", ["not json\n", '{"version": 2}\n'], ids=["not-json", "version-only"]
)
def test_search_malformed_checkpoint_exit_code(tmp_path, capsys, text):
    ck_path = tmp_path / "ck.json"
    ck_path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "search", "--height", "2", "--checkpoint", str(ck_path),
                             "--output", str(tmp_path / "records.jsonl"), "--quiet")
    assert code == cli.EXIT_CHECKPOINT
    assert out == ""
    assert err.count("\n") == 1 and "checkpoint mismatch" in err


def test_search_stop_on_hit_exit_code(monkeypatch, tmp_path, capsys):
    summary = {
        "counts": {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1},
        "singular": 0,
        "visited": 5,
        "cursor": 5,
        "total": 9,
        "completed": False,
        "interrupted": False,
        "hits": 1,
        "stopped_on_hit": True,
        "e21_form": "printed",
    }
    monkeypatch.setattr(cli, "run", lambda *a, **k: summary)
    code, out, _ = run_cli(
        capsys, "search", "--height", "1", "--stop-on-hit",
        "--checkpoint", str(tmp_path / "ck.json"),
        "--output", str(tmp_path / "o.jsonl"), "--quiet",
    )
    assert code == cli.EXIT_HIT
    assert "stopped on level-6 hit" in out


def test_search_output_to_the_null_device(tmp_path, capsys):
    # a device cannot be cut, so the run appends to it, fresh and resumed
    argv = ["search", "--height", "4", "--quiet", "--checkpoint", str(tmp_path / "ck.json"),
            "--output", os.devnull]
    for visited in (529, 0):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"visited={visited} singular=28 cursor=529/529"


SUMMARY_LINES = [
    "visited=529 singular=28 cursor=529/529",
    "levels: 0:497 1:0 2:32 3:0 4:0 5:0 6:0",
    "hits=0 completed=True",
]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("stdout", ["file", "pipe"])
def test_search_output_to_stdout_keeps_every_record(tmp_path, output_format, stdout):
    # the records go to stdout through the run's own descriptor, and the summary
    # follows them: when stdout is a file opened at offset 0, as by the shell's ">",
    # the summary must not write over the first records
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-m", "cuboidsearch", "search", "--height", "4", "--quiet",
            "--output-format", output_format, "--checkpoint", str(tmp_path / "ck.json"),
            "--output", "/dev/stdout"]
    if stdout == "file":
        with open(tmp_path / "so.txt", "wb") as sink:
            subprocess.run(argv, stdout=sink, env=env, check=True, timeout=60)
        lines = (tmp_path / "so.txt").read_text().splitlines()
    else:
        lines = subprocess.run(argv, stdout=subprocess.PIPE, env=env, check=True,
                               timeout=60, text=True).stdout.splitlines()
    records = [json.loads(line) for line in lines[:32]]
    assert [record["level"] for record in records] == [2] * 32
    assert all(len(record) == 7 for record in records)
    if output_format == "text":
        assert lines[32:] == SUMMARY_LINES
    else:
        [summary] = [json.loads(line) for line in lines[32:]]
        assert (summary["visited"], summary["cursor"], summary["hits"]) == (529, 529, 0)
        assert summary["output"] == "/dev/stdout"
