import concurrent.futures
import functools
import hashlib
import inspect
import itertools
import json
import os
import re
from concurrent.futures import Future
from fractions import Fraction

import pytest

from conftest import enumerate_points
from cuboidsearch.rationals import height, parse_rational
from cuboidsearch.search import (
    DEFAULT_BLOCK_SIZE,
    CheckpointMismatch,
    SearchSpace,
    _axes,
    canonical_records,
    config_digest,
    e21_form_discrepancies,
    fraction_values,
    grid_size,
    hits_path_for,
    load_records,
    make_record,
    point_index,
    run,
    space_config,
)
from cuboidsearch.sieve import RESIDUE_MODULI, SCREENED_C_CLASSES, piece_columns, residue_moduli
from cuboidsearch import verifier
from cuboidsearch.coefficients import edge_integer_cubic
from cuboidsearch.cubic import integer_discriminant, is_perfect_square, root_numerators
from cuboidsearch.singularity import classify
from cuboidsearch.verifier import Verdict, grade

F = Fraction


def records_in_order(path):
    out = []
    for record in load_records(path):
        record.pop("ts")
        out.append(record)
    return out


# --- enumeration -------------------------------------------------------------


def test_fraction_values_height_one():
    assert fraction_values(1) == (F(-1), F(0), F(1))


def test_fraction_values_height_two():
    assert fraction_values(2) == (F(-1), F(0), F(1), F(-2), F(-1, 2), F(1, 2), F(2))


def test_fraction_values_ordered_by_height_no_duplicates():
    values = fraction_values(8)
    assert len(values) == len(set(values)) == 87
    heights = [height(v) for v in values]
    assert heights == sorted(heights)
    assert all(h <= 8 for h in heights)


def test_fraction_values_order_pinned_height_30():
    # sha256 of the space-joined values: pins the whole cursor order, not
    # only that the heights are sorted
    values = fraction_values(30)
    digest = hashlib.sha256(" ".join(map(str, values)).encode("utf-8")).hexdigest()
    assert len(values) == 1111
    assert digest == "b75766c0e4a4152279f1b631756d9e53d2740f6cf82911238f8ed649df06640e"


def test_never_emits_unreduced_fraction():
    # 2/4 reduces to 1/2, which appears exactly once
    values = fraction_values(4)
    assert values.count(F(1, 2)) == 1


def test_enumerate_height_one():
    points = list(enumerate_points(SearchSpace(height=1)))
    assert len(points) == 9
    assert set(points) == {(b, c) for b in fraction_values(1) for c in fraction_values(1)}


def test_enumerate_height_two_counts():
    # 6 nonzero reduced fractions of height <= 2 plus zero: 7 values, 49 points
    points = list(enumerate_points(SearchSpace(height=2)))
    assert len(points) == 49


def test_enumerate_respects_ranges():
    space = SearchSpace(height=2, b_min=F(0), c_min=F(1, 2), c_max=F(1))
    points = list(enumerate_points(space))
    assert all(b >= 0 and F(1, 2) <= c <= 1 for b, c in points)
    assert (F(0), F(1, 2)) in points


def assert_round_trip(space):
    points = list(enumerate_points(space))
    assert len(points) == grid_size(space)
    for index, (b, c) in enumerate(points):
        assert point_index(space, b, c) == index


def test_point_index_round_trip():
    assert_round_trip(SearchSpace(height=3))


def test_ranged_point_index_round_trip():
    assert_round_trip(SearchSpace(height=4, b_min=F(-1, 2), b_max=F(3), c_min=F(1, 3)))


def test_invalid_space_rejected():
    with pytest.raises(ValueError):
        SearchSpace(height=0)
    with pytest.raises(ValueError):
        SearchSpace(height=3, e21_form="nope")


# --- run/persist/resume -------------------------------------------------------


def test_run_small_grid(tmp_path):
    out = str(tmp_path / "records.jsonl")
    ck = str(tmp_path / "checkpoint.json")
    summary = run(SearchSpace(height=3), jobs=1, checkpoint_path=ck, output_path=out)
    assert summary["completed"]
    assert summary["visited"] == grid_size(SearchSpace(height=3))
    assert sum(summary["counts"].values()) == summary["visited"]
    assert summary["hits"] == 0

    records = load_records(out)
    assert all(record["level"] >= 1 for record in records)
    assert len(records) == sum(v for k, v in summary["counts"].items() if k >= 1)
    for record in records:
        assert set(record) == {"b", "c", "level", "reason", "residuals", "e21_form", "ts"}
        assert record["e21_form"] == "printed"


def test_singular_points_counted_not_logged(tmp_path):
    out = str(tmp_path / "records.jsonl")
    summary = run(
        SearchSpace(height=3), jobs=1, checkpoint_path=None, output_path=out
    )
    assert summary["singular"] > 0
    logged = {(r["b"], r["c"]) for r in load_records(out)}
    assert ("1/2", "3") not in logged  # first-curve point inside the grid
    # and the level-0 count includes every singular point
    assert summary["counts"][0] >= summary["singular"]


def test_jobs_do_not_change_output(tmp_path):
    space = SearchSpace(height=4)
    paths = {}
    for jobs in (1, 2):
        out = str(tmp_path / f"records{jobs}.jsonl")
        run(space, jobs=jobs, checkpoint_path=None, output_path=out, block_size=128)
        paths[jobs] = out
    assert records_in_order(paths[1]) == records_in_order(paths[2])
    assert canonical_records(paths[1]) == canonical_records(paths[2])


def test_pool_starts_no_more_workers_than_blocks(monkeypatch, tmp_path):
    # a stand-in executor records the worker count and runs each call
    # inline, so no process is started; it also checks that no more than
    # four blocks per worker are submitted and not yet read
    import cuboidsearch.search as search_module

    requested = []
    most_outstanding = []
    outstanding = set()

    class ReadFuture(Future):
        def result(self, timeout=None):
            outstanding.discard(self)
            return super().result(timeout)

    class InlineExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)
            most_outstanding.append(0)
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = ReadFuture()
            future.set_result(fn(*args))
            outstanding.add(future)
            assert len(outstanding) <= 4 * self.max_workers
            most_outstanding[-1] = max(most_outstanding[-1], len(outstanding))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    space = SearchSpace(height=2)
    paths = {}
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 64)
    for jobs in (1, 1000):
        paths[jobs] = str(tmp_path / f"records{jobs}.jsonl")
        run(space, jobs=jobs, checkpoint_path=None, output_path=paths[jobs], block_size=1)
    assert requested == [grid_size(space)] == [49]
    assert records_in_order(paths[1]) == records_in_order(paths[1000])

    # nor more than the CPUs; with the CPU count unknown, one worker runs
    # the blocks in-process and no pool is opened
    for cpus, pool_sizes in ((2, [49, 2]), (None, [49, 2])):
        monkeypatch.setattr(search_module.os, "cpu_count", lambda: cpus)
        path = str(tmp_path / f"records-cpus-{cpus}.jsonl")
        run(space, jobs=1000, checkpoint_path=None, output_path=path, block_size=1)
        assert requested == pool_sizes
        assert records_in_order(path) == records_in_order(paths[1])
    # all 49 blocks fit the 49 workers' window; 2 workers fill theirs of 8
    assert most_outstanding == [49, 8]
    assert not outstanding


def test_one_block_grid_starts_no_pool(monkeypatch, tmp_path):
    # the whole H=12 grid is one default block, so two workers would have
    # nothing to share: the run stays in-process
    import cuboidsearch.search as search_module

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 2)
    space = SearchSpace(height=12)
    assert grid_size(space) <= DEFAULT_BLOCK_SIZE
    out = str(tmp_path / "records.jsonl")
    summary = run(space, jobs=2, checkpoint_path=str(tmp_path / "ck.json"), output_path=out)
    assert summary["completed"] and summary["visited"] == 33_489
    assert len(load_records(out)) == 234


@pytest.mark.parametrize("block_size", [0, -5])
def test_run_rejects_block_size_below_one(block_size):
    with pytest.raises(ValueError, match="block_size"):
        run(SearchSpace(height=2), block_size=block_size)


@pytest.mark.parametrize("max_blocks", [-1, -5])
def test_run_rejects_negative_max_blocks(tmp_path, max_blocks):
    # a negative bound would slice the blocks from the end and drop the
    # last ones without saying so; nothing is written
    ck = str(tmp_path / "ck.json")
    with pytest.raises(ValueError, match="max_blocks"):
        run(SearchSpace(height=4), checkpoint_path=ck, block_size=100, max_blocks=max_blocks)
    assert not os.path.exists(ck)
    assert run(SearchSpace(height=4), block_size=100, max_blocks=0)["cursor"] == 0


def test_missing_checkpoint_directory_fails_before_any_block(monkeypatch, tmp_path):
    # a checkpoint in a missing directory used to fail only at the first
    # write, after a block was graded and its records appended
    import cuboidsearch.search as search_module

    def no_block(*args):
        raise AssertionError("a block was graded")

    monkeypatch.setattr(search_module, "_process_block", no_block)
    out = tmp_path / "out.jsonl"
    out.write_text("earlier output\n")
    with pytest.raises(FileNotFoundError):
        run(
            SearchSpace(height=4),
            checkpoint_path=str(tmp_path / "missing" / "ck.json"),
            output_path=str(out),
        )
    assert out.read_text() == "earlier output\n"
    assert not (tmp_path / "missing").exists()


def test_checkpoint_directory_that_is_a_file_fails_before_any_block(monkeypatch, tmp_path):
    # a checkpoint "directory" that exists as a regular file used to pass the
    # early check and fail only at the first write, after a block's records
    import cuboidsearch.search as search_module

    def no_block(*args):
        raise AssertionError("a block was graded")

    monkeypatch.setattr(search_module, "_process_block", no_block)
    (tmp_path / "file").write_text("not a directory\n")
    out = tmp_path / "out.jsonl"
    out.write_text("earlier output\n")
    with pytest.raises(NotADirectoryError):
        run(
            SearchSpace(height=4),
            checkpoint_path=str(tmp_path / "file" / "ck.json"),
            output_path=str(out),
        )
    assert out.read_text() == "earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["file", "out.jsonl"]


def test_run_keeps_nothing_per_block(monkeypatch):
    # a grid of 200,000 blocks, of which the run searches one: a run that
    # listed every block before grading would allocate about 26 MB here
    import tracemalloc

    import cuboidsearch.search as search_module

    monkeypatch.setattr(search_module, "grid_size", lambda space: 512 * 200_000)
    tracemalloc.start()
    try:
        summary = run(SearchSpace(height=4), jobs=1, block_size=512, max_blocks=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["cursor"] == summary["visited"] == 512
    assert summary["interrupted"] and not summary["completed"]
    assert peak < 2_000_000


def test_interrupt_and_resume_match_uninterrupted(tmp_path):
    space = SearchSpace(height=4)
    straight = str(tmp_path / "straight.jsonl")
    run(space, jobs=1, checkpoint_path=None, output_path=straight, block_size=64)

    out = str(tmp_path / "resumed.jsonl")
    ck = str(tmp_path / "ck.json")
    first = run(space, jobs=1, checkpoint_path=ck, output_path=out, block_size=64, max_blocks=3)
    assert first["interrupted"] and not first["completed"]
    second = run(space, jobs=2, checkpoint_path=ck, output_path=out, block_size=64)
    assert second["completed"]
    assert records_in_order(out) == records_in_order(straight)

    reference = run(space, jobs=1, checkpoint_path=None, output_path=None)
    assert second["counts"] == reference["counts"]
    assert second["singular"] == reference["singular"]


def test_ranged_interrupt_and_resume_match_full_grid(tmp_path):
    # the cursor counts in-range points only, so a ranged run resumes on
    # that index and still reproduces the full grid's records in its range
    space = SearchSpace(height=6, b_min=F(-1), b_max=F(5, 2), c_min=F(0), c_max=F(4))
    straight = str(tmp_path / "straight.jsonl")
    whole = run(space, jobs=1, checkpoint_path=None, output_path=straight)
    assert whole["total"] == whole["visited"] == len(list(enumerate_points(space)))

    out = str(tmp_path / "resumed.jsonl")
    ck = str(tmp_path / "ck.json")
    first = run(space, jobs=1, checkpoint_path=ck, output_path=out, block_size=16, max_blocks=5)
    assert first["interrupted"] and first["cursor"] == first["visited"] == 80
    second = run(space, jobs=2, checkpoint_path=ck, output_path=out, block_size=16)
    assert second["completed"]
    assert second["visited"] == whole["total"] - 80
    assert second["counts"] == whole["counts"]
    assert records_in_order(out) == records_in_order(straight)

    full = str(tmp_path / "full.jsonl")
    run(SearchSpace(height=6), jobs=1, checkpoint_path=None, output_path=full)
    in_range = [
        record
        for record in records_in_order(full)
        if -1 <= parse_rational(record["b"]) <= F(5, 2)
        and 0 <= parse_rational(record["c"]) <= 4
    ]
    assert in_range and records_in_order(out) == in_range


def test_fibre_walks_only_in_range_points():
    space = SearchSpace(height=20, b_min=F(3, 7), b_max=F(3, 7), c_min=F(1), c_max=F(2))
    expected = sum(1 for c in fraction_values(20) if 1 <= c <= 2)
    summary = run(space, jobs=1, checkpoint_path=None, output_path=None)
    assert summary["completed"]
    assert summary["total"] == summary["visited"] == expected


def test_empty_range_completes_at_once(tmp_path):
    # a range in order that holds no value of height 4 or less
    out = str(tmp_path / "records.jsonl")
    space = SearchSpace(height=4, b_min=F(1, 6), b_max=F(1, 5))
    summary = run(space, jobs=2, checkpoint_path=str(tmp_path / "ck.json"), output_path=out)
    assert summary["completed"] and not summary["interrupted"]
    assert summary["total"] == summary["visited"] == summary["cursor"] == 0
    assert load_records(out) == []
    assert list(enumerate_points(space)) == []


@pytest.mark.parametrize("axis", ["b", "c"])
def test_inverted_range_is_refused(axis):
    # an inverted range used to search nothing and report completed=True
    with pytest.raises(ValueError, match=f"{axis}_min 3 exceeds {axis}_max 1"):
        SearchSpace(height=4, **{f"{axis}_min": F(3), f"{axis}_max": F(1)})
    # a range of one value stays legal
    assert grid_size(SearchSpace(height=4, **{f"{axis}_min": F(1), f"{axis}_max": F(1)})) == 23


def test_resume_drops_uncheckpointed_tail(tmp_path):
    # simulate dying after records were flushed but before the checkpoint
    # advanced: records at or past the cursor plus a torn final line
    space = SearchSpace(height=4)
    straight = str(tmp_path / "straight.jsonl")
    run(space, jobs=1, checkpoint_path=None, output_path=straight, block_size=64)

    out = str(tmp_path / "crashed.jsonl")
    ck = str(tmp_path / "ck.json")
    partial = run(space, jobs=1, checkpoint_path=ck, output_path=out, block_size=64, max_blocks=2)
    cursor = partial["cursor"]
    tail = [
        record
        for record in load_records(straight)
        if point_index(space, parse_rational(record["b"]), parse_rational(record["c"])) >= cursor
    ]
    assert tail, "need records past the cursor for a meaningful simulation"
    with open(out, "a", encoding="utf-8") as handle:
        for record in tail[:3]:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.write('{"torn":')

    final = run(space, jobs=1, checkpoint_path=ck, output_path=out, block_size=64)
    assert final["completed"]
    assert records_in_order(out) == records_in_order(straight)


def test_resumed_output_is_byte_identical(tmp_path):
    # a run cut after each of two blocks and resumed on two workers, with a
    # record past its cursor and a torn line left behind by the cut, writes
    # the bytes of an uninterrupted run but for the timestamps
    space = SearchSpace(height=6)
    straight = tmp_path / "straight.jsonl"
    run(space, jobs=1, checkpoint_path=None, output_path=str(straight), block_size=300)
    out = tmp_path / "resumed.jsonl"
    ck = str(tmp_path / "ck.json")
    for _ in range(2):
        run(space, jobs=1, checkpoint_path=ck, output_path=str(out), block_size=300, max_blocks=1)
    lines = straight.read_text(encoding="utf-8").splitlines(keepends=True)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(lines[-1] + '{"b": "1/')
    run(space, jobs=2, checkpoint_path=ck, output_path=str(out), block_size=300)

    def without_ts(path):
        return re.sub(r', "ts": "[^"]*"', "", path.read_text(encoding="utf-8"))

    assert len(lines) == 59
    assert without_ts(out) == without_ts(straight)


def test_resume_drops_lines_that_are_not_records(tmp_path):
    # valid JSON that is not a record, in the records file and in the hit
    # file, is dropped on resume as a torn line is
    space = SearchSpace(height=4)
    straight = str(tmp_path / "straight.jsonl")
    run(space, jobs=1, checkpoint_path=None, output_path=straight, block_size=64)

    out = str(tmp_path / "records.jsonl")
    ck = str(tmp_path / "ck.json")
    run(space, jobs=1, checkpoint_path=ck, output_path=out, block_size=64, max_blocks=2)
    junk = '[1]\n{"b": 1, "c": "1"}\n"1/2"\nnull\n{"b": "1", "c": null}\n'
    for path in (out, hits_path_for(out)):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(junk)

    final = run(space, jobs=1, checkpoint_path=ck, output_path=out, block_size=64)
    assert final["completed"]
    assert records_in_order(out) == records_in_order(straight)
    assert load_records(hits_path_for(out)) == []


def test_resume_after_completion_is_idempotent(tmp_path):
    space = SearchSpace(height=2)
    out = str(tmp_path / "records.jsonl")
    ck = str(tmp_path / "ck.json")
    first = run(space, jobs=1, checkpoint_path=ck, output_path=out)
    records_after_first = records_in_order(out)
    again = run(space, jobs=1, checkpoint_path=ck, output_path=out)
    assert again["counts"] == first["counts"]
    assert again["visited"] == 0  # nothing left to do
    assert records_in_order(out) == records_after_first


def test_fresh_start_replaces_earlier_output(tmp_path):
    # a run with no checkpoint to resume starts the output and hit files
    # empty instead of appending to an earlier run's
    space = SearchSpace(height=4)
    out = str(tmp_path / "records.jsonl")
    run(space, jobs=1, checkpoint_path=None, output_path=out)
    assert len(load_records(out)) == 32
    with open(hits_path_for(out), "w", encoding="utf-8") as handle:
        handle.write('{"b": "1", "c": "1", "level": 6}\n')

    summary = run(space, jobs=1, checkpoint_path=str(tmp_path / "ck.json"), output_path=out)
    points = [(record["b"], record["c"]) for record in load_records(out)]
    assert len(points) == len(set(points)) == 32
    assert sum(summary["counts"].values()) - summary["counts"][0] == 32
    assert load_records(hits_path_for(out)) == []


def test_fresh_start_parses_no_earlier_line(monkeypatch, tmp_path):
    # a run with no checkpoint to resume drops every earlier line unread:
    # with the search's line parsers made to raise, an output and a hit
    # file that hold records, a torn line and garbage still start empty
    import cuboidsearch.search as search_module

    space = SearchSpace(height=4)
    out = str(tmp_path / "records.jsonl")
    run(space, jobs=1, checkpoint_path=None, output_path=out)
    first = records_in_order(out)
    for path in (out, hits_path_for(out)):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"b": "1", "c": "1", "level": 6}\nnot json\n{"b": "1/')

    def never(*args):
        raise AssertionError(f"an earlier line was parsed: {args[0]!r}")

    monkeypatch.setattr(search_module.json, "loads", never)
    monkeypatch.setattr(search_module, "parse_rational", never)
    summary = run(space, jobs=1, checkpoint_path=None, output_path=out)
    monkeypatch.undo()
    assert summary["completed"]
    assert records_in_order(out) == first and len(first) == 32
    assert load_records(hits_path_for(out)) == []


def test_each_record_serialized_once(monkeypatch, tmp_path):
    # the worker builds each record's line once, and the run writes it as
    # built: the block renders one template, which is filled once per
    # survivor off the row b = 0 and once for that row, whose 22 lines are
    # cut from it
    import cuboidsearch.search as search_module

    built = []
    templates = []
    fills = []
    process_block = search_module._process_block
    record_template = search_module._record_template

    class CountedTemplate(str):
        def __mod__(self, fields):
            fills.append(fields)
            return str.__mod__(self, fields)

    def recording_block(*args):
        result = process_block(*args)
        built.extend(result["lines"].splitlines(keepends=True))
        return result

    def counting_template(*args, **kwargs):
        templates.append(record_template(*args, **kwargs))
        return CountedTemplate(templates[-1])

    monkeypatch.setattr(search_module, "_process_block", recording_block)
    monkeypatch.setattr(search_module, "_record_template", counting_template)
    space = SearchSpace(height=4)
    run(space, jobs=1, checkpoint_path=None, output_path=None)
    assert len(built) == 32
    assert len(templates) == 1
    assert len(fills) == 10 + 1
    built.clear()
    out = tmp_path / "records.jsonl"
    run(space, jobs=1, checkpoint_path=None, output_path=str(out))
    assert len(built) == 32
    assert out.read_text(encoding="utf-8") == "".join(built)


def test_checkpoint_mismatch_detected(tmp_path):
    out = str(tmp_path / "records.jsonl")
    ck = str(tmp_path / "ck.json")
    run(SearchSpace(height=2), jobs=1, checkpoint_path=ck, output_path=out)
    with pytest.raises(CheckpointMismatch):
        run(SearchSpace(height=3), jobs=1, checkpoint_path=ck, output_path=out)
    with pytest.raises(CheckpointMismatch):
        run(
            SearchSpace(height=2, e21_form="common"),
            jobs=1,
            checkpoint_path=ck,
            output_path=out,
        )


def test_version_one_checkpoint_refused(tmp_path):
    # version 1 counted every grid position; its cursor means something else now
    space = SearchSpace(height=2, c_min=F(0))
    ck = str(tmp_path / "ck.json")
    run(space, jobs=1, checkpoint_path=ck, output_path=None, block_size=4, max_blocks=1)
    with open(ck, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["version"] == 2
    payload["version"] = payload["config"]["version"] = 1
    with open(ck, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    with pytest.raises(CheckpointMismatch):
        run(space, jobs=1, checkpoint_path=ck, output_path=None)


def valid_checkpoint(tmp_path):
    space = SearchSpace(height=2)
    ck = str(tmp_path / "ck.json")
    run(space, jobs=1, checkpoint_path=ck, output_path=None, block_size=4, max_blocks=1)
    with open(ck, encoding="utf-8") as handle:
        return space, ck, json.load(handle)


def drop_level(payload):
    del payload["counts"]["3"]


def string_cursor(payload):
    payload["cursor"] = str(payload["cursor"])


def null_digest(payload):
    payload["config_digest"] = None


def cursor_past_grid(payload):
    # the digest stays valid: it covers the configuration, not the progress
    payload["cursor"] = 10**9


def counts_off_cursor(payload):
    payload["counts"]["2"] += 1


def singular_above_level_0(payload):
    payload["singular"] = payload["counts"]["0"] + 1


@pytest.mark.parametrize(
    "text",
    [
        "not json\n",  # not JSON at all
        '{"version": 2}\n',  # a version and nothing else
        "[2]\n",  # JSON, but not an object
    ],
    ids=["not-json", "version-only", "array"],
)
def test_malformed_checkpoint_file_refused(tmp_path, text):
    ck = tmp_path / "ck.json"
    ck.write_text(text, encoding="utf-8")
    with pytest.raises(CheckpointMismatch):
        run(SearchSpace(height=2), jobs=1, checkpoint_path=str(ck), output_path=None)


@pytest.mark.parametrize(
    "damage",
    [
        drop_level,
        string_cursor,
        null_digest,
        cursor_past_grid,
        counts_off_cursor,
        singular_above_level_0,
    ],
)
def test_checkpoint_with_bad_field_refused(tmp_path, damage):
    space, ck, payload = valid_checkpoint(tmp_path)
    damage(payload)
    with open(ck, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    with pytest.raises(CheckpointMismatch):
        run(space, jobs=1, checkpoint_path=ck, output_path=None)


def assert_checkpoint_is_json_dumps(path, space, summary):
    """The checkpoint's bytes are json.dumps of its payload, and it holds the run's state."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["config"] == space_config(space)
    assert payload["config_digest"] == config_digest(space)
    assert payload["version"] == 2
    assert payload["cursor"] == summary["cursor"]
    assert payload["counts"] == {str(level): n for level, n in summary["counts"].items()}
    assert payload["singular"] == summary["singular"]


@pytest.mark.parametrize(
    "space",
    [
        SearchSpace(height=6),
        SearchSpace(height=6, e21_form="common"),
        SearchSpace(height=6, b_min=F(-1, 2), b_max=F(3), c_min=F(-5, 4), c_max=F(2, 3)),
        SearchSpace(height=6, b_min=F(0), c_max=F(-1, 6), e21_form="common"),
    ],
)
def test_checkpoint_bytes_are_json_dumps(tmp_path, space):
    # the checkpoint template, with ranges of None and of p/q and both
    # forms, after an interrupted run and after its resume
    ck = str(tmp_path / "ck.json")
    first = run(space, jobs=1, checkpoint_path=ck, output_path=None, block_size=50, max_blocks=2)
    assert first["interrupted"] and first["cursor"] == 100
    assert_checkpoint_is_json_dumps(ck, space, first)
    second = run(space, jobs=1, checkpoint_path=ck, output_path=None, block_size=50)
    assert second["completed"]
    assert_checkpoint_is_json_dumps(ck, space, second)


def test_checkpoint_bytes_are_json_dumps_past_two_to_the_64(tmp_path):
    # counts no grid here reaches, written and read back exactly
    import cuboidsearch.search as search_module

    space = SearchSpace(height=3, b_min=F(1, 3), c_max=F(-2, 3), e21_form="common")
    counts = {level: 2**64 + 3**level for level in range(7)}
    summary = {"cursor": sum(counts.values()), "counts": counts, "singular": 2**65}
    ck = str(tmp_path / "ck.json")
    search_module._save_checkpoint(
        ck, search_module._checkpoint_header(space), summary["cursor"], counts, summary["singular"]
    )
    assert_checkpoint_is_json_dumps(ck, space, summary)


def test_ratio_text_is_str_of_fraction():
    # the search writes a residual pair (n, d), d > 0, with one gcd
    from cuboidsearch.search import _ratio_text

    values = [0, 1, 2, 3, 4, 6, 12, 35, 2**64, 3**45 * 2**7]
    for n, d in itertools.product(values + [-v for v in values], values[1:]):
        assert _ratio_text(n, d) == str(F(n, d)), (n, d)


def test_config_digest_distinguishes_spaces():
    assert config_digest(SearchSpace(height=2)) != config_digest(SearchSpace(height=3))
    assert config_digest(SearchSpace(height=2)) != config_digest(
        SearchSpace(height=2, b_min=F(0))
    )
    assert config_digest(SearchSpace(height=2)) == config_digest(SearchSpace(height=2))


# The reasons of levels 1 to 6, read off the Verdicts that verifier builds.
REASONS = sorted(
    set(re.findall(r'Verdict\(\s*([1-6]),\s*"([a-z0-9-]+)"', inspect.getsource(verifier)))
)
RECORD_KEYS = ["b", "c", "e21_form", "level", "reason", "residuals", "ts"]


def test_record_line_is_json_dumps():
    # every record field is a rational string, a level, or a name from a
    # closed set, so the template needs no escaping; its line must be what
    # json.dumps writes for the record built field by field
    import cuboidsearch.search as search_module

    assert len(REASONS) == 8 and {level for level, _ in REASONS} == {"1", "2", "3", "4", "5", "6"}
    residual_shapes = [(), (F(7),), (F(-3, 2), F(0)), (F(2**70 + 1, 3), F(-(2**65), 2**64 + 1))]
    points = [(F(1, 2), F(1, 2)), (F(-3, 2), F(7, 8)), (F(0), F(-12))]
    for (level, reason), residuals, (b, c), e21_form, ts in itertools.product(
        REASONS, residual_shapes, points, ["printed", "common"],
        ["2026-01-02T03:04:05+00:00", search_module._now()],
    ):
        verdict = Verdict(int(level), reason, residuals=residuals)
        record = {
            "b": str(b),
            "c": str(c),
            "level": int(level),
            "reason": reason,
            "residuals": [str(r) for r in residuals],
            "e21_form": e21_form,
            "ts": ts,
        }
        texts = ", ".join('"%s"' % r for r in residuals)
        line = search_module._record_template(e21_form, ts) % (b, c, int(level), reason, texts)
        assert line == json.dumps(record, sort_keys=True) + "\n"
        assert json.loads(line) == record
        made = make_record(b, c, verdict, e21_form)
        assert sorted(made) == RECORD_KEYS
        assert dict(made, ts=ts) == record


def test_search_lines_are_json_dumps_height_12(tmp_path):
    # each line the search writes is json.dumps of its record, with the
    # seven record keys, and only the block's timestamp varies
    out = tmp_path / "records.jsonl"
    run(SearchSpace(height=12), jobs=1, checkpoint_path=None, output_path=str(out))
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 234
    for line in lines:
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True) + "\n"
        assert sorted(record) == RECORD_KEYS
    assert len({json.loads(line)["ts"] for line in lines}) == 1  # one block


def test_records_replay_through_grade(tmp_path):
    out = str(tmp_path / "records.jsonl")
    run(SearchSpace(height=4), jobs=1, checkpoint_path=None, output_path=out)
    records = load_records(out)
    assert records
    for record in records:
        verdict = grade(parse_rational(record["b"]), parse_rational(record["c"]))
        assert verdict.level == record["level"]
        assert verdict.reason == record["reason"]
        assert [str(r) for r in verdict.residuals] == record["residuals"]


def root_zero_points(space, sieve):
    """The points off b = 0, nonsingular and kept by the first ``sieve`` masks, with a0 = 0.

    Yields (b, c, b_text, c_text, edge) in cursor order.
    """
    axes = _axes(space)
    for i, (p, q) in enumerate(axes.b_pairs):
        if not p:
            continue
        for j in piece_columns(axes.row_masks[i][:sieve], 0, len(axes.cs)):
            edge = edge_integer_cubic(p, q, *axes.c_pairs[j])
            if j not in axes.singular[i] and not edge[3]:
                yield axes.bs[i], axes.cs[j], axes.b_texts[i], axes.c_texts[j], edge


# The 2-adic mask and the first 11 moduli sieve every full grid up to H=24,
# and each larger grid adds moduli, so at H=30 these masks keep every point
# that any full grid with H <= 30 keeps.  CI's ranged H=40 space is taken
# with its own masks.
ROOT_ZERO_SPACES = [
    (SearchSpace(height=30), 12),
    (SearchSpace(height=40, b_min=F(-3, 2), b_max=F(5, 3), c_min=F(-2), c_max=F(7, 3)), None),
]


def root_zero_residuals(edge):
    """The residual texts the search writes at a point on e30 = 0, or None at level 0."""
    from cuboidsearch.search import _ratio_text

    ys = root_numerators(*edge)
    if ys is None:
        return None
    return ", ".join(['"%s"' % _ratio_text(y, 2 * edge[0]) for y in ys if y <= 0])


@pytest.mark.parametrize("space, sieve", ROOT_ZERO_SPACES)
def test_root_zero_closed_form_is_edge_split_at_every_kept_point(space, sieve):
    # at every kept point on e30 = 0, root_numerators' None is grade's
    # level 0, and past it the line of the roots <= 0 is the line of
    # grade's verdict, which the edge split puts at level 2
    from cuboidsearch.search import _record_template

    template = _record_template(space.e21_form, "T")
    zeros = set()
    for b, c, b_text, c_text, edge in root_zero_points(space, sieve):
        residuals = root_zero_residuals(edge)
        verdict = grade(b, c, space.e21_form)
        assert (residuals is None) == (verdict.level == 0), (b, c)
        if residuals is None:
            continue
        assert (verdict.level, verdict.reason) == (2, "edge-root-nonpositive"), (b, c)
        texts = ", ".join('"%s"' % r for r in verdict.residuals)
        line = template % (b_text, c_text, 2, "edge-root-nonpositive", residuals)
        assert line == template % (b_text, c_text, verdict.level, verdict.reason, texts), (b, c)
        zeros.add(verdict.residuals.count(0))
    # some residual lists hold a quadratic root equal to 0 beside the root 0
    assert zeros == {1, 2}


def test_root_zero_closed_form_on_a_box():
    # every x (a3 x^2 + a2 x + a1) in a box, a1 = 0 and double roots
    # included: root_numerators gives None exactly when the integer
    # discriminant is not a square, and else the search's texts are the
    # str of the roots <= 0, over 2 a3
    split = 0
    for a3, a2, a1 in itertools.product(range(1, 7), range(-13, 14), range(-13, 14)):
        edge = (a3, a2, a1, 0)
        residuals = root_zero_residuals(edge)
        if is_perfect_square(integer_discriminant(*edge)) is None:
            assert residuals is None, edge
            continue
        texts = ['"%s"' % F(y, 2 * a3) for y in root_numerators(*edge) if y <= 0]
        assert residuals == ", ".join(texts), edge
        split += 1
    assert split > 6 * 27


def test_stop_on_hit(monkeypatch, tmp_path):
    # no real hit is known; inject one to exercise the halt and the hit file
    import cuboidsearch.search as search_module

    # the target is a real level-1 point off e30 = 0, so it passes the sieve
    # and the level-0 test and is handed to grade (the survivors on e30 = 0
    # are written in closed form and are not)
    target = (F(-3, 2), F(7, 8))
    assert grade(*target).level == 1
    graded = []

    def fake_grade(b, c, *args):
        graded.append((b, c))
        if (b, c) == target:
            return Verdict(6, "perfect-cuboid")
        return grade(b, c, *args)

    monkeypatch.setattr(search_module, "grade", fake_grade)
    out = str(tmp_path / "records.jsonl")
    summary = run(
        SearchSpace(height=8, b_min=F(-3, 2), b_max=F(0), c_min=F(-1), c_max=F(1)),
        jobs=1,
        checkpoint_path=None,
        output_path=out,
        stop_on_hit=True,
        block_size=8,
    )
    assert summary["stopped_on_hit"]
    assert summary["hits"] == 1
    assert not summary["completed"]
    hits = load_records(hits_path_for(out))
    assert len(hits) == 1 and hits[0]["level"] == 6
    # the hit also appears in the main record stream
    assert any(r["level"] == 6 for r in load_records(out))
    assert target in graded


# a level-1 point off e30 = 0, index 179 of the 1,350 points of HIT_SPACE,
# at which a level-6 verdict is injected so that the hits file is written
HIT = (F(-3, 2), F(7, 8))
HIT_SPACE = SearchSpace(height=8, b_min=F(-3, 2), b_max=F(0), c_min=F(-1), c_max=F(1))
# blocks of 179 points: the first cut lies just before HIT
HIT_BLOCK = 179


def inject_hit(monkeypatch):
    """Make the search grade HIT at level 6, and mask ``ts`` and ``updated``."""
    import cuboidsearch.search as search_module

    def fake_grade(b, c, *args):
        if (b, c) == HIT:
            return Verdict(6, "perfect-cuboid")
        return grade(b, c, *args)

    monkeypatch.setattr(search_module, "grade", fake_grade)
    monkeypatch.setattr(search_module, "_now", lambda: "T")


def output_hits_checkpoint(out, ck):
    with open(out, "rb") as a, open(hits_path_for(out), "rb") as b, open(ck, "rb") as c:
        return a.read(), b.read(), c.read()


def test_short_writes_give_the_same_files(monkeypatch, tmp_path):
    # os.write may take fewer bytes than it is given; the write path must
    # loop until every byte is out, so runs whose writes take at most 7
    # bytes each leave the bytes that whole writes leave, for the output,
    # the hits file and the checkpoint, through a resume's rewrite too
    import cuboidsearch.search as search_module

    inject_hit(monkeypatch)
    # HIT lies in the first run's blocks, so a resume rewrites the hits file
    # as well as the output
    space = SearchSpace(height=8, b_min=F(-3, 2), b_max=F(0), c_min=F(0), c_max=F(1))
    assert point_index(space, *HIT) < 150

    def files(tag):
        out, ck = str(tmp_path / f"{tag}.jsonl"), str(tmp_path / f"{tag}.json")
        first = run(space, checkpoint_path=ck, output_path=out, block_size=50, max_blocks=3)
        assert first["interrupted"]
        assert run(space, checkpoint_path=ck, output_path=out, block_size=50)["completed"]
        return output_hits_checkpoint(out, ck)

    whole = files("whole")
    assert all(whole) and whole[1].count(b"\n") == 1
    write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(len(data))
        return write(fd, data[:7])

    monkeypatch.setattr(search_module.os, "write", short_write)
    assert files("short") == whole
    assert max(sizes) > 7 and len(sizes) > sum(map(len, whole)) // 7


# --- resume after torn writes ---------------------------------------------------
#
# A process killed at any moment leaves files that these tests write
# directly: the .tmp of an atomic write, and records written after the last
# checkpoint.  Each resume must leave the bytes of a run never interrupted.


def uninterrupted_files(tmp_path):
    out, ck = str(tmp_path / "straight.jsonl"), str(tmp_path / "straight.json")
    assert run(HIT_SPACE, checkpoint_path=ck, output_path=out, block_size=HIT_BLOCK)["completed"]
    files = output_hits_checkpoint(out, ck)
    assert files[1].count(b"\n") == 1 and b'"level": 6' in files[1]
    return files


def cut_run(tmp_path, blocks):
    """Paths of a run stopped after ``blocks`` blocks, as a kill between blocks leaves it."""
    out, ck = str(tmp_path / "records.jsonl"), str(tmp_path / "checkpoint.json")
    summary = run(HIT_SPACE, checkpoint_path=ck, output_path=out, block_size=HIT_BLOCK,
                  max_blocks=blocks)
    assert summary["cursor"] == blocks * HIT_BLOCK
    return out, ck


def resume(out, ck):
    assert run(HIT_SPACE, checkpoint_path=ck, output_path=out, block_size=HIT_BLOCK)["completed"]
    return output_hits_checkpoint(out, ck)


@pytest.mark.parametrize("blocks", [0, 1])
def test_resume_ignores_stale_tmp_files(monkeypatch, tmp_path, blocks):
    # a kill inside _atomic_write leaves the .tmp it was writing: half of a
    # later checkpoint, and part of the output that a resume's truncation
    # was writing back.  With blocks = 0 no checkpoint was ever completed,
    # so the resume starts afresh next to the stale .tmp files.
    inject_hit(monkeypatch)
    straight = uninterrupted_files(tmp_path)
    out, ck = cut_run(tmp_path, blocks)
    assert os.path.exists(ck) == bool(blocks)
    with open(ck + ".tmp", "wb") as handle:
        handle.write(straight[2][: len(straight[2]) // 2])
    with open(out + ".tmp", "wb") as handle:
        handle.write(straight[0][: len(straight[0]) // 3])
    with open(hits_path_for(out) + ".tmp", "wb") as handle:
        handle.write(straight[1][: len(straight[1]) // 2])
    assert resume(out, ck) == straight
    # the checkpoint's .tmp was overwritten and renamed by the first checkpoint
    # write; the output's by the truncation of a resume from a cursor, and a
    # fresh start removes the output's and the hits file's
    assert not os.path.exists(ck + ".tmp")
    assert not os.path.exists(out + ".tmp")
    # a resume rewrites the hits file only where one exists, and none was
    # written before the cursor
    assert os.path.exists(hits_path_for(out) + ".tmp") == bool(blocks)


def test_resume_drops_a_hit_written_past_the_checkpoint(monkeypatch, tmp_path):
    # a kill after a block's records and its hit were written, but before its
    # checkpoint, leaves the hits file ahead of the checkpoint's cursor: the
    # hit is the first point at or past it, so a resume that kept the records
    # at the cursor would write it twice
    inject_hit(monkeypatch)
    straight = uninterrupted_files(tmp_path)
    out, ck = cut_run(tmp_path, 1)
    assert not os.path.exists(hits_path_for(out))
    assert point_index(HIT_SPACE, *HIT) == HIT_BLOCK

    def index(line):
        record = json.loads(line)
        return point_index(HIT_SPACE, parse_rational(record["b"]), parse_rational(record["c"]))

    lines = straight[0].splitlines(keepends=True)
    block = [line for line in lines if HIT_BLOCK <= index(line) < 2 * HIT_BLOCK]
    assert block[0] == straight[1]
    with open(out, "ab") as handle:
        handle.write(b"".join(block) + block[-1][:20])
    with open(hits_path_for(out), "ab") as handle:
        handle.write(straight[1])
    assert resume(out, ck) == straight


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
def test_failed_block_leaves_no_file_open(monkeypatch, tmp_path):
    # a block that raises after the output and hits files are open must not
    # leave their descriptors open
    import cuboidsearch.search as search_module

    calls = []

    def block_then_failure(space, start, end):
        calls.append(start)
        if len(calls) > 1:
            raise RuntimeError("block failed")
        counts = dict.fromkeys(range(7), 0)
        counts[0] = end - start
        return {"end": end, "counts": counts, "singular": 0, "lines": "x\n", "hits": "x\n"}

    monkeypatch.setattr(search_module, "_process_block", block_then_failure)
    out = str(tmp_path / "out.jsonl")
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(RuntimeError, match="block failed"):
        run(SearchSpace(height=4), checkpoint_path=str(tmp_path / "ck.json"),
            output_path=out, block_size=100)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert calls == [0, 100]
    with open(out) as lines, open(hits_path_for(out)) as hits:
        assert lines.read() == hits.read() == "x\n"


def test_e21_form_recorded_and_no_low_height_discrepancies(tmp_path):
    printed_out = str(tmp_path / "printed.jsonl")
    common_out = str(tmp_path / "common.jsonl")
    run(SearchSpace(height=4, e21_form="printed"), jobs=1, checkpoint_path=None, output_path=printed_out)
    run(SearchSpace(height=4, e21_form="common"), jobs=1, checkpoint_path=None, output_path=common_out)
    printed_records = load_records(printed_out)
    common_records = load_records(common_out)
    assert all(r["e21_form"] == "printed" for r in printed_records)
    assert all(r["e21_form"] == "common" for r in common_records)
    # nothing reaches the auxiliary stage at this height, so the forms agree
    assert e21_form_discrepancies(printed_records, common_records) == []


def test_e21_form_discrepancies_detects_differences():
    left = [
        {"b": "1", "c": "2", "level": 5, "reason": "pythagoras-failed"},
        {"b": "1", "c": "3", "level": 2, "reason": "edge-root-nonpositive"},
    ]
    right = [
        {"b": "1", "c": "2", "level": 4, "reason": "e21-printed-pole"},
        {"b": "1", "c": "3", "level": 2, "reason": "edge-root-nonpositive"},
    ]
    diffs = e21_form_discrepancies(left, right)
    assert len(diffs) == 1
    assert diffs[0]["b"] == "1" and diffs[0]["c"] == "2"
    assert diffs[0]["level5_plus"]


@pytest.mark.parametrize(
    "height, e21_form", [(8, "printed"), (8, "common"), (10, "printed"), (12, "printed")]
)
def test_search_matches_grading_every_point(tmp_path, height, e21_form):
    # the search grades only the points that pass the level-0 test; a loop
    # that grades every point must give the same counts and records
    space = SearchSpace(height=height, e21_form=e21_form)
    counts = {level: 0 for level in range(7)}
    singular = 0
    expected = []
    for b, c in enumerate_points(space):
        verdict = grade(b, c, e21_form)
        counts[verdict.level] += 1
        singular += verdict.reason == "singular"
        if verdict.level >= 1:
            record = make_record(b, c, verdict, e21_form)
            del record["ts"]
            expected.append(((b, c), record))
    expected = [record for _, record in sorted(expected, key=lambda item: item[0])]

    out = str(tmp_path / "records.jsonl")
    summary = run(space, jobs=1, checkpoint_path=None, output_path=out)
    assert summary["counts"] == counts
    assert summary["singular"] == singular
    assert canonical_records(out) == expected


@pytest.mark.parametrize("block_size, jobs", [(1, 1), (7, 1), (48, 1), (512, 1), (7, 2)])
def test_block_cuts_do_not_change_output(tmp_path, block_size, jobs):
    # height-6 rows hold 47 points: blocks of 1 and 7 cut rows into pieces,
    # blocks of 48 straddle two rows, 512 spans many rows, and the default
    # block holds the whole 2,209-point grid
    space = SearchSpace(height=6)
    summaries, paths = {}, {}
    for key, size, workers in (("default", DEFAULT_BLOCK_SIZE, 1), ("cut", block_size, jobs)):
        paths[key] = str(tmp_path / f"records-{key}.jsonl")
        summaries[key] = run(
            space, jobs=workers, checkpoint_path=None, output_path=paths[key], block_size=size
        )
    assert len(fraction_values(6)) == 47
    assert summaries["cut"]["counts"] == summaries["default"]["counts"]
    assert summaries["cut"]["singular"] == summaries["default"]["singular"]
    assert canonical_records(paths["cut"]) == canonical_records(paths["default"])


def test_checkpoint_written_once_per_default_block(monkeypatch, tmp_path):
    import cuboidsearch.search as search_module

    writes = []
    save = search_module._save_checkpoint

    def counting_save(*args):
        writes.append(args[2])
        save(*args)

    monkeypatch.setattr(search_module, "_save_checkpoint", counting_save)
    # several default blocks, so one block stops the run mid-grid
    space = SearchSpace(height=30)
    straight = str(tmp_path / "straight.jsonl")
    whole = run(space, jobs=1, checkpoint_path=str(tmp_path / "straight.ck"), output_path=straight)
    assert whole["total"] == 1_234_321
    assert len(writes) == -(-1_234_321 // DEFAULT_BLOCK_SIZE)
    assert writes == sorted(set(writes)) and writes[-1] == 1_234_321

    # one default block, then a resume at the default size, is the straight run
    out, ck = str(tmp_path / "resumed.jsonl"), str(tmp_path / "resumed.ck")
    first = run(space, jobs=1, checkpoint_path=ck, output_path=out, max_blocks=1)
    assert first["interrupted"] and first["cursor"] == DEFAULT_BLOCK_SIZE
    second = run(space, jobs=1, checkpoint_path=ck, output_path=out)
    assert second["completed"]
    assert second["counts"] == whole["counts"]
    assert second["singular"] == whole["singular"]
    assert canonical_records(out) == canonical_records(straight)


def test_prefilter_rejects_most_nonsingular_points(tmp_path):
    summary = run(SearchSpace(height=6), jobs=1, checkpoint_path=None, output_path=None)
    nonsingular = summary["visited"] - summary["singular"]
    rejected_at_prefilter = summary["counts"][0] - summary["singular"]
    assert rejected_at_prefilter >= 0.95 * nonsingular


def test_record_stream_pinned_height_6(tmp_path):
    # sha256 of the canonical records of the default height-6 search: any
    # change to a logged level, reason or residual changes it
    out = str(tmp_path / "records.jsonl")
    summary = run(SearchSpace(height=6), jobs=1, checkpoint_path=None, output_path=out)
    records = canonical_records(out)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()
    assert summary["counts"] == {0: 2150, 1: 0, 2: 59, 3: 0, 4: 0, 5: 0, 6: 0}
    assert digest == "24300ae4ff43f5ec0c3defa3b3b4f543c97fe769a8e85fffe95699864a416f78"


# --- the residue sieve -------------------------------------------------------


def test_grade_puts_every_sieved_point_at_level_0_height_16(monkeypatch):
    # exhaustive: grade stops at level 0 at every point of the H=16 grid
    # that the search's masks remove, both the 2-adic cells alone (the
    # first mask of a row) and all the masks together (fact F4).  The
    # masks are built for every modulus of RESIDUE_MODULI, though a grid
    # this small is sieved by the first 11 alone, and kept out of the cache
    import cuboidsearch.sieve as sieve_module

    space = SearchSpace(height=16)
    assert residue_moduli(grid_size(space)) == RESIDUE_MODULI[:11]
    monkeypatch.setattr(sieve_module, "residue_moduli", lambda size: RESIDUE_MODULI)
    axes = _axes.__wrapped__(space)
    width = len(axes.cs)
    skipped = seen = 0
    for b, masks in zip(axes.bs, axes.row_masks):
        screened = set(piece_columns(masks[:1], 0, width))
        kept = set(piece_columns(masks, 0, width))
        assert kept <= screened, b
        for j, c in enumerate(axes.cs):
            if j not in kept:
                assert grade(b, c).level == 0, (b, c)
        skipped += width - len(screened)
        seen += len(kept)
    assert width == 319
    assert all(len(masks) == 1 + len(RESIDUE_MODULI) for masks in axes.row_masks)
    assert skipped == 56144  # 55% of the grid
    assert seen == 372  # the points the masks keep, 0.37% of the grid, 319 of them at b = 0


def test_unsieved_search_is_grade_at_every_point_height_8(monkeypatch, tmp_path):
    # with the sieve's AND made to keep every column, the discriminant test
    # alone decides level 0 at every point off b = 0, the singular ones
    # included, which the masks never keep up to H=100; the search must
    # still be grade at every point
    import cuboidsearch.search as search_module

    monkeypatch.setattr(search_module, "piece_columns", lambda masks, j0, j1: range(j0, j1))
    space = SearchSpace(height=8)
    counts, singular, records = graded_every_point(space)
    out = str(tmp_path / "records.jsonl")
    summary = run(space, jobs=1, checkpoint_path=None, output_path=out, block_size=1000)
    assert summary["counts"] == counts and summary["singular"] == singular
    assert records_in_order(out) == records


def v2(x):
    """The exponent of 2 in a nonzero rational, by repeated halving."""
    count = 0
    while x.numerator % 2 == 0:
        x, count = x / 2, count + 1
    while x.denominator % 2 == 0:
        x, count = x * 2, count - 1
    return count


def c_class(c):
    """The 2-adic class of a c column: v2(c) clamped to -1..2, and 2 for c = 0."""
    return 2 if c == 0 else min(max(v2(c), -1), 2)


def test_sieve_screens_the_kept_classes():
    # every row piece gets exactly its kept classes from its 2-adic mask, in
    # column order, and the AND of all its masks, cut to the piece
    axes = _axes(SearchSpace(height=8))
    width = len(axes.cs)
    for b, masks in zip(axes.bs, axes.row_masks):
        kept = SCREENED_C_CLASSES.get(v2(b)) if b else None
        for j0, j1 in ((0, width), (3, 40), (17, 18)):
            columns = piece_columns(masks[:1], j0, j1)
            if kept is None:
                assert columns == list(range(j0, j1)), b
            else:
                expected = [j for j in range(j0, j1) if c_class(axes.cs[j]) in kept]
                assert columns == expected, b
            common = set(range(j0, j1)).intersection(
                *(piece_columns((mask,), j0, j1) for mask in masks)
            )
            assert piece_columns(masks, j0, j1) == sorted(common), b
    assert c_class(F(0)) == 2
    assert [c_class(c) for c in (F(1, 8), F(-1, 2), F(3), F(-6, 5), F(12), F(16, 3))] == [
        -1, -1, 0, 1, 2, 2,
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_full_grid_pinned_height_30(tmp_path, jobs):
    # the 1,234,321 points of H=30, counts and records digest taken before
    # the residue sieve existed, with jobs=1
    out = str(tmp_path / "records.jsonl")
    summary = run(SearchSpace(height=30), jobs=jobs, checkpoint_path=None, output_path=out)
    records = canonical_records(out)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()
    assert summary["completed"] and summary["visited"] == 1_234_321
    assert summary["counts"] == {0: 1233095, 1: 8, 2: 1218, 3: 0, 4: 0, 5: 0, 6: 0}
    assert summary["singular"] == 1522
    assert digest == "875d78c7a2ddf1f924c3a0fd1b465a877b1070c4cd41d99bcc9d224273e95d0c"


def test_fibre_in_empty_row_completes_at_level_0(monkeypatch, tmp_path):
    # b = 1 has v2(b) = 0: its 2-adic mask is empty, so the discriminant
    # test and the grading never run, and every point is counted at level 0.  c = 2 is the
    # row's singular column
    import cuboidsearch.search as search_module

    def never(name):
        def called(*args):
            raise AssertionError(f"{name} called on a sieved row: {args[:2]}")

        return called

    monkeypatch.setattr(search_module, "edge_integer_cubic", never("edge_integer_cubic"))
    monkeypatch.setattr(search_module, "grade", never("grade"))
    space = SearchSpace(height=12, b_min=F(1), b_max=F(1), c_min=F(1, 2), c_max=F(3))
    out = str(tmp_path / "records.jsonl")
    summary = run(space, jobs=1, checkpoint_path=None, output_path=out, block_size=7)
    points = list(enumerate_points(space))
    assert summary["completed"]
    assert summary["counts"] == {0: len(points), 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}
    assert summary["singular"] == sum(1 for b, c in points if classify(b, c)) == 1
    assert load_records(out) == []
    # the patches are live: the row b = -3/2 holds a survivor off e30 = 0,
    # (-3/2, 7/8), which reaches each of them in turn
    live = SearchSpace(height=12, b_min=F(-3, 2), b_max=F(-3, 2), c_min=F(1, 2), c_max=F(3))
    with pytest.raises(AssertionError, match="edge_integer_cubic called"):
        run(live, jobs=1, checkpoint_path=None, output_path=None)
    monkeypatch.setattr(search_module, "edge_integer_cubic", edge_integer_cubic)
    with pytest.raises(AssertionError, match="grade called"):
        run(live, jobs=1, checkpoint_path=None, output_path=None)


def test_grade_never_sees_a_singular_point(monkeypatch, tmp_path):
    # the search drops the singular columns by index before grading, even
    # where t is a square there (the origin has t = 0): no point whose edge
    # cubic is built, the first step at every kept column, is singular
    import cuboidsearch.search as search_module

    graded = []

    def checked_cubic(p, q, r, s):
        b, c = F(p, q), F(r, s)
        assert not classify(b, c), (b, c)
        graded.append((b, c))
        return edge_integer_cubic(p, q, r, s)

    monkeypatch.setattr(search_module, "edge_integer_cubic", checked_cubic)
    out = str(tmp_path / "records.jsonl")
    summary = run(SearchSpace(height=8), jobs=1, checkpoint_path=None, output_path=out)
    assert summary["singular"] == sum(
        1 for b, c in enumerate_points(SearchSpace(height=8)) if classify(b, c)
    )
    # the row b = 0 is written without grading (fact F5), and the tests of
    # that row below check it against grade; every survivor off it is graded
    row = len(fraction_values(8)) - 1
    assert all(b != 0 for b, _ in graded)
    survivors = [
        (parse_rational(r["b"]), parse_rational(r["c"])) for r in load_records(out) if r["b"] != "0"
    ]
    assert len(survivors) == sum(summary["counts"].values()) - summary["counts"][0] - row > 0
    assert set(survivors) <= set(graded)


# --- the row b = 0 (fact F5) ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def graded_every_point(space):
    """grade at every point of ``space``: its counts, singular count and records, in cursor order.

    The records are built field by field without their timestamps, apart
    from the search's line template.
    """
    counts = {level: 0 for level in range(7)}
    singular = 0
    records = []
    for b, c in enumerate_points(space):
        verdict = grade(b, c, space.e21_form)
        counts[verdict.level] += 1
        singular += verdict.reason == "singular"
        if verdict.level >= 1:
            records.append({
                "b": str(b),
                "c": str(c),
                "e21_form": space.e21_form,
                "level": verdict.level,
                "reason": verdict.reason,
                "residuals": [str(r) for r in verdict.residuals],
            })
    return counts, singular, records


def forbid_graded_path(monkeypatch):
    """Make the sieve's AND, the discriminant test, the singular columns and the grading raise."""
    import cuboidsearch.search as search_module

    def never(name):
        def called(*args):
            raise AssertionError(f"{name} called on the row b = 0: {args[:2]}")

        return called

    for name in (
        "piece_columns", "edge_integer_cubic", "singular_columns", "root_numerators", "grade",
    ):
        monkeypatch.setattr(search_module, name, never(name))


def test_forbidden_graded_path_is_live(monkeypatch):
    # off the row b = 0 the names forbid_graded_path patches are reached:
    # singular_columns when the tables are built, the others by a search
    # of the rows -3/2 <= b <= 1/2, whose first survivor, (-1/2, 0), is on
    # e30 = 0, and whose (-3/2, 7/8) is a record off it
    import cuboidsearch.search as search_module

    names = (
        "singular_columns", "piece_columns", "edge_integer_cubic", "root_numerators", "grade",
    )
    seams = {name: getattr(search_module, name) for name in names}
    forbid_graded_path(monkeypatch)
    space = SearchSpace(height=12, b_min=F(-3, 2), b_max=F(1, 2))
    with pytest.raises(AssertionError, match="singular_columns called"):
        _axes.__wrapped__(space)
    monkeypatch.setattr(search_module, "singular_columns", seams["singular_columns"])
    for name in names[1:]:
        with pytest.raises(AssertionError, match=f"{name} called"):
            run(space, jobs=1)
        monkeypatch.setattr(search_module, name, seams[name])
    counts = run(space, jobs=1)["counts"]
    assert counts[1] > 0 and counts[2] > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_b0_row_is_grade_at_every_point_height_100(monkeypatch, tmp_path, jobs):
    # the whole row b = 0 at H=100, cut into blocks of 1,000 points and
    # interrupted after five of them, against grade at all 12,175 points
    space = SearchSpace(height=100, b_min=F(0), b_max=F(0))
    counts, singular, records = graded_every_point(space)
    assert counts == {0: 1, 1: 0, 2: 12174, 3: 0, 4: 0, 5: 0, 6: 0} and singular == 1
    if jobs == 1:
        forbid_graded_path(monkeypatch)
    out, ck = str(tmp_path / "records.jsonl"), str(tmp_path / "ck.json")
    first = run(space, jobs=jobs, checkpoint_path=ck, output_path=out, block_size=1000,
                max_blocks=5)
    assert first["interrupted"] and first["cursor"] == 5000
    second = run(space, jobs=jobs, checkpoint_path=ck, output_path=out, block_size=1000)
    assert second["completed"] and second["total"] == 12175
    assert second["counts"] == counts and second["singular"] == singular
    assert records_in_order(out) == records


# ranges that hold b = 0: its whole row, a piece of it beside pieces of
# other rows, a piece that ends at the origin, pieces without the origin,
# and the origin alone
B0_SPACES = [
    SearchSpace(height=12, b_min=F(0), b_max=F(0)),
    SearchSpace(height=12, b_min=F(-1, 3), b_max=F(1, 2), c_min=F(-4), c_max=F(7, 2)),
    SearchSpace(height=12, b_min=F(-1), b_max=F(0), c_max=F(0), e21_form="common"),
    SearchSpace(height=12, b_min=F(0), b_max=F(1), c_min=F(1, 5)),
    SearchSpace(height=12, b_min=F(0), b_max=F(0), c_min=F(0), c_max=F(0)),
]


@pytest.mark.parametrize("space", [SearchSpace(height=16)] + B0_SPACES)
def test_tables_hold_each_rows_singular_columns_pairs_and_texts(space):
    # the per-space tables the block loop reads in place of recomputing:
    # a row's singular columns are exactly those where classify flags the
    # point, and each value's pair and text are its numerator, denominator
    # and str
    axes = _axes(space)
    assert len(axes.singular) == len(axes.b_pairs) == len(axes.bs)
    assert len(axes.c_texts) == len(axes.c_pairs) == len(axes.cs)
    for b, pair, columns in zip(axes.bs, axes.b_pairs, axes.singular):
        assert pair == (b.numerator, b.denominator)
        assert sorted(columns) == [j for j, c in enumerate(axes.cs) if classify(b, c)], b
    assert axes.b_texts == tuple(map(str, axes.bs))
    for j, c in enumerate(axes.cs):
        assert axes.c_pairs[j] == (c.numerator, c.denominator)
        assert axes.c_texts[j] == str(c)
    if space.height == 16:
        assert sum(map(len, axes.singular)) == 432


def test_b0_row_pieces_join_to_one_line_per_column(monkeypatch):
    # a piece of the row b = 0 is one join of its column texts; its bytes
    # must be the line-per-column template's, c = 0 left out, for pieces
    # that hold the origin alone, start at it, end at it or miss it
    import cuboidsearch.search as search_module

    monkeypatch.setattr(search_module, "_now", lambda: "T")
    space = SearchSpace(height=12, b_min=F(0), b_max=F(0), c_min=F(-1), c_max=F(2))
    cs = _axes(space).cs
    origin = cs.index(F(0))
    assert 0 < origin < len(cs) - 5

    template = search_module._record_template(space.e21_form, "T")

    def per_column(j0, j1):
        return "".join(
            template % (0, c, 2, "edge-root-nonpositive", '"0", "0"') for c in cs[j0:j1] if c
        )

    pieces = [(origin, origin + 1), (origin, origin + 5), (0, origin + 1), (0, origin),
              (origin + 1, len(cs)), (0, len(cs))]
    for j0, j1 in pieces:
        block = search_module._process_block(space, j0, j1)
        assert block["lines"] == per_column(j0, j1), (j0, j1)
        assert block["singular"] == (j0 <= origin < j1)
        assert block["counts"][2] == j1 - j0 - block["singular"]
    assert search_module._process_block(space, origin, origin + 1)["lines"] == ""


@pytest.mark.parametrize("space", B0_SPACES)
@pytest.mark.parametrize("block_size, jobs", [(DEFAULT_BLOCK_SIZE, 1), (7, 1), (5, 2)])
def test_b0_row_pieces_are_grade_at_every_point(tmp_path, space, block_size, jobs):
    # ranged rows, with and without the origin, cut by blocks anywhere
    counts, singular, records = graded_every_point(space)
    out = str(tmp_path / "records.jsonl")
    summary = run(space, jobs=jobs, checkpoint_path=None, output_path=out, block_size=block_size)
    assert summary["completed"]
    assert summary["counts"] == counts and summary["singular"] == singular
    assert records_in_order(out) == records


@pytest.mark.parametrize("jobs", [1, 2])
def test_b0_row_cut_at_the_origin_and_resumed(tmp_path, jobs):
    # the first run stops with its cursor on the origin, the second counts
    # the origin as a block of its own, and a third finishes the grid
    space = SearchSpace(height=12, b_min=F(-1), b_max=F(1, 2))
    origin = point_index(space, F(0), F(0))
    assert origin == len(fraction_values(12)) + 1
    out, ck = str(tmp_path / "records.jsonl"), str(tmp_path / "ck.json")
    first = run(space, jobs=1, checkpoint_path=ck, output_path=out, block_size=origin,
                max_blocks=1)
    assert first["cursor"] == origin and first["singular"] == 2  # (-1, 0) and (-1, 1)
    second = run(space, jobs=1, checkpoint_path=ck, output_path=out, block_size=1, max_blocks=1)
    assert second["cursor"] == origin + 1 and second["singular"] == 3
    assert second["counts"][0] == first["counts"][0] + 1
    third = run(space, jobs=jobs, checkpoint_path=ck, output_path=out, block_size=9)
    counts, singular, records = graded_every_point(space)
    assert third["completed"]
    assert third["counts"] == counts and third["singular"] == singular
    assert records_in_order(out) == records
