"""Deterministic, checkpointable search over the rational parameter plane.

The search enumerates every reduced fraction of bounded height for each of
the two parameters.  A residue sieve drops most in-range points one b row
piece at a time, and at each point it keeps the search runs ``grade``'s
own level-0 test: the integer discriminant of ``edge_integer_cubic`` must
be a perfect square.  Every survivor is at level 1 or higher.  On
e30 = 0, where the cubic's a0 is 0, ``root_numerators``' one isqrt
decides that test and gives the roots, and the survivor is written at
level 2, its residuals the roots <= 0 with one gcd each, no Fraction or
Verdict built and nothing classified or computed twice; every
``grid-h4`` survivor off b = 0 is one.  The other survivors, 8 at H=30
and at most 24 up to H=400, all at level 1, are handed to ``grade``, which
classifies the point and builds its cubic again; their residuals are
written as the str of the verdict's Fractions.  Each record is one fill,
in the worker that graded it, of a JSONL template rendered once per
block (``_record_template``); the run appends each block's lines to the
output with one ``os.write``, with no text-file layer or user-space
buffer (``_write_all``).  Singular points are counted but not graded or
logged: along the two singular curves they are endless and carry no
search information.

The sieve module drops the columns at which t = q^8 s^8 S has no square
residue for some modulus, as the bit arrays of M. Stoll's ratpoints do
(facts F3 and F4): ``_axes`` holds each row's masks from
``sieve.row_masks``, and a row piece tests only the columns that
``sieve.piece_columns`` reads off their AND.  The points dropped are
counted at level 0.  ``_axes`` builds what depends only on the space
once, so the block loop does per-point work.

The row b = 0 skips all of that.  There S(0, c) = 4c^4 is a square, so
the sieve and the discriminant test would keep every column, and by fact F5
(``identities.check_b0_row``) every point but the singular origin grades
to one verdict, ``B0_ROW_VERDICT``: level 2, edge cubic x^2 (x - 1).  A
b = 0 row piece counts c = 0 as singular and writes that verdict's record
at every other column: its lines are one join of the columns' texts
into the record template, the origin's line taken out.  The row holds
90-98% of the records at H = 30 to 200.

Determinism is the backbone of everything here:

  * values are ordered by (height, numeric value), so the point stream is
    reproducible and low-height points come first;
  * the flat cursor index counts in-range points only: it runs row-major
    over the in-range b values and the in-range c values, so a narrow
    range walks no out-of-range position.  It defines block boundaries,
    which may cut a row anywhere; the level-0 test treats each point on
    its own, so the cuts do not change results.  Blocks are streamed from
    the range of block starts between the cursor and the end, so a run
    keeps no per-block state beyond at most four blocks per worker in
    flight.
    Workers (never more than the blocks or the CPUs) grade disjoint blocks
    and results are written strictly in block order, so the output is
    identical for any worker count;
  * the checkpoint (version 2) stores the cursor and per-level counts and
    is only advanced after the ``os.write`` of a block's records has
    returned, so they are in the kernel.  On resume, any records at or
    past the stored cursor (written but not yet checkpointed when the
    process died) are dropped before continuing, so an
    interrupted run converges to exactly the uninterrupted output.  Those
    records, and any torn line, can only form a suffix of the output and
    of its hits file, so each is cut in place after its last record before
    the cursor, and a run with no checkpoint cuts both to empty, reading
    none of their lines; neither file is ever rewritten through a .tmp.
    A version-1 checkpoint counted every grid position, in range or not;
    it is refused with CheckpointMismatch rather than misread, and so is a
    file that is not JSON or lacks a field or gives one the wrong type, or
    whose counts do not add up to its cursor within the grid.

Rationals are serialized as exact "p/q" strings, never floats.  Records and
checkpoints are written by filling fixed templates (``_record_template``,
``_CHECKPOINT``) with integers and strings, no JSON encoder; each is byte
for byte what json.dumps writes for the same object.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from errno import ENOTDIR
from fractions import Fraction
from functools import lru_cache
from math import gcd
from stat import S_ISDIR
from typing import Callable, NamedTuple

from .coefficients import E21_PRINTED, check_e21_form, edge_integer_cubic
from .cubic import integer_discriminant, is_perfect_square, root_numerators
from .rationals import format_rational, height as height_of, parse_rational
from .sieve import piece_columns, row_masks
from .singularity import singular_columns
from .verifier import LEVEL_PERFECT, Verdict, grade

CHECKPOINT_VERSION = 2
# The smallest block, of 2^18..2^21 points, whose work outweighs the
# checkpoint write after it: with the checkpoint, a jobs=1 run at H=30 and
# H=60 is within 10% of the same run without it (at 2^18, on 2 vCPUs, the
# checkpoint's median cost was 5% at H=30 and 9.7% at H=60, 45
# fresh-process pairs each), and any grid of one block (up to H=20)
# starts no pool.  The pool does not pay on 2 vCPUs: fresh jobs=2 runs
# with checkpoint and output took 1.2-1.4 times jobs=1's wall time at
# H=60, 1.2-1.3 at H=100 and 1.5-1.6 at H=200 (medians of 3 to 7
# alternating runs, two samples).
DEFAULT_BLOCK_SIZE = 1 << 18
LEVELS = tuple(range(LEVEL_PERFECT + 1))
# Fact F5 (identities.check_b0_row): at b = 0 and any c != 0 the point is
# nonsingular and its edge cubic is x^3 - x^2 = x^2 (x - 1), which splits with
# the double root 0, so grade returns this verdict there.
B0_ROW_VERDICT = Verdict(
    2, "edge-root-nonpositive", residuals=(Fraction(0), Fraction(0)),
    edges=(Fraction(0), Fraction(0), Fraction(1)),
)


def _residual_texts(residuals) -> str:
    """Residuals as a record lists them, between its brackets: each one's str, quoted."""
    return ", ".join(['"%s"' % r for r in residuals])


_B0_ROW_RESIDUALS = _residual_texts(B0_ROW_VERDICT.residuals)


class CheckpointMismatch(RuntimeError):
    """An existing checkpoint was produced under a different configuration."""


@dataclass(frozen=True)
class SearchSpace:
    """What to search: height bound, optional closed ranges, e21 form."""

    height: int
    b_min: Fraction | None = None
    b_max: Fraction | None = None
    c_min: Fraction | None = None
    c_max: Fraction | None = None
    e21_form: str = E21_PRINTED

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("height must be at least 1")
        for axis, lo, hi in (("b", self.b_min, self.b_max), ("c", self.c_min, self.c_max)):
            if lo is not None and hi is not None and lo > hi:
                raise ValueError(f"{axis}_min {lo} exceeds {axis}_max {hi}")
        check_e21_form(self.e21_form)


@lru_cache(maxsize=16)
def fraction_values(height: int) -> tuple[Fraction, ...]:
    """All reduced fractions p/q with |p| <= height and 1 <= q <= height.

    Ordered by (height, numeric value): the height-1 class is (-1, 0, 1),
    then each later class contributes the fractions whose height is exactly
    that value, sorted ascending.
    """
    values = (
        Fraction(p, q)
        for q in range(1, height + 1)
        for p in range(-height, height + 1)
        if gcd(p, q) == 1
    )
    return tuple(sorted(values, key=lambda v: (height_of(v), v)))


class _Axes(NamedTuple):
    bs: tuple[Fraction, ...]
    cs: tuple[Fraction, ...]
    b_index: dict[tuple[int, int], int]
    c_index: dict[tuple[int, int], int]
    b_pairs: tuple[tuple[int, int], ...]
    c_pairs: tuple[tuple[int, int], ...]
    b_texts: tuple[str, ...]
    c_texts: tuple[str, ...]
    row_masks: tuple[tuple[int, ...], ...]
    singular: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=16)
def _axes(space: SearchSpace) -> _Axes:
    """The in-range b and c values, in (height, value) order, and their constants.

    Each value's (numerator, denominator) pair and an index keyed by it,
    each value's str, each row's in-range singular columns, and each
    row's column masks of the residue sieve (``sieve.row_masks``); the AND
    of a row is formed per row piece.
    """
    values = fraction_values(space.height)

    def axis(lo, hi):
        return tuple(v for v in values if (lo is None or lo <= v) and (hi is None or v <= hi))

    bs = axis(space.b_min, space.b_max)
    cs = axis(space.c_min, space.c_max)
    b_pairs = tuple(b.as_integer_ratio() for b in bs)
    c_pairs = b_pairs if cs == bs else tuple(c.as_integer_ratio() for c in cs)
    c_index = {pair: j for j, pair in enumerate(c_pairs)}
    # fact F5: the origin is the row b = 0's one singular point
    singular = tuple(
        tuple(c_index[rs] for rs in (singular_columns(p, q) if p else [(0, 1)]) if rs in c_index)
        for p, q in b_pairs
    )
    return _Axes(
        bs, cs, {pair: i for i, pair in enumerate(b_pairs)}, c_index, b_pairs, c_pairs,
        tuple(map(str, bs)), tuple(map(str, cs)), row_masks(b_pairs, c_pairs), singular,
    )


def grid_size(space: SearchSpace) -> int:
    """Number of cursor positions: the in-range points of the b x c grid."""
    axes = _axes(space)
    return len(axes.bs) * len(axes.cs)


def point_index(space: SearchSpace, b: Fraction, c: Fraction) -> int:
    """The cursor index of an in-range point; KeyError for any other point."""
    axes = _axes(space)
    return (
        axes.b_index[b.numerator, b.denominator] * len(axes.cs)
        + axes.c_index[c.numerator, c.denominator]
    )


# --- configuration digest and checkpoint file ------------------------------


def space_config(space: SearchSpace) -> dict:
    def fmt(v):
        return None if v is None else format_rational(v)

    return {
        "version": CHECKPOINT_VERSION,
        "height": space.height,
        "b_min": fmt(space.b_min),
        "b_max": fmt(space.b_max),
        "c_min": fmt(space.c_min),
        "c_max": fmt(space.c_max),
        "e21_form": space.e21_form,
    }


def config_digest(space: SearchSpace) -> str:
    canonical = json.dumps(space_config(space), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_all(fd: int, text: str) -> None:
    """Write ``text`` to ``fd`` as UTF-8, looping on short writes; no user-space buffer."""
    data = memoryview(text.encode("utf-8"))
    while data:
        data = data[os.write(fd, data):]


# how the output and hits files are opened: appended to, made if missing
_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path``'s .tmp and replace ``path`` with it."""
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, text)
    finally:
        os.close(fd)
    os.replace(tmp, path)


# The checkpoint, keys sorted, with the counts of the seven levels.  Every
# string field is a "p/q" rational, an e21 form, a hex digest or an ISO
# timestamp, none of which json.dumps escapes.
_CHECKPOINT = """{
  "config": {
    "b_max": %s,
    "b_min": %s,
    "c_max": %s,
    "c_min": %s,
    "e21_form": "%s",
    "height": %d,
    "version": %d
  },
  "config_digest": "%s",
  "counts": {
    "0": %d,
    "1": %d,
    "2": %d,
    "3": %d,
    "4": %d,
    "5": %d,
    "6": %d
  },
  "cursor": %d,
  "singular": %d,
  "updated": "%s",
  "version": %d
}
"""


@lru_cache(maxsize=16)
def _checkpoint_header(space: SearchSpace) -> tuple:
    """The checkpoint's fields that depend only on ``space``, in ``_CHECKPOINT``'s order."""
    config = space_config(space)
    bounds = (json.dumps(config[key]) for key in ("b_max", "b_min", "c_max", "c_min"))
    return (*bounds, space.e21_form, space.height, CHECKPOINT_VERSION, config_digest(space))


def _save_checkpoint(path: str, header: tuple, cursor: int, counts: dict, singular: int) -> None:
    """Write the checkpoint by filling ``_CHECKPOINT``, with no JSON encoder.

    ``header`` is ``_checkpoint_header(space)``.  The bytes are those of
    json.dumps(payload, indent=2, sort_keys=True) and a newline, the
    payload holding the config, its digest, the cursor, the counts keyed
    by str(level), the singular count, the time and the version.
    """
    text = _CHECKPOINT % (
        *header, *(counts[level] for level in LEVELS), cursor, singular, _now(),
        CHECKPOINT_VERSION,
    )
    _atomic_write(path, text)


def _load_checkpoint(path: str, space: SearchSpace) -> tuple[int, dict, int]:
    """The cursor, per-level counts and singular count stored for ``space``.

    Raises CheckpointMismatch for a file that is not a version-2 checkpoint
    of this configuration, including one that is not JSON, lacks a field,
    or has counts that do not add up to its cursor within the grid.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:
        raise CheckpointMismatch(f"checkpoint is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointMismatch("checkpoint is not a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointMismatch(
            f"checkpoint version {payload.get('version')} != {CHECKPOINT_VERSION}"
        )
    counts = payload.get("counts")
    if not isinstance(counts, dict):
        counts = {}
    fields = [payload.get("cursor"), payload.get("singular")]
    fields += [counts.get(str(level)) for level in LEVELS]
    if not isinstance(payload.get("config_digest"), str) or not all(
        type(value) is int and value >= 0 for value in fields
    ):
        raise CheckpointMismatch(
            "checkpoint lacks a config_digest string, or a count for cursor, "
            "singular or a level in counts"
        )
    if payload["config_digest"] != config_digest(space):
        raise CheckpointMismatch("checkpoint was written for a different search configuration")
    cursor, singular = payload["cursor"], payload["singular"]
    counts = {level: counts[str(level)] for level in LEVELS}
    # every point before the cursor is counted at one level, singular ones at 0
    if cursor > grid_size(space) or sum(counts.values()) != cursor or singular > counts[0]:
        raise CheckpointMismatch(
            "checkpoint counts do not fit its cursor, or its cursor lies past the grid"
        )
    return cursor, counts, singular


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# --- records ----------------------------------------------------------------


def _record_template(e21_form: str, ts: str) -> str:
    """The one definition of a record: its line, e21 form and timestamp filled in.

    ``template % (b, c, level, reason, residuals)``, the residuals given as
    the text between the brackets, is json.dumps(record, sort_keys=True)
    and a newline.  No field needs escaping: b, c and the residuals are
    "p/q" strings, the level is an integer, and the reason, the e21 form
    and the ISO timestamp come from closed sets of ASCII characters.  None
    holds a "%", so the row b = 0 fills in "%" for c and splits there.
    """
    return (
        '{"b": "%%s", "c": "%%s", "e21_form": "%s", "level": %%d, "reason": "%%s", '
        '"residuals": [%%s], "ts": "%s"}\n'
    ) % (e21_form, ts)


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, with one gcd, or none for n = 0."""
    if not n:
        return "0"
    g = gcd(n, d)
    return "%d" % (n // g) if d == g else "%d/%d" % (n // g, d // g)


def make_record(b: Fraction, c: Fraction, verdict, e21_form: str) -> dict:
    """The record of a verdict at (b, c), as the search writes it, stamped now."""
    fields = (b, c, verdict.level, verdict.reason, _residual_texts(verdict.residuals))
    return json.loads(_record_template(e21_form, _now()) % fields)


def load_records(path: str) -> list[dict]:
    records = []
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def canonical_records(path: str) -> list[dict]:
    """Records with timestamps stripped, sorted by point: the comparable form.

    Two runs over the same space must agree on this exactly, whatever the
    worker count or interruption history.
    """
    stripped = []
    for record in load_records(path):
        record = dict(record)
        record.pop("ts", None)
        stripped.append(record)
    stripped.sort(key=lambda r: (parse_rational(r["b"]), parse_rational(r["c"])))
    return stripped


def hits_path_for(output_path: str) -> str:
    return output_path + ".hits"


def _truncate_records_beyond(path: str, space: SearchSpace, cursor: int) -> None:
    """Cut ``path`` in place after its last record before the cursor.

    Used at the start of every run with output.  Records are written in
    cursor order, so what must go is a suffix: records at or past the
    cursor, written after the last checkpoint write and to be regenerated,
    torn lines and lines that are not records.  The scan reads back from
    the end and parses only the lines it drops and the record it keeps; a
    last line with no newline is torn and dropped unread.  At cursor 0 the
    file is emptied without being read.  A missing file is left missing.
    """
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return
    with handle:
        data = handle.read() if cursor else b""
        end = data.rfind(b"\n") + 1
        while end:
            start = data.rfind(b"\n", 0, end - 1) + 1
            try:
                record = json.loads(data[start:end])
                b, c = record["b"], record["c"]
                if (isinstance(b, str) and isinstance(c, str)
                        and point_index(space, parse_rational(b), parse_rational(c)) < cursor):
                    break
            except (ValueError, KeyError, TypeError):
                pass  # torn write from a hard kill, or not a record
            end = start
        handle.truncate(end)


# --- block grading ----------------------------------------------------------


def _process_block(space: SearchSpace, start: int, end: int) -> dict:
    """Count one cursor block, grading only level-0 survivors. Pure; runs in workers.

    Each row piece reads its row's constants from ``_axes`` and counts and
    skips its singular points.  A piece of the row b = 0 is one join of
    its columns' texts (fact F5); a row whose 2-adic mask is empty keeps
    no column.  In each other piece, every column that the sieve keeps
    gets ``grade``'s discriminant test.  A point whose edge cubic has
    a0 = 0, on e30 = 0, is decided and written from ``root_numerators``'
    closed form; any other survivor is handed to ``grade``.
    The sieve drops only points at which t = q^8 s^8 S is not a square,
    and off the row b = 0 a nonsingular point has b, f1, f2, Q and, by
    fact F1, G nonzero, so the factorization b^2 G^2 S / (4 f1^6 f2^6 Q^2)
    of the edge discriminant puts each of them at level 0.  Every record
    is one fill of the block's template, with the block's one timestamp:
    ``lines`` holds them all and ``hits`` the level-6 ones.
    """
    axes = _axes(space)
    width = len(axes.cs)
    b_pairs, b_texts, row_masks = axes.b_pairs, axes.b_texts, axes.row_masks
    c_pairs, c_texts, singular_at = axes.c_pairs, axes.c_texts, axes.singular
    counts = {level: 0 for level in LEVELS}
    singular = 0
    lines = []
    hits = []
    template = _record_template(space.e21_form, ts=_now())
    # the block's rows first..last: the first starts at column j0, the last
    # ends before j_end, and every other piece is a whole row
    first, j0 = divmod(start, width)
    last, j_end = divmod(end - 1, width)
    j_end += 1
    for i in range(first, last + 1):
        if i > first:
            j0 = 0
        j1 = j_end if i == last else width
        skip = singular_at[i]
        at_singular = len(skip) if j1 - j0 == width else sum(j0 <= j < j1 for j in skip)
        singular += at_singular
        p, q = b_pairs[i]
        masks = row_masks[i]
        if not p:
            # fact F5: every point but the origin, whose line is taken out,
            # has the edge cubic x^2 (x - 1)
            head, _, tail = (template % (
                b_texts[i], "%", B0_ROW_VERDICT.level, B0_ROW_VERDICT.reason, _B0_ROW_RESIDUALS,
            )).partition("%")
            row = head + (tail + head).join(c_texts[j0:j1]) + tail
            lines.append(row.replace(head + "0" + tail, ""))
            counts[2] += j1 - j0 - at_singular
            continue
        if not masks[0]:
            continue  # p and q odd: sieve.SCREENED_C_CLASSES[0] is empty
        for j in piece_columns(masks, j0, j1):
            if j in skip:
                continue
            a3, a2, a1, a0 = edge_integer_cubic(p, q, *c_pairs[j])
            if not a0:
                # the discriminant is a1^2 (a2^2 - 4 a3 a1) and 0 is a root:
                # the cubic splits exactly when the discriminant is a square,
                # and then a root <= 0 puts the point at level 2
                ys = root_numerators(a3, a2, a1, 0)
                if ys is None:
                    continue
                level, reason = 2, "edge-root-nonpositive"
                residuals = ", ".join(['"%s"' % _ratio_text(y, a3 + a3) for y in ys if y <= 0])
            else:
                # grade's level-0 test: the edge discriminant must be a perfect square
                if is_perfect_square(integer_discriminant(a3, a2, a1, a0)) is None:
                    continue
                verdict = grade(axes.bs[i], axes.cs[j], space.e21_form)
                level, reason = verdict.level, verdict.reason
                residuals = _residual_texts(verdict.residuals)
            counts[level] += 1
            line = template % (b_texts[i], c_texts[j], level, reason, residuals)
            lines.append(line)
            if level == LEVEL_PERFECT:
                hits.append(line)
    # every point not recorded is at level 0
    counts[0] = end - start - sum(counts.values())
    return {
        "end": end,
        "counts": counts,
        "singular": singular,
        "lines": "".join(lines),
        "hits": "".join(hits),
    }


def run(
    space: SearchSpace,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    output_path: str | None = None,
    *,
    stop_on_hit: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
    max_blocks: int | None = None,
    log: Callable[[str], None] | None = None,
) -> dict:
    """Run (or resume) the search; returns a summary of cumulative counts.

    ``block_size`` is the points per block, after each of which the
    checkpoint is written; the output does not depend on it.
    ``max_blocks`` bounds how many blocks this call processes before
    returning with completed=False; it exists so interruption and resume
    can be exercised deterministically.  None means no bound, and a
    negative bound is a ValueError, as a ``block_size`` below 1 is.  A
    None path means none; an empty one, or an output sharing a file with
    the checkpoint, is a ValueError.

    The output and hits files are plain descriptors, opened for appending
    once per run, and each block's lines go out with one ``os.write``
    (``_write_all``): with no user-space buffer, a block's records are in
    the kernel when its checkpoint is written, which no flush call needs
    to ensure.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if max_blocks is not None and max_blocks < 0:
        raise ValueError("max_blocks must not be negative")
    if "" in (checkpoint_path, output_path):
        raise ValueError("an empty checkpoint or output path names no file")
    if checkpoint_path and output_path:
        # the files a run writes, the checkpoint's with the .tmp of its atomic writes
        paths = (checkpoint_path, checkpoint_path + ".tmp", output_path, hits_path_for(output_path))
        written = [os.path.abspath(p) for p in paths]
        if len(set(written)) < len(written):
            raise ValueError("the output or its .hits file shares a file with the checkpoint")
    if checkpoint_path:
        # a missing directory or a file fails here, before any block is graded
        # or the output is touched, rather than at the first checkpoint write
        directory = os.path.dirname(checkpoint_path) or "."
        if not S_ISDIR(os.stat(directory).st_mode):
            raise NotADirectoryError(ENOTDIR, os.strerror(ENOTDIR), directory)
    total = grid_size(space)
    cursor = 0
    counts = {level: 0 for level in LEVELS}
    singular = 0

    if checkpoint_path and os.path.exists(checkpoint_path):
        cursor, counts, singular = _load_checkpoint(checkpoint_path, space)
    # a resumed run keeps the records before its cursor; a fresh one empties
    # the files unread
    if output_path:
        _truncate_records_beyond(output_path, space, cursor)
        _truncate_records_beyond(hits_path_for(output_path), space, cursor)

    resumed_at = cursor
    starts = range(cursor, total, block_size)[:max_blocks]
    header = _checkpoint_header(space)

    out = os.open(output_path, _APPEND, 0o666) if output_path else None
    hits_out = None
    stopped_on_hit = False
    results = _block_results(space, starts, total, jobs)
    try:
        for done, result in enumerate(results, start=1):
            if out is not None:
                _write_all(out, result["lines"])
                if result["hits"]:
                    if hits_out is None:
                        hits_out = os.open(hits_path_for(output_path), _APPEND, 0o666)
                    _write_all(hits_out, result["hits"])
            for level in LEVELS:
                counts[level] += result["counts"][level]
            singular += result["singular"]
            cursor = result["end"]
            if checkpoint_path:
                _save_checkpoint(checkpoint_path, header, cursor, counts, singular)
            if log and (done % 32 == 0 or cursor >= total):
                log(f"cursor {cursor}/{total} level-counts "
                    + " ".join(f"{lvl}:{counts[lvl]}" for lvl in LEVELS))
            if stop_on_hit and result["counts"][LEVEL_PERFECT]:
                stopped_on_hit = True
                break
    finally:
        results.close()
        if out is not None:
            os.close(out)
        if hits_out is not None:
            os.close(hits_out)

    return {
        "counts": counts,
        "singular": singular,
        "visited": cursor - resumed_at,
        "cursor": cursor,
        "total": total,
        "completed": cursor >= total,
        "interrupted": cursor < total and not stopped_on_hit,
        "hits": counts[LEVEL_PERFECT],
        "stopped_on_hit": stopped_on_hit,
        "e21_form": space.e21_form,
    }


def _block_results(space: SearchSpace, starts: range, total: int, jobs: int):
    """Yield the results of the blocks at ``starts`` in order, whatever the worker count.

    Each block runs from its start to the next block's, or to ``total``.
    At most 4 blocks per worker are submitted and not yet yielded.
    """
    blocks = ((start, min(start + starts.step, total)) for start in starts)
    workers = min(jobs, len(starts))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        for start, end in blocks:
            yield _process_block(space, start, end)
        return
    # imported here: no grid of one block starts a pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for start, end in blocks:
            if len(pending) == 4 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_process_block, space, start, end))
        while pending:
            yield pending.popleft().result()


# --- form audit --------------------------------------------------------------


def e21_form_discrepancies(records_left: list[dict], records_right: list[dict]) -> list[dict]:
    """Points where two runs (normally printed vs common form) disagree.

    Returns one entry per point whose (level, reason) differs, flagging
    whether either side reached level 5 or above.  Points absent from a
    side never got past level 0 there.
    """
    def index(records):
        return {(r["b"], r["c"]): r for r in records}

    def state(record):
        if record is None:
            return {"level": 0, "reason": None}
        return {"level": record["level"], "reason": record["reason"]}

    left = index(records_left)
    right = index(records_right)
    differences = []
    for key in sorted(
        set(left) | set(right),
        key=lambda bc: (parse_rational(bc[0]), parse_rational(bc[1])),
    ):
        left_state = state(left.get(key))
        right_state = state(right.get(key))
        if left_state != right_state:
            differences.append(
                {
                    "b": key[0],
                    "c": key[1],
                    "left": left_state,
                    "right": right_state,
                    "level5_plus": max(left_state["level"], right_state["level"]) >= 5,
                }
            )
    return differences
