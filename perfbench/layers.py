"""Traced run: spans at the layer boundaries the benchmark calls into.

A span is one call across a layer boundary: its name, start and end (ns,
``time.perf_counter_ns``), the index of the span that caused it, the point
or cubic it works on, and a note on the result (the verdict's level and
reason for ``verifier.grade``, whether the cubic split for
``cubic.rational_roots``).

Spans are recorded from the benchmark's own files.  The program's code is
not edited: for the duration of a traced round, the public layer functions
are replaced by recording wrappers in the namespace of the module that
calls them (``search.grade``, ``verifier.classify``, ...).  Calls a layer
makes inside itself, such as ``rational_roots`` computing its own
discriminant, are therefore not spans.

Spans are kept in memory and written out once, when the run ends.  Every
workload runs in one process, so one recorder sees every span.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

# Span fields, in order.
NAME, START, END, PARENT, ITEM, NOTE = range(6)

# Coefficient values a verdict needed, by reason: the edge cubic takes
# e10, e20 and e30; the diagonal cubic adds e01, e02 and e03; the
# auxiliary equations add e21, e11 and e12.
_COEFFICIENTS_USED = {
    "disc-nonsquare": 3,
    "edge-no-split": 3,
    "edge-root-nonpositive": 3,
    "diag-no-split": 6,
    "diag-root-nonpositive": 6,
    "e21-printed-pole": 6,
}
_ALL_COEFFICIENTS = 9


class Recorder:
    """In-memory span list of the benchmark's process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs=None, item=None, note=None):
        """Call ``fn(*args, **kwargs)`` inside a span and return its result."""
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][ITEM]
        span = [name, 0, 0, parent, item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[END] = time.perf_counter_ns()
            span[START] = start
            self._stack.pop()
        if note is not None:
            span[NOTE] = note(result)
        return result

    def wrap(self, name, fn, item=None, note=None):
        """A recording stand-in for ``fn``; ``item(*args)`` names the work item."""

        def traced(*args, **kwargs):
            key = item(*args) if item is not None else None
            return self.call(name, fn, args, kwargs, key, note)

        return traced

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "item", "note")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextmanager
def traced_layers(recorder: Recorder, search, verifier):
    """Replace the layer functions ``search.run`` reaches with recording wrappers.

    A name the program no longer has is skipped, so its layer reads as
    never called.
    """
    def point(b, c, *_):
        return f"{b},{c}"

    wrappers = [
        (search, "grade", "verifier.grade", point, lambda v: [v.level, v.reason]),
        (verifier, "classify", "singularity.classify", None, None),
        (verifier, "eval_coefficients_unchecked", "coefficients.eval", None, None),
        (verifier, "discriminant", "cubic.discriminant", None, None),
        (verifier, "is_rational_square", "cubic.is_rational_square", None, None),
        (verifier, "rational_roots", "cubic.rational_roots", None, lambda r: r is not None),
    ]
    originals = []
    for module, attr, name, item, note in wrappers:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        originals.append((module, attr, fn))
        setattr(module, attr, recorder.wrap(name, fn, item, note))
    try:
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of the spans below the search and cubic layers.

    Times are µs per call (p50 unless named otherwise); a layer that was
    never called reads 0.
    """
    durations: dict[str, list[float]] = {}
    children_us = [0.0] * len(spans)
    for span in spans:
        us = (span[END] - span[START]) / 1000
        durations.setdefault(span[NAME], []).append(us)
        if span[PARENT] >= 0:
            children_us[span[PARENT]] += us

    def p50(name):
        return percentile(durations.get(name, []), 0.5)

    grades = [i for i, s in enumerate(spans) if s[NAME] == "verifier.grade"]
    verdicts = [spans[i][NOTE] for i in grades]
    nonsingular = [v for v in verdicts if v[1] != "singular"]
    used = sum(_COEFFICIENTS_USED.get(reason, _ALL_COEFFICIENTS) for _, reason in nonsingular)
    evals = durations.get("coefficients.eval", [])
    roots = [s[NOTE] for s in spans if s[NAME] == "cubic.rational_roots"]
    return {
        "coefficients.eval_us": p50("coefficients.eval"),
        "coefficients.eval_calls": len(evals),
        "coefficients.used_ratio": _ratio(used, _ALL_COEFFICIENTS * len(evals)),
        "singularity.classify_us": p50("singularity.classify"),
        "cubic.discriminant_us": p50("cubic.discriminant"),
        "cubic.is_rational_square_us": p50("cubic.is_rational_square"),
        "cubic.rational_roots_p50_us": p50("cubic.rational_roots"),
        "cubic.rational_roots_p99_us": percentile(durations.get("cubic.rational_roots", []), 0.99),
        "cubic.rational_roots_calls": len(roots),
        "cubic.split_ratio": _ratio(sum(1 for split in roots if split), len(roots)),
        "verifier.grade_us": p50("verifier.grade"),
        "verifier.self_us": percentile(
            [(spans[i][END] - spans[i][START]) / 1000 - children_us[i] for i in grades], 0.5
        ),
        "verifier.prefilter_pass_ratio": _ratio(
            sum(1 for level, _ in nonsingular if level >= 1), len(nonsingular)
        ),
    }


def grade_seconds(spans: list) -> float:
    """Seconds spent inside ``verifier.grade``.

    Grades run one after another, so their durations add up without overlap.
    """
    return sum(s[END] - s[START] for s in spans if s[NAME] == "verifier.grade") / 1e9
