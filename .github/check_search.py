"""Checks of a search's records and checkpoint, for the CI workflow's console-script step.

    python .github/check_search.py digest RECORDS COUNT SHA256
    python .github/check_search.py checkpoint CHECKPOINT CURSOR SINGULAR N0 N1 N2 N3 N4 N5 N6
    python .github/check_search.py graded RECORDS COUNT all|off-b0

Each exits 0 when its check holds and 1 when it does not.  The package is
imported as installed, or from ``src`` with PYTHONPATH=src.
"""

import hashlib
import json
import sys
from fractions import Fraction


def digest(path, count, expected):
    """The file holds COUNT records, and the sha256 of their canonical JSON is SHA256."""
    from cuboidsearch.search import canonical_records

    records = canonical_records(path)
    text = json.dumps(records, sort_keys=True).encode()
    return len(records) == int(count) and hashlib.sha256(text).hexdigest() == expected


def checkpoint(path, cursor, singular, *counts):
    """The checkpoint's bytes are json.dumps of its payload, which holds the given cursor and counts.

    The checkpoint is filled from a template, not by the JSON encoder, so
    this also checks that the template has not drifted.
    """
    with open(path) as handle:
        text = handle.read()
    payload = json.loads(text)
    expected = [int(cursor), int(singular), {str(level): int(n) for level, n in enumerate(counts)}]
    return (text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
            and [payload["cursor"], payload["singular"], payload["counts"]] == expected)


def graded(path, count, rows):
    """COUNT records, all of them or those off b = 0, each with grade's level, reason and residuals."""
    from cuboidsearch.verifier import grade

    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    if rows == "off-b0":
        records = [record for record in records if record["b"] != "0"]
    elif rows != "all":
        raise ValueError(f"rows must be all or off-b0, not {rows}")
    verdicts = [grade(Fraction(r["b"]), Fraction(r["c"]), r["e21_form"]) for r in records]
    return len(records) == int(count) and all(
        [v.level, v.reason, [str(x) for x in v.residuals]] == [r["level"], r["reason"], r["residuals"]]
        for v, r in zip(verdicts, records)
    )


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    if not {"digest": digest, "checkpoint": checkpoint, "graded": graded}[name](*args):
        print(f"check_search: {name} failed on {' '.join(args)}", file=sys.stderr)
        sys.exit(1)
