"""Parsing, formatting and measuring of exact rationals.

Rationals cross every external boundary (CLI arguments, JSONL records,
checkpoint files) as strings of the form "p/q" or plain integers "p".
Floats are deliberately rejected: a single decimal literal slipping in
would silently void the exactness guarantees of the whole pipeline.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ASCII digits only: int() would read other scripts' digits too
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class RationalParseError(ValueError):
    """The text does not denote an exact rational."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction (always reduced by construction).

    Decimal notation is refused with a hint; a zero denominator is an error.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        if re.match(r"^[+-]?\d*\.\d*$", s):
            raise RationalParseError(
                f"{text!r} is a decimal; write an exact fraction instead (e.g. 1/2, not 0.5)"
            )
        raise RationalParseError(f"{text!r} is not a rational of the form p/q or p")
    num_text, _, den_text = s.partition("/")
    try:
        num, den = int(num_text), int(den_text or 1)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise RationalParseError(f"{text[:20]!r}... has too many digits") from None
    if den == 0:
        raise RationalParseError(f"{text!r} has a zero denominator")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p/q" in lowest terms, "p" for integers."""
    return str(value)


def height(value: Fraction) -> int:
    """Height of a reduced fraction p/q: max(|p|, q). Height of 0 is 1."""
    return max(abs(value.numerator), value.denominator)
