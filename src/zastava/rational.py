"""Exact rational scalars.

All numeric values in this package are `fractions.Fraction` instances; this
module only adds the string round-trip used by every JSON surface ("p/q",
denominator omitted when 1).  The one scalar grammar is read as an integer
pair: optional surrounding whitespace, an optional sign, digits with single
``_`` separators and an optional ``/digits`` denominator -- what
``Fraction(str)`` accepts for integer and ratio forms on Python 3.11, fixed
here so that it does not move with the interpreter.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_RATIO = re.compile(r"\s*([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?\s*")


def parse_ratio(s: str | int) -> tuple[int, int]:
    """Read an int, or a "p/q" (or plain integer) string, as (p, q) with
    q > 0, unreduced.  Raises TypeError for anything but a str or an int
    (a bool or float included), and ValueError on a zero denominator, on
    decimal or exponent notation and on any other string."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    if not isinstance(s, str):
        raise TypeError(f"scalar must be a 'p/q' string or an int, not {s!r}")
    num, slash, den = s.partition("/")  # the forms format_ratio writes, read without the pattern
    if s.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit() and den.strip("0")):
        return int(num), int(den or 1)
    m = _RATIO.fullmatch(s)
    if m is None:
        if any(ch in s for ch in ".eE"):
            raise ValueError(f"decimal or exponent notation is not accepted: {s!r}")
        raise ValueError(f"invalid scalar: {s!r}")
    q = 1 if m[2] is None else int(m[2])
    if not q:
        raise ValueError(f"zero denominator in {s!r}")
    return int(m[1]), q


def parse_scalar(s: str | int) -> Fraction:
    """Parse a "p/q" (or plain integer) string into a Fraction (see
    parse_ratio for the grammar and the errors)."""
    return Fraction(*parse_ratio(s))


def format_ratio(p: int, q: int) -> str:
    """Render p/q (q > 0) in lowest terms as "p/q", or "p" when it is whole;
    the same string as format_scalar(Fraction(p, q))."""
    g = gcd(p, q)
    if g == q:
        return str(p // g)
    return f"{p // g}/{q // g}"


def format_scalar(x: Fraction) -> str:
    """Render a Fraction as "p/q" (just "p" when the denominator is 1)."""
    return str(x)
