"""Exact rational scalars.

All numeric values in this package are `fractions.Fraction` instances; this
module only adds the string round-trip used by every JSON surface ("p/q",
denominator omitted when 1) and a small sign helper.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = Fraction


def parse_scalar(s: str | int) -> Fraction:
    """Parse a "p/q" (or plain integer) string into a Fraction."""
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str) and "." in s:
        raise ValueError(f"decimal notation is not accepted: {s!r}")
    return Fraction(s)


def format_scalar(x: Fraction) -> str:
    """Render a Fraction as "p/q" (just "p" when the denominator is 1)."""
    return str(x)


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)
