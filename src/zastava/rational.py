"""Exact rational scalars.

All numeric values in this package are `fractions.Fraction` instances; this
module only adds the string round-trip used by every JSON surface ("p/q",
denominator omitted when 1).
"""

from __future__ import annotations

from fractions import Fraction


def parse_scalar(s: str | int) -> Fraction:
    """Parse a "p/q" (or plain integer) string into a Fraction; raises
    ValueError on a zero denominator and on decimal or exponent notation."""
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str) and any(ch in s for ch in ".eE"):
        raise ValueError(f"decimal or exponent notation is not accepted: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def format_scalar(x: Fraction) -> str:
    """Render a Fraction as "p/q" (just "p" when the denominator is 1)."""
    return str(x)
