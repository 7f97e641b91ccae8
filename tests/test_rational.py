import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from zastava.rational import format_ratio, parse_ratio, parse_scalar
from zastava.unipoly import UniPoly

# digits, one non-ASCII (Arabic-Indic) digit, and every character the
# grammar or its refusals turn on
_SCALAR_TEXT = st.text(alphabet="0123456789٣_+-/ .e", max_size=8)


def _reference_is_311(s: str) -> bool:
    """Whether this interpreter's Fraction(str) reads s as Python 3.11 does:
    3.10 refuses every "_", and 3.12 allows whitespace around "/"."""
    if sys.version_info < (3, 11):
        return "_" not in s
    if sys.version_info >= (3, 12):
        return not re.search(r"\s/|/\s", s)
    return True


@settings(max_examples=400, deadline=None)
@given(_SCALAR_TEXT)
@example("1_0/3")
@example(" -٣/4 ")
@example("+0/7")
@example("1/0")
@example("1e3")
@example("1.5")
def test_parse_scalar_matches_fraction_str(s):
    if any(ch in s for ch in ".eE"):
        with pytest.raises(ValueError):
            parse_scalar(s)
        return
    if not _reference_is_311(s):
        return
    try:
        ref = F(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_scalar(s)
        return
    assert parse_scalar(s) == ref
    p, q = parse_ratio(s)
    assert q > 0 and F(p, q) == ref


def test_grammar_does_not_move_with_the_interpreter():
    assert parse_scalar("1_0/3") == F(10, 3)
    assert parse_ratio("2/4") == (2, 4)
    for s in ("3 /4", "3/ 4", "1__0", "_1", "1_", "-_1", "1/-2", "x", ""):
        with pytest.raises(ValueError, match="invalid scalar"):
            parse_scalar(s)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("1/0_0")
    with pytest.raises(ValueError, match="decimal or exponent"):
        parse_scalar("1.5/2")


@pytest.mark.parametrize("value", [0.1, 1.0, True, False, None, F(1, 2), [1]])
def test_parse_ratio_refuses_non_string_scalars(value):
    with pytest.raises(TypeError):
        parse_ratio(value)
    assert parse_ratio(-7) == (-7, 1)


_COEFFS = st.lists(
    st.fractions(max_denominator=2**70).filter(lambda c: abs(c.numerator) < 2**80),
    max_size=6,
)


def _unreduced(c: F, k: int) -> str:
    return f"{c.numerator * k}/{c.denominator * k}"


@settings(max_examples=200, deadline=None)
@given(_COEFFS, st.integers(1, 5))
@example([], 1)
@example([F(-3), F(0), F(2, 4)], 3)
@example([F(1, 2**70), F(-5, 2**70 - 1), F(0)], 2)
def test_unipoly_codec_matches_fraction_route(coeffs, k):
    p = UniPoly(coeffs)
    # the Fraction route: str() of each coefficient, Fraction(str) back
    doc = [str(c) for c in p.coeffs]
    assert p.to_json() == doc
    assert UniPoly.from_json(doc) == UniPoly([F(s) for s in doc]) == p
    # unreduced strings ("2/4") and ints read as the same polynomial
    assert UniPoly.from_json([_unreduced(c, k) for c in coeffs]) == p
    assert UniPoly.from_json([int(c) for c in coeffs if c.denominator == 1]) == UniPoly(
        [c for c in coeffs if c.denominator == 1]
    )


def test_format_ratio_matches_str():
    for p, q in [(0, 5), (-6, 4), (7, 1), (2**70, 2**71), (-3, 3)]:
        assert format_ratio(p, q) == str(F(p, q))


# the forms format_ratio writes, their neighbours, and characters the
# ASCII fast path of parse_ratio must hand on to the pattern: whitespace,
# a non-ASCII decimal digit, a superscript digit and a fullwidth digit
_FAST_PATH_TEXT = st.text(alphabet="0123456789-+/_ \t٣²０", max_size=9)
_PATTERN = re.compile(r"\s*([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?\s*")


def _pattern_only(s: str) -> tuple[int, int]:
    """The scalar grammar read by the pattern alone, with its refusals."""
    m = _PATTERN.fullmatch(s)
    if m is None:
        raise ValueError(s)
    q = 1 if m[2] is None else int(m[2])
    if not q:
        raise ValueError(s)
    return int(m[1]), q


@settings(max_examples=500, deadline=None)
@given(_FAST_PATH_TEXT)
@example("-12/35")
@example("-0")
@example("007/010")
@example("1/00")
@example("--1")
@example("-/2")
@example("1/2/3")
@example("٣/4")
@example("²")
@example("０/1")
@example("1_0")
def test_parse_ratio_fast_path_matches_the_pattern(s):
    try:
        expected = _pattern_only(s)
    except ValueError:
        with pytest.raises(ValueError):
            parse_ratio(s)
        return
    assert parse_ratio(s) == expected
