"""Exact univariate polynomials in z over the rationals.

A polynomial is stored as integer numerators over one positive common
denominator, lowest degree first, in normal form: trailing zeros trimmed and
gcd(den, numerators) = 1, so equal polynomials have equal fields and equal
hashes.  ``coeffs`` and ``coeff(k)`` read the coefficients as Fractions.
The degree of the zero polynomial is ``None`` (an explicit sentinel), never
an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .rational import format_ratio, format_scalar, parse_ratio, parse_scalar

_ZERO = Fraction(0)


@dataclass(frozen=True)
class UniPoly:
    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, float):
                raise TypeError(f"float coefficient {c!r} is not exact")
            if not isinstance(c, (int, Fraction)):
                c = parse_scalar(c) if isinstance(c, str) else Fraction(c)
            cs.append(c)
        den = lcm(*(c.denominator for c in cs))
        _init(self, [c.numerator * (den // c.denominator) for c in cs], den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def const(c: Fraction | int) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def monomial(k: int, c: Fraction | int = 1) -> "UniPoly":
        return UniPoly((0,) * k + (c,))

    @staticmethod
    def from_roots(roots: Sequence[Fraction]) -> "UniPoly":
        """prod (z - w), as the primitive integer product of the (q z - p) for
        w = p/q, over the product of the q."""
        nums, den = [1], 1
        for w in roots:
            p, q = _ratio(w)
            nums.append(0)  # times (q z - p), in place from the top
            for k in range(len(nums) - 1, 0, -1):
                nums[k] = q * nums[k - 1] - p * nums[k]
            nums[0] *= -p
            den *= q
        return _of(nums, den)

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of z^k; zero outside the stored range (including k<0)."""
        if 0 <= k < len(self.nums):
            return self.coeffs[k]
        return _ZERO

    def __call__(self, x: Fraction | int) -> Fraction:
        """p(x), by homogeneous Horner on x = p/q with one Fraction at the end."""
        if not self.nums:
            return _ZERO
        return Fraction(
            _horner(self.nums, x.numerator, x.denominator),
            self.den * x.denominator ** (len(self.nums) - 1),
        )

    def __repr__(self) -> str:
        return f"UniPoly(coeffs={self.coeffs!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        out = [c * ma for c in self.nums] + [0] * (len(other.nums) - len(self.nums))
        for k, c in enumerate(other.nums):
            out[k] += c * mb
        return _of(out, den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + -other

    def __neg__(self) -> "UniPoly":
        return _of([-c for c in self.nums], self.den)

    def __mul__(self, other: "UniPoly | Fraction | int") -> "UniPoly":
        if isinstance(other, (Fraction, int)):
            return _of(
                [c * other.numerator for c in self.nums], self.den * other.denominator
            )
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return _of(out, self.den * other.den)

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniPoly":
        """Multiply by z^k (k >= 0)."""
        if self.is_zero:
            return self
        return _of([0] * k + list(self.nums), self.den)

    def derivative(self) -> "UniPoly":
        return _of([k * c for k, c in enumerate(self.nums) if k > 0], self.den)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficient strings "p/q", lowest degree first."""
        return [format_ratio(c, self.den) for c in self.nums]

    @staticmethod
    def from_json(data: Sequence[str | int]) -> "UniPoly":
        """Read coefficient strings (or ints) over the lcm of their
        denominators; raises TypeError unless ``data`` is a list or tuple,
        and TypeError or ValueError as parse_ratio does."""
        if not isinstance(data, (list, tuple)):
            raise TypeError(f"coefficient list expected, not {type(data).__name__}")
        pairs = [parse_ratio(c) for c in data]
        den = lcm(*[q for _, q in pairs])
        return _of([p * (den // q) for p, q in pairs], den)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(format_scalar(c))
            else:
                zk = "z" if k == 1 else f"z^{k}"
                parts.append(zk if c == 1 else f"{format_scalar(c)}*{zk}")
        return " + ".join(parts)


def _of(nums: list[int], den: int = 1) -> UniPoly:
    """The polynomial sum nums[k] z^k / den (den nonzero)."""
    p = object.__new__(UniPoly)
    _init(p, nums, den)
    return p


def _init(p: UniPoly, nums: list[int], den: int) -> None:
    """Store nums/den on p in normal form."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    object.__setattr__(p, "nums", tuple(nums))
    object.__setattr__(p, "den", den)


def _ratio(x: Fraction | int) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar, read off an int or a
    Fraction as it is and through Fraction() for anything but a float, which
    raises TypeError."""
    if not isinstance(x, (int, Fraction)):
        if isinstance(x, float):
            raise TypeError(f"float {x!r} is not exact")
        x = Fraction(x)
    return x.numerator, x.denominator


def _horner(nums: Sequence[int], p: int, q: int) -> int:
    """q^n * P(p/q) for the integer polynomial P of degree n = len(nums)-1."""
    acc, qk = 0, 1
    for c in reversed(nums):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _div_linear(nums: Sequence[int], p: int, q: int) -> list[int]:
    """P / (q z - p) for an integer P that the primitive (q z - p) divides."""
    out = [0] * (len(nums) - 1)
    carry = 0
    for k in range(len(nums) - 1, 0, -1):
        carry = (nums[k] + p * carry) // q
        out[k - 1] = carry
    return out


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Exact division with remainder: a = q*b + r with deg r < deg b.

    Pseudo-division on the numerators, rescaling the remainder only when the
    leading numerator of b does not divide its top coefficient.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    db = len(b.nums) - 1
    if len(a.nums) - 1 < db:
        return UniPoly.zero(), a
    rem = list(a.nums)
    lead = b.nums[-1]
    quot = [0] * (len(rem) - db)
    scale = 1  # quot * b.nums + rem == scale * a.nums throughout
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        g = gcd(c, lead)
        s = lead // g
        if s != 1:
            rem = [x * s for x in rem]
            quot = [x * s for x in quot]
            scale *= s
        f = c // g
        quot[k] = f
        for j, bj in enumerate(b.nums):
            rem[k + j] -= f * bj
    # a = (quot * b.den / (scale * a.den)) * b + rem / (scale * a.den)
    den = scale * a.den
    return _of([x * b.den for x in quot], den), _of(rem, den)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd (Euclid); gcd(0,0) = 0."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return _of(list(a.nums), a.nums[-1])


def lagrange_interpolate(nodes: Sequence[tuple[Fraction, Fraction]]) -> UniPoly:
    """The unique polynomial of degree < len(nodes) through the given points,
    whose abscissae must be pairwise distinct."""
    return _interpolate([w for w, _ in nodes], [v for _, v in nodes])[1]


def _interpolate(ws: Sequence[Fraction], vs: Sequence[Fraction]) -> tuple[UniPoly, UniPoly]:
    """Q = prod (z - w) and the interpolant sum_r v_r B_r / B_r(w_r) through
    the (w, v), with B_r = Q / (z - w_r) read off the integer numerators of Q."""
    pairs = [_ratio(w) for w in ws]
    if len(set(pairs)) != len(pairs):
        raise ValueError("repeated abscissa in interpolation nodes")
    Q = UniPoly.from_roots(ws)
    terms = []  # (B_r numerators, their scale, their denominator)
    for (p, q), v in zip(pairs, vs):
        vp, vq = _ratio(v)
        if vp:
            basis = _div_linear(Q.nums, p, q)
            terms.append((basis, vp * q ** (len(basis) - 1), _horner(basis, p, q) * vq))
    den = lcm(*[d for _, _, d in terms])
    out = [0] * (len(Q.nums) - 1)
    for basis, scale, d in terms:
        scale *= den // d
        for k, c in enumerate(basis):
            out[k] += c * scale
    return Q, _of(out, den)


# Largest constant or leading coefficient rational_roots searches the
# divisors of; the trial-division search grows as its square root.
RATIONAL_ROOT_BOUND = 2**40


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of p, with multiplicity: z = 0 first, then ascending.

    The rational-root test, by Gauss's lemma, on the primitive part P of the
    integer numerators (their gcd divided out, which leaves the roots
    unchanged): a coprime c/d, c | constant and d | leading coefficient, is
    tried by Horner only if (d - c) | P(1) and (d + c) | P(-1).  Each root
    is divided out and the candidates shrink with P; a last linear factor
    is read off.  Raises ValueError when the constant or leading
    coefficient of P (after pulling out z = 0) exceeds RATIONAL_ROOT_BOUND.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    zeros = next(k for k, c in enumerate(p.nums) if c)
    work = list(p.nums[zeros:])
    if len(work) == 1:
        return [Fraction(0)] * zeros
    g = gcd(*work)
    work = [c // g for c in work]
    if max(abs(work[0]), abs(work[-1])) > RATIONAL_ROOT_BOUND:
        raise ValueError(
            "rational_roots: constant or leading coefficient, with denominators "
            "cleared and the content divided out, exceeds the divisor-search limit 2^40"
        )
    roots: list[Fraction] = []
    cs, ds = _divisors(work[0]), _divisors(work[-1])
    while len(work) > 2 and (root := _first_root(work, cs, ds)):
        work = _div_linear(work, *root)
        roots.append(Fraction(*root))
        cs = [a for a in cs if a >= abs(root[0]) and not work[0] % a]
        ds = [d for d in ds if not work[-1] % d]
    if len(work) == 2:
        roots.append(Fraction(-work[0], work[1]))
    den = lcm(*[r.denominator for r in roots])  # sorted on exact integer keys
    return [Fraction(0)] * zeros + sorted(roots, key=lambda r: r.numerator * (den // r.denominator))


def _first_root(work: list[int], cs: list[int], ds: list[int]) -> Optional[tuple[int, int]]:
    """The first coprime root c/d of work with |c| in cs and d in ds."""
    p1, m1 = sum(work), _horner(work, -1, 1)
    for a in cs:
        for d in ds:
            if gcd(a, d) == 1:
                for c in (a, -a):
                    if not (d - c and p1 % (d - c) or d + c and m1 % (d + c) or _horner(work, c, d)):
                        return c, d


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))
