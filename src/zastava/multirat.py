"""Exact multivariate rational functions.

A polynomial is ``content * sum(terms[key] * monomial(key))`` over a fixed
ordered variable set shared through a ``Ring``: a rational ``content`` and
a primitive integer part, whose coefficients have gcd 1 and are positive
at the largest key.  That form is unique, so equality is a comparison of
fields; a product multiplies integers only (by Gauss's lemma the product
of primitive parts is primitive), and scaling by a number changes the
content alone.

A monomial is one ``int`` key with a field of ``FIELD_BITS`` = 16 bits per
variable, variable 0 in the most significant field, so integer order on
keys is lexicographic order on exponent tuples and multiplying monomials
adds keys (packed exponent vectors, Monagan & Pearce, CASC 2007).  The top
bit of each field is a guard bit: exponents run from 0 to ``MAX_EXPONENT``
= 2^15 - 1, ``Ring.pack`` rejects a larger one, and a product whose key
sets a guard bit raises OverflowError, so an exponent never wraps into its
neighbour.

Rational functions are numerator/denominator pairs; they are *not* kept in
reduced form -- equality is semantic (cross multiplication), and only cheap
reductions (common monomial factor, denominator content) are applied after
each operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1


class Ring:
    """An ordered variable set; all polynomials carry a reference to one."""

    def __init__(self, names: Sequence[str]):
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        # bit offset of each variable's field, and the guard bits of all fields
        self.shifts: tuple[int, ...] = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self.guard: int = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def pack(self, exponents: Sequence[int]) -> int:
        """The key of the monomial with these exponents (one per variable)."""
        if len(exponents) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exponents)}")
        key = 0
        for k in exponents:
            if k < 0:
                raise ValueError("negative exponent")
            if k > MAX_EXPONENT:
                raise OverflowError(f"exponent {k} exceeds {MAX_EXPONENT}")
            key = (key << FIELD_BITS) | k
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> s) & _FIELD for s in self.shifts)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {}, Fraction(0))

    def const(self, c: Fraction | int) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self, {} if c == 0 else {0: 1}, c)

    def var(self, name: str) -> "MultiPoly":
        e = [0] * self.nvars
        e[self.index[name]] = 1
        return MultiPoly(self, {self.pack(e): 1}, Fraction(1))

    def rat_const(self, c: Fraction | int) -> "MultiRat":
        return MultiRat(self.const(c), self.const(1))

    def rat_var(self, name: str) -> "MultiRat":
        return MultiRat(self.var(name), self.const(1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Ring({', '.join(self.names)})"


def _primitive(ring: Ring, acc: Mapping[int, int], content: Fraction) -> "MultiPoly":
    """content * acc in normal form: zero terms dropped, the integer part
    divided by the gcd of its coefficients and by the sign of its largest key."""
    acc = {k: v for k, v in acc.items() if v}
    if not acc:
        return ring.zero()
    g = gcd(*acc.values())
    if acc[max(acc)] < 0:
        g = -g
    if g != 1:
        acc = {k: v // g for k, v in acc.items()}
        content = content * g
    return MultiPoly(ring, acc, content)


@dataclass(frozen=True)
class MultiPoly:
    """``content * sum(terms[key] * monomial(key))`` with ``terms`` a
    primitive integer part (see the module docstring); zero has no terms
    and content 0."""

    ring: Ring
    terms: Mapping[int, int]
    content: Fraction

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.content == other.content and self.terms == other.terms

    def __hash__(self):
        return hash((self.content, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("operands belong to different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        # both contents are integer multiples u1, u2 of their gcd n / d
        c1, c2 = self.content, other.content
        n = gcd(c1.numerator, c2.numerator)
        d = lcm(c1.denominator, c2.denominator)
        u1 = c1.numerator // n * (d // c1.denominator)
        u2 = c2.numerator // n * (d // c2.denominator)
        acc = {k: u1 * v for k, v in self.terms.items()}
        get = acc.get
        for k, v in other.terms.items():
            acc[k] = get(k, 0) + u2 * v
        return _primitive(self.ring, acc, Fraction(n, d))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, self.terms, -self.content)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | Fraction | int") -> "MultiPoly":
        if isinstance(other, (Fraction, int)):
            other = Fraction(other)
            if other == 0:
                return self.ring.zero()
            return MultiPoly(self.ring, self.terms, self.content * other)
        self._check(other)
        if not self.terms or not other.terms:
            return self.ring.zero()
        # the product of primitive parts is primitive, and its largest key
        # is the sum of theirs, with a positive coefficient: no normalising
        acc: dict[int, int] = {}
        get = acc.get
        b = list(other.terms.items())
        for ka, ca in self.terms.items():
            for kb, cb in b:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        guard = self.ring.guard
        if any(k & guard for k in acc):
            raise OverflowError(f"product exponent exceeds {MAX_EXPONENT}")
        return MultiPoly(
            self.ring, {k: v for k, v in acc.items() if v}, self.content * other.content
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus / substitution ---------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        s = self.ring.shifts[self.ring.index[name]]
        one = 1 << s
        out: dict[int, int] = {}
        for key, c in self.terms.items():
            k = (key >> s) & _FIELD
            if k:
                out[key - one] = c * k
        return _primitive(self.ring, out, self.content)

    def by_degree_in(self, name: str) -> list["MultiPoly"]:
        """Coefficients p_0..p_d of self = sum p_k * var^k (p_k free of var)."""
        s = self.ring.shifts[self.ring.index[name]]
        d = max(((key >> s) & _FIELD for key in self.terms), default=0)
        buckets: list[dict[int, int]] = [{} for _ in range(d + 1)]
        for key, c in self.terms.items():
            k = (key >> s) & _FIELD
            buckets[k][key - (k << s)] = c
        return [_primitive(self.ring, b, self.content) for b in buckets]

    def subs(self, name: str, value: "MultiRat") -> "MultiRat":
        """Substitute a rational function for a variable (Horner)."""
        parts = self.by_degree_in(name)
        acc = MultiRat(parts[-1], self.ring.const(1))
        for p in reversed(parts[:-1]):
            acc = acc * value + MultiRat(p, self.ring.const(1))
        return acc

    def evaluate(self, assignment: Mapping[str, object]):
        """Value at an assignment of exact numbers or of jets
        (``zastava.jet.Jet``); names outside the ring are ignored."""
        vals = [assignment.get(n) for n in self.ring.names]
        total = Fraction(0)
        for key, c in self.terms.items():
            t = c
            for i, k in enumerate(self.ring.unpack(key)):
                if k:
                    if vals[i] is None:
                        raise ValueError(f"unassigned variable {self.ring.names[i]}")
                    t *= vals[i] ** k
            total += t
        return self.content * total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key, v in sorted(self.terms.items()):
            c = self.content * v
            mono = "*".join(
                f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                for i, k in enumerate(self.ring.unpack(key))
                if k
            )
            parts.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(parts)


def _common_monomial(num: MultiPoly, den: MultiPoly) -> int:
    """Key of the fieldwise minimum of all keys of num and den (0 when it
    is the monomial 1), by SWAR: a field's guard bit in ((m | G) - e) & G
    is set where m_i >= e_i, and spreading it over the field selects e_i."""
    guard = num.ring.guard
    low = FIELD_BITS - 1
    m = None
    for p in (num, den):
        for e in p.terms:
            if m is None:
                m = e
            else:
                sel = ((((m | guard) - e) & guard) >> low) * _FIELD
                m = (e & sel) | (m & ~sel)
            if not m:
                return 0
    return m


def _shift_down(p: MultiPoly, mono: int) -> MultiPoly:
    return MultiPoly(p.ring, {key - mono: c for key, c in p.terms.items()}, p.content)


class MultiRat:
    """Numerator/denominator pair with semantic equality."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.ring is not den.ring:
            raise ValueError("numerator and denominator in different rings")
        # cheap canonicalisation: strip common monomial, scale den content to 1
        mono = _common_monomial(num, den) if not num.is_zero else 0
        if mono:
            num = _shift_down(num, mono)
            den = _shift_down(den, mono)
        scale = den.content * den.terms[min(den.terms)]
        if scale != 1:
            inv = 1 / scale
            num = num * inv
            den = den * inv
        if num.is_zero:
            den = num.ring.const(1)
        self.num = num
        self.den = den

    @property
    def ring(self) -> Ring:
        return self.num.ring

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: "MultiRat | MultiPoly | Fraction | int") -> "MultiRat":
        if isinstance(other, MultiRat):
            return other
        if isinstance(other, MultiPoly):
            return MultiRat(other, self.ring.const(1))
        return self.ring.rat_const(Fraction(other))

    def __add__(self, other) -> "MultiRat":
        o = self._coerce(other)
        if self.den == o.den:
            return MultiRat(self.num + o.num, self.den)
        return MultiRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "MultiRat":
        return MultiRat(-self.num, self.den)

    def __sub__(self, other) -> "MultiRat":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiRat":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiRat":
        o = self._coerce(other)
        return MultiRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiRat":
        o = self._coerce(other)
        if o.num.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return MultiRat(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "MultiRat":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "MultiRat":
        if n < 0:
            return self.ring.rat_const(1) / self ** (-n)
        return MultiRat(self.num**n, self.den**n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly, MultiRat)):
            o = self._coerce(other)
            return (self.num * o.den - o.num * self.den).is_zero
        return NotImplemented

    def __hash__(self):
        raise TypeError("MultiRat is unhashable (equality is semantic)")

    # -- calculus / substitution ---------------------------------------

    def diff(self, name: str) -> "MultiRat":
        n, d = self.num, self.den
        return MultiRat(n.diff(name) * d - n * d.diff(name), d * d)

    def subs(self, name: str, value: "MultiRat | Fraction | int") -> "MultiRat":
        v = self._coerce(value)
        return self.num.subs(name, v) / self.den.subs(name, v)

    def evaluate(self, assignment: Mapping[str, object]):
        """Value at numbers or jets; raises ZeroDivisionError at a pole."""
        d = self.den.evaluate(assignment)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.evaluate(assignment) / d

    def depends_on(self, name: str) -> bool:
        field = _FIELD << self.ring.shifts[self.ring.index[name]]
        return any(k & field for k in self.num.terms) or any(k & field for k in self.den.terms)

    def __str__(self) -> str:
        if self.den == self.ring.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__
