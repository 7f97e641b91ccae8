"""Exact multivariate rational functions.

A polynomial is ``content * sum(terms[key] * monomial(key))`` over a fixed
ordered variable set shared through a ``Ring``: a primitive integer part,
whose coefficients have gcd 1 and are positive at the largest key, and a
rational content held as ints ``cnum / cden`` in lowest terms, ``cden > 0``
and zero as (0, 1), reduced by gcds across the operands (Knuth, *TAOCP*
vol. 2, 4.5.1) without ``Fraction``.  That form is unique, so equality is
a comparison of fields; a product multiplies integers only (the product of
primitive parts is primitive, by Gauss's lemma), and scaling a polynomial
or a rational function by a number changes the content alone.

A monomial is one ``int`` key with a field of ``FIELD_BITS`` = 16 bits per
variable, variable 0 in the most significant field, so integer order on
keys is lexicographic order on exponent tuples and multiplying monomials
adds keys (packed exponent vectors, Monagan & Pearce, CASC 2007).  The top
bit of each field is a guard bit: exponents run from 0 to ``MAX_EXPONENT``
= 2^15 - 1, ``Ring.pack`` rejects a larger one, and a product whose key
sets a guard bit raises OverflowError, so an exponent never wraps into its
neighbour.

A rational function keeps its denominator factored: a monomial key and a
multiset {primitive factor: exponent}, with all content in the numerator.
A sum goes over the lcm of the two multisets (Henrici's rational addition,
Knuth, *TAOCP* vol. 2, 4.5.1), a product adds exponents, and a derivative
raises by one only the exponents of the factors that depend on the
variable.  The numerator is not divided by the factors, so the form is not
reduced: equality is semantic (the difference is zero).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_
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
        self.shifts: tuple[int, ...] = tuple(range(FIELD_BITS * (n - 1), -1, -FIELD_BITS))
        self.guard: int = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)

    def pack(self, exponents: Sequence[int]) -> int:
        """The key of the monomial with these exponents (one per variable)."""
        if len(exponents) != len(self.names):
            raise ValueError(f"expected {len(self.names)} exponents, got {len(exponents)}")
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
        return _poly(self, {}, 0, 1)

    def const(self, c: Fraction | int) -> "MultiPoly":
        if not isinstance(c, int):
            c = Fraction(c)
        return _poly(self, {0: 1} if c else {}, c.numerator, c.denominator)

    def var(self, name: str) -> "MultiPoly":
        return _poly(self, {1 << self.shifts[self.index[name]]: 1}, 1, 1)

    def rat_const(self, c: Fraction | int) -> "MultiRat":
        return _rat(self.const(c), 0, {})

    def rat_var(self, name: str) -> "MultiRat":
        return _rat(self.var(name), 0, {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Ring({', '.join(self.names)})"


def _primitive(ring: Ring, acc: Mapping[int, int], cnum: int, cden: int) -> "MultiPoly":
    """(cnum / cden) * acc in normal form: zeros dropped, the gcd and sign of the
    integer part moved into the content."""
    acc = {k: v for k, v in acc.items() if v}
    if not acc:
        return ring.zero()
    g = gcd(*acc.values())
    if acc[max(acc)] < 0:
        g = -g
    if g != 1:
        acc = {k: v // g for k, v in acc.items()}
        h = gcd(g, cden)
        cnum, cden = cnum * (g // h), cden // h
    return _poly(ring, acc, cnum, cden)


class _Fields:  # the slots of a MultiPoly, writable: ``_poly`` fills them
    __slots__ = ("ring", "terms", "cnum", "cden")


class MultiPoly(_Fields):
    """``(cnum / cden) * sum(terms[key] * monomial(key))`` in the normal form
    of the module docstring; immutable, and built only by ``_poly``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"MultiPoly is immutable: cannot set {name}")
    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through _poly, past __setattr__
        return _poly, (self.ring, self.terms, self.cnum, self.cden)

    @property
    def content(self) -> Fraction:
        return Fraction(self.cnum, self.cden)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.cnum == other.cnum and self.cden == other.cden and self.terms == other.terms

    def __hash__(self):
        return hash((self.cnum, self.cden, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("operands belong to different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented  # a MultiRat adds by its reflected operator
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        # both contents are integer multiples u1, u2 of gcd(n1, n2) / lcm(d1, d2)
        n1, d1, n2, d2 = self.cnum, self.cden, other.cnum, other.cden
        n, g = gcd(n1, n2), gcd(d1, d2)
        u1, u2 = n1 // n * (d2 // g), n2 // n * (d1 // g)
        acc = {k: u1 * v for k, v in self.terms.items()}
        get = acc.get
        for k, v in other.terms.items():
            acc[k] = get(k, 0) + u2 * v
        return _primitive(self.ring, acc, n, d1 // g * d2)

    def __neg__(self) -> "MultiPoly":
        return _poly(self.ring, self.terms, -self.cnum, self.cden)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | Fraction | int") -> "MultiPoly":
        if isinstance(other, (Fraction, int)):
            terms, n2, d2 = (self.terms if other else {}), other.numerator, other.denominator
        elif not isinstance(other, MultiPoly):
            return NotImplemented  # a MultiRat multiplies by its reflected operator
        else:
            self._check(other)
            # the product of primitive parts is primitive, and its largest key
            # is the sum of theirs, with a positive coefficient: no normalising
            acc: dict[int, int] = {}
            get = acc.get
            b = list(other.terms.items())
            for ka, ca in self.terms.items():
                for kb, cb in b:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
            if reduce(or_, acc, 0) & self.ring.guard:
                raise OverflowError(f"product exponent exceeds {MAX_EXPONENT}")
            terms, n2, d2 = {k: v for k, v in acc.items() if v}, other.cnum, other.cden
        # (n1 / d1) (n2 / d2) in lowest terms, cancelling across the operands; a
        # zero operand gives (0, 1)
        n1, d1 = self.cnum, self.cden
        g1, g2 = gcd(n1, d2), gcd(n2, d1)
        return _poly(self.ring, terms, (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = self.ring.const(1), self
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
        return _primitive(self.ring, out, self.cnum, self.cden)

    def by_degree_in(self, name: str) -> list["MultiPoly"]:
        """Coefficients p_0..p_d of self = sum p_k * var^k (p_k free of var)."""
        s = self.ring.shifts[self.ring.index[name]]
        d = max(((key >> s) & _FIELD for key in self.terms), default=0)
        buckets: list[dict[int, int]] = [{} for _ in range(d + 1)]
        for key, c in self.terms.items():
            k = (key >> s) & _FIELD
            buckets[k][key - (k << s)] = c
        return [_primitive(self.ring, b, self.cnum, self.cden) for b in buckets]

    def subs(self, name: str, value: "MultiRat") -> "MultiRat":
        """Substitute a rational function for a variable (Horner)."""
        parts = self.by_degree_in(name)
        acc = _rat(parts[-1], 0, {})
        for p in reversed(parts[:-1]):
            acc = acc * value + _rat(p, 0, {})
        return acc

    def evaluate(self, assignment: Mapping[str, object]):
        """Value at an assignment of exact numbers or of jets
        (``zastava.jet.Jet``), each power of a variable formed once; names
        outside the ring are ignored."""
        powers = {}  # (variable index, exponent) -> power
        total = Fraction(0)
        for key, c in self.terms.items():
            for i, k in enumerate(self.ring.unpack(key)):
                if k:
                    if (i, k) not in powers:
                        if (v := assignment.get(self.ring.names[i])) is None:
                            raise ValueError(f"unassigned variable {self.ring.names[i]}")
                        powers[i, k] = v ** k
                    c *= powers[i, k]
            total += c
        return self.content * total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        content = self.content
        for key, v in sorted(self.terms.items()):
            c = content * v
            mono = "*".join(f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                            for i, k in enumerate(self.ring.unpack(key)) if k)
            parts.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(parts)


def _min_key(m: int, keys, guard: int) -> int:
    """Key of the fieldwise minimum of m and all keys (0 when it is the
    monomial 1), by SWAR: a field's guard bit in ((m | G) - e) & G is set
    where m_i >= e_i, and spreading it over the field selects e_i."""
    low = FIELD_BITS - 1
    for e in keys:
        if not m:
            return 0
        sel = ((((m | guard) - e) & guard) >> low) * _FIELD
        m = (e & sel) | (m & ~sel)
    return m


def _shift(p: MultiPoly, delta: int) -> MultiPoly:
    """p times the monomial of key delta (delta >= 0), or divided by it
    (delta < 0, every key of p a multiple of -delta)."""
    if not delta:
        return p
    terms = {key + delta: c for key, c in p.terms.items()}
    if delta > 0 and reduce(or_, terms, 0) & p.ring.guard:
        raise OverflowError(f"product exponent exceeds {MAX_EXPONENT}")
    return _poly(p.ring, terms, p.cnum, p.cden)


def _poly(ring: Ring, terms: Mapping[int, int], cnum: int, cden: int) -> MultiPoly:
    """The one constructor of MultiPoly: fills a ``_Fields``, then retypes it."""
    p = object.__new__(_Fields)
    p.ring, p.terms, p.cnum, p.cden = ring, terms, cnum, cden
    p.__class__ = MultiPoly
    return p


def _inverse(n: int, d: int) -> int | Fraction:
    """d / n for coprime n != 0 and d > 0; an int when n is 1 or -1."""
    return d * n if n in (1, -1) else Fraction(d, n)


def _split(p: MultiPoly) -> tuple[int | Fraction, int, "MultiPoly | None"]:
    """A nonzero p as monomial * factor / s, s = 1 / content: the factor is
    primitive, positive at its largest key, monomial-free, None for one term."""
    keys = iter(p.terms)
    mono = _min_key(next(keys), keys, p.ring.guard)
    f = None if len(p.terms) == 1 else _poly(p.ring, _shift(p, -mono).terms, 1, 1)
    return _inverse(p.cnum, p.cden), mono, f


def _depends(p: MultiPoly, field: int) -> bool:
    return any(k & field for k in p.terms)


class MultiRat:
    """``top / (monomial(mono) * prod(f**e for f, e in factors.items()))``.

    The denominator is a multiset: a monomial key and primitive factors
    (see ``_split``) with positive exponents.  A sum goes over the lcm of
    the two multisets, so w - w' and w' - w, being one factor, never come
    back raised to high powers.  No variable divides both ``mono`` and
    every term of ``top``.  Equality is semantic.
    """

    __slots__ = ("top", "mono", "factors")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.ring is not den.ring:
            raise ValueError("numerator and denominator in different rings")
        s, mono, f = _split(den)
        self._set(num * s, mono, {} if f is None else {f: 1})

    def _set(self, top: MultiPoly, mono: int, factors: Mapping[MultiPoly, int]) -> None:
        """Store top / (mono * factors), cancelling the common monomial;
        ``factors`` is shared, never mutated afterwards."""
        if top.is_zero:
            mono, factors = 0, {}
        elif mono:
            guard = top.ring.guard
            if mono & guard:
                raise OverflowError(f"denominator exponent exceeds {MAX_EXPONENT}")
            m = _min_key(mono, top.terms, guard)
            if m:
                top, mono = _shift(top, -m), mono - m
        self.top, self.mono, self.factors = top, mono, factors

    @property
    def ring(self) -> Ring:
        return self.top.ring

    @property
    def is_zero(self) -> bool:
        return self.top.is_zero

    def _expanded(self) -> tuple[MultiPoly, Fraction]:
        """The denominator as a polynomial, and 1 over its coefficient at its smallest key."""
        den = _poly(self.ring, {self.mono: 1}, 1, 1)
        for f, e in self.factors.items():
            den = den * f**e
        return den, Fraction(1, den.terms[min(den.terms)])

    @property
    def num(self) -> MultiPoly:
        """Numerator over ``den``."""
        return self.top * self._expanded()[1]

    @property
    def den(self) -> MultiPoly:
        """The expanded denominator, scaled to 1 at its smallest key."""
        den, scale = self._expanded()
        return den * scale

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: "MultiRat | MultiPoly | Fraction | int") -> "MultiRat":
        if isinstance(other, MultiRat):
            return other
        if isinstance(other, MultiPoly):
            return _rat(other, 0, {})
        return self.ring.rat_const(other)

    def _over(self, mono: int, factors: Mapping[MultiPoly, int]) -> MultiPoly:
        """The numerator of self over (mono, factors), a multiple of its denominator."""
        top = _shift(self.top, mono - self.mono)
        own = self.factors
        for f, e in factors.items():
            k = e - own.get(f, 0)
            if k:
                top = top * (f if k == 1 else f**k)
        return top

    def __add__(self, other) -> "MultiRat":
        o = self._coerce(other)
        if o.top.is_zero:
            return self
        if self.top.is_zero:
            return o
        if self.mono == o.mono and self.factors == o.factors:
            return _rat(self.top + o.top, self.mono, self.factors)
        # Henrici: the sum over the lcm of the two denominators
        mono = self.mono + o.mono - _min_key(self.mono, (o.mono,), self.ring.guard)
        factors = dict(self.factors)
        for f, e in o.factors.items():
            if factors.get(f, 0) < e:
                factors[f] = e
        return _rat(self._over(mono, factors) + o._over(mono, factors), mono, factors)

    __radd__ = __add__

    def __neg__(self) -> "MultiRat":
        return _rat(-self.top, self.mono, self.factors)

    def __sub__(self, other) -> "MultiRat":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiRat":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiRat":
        if isinstance(other, (int, Fraction)):
            return _rat(self.top * other, self.mono, self.factors)
        o = self._coerce(other)
        if not o.factors:
            factors = self.factors
        elif not self.factors:
            factors = o.factors
        else:
            factors = dict(self.factors)
            for f, e in o.factors.items():
                factors[f] = factors.get(f, 0) + e
        return _rat(self.top * o.top, self.mono + o.mono, factors)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiRat":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero rational function")
            return self * _inverse(other.numerator, other.denominator)
        o = self._coerce(other)
        if o.top.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        s, mono, f = _split(o.top)
        factors = dict(self.factors)
        if f is not None:
            factors[f] = factors.get(f, 0) + 1
        top = _shift(self.top, o.mono) * s
        # o's denominator factors move up, cancelling against ours
        for g, e in o.factors.items():
            have = factors.pop(g, 0)
            if have > e:
                factors[g] = have - e
            elif e > have:
                top = top * (g if e - have == 1 else g ** (e - have))
        return _rat(top, self.mono + mono, factors)

    def __rtruediv__(self, other) -> "MultiRat":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "MultiRat":
        if n < 0:
            return (self.ring.rat_const(1) / self) ** (-n)
        mono = self.ring.pack([k * n for k in self.ring.unpack(self.mono)]) if self.mono else 0
        return _rat(self.top**n, mono, {f: e * n for f, e in self.factors.items()} if n else {})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly, MultiRat)):
            return (self - self._coerce(other)).is_zero
        return NotImplemented

    def __hash__(self):
        raise TypeError("MultiRat is unhashable (equality is semantic)")

    # -- calculus / substitution ---------------------------------------

    def diff(self, name: str) -> "MultiRat":
        """The quotient rule with d(den)/den = k/x + sum e f'/f: only the
        factors that depend on x, and the monomial field of x, gain one."""
        ring = self.ring
        s = ring.shifts[ring.index[name]]
        k = (self.mono >> s) & _FIELD
        dep = [(f, e) for f, e in self.factors.items() if _depends(f, _FIELD << s)]
        top = self.top
        dtop = top.diff(name)
        if not dep and not k:
            return _rat(dtop, self.mono, self.factors)
        # P = prod f, S = sum e f' P / f over the dependent factors
        P, S = ring.const(1), ring.zero()
        for f, e in dep:
            S = S * f + P * f.diff(name) * e
            P = P * f
        out = P * dtop - top * S
        mono = self.mono
        if k:
            out = _shift(out, 1 << s) - top * P * k
            mono += 1 << s
        return _rat(out, mono, {**self.factors, **{f: e + 1 for f, e in dep}})

    def subs(self, name: str, value: "MultiRat | Fraction | int") -> "MultiRat":
        """Substitute into the numerator and into each factor that depends
        on the variable; raises ZeroDivisionError when one becomes 0."""
        v = self._coerce(value)
        ring = self.ring
        s = ring.shifts[ring.index[name]]
        k = (self.mono >> s) & _FIELD
        den, rest = v**k, {}
        for f, e in self.factors.items():
            if _depends(f, _FIELD << s):
                den = den * f.subs(name, v) ** e
            else:
                rest[f] = e
        return self.top.subs(name, v) * _rat(ring.const(1), self.mono - (k << s), rest) / den

    def evaluate(self, assignment: Mapping[str, object]):
        """Value at numbers or jets; raises ZeroDivisionError at a pole."""
        d = _poly(self.ring, {self.mono: 1}, 1, 1).evaluate(assignment)
        for f, e in self.factors.items():
            d = d * f.evaluate(assignment) ** e
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.top.evaluate(assignment) / d

    def depends_on(self, name: str) -> bool:
        field = _FIELD << self.ring.shifts[self.ring.index[name]]
        return bool(self.mono & field) or _depends(self.top, field) or any(
            _depends(f, field) for f in self.factors)

    def __str__(self) -> str:
        if not self.mono and not self.factors:
            return str(self.top)
        den, scale = self._expanded()
        return f"({self.top * scale}) / ({den * scale})"

    __repr__ = __str__


def _rat(top: MultiPoly, mono: int, factors: Mapping[MultiPoly, int]) -> MultiRat:
    r = MultiRat.__new__(MultiRat)
    r._set(top, mono, factors)
    return r
