"""Exact multivariate rational functions.

Polynomials are sparse monomial maps (exponent tuple -> Fraction) over a
fixed ordered variable set shared through a ``Ring``.  Rational functions
are numerator/denominator pairs; they are *not* kept in reduced form --
equality is semantic (cross multiplication), and only cheap reductions
(common monomial factor, denominator content) are applied after each
operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

Exponent = tuple[int, ...]


class Ring:
    """An ordered variable set; all polynomials carry a reference to one."""

    def __init__(self, names: Sequence[str]):
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def const(self, c: Fraction | int) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self, {} if c == 0 else {(0,) * self.nvars: c})

    def var(self, name: str) -> "MultiPoly":
        e = [0] * self.nvars
        e[self.index[name]] = 1
        return MultiPoly(self, {tuple(e): Fraction(1)})

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


@dataclass(frozen=True)
class MultiPoly:
    ring: Ring
    terms: Mapping[Exponent, Fraction]

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("operands belong to different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MultiPoly(self.ring, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | Fraction | int") -> "MultiPoly":
        if isinstance(other, (Fraction, int)):
            other = Fraction(other)
            if other == 0:
                return self.ring.zero()
            return MultiPoly(self.ring, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus / substitution ---------------------------------------

    def diff(self, name: str) -> "MultiPoly":
        i = self.ring.index[name]
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return MultiPoly(self.ring, out)

    def by_degree_in(self, name: str) -> list["MultiPoly"]:
        """Coefficients p_0..p_d of self = sum p_k * var^k (p_k free of var)."""
        i = self.ring.index[name]
        d = max((e[i] for e in self.terms), default=0)
        buckets: list[dict[Exponent, Fraction]] = [{} for _ in range(d + 1)]
        for e, c in self.terms.items():
            e2 = list(e)
            k = e2[i]
            e2[i] = 0
            buckets[k][tuple(e2)] = c
        return [MultiPoly(self.ring, b) for b in buckets]

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
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k:
                    if vals[i] is None:
                        raise ValueError(f"unassigned variable {self.ring.names[i]}")
                    t *= vals[i] ** k
            total += t
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                for i, k in enumerate(e)
                if k
            )
            parts.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(parts)


def _common_monomial(*polys: MultiPoly) -> Exponent | None:
    mins: list[int] | None = None
    for p in polys:
        for e in p.terms:
            if mins is None:
                mins = list(e)
            else:
                mins = [min(a, b) for a, b in zip(mins, e)]
    if mins is None or not any(mins):
        return None
    return tuple(mins)


def _shift_down(p: MultiPoly, mono: Exponent) -> MultiPoly:
    return MultiPoly(
        p.ring,
        {tuple(a - b for a, b in zip(e, mono)): c for e, c in p.terms.items()},
    )


class MultiRat:
    """Numerator/denominator pair with semantic equality."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.ring is not den.ring:
            raise ValueError("numerator and denominator in different rings")
        # cheap canonicalisation: strip common monomial, scale den content to 1
        mono = _common_monomial(num, den) if not num.is_zero else None
        if mono is not None:
            num = _shift_down(num, mono)
            den = _shift_down(den, mono)
        scale = next(iter(sorted(den.terms.items())))[1] if den.terms else Fraction(1)
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
        i = self.ring.index[name]
        return any(e[i] for e in self.num.terms) or any(e[i] for e in self.den.terms)

    def __str__(self) -> str:
        if self.den == self.ring.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__
