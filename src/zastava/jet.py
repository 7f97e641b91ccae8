"""Forward-mode exact jets: a value together with its exact gradient.

A jet holds f(p) and (df/dx_1(p), ..., df/dx_n(p)) for one ordered list of
coordinates x_1..x_n.  Arithmetic on jets applies the chain rule operation
by operation (forward mode; Griewank & Walther, *Evaluating Derivatives*,
2nd ed., ch. 3), so a function built from +, -, *, / and integer powers is
differentiated exactly at a point without its formula ever being formed.
Checks that only need values and first derivatives at sample points use
jets instead of symbolic ``MultiRat``s; a given ``MultiRat`` is taken to a
jet by evaluating it at coordinate jets (``MultiRat.evaluate``).

Representation: the n + 1 entries are integers over one shared
denominator, ``nums = (N_0, N_1, ..., N_n)`` and ``den``, so that
f(p) = N_0 / den and df/dx_i(p) = N_i / den.  The invariant is lowest
terms, ``den > 0`` and ``gcd(den, *nums) == 1``, so equal jets have equal
``(nums, den)``.  Each operation computes on the integers and reduces once
per result, with Knuth's gcd economy (TAOCP vol. 2, 4.5.1): a sum takes the
gcd of the two denominators first and then the gcd of the numerators with
that small factor only; a product, quotient or power first bounds the
factor its result loses by gcds across the operands (a value numerator
against the other denominator), so that no gcd runs on two numbers as long
as the result's.  ``nums`` and ``den`` are public: ``cluster`` forms
brackets on the numerators, where the denominators cancel.  ``value`` and
``grad`` read the entries as Fractions.

The series coefficients c_j = sum_r y_r w_r^j / prod_{s != r}(w_r - w_s)
of the rank-one chart skip the per-operation gcds too: ``series_jets``
writes each coordinate as an integer dual over one scale (the w over the
lcm of their denominators), inverts each product of differences P_r by
its conjugate, 1 / P_r = conj(P_r) / P_r0^2, brings the terms over one
denominator, and reduces each c_j once.

Determinants of jet matrices skip the per-operation gcds.  Each row is
lifted to integer duals, the ``nums`` of its entries over the lcm of the
row's denominators (as ``linalg.solve_linear`` lifts its equations), and
one fraction-free Bareiss pass (Math. Comp. 22, 1968) runs in
Z[eps]/(eps^2) with one eps per coordinate.  By Sylvester's identity each
entry it forms is a minor of the lift, so every division by the previous
pivot is exact, and it is done component by component because that
pivot's value is nonzero.  The k-th pivot of a pass without row swaps is
the k-th leading principal minor of the lift, so ``leading_minors_jet``
reads all leading minors of a matrix from one pass, each reduced once.
After a zero pivot value the pass stops, and each larger leading block is
taken by ``det_jet_cofactor`` (Jacobi's formula on integer cofactors of
the block's lift, with no elimination of jets), also the test reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .linalg import _det_int


def _jet(nums: tuple[int, ...], den: int) -> "Jet":
    """A jet from entries already in lowest terms."""
    j = Jet.__new__(Jet)
    j.nums, j.den = nums, den
    return j


def _cancel(nums: list[int], den: int, bound: int) -> "Jet":
    """A jet from integers over a positive den, divided by their common
    factor, which is known to divide ``bound``; the gcd starts from the
    bound, which is built from the operands alone."""
    if bound != 1:
        g = gcd(bound, den, *nums)
        if g != 1:
            return _jet(tuple([x // g for x in nums]), den // g)
    return _jet(tuple(nums), den)


def _sum(A: Sequence[int], b: int, C: Sequence[int], d: int) -> "Jet":
    """A/b + C/d for numerator vectors in lowest terms over b and d."""
    g = gcd(b, d)
    b, d = b // g, d // g
    # over b d g a factor common to every entry divides g: a prime of b/g
    # (prime to d/g) dividing every x d + y b would divide every x
    return _cancel([x * d + y * b for x, y in zip(A, C)], b * d * g, g)


class Jet:
    """Exact value and gradient of a function at one point, as integers
    ``nums`` over one positive denominator ``den`` in lowest terms."""

    __slots__ = ("nums", "den")

    def __init__(self, value: Fraction | int, grad: Sequence[Fraction | int]):
        entries = [Fraction(value), *map(Fraction, grad)]
        den = lcm(*(e.denominator for e in entries))
        # over the lcm of lowest-terms denominators the entries are in lowest terms
        self.nums = tuple(e.numerator * (den // e.denominator) for e in entries)
        self.den = den

    @staticmethod
    def constant(c: Fraction | int, n: int) -> "Jet":
        c = Fraction(c)
        return _jet((c.numerator,) + (0,) * n, c.denominator)

    @staticmethod
    def coordinate(name: str, point: Mapping[str, Fraction], coords: Sequence[str]) -> "Jet":
        """The coordinate function ``name`` at ``point``; its gradient is the
        unit vector of ``name`` in ``coords`` (zero when it is not listed)."""
        c = Fraction(point[name])
        nums = [c.numerator] + [0] * len(coords)
        if name in coords:
            nums[1 + coords.index(name)] = c.denominator
        return _jet(tuple(nums), c.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def grad(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums[1:])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Jet | Fraction | int") -> "Jet":
        if isinstance(other, Jet):
            return _sum(self.nums, self.den, other.nums, other.den)
        n = len(self.nums) - 1
        return _sum(self.nums, self.den, (other.numerator,) + (0,) * n, other.denominator)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return _jet(tuple([-x for x in self.nums]), self.den)

    def __sub__(self, other: "Jet | Fraction | int") -> "Jet":
        if isinstance(other, Jet):
            return _sum(self.nums, self.den, [-x for x in other.nums], other.den)
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> "Jet":
        return (-self) + other

    def __mul__(self, other: "Jet | Fraction | int") -> "Jet":
        A, b = self.nums, self.den
        if not isinstance(other, Jet):
            if other == 1:
                return self
            p, q = other.numerator, other.denominator
            # p/q and A/b are in lowest terms, so after cancelling across
            # the product is too
            g1, g2 = gcd(p, b), gcd(q, *A)
            if g1 != 1:
                p, b = p // g1, b // g1
            if g2 != 1:
                A, q = [x // g2 for x in A], q // g2
            return _jet(tuple([x * p for x in A]), b * q)
        C, d = other.nums, other.den
        a0, c0 = A[0], C[0]
        if len(A) == 1:  # values in lowest terms, cancelled across as Fractions are
            h1, h2 = gcd(a0, d), gcd(c0, b)
            return _jet(((a0 // h1) * (c0 // h2),), (b // h2) * (d // h1))
        bd = b * d
        nums = [a0 * c0]
        nums += [a0 * y + c0 * x for x, y in zip(A[1:], C[1:])]
        # gcd(bd, a0 c0) divides gcd(bd, a0) gcd(bd, c0)
        return _cancel(nums, bd, gcd(a0, bd) * gcd(c0, bd))

    __rmul__ = __mul__

    def __truediv__(self, other: "Jet | Fraction | int") -> "Jet":
        if not isinstance(other, Jet):
            return self * (1 / Fraction(other))
        A, b = self.nums, self.den
        C, d = other.nums, other.den
        a0, c0 = A[0], C[0]
        if c0 == 0:
            raise ZeroDivisionError("jet division by a zero value")
        if c0 < 0:
            A, C, a0, c0 = [-x for x in A], [-x for x in C], -a0, -c0
        g = gcd(b, d)
        h = gcd(a0, c0)
        b, d, a0, e = b // g, d // g, a0 // h, c0 // h
        if len(A) == 1:  # values in lowest terms, cancelled across as Fractions are
            return _jet((a0 * d,), b * e)
        # value a0 d / (b c0), gradient (a_i c0 - a0 c_i) d / (b c0^2); over
        # b e c0, with c0 = h e, the value is c0 a0 d / (c0 b e), and
        # gcd(b e, a0 d) divides gcd(b, a0) gcd(e, d)
        nums = [a0 * d * c0]
        nums += [(x * e - a0 * y) * d for x, y in zip(A[1:], C[1:])]
        return _cancel(nums, b * e * c0, c0 * gcd(b, a0) * gcd(e, d))

    def __rtruediv__(self, other: Fraction | int) -> "Jet":
        return Jet.constant(other, len(self.nums) - 1) / self

    def __pow__(self, n: int) -> "Jet":
        if n < 0:
            raise ValueError("negative power of a jet")
        if n == 0:
            return Jet.constant(1, len(self.nums) - 1)
        if n == 1:
            return self
        a0, b = self.nums[0], self.den
        if len(self.nums) == 1:
            return _jet((a0**n,), b**n)
        power = a0 ** (n - 1)
        nums = [a0 * power] + [n * power * x for x in self.nums[1:]]
        # the value a0^n / b^n loses gcd(a0, b)^n
        return _cancel(nums, b**n, gcd(a0, b) ** n)

    def __repr__(self) -> str:
        return f"Jet({self.value}, {list(map(str, self.grad))})"


def series_jets(point: Mapping[str, Fraction], coords: Sequence[str],
                w_names: Sequence[str], y_names: Sequence[str], count: int) -> list[Jet]:
    """The jets of c_0..c_{count-1} = sum_r y_r w_r^j / prod_{s != r}(w_r - w_s)
    at ``point`` over ``coords``: ``series.series_coefficients`` of the
    coordinate jets (``Jet.coordinate``), equal in ``(nums, den)``.

    The sums run on integer duals and each c_j is reduced once.  With q
    the lcm of the w denominators, w_r = W_r / q for W_r = p_r + q eps_{w_r},
    and y_r = Y_r / v_r for Y_r = u_r + v_r eps_{y_r} (a name not in
    ``coords`` gets no eps).  With P_r = prod_{s != r}(W_r - W_s), since
    eps_i eps_j = 0, 1 / P_r = conj(P_r) / P_r0^2 (conj negates the
    gradient), so t_r = y_r / prod_{s != r}(w_r - w_s) is
    q^(a-1) Y_r conj(P_r) / (v_r P_r0^2); over G, the lcm of the v_r P_r0^2,
    t_r = T_r / G with integer duals T_r, and c_j = sum_r T_r W_r^j / (G q^j).
    The point's values are Fractions or ints.  Raises ZeroDivisionError
    when two w are equal.
    """
    n = len(coords)
    slot = {name: i for i, name in enumerate(coords, start=1)}
    w_slots = [slot.get(name) for name in w_names]
    ws = [point[name] for name in w_names]
    q = lcm(*(w.denominator for w in ws))
    ps = [w.numerator * (q // w.denominator) for w in ws]
    lift = q ** (len(ps) - 1)
    terms, dens = [], []
    for r, (p, kr, y_name) in enumerate(zip(ps, w_slots, y_names)):
        gaps = [(s, p - ps[s]) for s in range(len(ps)) if s != r]
        p0 = prod(g for _, g in gaps)
        if p0 == 0:
            raise ZeroDivisionError("series coefficients at equal w")
        y = point[y_name]
        u, v = y.numerator, y.denominator
        # T_r = q^(a-1) (u P_r0 + v P_r0 eps_y - u dP_r), where
        # dP_r = sum_{s != r} (P_r0 / (p_r - p_s)) q (eps_{w_r} - eps_{w_s})
        t = [0] * (n + 1)
        t[0] = lift * u * p0
        if (k := slot.get(y_name)) is not None:
            t[k] += lift * v * p0
        uq = lift * u * q
        for s, g in gaps:
            part = uq * (p0 // g)
            if kr is not None:
                t[kr] -= part
            if (k := w_slots[s]) is not None:
                t[k] += part
        terms.append(t)
        dens.append(v * p0 * p0)
    den = lcm(*dens)
    terms = [t if d == den else [x * (den // d) for x in t] for t, d in zip(terms, dens)]
    out = []
    for j in range(count):
        if j:
            # T_r W_r: every entry times p_r, and q T_r0 into the w_r slot
            for t, p, k in zip(terms, ps, w_slots):
                t0 = t[0]
                t[:] = [x * p for x in t]
                if k is not None:
                    t[k] += q * t0
            den *= q
        out.append(_cancel([sum(col) for col in zip(*terms)], den, den))
    return out


def _lift(rows: Sequence[Sequence[Jet]]) -> tuple[list[list[list[int]]], list[int]]:
    """Each row of jets as integer duals, the entries' ``nums`` over the lcm
    of the row's denominators, and those lcms (the row scales)."""
    lifted, scales = [], []
    for row in rows:
        s = lcm(*(e.den for e in row))
        lifted.append([list(e.nums) if e.den == s else [x * (s // e.den) for x in e.nums]
                       for e in row])
        scales.append(s)
    return lifted, scales


def _eliminate(m: list[list[list[int]]], k: int, prev: list[int] | None) -> None:
    """Bareiss step k on integer duals, in place: right of column k, each
    entry x of a row below k becomes (x p - f y) / prev, with p = m[k][k],
    f the row's entry in column k and y the pivot row's entry above x.  By
    Sylvester's identity the quotient is a minor of the lifted matrix, so it
    lies in Z[eps]; prev's value is nonzero, so prev is no zero divisor and
    the quotient is read off exactly, value first (None stands for 1)."""
    pivot_row = m[k]
    p = pivot_row[k]
    p0, pg = p[0], p[1:]
    for row in m[k + 1:]:
        f = row[k]
        f0, fg = f[0], f[1:]
        for j in range(k + 1, len(row)):
            x, y = row[j], pivot_row[j]
            x0, y0 = x[0], y[0]
            v = [x0 * p0 - f0 * y0]
            v += [x0 * pc + xc * p0 - f0 * yc - fc * y0
                  for xc, yc, pc, fc in zip(x[1:], y[1:], pg, fg)]
            if prev is not None:
                d0 = prev[0]
                q0 = v[0] // d0
                v = [q0] + [(vc - q0 * dc) // d0 for vc, dc in zip(v[1:], prev[1:])]
            row[j] = v


def leading_minors_jet(rows: Sequence[Sequence[Jet]]) -> list[Jet]:
    """The jets of the leading principal minors, sizes 1..m, of an m x m
    matrix of jets.

    One fraction-free Bareiss pass on the integer-dual lift (``_lift``)
    without row swaps: by Sylvester's identity its k-th pivot is the k-th
    leading minor of the lift, that is the k-th minor times the first k row
    scales, so each minor is that pivot over their product, reduced once.
    A zero pivot value stops the pass, since the next step divides by it;
    each larger block is then taken by ``det_jet_cofactor``.
    """
    size = len(rows)
    m, scales = _lift(rows)
    out = []
    prev = None
    scale = 1
    for k in range(size):
        p = m[k][k]
        scale *= scales[k]
        out.append(_cancel(p, scale, scale))
        if k + 1 < size and p[0] == 0:
            out += [det_jet_cofactor([row[:s] for row in rows[:s]]) for s in range(k + 2, size + 1)]
            break
        _eliminate(m, k, prev)
        prev = p
    return out


def det_jet_cofactor(rows: Sequence[Sequence[Jet]]) -> Jet:
    """Determinant of a nonempty square matrix of jets by cofactors: the
    reference for ``leading_minors_jet`` and its route past a zero pivot.

    On the integer-dual lift (``_lift``) the value is the determinant of
    the values and, by Jacobi's formula d det A = sum_ij cof_ij(A) dA_ij,
    the gradient is exact for every matrix, singular ones included; the
    determinant and each cofactor are ``linalg._det_int`` of integer
    values, and the sums over the product of the row scales are reduced
    once.
    """
    m, scales = _lift(rows)
    values = [[e[0] for e in row] for row in m]
    nums = [_det_int([row[:] for row in values])] + [0] * (len(m[0][0]) - 1)
    for i, row in enumerate(m):
        keep = values[:i] + values[i + 1:]
        for j, e in enumerate(row):
            if not any(e[1:]):
                continue
            cof = (-1) ** (i + j) * _det_int([r[:j] + r[j + 1:] for r in keep])
            for c in range(1, len(e)):
                nums[c] += cof * e[c]
    den = prod(scales)
    return _cancel(nums, den, den)
