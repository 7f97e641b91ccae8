"""Forward-mode exact jets: a value together with its exact gradient.

A jet holds f(p) and (df/dx_1(p), ..., df/dx_n(p)) for one ordered list of
coordinates x_1..x_n, all as Fractions.  Arithmetic on jets applies the
chain rule operation by operation (forward mode; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 3), so a function built from +, -,
*, / and integer powers is differentiated exactly at a point without its
formula ever being formed.  Checks that only need values and first
derivatives at sample points use jets instead of symbolic ``MultiRat``s;
a given ``MultiRat`` is taken to a jet by evaluating it at coordinate jets
(``MultiRat.evaluate``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import ExactMatrix, det

_ZERO = Fraction(0)


class Jet:
    """Exact value and gradient of a function at one point."""

    __slots__ = ("value", "grad")

    def __init__(self, value: Fraction, grad: tuple[Fraction, ...]):
        self.value = value
        self.grad = grad

    @staticmethod
    def constant(c: Fraction | int, n: int) -> "Jet":
        return Jet(Fraction(c), (_ZERO,) * n)

    @staticmethod
    def coordinate(name: str, point: Mapping[str, Fraction], coords: Sequence[str]) -> "Jet":
        """The coordinate function ``name`` at ``point``; its gradient is the
        unit vector of ``name`` in ``coords`` (zero when it is not listed)."""
        grad = [_ZERO] * len(coords)
        if name in coords:
            grad[coords.index(name)] = Fraction(1)
        return Jet(Fraction(point[name]), tuple(grad))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Jet | Fraction | int") -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.value + other.value, tuple(a + b for a, b in zip(self.grad, other.grad)))
        return Jet(self.value + other, self.grad)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(-self.value, tuple(-a for a in self.grad))

    def __sub__(self, other: "Jet | Fraction | int") -> "Jet":
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> "Jet":
        return (-self) + other

    def __mul__(self, other: "Jet | Fraction | int") -> "Jet":
        if isinstance(other, Jet):
            u, v = self.value, other.value
            return Jet(u * v, tuple(u * b + v * a for a, b in zip(self.grad, other.grad)))
        return Jet(self.value * other, tuple(a * other for a in self.grad))

    __rmul__ = __mul__

    def __truediv__(self, other: "Jet | Fraction | int") -> "Jet":
        if not isinstance(other, Jet):
            return self * (1 / Fraction(other))
        v = other.value
        if v == 0:
            raise ZeroDivisionError("jet division by a zero value")
        q = self.value / v
        return Jet(q, tuple((a - q * b) / v for a, b in zip(self.grad, other.grad)))

    def __rtruediv__(self, other: Fraction | int) -> "Jet":
        return Jet.constant(other, len(self.grad)) / self

    def __pow__(self, n: int) -> "Jet":
        if n < 0:
            raise ValueError("negative power of a jet")
        if n == 0:
            return Jet.constant(1, len(self.grad))
        step = n * self.value ** (n - 1)
        return Jet(self.value**n, tuple(step * a for a in self.grad))

    def __repr__(self) -> str:
        return f"Jet({self.value}, {list(map(str, self.grad))})"


def det_jet(rows: Sequence[Sequence[Jet]], n: int) -> Jet:
    """Determinant of a square matrix of jets with gradients of length n.

    The value is the Bareiss determinant of the values.  The gradient is
    exact for every matrix, singular ones included, by Jacobi's formula
    d det A = sum_ij cof_ij(A) dA_ij with each cofactor a Bareiss minor.
    """
    size = len(rows)
    values = [[e.value for e in row] for row in rows]
    value = det(ExactMatrix(values))
    grad = [_ZERO] * n
    if n == 0 or size == 0:
        return Jet(value, tuple(grad))
    for i in range(size):
        keep_rows = [values[r] for r in range(size) if r != i]
        for j in range(size):
            cof = det(ExactMatrix([row[:j] + row[j + 1:] for row in keep_rows]))
            if cof == 0:
                continue
            if (i + j) % 2:
                cof = -cof
            for c, d in enumerate(rows[i][j].grad):
                if d:
                    grad[c] += cof * d
    return Jet(value, tuple(grad))
