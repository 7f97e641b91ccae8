"""Cartan data for classical finite types and their untwisted affinizations.

Reading: C_ij = <alpha_i^vee, alpha_j>, and the pairing matrix
P = diag(d) * C is the form (alpha_i, alpha_j), with the symmetrizer d
normalized so the smallest diagonal entry of P is 2; so d_i is half the
squared length of alpha_i.  Each family states its symmetrizer and its
highest root theta in closed form (Kac, *Infinite-dimensional Lie
algebras*, Ch. 4 and 6); the affine Cartan matrix is computed from theta.

B_n has its last simple root short (d = 2..2,1, theta = 1,2..2) and C_n
its last root long (d = 1..1,2, theta = 2..2,1), as in the textbook.  A_n
has d = 1..1 and theta = 1..1, and D_n d = 1..1 and theta = 1,2..2,1,1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional, Sequence


@dataclass(frozen=True)
class RootDatum:
    label: str
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[Fraction, ...]  # symmetrizers, min normalized to 1
    affine: bool = False
    finite: Optional["RootDatum"] = None  # underlying finite datum when affine

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @cached_property
    def pairing(self) -> tuple[tuple[Fraction, ...], ...]:
        """P_ij = d_i * C_ij; symmetric with diagonal 2*d_i."""
        return tuple(
            tuple(self.d[i] * self.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def __post_init__(self):
        c = self.cartan
        n = self.rank
        for i in range(n):
            if c[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")
        p = self.pairing
        for i in range(n):
            for j in range(n):
                if p[i][j] != p[j][i]:
                    raise ValueError("symmetrizer does not symmetrize the Cartan matrix")
        if min(self.d) != 1:
            raise ValueError("symmetrizer must be normalized to min d_i = 1")


# the Cartan matrix is dense, so a tag like "A100000" would ask for 10^10 entries
MAX_RANK = 32


def _cartan_finite(family: str, n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """The Cartan matrix of the family at rank n, with its symmetrizer d
    and the coordinates of its highest root theta in the simple roots."""
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and MAX_RANK = {MAX_RANK}")
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    if family == "A":
        return c, [1] * n, [1] * n
    if family == "B":
        if n < 2:
            raise ValueError("B_n needs rank >= 2")
        c[n - 1][n - 2] = -2  # last node short: d_n = 1
        return c, [2] * (n - 1) + [1], [1] + [2] * (n - 1)
    if family == "C":
        if n < 2:
            raise ValueError("C_n needs rank >= 2")
        c[n - 2][n - 1] = -2  # last node long: d_n = 2
        return c, [1] * (n - 1) + [2], [2] * (n - 1) + [1]
    if family == "D":
        if n < 3:
            raise ValueError("D_n needs rank >= 3")
        # node n-3 branches to the two end nodes n-2 and n-1
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
        return c, [1] * n, [1] + [2] * (n - 3) + [1, 1]
    raise ValueError(f"unsupported type family {family!r}")


def datum(type_tag: str) -> RootDatum:
    """Construct a root datum from a tag like "A2", "B3", or "A1-affine".

    Tags that name the same (family, rank, affine) share one instance.
    """
    tag = type_tag.strip()
    affine = False
    if tag.endswith("-affine"):
        affine = True
        tag = tag[: -len("-affine")]
    if len(tag) < 2 or tag[0].upper() not in "ABCD" or not tag[1:].isdecimal():
        raise ValueError(f"unsupported type tag {type_tag!r}")
    return _datum(tag[0].upper(), int(tag[1:]), affine)


@cache
def _datum(family: str, n: int, affine: bool) -> RootDatum:
    # a key that raises is not stored, so at most 4 * MAX_RANK * 2 entries
    c, d, theta = _cartan_finite(family, n)
    fin = RootDatum(label=f"{family}{n}", cartan=tuple(map(tuple, c)),
                    d=tuple(map(Fraction, d)))
    return affinize(fin, theta) if affine else fin


def affinize(fin: RootDatum, theta: Sequence[int]) -> RootDatum:
    """Untwisted affine Cartan matrix: extra node 0 attached via the highest
    root theta: C_{0j} = -<theta^vee, alpha_j>, C_{j0} = -<alpha_j^vee, theta>."""
    c = fin.cartan
    n = fin.rank
    # d_theta = (theta, theta) / 2, the symmetrizer entry of node 0
    dtheta = sum(theta[k] * theta[l] * fin.pairing[k][l] for k in range(n) for l in range(n)) / 2
    row0 = [2]
    col0 = []
    for j in range(n):
        # <alpha_j^vee, theta> = sum_k theta_k C_jk
        col0.append(-sum(theta[k] * c[j][k] for k in range(n)))
        # <theta^vee, alpha_j> = (theta, alpha_j) / d_theta = sum_k theta_k P_kj / d_theta
        val = sum(theta[k] * fin.pairing[k][j] for k in range(n)) / dtheta
        if val.denominator != 1:
            raise ValueError("non-integral affine Cartan entry")
        row0.append(-int(val))
    aff = [row0] + [[col0[j]] + list(c[j]) for j in range(n)]
    return RootDatum(
        label=f"{fin.label}-affine",
        cartan=tuple(map(tuple, aff)),
        d=(dtheta,) + fin.d,
        affine=True,
        finite=fin,
    )
