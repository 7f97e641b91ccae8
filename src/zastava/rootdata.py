"""Cartan data for classical finite types and their untwisted affinizations.

The pairing matrix is P = diag(d) * C, with the symmetrizer d normalized so
the smallest diagonal entry of P is 2.  Affine Cartan matrices are computed
from the highest root rather than hardcoded per type.
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


def _cartan_finite(family: str, n: int) -> list[list[int]]:
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and MAX_RANK = {MAX_RANK}")
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    if family == "A":
        pass
    elif family == "B":
        if n < 2:
            raise ValueError("B_n needs rank >= 2")
        c[n - 2][n - 1] = -2  # last node short
    elif family == "C":
        if n < 2:
            raise ValueError("C_n needs rank >= 2")
        c[n - 1][n - 2] = -2  # last node long
    elif family == "D":
        if n < 3:
            raise ValueError("D_n needs rank >= 3")
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    else:
        raise ValueError(f"unsupported type family {family!r}")
    return c


def _symmetrizer(c: Sequence[Sequence[int]]) -> list[Fraction]:
    """Positive d with d_i C_ij = d_j C_ji, normalized to min 1."""
    n = len(c)
    d: list[Optional[Fraction]] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and c[i][j] != 0:
                    dj = d[i] * Fraction(c[i][j], c[j][i])
                    if d[j] is None:
                        d[j] = dj
                        stack.append(j)
                    elif d[j] != dj:
                        raise ValueError("Cartan matrix is not symmetrizable")
    m = min(d)  # type: ignore[arg-type]
    return [x / m for x in d]  # type: ignore[operator,union-attr]


def _positive_roots(c: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All positive roots, as coordinate vectors in the simple-root basis."""
    n = len(c)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def reflect(alpha: tuple[int, ...], i: int) -> tuple[int, ...]:
        # s_i(alpha) = alpha - <alpha_i^vee, alpha> alpha_i
        pair = sum(c[i][k] * alpha[k] for k in range(n))
        out = list(alpha)
        out[i] -= pair
        return tuple(out)

    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for alpha in frontier:
            for i in range(n):
                beta = reflect(alpha, i)
                if beta not in seen:
                    seen.add(beta)
                    nxt.append(beta)
        frontier = nxt
    return sorted(a for a in seen if all(x >= 0 for x in a) and any(a))


def _highest_root(c: Sequence[Sequence[int]]) -> tuple[int, ...]:
    pos = _positive_roots(c)
    theta = max(pos, key=sum)
    # the highest root dominates every positive root coordinatewise
    for alpha in pos:
        if any(t < a for t, a in zip(theta, alpha)):
            raise ValueError("no unique highest root (reducible Cartan matrix?)")
    return theta


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
    c = _cartan_finite(family, n)
    fin = RootDatum(label=f"{family}{n}", cartan=tuple(map(tuple, c)), d=tuple(_symmetrizer(c)))
    if not affine:
        return fin
    return affinize(fin)


def affinize(fin: RootDatum) -> RootDatum:
    """Untwisted affine Cartan matrix: extra node 0 attached via the highest
    root theta: C_{0j} = -<theta^vee, alpha_j>, C_{j0} = -<alpha_j^vee, theta>."""
    c = fin.cartan
    n = fin.rank
    theta = _highest_root(c)
    dtheta = sum(
        theta[k] * theta[l] * fin.d[k] * c[k][l] for k in range(n) for l in range(n)
    ) / 2
    row0 = [2]
    col0 = []
    for j in range(n):
        # <alpha_j^vee, theta> = sum_k theta_k C_jk
        col0.append(-sum(theta[k] * c[j][k] for k in range(n)))
        # <theta^vee, alpha_j> = (theta, alpha_j) / d_theta = sum_k theta_k d_k C_kj / d_theta
        val = sum(theta[k] * fin.d[k] * c[k][j] for k in range(n)) / dtheta
        if val.denominator != 1:
            raise ValueError("non-integral affine Cartan entry")
        row0.append(-int(val))
    aff = [row0] + [[col0[j]] + list(c[j]) for j in range(n)]
    d0 = [dtheta] + list(fin.d)
    m = min(d0)
    d0 = [x / m for x in d0]
    return RootDatum(
        label=f"{fin.label}-affine",
        cartan=tuple(map(tuple, aff)),
        d=tuple(d0),
        affine=True,
        finite=fin,
    )
