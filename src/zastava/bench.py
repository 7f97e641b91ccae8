"""Exactness preflight for the benchmark: the two determinant routes agree.

``preflight`` takes the determinant of random rational matrices by
fraction-free Bareiss on an integer lift and by cofactor expansion on the
``Fraction`` entries, and requires the two values to be equal.  The
benchmark (``perfbench/run.py``) records no timing unless it passes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg import ExactMatrix, det

STRATEGIES = ("bareiss", "cofactor")


def _random_matrix(n: int, rng: random.Random, bound: int = 99) -> ExactMatrix:
    return ExactMatrix(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def preflight(seed: int = 0, count: int = 30, max_size: int = 8) -> dict:
    """Exact cross-strategy agreement on random rational matrices."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, max_size)
        m = _random_matrix(n, rng)
        vals = {s: det(m, strategy=s) for s in STRATEGIES}
        if len(set(vals.values())) != 1:
            return {"ok": False, "instance": k, "size": n,
                    "values": {s: str(v) for s, v in vals.items()}}
    return {"ok": True, "count": count, "max_size": max_size}
