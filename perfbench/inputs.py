"""Seeded inputs for the benchmark: one-edge complexes with random rational
fan ordinates, and random slope sets for the staircase oracles.

Every value is drawn from one fixed set of small reduced fractions of about
the same bit size, so the exact-arithmetic work per job stays about the same
from seed to seed while the values change.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

# Every slope or ordinate is a reduced ±p/q with p, q in {3, 4, 5}.  The
# exact work per value grows with log(p*q), which these keep within ±10 %;
# the twelve values allow up to 12 left and 12 middle right ordinates.
_VALUES = tuple(sorted({
    Fraction(sign * p, q)
    for p in range(3, 6) for q in range(3, 6) for sign in (1, -1)
    if gcd(p, q) == 1
}))


def _distinct(rng: random.Random, count: int, limit: Fraction | None = None) -> list[Fraction]:
    """`count` distinct values, all with |value| < limit when a limit is given."""
    pool = [v for v in _VALUES if limit is None or abs(v) < limit]
    return sorted(rng.sample(pool, count))


def slopes(rng: random.Random, s: int) -> list[Fraction]:
    """s distinct nonzero slopes for the staircase oracles."""
    return _distinct(rng, s)


def _fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def one_edge_complex_json(rng: random.Random, a: int, b: int) -> str:
    """A complex with exactly one totally interior edge [v1 v2] and slope
    counts k(v1) = a, k(v2) = b, laid out like `geometry.one_edge_complex`:
    v1 = (0,0), v2 = (1,0), U = (0,1), D = (0,-1), a left fan on x = -2 with
    a-2 ordinates and a right fan on x = 3 with ordinates -2, b-3 middle
    ones, 2.

    Left ordinates are nonzero (a zero would repeat the slope of the shared
    edge) and distinct (each adds one slope at v1).  Right middle ordinates
    lie strictly inside (-2, 2) (the ends ±2 already reuse the U/D slopes
    seen from v2), are nonzero and are distinct.
    """
    if a < 3 or b < 3:
        raise ValueError("a one-edge complex needs a, b >= 3")
    lefts = sorted(_distinct(rng, a - 2), reverse=True)  # ccw from U down to D
    mids = _distinct(rng, b - 3, limit=Fraction(2))
    right_s = [Fraction(-2)] + mids + [Fraction(2)]
    verts = [(0, 0), (1, 0), (0, 1), (0, -1)]
    left_idx = []
    for s in lefts:
        left_idx.append(len(verts))
        verts.append((Fraction(-2), s))
    right_idx = []
    for s in right_s:
        right_idx.append(len(verts))
        verts.append((Fraction(3), s))
    U, D = 2, 3
    tris = [[0, 1, U]]
    chain = [U] + left_idx + [D]
    tris += [[0, p, q] for p, q in zip(chain, chain[1:])]
    tris.append([0, D, 1])
    rchain = [D] + right_idx + [U]
    tris += [[1, p, q] for p, q in zip(rchain, rchain[1:])]
    data = {
        "vertices": [[_fmt(Fraction(x)), _fmt(Fraction(y))] for x, y in verts],
        "triangles": tris,
    }
    return json.dumps(data, sort_keys=True)
