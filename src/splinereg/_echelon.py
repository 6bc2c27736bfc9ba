"""Exact integer echelon accumulators.

Every production elimination runs on `SparseIntEchelon`: the boundary and
spline-dimension walks in `chains`, and the walk of J' and the sum oracle
in `staircase`; the boundary walk also reduces each column by the stored
pivots of a walk of P'(v), in one pass (`chains._reduce`).
`DenseIntEchelon` runs no production route; it stays as
the tests' from-scratch reference and as a name the benchmark traces.

All reduction is cross-multiplication (a*vec - b*pivot) with the
multipliers a, b first divided by their gcd, so every intermediate value is
an exact integer.  Each vector is made primitive (divided by the gcd of its
entries) once, when it is stored as a pivot.  Rank is the number of pivots
collected.

The sparse echelon reduces the insert's own zero-free copy of the vector in
place: both multipliers are negated when a < 0, so a > 0, and the scaling
pass is skipped when a == 1, as in most steps of the spline-dimension
oracle, whose rows lead in +-1 entries.  Its callers key coordinates by
integers, which hash and compare faster than tuples: the chains walks by
integers that sort like (degree level, index), and the walk of J' by -k
for the coefficient of v^k, so that a pivot leads in its top term.
"""
from __future__ import annotations

from math import gcd


def _normalize_dict(vec):
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            return vec
    if g > 1:
        return {k: v // g for k, v in vec.items()}
    return vec


class SparseIntEchelon:
    """Incremental echelon basis of sparse integer vectors.

    Keys are orderable coordinate labels; the leading coordinate of a vector
    is its minimal key.  insert() reduces against the pivots found so far and
    either records a new pivot (returning True) or exhausts the vector as an
    exact linear dependency (returning False).
    """

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, vec):
        # the insert's own copy, so each step below may update it in place
        vec = {k: v for k, v in vec.items() if v}
        pivots = self.pivots
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _normalize_dict(vec)
                return True
            a, b = piv[lead], vec[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for k, v in vec.items():
                    vec[k] = a * v
            for k, w in piv.items():
                # pivot entries are nonzero, so a zero sum means k was in vec
                nv = vec.get(k, 0) - b * w
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
        return False


class DenseIntEchelon:
    """Same idea with list vectors over coordinates 0..n-1: the tests'
    from-scratch reference for the sparse echelon and the walk of J'."""

    def __init__(self, length):
        self.length = length
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def pivot_rows(self):
        return sorted(self.pivots)

    def insert(self, vec):
        vec = list(vec)
        lead = _first_nonzero(vec)
        while lead is not None:
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = _normalize_list(vec)
                return True
            a, b = piv[lead], vec[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            # both vectors vanish before `lead`, and the step clears `lead`
            vec[lead] = 0
            vec[lead + 1:] = [a * x - b * y for x, y in zip(vec[lead + 1:], piv[lead + 1:])]
            lead = _first_nonzero(vec, lead + 1)
        return False


def _first_nonzero(vec, start=0):
    return next((i for i in range(start, len(vec)) if vec[i]), None)


def _normalize_list(vec):
    g = 0
    for v in vec:
        g = gcd(g, v)
        if g == 1:
            return vec
    if g > 1:
        return [v // g for v in vec]
    return vec
