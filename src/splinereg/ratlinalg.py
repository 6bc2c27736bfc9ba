"""Dense exact linear algebra over the rationals.

rank, pivot_rows and in_column_span all reduce to one fraction-free
(Bareiss) elimination on an integer matrix obtained by clearing
denominators column by column.  Row order is semantic: pivot rows come
back in the order given.  No floating point anywhere.

No production route uses this module: every elimination runs on integer
columns in `_echelon`, and the Betti oracle reads its Koszul homology off
face counts.  It stays as the Fraction-level reference that the tests
compare those routes against, and as a public export of the package.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

Rational = Fraction


# the checked record subclasses a NamedTuple of its fields, which allows no
# `__new__` in its body
class _RatMatrixFields(NamedTuple):
    rows: int
    cols: int
    entries: tuple[Fraction, ...]  # row-major


class RatMatrix(_RatMatrixFields):
    __slots__ = ()

    def __new__(cls, rows, cols, entries):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match rows*cols")
        return tuple.__new__(cls, (rows, cols, entries))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def from_rows(cls, data) -> "RatMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        entries = tuple(Fraction(x) for row in data for x in row)
        return cls(rows, cols, entries)

    @classmethod
    def zero(cls, rows, cols) -> "RatMatrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n) -> "RatMatrix":
        ent = [Fraction(0)] * (n * n)
        for i in range(n):
            ent[i * n + i] = Fraction(1)
        return cls(n, n, tuple(ent))

    def at(self, i, j) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "RatMatrix":
        ent = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return RatMatrix(self.cols, self.rows, ent)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return RatMatrix(self.rows, self.cols + other.cols, tuple(ent))


def _integer_columns(m: RatMatrix):
    """Columns as integer vectors, each scaled by the lcm of its denominators.

    Column scaling by a positive rational changes neither the rank nor the
    pivot-row structure of the column space.
    """
    out = []
    for j in range(m.cols):
        col = m.column(j)
        if all(v == 0 for v in col):
            continue
        den = 1
        for v in col:
            den = lcm(den, v.denominator)
        vec = [int(v * den) for v in col]
        g = 0
        for v in vec:
            g = gcd(g, v)
        out.append([v // g for v in vec] if g > 1 else vec)
    return out


def pivot_rows(m: RatMatrix) -> list[int]:
    """Rows that carry a pivot when the columns are reduced scanning rows in
    the given order; ascending, deterministic.  |pivot_rows| = rank."""
    vecs = _integer_columns(m)
    piv = []
    prev = 1
    k = 0
    for coord in range(m.rows):
        if k == len(vecs):
            break
        hit = None
        for t in range(k, len(vecs)):
            if vecs[t][coord]:
                hit = t
                break
        if hit is None:
            continue
        vecs[k], vecs[hit] = vecs[hit], vecs[k]
        p = vecs[k][coord]
        # one-step Bareiss: entries stay minors of the cleared matrix, so the
        # division by the previous pivot is exact
        for t in range(k + 1, len(vecs)):
            w = vecs[t]
            q = w[coord]
            base = vecs[k]
            vecs[t] = [(p * w[i] - q * base[i]) // prev for i in range(m.rows)]
        prev = p
        piv.append(coord)
        k += 1
    return piv


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals."""
    return len(pivot_rows(m))


def in_column_span(basis: RatMatrix, v) -> bool:
    """True iff v is a rational linear combination of the basis columns."""
    v = [Fraction(x) for x in v]
    if len(v) != basis.rows:
        raise ValueError("vector length does not match basis.rows")
    aug = basis.hstack(RatMatrix(basis.rows, 1, tuple(v)))
    return rank(aug) == rank(basis)
