"""Monomial ideals in k[x, y, z]: minimal generators, colon, sum, Hilbert
functions and socle degrees.

Everything is finite staircase combinatorics at desk scale.  Hilbert
functions are computed by direct enumeration of degree-d monomials, and the
socle degree is read off the staircase heights over the (x, y) exponents
without enumerating any degree.  Generators are kept as a divisibility
antichain sorted lex-descending (x > y > z), which makes every report
byte-reproducible.
"""
from __future__ import annotations

import itertools
from math import isqrt
from typing import NamedTuple

from .errors import NotArtinian, TrivialIdeal

VARS = ("x", "y", "z")


# typing.NamedTuple allows no `__new__` in its body, so each record with a
# construction check subclasses a NamedTuple of its fields
class _MonomialFields(NamedTuple):
    ex: int = 0
    ey: int = 0
    ez: int = 0


class Monomial(_MonomialFields):
    """x^ex y^ey z^ez; an immutable tuple of its exponents, so tuple order
    is lex order (x > y > z)."""

    __slots__ = ()

    def __new__(cls, ex=0, ey=0, ez=0):
        if ex < 0 or ey < 0 or ez < 0:
            raise ValueError("negative exponent")
        return tuple.__new__(cls, (ex, ey, ez))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so `_replace` runs the checks too

    @property
    def degree(self) -> int:
        return self.ex + self.ey + self.ez

    def divides(self, other: "Monomial") -> bool:
        return self.ex <= other.ex and self.ey <= other.ey and self.ez <= other.ez

    def render(self) -> str:
        parts = []
        for name, e in zip(VARS, self):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return " ".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.render()


ONE = Monomial(0, 0, 0)


def mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return Monomial(max(m1.ex, m2.ex), max(m1.ey, m2.ey), max(m1.ez, m2.ez))


class _MonomialIdealFields(NamedTuple):
    gens: tuple[Monomial, ...]


class MonomialIdeal(_MonomialIdealFields):
    """Finite divisibility antichain of monomials, lex-descending."""

    __slots__ = ()

    def __new__(cls, gens):
        for a, b in itertools.combinations(gens, 2):
            if a.divides(b) or b.divides(a):
                raise ValueError("generators are not an antichain")
        if any(a <= b for a, b in zip(gens, gens[1:])):
            raise ValueError("generators not in canonical lex-descending order")
        return tuple.__new__(cls, (gens,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    @property
    def is_trivial(self) -> bool:
        return self.gens == (ONE,)

    def render(self) -> str:
        return "<" + ", ".join(g.render() for g in self.gens) + ">"

    def __str__(self) -> str:
        return self.render()


def minimalize(monomials) -> MonomialIdeal:
    """Divisibility antichain of the given monomials; generated ideal
    unchanged.  A proper divisor has lower degree, so a scan by ascending
    degree keeps exactly the minimal generators."""
    keep: list[Monomial] = []
    for m in sorted(set(monomials), key=sum):
        if not any(k.divides(m) for k in keep):
            keep.append(m)
    keep.sort(reverse=True)
    # an antichain in strict lex-descending order by construction, so the
    # checks of MonomialIdeal.__new__ are skipped
    return tuple.__new__(MonomialIdeal, (tuple(keep),))


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return minimalize(a.gens + b.gens)


def monomials_of_degree(d: int):
    """Degree-d monomials in lex-descending order (x > y > z)."""
    for ex in range(d, -1, -1):
        for ey in range(d - ex, -1, -1):
            yield Monomial(ex, ey, d - ex - ey)


def monomial_index(p: int, q: int) -> int:
    """T(p, q) = (p+q)(p+q+1)/2 + q, which orders the pairs by p + q, then
    by q.  For a degree-d monomial, (p, q) = (ey, ez) gives its position in
    `monomials_of_degree(d)`."""
    k = p + q
    return k * (k + 1) // 2 + q


def index_exponents(idx: int) -> tuple[int, int]:
    """Inverse of `monomial_index`: k = p + q is the largest k with
    k(k+1)/2 <= idx."""
    k = (isqrt(8 * idx + 1) - 1) // 2
    q = idx - k * (k + 1) // 2
    return k - q, q


def count_degree(d: int) -> int:
    """dim S_d = C(d+2, 2); zero for negative d."""
    return (d + 2) * (d + 1) // 2 if d >= 0 else 0


def hilbert_function(i: MonomialIdeal, d: int) -> int:
    """dim (S/I)_d by direct enumeration."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return sum(1 for m in monomials_of_degree(d) if not i.contains(m))


def _pure_powers(i: MonomialIdeal):
    """Exponents (px, py, pz) of the pure powers among the generators, None
    for a variable with none, read in one pass."""
    p = [None, None, None]
    for g in i.gens:
        if g.count(0) == 2:
            top = max(g)
            p[g.index(top)] = top
    return tuple(p)


def max_socle_degree(i: MonomialIdeal) -> int:
    """Largest d with (S/I)_d != 0, for I Artinian and proper.

    With px, py the pure x- and y-power exponents, let h(a, b) for
    (a, b) in [0, px) x [0, py) be the smallest z-exponent among the
    generators with ex <= a and ey <= b.  Then x^a y^b z^c lies outside I
    iff c < h(a, b), so the top nonzero degree is the largest
    a + b + h(a, b) - 1 over the cells with h(a, b) >= 1.  No other
    generator reaches ex >= px or ey >= py (they form an antichain with the
    pure powers), and at most one sits on each cell, so h is the running
    minimum of h(a-1, b), h(a, b-1) and the z-exponent of the generator at
    (a, b).  The pure z-power sits at (0, 0), so every h is at most pz."""
    if i.is_trivial:
        raise TrivialIdeal("unit ideal: quotient is the zero module")
    px, py, pz = _pure_powers(i)
    if None in (px, py, pz):
        raise NotArtinian(f"no pure power of every variable in {i.render()}")
    z_at = {(g.ex, g.ey): g.ez for g in i.gens if g.ex < px and g.ey < py}
    top = 0
    heights = [pz] * py  # h(a-1, b) for every b; pz bounds them all
    for a in range(px):
        h = pz  # h(a, b-1)
        for b in range(py):
            h = min(h, heights[b], z_at.get((a, b), pz))
            heights[b] = h
            if h:
                top = max(top, a + b + h - 1)
    return top
