"""Initial ideals of ideals generated by (r+1)-st powers of distinct-slope
linear forms in two variables.

The closed forms (the lambda staircase, its colon by z^{r+1}, and the pruned
union that presents the homology quotient) are each paired with an oracle
that recomputes them from scratch by exact rank computations on
coefficient matrices, so every formula is checked against brute force.
The oracles share one walk of J' degree by degree (`_power_echelons`) on
one sparse echelon.  With z = 1 a degree-d form is a polynomial in v of
degree <= d, and each degree adds one level to the echelon: the s powers
times the next power of v.  A pivot leads in its top term, so the initial
ideal reads its pivot rows off the leads, and the colon by z^{r+1} is
spanned by the pivots of low enough top degree (`_colon_bases`).  One
reader, `_initial_ideal`, takes each oracle's leads degree by degree and
stops at the first full degree: distinct slopes make J', its colon and
Q1 + Q2 Artinian, so that degree exists, and no closed form is consulted.

A run over many cells passes one `ClosedFormTable` to `build_q`: the colon
staircase depends only on (r, s), and In Q with its pruning check only on
(lambda', eta'), so each is built and checked once per distinct input.

Slope conventions: a form is first_var + c * z; the x-side of a
configuration carries a-1 distinct slopes, the y-side b-1.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import comb
from typing import NamedTuple

from ._echelon import SparseIntEchelon
from .errors import DuplicateSlope, InvalidSlopeCount, StaircaseInvariant
from .monomials import (
    Monomial,
    MonomialIdeal,
    ideal_sum,
    index_exponents,
    minimalize,
    monomial_index,
)


class Staircase(NamedTuple):
    """The z-exponent profile lambda_0..lambda_r of In<(x+c_1 z)^{r+1}, ...>,
    plus the implicit pure power x^{r+1}."""

    r: int
    s: int
    lam: tuple[int, ...]

    def ideal(self, axis: str = "x") -> MonomialIdeal:
        gens = [_axis_monomial(axis, self.r + 1, 0)]
        gens += [_axis_monomial(axis, i, self.lam[i]) for i in range(self.r + 1)]
        return minimalize(gens)


class ColonStaircase(NamedTuple):
    """lambda'_i = max(0, lambda_i - r - 1) on 0..i0, i0 = floor((r+1)/s)."""

    r: int
    s: int
    i0: int
    lam_prime: tuple[int, ...]

    def ideal(self, axis: str = "x") -> MonomialIdeal:
        gens = [_axis_monomial(axis, i, self.lam_prime[i]) for i in range(self.i0 + 1)]
        return minimalize(gens)


class QData(NamedTuple):
    """The two colon staircases (x,z)/(y,z), the pruning index l0, and the
    minimalized union In Q.  Inputs arriving with a > b are swapped so the
    x-side always carries the smaller slope count."""

    a: int
    b: int
    r: int
    colon1: ColonStaircase
    colon2: ColonStaircase
    l0: int
    in_q: MonomialIdeal

    @property
    def i0(self) -> int:
        return self.colon1.i0

    @property
    def j0(self) -> int:
        return self.colon2.i0

    @property
    def is_trivial(self) -> bool:
        return self.in_q.is_trivial

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(lambda', eta'): In Q, l0, i0 = len(lambda') - 1, j0 and every
        check downstream of the colon staircases are functions of it; r
        enters only as the shift r+1 that both regularity routes add."""
        return (self.colon1.lam_prime, self.colon2.lam_prime)


class ClosedFormTable:
    """The closed forms of one run over many (a, b, r) cells, each computed
    and checked once per distinct input.

    `colons` holds the colon staircase of each (r, s) and `ideals` its
    ideal on each axis.  `unions` holds (l0, In Q) of each `QData.key`
    (lambda', eta'), and `routes` the r-free (reg - (r+1), socle - (r+1),
    face) that `syzygies.class_routes` checked for that key; the reader
    adds its own cell's r+1 back.
    This is exact: after the two colon staircases, In Q, its pruning check
    (`_pruned_union`), `bottom_face`, `syz2_closed_form`, the Buchberger
    graph, `syz3_closed_form` and the bottom-face comparison read only
    lambda', eta', i0, j0, l0 and In Q, all functions of the key, and
    `regularity_from_bottom_face` adds the same r+1 to both of its routes,
    so whether they agree does not depend on r.  A cell reading an entry
    therefore gets what it would compute afresh.  Only results whose checks
    passed are stored, so a key whose check raises raises again for every
    cell that meets it, naming that cell's own shifted values.  A call
    without a table makes a fresh one, so a single cell runs every check."""

    def __init__(self):
        self.colons: dict[tuple[int, int], ColonStaircase] = {}
        self.ideals: dict[tuple[int, int, str], MonomialIdeal] = {}
        self.unions: dict[tuple, tuple[int, MonomialIdeal]] = {}
        self.routes: dict[tuple, tuple] = {}

    def colon(self, r: int, s: int) -> ColonStaircase:
        cs = self.colons.get((r, s))
        if cs is None:
            cs = self.colons[(r, s)] = colon_staircase(staircase_closed_form(r, s))
        return cs

    def colon_ideal(self, cs: ColonStaircase, axis: str) -> MonomialIdeal:
        ideal = self.ideals.get((cs.r, cs.s, axis))
        if ideal is None:
            ideal = self.ideals[(cs.r, cs.s, axis)] = cs.ideal(axis)
        return ideal


def _axis_monomial(axis: str, main: int, zexp: int) -> Monomial:
    if axis == "x":
        return Monomial(ex=main, ez=zexp)
    if axis == "y":
        return Monomial(ey=main, ez=zexp)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def staircase_closed_form(r: int, s: int) -> Staircase:
    """lambda_i = (r-i+1) + floor((r-i)/(s-1)): steps of 1 widening to 2 at
    every (s-1)-st step, ending at lambda_r = 1."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if s < 2:
        raise InvalidSlopeCount(f"need at least 2 distinct slopes, got {s}")
    lam = tuple((r - i + 1) + (r - i) // (s - 1) for i in range(r + 1))
    return Staircase(r, s, lam)


def colon_staircase(st: Staircase) -> ColonStaircase:
    """The staircase of In(J') : z^{r+1}; i0 is the least i with lambda_i <= r+1."""
    r = st.r
    i0 = next(i for i in range(r + 1) if st.lam[i] <= r + 1)
    if i0 != (r + 1) // st.s:
        raise StaircaseInvariant(f"i0 = {i0}, expected floor((r+1)/s) = {(r + 1) // st.s}")
    lam_prime = tuple(max(0, st.lam[i] - r - 1) for i in range(i0 + 1))
    return ColonStaircase(r, st.s, i0, lam_prime)


def build_q(a: int, b: int, r: int, table: ClosedFormTable | None = None) -> QData:
    """Colon staircases at both vertices and their minimalized sum In Q,
    with the x-generators below l0 pruned away by z^{eta'_0}.  A run over
    many cells passes one `ClosedFormTable`, so each colon staircase is
    built once per (r, s) and In Q once per (lambda', eta')."""
    if a < 3 or b < 3:
        raise InvalidSlopeCount(f"need a, b >= 3, got ({a}, {b})")
    if r < 0:
        raise ValueError("r must be >= 0")
    if table is None:
        table = ClosedFormTable()
    if a > b:
        a, b = b, a
    colon1 = table.colon(r, a - 1)
    colon2 = table.colon(r, b - 1)
    key = (colon1.lam_prime, colon2.lam_prime)
    union = table.unions.get(key)
    if union is None:
        in_q = ideal_sum(table.colon_ideal(colon1, "x"), table.colon_ideal(colon2, "y"))
        union = table.unions[key] = _pruned_union(colon1, colon2, in_q)
    l0, in_q = union
    return QData(a, b, r, colon1, colon2, l0, in_q)


def _pruned_union(
    colon1: ColonStaircase, colon2: ColonStaircase, in_q: MonomialIdeal
) -> tuple[int, MonomialIdeal]:
    """(l0, In Q), raising unless the generators minimalize kept in In Q are
    the x-generators from l0 on plus every y-generator."""
    if in_q.is_trivial:
        return 0, in_q
    eta0 = colon2.lam_prime[0]
    l0 = next(i for i in range(colon1.i0 + 1) if colon1.lam_prime[i] < eta0)
    expected = {_axis_monomial("x", i, colon1.lam_prime[i]) for i in range(l0, colon1.i0 + 1)}
    expected |= {_axis_monomial("y", j, colon2.lam_prime[j]) for j in range(colon2.i0 + 1)}
    if set(in_q.gens) != expected:
        raise StaircaseInvariant("pruned generator list disagrees with minimalize")
    return l0, in_q


# ---------------------------------------------------------------------------
# oracles


def _check_slopes(slopes):
    """Distinct slopes, at least two: with one, J' is principal and no
    oracle's echelon ever fills a degree."""
    slopes = [Fraction(c) for c in slopes]
    if len(slopes) < 2:
        raise InvalidSlopeCount(f"need at least 2 distinct slopes, got {len(slopes)}")
    if len(set(slopes)) != len(slopes):
        raise DuplicateSlope(f"repeated slope in {slopes}")
    return slopes


def _slope_pairs(slopes):
    """A slope c = p/q as the integer pair (q, p): the form q*v + p*z is
    q times v + c*z, so its powers span the same columns."""
    return [(c.denominator, c.numerator) for c in slopes]


def _power_echelons(r: int, pairs):
    """Yield one echelon of J'_d = <(n1*v + n2*z)^{r+1}>_d for d = r+1,
    r+2, ..., grown in place by one level per degree.

    Set z = 1.  A degree-d form sum_t c_t v^{d-t} z^t becomes a polynomial
    in v of degree <= d, one-to-one.  J'_d is spanned by the powers times
    v^L z^{d-r-1-L} for L <= d-r-1, so under z = 1 each degree adds one
    level: the s = len(pairs) powers times v^{d-r-1}.  The coefficient of
    v^k is keyed -k, so each pivot leads in its top term, the lex-leading
    monomial v^k z^{d-k}: In(J')_d's pivot rows are t = d + key."""
    forms = [
        {m - r - 1: comb(r + 1, m) * n1 ** (r + 1 - m) * n2**m for m in range(r + 2)}
        for n1, n2 in pairs
    ]
    ech = SparseIntEchelon()
    for level in count():
        for form in forms:
            ech.insert({k - level: c for k, c in form.items()})
        yield ech


def _colon_bases(r: int, pairs):
    """Yield an integer echelon basis of (J' : z^{r+1})_e for e = 0, 1, ...:
    primitive sparse vectors {t: coefficient of v^{e-t} z^t} by lead min(f).

    Under z = 1, z^{r+1} f is f itself, so (J' : z^{r+1})_e is the part of
    J'_{e+r+1} of top degree <= e in v, read right after level e of the
    walk (later levels hold the larger colons by z^{r+2}, ...).  Such
    vectors are spanned by the pivots keyed -e or later (a combination
    using an earlier pivot keeps that pivot's top term), so those pivots,
    with the coefficient of v^k at t = e - k, are a basis of the colon."""
    for e, ech in enumerate(_power_echelons(r, pairs)):
        leads = sorted(k for k in ech.pivots if k >= -e)
        yield [{e + k: c for k, c in ech.pivots[key].items()} for key in leads]


def _initial_ideal(walk) -> MonomialIdeal:
    """An initial ideal from its (leading monomials, full) degree by degree:
    a lead no earlier generator divides is new, and at the first full degree
    every later monomial is a multiple of one found by then."""
    gens: list[Monomial] = []
    for leads, full in walk:
        for m in leads:
            if not any(g.divides(m) for g in gens):
                gens.append(m)
        if full:
            return minimalize(gens)


def initial_ideal_oracle(r, slopes, axis: str = "x") -> MonomialIdeal:
    """In<(v+c_i z)^{r+1}> recomputed degree by degree: the pivot rows
    t = d + key of the echelon of J'_d (from `_power_echelons`) are the
    leading monomials v^{-key} z^{d+key}, until the echelon spans all of
    S_d."""
    walk = zip(count(r + 1), _power_echelons(r, _slope_pairs(_check_slopes(slopes))))
    return _initial_ideal(
        ([_axis_monomial(axis, -k, d + k) for k in sorted(ech.pivots)], ech.rank == d + 1)
        for d, ech in walk
    )


def colon_degree_basis(r, slopes, e: int):
    """Echelonized basis of (J' : z^{r+1})_e as two-variable coefficient
    vectors over (v^e, v^{e-1} z, ..., z^e): all f with z^{r+1} f in J'.
    It is the e-th basis of `_colon_bases` laid out densely, each vector
    divided by its lead entry, so leads are 1 and increase."""
    slopes = _check_slopes(slopes)
    if e < 0:
        return []
    basis = next(islice(_colon_bases(r, _slope_pairs(slopes)), e, None))
    return [[Fraction(f.get(t, 0), f[min(f)]) for t in range(e + 1)] for f in basis]


def colon_initial_oracle(r, slopes, axis: str = "x") -> MonomialIdeal:
    """In(J' : z^{r+1}) computed from the colon subspaces themselves, never
    from the staircase closed form: each basis vector leads in v^{e-t} z^t,
    t = min(f), until degree e has e+1 of them."""
    colons = _colon_bases(r, _slope_pairs(_check_slopes(slopes)))
    return _initial_ideal(
        ([_axis_monomial(axis, e - t, t) for t in map(min, basis)], len(basis) == e + 1)
        for e, basis in enumerate(colons)
    )


# -- sum oracle --------------------------------------------------------------


def sum_initial_oracle(r, slopes1, slopes2) -> MonomialIdeal:
    """In(Q(v1) + Q(v2)) recomputed from the colon subspaces: Q1 lives in
    k[x,z] and Q2 in k[y,z], so (Q1 + Q2)_d is spanned by y^j Q1_{d-j} and
    x^i Q2_{d-i}, with the colon bases stepped one degree at a time by
    `_colon_bases`; pivot rows are the leading monomials.  Each vector is a
    sparse dict keyed by monomial index, since a colon vector touches at
    most e+1 of the (d+2)(d+1)/2 monomials of S_d.  The Q1 vectors have
    distinct leads and go in without reduction.  It stops at the first
    degree whose echelon spans all of S_d."""
    colons1 = _colon_bases(r, _slope_pairs(_check_slopes(slopes1)))
    colons2 = _colon_bases(r, _slope_pairs(_check_slopes(slopes2)))
    return _initial_ideal(_sum_leads(colons1, colons2))


def _sum_leads(colons1, colons2):
    """(leads, full) of Q1 + Q2 in degree d = 0, 1, ..., each from a fresh echelon."""
    bases = []  # bases[e]: the bases of Q1_e and of Q2_e
    for d, pair in enumerate(zip(colons1, colons2)):
        bases.append(pair)
        ech = SparseIntEchelon()
        for side in (0, 1):
            for e, sides in enumerate(bases):
                # f in Q1_e times y^(d-e) is x^(e-t) y^(d-e) z^t, and f in Q2_e
                # times x^(d-e) is x^(d-e) y^(e-t) z^t
                for f in sides[side]:
                    ech.insert({monomial_index(e - t if side else d - e, t): c for t, c in f.items()})
        leads = [Monomial(d - ey - ez, ey, ez) for ey, ez in map(index_exponents, sorted(ech.pivots))]
        yield leads, ech.rank == (d + 2) * (d + 1) // 2
