"""The two-term ideal chain complex of a planar complex, its exact H0
oracles, and the spline dimension formula with its brute-force oracle.

dim H0 in degree d is computed literally as sum_v dim J(v)_d minus the rank
of the degree-d boundary map.  The boundary matrix is assembled in a
translated integer frame at each interior vertex v = (p_x, p_y):
u_v = L(x - p_x z), w_v = L(y - p_y z) and t = z, where L is the lcm of the
denominators of the interior vertex coordinates, so L p_x and L p_y are
integers: the record's `origins`, read off the complex's integer frame.  A
form a x + b y + c z through v equals (a u_v + b w_v)/L.  Each column is
scaled by L^{r+1}, so at either end v of its edge the block is
(a u_v + b w_v)^{r+1} times a multiplier monomial in (u_home, w_home, t),
with u_home = u_v + (L p_v,x - L p_home,x) t and likewise for w: one integer
rule, whose shift is zero at home.  Each vertex block is an invertible
change of basis of S_d and scaling a column does not change the rank, so
the rank equals the naive monomial-basis rank (cross-checked in the tests
against dense Fraction elimination).

Both oracles eliminate once per run, not once per degree.  Setting t = 1
(z = 1 for the spline oracle) identifies S_d with the polynomials of
degree <= d (Billera-Rose 1991), and under that identification each
degree's system is a prefix of the next one's.  A polynomial is then held
as {(eu, ew): coefficient}, with no t exponent, and u_home is u_v plus an
integer, so each level of the boundary map is one shift and add per
block (`_times_linear`).  A run's whole H0 state is one generator,
`_walk`, which builds the run's `IdealComplexData` on its first step and
then reads that record alone: each level advances every vertex's walks of
J'(v) and P'(v) and the boundary echelon, and yields the boundary rank and
dim H0_d degree by degree.  The rank is taken in each vertex's local
quotient: only the totally interior columns reach the echelon, as normal
forms modulo the partially interior powers at their ends, never modulo a
colon ideal of the closed form.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import count, islice
from math import gcd, lcm
from typing import NamedTuple

from ._echelon import SparseIntEchelon
from .errors import CapExceeded
from .geometry import LinearForm, SimplicialComplex, _canonical_int_vector, interior_stats
from .monomials import count_degree, monomial_index
from .staircase import _power_echelons


# ---------------------------------------------------------------------------
# chain-complex description


class EdgeGroup(NamedTuple):
    """One column group of the boundary map: a totally interior edge's form
    with exponent r+1 times all degree-(d-r-1) multipliers."""

    edge: tuple[int, int]
    form: LinearForm
    home: int  # endpoint whose frame hosts the multipliers
    far: int


class IdealComplexData(NamedTuple):
    """The totally interior column groups, and the vertex forms and frames
    of one (complex, r): everything the walk reads, its positions in the
    order of `origins`."""

    r: int
    groups: tuple[EdgeGroup, ...]
    vertex_forms: dict[int, tuple[LinearForm, ...]]  # one form per slope at the vertex
    partial_forms: dict[int, tuple[LinearForm, ...]]  # likewise, partially interior edges only
    origins: dict[int, tuple[int, int]]  # (L p_x, L p_y) by interior vertex: the frame's translation


def ideal_complex(c: SimplicialComplex, r: int) -> IdealComplexData:
    vpos = {v: i for i, v in enumerate(c.interior_vertices)}
    groups = tuple(EdgeGroup(e, c.forms[e], *sorted(e, key=vpos.get)) for e in c.totally_interior)
    vertex_forms, partial_forms = {}, {}
    for v, edges in c.edges_at.items():
        seen, partial = {}, {}  # one form per slope, from the least edge with it
        for e in edges:
            seen.setdefault(c.slopes[e], c.forms[e])
            if e not in c.totally_interior:
                partial.setdefault(c.slopes[e], c.forms[e])
        vertex_forms[v], partial_forms[v] = tuple(seen.values()), tuple(partial.values())
    # the frame's own scale, the lcm over the interior vertices only: the
    # complex's L would scale every shift by the boundary's denominators
    # too.  The gcd of the interior frame triples is L over that lcm
    g = gcd(*(x for v in vpos for x in c.frame[v]))
    origins = {v: (c.frame[v][0] // g, c.frame[v][1] // g) for v in vpos}
    return IdealComplexData(r, groups, vertex_forms, partial_forms, origins)


def _times_linear(p, a, b, c):
    """p (a x + b y + c) for p held as {(i, j): coefficient} with the last
    variable set to 1: each term is a shift or a scaling of p, skipped when
    its coefficient is 0."""
    out = {}
    for (di, dj), coeff in (((1, 0), a), ((0, 1), b), ((0, 0), c)):
        if coeff:
            for (i, j), v in p.items():
                out[i + di, j + dj] = out.get((i + di, j + dj), 0) + coeff * v
    return {key: v for key, v in out.items() if v}


def _reduce(vec, pivots):
    """Reduce vec in place by the (lead, pivot) pairs of an echelon listed
    by ascending lead, until no lead is left in it; return the integer vec
    was scaled by.  A pivot's other keys exceed its lead, so one pass
    suffices."""
    scale = 1
    for lead, piv in pivots:
        b = vec.get(lead)
        if b:
            a = piv[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                scale *= a
                for k, v in vec.items():
                    vec[k] = a * v
            for k, w in piv.items():
                nv = vec.get(k, 0) - b * w
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
    return scale


def _walk(c: SimplicialComplex, r: int) -> Iterator[tuple[int, int]]:
    """(rank of the degree-d boundary map, dim H0_d) for d = r+1, r+2, ...,
    each column scaled by L^{r+1} in the translated integer vertex frames.
    The first step builds `ideal_complex(c, r)`; from then on the walk reads
    that record alone, positions in the order of its `origins`.

    dim H0_d is sum_v dim J(v)_d minus the rank.  J(v)_d is the direct sum
    of the slices t^{d-e} J'(v)_e for e <= d, so one running total of the
    slice ranks dim J'(v)_e, read off the walk of J'(v) in v's frame (u, w),
    is sum_v dim J(v)_d.  Likewise the partially interior columns at v are
    v's partially interior powers times every multiplier in v's own frame,
    so they span P(v)_d, P(v) the ideal of those powers, the sum of the
    slices t^{d-e} P'(v)_e read off the walk of P'(v) (keyed -k for
    u^k w^{e-k}).  The rank is sum_v dim P(v)_d plus that of the totally
    interior columns modulo the P(v).  Each of those enters the echelon as
    its normal form: every (vertex, e) part reduced modulo P'(v)_e, or
    dropped once P'(v)_e = S'_e, then scaled to the lcm of the parts'
    scales.

    With t = 1 a degree-d column is its (u, w) polynomial of degree <= d,
    so the degree-d columns are the degree-(d-1) ones plus one new level:
    the multipliers u_home^alpha w_home^beta with alpha + beta = d - r - 1.
    Both ends v of an edge run one rule: the block is (a u_v + b w_v)^{r+1}
    times the multiplier, in v's frame u_home = u_v + dx and w_home = w_v +
    dy with (dx, dy) = (L v_x - L home_x, L v_y - L home_y), so the shift is
    zero at home.  One echelon takes the levels in turn; u_v^eu w_v^ew at
    v's position p is keyed `monomial_index(eu, ew) * n + p`: total degree
    first, no bound on d.

    A column that reduces to zero kills its multiples, which are skipped
    unranked (the syzygy criterion of Faugere's F5, ISSAC 2002).  The
    column (g, alpha, beta) of group g, multiplier u_home^alpha
    w_home^beta, is inserted in the order (level alpha + beta, group,
    alpha).  Multiplying by u_home or by w_home, the home frame's forms of
    g, is a module map on the sum of the vertex blocks; it preserves the
    sum of the P(v), an ideal at each block, so it acts on the quotient.
    It maps the column (g', alpha', beta') to (g', alpha'+1, beta') or
    (g', alpha', beta'+1) plus an integer times the column itself, since
    the home forms of g and of g' differ by integer multiples of t = 1.
    Each of those comes before (g, alpha+1, beta), resp. (g, alpha,
    beta+1), whenever (g', alpha', beta') comes before (g, alpha, beta):
    the level rises by one on both sides, within a level the group and
    then alpha decide, and alpha rises by one on both sides or on neither.
    So if (g, alpha, beta) lies in the span of the columns before it
    modulo the P(v), so does every (g, alpha0, beta0) with alpha0 >= alpha
    and beta0 >= beta, and skipping it leaves every rank unchanged.  The
    skipped columns' blocks are still built, so each level's blocks stay a
    list by alpha; they feed only skipped columns of the next level.  Each
    group keeps its own list of dead (alpha, beta): the argument
    multiplies by the forms of g's home, so it says nothing about another
    group's columns."""
    data = ideal_complex(c, r)
    vpos = {v: i for i, v in enumerate(data.origins)}
    n = len(vpos)
    groups = []  # per group, per end: position, dx, dy, blocks of the level by alpha
    for group in data.groups:
        power = {(0, 0): 1}
        for _ in range(r + 1):
            power = _times_linear(power, group.form.a, group.form.b, 0)
        hx, hy = data.origins[group.home]
        ends = []
        for v in (group.home, group.far):
            vx, vy = data.origins[v]
            # the edge is oriented by ascending vertex index; its differential
            # is (+1) at the head block and (-1) at the tail block
            sign = 1 if v == max(group.edge) else -1
            ends.append((vpos[v], vx - hx, vy - hy, [{m: sign * x for m, x in power.items()}]))
        groups.append((ends, []))  # the group's ends and its dead (alpha, beta)
    walks = [
        [
            _power_echelons(r, [_canonical_int_vector((f.a, f.b)) for f in forms[v]])
            for forms in (data.vertex_forms, data.partial_forms)
        ]
        for v in vpos
    ]
    slices = [[] for _ in vpos]  # per position, e > r: P'(v)_e's pivots by lead, None if full
    ech = SparseIntEchelon()
    vertex = partial = 0  # sum_v dim J(v)_d and sum_v dim P(v)_d
    for k in count():
        for pos, (j_walk, p_walk) in enumerate(walks):
            vertex += next(j_walk).rank
            p_ech = next(p_walk)
            partial += p_ech.rank
            slices[pos].append(None if p_ech.rank > r + 1 + k else sorted(p_ech.pivots.items()))
        for ends, dead in groups:
            for _pos, dx, dy, blocks in ends:
                if k:
                    # level k by alpha = 0..k: each block of level k-1 times
                    # w_v + dy, and the last one (alpha = k-1) also times u_v + dx
                    last = _times_linear(blocks[-1], 1, 0, dx)
                    blocks[:] = [_times_linear(q, 0, 1, dy) for q in blocks] + [last]
            for alpha in range(k + 1):
                if any(a0 <= alpha and b0 <= k - alpha for a0, b0 in dead):
                    continue
                parts = {}  # (position, e) -> {-eu: coefficient}
                for pos, _dx, _dy, blocks in ends:
                    for (eu, ew), x in blocks[alpha].items():
                        parts.setdefault((pos, eu + ew), {})[-eu] = x
                scales = {}
                for (pos, e), part in parts.items():
                    pivots = slices[pos][e - r - 1]
                    if pivots is not None:
                        scales[pos, e] = _reduce(part, pivots)
                top, col = lcm(*scales.values()), {}
                for (pos, e), scale in scales.items():
                    # monomial_index(eu, e - eu) is monomial_index(0, e) - eu
                    base, m = monomial_index(0, e), top // scale
                    for j, x in parts[pos, e].items():
                        col[(base + j) * n + pos] = m * x
                if not ech.insert(col):
                    dead.append((alpha, k - alpha))
        rank = partial + ech.rank
        yield rank, vertex - rank


def boundary_rank(c: SimplicialComplex, r: int, d: int) -> int:
    """Exact rank of the degree-d boundary map of the ideal complex, read
    off a fresh walk."""
    if d < r + 1:
        return 0
    return next(islice(_walk(c, r), d - r - 1, None))[0]


def h0_hilbert_oracle(c: SimplicialComplex, r: int, d: int) -> int:
    """dim H0 of the ideal complex in degree d: total vertex dimension minus
    the boundary rank, everything by exact elimination."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d < r + 1:
        return 0
    return next(islice(_walk(c, r), d - r - 1, None))[1]


class H0Table:
    """dim H0_d of one (complex, r), ranked on first request from one walk,
    so the regularity oracle and the spline-dimension formulas of one run
    share their degrees.  Degrees below r+1 are zero, and from the first
    zero degree d >= r+1 on every degree is zero (see
    `h0_regularity_oracle`), so those are filled without ranking."""

    def __init__(self, c: SimplicialComplex, r: int):
        self.r = r
        self._levels = _walk(c, r)  # builds nothing before its first degree
        self._dims = [0] * (r + 1)

    def upto(self, top: int) -> list[int]:
        """dim H0_d for d = 0..top."""
        dims = self._dims
        while len(dims) <= top and (len(dims) == self.r + 1 or dims[-1]):
            dims.append(next(self._levels)[1])
            if not dims[-1]:
                self._levels = None  # no later degree is ranked: free the walk
        return dims[: top + 1] + [0] * (top + 1 - len(dims))


def h0_regularity_oracle(c: SimplicialComplex, r: int, h0: H0Table | None = None):
    """Largest d in [r+1, 4r+2] with nonzero H0, or None when the module is
    zero on the whole window; errors if the cap degree is still nonzero.

    The scan stops at the first zero degree.  H0 is a quotient of the direct
    sum of the J(v), and each J(v) is generated by (r+1)-st powers of linear
    forms, so H0 is generated in degree r+1 (Schenck-Stillman, Local
    cohomology of bivariate splines, 1997).  Hence H0_{d+1} = S_1 H0_d for
    d >= r+1, and H0_d = 0 forces every later degree to vanish: the answer
    is the degree just before the first zero degree d >= r+1, and None when
    that degree is r+1 itself.  Pass the run's `H0Table` to reuse its
    ranked degrees.  On a triangulated disk the formula less its H0 term
    is Schumaker's lower bound for d >= r, exact for d >= 3r+2 (Hong 1991;
    Ibrahim-Schumaker 1991), so H0_d = 0 there and 4r+2 is a margin."""
    top = 4 * r + 2
    table = (h0 or H0Table(c, r)).upto(top)
    if table[top]:
        raise CapExceeded(f"H0 nonzero at degree {top} = 4r+2")
    return next((d for d in range(top, r, -1) if table[d]), None)


# ---------------------------------------------------------------------------
# spline dimensions


def local_hilbert(k: int, r: int, d: int) -> int:
    """dim (S/J(v))_d at a vertex with k distinct slopes: J(v) is generated
    by forms in (u, w) alone, so this sums dim (S'/J')_e over e <= d, which
    is e + 1 for e <= r and then max(0, e + 1 - k (e - r)), as the k powers
    times S'_{e-r-1} stay independent until they fill S'_e."""
    return count_degree(min(d, r)) + sum(max(0, r + j + 1 - j * k) for j in range(1, d - r + 1))


def spline_dim_formula(c: SimplicialComplex, r: int, d: int) -> int:
    """Dimension of the degree-d smooth spline space from local data plus
    the homology correction term."""
    return h0_hilbert_oracle(c, r, d) + spline_dim_local(c, r, d)[d]


def spline_dim_local(c: SimplicialComplex, r: int, top: int) -> list[int]:
    """The local part of `spline_dim_formula` for d = 0..top: the triangle,
    edge and vertex terms, from one set of interior statistics.  It reads no
    H0: a caller adds the run's `H0Table`.  On a triangulated disk it is
    Schumaker's lower bound for d >= r."""
    ks = [st.k for st in interior_stats(c, r).per_vertex.values()]
    dims = []
    for d in range(top + 1):
        total = len(c.triangles) * count_degree(d)
        total -= len(c.interior_edges) * (count_degree(d) - count_degree(d - r - 1))
        dims.append(total + sum(local_hilbert(k, r, d) for k in ks))
    return dims


def spline_dim_oracle(c: SimplicialComplex, r: int, d: int) -> int:
    """Brute force from the definition (Schenck-Stillman 1997): one f_t in
    S_d per triangle with f_t1 - f_t2 in <l_e^{r+1}> on each interior edge;
    see `spline_dim_oracles`."""
    return spline_dim_oracles(c, r, d)[d]


def spline_dim_oracles(c: SimplicialComplex, r: int, top: int) -> list[int]:
    """`spline_dim_oracle` for d = 0..top, from one elimination.

    Unknowns: the f_t in S_top and one g_e in S_{top-r-1} per interior edge;
    each edge gives one integer row of f_t1 - f_t2 - l_e^{r+1} g_e = 0 per
    degree-top monomial.  Multiplying by l_e^{r+1} is injective, so the
    solutions project isomorphically onto the splines and
    dim C^r_d = unknowns - rank.

    With z = 1, f_t's monomial x^a y^b z^c has level a + b, g_e's monomial
    mu has level deg_xy(mu) + r + 1, and a row has the level of its
    monomial.  Every entry of a row has a level at least the row's own, so
    the unknowns and rows of level <= d form exactly the degree-d system.
    Columns are keyed level by level, and the pivot columns of an echelon
    form are its greedy column basis, so the rank of the degree-d system is
    the number of leads of level <= d.  No H0, local resolution or interior
    statistics enters, so the oracle stays independent of the formula it
    checks."""
    if top < 0:
        raise ValueError("degree must be nonnegative")
    n_t, n_e = len(c.triangles), len(c.interior_edges)
    # level-major integer keys (level * blocks + block) * (top + 1) + ey: the
    # triangles' f blocks come before the edges' g blocks of the same level,
    # so every row leads in an f
    blocks, width = n_t + n_e, top + 1
    ech = SparseIntEchelon()
    for j, e in enumerate(c.interior_edges):
        t1, t2 = c.edge_triangles[e]
        rows = {}
        for level in range(top + 1):
            base = level * blocks * width
            for b in range(level + 1):
                rows[level - b, b] = {base + t1 * width + b: 1, base + t2 * width + b: -1}
        power = {(0, 0): 1}
        for _ in range(r + 1):
            power = _times_linear(power, *c.forms[e].vector())
        g_block = n_t + j
        for (a, b), v in power.items():
            for g_level in range(top - r):
                base = ((g_level + r + 1) * blocks + g_block) * width
                for ey in range(g_level + 1):
                    rows[a + g_level - ey, b + ey][base + ey] = -v
        for row in rows.values():
            ech.insert(row)
    leads = [0] * (top + 1)
    for k in ech.pivots:
        leads[k // (blocks * width)] += 1
    dims, rank = [], 0
    for d in range(top + 1):
        rank += leads[d]
        dims.append(n_t * count_degree(d) + n_e * count_degree(d - r - 1) - rank)
    return dims
