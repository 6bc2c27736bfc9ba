"""The two-term ideal chain complex of a planar complex, its exact H0
oracles, and the spline dimension formula with its brute-force oracle.

dim H0 in degree d is computed literally as sum_v dim J(v)_d minus the rank
of the degree-d boundary map.  The boundary matrix is assembled in a
translated integer frame at each interior vertex v = (p_x, p_y):
u_v = L(x - p_x z), w_v = L(y - p_y z) and t = z, where L is the lcm of the
denominators of the interior vertex coordinates, so L p_x and L p_y are
integers.  A form a x + b y + c z through v equals (a u_v + b w_v)/L.  Each
column is scaled by L^{r+1}, so at either end v of its edge the block is
(a u_v + b w_v)^{r+1} times a multiplier monomial in (u_home, w_home, t),
with u_home = u_v + (L p_v,x - L p_home,x) t and likewise for w: one integer
rule, whose shift is zero at home.  Each vertex block is an invertible
change of basis of S_d and scaling a column does not change the rank, so
the rank equals the naive monomial-basis rank (cross-checked in the tests
against dense Fraction elimination).

Both oracles eliminate once per run, not once per degree.  Setting t = 1
(z = 1 for the spline oracle) identifies S_d with the polynomials of
degree <= d (Billera-Rose 1991), and under that identification each
degree's system is a prefix of the next one's.  A run's whole H0 state is
one generator, `_h0_walk`, which walks the boundary map and each J'(v)
together and yields dim H0_d degree by degree.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import count, islice
from math import lcm
from typing import NamedTuple

from ._echelon import SparseIntEchelon
from .errors import CapExceeded
from .geometry import (
    InteriorData,
    LinearForm,
    SimplicialComplex,
    _canonical_int_vector,
    interior_stats,
)
from .monomials import count_degree, monomial_index
from .staircase import _power_echelons


# ---------------------------------------------------------------------------
# chain-complex description


class EdgeGroup(NamedTuple):
    """One column group of the boundary map: an edge form with exponent r+1
    times all degree-(d-r-1) multipliers.  Partially interior edges at the
    same vertex with the same slope give identical columns, so one group
    (named by the least such edge) stands for them all."""

    edge: tuple[int, int]
    form: LinearForm
    home: int                 # interior endpoint whose frame hosts the multipliers
    far: int | None           # second interior endpoint for totally interior edges


class IdealComplexData(NamedTuple):
    """The boundary map's column groups and the vertex forms and frames of
    one (complex, r)."""

    r: int
    groups: tuple[EdgeGroup, ...]
    vertex_forms: dict[int, tuple[LinearForm, ...]]  # one form per slope at the vertex
    origins: dict[int, tuple[int, int]]  # (L p_x, L p_y): the frame's integer translation


def ideal_complex(c: SimplicialComplex, r: int) -> IdealComplexData:
    interior = set(c.interior_vertices)
    vpos = {v: i for i, v in enumerate(c.interior_vertices)}
    totally = [e for e in c.interior_edges if e[0] in interior and e[1] in interior]
    groups: list[EdgeGroup] = []
    for e in sorted(totally):
        home, far = sorted(e, key=lambda v: vpos[v])
        groups.append(EdgeGroup(e, c.edge_form(e), home, far))
    partial: dict[tuple[int, tuple[int, int]], tuple[int, int]] = {}  # least edge per key
    for e in sorted(c.interior_edges):
        ends_in = [v for v in e if v in interior]
        if len(ends_in) == 1:
            partial.setdefault((ends_in[0], c.edge_slope(e)), e)
    for (v, _slope), e in sorted(partial.items()):
        groups.append(EdgeGroup(e, c.edge_form(e), v, None))

    vertex_forms = {}
    for v in c.interior_vertices:
        seen = {}
        for e in sorted(e for e in c.interior_edges if v in e):
            seen.setdefault(c.edge_slope(e), c.edge_form(e))
        vertex_forms[v] = tuple(seen.values())
    scale = 1
    for v in c.interior_vertices:
        for coord in c.vertices[v]:
            scale = lcm(scale, coord.denominator)
    origins = {v: (int(scale * c.vertices[v][0]), int(scale * c.vertices[v][1])) for v in interior}
    return IdealComplexData(r, tuple(groups), vertex_forms, origins)


def _poly_mul(p, q):
    out = {}
    for (a1, b1, c1), v1 in p.items():
        for (a2, b2, c2), v2 in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            nv = out.get(key, 0) + v1 * v2
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
    return out


def _linear_poly(coeffs):
    out = {}
    for key, v in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs):
        if v:
            out[key] = v
    return out


def _poly_pow(p, n):
    out = {(0, 0, 0): 1}
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _boundary_walk(c: SimplicialComplex, data: IdealComplexData) -> Iterator[int]:
    """The rank of the degree-d boundary map for d = r+1, r+2, ..., each
    column scaled by L^{r+1} in the translated integer vertex frames.

    With t = 1 a degree-d column is its (u, w) polynomial of degree <= d, so
    the degree-d columns are the degree-(d-1) ones plus one new level: the
    multipliers u_home^alpha w_home^beta with alpha + beta = d - r - 1.  Both
    ends v of an edge run one rule: the block is (a u_v + b w_v)^{r+1} times
    the multiplier, in v's frame u_home = u_v + (L v_x - L home_x) t (and
    w_home likewise), so the shift is zero at home.  One echelon takes the
    levels in turn; u_v^eu w_v^ew at v's position p is keyed
    `monomial_index(eu, ew) * n + p`: total degree first, no bound on d."""
    vpos = {v: i for i, v in enumerate(c.interior_vertices)}
    n = len(vpos)
    groups = []  # per group, per end: position, u_home, w_home, blocks of the level by alpha
    for group in data.groups:
        power = _poly_pow(_linear_poly((group.form.a, group.form.b, 0)), data.r + 1)
        hx, hy = data.origins[group.home]
        ends = []
        for v in (group.home, group.far):
            if v is None:
                continue
            vx, vy = data.origins[v]
            # the edge is oriented by ascending vertex index; its differential
            # is (+1) at the head block and (-1) at the tail block
            sign = 1 if v == max(group.edge) else -1
            u_home, w_home = _linear_poly((1, 0, vx - hx)), _linear_poly((0, 1, vy - hy))
            ends.append((vpos[v], u_home, w_home, [{m: sign * x for m, x in power.items()}]))
        groups.append(ends)
    ech = SparseIntEchelon()
    for k in count():
        for ends in groups:
            for _pos, u_home, w_home, blocks in ends:
                if k:
                    # level k by alpha = 0..k: each block of level k-1 times
                    # w_home, and the last one (alpha = k-1) also times u_home
                    blocks[:] = [_poly_mul(q, w_home) for q in blocks] + [_poly_mul(blocks[-1], u_home)]
            for alpha in range(k + 1):
                ech.insert(
                    {
                        monomial_index(eu, ew) * n + pos: x
                        for pos, _u, _w, blocks in ends
                        for (eu, ew, _et), x in blocks[alpha].items()
                    }
                )
        yield ech.rank


def boundary_rank(c: SimplicialComplex, r: int, d: int) -> int:
    """Exact rank of the degree-d boundary map of the ideal complex, read
    off a fresh boundary walk."""
    if d < r + 1:
        return 0
    return next(islice(_boundary_walk(c, ideal_complex(c, r)), d - r - 1, None))


def _h0_walk(c: SimplicialComplex, r: int) -> Iterator[int]:
    """dim H0_d for d = r+1, r+2, ...: sum_v dim J(v)_d minus the rank of
    the degree-d boundary map.  J(v)_d is the direct sum of the slices
    t^{d-e} J'(v)_e for e <= d, so one running total of the slice ranks
    dim J'(v)_e, read off the walk of J'(v) in v's frame (u, w), is
    sum_v dim J(v)_d."""
    data = ideal_complex(c, r)
    walks = [
        _power_echelons(r, [_canonical_int_vector((f.a, f.b)) for f in data.vertex_forms[v]])
        for v in c.interior_vertices
    ]
    total = 0
    for *echs, rank in zip(*walks, _boundary_walk(c, data)):
        total += sum(ech.rank for ech in echs)
        yield total - rank


def h0_hilbert_oracle(c: SimplicialComplex, r: int, d: int) -> int:
    """dim H0 of the ideal complex in degree d: total vertex dimension minus
    the boundary rank, everything by exact elimination."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d < r + 1:
        return 0
    return next(islice(_h0_walk(c, r), d - r - 1, None))


class H0Table:
    """dim H0_d of one (complex, r), ranked on first request from one walk,
    so the regularity oracle and the spline-dimension formulas of one run
    share their degrees.  Degrees below r+1 are zero, and from the first
    zero degree d >= r+1 on every degree is zero (see
    `h0_regularity_oracle`), so those are filled without ranking."""

    def __init__(self, c: SimplicialComplex, r: int):
        self.r = r
        self._walk = _h0_walk(c, r)  # builds nothing before its first degree
        self._dims = [0] * (r + 1)

    def upto(self, top: int) -> list[int]:
        """dim H0_d for d = 0..top."""
        dims = self._dims
        while len(dims) <= top and (len(dims) == self.r + 1 or dims[-1]):
            dims.append(next(self._walk))
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
    ranked degrees."""
    top = 4 * r + 2
    table = (h0 or H0Table(c, r)).upto(top)
    if table[top]:
        raise CapExceeded(f"H0 nonzero at degree {top} = 4r+2")
    return next((d for d in range(top, r, -1) if table[d]), None)


# ---------------------------------------------------------------------------
# spline dimensions


class LocalResolution(NamedTuple):
    """Free resolution data of a vertex star with k distinct slopes."""

    k: int
    r: int
    alpha_star: int
    a1: int
    a2: int

    def hilbert(self, d: int) -> int:
        return (
            count_degree(d)
            - self.k * count_degree(d - self.r - 1)
            + self.a1 * count_degree(d - self.r - 1 - self.alpha_star)
            + self.a2 * count_degree(d - self.r - 2 - self.alpha_star)
        )


def schumaker_local(k: int, r: int) -> LocalResolution:
    if k < 2:
        raise ValueError("a vertex star needs at least two distinct slopes")
    alpha_star = (r + 1) // (k - 1)
    a1 = (k - 1) * alpha_star + k - r - 2
    a2 = r + 1 - (k - 1) * alpha_star
    return LocalResolution(k, r, alpha_star, a1, a2)


def spline_dim_formula(c: SimplicialComplex, r: int, d: int) -> int:
    """Dimension of the degree-d smooth spline space from local data plus
    the homology correction term."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return spline_dim_formulas(c, r, d)[d]


def spline_dim_formulas(
    c: SimplicialComplex,
    r: int,
    top: int,
    h0: H0Table | None = None,
    stats: InteriorData | None = None,
) -> list[int]:
    """`spline_dim_formula` for d = 0..top, from one set of interior
    statistics and one H0 table (the run's `stats` and `H0Table` when
    passed)."""
    if stats is None:
        stats = interior_stats(c, r)
    local = [schumaker_local(st.k, r) for st in stats.per_vertex.values()]
    h0 = (h0 or H0Table(c, r)).upto(top)
    dims = []
    for d in range(top + 1):
        total = len(c.triangles) * count_degree(d)
        total -= len(c.interior_edges) * (count_degree(d) - count_degree(d - r - 1))
        total += sum(lr.hilbert(d) for lr in local)
        dims.append(total + h0[d])
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
        power = _poly_pow(_linear_poly(c.edge_form(e).vector()), r + 1)
        g_block = n_t + j
        for (a, b, _c), v in power.items():
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
