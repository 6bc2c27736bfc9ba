"""The two-term ideal chain complex of a planar complex, its exact H0
oracles, and the spline dimension formula with its brute-force oracle.

dim H0 in degree d is computed literally as sum_v dim J(v)_d minus the rank
of the degree-d boundary map.  The boundary matrix is assembled in a
translated integer frame at each interior vertex v = (p_x, p_y):
u_v = L(x - p_x z), w_v = L(y - p_y z) and t = z, where L is the lcm of the
denominators of the interior vertex coordinates, so L p_x and L p_y are
integers.  A form a x + b y + c z through v equals (a u_v + b w_v)/L.  Each
column is scaled by L^{r+1}, so its block at the edge's home endpoint is
the integer binomial expansion of (a u + b w)^{r+1} times a multiplier
monomial in (u, w, t), and its block at the far endpoint follows from the
integer substitution u_home = u_far + (L p_far,x - L p_home,x) t (likewise
for w).  Each vertex block is an invertible change of basis of S_d and
scaling a column does not change the rank, so the rank equals the naive
monomial-basis rank (cross-checked in the tests against dense Fraction
elimination).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb, lcm

from ._echelon import SparseIntEchelon
from .errors import CapExceeded
from .geometry import LinearForm, SimplicialComplex, _canonical_int_vector, interior_stats
from .monomials import count_degree, monomial_index
from .staircase import _power_echelons


# ---------------------------------------------------------------------------
# chain-complex description


@dataclass(frozen=True)
class EdgeGroup:
    """One column group of the boundary map: an edge form with exponent r+1
    times all degree-(d-r-1) multipliers.  Partially interior edges at the
    same vertex with the same slope give identical columns, so one group
    (named by the least such edge) stands for them all."""

    edge: tuple[int, int]
    form: LinearForm
    home: int                 # interior endpoint whose frame hosts the multipliers
    far: int | None           # second interior endpoint for totally interior edges


@dataclass(frozen=True)
class IdealComplexData:
    """The boundary map's column groups and frames of one (complex, r), and
    at each interior vertex v the walk of J'(v) in its frame (u, w): the
    echelon of J'(v)_e for e = r+1, r+2, ..., advanced only as far as a
    requested degree needs, with the slice ranks dim J'(v)_e walked so far."""

    r: int
    groups: tuple[EdgeGroup, ...]
    vertex_forms: dict[int, tuple[LinearForm, ...]]  # one form per slope at the vertex
    origins: dict[int, tuple[int, int]]  # (L p_x, L p_y): the frame's integer translation
    walks: dict[int, Iterator]  # `_power_echelons` over v's forms as coprime (a, b)
    slice_ranks: dict[int, list[int]]  # dim J'(v)_{r+1+i} at index i


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
    walks = {
        v: _power_echelons(r, [_canonical_int_vector((f.a, f.b)) for f in forms])
        for v, forms in vertex_forms.items()
    }
    slice_ranks = {v: [] for v in vertex_forms}
    return IdealComplexData(r, tuple(groups), vertex_forms, origins, walks, slice_ranks)


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


def boundary_rank(c: SimplicialComplex, r: int, d: int, data: IdealComplexData | None = None) -> int:
    """Exact rank of the degree-d boundary map of the ideal complex, each
    column scaled by L^{r+1} in the translated integer vertex frames."""
    if data is None:
        data = ideal_complex(c, r)
    if d < r + 1 or not c.interior_vertices:
        return 0
    vpos = {v: i for i, v in enumerate(c.interior_vertices)}
    ech = SparseIntEchelon()
    big = d - r - 1
    for group in data.groups:
        a, b = group.form.a, group.form.b
        home_base = [comb(r + 1, m) * a ** (r + 1 - m) * b**m for m in range(r + 2)]
        hblock = vpos[group.home]
        # the edge is oriented by ascending vertex index; its differential is
        # (+1) at the head block and (-1) at the tail block
        hsign = 1 if group.home == max(group.edge) else -1
        p_alpha = None  # far block of the alpha-th multiplier row, beta = 0
        if group.far is not None:
            (hx, hy), (fx, fy) = data.origins[group.home], data.origins[group.far]
            # (a u + b w)^{r+1} is the same in both frames; u_home and w_home
            # are u_far and w_far shifted by integer multiples of t
            p_alpha = _poly_pow(_linear_poly((a, b, 0)), r + 1)
            u_home = _linear_poly((1, 0, fx - hx))
            w_home = _linear_poly((0, 1, fy - hy))
            fblock = vpos[group.far]
        for alpha in range(big + 1):
            if p_alpha is not None and alpha > 0:
                p_alpha = _poly_mul(p_alpha, u_home)
            q_ab = p_alpha
            for beta in range(big - alpha + 1):
                if q_ab is not None and beta > 0:
                    q_ab = _poly_mul(q_ab, w_home)
                col = {
                    (hblock, monomial_index(r + 1 - m + alpha, m + beta, d)): hsign * home_base[m]
                    for m in range(r + 2)
                }
                if q_ab is not None:
                    # far-frame exponents are (eu, ew, et + gamma); the index
                    # only needs the first two at fixed total degree d
                    for (eu, ew, _et), v in q_ab.items():
                        col[(fblock, monomial_index(eu, ew, d))] = -hsign * v
                ech.insert(col)
    return ech.rank


def _vertex_dim(data: IdealComplexData, d: int, v: int) -> int:
    """dim J(v)_d = sum over e <= d of dim J'(v)_e (J(v)_d is the direct sum
    of the slices t^{d-e} J'(v)_e), walking v's echelon on as far as d."""
    ranks = data.slice_ranks[v]
    n = max(0, d - data.r)
    while len(ranks) < n:
        ranks.append(next(data.walks[v]).rank)
    return sum(ranks[:n])


def _h0_dim(c: SimplicialComplex, r: int, d: int, data: IdealComplexData) -> int:
    total = sum(_vertex_dim(data, d, v) for v in c.interior_vertices)
    return total - boundary_rank(c, r, d, data)


def h0_hilbert_oracle(c: SimplicialComplex, r: int, d: int) -> int:
    """dim H0 of the ideal complex in degree d: total vertex dimension minus
    the boundary rank, everything by exact elimination."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return _h0_dim(c, r, d, ideal_complex(c, r))


class H0Table:
    """dim H0_d of one (complex, r), ranked on first request from one ideal
    complex, so the regularity oracle and the spline-dimension formulas of
    one run share their degrees.  Degrees below r+1 are zero, and from the
    first zero degree d >= r+1 on every degree is zero (see
    `h0_regularity_oracle`), so those are filled without ranking."""

    def __init__(self, c: SimplicialComplex, r: int):
        self.c, self.r = c, r
        self._data: IdealComplexData | None = None
        self._dims = [0] * (r + 1)

    def upto(self, top: int) -> list[int]:
        """dim H0_d for d = 0..top."""
        if self._data is None:
            self._data = ideal_complex(self.c, self.r)
        dims = self._dims
        while len(dims) <= top and (len(dims) == self.r + 1 or dims[-1]):
            dims.append(_h0_dim(self.c, self.r, len(dims), self._data))
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


@dataclass(frozen=True)
class LocalResolution:
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
    c: SimplicialComplex, r: int, top: int, h0: H0Table | None = None
) -> list[int]:
    """`spline_dim_formula` for d = 0..top, from one set of interior
    statistics and one H0 table (the run's `H0Table` when passed)."""
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
    S_d per triangle with f_t1 - f_t2 in <l_e^{r+1}> on each interior edge.

    Unknowns: the f_t and one g_e in S_{d-r-1} per interior edge; each edge
    gives one integer row of f_t1 - f_t2 - l_e^{r+1} g_e = 0 per degree-d
    monomial.  Multiplying by l_e^{r+1} is injective, so the solutions
    project isomorphically onto the splines and dim C^r_d = unknowns - rank.
    No H0, local resolution or interior statistics enters, so the oracle
    stays independent of the formula it checks."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    big = d - r - 1
    g_monos = [(ex, ey) for ex in range(big + 1) for ey in range(big + 1 - ex)]
    ech = SparseIntEchelon()
    # f-keys (0, t, m) sort before g-keys (1, e, m'), so every row leads in an f
    for j, e in enumerate(c.interior_edges):
        t1, t2 = c.edge_triangles[e]
        rows = [{(0, t1, m): 1, (0, t2, m): -1} for m in range(count_degree(d))]
        power = _poly_pow(_linear_poly(c.edge_form(e).vector()), r + 1)
        for (a, b, _c), v in power.items():
            for gm, (ex, ey) in enumerate(g_monos):
                rows[monomial_index(a + ex, b + ey, d)][(1, j, gm)] = -v
        for row in rows:
            ech.insert(row)
    n_unknowns = len(c.triangles) * count_degree(d) + len(c.interior_edges) * len(g_monos)
    return n_unknowns - ech.rank
