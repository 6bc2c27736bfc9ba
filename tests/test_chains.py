import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate, count
from math import comb
from typing import NamedTuple

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hs

from splinereg import chains, staircase
from splinereg._echelon import SparseIntEchelon
from splinereg.chains import (
    H0Table,
    boundary_rank,
    h0_hilbert_oracle,
    h0_regularity_oracle,
    ideal_complex,
    local_hilbert,
    spline_dim_formula,
    spline_dim_local,
    spline_dim_oracle,
    spline_dim_oracles,
)
from splinereg.errors import CapExceeded
from splinereg.geometry import (
    _canonical_int_vector,
    ce1_complex,
    one_edge_complex,
    one_edge_fan,
    square_with_diagonals,
    star_complex,
)
from splinereg.monomials import count_degree, hilbert_function, monomial_index, monomials_of_degree
from splinereg.ratlinalg import RatMatrix, rank
from splinereg.staircase import _power_echelons, build_q

from conftest import (
    fraction_origins,
    linear_poly,
    morgan_scott,
    poly_mul,
    poly_pow,
    rational_image,
    wheel_in_wheel,
)


# -- naive boundary matrix in the global monomial basis, used to certify the
#    adapted-coordinate rank computation


def _expand(form, power, mono):
    """form^power times the monomial mono, in the global monomial basis."""
    return poly_mul(poly_pow(linear_poly(*form.vector()), power), {tuple(mono): 1})


class BoundaryGroup(NamedTuple):
    """One column group of the whole boundary map; `far` is None for a
    partially interior edge, whose columns live at `home` alone."""

    edge: tuple[int, int]
    form: object
    home: int
    far: int | None


def boundary_groups(c):
    """Every column group of the boundary map, read off the complex: the
    totally interior edges (home first in interior-vertex order), then one
    group per (interior vertex, slope) of the partially interior edges,
    named by the least such edge."""
    vpos = {v: i for i, v in enumerate(c.interior_vertices)}
    groups = [BoundaryGroup(e, c.forms[e], *sorted(e, key=vpos.get)) for e in c.totally_interior]
    partial = {}
    for v, edges in c.edges_at.items():
        for e in edges:
            if e not in c.totally_interior:
                partial.setdefault((v, c.slopes[e]), e)
    return groups + [BoundaryGroup(e, c.forms[e], v, None) for (v, _), e in sorted(partial.items())]


def naive_boundary_rank(c, r, d):
    vlist = list(c.interior_vertices)
    vpos = {v: i for i, v in enumerate(vlist)}
    monos = [tuple(m) for m in monomials_of_degree(d)]
    midx = {m: i for i, m in enumerate(monos)}
    nrows = len(vlist) * len(monos)
    cols = []
    for g in boundary_groups(c):
        ends = [g.home] + ([g.far] if g.far is not None else [])
        for mu in monomials_of_degree(d - r - 1):
            col = [Fraction(0)] * nrows
            poly = _expand(g.form, r + 1, mu)
            for sign, v in zip((1, -1), ends):
                for key, val in poly.items():
                    col[vpos[v] * len(monos) + midx[key]] += sign * val
            cols.append(col)
    if not cols:
        return 0
    ent = tuple(cols[j][i] for i in range(nrows) for j in range(len(cols)))
    return rank(RatMatrix(nrows, len(cols), ent))


def naive_vertex_dim(c, r, d, v):
    data = ideal_complex(c, r)
    monos = [tuple(m) for m in monomials_of_degree(d)]
    midx = {m: i for i, m in enumerate(monos)}
    cols = []
    for form in data.vertex_forms[v]:
        for mu in monomials_of_degree(d - r - 1):
            col = [Fraction(0)] * len(monos)
            for key, val in _expand(form, r + 1, mu).items():
                col[midx[key]] += val
            cols.append(col)
    if not cols:
        return 0
    ent = tuple(cols[j][i] for i in range(len(monos)) for j in range(len(cols)))
    return rank(RatMatrix(len(monos), len(cols), ent))


def _assert_image_keeps_ranks(c, r, degrees):
    image = rational_image(c)
    assert any(x.denominator > 1 for v in image.interior_vertices for x in image.vertices[v])
    for d in degrees:
        assert boundary_rank(image, r, d) == naive_boundary_rank(image, r, d)
        assert boundary_rank(image, r, d) == boundary_rank(c, r, d)
    assert h0_regularity_oracle(image, r) == h0_regularity_oracle(c, r)


# -- the per-degree kernels that the two walks replaced, kept as their
#    references: each builds its echelon from nothing for one degree, and
#    expands its polynomials with the tests' own product, not the walks'


def per_degree_boundary_rank(c, r, d):
    """Exact rank of the degree-d boundary map of the ideal complex, each
    column scaled by L^{r+1} in the translated integer vertex frames."""
    data = ideal_complex(c, r)
    if d < r + 1 or not c.interior_vertices:
        return 0
    vpos = {v: i for i, v in enumerate(c.interior_vertices)}
    ech = SparseIntEchelon()
    big = d - r - 1
    # block-major integer keys block * n + idx sort like (block, idx)
    n = count_degree(d)
    for group in boundary_groups(c):
        a, b = group.form.a, group.form.b
        home_base = [comb(r + 1, m) * a ** (r + 1 - m) * b**m for m in range(r + 2)]
        hbase = vpos[group.home] * n
        # the edge is oriented by ascending vertex index; its differential is
        # (+1) at the head block and (-1) at the tail block
        hsign = 1 if group.home == max(group.edge) else -1
        p_alpha = None  # far block of the alpha-th multiplier row, beta = 0
        if group.far is not None:
            (hx, hy), (fx, fy) = data.origins[group.home], data.origins[group.far]
            # (a u + b w)^{r+1} is the same in both frames; u_home and w_home
            # are u_far and w_far shifted by integer multiples of t
            p_alpha = poly_pow(linear_poly(a, b, 0), r + 1)
            u_home = linear_poly(1, 0, fx - hx)
            w_home = linear_poly(0, 1, fy - hy)
            fbase = vpos[group.far] * n
        for alpha in range(big + 1):
            if p_alpha is not None and alpha > 0:
                p_alpha = poly_mul(p_alpha, u_home)
            q_ab = p_alpha
            for beta in range(big - alpha + 1):
                if q_ab is not None and beta > 0:
                    q_ab = poly_mul(q_ab, w_home)
                col = {
                    hbase + monomial_index(m + beta, big - alpha - beta): hsign * home_base[m]
                    for m in range(r + 2)
                }
                if q_ab is not None:
                    # far-frame exponents are (eu, ew, et + gamma), whose
                    # t-exponent is d - eu - ew at fixed total degree d
                    for (eu, ew, _et), v in q_ab.items():
                        col[fbase + monomial_index(ew, d - eu - ew)] = -hsign * v
                ech.insert(col)
    return ech.rank



def per_degree_spline_dim_oracle(c, r, d):
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
    n_s, n_g = count_degree(d), len(g_monos)
    g_base = len(c.triangles) * n_s
    ech = SparseIntEchelon()
    # block-major integer keys: f-keys t * n_s + m come before g-keys
    # g_base + j * n_g + m', so every row leads in an f
    for j, e in enumerate(c.interior_edges):
        t1, t2 = c.edge_triangles[e]
        rows = [{t1 * n_s + m: 1, t2 * n_s + m: -1} for m in range(n_s)]
        power = poly_pow(linear_poly(*c.forms[e].vector()), r + 1)
        j_base = g_base + j * n_g
        for (a, b, cz), v in power.items():
            for gm, (ex, ey) in enumerate(g_monos):
                rows[monomial_index(b + ey, cz + big - ex - ey)][j_base + gm] = -v
        for row in rows:
            ech.insert(row)
    n_unknowns = g_base + len(c.interior_edges) * n_g
    return n_unknowns - ech.rank


def formula_dims(c, r, top, table=None):
    """The spline dimension formula for d = 0..top: its local part plus the
    H0 table (the run's when passed)."""
    h0 = (table or H0Table(c, r)).upto(top)
    return [local + h for local, h in zip(spline_dim_local(c, r, top), h0)]


def level_columns(c, r, k, groups, origins):
    """The level-k boundary columns of `groups` (degree d = r+1+k) in the
    walk's keys, in its order: group by group, alpha = 0..k, each end v
    holding its sign times (a u_v + b w_v)^{r+1} (u_v + dx)^alpha
    (w_v + dy)^{k-alpha} at t = 1, (dx, dy) being v's integer shift from
    the home frame; expanded with the tests' own product."""
    vpos = {v: i for i, v in enumerate(c.interior_vertices)}
    cols = []
    for g in groups:
        hx, hy = origins[g.home]
        power = poly_pow(linear_poly(g.form.a, g.form.b, 0), r + 1)
        for alpha in range(k + 1):
            col = {}
            for v in [v for v in (g.home, g.far) if v is not None]:
                vx, vy = origins[v]
                sign = 1 if v == max(g.edge) else -1
                shifts = poly_mul(
                    poly_pow(linear_poly(1, 0, vx - hx), alpha),
                    poly_pow(linear_poly(0, 1, vy - hy), k - alpha),
                )
                for (eu, ew, _et), x in poly_mul(power, shifts).items():
                    col[monomial_index(eu, ew) * len(vpos) + vpos[v]] = sign * x
            cols.append(col)
    return cols


def reference_h0_walk(c, r):
    """dim H0_d for d = r+1, r+2, ... by the chain oracle's walk before it
    ranked in the local quotients, kept as their reference: every boundary
    column, the partially interior ones among them, reaches one echelon
    level by level, and sum_v dim J(v)_d is the running total of the slice
    ranks of each J'(v)."""
    data = ideal_complex(c, r)
    groups = boundary_groups(c)
    walks = [
        _power_echelons(r, [_canonical_int_vector((f.a, f.b)) for f in data.vertex_forms[v]])
        for v in c.interior_vertices
    ]
    ech = SparseIntEchelon()
    total = 0
    for k in count():
        for col in level_columns(c, r, k, groups, data.origins):
            ech.insert(col)
        total += sum(next(walk).rank for walk in walks)
        yield total - ech.rank


def reference_table(c, r):
    """`H0Table(c, r).upto(4r+2)` read off `reference_h0_walk`, which stops
    one degree after its first zero degree past r+1 and checks that this
    degree is zero too."""
    dims = [0] * (r + 1)
    walk = reference_h0_walk(c, r)
    while len(dims) <= 4 * r + 2 and (len(dims) == r + 1 or dims[-1]):
        dims.append(next(walk))
    if len(dims) <= 4 * r + 2:
        assert next(walk) == 0
    return dims + [0] * (4 * r + 3 - len(dims))


# (complex, r) pairs whose every degree up to 4r+2 the walks must reproduce
_REFERENCE_CASES = (
    [("one33", r) for r in range(5)]
    + [("one34", r) for r in range(5)]
    + [("one34-image", r) for r in range(4)]
    + [("ce1", r) for r in range(5)]
    + [("star", r) for r in range(5)]
    + [("square", r) for r in range(5)]
)


def _reference_complex(request, name):
    if name == "square":
        return square_with_diagonals()
    if name == "one34-image":
        return rational_image(request.getfixturevalue("complex_one34"))
    return request.getfixturevalue("complex_" + name)


def _assert_walks_equal_per_degree_kernels(c, r):
    top = 4 * r + 2
    walked = [boundary_rank(c, r, d) for d in range(top + 1)]
    assert walked == [per_degree_boundary_rank(c, r, d) for d in range(top + 1)]
    assert spline_dim_oracles(c, r, top) == [
        per_degree_spline_dim_oracle(c, r, d) for d in range(top + 1)
    ]


@pytest.mark.slow
@pytest.mark.parametrize("name,r", _REFERENCE_CASES, ids=[f"{n}-r{r}" for n, r in _REFERENCE_CASES])
def test_walks_equal_per_degree_kernels(request, name, r):
    _assert_walks_equal_per_degree_kernels(_reference_complex(request, name), r)


def test_boundary_walk_inserts_the_boundary_columns(monkeypatch, complex_ce1, complex_one34):
    # ranks alone cannot see a walk that writes every block in the mirrored
    # frame (u and w swapped throughout), since that only permutes rows, so
    # the inserted columns are compared in order with the totally interior
    # boundary columns expanded by the tests' own product.  Each is ranked
    # modulo P_d, the span of the partially interior columns of its degree:
    # it must equal its boundary column there up to a scale, and hold no
    # lead of P_d's echelon, as a normal form does.  A boundary column the
    # walk skips must already lie in the span, modulo P_d, of the columns
    # inserted before it
    inserted = []

    class Recording(SparseIntEchelon):
        def insert(self, vec):
            inserted.append({k: v for k, v in vec.items() if v})
            return super().insert(vec)

    def rank_with(ech, *vecs):
        probe = SparseIntEchelon()
        probe.pivots = dict(ech.pivots)
        for vec in vecs:
            probe.insert(vec)
        return probe.rank

    monkeypatch.setattr(chains, "SparseIntEchelon", Recording)
    r, d = 2, 9
    for c in (complex_ce1, rational_image(complex_one34)):
        inserted.clear()
        boundary_rank(c, r, d)
        data = ideal_complex(c, r)
        groups = boundary_groups(c)
        total = [g for g in groups if g.far is not None]
        assert total == [tuple(g) for g in data.groups]
        assert any(data.origins[g.far] != data.origins[g.home] for g in total)
        # p_ech spans P_d; span holds P_d and the columns inserted so far
        p_ech, span, found, reduced, skipped = SparseIntEchelon(), SparseIntEchelon(), 0, 0, 0
        for k in range(d - r):
            for col in level_columns(c, r, k, [g for g in groups if g.far is None], data.origins):
                p_ech.insert(col)
                span.insert(col)
            for col in level_columns(c, r, k, total, data.origins):
                got = inserted[found] if found < len(inserted) else None
                if got is not None and (
                    rank_with(p_ech, col) == rank_with(p_ech, got) == rank_with(p_ech, col, got)
                ):
                    assert not got.keys() & p_ech.pivots.keys()
                    reduced += got != col
                    span.insert(got)
                    found += 1
                else:
                    assert rank_with(span, col) == span.rank
                    skipped += 1
        assert found == len(inserted)
        assert reduced  # the quotient does change columns
        assert skipped  # and the walk does skip some


_MS_INNER = ((1, Fraction(1, 4)), (1, Fraction(7, 4)))
_MS_SPECIAL = _MS_INNER + ((Fraction(1, 2), Fraction(5, 4)),)  # F2's special position
_MS_GENERIC = _MS_INNER + ((Fraction(1, 2), Fraction(6, 5)),)
_QUOTIENT_COMPLEXES = {
    "ce1": ce1_complex,
    "one34": lambda: one_edge_complex(3, 4),
    "one46": lambda: one_edge_complex(4, 6),
    "ms-special": lambda: morgan_scott(_MS_SPECIAL),
    "ms-generic": lambda: morgan_scott(_MS_GENERIC),
    "wheel": wheel_in_wheel,  # its centre has no partially interior edge: P' = 0
}
_QUOTIENT_CASES = (
    [("ce1", r) for r in (*range(1, 9), 10, 12)]
    + [("one34", 8), ("one34", 16), ("one46", 3), ("one46", 9)]
    + [(name, r) for name in ("ms-special", "ms-generic") for r in range(1, 7)]
    + [("wheel", 2), ("wheel", 4), ("wheel", 8)]
)


@pytest.mark.slow
@pytest.mark.parametrize("name,r", _QUOTIENT_CASES, ids=[f"{n}-r{r}" for n, r in _QUOTIENT_CASES])
def test_quotient_walk_equals_the_whole_boundary_walk(name, r):
    c = _QUOTIENT_COMPLEXES[name]()
    assert H0Table(c, r).upto(4 * r + 2) == reference_table(c, r)


def _counting(counts):
    """A sparse echelon that adds its inserts and zero reductions to counts."""

    class Counting(SparseIntEchelon):
        def insert(self, vec):
            counts["inserts"] += 1
            counts["zeros"] += not (found := super().insert(vec))
            return found

    return Counting


@pytest.mark.slow
@pytest.mark.parametrize("r, reg, inserts, zeros", [(14, 35, 413, 20), (16, 40, 527, 22)])
def test_boundary_walk_skips_the_columns_a_found_syzygy_kills(monkeypatch, r, reg, inserts, zeros):
    # F10: a column that reduces to zero kills its multiples by u_home and
    # w_home.  Without the skip, ce1's walk to its first zero degree ranks
    # 506 totally interior columns at r = 14, 113 of them to zero, and 650
    # at r = 16, 145 of them to zero
    counts = Counter()
    monkeypatch.setattr(chains, "SparseIntEchelon", _counting(counts))
    assert h0_regularity_oracle(ce1_complex(), r) == reg
    assert counts == {"inserts": inserts, "zeros": zeros}


_COUNT_CASES = [
    pytest.param("ce1", 14, (215, 8), (413, 20), marks=pytest.mark.slow),
    ("ce1", 8, (131, 8), (153, 12)),
    ("one34", 8, (69, 7), (28, 2)),
]


@pytest.mark.parametrize("name, r, powers, main", _COUNT_CASES)
def test_walk_insert_counts(monkeypatch, name, r, powers, main):
    # (inserts, zero reductions) of one run to the first zero degree: the
    # J'(v) and P'(v) walks insert through the staircase module, the
    # totally interior columns through the chains module
    walks, columns = Counter(), Counter()
    monkeypatch.setattr(staircase, "SparseIntEchelon", _counting(walks))
    monkeypatch.setattr(chains, "SparseIntEchelon", _counting(columns))
    h0_regularity_oracle(_QUOTIENT_COMPLEXES[name](), r)
    assert (walks["inserts"], walks["zeros"]) == powers
    assert (columns["inserts"], columns["zeros"]) == main


def test_origins_take_the_interior_scale_alone():
    # the frame's scale is the lcm over the interior vertices' denominators,
    # not the complex's: boundary denominators 3 and 5 that no interior
    # vertex has give L = 15, while the interior vertices (0, 0) and (1, 0)
    # keep the scale 1.  Every bundled complex, its rational image and the
    # random fans are compared in tests/test_geometry.py
    c = one_edge_fan([Fraction(1, 3)], [Fraction(1, 5)])
    assert c.frame[1] == (15, 0, 15)
    assert ideal_complex(c, 1).origins == fraction_origins(c) == {0: (0, 0), 1: (1, 0)}


@pytest.mark.slow
def test_ce1_r14_budget():
    # the range the 2r findings need: ce1 stays at floor(5r/2) at r = 14,
    # in 0.35-0.45 s (2-vCPU Xeon VM, Python 3.11) where the walk that ranked
    # every boundary column took 5.1-5.5 s, and the walk that ranked every
    # totally interior column 0.8-1.0 s
    start = time.perf_counter()
    assert h0_regularity_oracle(ce1_complex(), 14) == 35
    elapsed = time.perf_counter() - start
    assert elapsed < 1.2, f"h0_regularity_oracle(ce1, 14) took {elapsed:.2f}s"


def test_wheel_centre_has_no_partially_interior_edge():
    data = ideal_complex(wheel_in_wheel(), 2)
    assert data.partial_forms[0] == () and len(data.vertex_forms[0]) == 3
    assert all(data.partial_forms[v] for v in (1, 2, 3))


@pytest.mark.parametrize("r,dmax", [(1, 5), (2, 6), (3, 10)])
def test_adapted_rank_equals_naive_one_edge(complex_one33, complex_one34, r, dmax):
    for d in range(r + 1, dmax + 1):
        assert boundary_rank(complex_one33, r, d) == naive_boundary_rank(complex_one33, r, d)
    _assert_image_keeps_ranks(complex_one34, r, range(r + 1, dmax + 1))


def test_adapted_rank_equals_naive_ce1(complex_ce1):
    for d in range(2, 6):
        assert boundary_rank(complex_ce1, 1, d) == naive_boundary_rank(complex_ce1, 1, d)
    for d in range(3, 9):
        assert boundary_rank(complex_ce1, 2, d) == naive_boundary_rank(complex_ce1, 2, d)
    _assert_image_keeps_ranks(complex_ce1, 1, range(2, 6))
    _assert_image_keeps_ranks(complex_ce1, 2, range(3, 9))


def test_vertex_dim_equals_naive(complex_one34):
    # dim J(v)_d is the running sum of the slice ranks dim J'(v)_e, e <= d,
    # read off the walk of J'(v) in v's frame
    data = ideal_complex(complex_one34, 2)
    for v in complex_one34.interior_vertices:
        pairs = [_canonical_int_vector((f.a, f.b)) for f in data.vertex_forms[v]]
        dims = list(accumulate(walk_ranks(pairs, 2, 6)))
        for d in range(3, 7):
            assert dims[d] == naive_vertex_dim(complex_one34, 2, d, v)


def test_ideal_complex_structure(complex_one33, complex_star):
    data = ideal_complex(complex_one33, 2)
    assert [g.edge for g in data.groups] == [(0, 1)]  # the totally interior edge alone
    # k(v) distinct forms per vertex after multiplicity collapse, all but
    # the shared edge's from partially interior edges
    assert len(data.vertex_forms[0]) == 3
    assert len(data.partial_forms[0]) == 2
    assert set(data.partial_forms[0]) < set(data.vertex_forms[0])
    star = ideal_complex(complex_star, 1)
    assert star.groups == ()
    assert star.partial_forms == star.vertex_forms and len(star.vertex_forms[0]) == 3


def test_ideal_complex_ce1_structure(complex_ce1):
    data = ideal_complex(complex_ce1, 1)
    tot = [g for g in data.groups if g.far is not None]
    assert len(tot) == 2
    assert len({g.home for g in data.groups} | {g.far for g in tot}) == 3


def test_h0_zero_below_r_plus_one(complex_one34):
    for d in range(0, 9):
        assert h0_hilbert_oracle(complex_one34, 8, d) == 0


def test_h0_matches_shifted_hilbert_function():
    # on one edge the whole Hilbert function of H0 is that of S/In Q shifted
    # by r+1, not only its last nonzero degree
    checks = 0
    for a, b in [(3, 3), (3, 4), (4, 6), (5, 5), (3, 8), (8, 8)]:
        c = one_edge_complex(a, b)
        for r in range(7):
            top = 4 * r + 4
            in_q = build_q(a, b, r).in_q
            expected = [0] * (r + 1) + [hilbert_function(in_q, d - r - 1) for d in range(r + 1, top + 1)]
            assert H0Table(c, r).upto(top) == expected, (a, b, r)
            checks += len(expected)
    assert checks == 714


def test_h0_regularity_star_is_zero(complex_star):
    assert h0_regularity_oracle(complex_star, 1) is None
    assert h0_regularity_oracle(complex_star, 2) is None


def test_h0_regularity_one_edge_33(complex_one33):
    for r in (1, 2, 3):
        assert h0_regularity_oracle(complex_one33, r) == 2 * r


def test_h0_34_r8_boundary_degrees(complex_one34):
    assert h0_hilbert_oracle(complex_one34, 8, 14) != 0
    assert h0_hilbert_oracle(complex_one34, 8, 15) == 0


@pytest.mark.parametrize(
    "name,r",
    [("complex_one33", 1), ("complex_one33", 2), ("complex_one33", 3),
     ("complex_one34", 2),
     ("complex_ce1", 1), ("complex_ce1", 2), ("complex_ce1", 3),
     ("complex_star", 1), ("complex_star", 2)],
)
def test_early_stop_is_exact(request, name, r):
    c = request.getfixturevalue(name)
    window = range(r + 1, 4 * r + 3)
    full = [h0_hilbert_oracle(c, r, d) for d in window]
    first_zero = full.index(0)
    assert not any(full[first_zero:])
    nonzero = [d for d, value in zip(window, full) if value]
    assert h0_regularity_oracle(c, r) == (nonzero[-1] if nonzero else None)
    assert chains.H0Table(c, r).upto(4 * r + 2) == [0] * (r + 1) + full


def test_cap_exceeded_when_h0_never_vanishes(monkeypatch, complex_one33):
    r = 2
    ranked = []

    def nonzero_everywhere(c, r):
        for d in count(r + 1):
            ranked.append(d)
            yield 0, 1

    monkeypatch.setattr(chains, "_walk", nonzero_everywhere)
    with pytest.raises(CapExceeded, match="degree 10 = 4r"):
        h0_regularity_oracle(complex_one33, r)
    assert ranked == list(range(r + 1, 4 * r + 3))


def test_h0_table_ranks_each_degree_once(monkeypatch, complex_ce1):
    r = 2
    full = [0] * (r + 1) + [h0_hilbert_oracle(complex_ce1, r, d) for d in range(r + 1, 11)]
    dims = [spline_dim_formula(complex_ce1, r, d) for d in range(11)]
    ranked = []
    walk = chains._walk

    def counted(c, r):
        for d, step in enumerate(walk(c, r), r + 1):
            ranked.append(d)
            yield step

    monkeypatch.setattr(chains, "_walk", counted)
    table = chains.H0Table(complex_ce1, r)
    assert table.upto(4) == full[:5]
    assert table.upto(10) == full
    assert table.upto(5) == full[:6]
    assert h0_regularity_oracle(complex_ce1, r, table) == 5
    assert formula_dims(complex_ce1, r, 10, table) == dims
    assert ranked == [3, 4, 5, 6]


def schumaker_constants(k, r):
    """Schumaker's (1979) local-resolution constants (alpha*, a1, a2) of a
    vertex with k >= 2 distinct slopes: S/J(v) is resolved by k shifts of
    r+1 and a1, a2 shifts of r+1+alpha*, r+2+alpha*."""
    alpha_star = (r + 1) // (k - 1)
    return alpha_star, (k - 1) * alpha_star + k - r - 2, r + 1 - (k - 1) * alpha_star


def schumaker_hilbert(k, r, d):
    """dim (S/J(v))_d read off that resolution, the reference for
    `local_hilbert`."""
    alpha_star, a1, a2 = schumaker_constants(k, r)
    return (
        count_degree(d)
        - k * count_degree(d - r - 1)
        + a1 * count_degree(d - r - 1 - alpha_star)
        + a2 * count_degree(d - r - 2 - alpha_star)
    )


def test_schumaker_values():
    assert schumaker_constants(2, 1) == (2, 1, 0)
    assert schumaker_constants(3, 8) == (4, 1, 1)


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("r", range(0, 9))
def test_schumaker_identity(k, r):
    _alpha_star, a1, a2 = schumaker_constants(k, r)
    assert a1 + a2 == k - 1


def test_local_hilbert_equals_schumaker_resolution():
    cells = [(k, r, d) for k in range(2, 20) for r in range(30) for d in range(4 * r + 6)]
    assert len(cells) == 34560
    assert [local_hilbert(*cell) for cell in cells] == [schumaker_hilbert(*cell) for cell in cells]


def test_local_hilbert_without_two_slopes():
    # no slope leaves S itself; one slope leaves S/<l^{r+1}>
    for r in range(5):
        for d in range(4 * r + 6):
            assert local_hilbert(0, r, d) == count_degree(d)
            assert local_hilbert(1, r, d) == count_degree(d) - count_degree(d - r - 1)


def walk_ranks(pairs, r, top):
    """dim J'_e for e = 0..top, J' = <(n1 u + n2 w)^{r+1}> over the integer
    pairs, read off the walk of J' (zero below the generating degree)."""
    walk = _power_echelons(r, pairs)
    return [0] * (r + 1) + [next(walk).rank for _ in range(r + 1, top + 1)]


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("r", range(0, 9))
def test_schumaker_matches_rank_oracle(k, r):
    # Schumaker's vertex term, `local_hilbert`, against the walk of J'
    pairs = tuple((1, c) for c in range(k))
    ranks = walk_ranks(pairs, r, 4 * r)
    for d in range(0, 4 * r + 1):
        assert count_degree(d) - sum(ranks[: d + 1]) == local_hilbert(k, r, d)


def fraction_two_var_dim(pairs, r, e):
    """dim of sum_i (c_i u + d_i w)^{r+1} * k[u,w]_{e-r-1} inside k[u,w]_e
    by Bareiss rank of the Fraction coefficient matrix."""
    if e < r + 1:
        return 0
    rows = e + 1
    cols = []
    for c1, c2 in pairs:
        base = [comb(r + 1, m) * c1 ** (r + 1 - m) * c2**m for m in range(r + 2)]
        for k in range(e - r):
            col = [Fraction(0)] * rows
            for m in range(r + 2):
                col[m + k] = base[m]
            cols.append(col)
    ent = tuple(cols[j][i] for i in range(rows) for j in range(len(cols)))
    return rank(RatMatrix(rows, len(cols), ent))


@pytest.mark.parametrize(
    "pairs",
    [
        ((0, 1), (1, 0)),
        ((0, 1), (1, -2), (1, 2), (-3, 5)),
        ((0, -1), (2, 3), (-1, 1), (4, -7)),
        ((3, -1),),
    ],
)
def test_two_var_dim_matches_fraction_rank(pairs):
    for r in range(0, 7):
        ranks = walk_ranks(pairs, r, 3 * r + 3)
        for e in range(0, 3 * r + 4):
            assert ranks[e] == fraction_two_var_dim(pairs, r, e)


def test_spline_dims_single_triangle(complex_triangle):
    for r in (0, 1, 2):
        for d in range(0, 7):
            assert spline_dim_formula(complex_triangle, r, d) == count_degree(d)
            assert spline_dim_oracle(complex_triangle, r, d) == count_degree(d)


def test_spline_dims_two_triangles(complex_two):
    # a spline on two triangles is f on one side plus l^{r+1} g on the other
    assert spline_dim_oracle(complex_two, 0, 1) == 4
    assert spline_dim_formula(complex_two, 0, 1) == 4
    for r in range(0, 5):
        for d in range(0, 13):
            expected = count_degree(d) + count_degree(d - r - 1)
            assert spline_dim_oracle(complex_two, r, d) == expected
            assert spline_dim_formula(complex_two, r, d) == expected


def test_spline_constant_splines_only(complex_one33):
    assert spline_dim_formula(complex_one33, 1, 0) == 1
    assert spline_dim_oracle(complex_one33, 1, 0) == 1


def test_spline_formula_equals_oracle_small(complex_star, complex_one33, complex_one34):
    for c in (complex_star, complex_one33, square_with_diagonals(), complex_one34):
        for r in (0, 1, 2):
            for d in range(0, 7):
                assert spline_dim_formula(c, r, d) == spline_dim_oracle(c, r, d)


# nonzero ordinates: a zero one puts a boundary vertex on the shared edge's
# line, which the interior statistics reject
_LEFT = hs.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
_MID = hs.fractions(min_value=-2, max_value=2, max_denominator=7).filter(lambda y: 0 < abs(y) < 2)


@settings(max_examples=50, deadline=None)
@given(
    lefts=hs.lists(_LEFT, min_size=1, max_size=5, unique=True),
    mids=hs.lists(_MID, max_size=4, unique=True),
    r=hs.integers(0, 2),
    top=hs.integers(0, 8),
)
def test_spline_formula_equals_oracle_on_random_fans(lefts, mids, r, top):
    c = one_edge_fan(lefts, mids)
    oracle = [spline_dim_oracle(c, r, d) for d in range(top + 1)]
    assert oracle == formula_dims(c, r, top)


@settings(max_examples=40, deadline=None)
@given(
    lefts=hs.lists(_LEFT, min_size=1, max_size=4, unique=True),
    mids=hs.lists(_MID, max_size=3, unique=True),
    r=hs.integers(0, 2),
)
def test_walks_equal_per_degree_kernels_on_random_fans(lefts, mids, r):
    _assert_walks_equal_per_degree_kernels(one_edge_fan(lefts, mids), r)


@seed(5281)
@settings(max_examples=30, deadline=None)
@given(
    lefts=hs.lists(_LEFT, min_size=1, max_size=4, unique=True),
    mids=hs.lists(_MID, max_size=3, unique=True),
    r=hs.integers(0, 6),
)
def test_quotient_walk_equals_the_whole_boundary_walk_on_random_fans(lefts, mids, r):
    c = one_edge_fan(lefts, mids)
    assert H0Table(c, r).upto(4 * r + 2) == reference_table(c, r)


@pytest.mark.parametrize("r, dims", [(1, (7, 6)), (2, (16, 15)), (3, (32, 31)), (4, (52, 51))])
def test_morgan_scott_pins_the_edge_orientation(r, dims):
    # Morgan-Scott (1975): at the special inner position dim C^r_{2r} gains
    # one spline over the generic one.  The inner triangle's three totally
    # interior edges form a cycle, and H0_{2r} = 1 there only with the
    # boundary map's signs right: +1 at each edge's higher-index vertex and
    # -1 at the other (with +1 at both ends H0_{2r} reads 0)
    special = morgan_scott(_MS_SPECIAL)
    generic = morgan_scott(_MS_GENERIC)
    top = 2 * r + 1
    for c, h0, dim in ((special, 1, dims[0]), (generic, 0, dims[1])):
        table = H0Table(c, r)
        assert table.upto(top)[2 * r] == h0
        oracle = spline_dim_oracles(c, r, top)
        assert oracle == formula_dims(c, r, top, table)
        assert oracle[2 * r] == dim


def schumaker_lower_bound(c, r, d):
    """Schumaker's (1979) lower bound on dim C^r_d of a triangulated disk,
    written out from the complex's counts and each interior vertex's
    number k_v of distinct edge slopes."""
    n_e, n_v = len(c.interior_edges), len(c.interior_vertices)
    total = comb(d + 2, 2) + n_e * comb(d - r + 1, 2) - n_v * (comb(d + 2, 2) - comb(r + 2, 2))
    for v in c.interior_vertices:
        k = len({c.slopes[e] for e in c.edges_at[v]})
        total += sum(max(0, r + j + 1 - j * k) for j in range(1, d - r + 1))
    return total


def test_formula_local_part_is_schumakers_lower_bound():
    # F5: for d >= r the formula's local part is Schumaker's lower bound
    # on every triangulated disk (T - E_I + V_I = 1)
    complexes = [
        ce1_complex(),
        one_edge_complex(3, 4),
        one_edge_complex(8, 8),
        star_complex(),
        square_with_diagonals(),
        morgan_scott(_MS_SPECIAL),
        morgan_scott(_MS_GENERIC),
    ]
    checks = 0
    for c in complexes:
        assert len(c.triangles) - len(c.interior_edges) + len(c.interior_vertices) == 1
        for r in range(5):
            local = spline_dim_local(c, r, 4 * r + 3)
            for d in range(r, 4 * r + 4):
                assert local[d] == schumaker_lower_bound(c, r, d), (c.vertices, r, d)
                checks += 1
    assert checks == 350
