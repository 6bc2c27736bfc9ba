from fractions import Fraction
from itertools import accumulate, count
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from splinereg import chains
from splinereg._echelon import SparseIntEchelon
from splinereg.chains import (
    _linear_poly,
    _poly_mul,
    _poly_pow,
    boundary_rank,
    h0_hilbert_oracle,
    h0_regularity_oracle,
    ideal_complex,
    schumaker_local,
    spline_dim_formula,
    spline_dim_formulas,
    spline_dim_oracle,
    spline_dim_oracles,
)
from splinereg.errors import CapExceeded
from splinereg.geometry import (
    SimplicialComplex,
    _canonical_int_vector,
    one_edge_fan,
    square_with_diagonals,
)
from splinereg.monomials import count_degree, hilbert_function, monomial_index, monomials_of_degree
from splinereg.ratlinalg import RatMatrix, rank
from splinereg.staircase import _power_echelons, build_q


# -- naive boundary matrix in the global monomial basis, used to certify the
#    adapted-coordinate rank computation


def _expand(form, power, mono):
    poly = {(0, 0, 0): Fraction(1)}
    lin = {
        key: Fraction(v)
        for key, v in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), form.vector())
        if v
    }
    for _ in range(power):
        out = {}
        for k1, v1 in poly.items():
            for k2, v2 in lin.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        poly = out
    return {tuple(a + b for a, b in zip(k, mono)): v for k, v in poly.items()}


def naive_boundary_rank(c, r, d):
    data = ideal_complex(c, r)
    vlist = list(c.interior_vertices)
    vpos = {v: i for i, v in enumerate(vlist)}
    monos = [tuple(m) for m in monomials_of_degree(d)]
    midx = {m: i for i, m in enumerate(monos)}
    nrows = len(vlist) * len(monos)
    cols = []
    for g in data.groups:
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


def _rational_image(c):
    """c under the affine map (x, y) -> ((x + y)/2 + 1/3, y/3 - 1/2), so its
    interior vertices are rational and the frame scale L exceeds 1."""
    verts = [((x + y) / 2 + Fraction(1, 3), y / 3 - Fraction(1, 2)) for x, y in c.vertices]
    return SimplicialComplex(verts, c.triangles)


def _assert_image_keeps_ranks(c, r, degrees):
    image = _rational_image(c)
    assert any(x.denominator > 1 for v in image.interior_vertices for x in image.vertices[v])
    for d in degrees:
        assert boundary_rank(image, r, d) == naive_boundary_rank(image, r, d)
        assert boundary_rank(image, r, d) == boundary_rank(c, r, d)
    assert h0_regularity_oracle(image, r) == h0_regularity_oracle(c, r)


# -- the per-degree kernels that the two walks replaced, kept verbatim as
#    their references: each builds its echelon from nothing for one degree


def per_degree_boundary_rank(c, r, d, data=None):
    """Exact rank of the degree-d boundary map of the ideal complex, each
    column scaled by L^{r+1} in the translated integer vertex frames."""
    if data is None:
        data = ideal_complex(c, r)
    if d < r + 1 or not c.interior_vertices:
        return 0
    vpos = {v: i for i, v in enumerate(c.interior_vertices)}
    ech = SparseIntEchelon()
    big = d - r - 1
    # block-major integer keys block * n + idx sort like (block, idx)
    n = count_degree(d)
    for group in data.groups:
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
            p_alpha = _poly_pow(_linear_poly((a, b, 0)), r + 1)
            u_home = _linear_poly((1, 0, fx - hx))
            w_home = _linear_poly((0, 1, fy - hy))
            fbase = vpos[group.far] * n
        for alpha in range(big + 1):
            if p_alpha is not None and alpha > 0:
                p_alpha = _poly_mul(p_alpha, u_home)
            q_ab = p_alpha
            for beta in range(big - alpha + 1):
                if q_ab is not None and beta > 0:
                    q_ab = _poly_mul(q_ab, w_home)
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
        power = _poly_pow(_linear_poly(c.edge_form(e).vector()), r + 1)
        j_base = g_base + j * n_g
        for (a, b, cz), v in power.items():
            for gm, (ex, ey) in enumerate(g_monos):
                rows[monomial_index(b + ey, cz + big - ex - ey)][j_base + gm] = -v
        for row in rows:
            ech.insert(row)
    n_unknowns = g_base + len(c.interior_edges) * n_g
    return n_unknowns - ech.rank


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
        return _rational_image(request.getfixturevalue("complex_one34"))
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
    tot = [g for g in data.groups if g.far is not None]
    assert len(tot) == 1 and tot[0].edge == (0, 1)
    # k(v) distinct forms per vertex after multiplicity collapse
    assert len(data.vertex_forms[0]) == 3
    star = ideal_complex(complex_star, 1)
    assert all(g.far is None for g in star.groups)
    assert len(star.vertex_forms[0]) == 3


def test_ideal_complex_ce1_structure(complex_ce1):
    data = ideal_complex(complex_ce1, 1)
    tot = [g for g in data.groups if g.far is not None]
    assert len(tot) == 2
    assert len({g.home for g in data.groups} | {g.far for g in tot}) == 3


def test_h0_zero_below_r_plus_one(complex_one34):
    for d in range(0, 9):
        assert h0_hilbert_oracle(complex_one34, 8, d) == 0


def test_h0_matches_shifted_hilbert_function(complex_one33, complex_one34):
    for c, (a, b), r in [(complex_one33, (3, 3), 1), (complex_one33, (3, 3), 2),
                         (complex_one34, (3, 4), 2)]:
        q = build_q(a, b, r)
        for d in range(r + 1, 4 * r + 3):
            assert h0_hilbert_oracle(c, r, d) == hilbert_function(q.in_q, d - r - 1)


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
            yield 1

    monkeypatch.setattr(chains, "_h0_walk", nonzero_everywhere)
    with pytest.raises(CapExceeded, match="degree 10 = 4r"):
        h0_regularity_oracle(complex_one33, r)
    assert ranked == list(range(r + 1, 4 * r + 3))


def test_h0_table_ranks_each_degree_once(monkeypatch, complex_ce1):
    r = 2
    full = [0] * (r + 1) + [h0_hilbert_oracle(complex_ce1, r, d) for d in range(r + 1, 11)]
    dims = spline_dim_formulas(complex_ce1, r, 10)
    ranked = []
    h0_walk = chains._h0_walk

    def counted(c, r):
        for d, dim in enumerate(h0_walk(c, r), r + 1):
            ranked.append(d)
            yield dim

    monkeypatch.setattr(chains, "_h0_walk", counted)
    table = chains.H0Table(complex_ce1, r)
    assert table.upto(4) == full[:5]
    assert table.upto(10) == full
    assert table.upto(5) == full[:6]
    assert h0_regularity_oracle(complex_ce1, r, table) == 5
    assert spline_dim_formulas(complex_ce1, r, 10, table) == dims
    assert ranked == [3, 4, 5, 6]


def test_schumaker_values():
    lr = schumaker_local(2, 1)
    assert (lr.alpha_star, lr.a1, lr.a2) == (2, 1, 0)
    lr = schumaker_local(3, 8)
    assert (lr.alpha_star, lr.a1, lr.a2) == (4, 1, 1)


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("r", range(0, 9))
def test_schumaker_identity(k, r):
    lr = schumaker_local(k, r)
    assert lr.a1 + lr.a2 == k - 1


def walk_ranks(pairs, r, top):
    """dim J'_e for e = 0..top, J' = <(n1 u + n2 w)^{r+1}> over the integer
    pairs, read off the walk of J' (zero below the generating degree)."""
    walk = _power_echelons(r, pairs)
    return [0] * (r + 1) + [next(walk).rank for _ in range(r + 1, top + 1)]


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("r", range(0, 9))
def test_schumaker_matches_rank_oracle(k, r):
    pairs = tuple((1, c) for c in range(k))
    lr = schumaker_local(k, r)
    ranks = walk_ranks(pairs, r, 4 * r)
    for d in range(0, 4 * r + 1):
        assert count_degree(d) - sum(ranks[: d + 1]) == lr.hilbert(d)


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
    assert oracle == spline_dim_formulas(c, r, top)


@settings(max_examples=40, deadline=None)
@given(
    lefts=hs.lists(_LEFT, min_size=1, max_size=4, unique=True),
    mids=hs.lists(_MID, max_size=3, unique=True),
    r=hs.integers(0, 2),
)
def test_walks_equal_per_degree_kernels_on_random_fans(lefts, mids, r):
    _assert_walks_equal_per_degree_kernels(one_edge_fan(lefts, mids), r)
