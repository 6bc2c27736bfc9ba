from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from splinereg import chains
from splinereg.chains import (
    _vertex_dim,
    boundary_rank,
    h0_hilbert_oracle,
    h0_regularity_oracle,
    ideal_complex,
    schumaker_local,
    spline_dim_formula,
    spline_dim_formulas,
    spline_dim_oracle,
)
from splinereg.errors import CapExceeded
from splinereg.geometry import SimplicialComplex, one_edge_fan, square_with_diagonals
from splinereg.monomials import count_degree, hilbert_function, monomials_of_degree
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
    data = ideal_complex(complex_one34, 2)
    for v in complex_one34.interior_vertices:
        for d in range(3, 7):
            assert _vertex_dim(data, d, v) == naive_vertex_dim(complex_one34, 2, d, v)


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

    def nonzero_everywhere(c, r, d, data):
        ranked.append(d)
        return 1

    monkeypatch.setattr(chains, "_h0_dim", nonzero_everywhere)
    with pytest.raises(CapExceeded, match="degree 10 = 4r"):
        h0_regularity_oracle(complex_one33, r)
    assert ranked == list(range(r + 1, 4 * r + 3))


def test_h0_table_ranks_each_degree_once(monkeypatch, complex_ce1):
    r = 2
    full = [0] * (r + 1) + [h0_hilbert_oracle(complex_ce1, r, d) for d in range(r + 1, 11)]
    dims = spline_dim_formulas(complex_ce1, r, 10)
    ranked = []
    h0_dim = chains._h0_dim

    def counted(c, r, d, data):
        ranked.append(d)
        return h0_dim(c, r, d, data)

    monkeypatch.setattr(chains, "_h0_dim", counted)
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
