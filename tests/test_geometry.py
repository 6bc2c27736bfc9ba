import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import splinereg
from splinereg.errors import (
    AlphaUndefined,
    DegenerateTriangle,
    ExtraInteriorVertex,
    NonzeroGenus,
    NotConnected,
    NotOneEdge,
    ParseError,
    SlopeClashAssumption,
)
from splinereg.geometry import (
    LinearForm,
    SimplicialComplex,
    ce1_complex,
    interior_stats,
    normalize_one_edge,
    one_edge_complex,
    one_edge_fan,
    parse_complex,
    single_triangle,
    square_with_diagonals,
    star_complex,
    two_triangles,
)


def test_parse_two_triangles():
    text = json.dumps(
        {
            "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
            "triangles": [[0, 1, 2], [1, 3, 2]],
        }
    )
    c = parse_complex(text)
    assert c.interior_vertices == ()
    assert len(c.interior_edges) == 1


def test_parse_accepts_fraction_strings():
    text = json.dumps(
        {
            "vertices": [["0", "0"], ["1/2", "0"], ["0", "3/7"]],
            "triangles": [[0, 1, 2]],
        }
    )
    c = parse_complex(text)
    assert c.vertices[1] == (Fraction(1, 2), Fraction(0))


def test_parse_roundtrip_ce1():
    c = ce1_complex()
    again = parse_complex(c.to_json())
    assert again.vertices == c.vertices
    assert again.triangles == c.triangles
    assert len(again.interior_vertices) == 3


def test_parse_rejects_duplicate_triangle():
    text = json.dumps(
        {
            "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
            "triangles": [[0, 1, 2], [2, 0, 1]],
        }
    )
    with pytest.raises(ParseError):
        parse_complex(text)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_complex("{not json")


def test_parse_rejects_unknown_keys():
    text = json.dumps({"vertices": [], "triangles": [], "extra": 1})
    with pytest.raises(ParseError):
        parse_complex(text)


def test_parse_rejects_float_coordinates():
    text = json.dumps(
        {"vertices": [["0.5", "0"], ["1", "0"], ["0", "1"]], "triangles": [[0, 1, 2]]}
    )
    with pytest.raises(ParseError):
        parse_complex(text)


def test_parse_rejects_boolean_vertex_indices():
    text = json.dumps(
        {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]], "triangles": [[False, True, 2]]}
    )
    with pytest.raises(ParseError, match="vertex indices"):
        parse_complex(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": [["0", "0"], ["1", "0"], ["0", "1"]], "vertices": [["0", "0"], '
        '["2", "0"], ["0", "2"]], "triangles": [[0, 1, 2]]}',
        '{"vertices": [["0", "0"], ["1", "0"], ["0", "1"]], "triangles": [[0, 1, 2]], '
        '"triangles": [[0, 1, 2]]}',
    ],
)
def test_parse_rejects_duplicate_keys(text):
    with pytest.raises(ParseError, match="duplicate key"):
        parse_complex(text)


def test_degenerate_triangle():
    with pytest.raises(DegenerateTriangle):
        SimplicialComplex([(0, 0), (1, 1), (2, 2)], [(0, 1, 2)])


def test_not_connected():
    with pytest.raises(NotConnected):
        SimplicialComplex(
            [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)],
            [(0, 1, 2), (3, 4, 5)],
        )


def test_nonzero_genus_annulus():
    outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
    inner = [(1, 1), (3, 1), (3, 3), (1, 3)]
    verts = outer + inner
    tris = [
        (0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5),
        (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7),
    ]
    with pytest.raises(NonzeroGenus):
        SimplicialComplex(verts, tris)


def test_edge_in_three_triangles_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
    tris = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(ParseError):
        SimplicialComplex(verts, tris)


def test_unused_vertex_rejected():
    with pytest.raises(ParseError):
        SimplicialComplex([(0, 0), (1, 0), (0, 1), (9, 9)], [(0, 1, 2)])


_COORD = hs.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(p=hs.tuples(_COORD, _COORD), q=hs.tuples(_COORD, _COORD))
def test_linear_form_vanishes_on_edge(p, q):
    # the chain oracle takes each edge's form to vanish at both of the
    # edge's vertices without re-checking it
    with pytest.raises(DegenerateTriangle):
        LinearForm.through(p, p)
    if p != q:
        f = LinearForm.through(p, q)
        assert f.evaluate(p) == 0
        assert f.evaluate(q) == 0


def test_interior_stats_one_edge(complex_one33):
    st = interior_stats(complex_one33, 2)
    assert len(st.totally_interior) == 1
    v1 = st.per_vertex[0]
    assert (v1.f1_00, v1.k_00, v1.k_0b, v1.k) == (1, 1, 2, 3)
    assert st.alpha(0) == (2 + 1) // 2
    assert st.interior_blocks == 1


def test_interior_stats_ce1(complex_ce1):
    st = interior_stats(complex_ce1, 3)
    v1, v0, v2 = st.per_vertex[0], st.per_vertex[1], st.per_vertex[2]
    assert v1.f1_00 == 1 and v2.f1_00 == 1 and v0.f1_00 == 2
    assert v1.f1_0b == 4 and v1.k_0b == 2 and v1.k == 3
    assert st.alpha(0) == st.alpha(2) == (3 + 1) // 2
    assert len(st.totally_interior) == 2


def test_interior_stats_star(complex_star):
    st = interior_stats(complex_star, 1)
    assert st.totally_interior == ()
    assert st.per_vertex[0].k == 3


def test_square_with_diagonals_k2():
    st = interior_stats(square_with_diagonals(), 1)
    assert st.per_vertex[0].k == 2


def test_alpha_undefined(complex_wheel):
    st = interior_stats(complex_wheel, 1)
    assert st.per_vertex[0].f1_0b == 0
    with pytest.raises(AlphaUndefined):
        st.alpha(0)


def test_slope_clash_detected():
    # the left vertex sits on the line of the totally interior edge
    verts = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0), (3, -2), (3, 2)]
    tris = [(0, 1, 2), (0, 2, 4), (0, 4, 3), (0, 3, 1), (1, 3, 5), (1, 5, 6), (1, 6, 2)]
    c = SimplicialComplex(verts, tris)
    with pytest.raises(SlopeClashAssumption):
        interior_stats(c, 1)


def test_normalize_one_edge_symmetric(complex_one33):
    norm = normalize_one_edge(complex_one33, 2)
    assert (norm.a, norm.b) == (3, 3)
    assert (norm.v1, norm.v2) == (0, 1)  # a tie keeps the edge's order


def test_normalize_34(complex_one34):
    norm = normalize_one_edge(complex_one34, 8)
    assert (norm.a, norm.b) == (3, 4)
    assert interior_stats(complex_one34, 8).per_vertex[norm.v1].k == 3


_ORDINATE = hs.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
_MID = hs.fractions(min_value=-2, max_value=2, max_denominator=7).filter(lambda y: 0 < abs(y) < 2)


@settings(max_examples=60, deadline=None)
@given(
    lefts=hs.lists(_ORDINATE, min_size=1, max_size=7, unique=True),
    mids=hs.lists(_MID, max_size=7, unique=True),
    zero_on=hs.sampled_from([None, None, "left", "right"]),
)
def test_normalize_reads_built_counts_on_random_fans(lefts, mids, zero_on):
    # a zero ordinate puts a boundary vertex on the shared edge's line
    if zero_on == "left":
        lefts = lefts[1:] + [0]
    elif zero_on == "right":
        mids = mids + [0]
    c = one_edge_fan(lefts, mids)
    if zero_on:
        with pytest.raises(SlopeClashAssumption):
            interior_stats(c, 2)
        return
    built = (len(lefts) + 2, len(mids) + 3)
    norm = normalize_one_edge(c, 2)
    assert (norm.a, norm.b) == tuple(sorted(built))
    assert (norm.v1, norm.v2) == ((0, 1) if built[0] <= built[1] else (1, 0))


def test_slope_recount_survives_python_O():
    # an edge_form that gives every edge its own line no longer merges the
    # opposite rays U and D at v1, so the recount finds 4 lines where k = 3
    script = """
from splinereg import geometry
from splinereg.errors import RouteDisagreement

assert not __debug__
edge_form = geometry.SimplicialComplex.edge_form

def broken(self, e):
    form = edge_form(self, e)
    return geometry.LinearForm(form.a, form.b, form.c + e[1])

geometry.SimplicialComplex.edge_form = broken
try:
    geometry.normalize_one_edge(geometry.one_edge_complex(3, 3), 2)
except RouteDisagreement as exc:
    print("raised:", exc)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(splinereg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised: vertex 0: 4 distinct edge lines, but k = 3"


def test_normalize_rejects_ce1(complex_ce1):
    with pytest.raises(NotOneEdge):
        normalize_one_edge(complex_ce1, 2)


def test_normalize_rejects_extra_interior_vertex(complex_one33):
    # subdivide a pocket hung off the boundary edge [U, L]: the new vertex is
    # interior but touches only boundary vertices
    verts = [tuple(p) for p in complex_one33.vertices]
    tris = list(complex_one33.triangles)
    u, l = 2, 4
    m = len(verts)
    verts.append((Fraction(-3), Fraction(3)))   # far corner
    verts.append((Fraction(-4, 3), Fraction(4, 3)))  # inside the pocket
    w = m + 1
    tris += [(u, verts.index((Fraction(-3), Fraction(3))), w)[:3]]
    tris[-1] = (u, m, w)
    tris += [(m, l, w), (l, u, w)]
    c = SimplicialComplex(verts, tris)
    assert len(c.interior_vertices) == 3
    with pytest.raises(ExtraInteriorVertex):
        normalize_one_edge(c, 2)


def test_builders_are_valid():
    for c in (
        single_triangle(),
        two_triangles(),
        star_complex(),
        square_with_diagonals(),
        ce1_complex(),
    ):
        v, e, f = len(c.vertices), len(c.edges), len(c.triangles)
        assert v - e + f == 1


@pytest.mark.parametrize("a,b", [(3, 3), (3, 4), (4, 4), (3, 8), (5, 6), (8, 8)])
def test_one_edge_builder_slope_counts(a, b):
    c = one_edge_complex(a, b)
    st = interior_stats(c, 1)
    ks = sorted(vs.k for vs in st.per_vertex.values())
    assert ks == sorted((a, b))
    assert len(st.totally_interior) == 1
    assert len(c.interior_vertices) == 2
