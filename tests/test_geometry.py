import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import splinereg
from splinereg.chains import ideal_complex
from splinereg.errors import (
    DegenerateTriangle,
    ExtraInteriorVertex,
    HypothesisViolated,
    NonzeroGenus,
    NotConnected,
    NotEmbedded,
    NotOneEdge,
    ParseError,
    SlopeClashAssumption,
    SplineRegError,
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
    slope_key,
    square_with_diagonals,
    star_complex,
    two_triangles,
)
from splinereg.regularity import path_bounds

from conftest import (
    fraction_area2,
    fraction_form_through,
    fraction_origins,
    fraction_slope_key,
    morgan_scott,
    rational_image,
    wheel_in_wheel,
)

# F3: Morgan-Scott with its inner vertex p5 reflected to (-1/2, 5/4) folds
# the triangles at the interior edges (0, 5) and (2, 5) over their lines
_MS_FOLDED = ((1, Fraction(1, 4)), (1, Fraction(7, 4)), (Fraction(-1, 2), Fraction(5, 4)))
_MS_FOLDED_TRIANGLES = [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4), (2, 0, 5), (0, 3, 5), (3, 4, 5)]


def _folded_morgan_scott_json():
    verts = [(0, 0), (3, 0), (0, 3), *_MS_FOLDED]
    return json.dumps({
        "vertices": [[str(Fraction(x)), str(Fraction(y))] for x, y in verts],
        "triangles": [list(t) for t in _MS_FOLDED_TRIANGLES],
    })


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
    "vertex, message",
    [
        ((0.1, 0), "coordinate 0.1 is not an int or a Fraction"),
        ((True, 0), "coordinate True is not an int or a Fraction"),
        (("1e1", 0), "coordinate '1e1' is not an int or a Fraction"),
        ((0, 0, 1), "vertex (0, 0, 1) is not a coordinate pair"),
        ({0: 0, 1: 0}, "vertex {0: 0, 1: 0} is not a coordinate pair"),
    ],
    ids=["float", "bool", "string", "triple", "dict"],
)
def test_constructor_takes_int_and_fraction_pairs_only(vertex, message):
    # as a file does: a float would be stored as its binary value and
    # written back to JSON, a bool or a numeric string read as a number
    with pytest.raises(ParseError) as exc:
        SimplicialComplex([vertex, (5, 0), (0, 5)], [(0, 1, 2)])
    assert str(exc.value) == message


def test_one_edge_fan_hands_its_ordinates_to_the_check():
    with pytest.raises(ParseError, match="^coordinate 0.5 is not an int or a Fraction$"):
        one_edge_fan([0.5], [])
    ints = one_edge_fan([1, -1], [1])
    assert ints.to_json() == one_edge_fan([Fraction(1), Fraction(-1)], [Fraction(1)]).to_json()


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


_JSON = hs.recursive(
    hs.none() | hs.booleans() | hs.integers() | hs.floats() | hs.text(),
    lambda inner: hs.lists(inner, max_size=4) | hs.dictionaries(hs.text(), inner, max_size=4),
    max_leaves=20,
)
# the shape a complex file has, so that inputs also get past the top-level
# checks into the coordinate, triangle and complex checks
_COORD_TEXT = hs.from_regex(r"-?\d{1,3}(/[1-9]\d?)?", fullmatch=True) | _JSON
_SHAPED = hs.fixed_dictionaries(
    {
        "vertices": hs.lists(hs.lists(_COORD_TEXT, min_size=2, max_size=2) | _JSON, max_size=6),
        "triangles": hs.lists(
            hs.lists(hs.integers(-1, 6), min_size=3, max_size=3) | _JSON, max_size=6
        ),
    }
)


# coordinates that only a non-ASCII digit or a trailing newline would let
# through: Arabic-Indic two, "0\n" and 1/1 followed by Arabic-Indic two
_NOT_ASCII_COORDS = ["\u0662", "0\n", "1/1\u0662"]


def _triangle_with(coord):
    vertices = [[coord, "0"], ["5", "0"], ["0", "5"]]
    return json.dumps({"vertices": vertices, "triangles": [[0, 1, 2]]})


@settings(max_examples=200, deadline=None)
@given(hs.text() | _JSON.map(json.dumps) | _SHAPED.map(json.dumps))
@example("[" * 100_000 + "]" * 100_000)  # deeper than the JSON decoder recurses
@example("1" * 5000)  # an integer over the int() digit limit
@example(json.dumps({"vertices": [["1" * 5000, "0"]], "triangles": []}))
@example(_triangle_with(_NOT_ASCII_COORDS[0]))
@example(_triangle_with(_NOT_ASCII_COORDS[1]))
@example(_triangle_with(_NOT_ASCII_COORDS[2]))
@example(_folded_morgan_scott_json())
def test_parse_complex_returns_a_complex_or_a_typed_error(text):
    try:
        c = parse_complex(text)
    except SplineRegError:
        return
    assert isinstance(c, SimplicialComplex)


@pytest.mark.parametrize("coord", _NOT_ASCII_COORDS, ids=["arabic-indic", "newline", "tail"])
def test_coordinates_take_ascii_digits_only(coord):
    # each would read as a number (2, 0 and 1/12) and be written back as ASCII
    with pytest.raises(ParseError) as exc:
        parse_complex(_triangle_with(coord))
    assert str(exc.value) == f"coordinate {coord!r} is not a 'p/q' or integer string"


@pytest.mark.parametrize("coord", ["1" * 5000, "-" + "7" * 4400, "1/" + "3" * 5000])
def test_coordinates_over_the_digit_limit_keep_their_message(coord):
    # the coordinate is read from its p and q digits, not by Fraction(str),
    # and says what Fraction(str) would have said about it
    with pytest.raises(ValueError) as reference:
        Fraction(coord)
    with pytest.raises(ParseError) as exc:
        parse_complex(_triangle_with(coord))
    assert str(exc.value) == f"coordinate is not readable: {reference.value}"


def test_folded_morgan_scott_is_not_embedded():
    # F3: every triangle is nondegenerate and the counts are those of a
    # disk, but two triangles overlap; the file and the builder both raise
    message = "both triangles at interior edge (0, 5) lie on one side of it"
    with pytest.raises(NotEmbedded) as exc:
        parse_complex(_folded_morgan_scott_json())
    assert str(exc.value) == message
    with pytest.raises(NotEmbedded, match=r"\(0, 5\)"):
        morgan_scott(_MS_FOLDED)
    # the edges a Fraction reference of the check flags: those whose two
    # opposite vertices lie on one side of the edge's line
    verts = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)), (Fraction(0), Fraction(3))]
    verts += [(Fraction(x), Fraction(y)) for x, y in _MS_FOLDED]
    folded = set()
    for t in _MS_FOLDED_TRIANGLES:
        for u in _MS_FOLDED_TRIANGLES:
            e = tuple(sorted(set(t) & set(u)))
            if t < u and len(e) == 2:
                (w1,), (w2,) = set(t) - set(e), set(u) - set(e)
                p, q = verts[e[0]], verts[e[1]]
                if fraction_area2(p, q, verts[w1]) * fraction_area2(p, q, verts[w2]) > 0:
                    folded.add(e)
    assert folded == {(0, 5), (2, 5)}


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
    # edge's vertices without re-checking it.  The points enter as
    # homogeneous integer triples over their common denominator, as in a
    # complex's frame, and give the line and slope the Fraction reference
    # derives from the rational points
    scale = lcm(*(x.denominator for x in p + q))
    fp, fq = ((int(x * scale), int(y * scale), scale) for x, y in (p, q))
    with pytest.raises(DegenerateTriangle):
        LinearForm.through(fp, fp)
    if p != q:
        f = LinearForm.through(fp, fq)
        assert f.a * p[0] + f.b * p[1] + f.c == 0
        assert f.a * q[0] + f.b * q[1] + f.c == 0
        assert f == fraction_form_through(p, q)
        assert slope_key(fp, fq) == fraction_slope_key(p, q)


def test_interior_stats_one_edge(complex_one33):
    st = interior_stats(complex_one33, 2)
    assert len(st.totally_interior) == 1
    v1 = st.per_vertex[0]
    assert (v1.f1_00, v1.k_00, v1.k_0b, v1.k) == (1, 1, 2, 3)
    assert v1.alpha == (2 + 1) // 2
    assert st.interior_blocks == 1


def test_interior_stats_ce1(complex_ce1):
    st = interior_stats(complex_ce1, 3)
    v1, v0, v2 = st.per_vertex[0], st.per_vertex[1], st.per_vertex[2]
    assert v1.f1_00 == 1 and v2.f1_00 == 1 and v0.f1_00 == 2
    assert v1.f1_0b == 4 and v1.k_0b == 2 and v1.k == 3
    assert v1.alpha == v2.alpha == (3 + 1) // 2
    assert len(st.totally_interior) == 2


def test_interior_stats_star(complex_star):
    st = interior_stats(complex_star, 1)
    assert st.totally_interior == ()
    assert st.per_vertex[0].k == 3


def test_square_with_diagonals_k2():
    st = interior_stats(square_with_diagonals(), 1)
    assert st.per_vertex[0].k == 2


def test_alpha_undefined(complex_wheel):
    # alpha(v) = (r+1) // k_0b needs a partially interior edge at v; the
    # path bounds, its only reader, refuse such a vertex before reading it
    st = interior_stats(complex_wheel, 1)
    assert st.per_vertex[0].f1_0b == 0
    assert st.per_vertex[0].alpha is None
    with pytest.raises(HypothesisViolated):
        path_bounds(complex_wheel, 1)


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
    # stored lines that each get their own constant term no longer merge the
    # opposite rays U and D at v1, so the recount finds 4 lines where k = 3
    script = """
from splinereg import geometry
from splinereg.errors import RouteDisagreement

assert not __debug__
c = geometry.one_edge_complex(3, 3)
c.forms = {e: form._replace(c=form.c + e[1]) for e, form in c.forms.items()}
try:
    geometry.normalize_one_edge(c, 2)
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


def _bundled_complexes():
    """Every complex `scripts/make_complexes.py` writes, the wheel in a
    wheel and the Morgan-Scott complex."""
    yield from (single_triangle(), two_triangles(), star_complex(), square_with_diagonals())
    yield ce1_complex()
    yield from (one_edge_complex(a, b) for a in range(3, 9) for b in range(a, 9))
    yield wheel_in_wheel()
    yield morgan_scott(((1, Fraction(1, 4)), (1, Fraction(7, 4)), (Fraction(1, 2), Fraction(6, 5))))


def _assert_facts_match_a_fresh_derivation(c):
    # each fact the complex stores against its definition, derived here
    # from the rational vertices and the full edge list with Fraction
    # arithmetic, where the complex derives it in its integer frame
    interior = set(c.interior_vertices)
    pairs = {e: (c.vertices[e[0]], c.vertices[e[1]]) for e in c.interior_edges}
    assert c.forms == {e: fraction_form_through(p, q) for e, (p, q) in pairs.items()}
    assert c.slopes == {e: fraction_slope_key(p, q) for e, (p, q) in pairs.items()}
    assert all(fraction_area2(*(c.vertices[i] for i in t)) > 0 for t in c.triangles)
    assert c.edges_at == {v: tuple(e for e in c.edges if v in e) for v in c.interior_vertices}
    assert list(c.edges_at) == list(c.interior_vertices)
    assert c.totally_interior == tuple(e for e in c.edges if set(e) <= interior)
    # the chain oracle's vertex origins, read off the frame, in the order
    # the walk takes its positions
    origins = ideal_complex(c, 1).origins
    assert origins == fraction_origins(c)
    assert list(origins) == list(c.interior_vertices)


def test_stored_facts_match_a_fresh_derivation():
    for c in _bundled_complexes():
        _assert_facts_match_a_fresh_derivation(c)
        st = interior_stats(c, 1)
        assert st.totally_interior == c.totally_interior
        interior = set(c.interior_vertices)
        assert st.partially_interior == tuple(e for e in c.edges if len(set(e) & interior) == 1)


@settings(max_examples=40, deadline=None)
@given(
    lefts=hs.lists(_ORDINATE, min_size=1, max_size=6, unique=True),
    mids=hs.lists(_MID | hs.just(Fraction(0)), max_size=6, unique=True),
)
def test_stored_facts_match_a_fresh_derivation_on_random_fans(lefts, mids):
    c = one_edge_fan(lefts, mids)
    _assert_facts_match_a_fresh_derivation(c)
    assert c.totally_interior == ((0, 1),)


def _assert_frame_matches_the_fraction_reference(c):
    # the stored facts, on c and on a copy given every triangle clockwise,
    # which the frame's orientation test turns back
    _assert_facts_match_a_fresh_derivation(c)
    flipped = SimplicialComplex(c.vertices, [(t[0], t[2], t[1]) for t in c.triangles])
    assert flipped.triangles == c.triangles
    # a repeated vertex is a duplicate in the frame however it is written:
    # vertex 0 again, its coordinates' numerators and denominators tripled
    # in the file, where the Fraction reference sees equal points
    data = json.loads(c.to_json())
    x, y = c.vertices[0]
    data["vertices"].append([f"{3 * v.numerator}/{3 * v.denominator}" for v in (x, y)])
    with pytest.raises(ParseError, match="^duplicate vertex coordinates$"):
        parse_complex(json.dumps(data))
    # and a point next to it is not a duplicate: it fails later, as a vertex
    # that no triangle uses
    scale = lcm(*(v.denominator for p in c.vertices for v in p))
    data["vertices"][-1] = [str(x + Fraction(1, 7 * scale)), str(y)]
    with pytest.raises(ParseError, match="not contained in any triangle"):
        parse_complex(json.dumps(data))


def test_integer_frame_matches_the_fraction_reference_on_rational_images():
    for c in _bundled_complexes():
        image = rational_image(c)
        assert image.vertices != c.vertices
        _assert_frame_matches_the_fraction_reference(image)
        assert image.slopes.keys() == c.slopes.keys() and image.totally_interior == c.totally_interior


@settings(max_examples=40, deadline=None)
@given(
    lefts=hs.lists(_ORDINATE, min_size=1, max_size=6, unique=True),
    mids=hs.lists(_MID | hs.just(Fraction(0)), max_size=6, unique=True),
    image=hs.booleans(),
)
def test_integer_frame_matches_the_fraction_reference_on_random_fans(lefts, mids, image):
    c = one_edge_fan(lefts, mids)
    _assert_frame_matches_the_fraction_reference(rational_image(c) if image else c)


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
