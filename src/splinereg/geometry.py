"""Planar simplicial complexes with exact rational vertex coordinates:
strict file parsing, interior-edge statistics, and the identification of a
configuration with one totally interior edge [v1 v2] and its slope counts
(a, b) = (k(v1), k(v2)).

Orientation convention: triangles are stored counterclockwise with the
smallest vertex index first; edges are ordered by ascending vertex index.
Slopes are compared exactly on coprime integer direction vectors.

A complex is built in one integer frame: each coordinate is converted once,
to an integer over the common denominator L of all of them, so the point p
is held as the homogeneous integer triple (L p_x, L p_y, L), kept as
`frame` for the chain oracle to read.  Orientation,
the duplicate-vertex and embedding checks, and each interior edge's line
and slope are then integer work, with no Fraction arithmetic.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    DegenerateTriangle,
    ExtraInteriorVertex,
    NonzeroGenus,
    NotConnected,
    NotEmbedded,
    NotOneEdge,
    ParseError,
    RouteDisagreement,
    SlopeClashAssumption,
)

Point = tuple[Fraction, Fraction]
FramePoint = tuple[int, int, int]  # (L p_x, L p_y, L): p in the complex's integer frame

# ASCII only, used with fullmatch; the groups are p and q of "p/q"
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def _canonical_int_vector(vec):
    """Divide a vector of ints by the gcd of its entries and make its first
    nonzero entry positive."""
    g = gcd(*vec)
    for v in vec:
        if v:
            if v < 0:
                g = -g
            break
    return tuple(vec) if g in (0, 1) else tuple(v // g for v in vec)


def slope_key(p: FramePoint, q: FramePoint) -> tuple[int, int]:
    """The direction of the line through two points of one integer frame."""
    return _canonical_int_vector((q[0] - p[0], q[1] - p[1]))


class LinearForm(NamedTuple):
    """A x + B y + C z with coprime integer coefficients, first nonzero
    positive; vanishes on the cone over the line it came from."""

    a: int
    b: int
    c: int

    @classmethod
    def through(cls, p: FramePoint, q: FramePoint) -> "LinearForm":
        """The line through two homogeneous integer points: their cross
        product, (L(P_y - Q_y), L(Q_x - P_x), P_x Q_y - Q_x P_y) for
        p = (P_x, P_y, L) and q = (Q_x, Q_y, L)."""
        raw = (
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        )
        if raw == (0, 0, 0):
            raise DegenerateTriangle(f"points {p} and {q} coincide")
        return cls(*_canonical_int_vector(raw))

    def vector(self):
        return (self.a, self.b, self.c)


class SimplicialComplex:
    """Validated pure 2-dimensional, connected, genus-0 planar complex, from
    vertices that are pairs of ints (not bools) or Fractions and triangles
    that are triples of vertex indices."""

    def __init__(self, vertices, triangles):
        points = []
        for p in vertices:
            if not (isinstance(p, (tuple, list)) and len(p) == 2):
                raise ParseError(f"vertex {p!r} is not a coordinate pair")
            points.append(tuple(map(_coordinate, p)))
        self.vertices: tuple[Point, ...] = tuple(points)
        scale = lcm(*(x.denominator for p in points for x in p))
        frame: tuple[FramePoint, ...] = tuple(
            (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator), scale)
            for x, y in points
        )
        self.frame = frame
        if len(set(frame)) != len(frame):
            raise ParseError("duplicate vertex coordinates")
        n = len(frame)
        canon = []
        for tri in triangles:
            tri = tuple(tri)
            if len(tri) != 3 or len(set(tri)) != 3:
                raise ParseError(f"triangle {tri} does not have three distinct vertices")
            if any(not (0 <= i < n) for i in tri):
                raise ParseError(f"triangle {tri} references a missing vertex")
            area2 = _orientation(*(frame[i] for i in tri))
            if area2 == 0:
                raise DegenerateTriangle(f"triangle {tri} is collinear")
            if area2 < 0:
                tri = (tri[0], tri[2], tri[1])
            k = tri.index(min(tri))
            canon.append(tri[k:] + tri[:k])
        if len({frozenset(t) for t in canon}) != len(canon):
            raise ParseError("triangle listed twice")
        self.triangles: tuple[tuple[int, int, int], ...] = tuple(canon)

        used = {i for t in canon for i in t}
        if used != set(range(n)):
            raise ParseError("vertex not contained in any triangle (complex not pure)")

        edge_tris: dict[tuple[int, int], list[int]] = {}
        for t_idx, tri in enumerate(canon):
            for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
                e = (min(u, v), max(u, v))
                edge_tris.setdefault(e, []).append(t_idx)
        for e, ts in edge_tris.items():
            if len(ts) > 2:
                raise ParseError(f"edge {e} lies in more than two triangles")
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_tris))
        self.edge_triangles: dict[tuple[int, int], tuple[int, ...]] = {
            e: tuple(ts) for e, ts in edge_tris.items()
        }

        if _component_count(range(n), self.edges) != 1:
            raise NotConnected("complex is not connected")

        if n - len(self.edges) + len(canon) != 1:
            raise NonzeroGenus(
                f"V - E + F = {n - len(self.edges) + len(canon)} (expected 1)"
            )

        self.boundary_edges = tuple(e for e in self.edges if len(edge_tris[e]) == 1)
        self.interior_edges = tuple(e for e in self.edges if len(edge_tris[e]) == 2)
        boundary_vs = {i for e in self.boundary_edges for i in e}
        self.interior_vertices = tuple(i for i in range(n) if i not in boundary_vs)

        # an embedded complex has its two triangles at an interior edge on
        # either side of the edge's line; a folded one has both on one side
        for e in self.interior_edges:
            p, q = frame[e[0]], frame[e[1]]
            sides = [
                _orientation(p, q, frame[next(i for i in canon[t] if i not in e)])
                for t in edge_tris[e]
            ]
            if (sides[0] > 0) == (sides[1] > 0):
                raise NotEmbedded(f"both triangles at interior edge {e} lie on one side of it")

        # derived once, for every route to read: each interior edge's line
        # and slope, the edges at each interior vertex (all interior, in
        # ascending order) and the totally interior edges
        ends = {e: (frame[e[0]], frame[e[1]]) for e in self.interior_edges}
        self.forms = {e: LinearForm.through(p, q) for e, (p, q) in ends.items()}
        self.slopes = {e: slope_key(p, q) for e, (p, q) in ends.items()}
        self.edges_at = {v: tuple(e for e in ends if v in e) for v in self.interior_vertices}
        self.totally_interior = tuple(e for e in ends if e[0] in self.edges_at and e[1] in self.edges_at)

    def to_json(self) -> str:
        data = {
            "vertices": [[_fmt(x), _fmt(y)] for x, y in self.vertices],
            "triangles": [list(t) for t in self.triangles],
        }
        return json.dumps(data, sort_keys=True)


def _coordinate(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ParseError(f"coordinate {x!r} is not an int or a Fraction")


def _orientation(a: FramePoint, b: FramePoint, c: FramePoint) -> int:
    """L^2 times twice the signed area of the triangle abc: positive when
    it is counterclockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _component_count(nodes, edges) -> int:
    """Connected components of the graph on `nodes` with the given edges."""
    parent = {v: v for v in nodes}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in nodes})


def _fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse_complex(text: str) -> SimplicialComplex:
    """Strict JSON reader: exactly the keys `vertices` and `triangles`,
    coordinates as "p/q" or integer strings."""
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    if not isinstance(data, dict) or set(data) != {"vertices", "triangles"}:
        raise ParseError("top level must be an object with exactly 'vertices' and 'triangles'")
    verts = []
    if not isinstance(data["vertices"], list):
        raise ParseError("'vertices' must be a list")
    for entry in data["vertices"]:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ParseError(f"vertex {entry!r} is not a coordinate pair")
        pair = []
        for coord in entry:
            m = _RATIONAL_RE.fullmatch(coord) if isinstance(coord, str) else None
            if m is None:
                raise ParseError(f"coordinate {coord!r} is not a 'p/q' or integer string")
            try:
                pair.append(Fraction(int(m[1]), int(m[2] or 1)))
            except ValueError as exc:  # over the integer digit limit
                raise ParseError(f"coordinate is not readable: {exc}") from None
        verts.append(tuple(pair))
    if not isinstance(data["triangles"], list):
        raise ParseError("'triangles' must be a list")
    tris = []
    for entry in data["triangles"]:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and all(isinstance(i, int) and not isinstance(i, bool) for i in entry)
        ):
            raise ParseError(f"triangle {entry!r} is not a triple of vertex indices")
        tris.append(tuple(entry))
    return SimplicialComplex(verts, tris)


# ---------------------------------------------------------------------------
# interior statistics


class VertexStats(NamedTuple):
    f1: int
    k: int
    f1_00: int
    k_00: int
    f1_0b: int
    k_0b: int
    alpha: int | None  # floor((r+1)/k_0b) when k_0b > 0


class InteriorData(NamedTuple):
    r: int
    per_vertex: dict[int, VertexStats]
    interior_edges: tuple[tuple[int, int], ...]
    totally_interior: tuple[tuple[int, int], ...]
    partially_interior: tuple[tuple[int, int], ...]
    interior_blocks: int

    def to_json_dict(self):
        return {
            "r": self.r,
            "interior_vertices": {
                str(v): {
                    "f1": st.f1,
                    "k": st.k,
                    "f1_00": st.f1_00,
                    "k_00": st.k_00,
                    "f1_0b": st.f1_0b,
                    "k_0b": st.k_0b,
                    "alpha": st.alpha,
                }
                for v, st in sorted(self.per_vertex.items())
            },
            "interior_edges": [list(e) for e in self.interior_edges],
            "totally_interior_edges": [list(e) for e in self.totally_interior],
            "partially_interior_edges": [list(e) for e in self.partially_interior],
            "interior_blocks": self.interior_blocks,
        }


def interior_stats(c: SimplicialComplex, r: int) -> InteriorData:
    """Classify interior edges, count slopes per interior vertex, and check
    the standing assumption that partially and totally interior edges never
    share a slope at a vertex."""
    totally = c.totally_interior
    partially = tuple(e for e in c.interior_edges if (e[0] in c.edges_at) != (e[1] in c.edges_at))
    per_vertex = {}
    for v, incident in c.edges_at.items():
        tot = [c.slopes[e] for e in incident if e in totally]
        part = [c.slopes[e] for e in incident if e not in totally]
        clash = set(tot) & set(part)
        if clash:
            raise SlopeClashAssumption(
                f"vertex {v}: slope {sorted(clash)[0]} is shared by a totally and a "
                "partially interior edge"
            )
        k_0b = len(set(part))
        per_vertex[v] = VertexStats(
            f1=len(incident),
            k=len(set(tot + part)),
            f1_00=len(tot),
            k_00=len(set(tot)),
            f1_0b=len(part),
            k_0b=k_0b,
            alpha=(r + 1) // k_0b if k_0b > 0 else None,
        )
    blocks = _component_count(c.interior_vertices, totally)
    return InteriorData(r, per_vertex, c.interior_edges, totally, partially, blocks)


# ---------------------------------------------------------------------------
# one-edge identification


class OneEdgeNormalization(NamedTuple):
    """The one totally interior edge [v1 v2], with k(v1) = a <= k(v2) = b."""

    v1: int
    v2: int
    a: int
    b: int


def normalize_one_edge(c: SimplicialComplex, r: int) -> OneEdgeNormalization:
    """Identify a complex with exactly one totally interior edge and no other
    interior vertex, ordering the edge's endpoints so that v1 has the smaller
    slope count.  Each count is read off `interior_stats(c, r)` and
    recounted as the number of distinct edge lines through the vertex."""
    stats = interior_stats(c, r)
    if len(stats.totally_interior) != 1:
        raise NotOneEdge(
            f"complex has {len(stats.totally_interior)} totally interior edges, need exactly 1"
        )
    eps = stats.totally_interior[0]
    if len(c.interior_vertices) != 2:
        raise ExtraInteriorVertex(
            f"interior vertices {c.interior_vertices} beyond the edge {eps}"
        )
    v1, v2 = sorted(eps, key=lambda v: stats.per_vertex[v].k)
    for v in (v1, v2):
        k = stats.per_vertex[v].k
        lines = len({c.forms[e] for e in c.edges_at[v]})
        if lines != k:
            raise RouteDisagreement(f"vertex {v}: {lines} distinct edge lines, but k = {k}")
    return OneEdgeNormalization(v1, v2, stats.per_vertex[v1].k, stats.per_vertex[v2].k)


# ---------------------------------------------------------------------------
# constructed complexes used by tests, scripts and the docs


def single_triangle() -> SimplicialComplex:
    return SimplicialComplex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


def two_triangles() -> SimplicialComplex:
    return SimplicialComplex(
        [(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 3, 2)]
    )


def star_complex(ring=None) -> SimplicialComplex:
    """Fan around one interior vertex at the origin; default ring has 6
    boundary vertices and 3 distinct slopes."""
    if ring is None:
        ring = [(1, 0), (1, 1), (-1, 1), (-1, 0), (-1, -1), (1, -1)]
    verts = [(0, 0)] + list(ring)
    tris = [(0, i, i % len(ring) + 1) for i in range(1, len(ring) + 1)]
    return SimplicialComplex(verts, tris)


def square_with_diagonals() -> SimplicialComplex:
    """Center vertex with only two distinct slopes (k = 2)."""
    verts = [(0, 0), (1, 1), (-1, 1), (-1, -1), (1, -1)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)]
    return SimplicialComplex(verts, tris)


_LEFT_MENU = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]
_RIGHT_MENU = [Fraction(-1), Fraction(1), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]


def one_edge_complex(a: int, b: int) -> SimplicialComplex:
    """Exactly one totally interior edge [v1 v2] with k(v1) = a, k(v2) = b.

    v1 = (0,0) and v2 = (1,0); the vertical pair U = (0,1), D = (0,-1) gives
    one slope at v1, the left fan on x = -2 adds a-2 more; on the right the
    extreme vertices (3,-2), (3,2) reuse the U/D slopes seen from v2 and the
    middle ones on x = 3 add b-3 new slopes.
    """
    if a < 3 or b < 3 or a > 8 or b > 8:
        raise ValueError("one_edge_complex supports 3 <= a, b <= 8")
    return one_edge_fan(_LEFT_MENU[: a - 2], _RIGHT_MENU[: b - 3])


def one_edge_fan(lefts, mids) -> SimplicialComplex:
    """The layout of `one_edge_complex` with the left fan's ordinates
    `lefts` (at least one) on x = -2 and the right fan's middle ordinates
    `mids` on x = 3, strictly between -2 and 2.  Distinct nonzero ordinates
    give k(v1) = len(lefts) + 2 and k(v2) = len(mids) + 3; a zero one
    repeats the slope of the shared edge."""
    lefts = sorted(lefts, reverse=True)  # ccw from U down to D
    right_s = [-2, *sorted(mids), 2]
    verts = [(0, 0), (1, 0), (0, 1), (0, -1)]
    left_idx = []
    for s in lefts:
        left_idx.append(len(verts))
        verts.append((-2, s))
    right_idx = []
    for s in right_s:
        right_idx.append(len(verts))
        verts.append((3, s))
    U, D = 2, 3
    tris = [(0, 1, U)]
    chain = [U] + left_idx + [D]
    for p, q in zip(chain, chain[1:]):
        tris.append((0, p, q))
    tris.append((0, D, 1))
    rchain = [D] + right_idx + [U]
    for p, q in zip(rchain, rchain[1:]):
        tris.append((1, p, q))
    return SimplicialComplex(verts, tris)


def ce1_complex() -> SimplicialComplex:
    """Two totally interior edges through a middle vertex; the combinatorics
    match the two-edge configuration discussed alongside the one-edge case:
    f1_00(v1) = f1_00(v2) = 1, f1_00(v0) = 2, and v1 has four partially
    interior edges carrying only two distinct slopes (so alpha(v1) =
    alpha(v2) = (r+1)//2).

    The two totally interior edges are not collinear and every partially
    interior slope appears as a pair of opposite rays, which keeps the
    homology module nonzero at small r.
    """
    verts = [
        (-2, 0),   # 0: v1
        (0, 0),    # 1: v0
        (2, 2),    # 2: v2
        (0, 1),    # 3: UM
        (0, -1),   # 4: DM
        (-4, 1),   # 5: L2
        (-4, -1),  # 6: L1
        (4, 3),    # 7: R1
        (4, 5),    # 8: R2
    ]
    tris = [
        (0, 1, 3), (0, 3, 5), (0, 5, 6), (0, 6, 4), (0, 4, 1),
        (1, 2, 3), (1, 4, 2),
        (2, 8, 3), (2, 7, 8), (2, 4, 7),
    ]
    return SimplicialComplex(verts, tris)
