from fractions import Fraction
from math import gcd, lcm

import pytest

from splinereg.geometry import (
    SimplicialComplex,
    ce1_complex,
    one_edge_complex,
    single_triangle,
    star_complex,
    two_triangles,
)
from splinereg.monomials import Monomial, count_degree, hilbert_function, minimalize
from splinereg.staircase import ClosedFormTable, build_q


def wheel_in_wheel():
    """Interior vertex all of whose edges are totally interior."""
    verts = [(0, 0), (1, 0), (0, 1), (-1, -1), (4, 1), (-1, 4), (-4, -5)]
    tris = [
        (0, 1, 2), (0, 2, 3), (0, 3, 1),
        (1, 4, 5), (1, 5, 2), (2, 5, 6), (2, 6, 3), (3, 6, 4), (3, 4, 1),
    ]
    return SimplicialComplex(verts, tris)


@pytest.fixture()
def complex_wheel():
    return wheel_in_wheel()


@pytest.fixture(scope="session")
def complex_one33():
    return one_edge_complex(3, 3)


@pytest.fixture(scope="session")
def complex_one34():
    return one_edge_complex(3, 4)


@pytest.fixture(scope="session")
def complex_ce1():
    return ce1_complex()


@pytest.fixture(scope="session")
def complex_triangle():
    return single_triangle()


@pytest.fixture(scope="session")
def complex_two():
    return two_triangles()


@pytest.fixture(scope="session")
def complex_star():
    return star_complex()


# reference checks that several test modules share; production code has no
# use for them


def capped_grid_in_q():
    """In Q of every cell of the capped sweep (a <= b in 3..16, r in
    1..24), as a set: 253 ideals, the unit ideal among them."""
    table = ClosedFormTable()
    return {
        build_q(a, b, r, table).in_q
        for a in range(3, 17) for b in range(a, 17) for r in range(1, 25)
    }


def colon_by_monomial(ideal, m):
    """The monomial colon ideal : m, generated by each g / gcd(g, m)."""
    return minimalize(Monomial(*(max(e - f, 0) for e, f in zip(g, m))) for g in ideal.gens)


def euler_hilbert_check(ideal, table, d):
    """Whether C(d+2,2) - sum beta_0 C(d-|b|+2,2) + sum beta_1 ... - sum
    beta_2 ... reproduces dim (S/I)_d."""
    total = count_degree(d)
    for i, sign in ((0, -1), (1, 1), (2, -1)):
        for b in table.multidegrees(i):
            total += sign * count_degree(d - b.degree)
    return total == hilbert_function(ideal, d)


def poly_mul(p, q):
    """The product of two polynomials held as {exponent triple: coefficient},
    term by term."""
    out = {}
    for m1, v1 in p.items():
        for m2, v2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + v1 * v2
    return {m: v for m, v in out.items() if v}


def poly_pow(p, n):
    """p to the n-th power, one factor at a time."""
    out = {(0, 0, 0): 1}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def linear_poly(a, b, c):
    """a x + b y + c z."""
    return {m: v for m, v in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (a, b, c)) if v}


def morgan_scott(inner):
    """The Morgan-Scott complex: the outer triangle (0,0), (3,0), (0,3)
    around the inner triangle `inner` = (p3, p4, p5), split into seven
    counterclockwise triangles (Morgan-Scott 1975)."""
    verts = [(0, 0), (3, 0), (0, 3), *inner]
    tris = [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4), (2, 0, 5), (0, 3, 5), (3, 4, 5)]
    return SimplicialComplex(verts, tris)


def rational_image(c):
    """c under the affine map (x, y) -> ((x + y)/2 + 1/3, y/3 - 1/2), so its
    interior vertices are rational and the frame scale L exceeds 1.  The
    map keeps orientation (its determinant is 1/6), so it keeps c
    embedded."""
    verts = [((x + y) / 2 + Fraction(1, 3), y / 3 - Fraction(1, 2)) for x, y in c.vertices]
    return SimplicialComplex(verts, c.triangles)


# the Fraction references for the integer frame a complex is built in: the
# same facts derived from the rational vertices with Fraction arithmetic


def fraction_canonical_vector(vec):
    """Scale a vector of ints and Fractions to coprime integers, first
    nonzero positive."""
    den = lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


def fraction_form_through(p, q):
    """The coefficients of the line through the rational points p != q."""
    return fraction_canonical_vector((p[1] - q[1], q[0] - p[0], p[0] * q[1] - q[0] * p[1]))


def fraction_slope_key(p, q):
    """The coprime direction of the line through the rational points p, q."""
    return fraction_canonical_vector((q[0] - p[0], q[1] - p[1]))


def fraction_area2(a, b, c):
    """Twice the signed area of the triangle abc of rational points."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def fraction_origins(c):
    """(L p_x, L p_y) of each interior vertex p, in the order of
    `interior_vertices`, with L the lcm of the interior vertices'
    denominators only."""
    scale = lcm(*(x.denominator for v in c.interior_vertices for x in c.vertices[v]))
    return {v: tuple(int(x * scale) for x in c.vertices[v]) for v in c.interior_vertices}
