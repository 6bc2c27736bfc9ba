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
