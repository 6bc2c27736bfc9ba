import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colon_by_monomial

from splinereg.errors import NotArtinian, TrivialIdeal
from splinereg.monomials import (
    Monomial,
    MonomialIdeal,
    count_degree,
    hilbert_function,
    ideal_sum,
    max_socle_degree,
    minimalize,
    mono_lcm,
    monomials_of_degree,
)
from splinereg.staircase import build_q, staircase_closed_form

X = Monomial(1, 0, 0)
Y = Monomial(0, 1, 0)
Z = Monomial(0, 0, 1)


def M(ex=0, ey=0, ez=0):
    return Monomial(ex, ey, ez)


def test_lcm_example_x4_y3():
    assert mono_lcm(M(4), M(ey=3)) == M(4, 3, 0)


def test_lcm_idempotent():
    m = M(2, 1, 5)
    assert mono_lcm(m, m) == m


def test_lcm_example_mixed():
    assert mono_lcm(M(3, 0, 2), M(0, 1, 2)) == M(3, 1, 2)


def test_minimalize_drops_multiples():
    assert minimalize([M(2), M(3)]).gens == (M(2),)


def test_minimalize_empty():
    assert minimalize([]).gens == ()


def test_minimalize_worked_union():
    # In Q(v1) union In Q(v2) for (a, b, r) = (3, 4, 8)
    v1 = [M(4), M(3, 0, 2), M(2, 0, 4), M(1, 0, 6), M(0, 0, 8)]
    v2 = [M(ey=3), M(0, 2, 1), M(0, 1, 2), M(0, 0, 4)]
    got = minimalize(v1 + v2)
    assert got.gens == (M(4), M(3, 0, 2), M(0, 3, 0), M(0, 2, 1), M(0, 1, 2), M(0, 0, 4))


def test_ideal_sum_examples():
    assert ideal_sum(minimalize([X]), minimalize([])).gens == (X,)
    assert ideal_sum(minimalize([X]), minimalize([M(2)])).gens == (X,)


def test_colon_examples():
    zr = M(ez=9)
    assert colon_by_monomial(minimalize([zr]), zr).is_trivial
    assert colon_by_monomial(minimalize([X]), Z).gens == (X,)


def test_colon_staircase_example():
    # In(J'(v2)) for (b, r) = (4, 8) written in (y, z), colonned by z^9
    stair = staircase_closed_form(8, 3).ideal("y")
    got = colon_by_monomial(stair, M(ez=9))
    assert got.gens == (M(0, 3, 0), M(0, 2, 1), M(0, 1, 2), M(0, 0, 4))


def test_hilbert_basics():
    maximal = minimalize([X, Y, Z])
    assert hilbert_function(maximal, 0) == 1
    assert hilbert_function(maximal, 1) == 0
    assert hilbert_function(minimalize([]), 3) == 10


def test_hilbert_worked_example_degree5():
    # frozen from direct enumeration of the 21 degree-5 monomials against
    # the 6 generators; confirmed by the Betti alternating sum (21-25+7=3)
    in_q = build_q(3, 4, 8).in_q
    assert hilbert_function(in_q, 5) == 3
    survivors = [m for m in monomials_of_degree(5) if not in_q.contains(m)]
    assert survivors == [M(3, 2, 0), M(3, 1, 1), M(2, 0, 3)]


def test_max_socle_degree():
    assert max_socle_degree(minimalize([X, Y, Z])) == 0
    assert max_socle_degree(minimalize([M(2), Y, Z])) == 1
    assert max_socle_degree(build_q(3, 4, 8).in_q) == 5


def test_max_socle_errors():
    with pytest.raises(NotArtinian):
        max_socle_degree(minimalize([X, Y]))
    with pytest.raises(TrivialIdeal):
        max_socle_degree(minimalize([M()]))


@pytest.mark.parametrize("missing", [0, 1, 2])
def test_max_socle_needs_every_pure_power(missing):
    # the other two pure powers and a mixed corner are not enough
    pows = [M(*(3 if k == axis else 0 for k in range(3))) for axis in range(3) if axis != missing]
    with pytest.raises(NotArtinian):
        max_socle_degree(minimalize(pows + [M(1, 1, 1)]))


def test_render():
    assert M(4, 3, 1).render() == "x^4 y^3 z"
    assert M(ez=4).render() == "z^4"
    assert M().render() == "1"
    assert minimalize([X, M(ez=2)]).render() == "<x, z^2>"


def test_antichain_enforced():
    with pytest.raises(ValueError):
        MonomialIdeal((M(2), M(3)))


mono = st.builds(
    Monomial,
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 5),
)
mono_lists = st.lists(mono, min_size=0, max_size=6)


@settings(max_examples=60, deadline=None)
@given(mono_lists, st.randoms(use_true_random=False))
def test_minimalize_idempotent_and_order_free(ms, rng):
    ideal = minimalize(ms)
    assert minimalize(ideal.gens) == ideal
    shuffled = list(ms)
    rng.shuffle(shuffled)
    assert minimalize(shuffled) == ideal


@settings(max_examples=200, deadline=None)
@given(st.lists(mono, max_size=12))
def test_minimalize_keeps_a_descending_antichain_of_its_inputs(ms):
    # minimalize builds its MonomialIdeal without the construction checks,
    # so its output must pass them by itself
    ideal = minimalize(ms)
    gens = ideal.gens
    assert all(a > b for a, b in zip(gens, gens[1:]))
    assert not any(a.divides(b) or b.divides(a) for a, b in itertools.combinations(gens, 2))
    assert set(gens) <= set(ms)
    assert all(any(g.divides(m) for g in gens) for m in ms)
    assert MonomialIdeal(gens) == ideal


pure = st.builds(
    lambda axis, e: M(*(e if k == axis else 0 for k in range(3))),
    st.integers(0, 2),
    st.integers(1, 5),
)


@settings(max_examples=150, deadline=None)
@given(mono_lists, st.lists(pure, max_size=3))
def test_not_artinian_matches_per_axis_definition(ms, pows):
    # a proper ideal is Artinian iff some generator is x^e, some y^e and
    # some z^e with e > 0; max_socle_degree raises NotArtinian exactly when
    # it is not, and TrivialIdeal on the unit ideal
    ideal = minimalize(ms + pows)
    if ideal.is_trivial:
        with pytest.raises(TrivialIdeal):
            max_socle_degree(ideal)
        return
    artinian = all(
        any(g[axis] > 0 and g.count(0) == 2 for g in ideal.gens)
        for axis in range(3)
    )
    try:
        max_socle_degree(ideal)
    except NotArtinian:
        assert not artinian
    else:
        assert artinian


@settings(max_examples=40, deadline=None)
@given(mono_lists, st.integers(0, 12))
def test_hilbert_complement(ms, d):
    ideal = minimalize(ms)
    inside = sum(1 for m in monomials_of_degree(d) if ideal.contains(m))
    assert hilbert_function(ideal, d) + inside == count_degree(d)


@settings(max_examples=40, deadline=None)
@given(mono_lists, mono, st.integers(0, 8))
def test_colon_membership(ms, m, d):
    ideal = minimalize(ms)
    quot = colon_by_monomial(ideal, m)
    for mu in monomials_of_degree(d):
        product = Monomial(mu.ex + m.ex, mu.ey + m.ey, mu.ez + m.ez)
        assert quot.contains(mu) == ideal.contains(product)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), mono_lists)
def test_artinian_socle_vanishing(px, py, pz, extra):
    ideal = minimalize([M(px), M(0, py), M(0, 0, pz)] + extra)
    if ideal.is_trivial:
        return
    top = max_socle_degree(ideal)
    assert hilbert_function(ideal, top) != 0
    bound = px + py + pz
    for d in range(top + 1, bound + 2):
        assert hilbert_function(ideal, d) == 0


def socle_by_enumeration(ideal):
    """Reference socle degree: the top nonzero degree of S/I, scanning every
    degree up to the sum of the pure-power exponents."""
    bound = sum(max(g) for g in ideal.gens if g.count(0) == 2)
    return max(d for d in range(bound + 1) if hilbert_function(ideal, d))


def test_socle_matches_enumeration_on_capped_grid():
    cells = 0
    for a in range(3, 17):
        for b in range(a, 17):
            for r in range(25):
                q = build_q(a, b, r)
                if q.is_trivial:
                    continue
                assert max_socle_degree(q.in_q) == socle_by_enumeration(q.in_q), (a, b, r)
                cells += 1
    assert cells == 1610


# generators with both an x and a y factor, so cells off the two axes carry
# their own z-height and the running minimum must combine both directions
mixed = st.builds(Monomial, st.integers(1, 6), st.integers(1, 6), st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(1, 7),
    st.lists(mixed, min_size=1, max_size=6),
    mono_lists,
)
def test_socle_matches_enumeration_on_artinian_ideals(px, py, pz, corners, extra):
    ideal = minimalize([M(px), M(0, py), M(0, 0, pz)] + corners + extra)
    if ideal.is_trivial:
        return
    assert max_socle_degree(ideal) == socle_by_enumeration(ideal)
