import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import capped_grid_in_q, euler_hilbert_check

from splinereg import syzygies
from splinereg.errors import (
    NonMonotone,
    NotArtinian,
    SplineRegError,
    StaircaseInvariant,
    TrivialIdeal,
    TwoChainRequired,
)
from splinereg.monomials import (
    Monomial,
    MonomialIdeal,
    hilbert_function,
    max_socle_degree,
    minimalize,
    mono_lcm,
)
from splinereg.ratlinalg import RatMatrix, rank
from splinereg.regularity import regularity_one_edge
from splinereg.staircase import build_q
from splinereg.syzygies import (
    BuchGraph,
    _edges,
    _region_faces,
    _koszul_homology,
    _lcm_closure,
    betti_oracle,
    bottom_face,
    buchberger_graph,
    regularity_from_bottom_face,
    syz2_closed_form,
    syz3_closed_form,
)


def M(ex=0, ey=0, ez=0):
    return Monomial(ex, ey, ez)


def renders(ms):
    return [m.render() for m in ms]


KOSZUL = minimalize([M(1), M(0, 1), M(0, 0, 1)])


def test_graph_koszul():
    g = buchberger_graph(KOSZUL)
    assert sorted(renders(g.edge_lcms())) == ["x y", "x z", "y z"]
    assert renders(g.face_lcms()) == ["x y z"]


def test_graph_two_generators():
    g = buchberger_graph(minimalize([M(1), M(0, 1)]))
    assert renders(g.edge_lcms()) == ["x y"]
    assert g.faces == ()


def test_graph_worked_example():
    g = buchberger_graph(build_q(3, 4, 8).in_q)
    assert sorted(renders(g.edge_lcms())) == sorted(
        ["x^4 z^2", "x^3 z^4", "y^3 z", "y^2 z^2", "y z^4",
         "x^4 y^3", "x^4 y^2 z", "x^3 y z^2"]
    )
    assert sorted(renders(g.face_lcms())) == sorted(
        ["x^4 y^3 z", "x^4 y^2 z^2", "x^3 y z^4"]
    )


def test_graph_planarity_euler():
    for a, b, r in [(3, 3, 2), (3, 4, 8), (4, 5, 9), (3, 8, 12), (5, 5, 11)]:
        q = build_q(a, b, r)
        g = buchberger_graph(q.in_q)
        assert len(g.nodes) - len(g.edges) + len(g.faces) == 1


def test_graph_rejects_mixed_generators():
    with pytest.raises(TwoChainRequired):
        buchberger_graph(minimalize([M(1, 1, 0), M(0, 0, 1)]))


def literal_edges(gens):
    """Reference edges, the pair-by-every-third-generator rule read
    literally: (i, j, lcm) whenever no third generator divides the lcm."""
    edges = []
    for i, j in itertools.combinations(range(len(gens)), 2):
        m = mono_lcm(gens[i], gens[j])
        if not any(k != i and k != j and gens[k].divides(m) for k in range(len(gens))):
            edges.append((i, j, m))
    return edges


def literal_faces(gens, edges):
    """Reference faces: chain positions found by hashing the generators,
    each face's lcm folded through `mono_lcm`."""
    if any(g.ex > 0 and g.ey > 0 for g in gens):
        raise TwoChainRequired(
            "face extraction needs generators supported on an x-chain and a y/z-chain"
        )
    order = {g: idx for idx, g in enumerate(gens)}
    xs = sorted((g for g in gens if g.ex > 0), key=lambda g: g.ex)
    ys = sorted((g for g in gens if g.ex == 0), key=lambda g: g.ey)
    pos_x = {order[g]: p for p, g in enumerate(xs)}
    pos_y = {order[g]: p for p, g in enumerate(ys)}
    crossing = []
    for i, j, _ in edges:
        if i in pos_x and j in pos_y:
            crossing.append((pos_x[i], pos_y[j]))
        elif j in pos_x and i in pos_y:
            crossing.append((pos_x[j], pos_y[i]))
    crossing.sort()
    for (p1, q1), (p2, q2) in zip(crossing, crossing[1:]):
        if p2 < p1 or q2 < q1:
            raise NonMonotone("crossing edges of the Buchberger graph are not a ladder")
    faces = []
    for (p1, q1), (p2, q2) in zip(crossing, crossing[1:]):
        region = xs[p1 : p2 + 1] + ys[q1 : q2 + 1]
        m = region[0]
        for g in region[1:]:
            m = mono_lcm(m, g)
        faces.append((tuple(sorted(order[g] for g in region)), m))
    return faces


def outcome(f, *args):
    """f(*args), or the type of the SplineRegError it raises."""
    try:
        return f(*args)
    except SplineRegError as exc:
        return type(exc)


def literal_graph(ideal):
    gens = ideal.gens
    if not gens:
        return BuchGraph((), (), ())
    edges = literal_edges(gens)
    return BuchGraph(gens, tuple(edges), tuple(literal_faces(gens, edges)))


def pure_power(axis, e):
    return Monomial(*(e if k == axis else 0 for k in range(3)))


small = st.integers(0, 4)
any_mono = st.builds(Monomial, small, small, small)
pure_powers = st.lists(st.builds(pure_power, st.integers(0, 2), st.integers(1, 6)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_mono, max_size=12), pure_powers)
@example([M(2, 1, 0), M(2, 0, 1), M(1, 1, 1), M(0, 2, 2)], [])   # a tie in ex at the window start
@example([M(3, 0, 2), M(1, 2, 0), M(1, 0, 3), M(0, 0, 4)], [M(0, 5)])
def test_edges_match_literal_rule(ms, pows):
    # mixed support, ties in the x-exponent and pure powers: the windowed
    # scan must keep the same edges, in the same order, with the same lcms
    gens = minimalize(ms + pows).gens
    assert _edges(gens) == literal_edges(gens)


x_chain = st.builds(Monomial, st.integers(1, 6), st.just(0), st.integers(0, 6))
yz_chain = st.builds(Monomial, st.just(0), st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=300, deadline=None)
@given(st.lists(x_chain, max_size=6), st.lists(yz_chain, max_size=6), st.lists(any_mono, max_size=1))
def test_graph_matches_literal_rule_on_two_chain_ideals(xs, yzs, stray):
    # faces too, or the same error when the stray generator has mixed
    # support (TwoChainRequired)
    ideal = minimalize(xs + yzs + stray)
    assert outcome(buchberger_graph, ideal) == outcome(literal_graph, ideal)


def test_region_faces_reject_crossing_edges_that_are_no_ladder():
    # x-chain x^2, x z and y/z-chain y^2, y z, z^2 with the crossing edges
    # x^2 -- y z and x z -- y^2: the x-position rises while the y-position falls
    gens = minimalize([M(2), M(1, 0, 1), M(0, 2), M(0, 1, 1), M(0, 0, 2)]).gens
    edges = [(0, 3, mono_lcm(gens[0], gens[3])), (1, 2, mono_lcm(gens[1], gens[2]))]
    with pytest.raises(NonMonotone):
        literal_faces(gens, edges)
    with pytest.raises(NonMonotone):
        _region_faces(gens, edges)


def test_graph_matches_literal_rule_on_capped_grid():
    # every In Q of the capped sweep, the unit ideal included (In Q is all
    # the graph reads): edges and faces, indices and lcms
    ideals = capped_grid_in_q()
    assert len(ideals) == 253
    for ideal in ideals:
        assert buchberger_graph(ideal) == literal_graph(ideal)


def test_syz2_worked_example():
    got = syz2_closed_form(build_q(3, 4, 8))
    assert got == (
        M(4, 3, 0), M(4, 2, 1), M(4, 0, 2), M(3, 1, 2), M(3, 0, 4),
        M(0, 3, 1), M(0, 2, 2), M(0, 1, 4),
    )


def test_syz2_33_r2():
    assert set(syz2_closed_form(build_q(3, 3, 2))) == {M(1, 1, 0), M(1, 0, 2), M(0, 1, 2)}


def test_syz2_trivial_raises():
    with pytest.raises(TrivialIdeal):
        syz2_closed_form(build_q(5, 5, 0))


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(3, 8) for b in range(a, 8)]
)
def test_syz2_matches_graph_edges(a, b):
    for r in range(1, 11, 2):
        q = build_q(a, b, r)
        if q.is_trivial:
            continue
        g = buchberger_graph(q.in_q)
        assert set(syz2_closed_form(q)) == set(g.edge_lcms())


def test_syz3_worked_example():
    g = buchberger_graph(build_q(3, 4, 8).in_q)
    assert renders(syz3_closed_form(g)) == ["x^4 y^3 z", "x^4 y^2 z^2", "x^3 y z^4"]


def test_syz3_koszul_single_face():
    assert renders(syz3_closed_form(buchberger_graph(KOSZUL))) == ["x y z"]


def test_syz3_33_r2():
    g = buchberger_graph(build_q(3, 3, 2).in_q)
    assert renders(syz3_closed_form(g)) == ["x y z^2"]


def test_syz3_rejects_bad_orders():
    shared_z = BuchGraph((), (), (((0, 1, 2), M(2, 1, 1)), ((0, 1, 3), M(1, 2, 1))))
    with pytest.raises(NonMonotone):
        syz3_closed_form(shared_z)
    degree_up = BuchGraph((), (), (((0, 1, 2), M(1, 1, 1)), ((0, 1, 3), M(3, 3, 2))))
    with pytest.raises(NonMonotone):
        syz3_closed_form(degree_up)


def test_betti_koszul():
    t = betti_oracle(KOSZUL)
    assert renders(t.multidegrees(0)) == ["x", "y", "z"]
    assert sorted(renders(t.multidegrees(1))) == ["x y", "x z", "y z"]
    assert renders(t.multidegrees(2)) == ["x y z"]


def test_betti_principal():
    t = betti_oracle(minimalize([M(2)]))
    assert renders(t.multidegrees(0)) == ["x^2"]
    assert t.multidegrees(1) == () and t.multidegrees(2) == ()


def test_betti_worked_example():
    q = build_q(3, 4, 8)
    t = betti_oracle(q.in_q)
    assert t.multidegrees(0) == q.in_q.gens
    assert t.multidegrees(1) == syz2_closed_form(q)
    assert set(t.multidegrees(2)) == set(syz3_closed_form(buchberger_graph(q.in_q)))
    assert all(mult == 1 for _, _, mult in t.entries)


def test_euler_hilbert_consistency():
    for ideal in (KOSZUL, build_q(3, 4, 8).in_q, build_q(4, 4, 6).in_q,
                  minimalize([M(2), M(0, 3), M(1, 1, 1)])):
        t = betti_oracle(ideal)
        for d in range(0, 12):
            assert euler_hilbert_check(ideal, t, d)


def test_regularity_from_bottom_face_values():
    # the class's own values: a cell adds its r+1 in `regularity_one_edge`
    assert regularity_from_bottom_face(build_q(3, 4, 8)) == (5, 5)
    assert regularity_from_bottom_face(build_q(3, 3, 2)) == (1, 1)
    assert regularity_from_bottom_face(build_q(3, 3, 3)) == (2, 2)


def test_bottom_face_witness():
    q = build_q(3, 4, 8)
    assert bottom_face(q) == M(4, 3, 1)
    assert bottom_face(q).ez in (1, 2)


def test_regularity_trivial_raises():
    with pytest.raises(TrivialIdeal):
        regularity_from_bottom_face(build_q(5, 5, 0))


@pytest.mark.parametrize("missing", [0, 1, 2])
def test_regularity_non_artinian_raises_before_bottom_face(monkeypatch, missing):
    # the socle route's own Artinian check is the only one on this path, and
    # it runs before the bottom face is read
    q = build_q(3, 4, 8)
    gens = [g for g in q.in_q.gens if g.count(0) != 2 or g[missing] == 0]
    broken = q._replace(in_q=minimalize(gens))

    def no_face(_):
        raise StaircaseInvariant("bottom face read before the Artinian check")

    monkeypatch.setattr(syzygies, "bottom_face", no_face)
    with pytest.raises(NotArtinian):
        regularity_from_bottom_face(broken)


def test_socle_shift_identity_on_sample():
    for a, b, r in [(3, 3, 5), (3, 6, 9), (4, 7, 12), (6, 6, 10)]:
        q = build_q(a, b, r)
        reg, socle = regularity_from_bottom_face(q)
        assert reg == socle == max_socle_degree(q.in_q)
        assert regularity_one_edge(a, b, r).exact == reg + r + 1
        # the socle degree really is the top nonzero degree
        assert hilbert_function(q.in_q, reg) != 0
        assert hilbert_function(q.in_q, reg + 1) == 0


def fixpoint_lcm_closure(gens):
    """Close the generators under pairwise lcm until nothing new appears."""
    seen = set(gens)
    frontier = set(gens)
    while frontier:
        new = {mono_lcm(a, b) for a in frontier for b in seen} - seen
        seen |= new
        frontier = new
    return seen


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(3, 9) for b in range(a, 9)]
)
def test_lcm_closure_matches_fixpoint(a, b):
    for r in range(0, 13):
        q = build_q(a, b, r)
        if q.is_trivial:
            continue
        assert _lcm_closure(q.in_q.gens) == fixpoint_lcm_closure(q.in_q.gens)


def test_lcm_closure_matches_fixpoint_33_r24():
    gens = build_q(3, 3, 24).in_q.gens
    got = _lcm_closure(gens)
    assert len(got) == 975
    assert got == fixpoint_lcm_closure(gens)


def test_lcm_closure_lies_in_the_ideal_on_capped_grid():
    # `betti_oracle` tests no lattice point for membership: every lcm of
    # generators is a multiple of one, so K^b always holds the empty face
    ideals = capped_grid_in_q()
    ideals = [i for i in ideals if not i.is_trivial]
    assert len(ideals) == 252
    points = [(ideal, b) for ideal in ideals for b in _lcm_closure(ideal.gens)]
    assert len(points) == 21748
    assert all(ideal.contains(b) for ideal, b in points)


def test_betti_oracle_budget_33_r24():
    q = build_q(3, 3, 24)
    start = time.perf_counter()
    t = betti_oracle(q.in_q)
    elapsed = time.perf_counter() - start
    assert t.multidegrees(1) == syz2_closed_form(q)
    assert elapsed < 0.05, f"betti_oracle at (3,3,24) took {elapsed:.3f}s"


def test_betti_oracle_keeps_monomial_multidegrees_33_r24():
    # the lattice points are plain tuples, but every multidegree the table
    # keeps is a Monomial, so the reports can render it
    t = betti_oracle(build_q(3, 3, 24).in_q)
    assert len(t.entries) == 73
    assert all(type(b) is Monomial for _, b, _ in t.entries)
    assert all(b.render() for _, b, _ in t.entries)


def fraction_koszul_homology(ideal, b):
    """Reduced homology ranks (dim -1, 0, 1) of the upper-Koszul complex
    K^b by Bareiss rank of its three boundary matrices over the rationals."""
    def member(drop):
        e = list(b)
        for v in drop:
            e[v] -= 1
            if e[v] < 0:
                return False
        return ideal.contains(Monomial(*e))

    verts = [v for v in range(3) if member((v,))]
    edges = [t for t in itertools.combinations(range(3), 2) if member(t)]
    has_face = member((0, 1, 2))
    d0 = RatMatrix.from_rows([[1] * len(verts)]) if verts else RatMatrix.zero(1, 0)
    rows1 = [[0] * len(edges) for _ in verts]
    vidx = {v: i for i, v in enumerate(verts)}
    for j, (u, v) in enumerate(edges):
        rows1[vidx[u]][j] = -1
        rows1[vidx[v]][j] = 1
    d1 = RatMatrix.from_rows(rows1) if verts and edges else RatMatrix.zero(len(verts), len(edges))
    rows2 = [[0] for _ in edges] if has_face else [[] for _ in edges]
    if has_face:
        eidx = {e: i for i, e in enumerate(edges)}
        rows2[eidx[(1, 2)]][0] = 1
        rows2[eidx[(0, 2)]][0] = -1
        rows2[eidx[(0, 1)]][0] = 1
    d2 = RatMatrix.from_rows(rows2) if edges and has_face else RatMatrix.zero(len(edges), 1 if has_face else 0)
    r0, r1, r2 = rank(d0), rank(d1), rank(d2)
    return (1 - r0, len(verts) - r0 - r1, len(edges) - r1 - r2)


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(3, 9) for b in range(a, 9)]
)
def test_koszul_homology_matches_fraction_ranks(a, b):
    # r <= 8 keeps this near 1 s; it meets the same 18 membership patterns
    # of K^b as r <= 12
    for r in range(0, 9):
        q = build_q(a, b, r)
        if q.is_trivial:
            continue
        top = max(max(g) for g in q.in_q.gens) + 1
        for exps in itertools.product(range(top + 1), repeat=3):
            m = Monomial(*exps)
            assert _koszul_homology(q.in_q, m) == fraction_koszul_homology(q.in_q, m)
            assert _koszul_homology(q.in_q, exps) == _koszul_homology(q.in_q, m)


def test_betti_oracle_scans_once_per_full_triangle_33_r24(monkeypatch):
    # a lattice point whose triple drop b - (1,1,1) lies in the ideal has
    # the full triangle as K^b and is settled by that one scan; any other
    # point takes at most seven (the triple, three pairs, three singles)
    ideal = build_q(3, 3, 24).in_q
    points = _lcm_closure(ideal.gens)
    full = sum(1 for x, y, z in points if x and y and z and ideal.contains((x - 1, y - 1, z - 1)))
    assert (len(points), full) == (975, 748)
    calls = []
    scan = MonomialIdeal.contains

    def counting(self, m):
        calls.append(m)
        return scan(self, m)

    monkeypatch.setattr(MonomialIdeal, "contains", counting)
    betti_oracle(ideal)
    assert len(calls) <= full + 7 * (len(points) - full) == 2337


def reference_betti_entries(ideal):
    """The Betti table from the fixpoint lcm closure and the rational rank
    homology, lattice points lex-descending."""
    entries = []
    for b in sorted(fixpoint_lcm_closure(ideal.gens), reverse=True):
        homology = fraction_koszul_homology(ideal, b)
        entries.extend((i, b, h) for i, h in enumerate(homology) if h)
    return tuple(entries)


@pytest.mark.parametrize("a,b,r", [(3, 3, 12), (3, 4, 24), (5, 7, 20), (3, 3, 0)])
def test_betti_oracle_matches_reference_table(a, b, r):
    ideal = build_q(a, b, r).in_q
    assert betti_oracle(ideal).entries == reference_betti_entries(ideal)
