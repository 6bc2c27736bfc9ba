"""Buchberger graph of the staircase-union ideal, closed-form second and
third syzygies, a multigraded Betti oracle via upper-Koszul complexes, and
the bottom-face regularity extraction.  `class_routes` is the one place that
builds a class's graph and syzygies, and it checks them as it builds them.

The Betti oracle never eliminates: each upper-Koszul complex is a
subcomplex of the triangle on {x, y, z}, so its homology follows from how
many vertices, edges and faces it has.

Edges follow the usual no-third-divisor rule.  Faces are the bounded
regions of the planar layout of these two-chain ideals (an x-chain and a
y/z-chain joined by a ladder of crossing edges); regions may be quads, so
they are swept out between consecutive crossing edges rather than read as
triangles.  The Betti oracle double-checks both.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import (
    NonMonotone,
    RouteDisagreement,
    SocleMismatch,
    StaircaseInvariant,
    TrivialIdeal,
    TwoChainRequired,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    max_socle_degree,
)
from .staircase import QData


class BuchGraph(NamedTuple):
    nodes: tuple[Monomial, ...]
    edges: tuple[tuple[int, int, Monomial], ...]       # (i, j, lcm), i < j
    faces: tuple[tuple[tuple[int, ...], Monomial], ...]  # (node indices, lcm)

    def edge_lcms(self):
        return tuple(e[2] for e in self.edges)

    def face_lcms(self):
        return tuple(f[1] for f in self.faces)


def buchberger_graph(ideal: MonomialIdeal) -> BuchGraph:
    """Edges whenever no third generator divides the pairwise lcm; faces as
    the bounded regions of the two-chain planar layout."""
    gens = ideal.gens
    if not gens:
        return BuchGraph((), (), ())
    edges = _edges(gens)
    return BuchGraph(gens, tuple(edges), tuple(_region_faces(gens, edges)))


def _edges(gens):
    """(i, j, lcm) for every pair i < j of lex-descending generators whose
    lcm no third one divides.  The lcm's x-exponent is ex_i, and the
    generators with ex <= ex_i are exactly those from the first one whose
    x-exponent equals ex_i onwards, so only that window can hold a third
    divisor, and only y and z need comparing there.  The scans run on plain
    exponent triples; only an edge's lcm becomes a Monomial."""
    triples = list(map(tuple, gens))
    entries = [(k, y, z) for k, (_, y, z) in enumerate(triples)]
    edges = []
    lo, window = 0, entries
    for i, (xi, yi, zi) in enumerate(triples):
        if xi != triples[lo][0]:
            lo = i
            window = entries[lo:]
        for j, yj, zj in entries[i + 1:]:
            my = yi if yi > yj else yj
            mz = zi if zi > zj else zj
            for k, yk, zk in window:
                if yk <= my and zk <= mz and k != i and k != j:
                    break
            else:
                edges.append((i, j, Monomial(xi, my, mz)))
    return edges


def _region_faces(gens, edges):
    """Faces of the two-chain layout.  In lex-descending order the x-chain
    is the prefix with ex > 0 (ex falling) and the y/z-chain the rest (ey
    falling), so a generator's place on its chain is read off its index.
    The generators are read as plain exponent triples; only a face's lcm
    becomes a Monomial."""
    triples = list(map(tuple, gens))
    if any(ex > 0 and ey > 0 for ex, ey, _ in triples):
        raise TwoChainRequired(
            "face extraction needs generators supported on an x-chain and a y/z-chain"
        )
    n = len(triples)
    nx = sum(1 for ex, _, _ in triples if ex > 0)
    # positions counted from the low end of each chain: x-chain by rising
    # ex, y/z-chain by rising ey
    crossing = sorted((nx - 1 - i, n - 1 - j) for i, j, _ in edges if i < nx <= j)
    for (p1, q1), (p2, q2) in zip(crossing, crossing[1:]):
        if p2 < p1 or q2 < q1:
            raise NonMonotone("crossing edges of the Buchberger graph are not a ladder")
    faces = []
    for (p1, q1), (p2, q2) in zip(crossing, crossing[1:]):
        region = tuple(range(nx - 1 - p2, nx - p1)) + tuple(range(n - 1 - q2, n - q1))
        faces.append((region, Monomial(*map(max, zip(*(triples[k] for k in region))))))
    return faces


def syz2_closed_form(q: QData) -> tuple[Monomial, ...]:
    """Second-syzygy multidegrees of In Q from the staircase data alone:
    chain steps on each side plus the ladder of incomparable pairs.  The
    set holds plain exponent triples; only the distinct ones become
    Monomials."""
    if q.is_trivial:
        raise TrivialIdeal("In Q is the unit ideal")
    lamp, etap, l0, i0, j0 = q.lam_prime, q.eta_prime, q.l0, q.i0, q.j0
    if l0 < 1:
        raise StaircaseInvariant(f"pruning index l0 = {l0} < 1 for a nontrivial In Q")
    out = {(i, 0, lamp[i - 1]) for i in range(l0 + 1, i0 + 1)}
    out.add((l0, 0, etap[0]))
    out |= {(0, j, etap[j - 1]) for j in range(1, j0 + 1)}
    for i in range(l0, i0 + 1):
        for j in range(1, j0 + 1):
            if lamp[i] <= etap[j] < lamp[i - 1]:
                out.add((i, j, etap[j]))
            if etap[j] <= lamp[i] < etap[j - 1]:
                out.add((i, j, lamp[i]))
    return tuple(Monomial(*m) for m in sorted(out, reverse=True))


def syz3_closed_form(g: BuchGraph) -> list[Monomial]:
    """Face lcms by ascending z-exponent, bottom face first; raises
    NonMonotone unless the z-degrees are distinct and the total degree
    weakly decreases."""
    faces = sorted(g.face_lcms(), key=lambda m: m.ez)
    for a, b in zip(faces, faces[1:]):
        if a.ez == b.ez:
            raise NonMonotone(f"third syzygies {a} and {b} share a z-degree")
        if a.degree < b.degree:
            raise NonMonotone(f"total degree increases from {a} to {b}")
    return faces


def bottom_face(q: QData) -> Monomial:
    """x^{i0} y^{j0} z^{zeta0} with zeta0 = min(lambda'_{i0-1}, eta'_{j0-1})."""
    if q.is_trivial:
        raise TrivialIdeal("In Q is the unit ideal")
    zeta0 = min(q.lam_prime[q.i0 - 1], q.eta_prime[q.j0 - 1])
    if zeta0 not in (1, 2):
        raise StaircaseInvariant(f"zeta0 = {zeta0} outside {{1, 2}}")
    return Monomial(q.i0, q.j0, zeta0)


def regularity_from_bottom_face(q: QData) -> tuple[int, int]:
    """(deg(bottom face) - 3, socle degree of S/In Q): each route's own
    value for the class, raising SocleMismatch unless they agree."""
    if q.is_trivial:
        raise TrivialIdeal("In Q is the unit ideal; the module is zero")
    socle = max_socle_degree(q.in_q)  # raises NotArtinian first
    reg = bottom_face(q).degree - 3
    if reg != socle:
        raise SocleMismatch(f"bottom-face route gives {reg}, socle route {socle}")
    return reg, socle


class ClassRoutes(NamedTuple):
    reg: int            # bottom-face route, unshifted
    socle: int          # socle route, unshifted
    face: Monomial      # the i0/j0/zeta0 bottom face
    graph: BuchGraph
    syz2: tuple[Monomial, ...]
    syz3: list[Monomial]  # face lcms, bottom face first


def class_routes(q: QData) -> ClassRoutes:
    """Both regularity routes, the bottom face, the Buchberger graph and the
    two syzygy closed forms of a nontrivial In Q.  Raises unless the routes
    agree, the graph's faces pass the syz3 order check and its lowest face
    is the i0/j0/zeta0 face; `syz2_closed_form` runs its own staircase
    checks."""
    reg, socle = regularity_from_bottom_face(q)  # raises unless the routes agree
    # the face whose degree that route read: zeta0 = reg + 3 - i0 - j0, its
    # check already passed there, so the face is built once
    face = Monomial(q.i0, q.j0, reg + 3 - q.i0 - q.j0)
    graph = buchberger_graph(q.in_q)
    syz2 = syz2_closed_form(q)
    syz3 = syz3_closed_form(graph)
    if syz3[0] != face:
        raise RouteDisagreement(
            f"graph bottom face {syz3[0]} disagrees with i0/j0/zeta0 face {face}"
        )
    return ClassRoutes(reg, socle, face, graph, syz2, syz3)


# ---------------------------------------------------------------------------
# Betti oracle


class BettiTable(NamedTuple):
    """beta_{i,b} for i = 0 (generators), 1, 2; only nonzero entries kept."""

    entries: tuple[tuple[int, Monomial, int], ...]

    def multidegrees(self, i: int) -> tuple[Monomial, ...]:
        out = []
        for hom, b, mult in self.entries:
            if hom == i:
                out.extend([b] * mult)
        return tuple(sorted(out, reverse=True))


def _lcm_closure(gens):
    """Every lcm of a nonempty set of generators, as plain exponent tuples.
    In three variables such an lcm is the lcm of at most three of them, one
    reaching the maximum of each exponent, so the generators, pairs and
    triples give the whole set.  Each pair's lcm is computed once and
    reused for every later third generator."""
    triples = list(map(tuple, gens))
    out = set(triples)
    for i, (xa, ya, za) in enumerate(triples):
        for j in range(i + 1, len(triples)):
            xb, yb, zb = triples[j]
            x = xa if xa > xb else xb
            y = ya if ya > yb else yb
            z = za if za > zb else zb
            out.add((x, y, z))
            for xc, yc, zc in triples[j + 1:]:
                out.add((x if x > xc else xc, y if y > yc else yc, z if z > zc else zc))
    return out


def _koszul_homology(ideal: MonomialIdeal, b):
    """Reduced homology ranks (dim -1, 0, 1) of the upper-Koszul complex
    K^b = { tau subset of {x,y,z} : b / prod(tau) lies in the ideal },
    for b an exponent triple in the ideal, so that the empty face is in
    K^b.  (Outside the ideal K^b is the void complex, whose reduced
    homology is zero; the face counts below would read (1, 0, 0) there.)

    K^b is closed under subsets, so it is a subcomplex of the triangle: an
    edge brings both its vertices and the 2-face all three edges.  With nv
    vertices and ne edges the boundary ranks are [nv > 0], min(ne, 2) (up
    to two edges form a forest, three a cycle) and [face present].

    An ideal is closed under multiplication, so a drop in the ideal puts
    every smaller drop there too.  The triple drop b - (1,1,1) is tested
    first: in the ideal, K^b is the full triangle and the homology is
    zero after one scan.  Otherwise the three pair drops are tested, and a
    single drop only when neither pair drop containing it was in: at most
    seven scans, with the 2-face absent, so its boundary rank is 0."""
    x, y, z = b
    contains = ideal.contains
    if x and y and z and contains((x - 1, y - 1, z - 1)):
        return (0, 0, 0)
    xy = bool(x and y) and contains((x - 1, y - 1, z))
    xz = bool(x and z) and contains((x - 1, y, z - 1))
    yz = bool(y and z) and contains((x, y - 1, z - 1))
    vx = xy or xz or (bool(x) and contains((x - 1, y, z)))
    vy = xy or yz or (bool(y) and contains((x, y - 1, z)))
    vz = xz or yz or (bool(z) and contains((x, y, z - 1)))
    nv = vx + vy + vz
    ne = xy + xz + yz
    r0, r1 = int(nv > 0), min(ne, 2)
    return (1 - r0, nv - r0 - r1, ne - r1)


def betti_oracle(ideal: MonomialIdeal) -> BettiTable:
    """Multigraded Betti numbers over the lcm closure of the generators,
    each from the reduced homology of the upper-Koszul complex, read off
    its face counts.  Every lcm of generators is a multiple of one, so it
    lies in the ideal and the empty face is in K^b, as the face counts
    assume.  Lattice points stay plain exponent tuples; only the points
    the table keeps are sorted, lex-descending, and become Monomials."""
    kept = []
    for b in _lcm_closure(ideal.gens):
        homology = _koszul_homology(ideal, b)
        if any(homology):
            kept.append((b, homology))
    entries = []
    for b, homology in sorted(kept, reverse=True):
        m = Monomial(*b)
        entries.extend((i, m, h) for i, h in enumerate(homology) if h)
    return BettiTable(tuple(entries))


def syzygies_match_betti(table: BettiTable, syz2, syz3) -> bool:
    """Whether the closed-form second and third syzygies are the Betti
    oracle's multidegrees in homological degrees 1 and 2, multiplicities
    included."""
    syz3 = tuple(sorted(syz3, reverse=True))
    return table.multidegrees(1) == tuple(syz2) and table.multidegrees(2) == syz3
