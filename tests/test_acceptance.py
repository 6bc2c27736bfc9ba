"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its wall-clock time (run with `pytest -s tests/test_acceptance.py` to
see the lines on success).  Stated runtime budgets are asserted: each is
about 10x the criterion's measured time, and at least 0.05 s.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import colon_by_monomial, euler_hilbert_check

from splinereg.chains import (
    H0Table,
    h0_regularity_oracle,
    spline_dim_formula,
    spline_dim_oracle,
)
from splinereg.geometry import one_edge_complex
from splinereg.monomials import Monomial, max_socle_degree
from splinereg.regularity import path_bounds, regularity_from_complex, regularity_one_edge
from splinereg.staircase import (
    build_q,
    colon_initial_oracle,
    colon_staircase,
    initial_ideal_oracle,
    staircase_closed_form,
    sum_initial_oracle,
)
from splinereg.syzygies import (
    betti_oracle,
    buchberger_graph,
    syz2_closed_form,
    syz3_closed_form,
)


def M(ex=0, ey=0, ez=0):
    return Monomial(ex, ey, ez)


@contextmanager
def criterion(number, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL ({time.monotonic() - start:.2f}s): {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {label}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


GRID = [(a, b, r) for a in range(3, 9) for b in range(a, 9) for r in range(1, 13)]


@pytest.fixture(scope="module")
def grid_reports():
    return {(a, b, r): regularity_one_edge(a, b, r) for a, b, r in GRID}


def random_slopes(rng, s):
    out = set()
    while len(out) < s:
        out.add(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return sorted(out)


def test_criterion_01_worked_example_fidelity():
    with criterion(1, "worked example (3,4,8) reproduced exactly", budget=0.05):
        assert staircase_closed_form(8, 3).ideal("y").gens == (
            M(0, 9, 0), M(0, 8, 1), M(0, 7, 2), M(0, 6, 4), M(0, 5, 5),
            M(0, 4, 7), M(0, 3, 8), M(0, 2, 10), M(0, 1, 11), M(0, 0, 13),
        )
        # the two-slope staircase, tail corrected to x^2 z^13, x z^15 and
        # confirmed by the rank oracle
        corrected = (
            M(9), M(8, 0, 1), M(7, 0, 3), M(6, 0, 5), M(5, 0, 7),
            M(4, 0, 9), M(3, 0, 11), M(2, 0, 13), M(1, 0, 15), M(0, 0, 17),
        )
        assert staircase_closed_form(8, 2).ideal("x").gens == corrected
        assert initial_ideal_oracle(8, [Fraction(0), Fraction(1)]).gens == corrected

        q = build_q(3, 4, 8)
        assert q.in_q.gens == (
            M(4), M(3, 0, 2), M(0, 3, 0), M(0, 2, 1), M(0, 1, 2), M(0, 0, 4)
        )
        assert set(syz2_closed_form(q)) == {
            M(4, 0, 2), M(3, 0, 4), M(0, 3, 1), M(0, 2, 2), M(0, 1, 4),
            M(4, 3, 0), M(4, 2, 1), M(3, 1, 2),
        }
        faces = syz3_closed_form(buchberger_graph(q.in_q))
        assert faces == [M(4, 3, 1), M(4, 2, 2), M(3, 1, 4)]
        # reg In Q = deg(x^4 y^3 z) - 3 = 5, measured at the bottom face
        assert faces[0].degree - 3 == 5
        assert max_socle_degree(q.in_q) == 5


def test_criterion_02_33_family(complex_one33):
    with criterion(2, "(3,3): regularity = 2r for r = 1..12 via all routes", budget=0.05):
        for r in range(1, 13):
            q = build_q(3, 3, r)
            rep = regularity_one_edge(3, 3, r)
            assert rep.exact == 2 * r  # bottom-face route
            assert max_socle_degree(q.in_q) + r + 1 == 2 * r  # socle + shift
        for r in range(1, 5):
            assert h0_regularity_oracle(complex_one33, r) == 2 * r  # chain route
            rep = regularity_from_complex(complex_one33, r)
            assert rep.exact == 2 * r and rep.routes_agree


def test_criterion_03_main_theorem_sandwich(grid_reports):
    with criterion(3, "sandwich bounds on 3<=a<=b<=8, r=1..12", budget=0.05):
        checked = 0
        for (a, b, r), rep in grid_reports.items():
            if rep.vanishes:
                continue
            alpha1 = (r + 1) // (a - 1)
            alpha2 = (r + 1) // (b - 1)
            assert rep.lower == alpha1 + alpha2 + r - 1
            assert rep.upper == alpha1 + alpha2 + r
            assert rep.lower <= rep.exact <= rep.upper
            checked += 1
        # In Q is nontrivial iff r >= b-2, which leaves 182 of the 252 cells
        assert checked == 182


def test_criterion_04_2r_theorem(grid_reports, complex_one33, complex_one34):
    with criterion(4, "regularity <= 2r on the grid and on built complexes"):
        for rep in grid_reports.values():
            if not rep.vanishes:
                assert rep.exact <= 2 * rep.r
        for c, r in ((complex_one33, 1), (complex_one33, 3),
                     (complex_one34, 2), (one_edge_complex(4, 4), 2)):
            rep = regularity_from_complex(c, r)
            assert rep.exact is not None and rep.exact <= 2 * r


def test_criterion_05_staircase_oracle_equivalence():
    with criterion(5, "staircase closed form = rank oracle, s=2..6, r=0..12", budget=0.7):
        rng = random.Random(1783)
        for s in range(2, 7):
            for r in range(0, 13):
                closed = staircase_closed_form(r, s).ideal("x")
                for _ in range(5):
                    slopes = random_slopes(rng, s)
                    assert initial_ideal_oracle(r, slopes) == closed


def test_criterion_06_colon_and_sum_identities():
    with criterion(6, "colon and sum initial-ideal identities, s<=4, r<=8", budget=0.3):
        rng = random.Random(421)
        for s in range(2, 5):
            for r in range(0, 9):
                slopes = random_slopes(rng, s)
                closed = colon_staircase(staircase_closed_form(r, s)).ideal("x")
                # In(J' : z^{r+1}) computed from the colon subspaces...
                assert colon_initial_oracle(r, slopes) == closed
                # ...equals In(J') : z^{r+1} computed from the oracle initial ideal
                assert colon_by_monomial(
                    initial_ideal_oracle(r, slopes), M(ez=r + 1)
                ) == closed
        for s1 in range(2, 5):
            for s2 in range(s1, 5):
                for r in range(0, 9):
                    sl1 = random_slopes(rng, s1)
                    sl2 = random_slopes(rng, s2)
                    assert sum_initial_oracle(r, sl1, sl2) == build_q(
                        s1 + 1, s2 + 1, r
                    ).in_q


def test_criterion_07_syzygy_betti_agreement(grid_reports):
    with criterion(7, "syz2/syz3 = Betti oracle; Euler/Hilbert; planarity", budget=0.4):
        for (a, b, r), rep in grid_reports.items():
            if rep.vanishes:
                continue
            q = build_q(a, b, r)
            graph = buchberger_graph(q.in_q)
            table = betti_oracle(q.in_q)
            assert table.multidegrees(0) == q.in_q.gens
            assert table.multidegrees(1) == syz2_closed_form(q)
            assert set(table.multidegrees(2)) == set(syz3_closed_form(graph))
            assert all(mult == 1 for _, _, mult in table.entries)
            assert len(graph.nodes) - len(graph.edges) + len(graph.faces) == 1
            for d in range(0, max_socle_degree(q.in_q) + 3):
                assert euler_hilbert_check(q.in_q, table, d)


def test_criterion_08_third_syzygy_order_property(grid_reports):
    with criterion(8, "third-syzygy z-order and degree monotonicity on the grid"):
        for (a, b, r), rep in grid_reports.items():
            if rep.vanishes:
                continue
            faces = syz3_closed_form(buchberger_graph(build_q(a, b, r).in_q))
            zs = [m.ez for m in faces]
            degs = [m.degree for m in faces]
            assert zs == sorted(zs) and len(set(zs)) == len(zs)
            assert degs == sorted(degs, reverse=True)
            assert faces[0] == rep.bottom_face


def test_criterion_09_dimension_formula_equivalence(
    complex_triangle, complex_star, complex_one33, complex_ce1
):
    with criterion(9, "spline dimension formula = brute force on 4 complexes", budget=2.0):
        for c in (complex_triangle, complex_star, complex_one33, complex_ce1):
            for r in range(0, 4):
                for d in range(0, 11):
                    assert spline_dim_formula(c, r, d) == spline_dim_oracle(c, r, d)


def test_criterion_10_path_bounds_containment(complex_ce1):
    with criterion(10, "chain oracle within path bounds on the two-edge complex"):
        for r in (1, 2, 3):
            pb = path_bounds(complex_ce1, r, H0Table(complex_ce1, r))
            assert pb.oracle_reg is not None, f"H0 vanishes at r={r}"
            assert pb.lower <= pb.oracle_reg <= pb.upper
            assert pb.oracle_within
