import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import splinereg
from splinereg.chains import H0Table
from splinereg.errors import HypothesisViolated, InvalidSlopeCount, NotOneEdge
from splinereg.monomials import Monomial
from splinereg.regularity import path_bounds, regularity_from_complex, regularity_one_edge
from splinereg.staircase import ClosedFormTable


def test_worked_example_34_r8():
    rep = regularity_one_edge(3, 4, 8)
    assert rep.exact == 14
    assert (rep.lower, rep.upper) == (14, 15)
    assert rep.bottom_face == Monomial(4, 3, 1)
    assert rep.zeta0 == 1
    assert rep.conjecture_2r
    assert rep.routes_agree


@pytest.mark.parametrize("r", range(1, 13))
def test_33_family_equals_2r(r):
    rep = regularity_one_edge(3, 3, r)
    assert rep.exact == 2 * r
    assert rep.lower <= rep.exact <= rep.upper


def test_44_r8_within_bounds():
    rep = regularity_one_edge(4, 4, 8)
    assert (rep.lower, rep.upper) == (13, 14)
    assert rep.exact == 13


def test_vanishing_module_report():
    rep = regularity_one_edge(5, 5, 0)
    assert rep.vanishes and rep.exact is None
    assert rep.conjecture_2r  # vacuously
    assert rep.in_q.is_trivial


def test_input_order_does_not_matter():
    assert regularity_one_edge(4, 3, 8).exact == regularity_one_edge(3, 4, 8).exact


def test_rejects_small_slope_counts():
    with pytest.raises(InvalidSlopeCount):
        regularity_one_edge(2, 3, 1)


def test_sandwich_small_grid():
    for a in range(3, 7):
        for b in range(a, 7):
            for r in range(1, 9):
                rep = regularity_one_edge(a, b, r)
                if rep.vanishes:
                    continue
                assert rep.lower <= rep.exact <= rep.upper
                assert rep.zeta0 in (1, 2)


def test_2r_check():
    assert regularity_one_edge(3, 3, 5).conjecture_2r
    assert regularity_one_edge(3, 3, 5).exact == 10
    assert regularity_one_edge(3, 4, 8).conjecture_2r


def test_2r_arithmetic_step():
    # the step behind exact <= 2r for (a, b) != (3, 3), proved in
    # RegularityReport.conjecture_2r's docstring and not re-checked at run time
    assert all((r + 1) // 2 + (r + 1) // 3 <= r for r in range(1, 10_001))


def test_from_complex_33_r2(complex_one33):
    rep = regularity_from_complex(complex_one33, 2)
    assert rep.exact == 4
    assert rep.routes["chain_oracle"] == 4
    assert rep.routes_agree


def test_from_complex_rejects_ce1(complex_ce1):
    with pytest.raises(NotOneEdge):
        regularity_from_complex(complex_ce1, 2)


@pytest.mark.slow
@pytest.mark.parametrize(
    "r,exact,budget", [(8, 14, 0.25), (16, 29, 0.25), (24, 43, 0.5)], ids=["r8", "r16", "r24"]
)
def test_from_complex_34(complex_one34, r, exact, budget):
    # the chain oracle stops at the first zero degree of H0 and ranks every
    # degree in the local quotients from one echelon in integer vertex
    # frames: about 0.001 s at r = 8, 0.006 s at r = 16 and 0.02 s at r = 24
    start = time.monotonic()
    rep = regularity_from_complex(complex_one34, r)
    elapsed = time.monotonic() - start
    assert rep.exact == exact
    assert rep.routes == {"bottom_face": exact, "socle_shift": exact, "chain_oracle": exact}
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"


def test_from_complex_whole_grid_r2():
    # end to end from coordinates for every slope-count pair; the oracle must
    # also report the vanishing cells (r < b - 2) as zero modules
    from splinereg.geometry import one_edge_complex

    for a in range(3, 9):
        for b in range(a, 9):
            rep = regularity_from_complex(one_edge_complex(a, b), 2)
            assert rep.routes_agree
            assert rep.vanishes == (2 < b - 2)


@pytest.mark.slow
@pytest.mark.parametrize(
    "a,b,r", [(3, 5, 3), (4, 5, 3), (5, 5, 3), (3, 6, 4), (5, 6, 4), (6, 6, 4)]
)
def test_from_complex_nonvanishing_cells(a, b, r):
    from splinereg.geometry import one_edge_complex

    rep = regularity_from_complex(one_edge_complex(a, b), r)
    assert not rep.vanishes
    assert rep.routes_agree
    assert rep.lower <= rep.exact <= rep.upper


def test_path_bounds_on_one_edge_coincide(complex_one33):
    pb = path_bounds(complex_one33, 2)
    rep = regularity_one_edge(3, 3, 2)
    assert (pb.lower, pb.upper) == (rep.lower, rep.upper)
    assert len(pb.per_edge) == 1


def test_path_bounds_ce1(complex_ce1):
    pb = path_bounds(complex_ce1, 3, H0Table(complex_ce1, 3))
    assert len(pb.per_edge) == 2
    assert pb.oracle_reg is not None
    assert pb.oracle_within


def test_oracle_within_is_derived(complex_ce1):
    # read off the stored bounds and oracle value, so a report can never
    # carry a verdict that disagrees with its own numbers
    pb = path_bounds(complex_ce1, 3)
    assert pb.oracle_within is None
    assert pb._replace(oracle_reg=pb.upper).oracle_within is True
    assert pb._replace(oracle_reg=pb.upper + 1).oracle_within is False


def test_path_bounds_hypothesis_violated(complex_wheel):
    with pytest.raises(HypothesisViolated):
        path_bounds(complex_wheel, 2)


def test_monotone_in_r_full_grid():
    for a in range(3, 9):
        for b in range(a, 9):
            prev = None
            for r in range(1, 13):
                rep = regularity_one_edge(a, b, r)
                if rep.exact is None:
                    continue
                if prev is not None:
                    assert prev <= rep.exact
                prev = rep.exact


def test_report_json_shape():
    d = regularity_one_edge(3, 4, 8).to_json_dict()
    assert d["exact_regularity"] == 14
    assert d["bottom_face"] == "x^4 y^3 z"
    assert d["in_q"][0] == "x^4"
    assert d["routes_agree"] is True


def test_bottom_face_check_survives_python_O():
    # the socle route reads the same `bottom_face`, so the graph's lowest
    # face is faked instead, and only the graph-face check can fire
    script = """
import splinereg.syzygies as syz
from splinereg.errors import RouteDisagreement
from splinereg.monomials import Monomial
from splinereg.regularity import regularity_one_edge

assert not __debug__
real = syz.syz3_closed_form
syz.syz3_closed_form = lambda g: [Monomial(4, 3, 3)] + real(g)[1:]
try:
    regularity_one_edge(3, 4, 8)
except RouteDisagreement as exc:
    print("raised:", exc)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(splinereg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (
        "raised: graph bottom face x^4 y^3 z^3 disagrees with i0/j0/zeta0 face x^4 y^3 z\n"
    )


def test_socle_route_mismatch_names_both_values(monkeypatch):
    import splinereg.syzygies as syz
    from splinereg.errors import SocleMismatch

    real = syz.max_socle_degree
    monkeypatch.setattr(syz, "max_socle_degree", lambda ideal: real(ideal) + 1)
    with pytest.raises(SocleMismatch, match="bottom-face route gives 5, socle route 6"):
        regularity_one_edge(3, 4, 8)


def test_routes_record_each_route_own_value(monkeypatch):
    # the report keeps what each route computed, so a socle route that
    # drifts from the bottom face shows in `routes` and `routes_agree`
    import splinereg.syzygies as syz

    real = syz.regularity_from_bottom_face

    def drifted(q):
        face, socle = real(q)
        return face, socle + 1

    monkeypatch.setattr(syz, "regularity_from_bottom_face", drifted)
    rep = regularity_one_edge(3, 4, 8)
    assert rep.routes == {"bottom_face": 14, "socle_shift": 15}
    assert not rep.routes_agree


def test_shared_table_reports_equal_fresh_ones():
    # one table through the capped grid serves each (lambda', eta') class
    # from its first cell, whatever that cell's r; every report must be the
    # one a fresh call builds
    table = ClosedFormTable()
    for a in range(3, 17):
        for b in range(a, 17):
            for r in range(1, 25):
                shared = regularity_one_edge(a, b, r, table).to_json_dict()
                assert shared == regularity_one_edge(a, b, r).to_json_dict(), (a, b, r)
    assert (len(table.colons), len(table.routes)) == (336, 374)
