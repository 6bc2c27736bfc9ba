import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import count
from math import comb, gcd
from pathlib import Path

import pytest

from conftest import colon_by_monomial

import splinereg
from splinereg import staircase
from splinereg._echelon import DenseIntEchelon, SparseIntEchelon
from splinereg.errors import DuplicateSlope, InvalidSlopeCount
from splinereg.monomials import (
    Monomial,
    index_exponents,
    minimalize,
    monomial_index,
    monomials_of_degree,
)
from splinereg.ratlinalg import RatMatrix, in_column_span, pivot_rows, rank
from splinereg.staircase import (
    ClosedFormTable,
    QData,
    _colon_bases,
    _power_echelons,
    _slope_pairs,
    build_q,
    colon_degree_basis,
    colon_initial_oracle,
    colon_staircase,
    initial_ideal_oracle,
    staircase_closed_form,
    sum_initial_oracle,
)


def M(ex=0, ey=0, ez=0):
    return Monomial(ex, ey, ez)


def random_slopes(rng, s):
    out = set()
    while len(out) < s:
        out.add(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return sorted(out)


def test_closed_form_8_3():
    st = staircase_closed_form(8, 3)
    assert st.lam == (13, 11, 10, 8, 7, 5, 4, 2, 1)
    assert st.ideal("y").gens == (
        M(0, 9, 0), M(0, 8, 1), M(0, 7, 2), M(0, 6, 4), M(0, 5, 5),
        M(0, 4, 7), M(0, 3, 8), M(0, 2, 10), M(0, 1, 11), M(0, 0, 13),
    )


def test_closed_form_r0():
    st = staircase_closed_form(0, 2)
    assert st.lam == (1,)
    assert st.ideal("x").gens == (M(1), M(ez=1))


def test_closed_form_8_2():
    # the two-slope staircase; the tail is x^2 z^13, x z^15, z^17
    st = staircase_closed_form(8, 2)
    assert st.ideal("x").gens == (
        M(9), M(8, 0, 1), M(7, 0, 3), M(6, 0, 5), M(5, 0, 7),
        M(4, 0, 9), M(3, 0, 11), M(2, 0, 13), M(1, 0, 15), M(0, 0, 17),
    )


def test_requires_two_slopes():
    with pytest.raises(InvalidSlopeCount):
        staircase_closed_form(5, 1)


@pytest.mark.parametrize("s", range(2, 7))
@pytest.mark.parametrize("r", range(0, 13, 3))
def test_lambda_invariants(r, s):
    st = staircase_closed_form(r, s)
    assert st.lam[-1] == 1
    assert st.lam[0] == r + 1 + r // (s - 1)
    assert all(a > b for a, b in zip(st.lam, st.lam[1:]))
    # step pattern: width 2 exactly at every (s-1)-st step counted from the top
    for i in range(1, r + 1):
        step = st.lam[r - i] - st.lam[r - i + 1]
        assert step == (2 if i % (s - 1) == 0 else 1)


def test_oracle_equals_closed_form_seeded():
    rng = random.Random(20240817)
    for s in range(2, 5):
        for r in (0, 1, 3, 6):
            for _ in range(2):
                slopes = random_slopes(rng, s)
                assert initial_ideal_oracle(r, slopes) == staircase_closed_form(r, s).ideal("x")


def test_oracle_single_form():
    # a principal J' never fills a degree, so the walk would not stop
    with pytest.raises(InvalidSlopeCount):
        initial_ideal_oracle(1, [Fraction(0)])


def test_oracle_three_slopes_r2():
    got = initial_ideal_oracle(2, [Fraction(0), Fraction(1), Fraction(-1)])
    assert got.gens == (M(3), M(2, 0, 1), M(1, 0, 2), M(0, 0, 4))


def test_oracle_duplicate_slope():
    with pytest.raises(DuplicateSlope):
        initial_ideal_oracle(2, [Fraction(1), Fraction(1)])


def test_colon_staircase_8_2():
    cs = colon_staircase(staircase_closed_form(8, 2))
    assert cs.i0 == 4
    assert cs.ideal("x").gens == (M(4), M(3, 0, 2), M(2, 0, 4), M(1, 0, 6), M(0, 0, 8))


def test_colon_staircase_8_3():
    cs = colon_staircase(staircase_closed_form(8, 3))
    assert cs.i0 == 3
    assert cs.ideal("y").gens == (M(0, 3, 0), M(0, 2, 1), M(0, 1, 2), M(0, 0, 4))


def test_colon_staircase_trivial():
    cs = colon_staircase(staircase_closed_form(0, 2))
    assert cs.i0 == 0
    assert cs.ideal("x").is_trivial


@pytest.mark.parametrize("s", range(2, 7))
@pytest.mark.parametrize("r", range(0, 13))
def test_colon_matches_monomial_colon(r, s):
    st = staircase_closed_form(r, s)
    cs = colon_staircase(st)
    assert cs.ideal("x") == colon_by_monomial(st.ideal("x"), M(ez=r + 1))


def test_build_q_worked_example():
    q = build_q(3, 4, 8)
    assert (q.i0, q.j0, q.l0) == (4, 3, 3)
    assert q.in_q.gens == (
        M(4), M(3, 0, 2), M(0, 3, 0), M(0, 2, 1), M(0, 1, 2), M(0, 0, 4)
    )


def test_build_q_33_r2():
    assert build_q(3, 3, 2).in_q.gens == (M(1), M(0, 1, 0), M(0, 0, 2))


def test_build_q_trivial():
    q = build_q(5, 5, 0)
    assert q.in_q.is_trivial
    assert q.i0 == q.j0 == 0


def test_build_q_returns_one_record_per_class():
    # a class record holds no cell data, so one table hands every cell of
    # the class, at any r and in either (a, b) order, the identical object
    table = ClosedFormTable()
    q = build_q(3, 3, 1, table)
    assert build_q(4, 4, 2, table) is q and build_q(6, 6, 7, table) is q
    swapped = build_q(5, 3, 4, table)
    assert build_q(3, 5, 4, table) is swapped
    # the x-side carries the smaller slope count
    assert swapped.key == (table.colon(4, 2).lam_prime, table.colon(4, 4).lam_prime)
    assert len(table.classes) == 2


def test_qdata_holds_only_the_class():
    assert QData._fields == ("lam_prime", "eta_prime", "l0", "in_q")


def test_build_q_key_is_free_of_r():
    # one class across three r: the key holds only the two colon staircases
    assert build_q(3, 3, 1).key == build_q(4, 4, 2).key == build_q(6, 6, 7).key
    assert build_q(3, 3, 1).key == ((1, 0), (1, 0))


def test_build_q_rejects_small():
    with pytest.raises(InvalidSlopeCount):
        build_q(2, 3, 1)


@pytest.mark.parametrize(
    "a,b", [(a, b) for a in range(3, 9) for b in range(a, 9)]
)
def test_l0_lower_bound_remark(a, b):
    for r in range(0, 13):
        q = build_q(a, b, r)
        if q.is_trivial:
            continue
        assert q.l0 > Fraction((b - a) * r, (a - 1) * (b - 2)) - Fraction(a - 3, a - 1)


def test_structure_of_in_q_gens():
    for a, b, r in [(3, 3, 7), (3, 5, 9), (4, 6, 11), (5, 5, 8)]:
        q = build_q(a, b, r)
        expected = {M(i, 0, q.lam_prime[i]) for i in range(q.l0, q.i0 + 1)}
        expected |= {M(0, j, q.eta_prime[j]) for j in range(q.j0 + 1)}
        assert set(q.in_q.gens) == expected


def test_colon_initial_oracle_matches_both_routes():
    rng = random.Random(7)
    for s in range(2, 5):
        for r in (0, 2, 4, 6):
            slopes = random_slopes(rng, s)
            lhs = colon_initial_oracle(r, slopes)
            closed = colon_staircase(staircase_closed_form(r, s)).ideal("x")
            via_monomials = colon_by_monomial(
                initial_ideal_oracle(r, slopes), M(ez=r + 1)
            )
            assert lhs == closed == via_monomials


def test_sum_oracle_33_r2():
    got = sum_initial_oracle(2, [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)])
    assert got == build_q(3, 3, 2).in_q


def test_sum_oracle_34_r8():
    got = sum_initial_oracle(
        8, [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(2)]
    )
    assert got == build_q(3, 4, 8).in_q


def test_sum_oracle_r0_trivial():
    got = sum_initial_oracle(0, [Fraction(0), Fraction(5)], [Fraction(0), Fraction(-2)])
    assert got == minimalize([M()])


# -- the integer kernels against Fraction-level references -------------------


def fraction_power_matrix(r, slopes, d):
    """(v + c z)^{r+1} times the degree-(d-r-1) monomials over the basis
    v^d, v^{d-1} z, ..., z^d, with Fraction entries."""
    cols = []
    for c in slopes:
        for k in range(d - r):
            col = [Fraction(0)] * (d + 1)
            for m in range(r + 2):
                col[m + k] = comb(r + 1, m) * c**m
            cols.append(col)
    return RatMatrix.from_rows([[col[i] for col in cols] for i in range(d + 1)])


def slopes_with_zero(rng, s):
    out = {Fraction(0)}
    while len(out) < s:
        out.add(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return sorted(out)


def colon_bound(r, s):
    """A walk depth past every colon generator: two past the closed-form
    colon generators for s >= 2; a principal J' has its colon generated in
    degree r+1."""
    if s < 2:
        return r + 3
    return max(g.degree for g in colon_staircase(staircase_closed_form(r, s)).ideal().gens) + 2


@pytest.mark.parametrize("s", range(1, 5))
def test_colon_degree_basis_solves_the_colon(s):
    # the walk's sparse colon bases, one walk per slope set, through degree
    # r+3 and through the colon bound + 2, whichever is later
    rng = random.Random(5100 + s)
    for r in range(0, 9):
        slopes = slopes_with_zero(rng, s)
        top = max(r + 4, colon_bound(r, s) + 3)
        walk = _colon_bases(r, _slope_pairs(slopes))
        for e, basis in zip(range(top), walk):
            # each f is {t: coefficient of v^(e-t) z^t}, a primitive integer
            # vector with keys in 0..e, and the leads min(f) increase
            for f in basis:
                assert set(f) <= set(range(e + 1)) and all(f.values())
                assert gcd(*f.values()) == 1
            leads = [min(f) for f in basis]
            assert all(a < b for a, b in zip(leads, leads[1:]))
            dense = [[Fraction(f.get(t, 0)) for t in range(e + 1)] for f in basis]
            if s == 1:
                with pytest.raises(InvalidSlopeCount):
                    colon_degree_basis(r, slopes, e)
            else:
                scaled = [[v / f[min(f)] for v in row] for f, row in zip(basis, dense)]
                assert colon_degree_basis(r, slopes, e) == scaled
            mat = fraction_power_matrix(r, slopes, e + r + 1)
            shifts = RatMatrix.from_rows(
                [[int(t == i + r + 1) for i in range(e + 1)] for t in range(e + r + 2)]
            )
            # dim (J' : z^{r+1})_e = dim of the shifts' preimage in J'_{e+r+1}
            assert len(basis) == (e + 1) + rank(mat) - rank(mat.hstack(shifts))
            for row in dense:
                assert in_column_span(mat, [Fraction(0)] * (r + 1) + row)


def power_columns(r, pairs, d):
    """Columns (n1*v + n2*z)^{r+1}, for each integer pair (n1, n2), times the
    degree-(d-r-1) monomials, in the two-variable basis (v^d, v^{d-1} z,
    ..., z^d): the general-degree reference for the walk of J', which builds
    the degree-(r+1) powers alone."""
    cols = []
    for n1, n2 in pairs:
        form = [comb(r + 1, m) * n1 ** (r + 1 - m) * n2**m for m in range(r + 2)]
        for k in range(d - r):
            cols.append([0] * k + form + [0] * (d - r - 1 - k))
    return cols


@pytest.mark.parametrize("s", range(1, 5))
def test_initial_ideal_oracle_matches_fraction_pivot_rows(s):
    # the walk's one echelon of J', grown a level of v-shifted powers per
    # degree, against a from-scratch echelon of the power columns and the
    # Fraction pivot rows, through two degrees past the first where J'_d is
    # all of S_d (a principal J', s = 1, never fills: through degree r+4)
    rng = random.Random(5200 + s)
    for r in range(0, 9):
        slopes = slopes_with_zero(rng, s)
        gens = []
        full = None  # the first degree the walk fills
        stop = r + 4 if s == 1 else None
        walk = _power_echelons(r, _slope_pairs(slopes))
        for d, walked in zip(count(r + 1), walk):
            mat = fraction_power_matrix(r, slopes, d)
            cols = power_columns(r, _slope_pairs(slopes), d)
            for j, col in enumerate(cols):
                scale = Fraction(slopes[j // (d - r)].denominator) ** (r + 1)
                assert col == [scale * v for v in mat.column(j)]
            ech = DenseIntEchelon(d + 1)
            for col in cols:
                ech.insert(col)
            rows = pivot_rows(mat)
            # the walk keys the coefficient of v^k (z = 1) as -k
            assert ech.pivot_rows() == sorted(d + k for k in walked.pivots) == rows
            # same rank and no walk pivot, as a degree-d form, outside the
            # span: same space
            for piv in walked.pivots.values():
                assert not ech.insert([piv.get(t - d, 0) for t in range(d + 1)])
            if full is None:
                gens += [M(d - t, 0, t) for t in rows]
                if rows == list(range(d + 1)):  # saturated: J'_d = S_d
                    full, stop = d, d + 2
            if d == stop:
                break
        if s == 1:
            assert full is None
            with pytest.raises(InvalidSlopeCount):
                initial_ideal_oracle(r, slopes)
        else:
            assert rows == list(range(d + 1))  # and it stays saturated
            assert initial_ideal_oracle(r, slopes) == minimalize(gens)


@pytest.mark.parametrize(
    "oracle, args, calls",
    [
        (initial_ideal_oracle, (20, [Fraction(-4, 5), Fraction(3, 4)]), 1),
        (colon_initial_oracle, (20, [Fraction(-4, 5), Fraction(3, 4)]), 1),
        (sum_initial_oracle, (12, [0, 1], [0, 1, 2]), 2),
    ],
)
def test_power_columns_built_once_per_slope_set(monkeypatch, oracle, args, calls):
    # one echelon per walk, and each level inserts exactly what spans the
    # next J'_d: the s powers at level 0, then v times each pivot the level
    # before stored.  Re-inserting the s powers times v^L fails it (the
    # s = 3 side would insert 3 per level), and so does re-eliminating a
    # degree from its power columns
    walks = []  # (echelon, inserts so far, rank) after each level drawn, per walk
    real, real_insert = staircase._power_echelons, SparseIntEchelon.insert

    def counting(r, pairs):
        drawn = []
        walks.append(drawn)
        for ech in real(r, pairs):
            drawn.append((ech, ech.inserts, ech.rank))
            yield ech

    def counting_insert(self, vec):
        self.inserts = getattr(self, "inserts", 0) + 1
        return real_insert(self, vec)

    monkeypatch.setattr(staircase, "_power_echelons", counting)
    monkeypatch.setattr(SparseIntEchelon, "insert", counting_insert)
    oracle(*args)
    r, sizes = args[0], [len(slopes) for slopes in args[1:]]
    assert len(walks) == len(sizes) == calls
    for s, drawn in zip(sizes, walks):
        echs, inserts, ranks = zip(*drawn)
        assert len(drawn) > 1 and all(ech is echs[0] for ech in echs)  # one echelon
        per_level = [b - a for a, b in zip((0,) + inserts, inserts)]
        stored = [b - a for a, b in zip((0,) + ranks, ranks)]
        assert per_level == [s] + stored[:-1]
        # once J'_d = S_d (rank d + 1), each level stores one pivot, so from
        # the second level on after d every level inserts one vector
        late = [n for n, rank, d in zip(per_level[2:], ranks, count(r + 1)) if rank == d + 1]
        assert late == [1] * len(late)
        if s == 3:  # J'_19 = S_19, reached by storing 2 pivots
            assert per_level == [3] * 7 + [2, 1, 1] and late == [1, 1]


def _count_draws(monkeypatch, name):
    """Replace staircase.<name> by a wrapper that records, per walk, how
    many degrees the caller drew from it."""
    draws = []
    real = getattr(staircase, name)

    def counting(r, pairs):
        draws.append(0)
        slot = len(draws) - 1
        for item in real(r, pairs):
            draws[slot] += 1
            yield item

    monkeypatch.setattr(staircase, name, counting)
    return draws


def fill_degree(ideal, monomials=monomials_of_degree):
    """The least degree d with every monomial of `monomials(d)` in the ideal."""
    return next(d for d in count() if all(ideal.contains(m) for m in monomials(d)))


def xz_monomials(d):
    return [M(d - t, 0, t) for t in range(d + 1)]


@pytest.mark.parametrize("s", [7, 8])
@pytest.mark.parametrize("r", [5, 16, 24])
def test_initial_and_colon_oracles_stop_where_they_fill(monkeypatch, r, s):
    # the closed forms fill at their last generator's degree (lambda_0 for
    # In J'), two below the old lambda_0 + 2 style search bounds
    slopes = random_slopes(random.Random(5300 + 31 * r + s), s)
    st = staircase_closed_form(r, s)
    closed_colon = colon_staircase(st).ideal("x")
    draws = _count_draws(monkeypatch, "_power_echelons")
    assert initial_ideal_oracle(r, slopes) == st.ideal("x")
    assert draws == [st.lam[0] - r] == [fill_degree(st.ideal("x"), xz_monomials) - r]
    draws = _count_draws(monkeypatch, "_colon_bases")
    assert colon_initial_oracle(r, slopes) == closed_colon
    assert draws == [fill_degree(closed_colon, xz_monomials) + 1]


@pytest.mark.parametrize(
    "s1, s2, stop",
    [
        (4, 4, 11),  # a search bound of two past In Q's generators stopped at 10
        (2, 2, 24),  # ... and at 26
        (2, 15, 12),
        (15, 15, 1),
    ],
)
def test_sum_oracle_stops_where_it_fills(monkeypatch, s1, s2, stop):
    rng = random.Random(5400 + 16 * s1 + s2)
    slopes1, slopes2 = random_slopes(rng, s1), random_slopes(rng, s2)
    in_q = build_q(s1 + 1, s2 + 1, 24).in_q
    draws = _count_draws(monkeypatch, "_colon_bases")
    assert sum_initial_oracle(24, slopes1, slopes2) == in_q
    assert fill_degree(in_q) == stop
    assert draws == [stop + 1, stop + 1]  # degrees 0..stop on each side


@pytest.mark.parametrize("r", [48, 96])
def test_initial_and_colon_oracles_past_the_caps(r):
    # the CLI caps r at 24; the walk of J' checks both closed forms far past it
    rng = random.Random(5500 + r)
    for s in range(2, 6):
        slopes = random_slopes(rng, s)
        st = staircase_closed_form(r, s)
        assert initial_ideal_oracle(r, slopes) == st.ideal("x")
        assert colon_initial_oracle(r, slopes) == colon_staircase(st).ideal("x")


@pytest.mark.parametrize("r", [32, 40])
def test_sum_oracle_past_the_caps(r):
    rng = random.Random(5600 + r)
    for s1, s2 in [(2, 2), (2, 4), (4, 4)]:
        slopes1, slopes2 = random_slopes(rng, s1), random_slopes(rng, s2)
        assert sum_initial_oracle(r, slopes1, slopes2) == build_q(s1 + 1, s2 + 1, r).in_q


@pytest.mark.parametrize(
    "oracle, args",
    [
        (initial_ideal_oracle, (4, [Fraction(1, 2)])),
        (colon_initial_oracle, (4, [Fraction(1, 2)])),
        (sum_initial_oracle, (4, [Fraction(1, 2)], [0, 1])),
        (sum_initial_oracle, (4, [0, 1], [Fraction(1, 2)])),
    ],
)
def test_oracles_refuse_one_slope(oracle, args):
    with pytest.raises(InvalidSlopeCount):
        oracle(*args)


def test_index_to_exps_round_trip():
    for d in range(0, 31):
        for pos, m in enumerate(monomials_of_degree(d)):
            assert monomial_index(m.ey, m.ez) == pos
            assert index_exponents(pos) == (m.ey, m.ez)
        assert pos == (d + 1) * (d + 2) // 2 - 1


def test_pruned_in_q_check_survives_python_O():
    script = """
import splinereg.staircase as st
from splinereg.errors import StaircaseInvariant
from splinereg.monomials import minimalize

assert not __debug__
real_sum = st.ideal_sum
st.ideal_sum = lambda a, b: minimalize(real_sum(a, b).gens[1:])
try:
    st.build_q(3, 4, 8)
except StaircaseInvariant as exc:
    print("raised:", exc)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(splinereg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: pruned generator list")


def test_colon_initial_oracle_budget():
    start = time.perf_counter()
    got = colon_initial_oracle(20, [Fraction(-4, 5), Fraction(3, 4)])
    elapsed = time.perf_counter() - start
    assert got == colon_staircase(staircase_closed_form(20, 2)).ideal("x")
    assert elapsed < 0.2, f"colon_initial_oracle(20, 2 slopes) took {elapsed:.2f}s"
