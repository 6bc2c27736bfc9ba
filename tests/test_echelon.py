"""Property tests of the integer echelon kernel against the Fraction
reference in `ratlinalg` and of the in-place sparse step against the
earlier out-of-place one, plus an exact count of its normalisation work."""
from fractions import Fraction
from functools import reduce
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from splinereg import _echelon, staircase
from splinereg._echelon import DenseIntEchelon, SparseIntEchelon
from splinereg.chains import h0_regularity_oracle
from splinereg.geometry import one_edge_complex
from splinereg.ratlinalg import RatMatrix, pivot_rows, rank

# small entries make dependencies likely; entries past 2^64 exercise the
# big-integer growth the kernel must absorb without a threshold
ENTRY = st.one_of(st.integers(-3, 3), st.integers(-(1 << 80), 1 << 80))


@st.composite
def vector_lists(draw):
    """Integer vectors of one length: random rows, then zero rows, repeated
    rows and integer combinations of earlier rows, shuffled together."""
    n = draw(st.integers(1, 7))
    vecs = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=1, max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combo"]), max_size=5)):
        if kind == "zero":
            vecs.append([0] * n)
        elif kind == "repeat":
            vecs.append(list(draw(st.sampled_from(vecs))))
        else:
            u, w = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            p, q = draw(ENTRY), draw(ENTRY)
            vecs.append([p * x + q * y for x, y in zip(u, w)])
    return draw(st.permutations(vecs))


def _columns(vecs):
    """The vectors as the columns of a RatMatrix."""
    return RatMatrix.from_rows([[Fraction(v[i]) for v in vecs] for i in range(len(vecs[0]))])


def _fill(vecs):
    dense, sparse = DenseIntEchelon(len(vecs[0])), SparseIntEchelon()
    for v in vecs:
        dense.insert(v)
        sparse.insert(dict(enumerate(v)))
    return dense, sparse


@settings(max_examples=150, deadline=None)
@given(vector_lists())
def test_rank_and_pivot_rows_match_fraction_reference(vecs):
    dense, sparse = _fill(vecs)
    ref = _columns(vecs)
    assert dense.rank == sparse.rank == rank(ref)
    assert dense.pivot_rows() == sorted(sparse.pivots) == pivot_rows(ref)


@settings(max_examples=150, deadline=None)
@given(vector_lists())
def test_stored_pivots_are_primitive_and_lead_at_their_key(vecs):
    dense, sparse = _fill(vecs)
    for lead, piv in dense.pivots.items():
        assert reduce(gcd, piv, 0) == 1
        assert not any(piv[:lead]) and piv[lead]
    for lead, piv in sparse.pivots.items():
        assert reduce(gcd, piv.values(), 0) == 1
        assert min(piv) == lead and all(piv.values())


@settings(max_examples=150, deadline=None)
@given(vector_lists(), st.data())
def test_zero_and_spanned_vectors_are_rejected(vecs, data):
    dense, sparse = _fill(vecs)
    n, r = len(vecs[0]), dense.rank
    coeffs = data.draw(st.lists(ENTRY, min_size=len(vecs), max_size=len(vecs)))
    spanned = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)]
    for vec in ([0] * n, spanned):
        assert dense.insert(vec) is False
        assert sparse.insert(dict(enumerate(vec))) is False
    assert dense.rank == sparse.rank == r


def _count_normalisations(monkeypatch):
    """Wrap `SparseIntEchelon.insert` and `_echelon._normalize_dict`; return
    the counters [vectors normalised, inserts that stored a pivot]."""
    counts = [0, 0]
    normalize, insert = _echelon._normalize_dict, SparseIntEchelon.insert

    def counting_normalize(vec):
        counts[0] += 1
        return normalize(vec)

    def counting_insert(self, vec):
        stored = insert(self, vec)
        counts[1] += stored
        return stored

    monkeypatch.setattr(_echelon, "_normalize_dict", counting_normalize)
    monkeypatch.setattr(SparseIntEchelon, "insert", counting_insert)
    return counts


def test_power_walk_normalises_once_per_stored_pivot(monkeypatch):
    # an exact work count rather than a timing: one echelon walks J' a level
    # per degree and stops at e = 20, where the colon basis fills, so it
    # stores exactly dim J'_41 = 42 pivots; a per-step re-normalisation of
    # reduced vectors fails it, and so does an echelon per degree
    counts = _count_normalisations(monkeypatch)
    staircase.colon_initial_oracle(20, [Fraction(-4, 5), Fraction(3, 4)])
    assert counts == [42, 42]


def test_sparse_normalises_once_per_stored_pivot(monkeypatch):
    # one echelon walks every degree of the run, so it stores exactly the
    # rank of the last degree ranked (d = 10): 81 boundary pivots, plus
    # dim J'(v)_10 = 11 for each of the two interior vertices, whose J'(v)
    # fills S_10 (the 103 pivots of three walks); a per-step
    # re-normalisation fails this, and so does an echelon per degree
    counts = _count_normalisations(monkeypatch)
    assert h0_regularity_oracle(one_edge_complex(3, 4), 5) == 9
    assert counts == [103, 103]


class _OutOfPlaceEchelon(SparseIntEchelon):
    """The sparse echelon with its earlier out-of-place reduction step,
    kept verbatim as the reference for the in-place one."""

    def insert(self, vec):
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            lead = min(vec)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = _echelon._normalize_dict(vec)
                return True
            a, b = piv[lead], vec[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            out = {k: a * v for k, v in vec.items()}
            for k, w in piv.items():
                nv = out.get(k, 0) - b * w
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
            vec = out
        return False


# a few keys make repeated leads common; tuple keys order like the old
# (block, index) labels, int keys like the block-major ones that replaced them
SPARSE_KEYS = st.one_of(
    st.just(list(range(6))), st.just([(b, i) for b in range(2) for i in range(3)])
)


@st.composite
def sparse_vector_lists(draw):
    """Sparse vectors as dicts over one key set, with explicit zero entries,
    empty vectors and integer combinations of earlier vectors mixed in."""
    keys = draw(SPARSE_KEYS)
    entry = st.one_of(st.just(0), ENTRY)
    vecs = draw(st.lists(st.dictionaries(st.sampled_from(keys), entry), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        u, w = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
        p, q = draw(ENTRY), draw(ENTRY)
        vecs.append({k: p * u.get(k, 0) + q * w.get(k, 0) for k in u.keys() | w.keys()})
    return draw(st.permutations(vecs))


@settings(max_examples=200, deadline=None)
@given(sparse_vector_lists())
def test_in_place_sparse_insert_matches_out_of_place_reference(vecs):
    ech, ref = SparseIntEchelon(), _OutOfPlaceEchelon()
    for vec in vecs:
        before = dict(vec)
        assert ech.insert(vec) == ref.insert(dict(vec))
        assert vec == before
        assert ech.rank == ref.rank
        assert ech.pivots.keys() == ref.pivots.keys()
