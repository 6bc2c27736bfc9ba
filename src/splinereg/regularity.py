"""Top-level engine: exact one-edge regularity with its sandwich bounds
and its <= 2r property, plus the path bounds for complexes with several
totally interior edges.

Every exact answer is produced by the closed-form bottom-face route and
cross-checked against the socle degree of In Q, both shifted by r+1; coming
from a concrete complex it is additionally checked against the
chain-complex rank oracle, and any disagreement is a hard error.

A sweep over many (a, b, r) cells shares one `staircase.ClosedFormTable`,
so the route checks run once per (lambda', eta') class, whose record holds
no r, while each cell's sandwich is checked on its own.
"""
from __future__ import annotations

from typing import NamedTuple

from .chains import H0Table, h0_regularity_oracle
from .errors import HypothesisViolated, RouteDisagreement
from .geometry import SimplicialComplex, interior_stats, normalize_one_edge
from .monomials import Monomial, MonomialIdeal
from .staircase import ClosedFormTable, build_q
from .syzygies import class_routes


class RegularityReport(NamedTuple):
    a: int
    b: int
    r: int
    exact: int | None          # None: the module vanishes
    lower: int
    upper: int
    bottom_face: Monomial | None
    in_q: MonomialIdeal
    routes: dict

    @property
    def vanishes(self) -> bool:
        return self.exact is None

    @property
    def zeta0(self) -> int | None:
        return None if self.bottom_face is None else self.bottom_face.ez

    @property
    def conjecture_2r(self) -> bool:
        """exact <= 2r, vacuously true when the module vanishes.

        For (a, b) != (3, 3), with 3 <= a <= b, the sandwich gives exact <=
        (r+1)//(a-1) + (r+1)//(b-1) + r <= (r+1)//2 + (r+1)//3 + r, so the
        bound follows from (r+1)//2 + (r+1)//3 <= r for every r >= 1.  For
        r = 1, 2, 3, 4 the left side is 1, 2, 3, 3.  For r >= 5 it is at
        most (r+1)/2 + (r+1)/3 = 5(r+1)/6 <= r, since 5r + 5 <= 6r.  The
        step is proved once here, not re-checked per call."""
        return self.exact is None or self.exact <= 2 * self.r

    @property
    def routes_agree(self) -> bool:
        vals = set(self.routes.values())
        return len(vals) == 1

    def to_json_dict(self):
        return {
            "a": self.a,
            "b": self.b,
            "r": self.r,
            "exact_regularity": self.exact,
            "lower_bound": self.lower,
            "upper_bound": self.upper,
            "bottom_face": self.bottom_face.render() if self.bottom_face else None,
            "zeta0": self.zeta0,
            "in_q": [g.render() for g in self.in_q.gens],
            "routes": {k: self.routes[k] for k in sorted(self.routes)},
            "routes_agree": self.routes_agree,
            "conjecture_2r_holds": self.conjecture_2r,
            "module_vanishes": self.vanishes,
        }


def regularity_one_edge(
    a: int, b: int, r: int, table: ClosedFormTable | None = None
) -> RegularityReport:
    """Closed-form pipeline for slope counts (a, b) and smoothness r; the
    sandwich alpha1 + alpha2 + r - 1 <= reg <= alpha1 + alpha2 + r is
    checked whenever the module is nonzero.

    A sweep passes one `ClosedFormTable`, which keeps each class's checked
    `syzygies.class_routes` values; this is the one place they are shifted
    by the cell's r+1.  The sandwich is checked for each cell."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if table is None:
        table = ClosedFormTable()
    q = build_q(a, b, r, table)
    if a > b:
        a, b = b, a
    alpha1 = (r + 1) // (a - 1)
    alpha2 = (r + 1) // (b - 1)
    lower = alpha1 + alpha2 + r - 1
    upper = alpha1 + alpha2 + r
    if q.is_trivial:
        reg = socle = face = None
    else:
        routes = table.routes.get(q.key)
        if routes is None:
            routes = table.routes[q.key] = class_routes(q)[:3]
        reg, socle, face = routes[0] + r + 1, routes[1] + r + 1, routes[2]
        if not lower <= reg <= upper:
            raise RouteDisagreement(f"sandwich violated: {lower} <= {reg} <= {upper}")
    return RegularityReport(
        a, b, r, reg, lower, upper, face, q.in_q, {"bottom_face": reg, "socle_shift": socle}
    )


def regularity_from_complex(
    c: SimplicialComplex, r: int, h0: H0Table | None = None
) -> RegularityReport:
    """Exact regularity of a one-edge complex: identify the edge, run the
    closed-form pipeline on (a, b) = (k(v1), k(v2)), then confirm with the
    chain-complex oracle (on the run's `H0Table` when passed); the three
    routes must agree."""
    norm = normalize_one_edge(c, r)
    rep = regularity_one_edge(norm.a, norm.b, r)
    oracle = h0_regularity_oracle(c, r, h0)
    if oracle != rep.exact:
        raise RouteDisagreement(
            f"chain-complex oracle found {oracle}, closed form {rep.exact}"
        )
    return rep._replace(routes={**rep.routes, "chain_oracle": oracle})


class PathBounds(NamedTuple):
    r: int
    per_edge: tuple  # (edge, lower term, upper term)
    lower: int | None
    upper: int | None
    oracle_ran: bool
    oracle_reg: int | None

    @property
    def oracle_within(self) -> bool | None:
        """lower <= oracle_reg <= upper, or None when either side is missing."""
        if self.oracle_reg is None or self.lower is None:
            return None
        return self.lower <= self.oracle_reg <= self.upper

    def to_json_dict(self):
        return {
            "r": self.r,
            "per_edge": [
                {"edge": list(e), "lower": lo, "upper": up}
                for e, lo, up in self.per_edge
            ],
            "lower_bound": self.lower,
            "upper_bound": self.upper,
            "oracle_ran": self.oracle_ran,
            "oracle_regularity": self.oracle_reg,
            "oracle_within_bounds": self.oracle_within,
        }


def path_bounds(c: SimplicialComplex, r: int, h0: H0Table | None = None) -> PathBounds:
    """Regularity bounds maximized over the totally interior edges; needs
    every interior vertex to carry at least one partially interior edge.
    The chain-complex oracle runs, on `h0`, iff the run's `H0Table` is
    passed."""
    stats = interior_stats(c, r)
    for v, st in sorted(stats.per_vertex.items()):
        if st.f1_0b == 0:
            raise HypothesisViolated(
                f"interior vertex {v} has only totally interior edges"
            )
    per_edge = []
    for e in stats.totally_interior:
        si, sj = (stats.per_vertex[v] for v in e)
        low = (r + 1) // (si.k - 1) + (r + 1) // (sj.k - 1) + r - 1
        per_edge.append((e, low, si.alpha + sj.alpha + r))
    lower = max((lo for _, lo, _ in per_edge), default=None)
    upper = max((up for _, _, up in per_edge), default=None)
    oracle_reg = None if h0 is None else h0_regularity_oracle(c, r, h0)
    return PathBounds(r, tuple(per_edge), lower, upper, h0 is not None, oracle_reg)
