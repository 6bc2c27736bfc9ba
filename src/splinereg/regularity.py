"""Top-level engine: exact one-edge regularity with its sandwich bounds,
the <= 2r theorem check, and the path bounds for complexes with several
totally interior edges.

Every exact answer is produced by the closed-form bottom-face route and
cross-checked against the socle degree of In Q shifted by r+1; coming from
a concrete complex it is additionally checked against the chain-complex
rank oracle, and any disagreement is a hard error.

A sweep over many (a, b, r) cells shares one `staircase.ClosedFormTable`:
the route checks depend on a cell only through (r, lambda', eta'), so they
run once per such class, while each cell's sandwich is checked on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .chains import H0Table, h0_regularity_oracle
from .errors import HypothesisViolated, RouteDisagreement
from .geometry import SimplicialComplex, interior_stats, normalize_one_edge
from .monomials import Monomial, MonomialIdeal
from .staircase import ClosedFormTable, QData, build_q
from .syzygies import (
    bottom_face,
    buchberger_graph,
    regularity_from_bottom_face,
    syz2_closed_form,
    syz3_closed_form,
)


@dataclass(frozen=True)
class RegularityReport:
    a: int
    b: int
    r: int
    exact: int | None          # None: the module vanishes
    lower: int
    upper: int
    bottom_face: Monomial | None
    zeta0: int | None
    in_q: MonomialIdeal
    routes: dict
    conjecture_2r: bool
    vanishes: bool

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

    A sweep passes one `ClosedFormTable`.  The route checks (bottom face
    against socle degree, Buchberger graph, syz2/syz3 and the graph's bottom
    face) read only `QData.key` = (r, lambda', eta'), so they run once per
    key and the stored values serve every cell with it; the sandwich
    depends on (a, b) and is checked for each cell."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if table is None:
        table = ClosedFormTable()
    q = build_q(a, b, r, table)
    a, b = q.a, q.b
    alpha1 = (r + 1) // (a - 1)
    alpha2 = (r + 1) // (b - 1)
    lower = alpha1 + alpha2 + r - 1
    upper = alpha1 + alpha2 + r
    if q.is_trivial:
        return RegularityReport(
            a, b, r,
            exact=None,
            lower=lower,
            upper=upper,
            bottom_face=None,
            zeta0=None,
            in_q=q.in_q,
            routes={"bottom_face": None, "socle_shift": None},
            conjecture_2r=True,   # vacuously: the module is zero
            vanishes=True,
        )
    routes = table.routes.get(q.key)
    if routes is None:
        routes = table.routes[q.key] = _checked_routes(q)
    reg, socle, face = routes
    if not lower <= reg <= upper:
        raise RouteDisagreement(f"sandwich violated: {lower} <= {reg} <= {upper}")
    return RegularityReport(
        a, b, r,
        exact=reg,
        lower=lower,
        upper=upper,
        bottom_face=face,
        zeta0=face.ez,
        in_q=q.in_q,
        routes={"bottom_face": reg, "socle_shift": socle},
        conjecture_2r=reg <= 2 * r,
        vanishes=False,
    )


def _checked_routes(q: QData) -> tuple[int, int, Monomial]:
    """(bottom-face regularity, socle regularity, bottom face) of a
    nontrivial In Q, raising unless the Buchberger graph's faces pass the
    syzygy checks and its bottom face is the i0/j0/zeta0 face."""
    reg, socle = regularity_from_bottom_face(q)  # raises unless the routes agree
    face = bottom_face(q)
    graph = buchberger_graph(q.in_q)
    syz2_closed_form(q)  # runs the closed-form edge enumeration's checks
    ordered_faces = syz3_closed_form(graph)  # checks the z-order property
    if ordered_faces[0] != face:
        raise RouteDisagreement(
            f"graph bottom face {ordered_faces[0]} disagrees with i0/j0/zeta0 face {face}"
        )
    return reg, socle, face


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
    return replace(rep, routes={**rep.routes, "chain_oracle": oracle})


def check_2r_theorem(report: RegularityReport) -> bool:
    """exact <= 2r.

    For (a, b) != (3, 3), with 3 <= a <= b, the sandwich gives exact <=
    (r+1)//(a-1) + (r+1)//(b-1) + r <= (r+1)//2 + (r+1)//3 + r, so the
    bound follows from (r+1)//2 + (r+1)//3 <= r for every r >= 1.  For
    r = 1, 2, 3, 4 the left side is 1, 2, 3, 3.  For r >= 5 it is at most
    (r+1)/2 + (r+1)/3 = 5(r+1)/6 <= r, since 5r + 5 <= 6r.  The step is
    proved once here, not re-checked per call."""
    if report.exact is None:
        raise ValueError("2r check needs a nonzero module")
    return report.exact <= 2 * report.r


@dataclass(frozen=True)
class PathBounds:
    r: int
    per_edge: tuple  # (edge, lower term, upper term)
    lower: int | None
    upper: int | None
    oracle_ran: bool
    oracle_reg: int | None
    oracle_within: bool | None

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


def path_bounds(
    c: SimplicialComplex, r: int, run_oracle: bool = False, h0: H0Table | None = None
) -> PathBounds:
    """Regularity bounds maximized over the totally interior edges; needs
    every interior vertex to carry at least one partially interior edge.
    The oracle runs on the run's `H0Table` when one is passed."""
    stats = interior_stats(c, r)
    for v, st in sorted(stats.per_vertex.items()):
        if st.f1_0b == 0:
            raise HypothesisViolated(
                f"interior vertex {v} has only totally interior edges"
            )
    per_edge = []
    for e in stats.totally_interior:
        vi, vj = e
        ki, kj = stats.per_vertex[vi].k, stats.per_vertex[vj].k
        low = (r + 1) // (ki - 1) + (r + 1) // (kj - 1) + r - 1
        up = stats.alpha(vi) + stats.alpha(vj) + r
        per_edge.append((e, low, up))
    lower = max((lo for _, lo, _ in per_edge), default=None)
    upper = max((up for _, _, up in per_edge), default=None)
    oracle_reg = None
    within = None
    if run_oracle:
        oracle_reg = h0_regularity_oracle(c, r, h0)
        if oracle_reg is not None and lower is not None:
            within = lower <= oracle_reg <= upper
    return PathBounds(r, tuple(per_edge), lower, upper, run_oracle, oracle_reg, within)
