"""Exact-arithmetic regularity engine for the spline homology module of
planar simplicial complexes with one totally interior edge, with every
closed-form step validated against brute-force linear-algebra oracles."""

from .chains import (
    boundary_rank,
    h0_hilbert_oracle,
    h0_regularity_oracle,
    ideal_complex,
    local_hilbert,
    spline_dim_formula,
    spline_dim_local,
    spline_dim_oracle,
    spline_dim_oracles,
)
from .geometry import (
    SimplicialComplex,
    ce1_complex,
    interior_stats,
    normalize_one_edge,
    one_edge_complex,
    parse_complex,
    single_triangle,
    square_with_diagonals,
    star_complex,
    two_triangles,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    hilbert_function,
    ideal_sum,
    max_socle_degree,
    minimalize,
    mono_lcm,
)
from .ratlinalg import RatMatrix, in_column_span, pivot_rows, rank
from .regularity import (
    PathBounds,
    RegularityReport,
    path_bounds,
    regularity_from_complex,
    regularity_one_edge,
)
from .staircase import (
    ClosedFormTable,
    ColonStaircase,
    QData,
    Staircase,
    build_q,
    colon_initial_oracle,
    colon_staircase,
    initial_ideal_oracle,
    staircase_closed_form,
    sum_initial_oracle,
)
from .syzygies import (
    BettiTable,
    BuchGraph,
    ClassRoutes,
    betti_oracle,
    bottom_face,
    buchberger_graph,
    class_routes,
    regularity_from_bottom_face,
)

__version__ = "0.1.0"
