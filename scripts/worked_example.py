#!/usr/bin/env python3
"""Walk through the (a, b, r) = (3, 4, 8) computation end to end and print
every intermediate object next to its oracle confirmation."""
from fractions import Fraction

from splinereg.chains import h0_hilbert_oracle
from splinereg.geometry import one_edge_complex
from splinereg.monomials import max_socle_degree
from splinereg.regularity import regularity_from_complex, regularity_one_edge
from splinereg.staircase import (
    build_q,
    initial_ideal_oracle,
    staircase_closed_form,
    sum_initial_oracle,
)
from splinereg.syzygies import betti_oracle, class_routes

A, B, R = 3, 4, 8


def show(label, value):
    print(f"{label:<34} {value}")


def main():
    st1 = staircase_closed_form(R, A - 1)
    st2 = staircase_closed_form(R, B - 1)
    show("lambda (x side, s=2):", st1.lam)
    show("In J'(v1):", st1.ideal("x"))
    show("oracle, slopes {0,1}:", initial_ideal_oracle(R, [Fraction(0), Fraction(1)]))
    show("In J'(v2):", st2.ideal("y"))
    show("oracle, slopes {0,1,2}:",
         initial_ideal_oracle(R, [Fraction(0), Fraction(1), Fraction(2)], axis="y"))

    q = build_q(A, B, R)
    show("In Q:", q.in_q)
    show("sum oracle:", sum_initial_oracle(R, [Fraction(0), Fraction(1)],
                                            [Fraction(0), Fraction(1), Fraction(2)]))
    show("(i0, j0, l0):", (q.i0, q.j0, q.l0))

    routes = class_routes(q)
    show("edge lcms:", [m.render() for m in routes.graph.edge_lcms()])
    show("syz2 closed form:", [m.render() for m in routes.syz2])
    show("face lcms (bottom first):", [m.render() for m in routes.syz3])
    table = betti_oracle(q.in_q)
    show("Betti beta_1 multidegrees:", [m.render() for m in table.multidegrees(1)])
    show("Betti beta_2 multidegrees:", [m.render() for m in table.multidegrees(2)])
    show("socle degree of S/In Q:", max_socle_degree(q.in_q))

    rep = regularity_one_edge(A, B, R)
    show("exact regularity:", rep.exact)
    show("bounds:", (rep.lower, rep.upper))

    print()
    print("chain-complex confirmation on a concrete one-edge complex (slow):")
    c = one_edge_complex(A, B)
    show("  H0 dimension at d=14:", h0_hilbert_oracle(c, R, 14))
    show("  H0 dimension at d=15:", h0_hilbert_oracle(c, R, 15))
    rep2 = regularity_from_complex(c, R)
    show("  three routes:", rep2.routes)


if __name__ == "__main__":
    main()
