#!/usr/bin/env python3
"""Sweep the standard (a, b, r) grid, print one line per cell, and recheck
every closed form against the Betti oracle.  One ClosedFormTable serves the
whole grid: each colon staircase is built once per (r, s), and In Q with the
route checks once per class (lambda', eta').  The Betti recheck reads only
the class record, which holds no r, so it too runs once per class and every
cell of the class prints its result.
A cell whose pipeline raises a SplineRegError is listed by the error's name
and the sweep goes on.  Exits nonzero on any violation."""
import argparse
import sys
import time

from splinereg.errors import SplineRegError
from splinereg.regularity import regularity_one_edge
from splinereg.staircase import ClosedFormTable, build_q
from splinereg.syzygies import betti_oracle, class_routes, syzygies_match_betti


def _cell(a, b, r, table, betti):
    """One grid row and the labels of the cell's failed rechecks; `betti`
    holds each class's recheck result by `QData.key`."""
    rep = regularity_one_edge(a, b, r, table)
    if rep.vanishes:
        return f"{a:>2} {b:>2} {r:>3} {'zero':>6}", []
    q = build_q(a, b, r, table)
    ok = betti.get(q.key)
    if ok is None:
        routes = class_routes(q)
        ok = betti[q.key] = syzygies_match_betti(betti_oracle(q.in_q), routes.syz2, routes.syz3)
    betti_ok = "ok" if ok else "FAIL"
    failed = [] if ok else ["betti"]
    if not rep.conjecture_2r:
        failed.append("2r")
    return (f"{a:>2} {b:>2} {r:>3} {rep.exact:>6} {rep.lower:>6} "
            f"{rep.upper:>6} {rep.zeta0:>5} {str(rep.conjecture_2r):>5} {betti_ok:>5}"), failed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a-max", type=int, default=8)
    ap.add_argument("--b-max", type=int, default=8)
    ap.add_argument("--r-max", type=int, default=12)
    args = ap.parse_args()

    t0 = time.monotonic()
    bad = []
    cells = 0
    table = ClosedFormTable()
    betti = {}
    print(f"{'a':>2} {'b':>2} {'r':>3} {'exact':>6} {'lower':>6} {'upper':>6} "
          f"{'zeta0':>5} {'<=2r':>5} {'betti':>5}")
    for a in range(3, args.a_max + 1):
        for b in range(a, args.b_max + 1):
            for r in range(1, args.r_max + 1):
                cells += 1
                try:
                    row, failed = _cell(a, b, r, table, betti)
                except SplineRegError as exc:
                    failed = [type(exc).__name__]
                    row = f"{a:>2} {b:>2} {r:>3} {failed[0]}"
                bad += [(a, b, r, f) for f in failed]
                print(row)
    print(f"\n{cells} cells in {time.monotonic() - t0:.1f}s; violations: {bad or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
