"""Command-line surface.

Subcommands: regularity, analyze, sweep, staircase, betti.  JSON is the
default output (stable key order, so identical configs give byte-identical
bytes); --format table is for humans.  Each `cmd_*` returns its command's
fields, and `main` puts `schema` and `command` in front of them.  Exit code
0 iff no error was raised and no check failed.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from json.encoder import encode_basestring_ascii

from .chains import H0Table, spline_dim_local, spline_dim_oracles
from .errors import (
    BadRange, FlagAboveCap, NegativeFlag, NotAnInteger, ParseError, SplineRegError, UsageError,
)
from .geometry import parse_complex, interior_stats
from .regularity import path_bounds, regularity_from_complex, regularity_one_edge
from .staircase import ClosedFormTable, build_q, colon_staircase, staircase_closed_form
from .syzygies import betti_oracle, buchberger_graph, class_routes, syzygies_match_betti

SCHEMA = "spline-reg/1"
_INT_RE = re.compile(r"-?[0-9]+")  # ASCII only, used with fullmatch, like the coordinates
# every integer flag in the order it is read and checked, with its cap (d's
# is 4r+2 at the largest r) and the name its errors give, which a and b share
_FLAGS = {"r": (24, "r"), "d": (98, "d"), "s": (15, "s"), "a": (16, "a/b"), "b": (16, "a/b")}


def _ascii_int(text: str) -> int | None:
    """The value of an integer flag's text, or None when it is not one:
    `int()` alone would also read other Unicode digits, surrounding
    whitespace and underscores, and fails past its digit limit."""
    if _INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:
            pass
    return None


def _parse_range(text: str) -> tuple[int, int]:
    """The ends lo <= hi of a range flag `lo..hi` or `n`, so the caps are
    checked before anything sized by the range is built."""
    lo, sep, hi = text.partition("..")
    lo, hi = _ascii_int(lo), _ascii_int(hi if sep else lo)
    if lo is None or hi is None:
        raise BadRange(f"range {text!r} is not an integer or lo..hi")
    if hi < lo:
        raise BadRange(f"empty range {text!r}")
    return lo, hi


def _read_flags(args) -> None:
    """Replace the text of every integer flag given by its value (a `sweep`
    range by its ends lo, hi), then check the values in table order: for
    each message name, a negative value first, then one above the cap."""
    checks = {}  # message name -> (cap, values read)
    for name, (cap, what) in _FLAGS.items():
        text = getattr(args, name, None)
        if text is None:
            continue
        if args.command == "sweep":
            value = ends = _parse_range(text)
        else:
            value = _ascii_int(text)
            if value is None:
                raise NotAnInteger(f"{name} = {text!r} is not an integer")
            ends = (value,)
        setattr(args, name, value)
        checks.setdefault(what, (cap, []))[1].extend(ends)
    for what, (cap, values) in checks.items():
        for v in values:
            if v < 0:
                raise NegativeFlag(f"{what} = {v} is negative")
        for v in values:
            if v > cap and not args.unsafe_no_cap:
                raise FlagAboveCap(f"{what} = {v} above the cap {cap}; pass --unsafe-no-cap to override")


def _read_complex(path):
    """The complex in the file at `path`; text that is not UTF-8 is a
    ParseError, and a file that cannot be opened an OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not UTF-8: {exc}") from None
    return parse_complex(text)


def _emit(args, payload) -> None:
    if args.format == "json":
        print(_dumps(payload))
    else:
        _print_table(payload)


_CONTAINERS = (dict, list, tuple)


def _dumps(payload) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2)`, the same string.
    With an indent the stdlib encodes item by item in Python; here Python
    recurses only through containers that hold containers.  A container of
    scalars is one call of the C encoder (CPython's, whenever no indent is
    given), whose item separator already breaks to the items' indent, so
    only its brackets move onto their own lines.  Keys are str: a container
    of containers quotes them with json's own `encode_basestring_ascii`,
    which takes nothing else."""
    encoders = []  # depth -> `encode` of a container of scalars at that depth

    def flat(depth):
        while len(encoders) <= depth:
            pad = "\n" + "  " * len(encoders)
            # a container of scalars cannot be circular
            encoder = json.JSONEncoder(check_circular=False, sort_keys=True, separators=("," + pad, ": "))
            encoders.append(encoder.encode)
        return encoders[depth]

    def write(value, depth):
        if not isinstance(value, _CONTAINERS):
            return flat(depth)(value)
        is_dict = isinstance(value, dict)
        inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        for v in value.values() if is_dict else value:
            if isinstance(v, _CONTAINERS):
                break
        else:
            text = flat(depth + 1)(value)
            return text[0] + inner + text[1:-1] + outer + text[-1] if value else text
        if is_dict:
            items = [
                f"{encode_basestring_ascii(k)}: {write(v, depth + 1)}" for k, v in sorted(value.items())
            ]
        else:
            items = [write(v, depth + 1) for v in value]
        opening, closing = "{}" if is_dict else "[]"
        return opening + inner + ("," + inner).join(items) + outer + closing

    return write(payload, 0)


def _print_table(payload, indent=0):
    pad = " " * indent
    if isinstance(payload, dict):
        for k in payload:
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 2)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _print_table(v, indent)
                print()
            else:
                print(f"{pad}{v}")
    else:
        print(f"{pad}{payload}")


def _graph_dict(graph):
    return {
        "nodes": [g.render() for g in graph.nodes],
        "edges": [
            {"pair": [i, j], "lcm": m.render()} for i, j, m in graph.edges
        ],
        "faces": [
            {"region": list(idx), "lcm": m.render()} for idx, m in graph.faces
        ],
    }


def cmd_regularity(args) -> dict:
    # one In Q and one class_routes record for the route and the Betti
    # check: the route reads the record's (reg, socle, face) off the table
    table = ClosedFormTable()
    routes = None
    if args.oracle:
        q = build_q(args.a, args.b, args.r, table)
        if not q.is_trivial:
            routes = class_routes(q)
            table.routes[q.key] = routes[:3]
    report = regularity_one_edge(args.a, args.b, args.r, table)
    payload = report.to_json_dict()
    if routes is not None:
        payload["betti_confirms_syzygies"] = syzygies_match_betti(
            betti_oracle(report.in_q), routes.syz2, routes.syz3
        )
    if not report.vanishes:
        payload["theorem_2r_holds"] = report.conjecture_2r
    return payload


def cmd_analyze(args) -> dict:
    c = _read_complex(args.path)
    stats = interior_stats(c, args.r)
    h0 = H0Table(c, args.r)  # one ideal complex and one rank per H0 degree
    payload = {
        "f_vector": [len(c.vertices), len(c.edges), len(c.triangles)],
        "interior_data": stats.to_json_dict(),
    }
    if len(stats.totally_interior) == 1 and len(c.interior_vertices) == 2:
        report = regularity_from_complex(c, args.r, h0)
        payload["regularity"] = report.to_json_dict()
        if args.emit_graph and not report.vanishes:
            payload["buchberger_graph"] = _graph_dict(buchberger_graph(report.in_q))
    elif args.emit_graph:
        raise SplineRegError("--emit-graph needs one totally interior edge and two interior vertices")
    elif stats.totally_interior:
        pb = path_bounds(c, args.r, h0 if args.oracle else None)
        payload["path_bounds"] = pb.to_json_dict()
    else:
        payload["note"] = "no totally interior edges: H0 vanishes"
    if args.d is not None:
        dims = []
        oracle = spline_dim_oracles(c, args.r, args.d) if args.oracle else None
        local, h0_dims = spline_dim_local(c, args.r, args.d), h0.upto(args.d)
        for d in range(args.d + 1):
            entry = {"d": d, "dim_formula": local[d] + h0_dims[d]}
            if oracle is not None:
                entry["dim_oracle"] = oracle[d]
                entry["agree"] = entry["dim_formula"] == entry["dim_oracle"]
            dims.append(entry)
        payload["spline_dimensions"] = dims
    return payload


def cmd_sweep(args) -> dict:
    (a_lo, a_hi), (b_lo, b_hi), (r_lo, r_hi) = args.a, args.b, args.r
    rows = []
    violations = []
    table = ClosedFormTable()  # one colon staircase per (r, s), one In Q check per class
    for a in range(a_lo, a_hi + 1):
        for b in range(b_lo, b_hi + 1):
            if b < a:
                continue
            for r in range(r_lo, r_hi + 1):
                try:
                    rep = regularity_one_edge(a, b, r, table)
                    holds, agree = rep.conjecture_2r, rep.routes_agree
                    rows.append(
                        {
                            "a": a,
                            "b": b,
                            "r": r,
                            "exact": rep.exact,
                            "lower": rep.lower,
                            "upper": rep.upper,
                            "zeta0": rep.zeta0,
                            "conjecture_2r": holds,
                            "routes_agree": agree,
                        }
                    )
                    if not holds or not agree:
                        violations.append(f"({a},{b},{r})")
                except SplineRegError as exc:
                    violations.append(f"({a},{b},{r}): {type(exc).__name__}: {exc}")
    summary = f"{len(rows)} cells, {len(violations)} violations"
    return {"rows": rows, "violations": violations, "summary": summary}


def cmd_staircase(args) -> dict:
    payload = {"r": args.r}
    if args.s is not None:
        if args.a is not None or args.b is not None or args.emit_graph:
            raise SplineRegError("staircase --s takes no --a, --b or --emit-graph")
        st = staircase_closed_form(args.r, args.s)
        cs = colon_staircase(st)
        payload.update(
            {
                "s": args.s,
                "lambda": list(st.lam),
                "initial_ideal": [g.render() for g in st.ideal("x").gens],
                "lambda_prime": list(cs.lam_prime),
                "i0": cs.i0,
                "colon_ideal": [g.render() for g in cs.ideal("x").gens],
            }
        )
        return payload
    if args.a is None or args.b is None:
        raise SplineRegError("staircase needs either --s or both --a and --b")
    q = build_q(args.a, args.b, args.r)
    a, b = sorted((args.a, args.b))
    payload.update(
        {
            "a": a,
            "b": b,
            "lambda": list(staircase_closed_form(args.r, a - 1).lam),
            "eta": list(staircase_closed_form(args.r, b - 1).lam),
            "lambda_prime": list(q.lam_prime),
            "eta_prime": list(q.eta_prime),
            "i0": q.i0,
            "j0": q.j0,
            "l0": q.l0,
            "in_q": [g.render() for g in q.in_q.gens],
        }
    )
    if args.emit_graph and not q.is_trivial:
        routes = class_routes(q)
        payload["buchberger_graph"] = _graph_dict(routes.graph)
        payload["syz2"] = [m.render() for m in routes.syz2]
        payload["syz3"] = [m.render() for m in routes.syz3]
    return payload


def cmd_betti(args) -> dict:
    q = build_q(args.a, args.b, args.r)
    a, b = sorted((args.a, args.b))
    payload = {"a": a, "b": b, "r": args.r, "in_q": [g.render() for g in q.in_q.gens]}
    table = betti_oracle(q.in_q)
    payload["betti"] = {
        str(i): [m.render() for m in table.multidegrees(i)] for i in (0, 1, 2)
    }
    if not q.is_trivial:
        routes = class_routes(q)
        payload["syz2_closed_form"] = [m.render() for m in routes.syz2]
        payload["syz3_closed_form"] = [m.render() for m in routes.syz3]
        payload["closed_forms_match_oracle"] = syzygies_match_betti(table, routes.syz2, routes.syz3)
    return payload


class _Parser(argparse.ArgumentParser):
    """Raises `UsageError` where argparse would exit 2; subcommands inherit it."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="spline-reg",
        description="Exact regularity of the spline homology module of planar complexes",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--unsafe-no-cap", action="store_true", help="lift the r/a/b/s/d caps")
    sub = p.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("regularity", help="exact regularity from (a, b, r)", parents=[common])
    reg.add_argument("--a", required=True)
    reg.add_argument("--b", required=True)
    reg.add_argument("--r", required=True)
    reg.add_argument("--oracle", action="store_true")
    reg.set_defaults(func=cmd_regularity)

    an = sub.add_parser("analyze", help="analyze a complex file", parents=[common])
    an.add_argument("path")
    an.add_argument("--r", required=True)
    an.add_argument("--d", default=None, help="also print spline dimensions up to d")
    an.add_argument("--oracle", action="store_true")
    an.add_argument("--emit-graph", action="store_true")
    an.set_defaults(func=cmd_analyze)

    sw = sub.add_parser("sweep", help="sweep a grid of (a, b, r)", parents=[common])
    sw.add_argument("--a", required=True, help="range, e.g. 3..8")
    sw.add_argument("--b", required=True)
    sw.add_argument("--r", required=True)
    sw.set_defaults(func=cmd_sweep)

    st = sub.add_parser("staircase", help="staircases, colon staircases, In Q", parents=[common])
    st.add_argument("--r", required=True)
    st.add_argument("--s", default=None)
    st.add_argument("--a", default=None)
    st.add_argument("--b", default=None)
    st.add_argument("--emit-graph", action="store_true")
    st.set_defaults(func=cmd_staircase)

    be = sub.add_parser("betti", help="Betti table of In Q vs closed-form syzygies", parents=[common])
    be.add_argument("--a", required=True)
    be.add_argument("--b", required=True)
    be.add_argument("--r", required=True)
    be.set_defaults(func=cmd_betti)
    return p


def _check_fields(payload) -> list:
    """Every check field of a payload, looked up where its command puts it;
    a sweep's rows are covered by its `violations`."""
    fields = [
        payload.get(key)
        for key in ("betti_confirms_syzygies", "theorem_2r_holds", "closed_forms_match_oracle")
    ]
    fields.append(payload.get("path_bounds", {}).get("oracle_within_bounds"))
    fields += [entry.get("agree") for entry in payload.get("spline_dimensions", ())]
    return fields


def main(argv=None) -> int:
    # argparse takes a value such as -1..3 for an option and exits 2, so a
    # dash-and-digit token is joined to the integer flag before it, as
    # --a=-1..3 would be, and reaches the typed checks
    joined = []
    for tok in sys.argv[1:] if argv is None else argv:
        flag = joined[-1] if joined else ""
        if flag[:2] == "--" and flag[2:] in _FLAGS and re.match("-[0-9]", tok):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    try:
        args = build_parser().parse_args(joined)
        _read_flags(args)
        payload = {"schema": SCHEMA, "command": args.command, **args.func(args)}
    except (SplineRegError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload)
    if payload.get("violations") or any(f is False for f in _check_fields(payload)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
