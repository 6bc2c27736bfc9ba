"""Command-line surface.

Subcommands: regularity, analyze, sweep, staircase, betti.  JSON is the
default output (stable key order, so identical configs give byte-identical
bytes); --format table is for humans.  Each `cmd_*` returns its command's
fields, and `main` puts `schema` and `command` in front of them.  Exit code
0 iff no error was raised and no check failed.

The command line is read from one table, `_COMMANDS`, by `_parse_args`
(no argparse: building its parsers cost more than most commands' work).
Flags are `--name value` or `--name=value` and are never abbreviated;
what the table does not allow is a `UsageError`.
"""
from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import NamedTuple

from .chains import H0Table, spline_dim_local, spline_dim_oracles
from .errors import (
    BadRange, FlagAboveCap, NegativeFlag, NotAnInteger, ParseError, SplineRegError, UsageError,
)
from .geometry import parse_complex, interior_stats
from .regularity import path_bounds, regularity_from_complex, regularity_one_edge
from .staircase import ClosedFormTable, build_q, colon_staircase, staircase_closed_form
from .syzygies import betti_oracle, class_routes, syzygies_match_betti

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
# dicts per C-encoder call: one call for all of the sweep's rows doubles
# the peak memory of `_dumps`
_BATCH = 256


def _dumps(payload) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2)`, the same string.
    With an indent the stdlib encodes item by item in Python; here Python
    recurses only through containers that hold containers.  A container of
    scalars is one call of the C encoder (CPython's, whenever no indent is
    given), whose item separator already breaks to the items' indent, so
    only its brackets move onto their own lines; so is a list of flat
    dicts, such as the sweep's rows.  Keys are str: a container of
    containers quotes them with json's own `encode_basestring_ascii`, which
    takes nothing else."""
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
        if not is_dict and _flat_dicts(value):
            # one call per batch of dicts; the list's separator is theirs,
            # and only it is followed by "{", as a raw newline appears only
            # in a separator, so one replace moves their brackets
            deep = "\n" + "  " * (depth + 2)
            old, new = "}," + deep + "{", inner + "}," + inner + "{" + deep
            parts = ["[" + inner + "{" + deep]
            for i in range(0, len(value), _BATCH):
                if i:
                    parts.append(new)
                parts.append(flat(depth + 2)(value[i : i + _BATCH])[2:-2].replace(old, new))
            parts.append(inner + "}" + outer + "]")
            return "".join(parts)
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


def _flat_dicts(items) -> bool:
    """Whether `items` holds at least one dict, and only non-empty dicts of
    scalars."""
    for item in items:
        if not isinstance(item, dict) or not item:
            return False
        for v in item.values():
            if isinstance(v, _CONTAINERS):
                return False
    return bool(items)


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


def _class_record(a, b, r, table):
    """The whole `class_routes` record of cell (a, b, r), or None when its In
    Q is trivial.  Its (reg, socle, face) goes into `table`, so the route
    that reads the table runs no second `class_routes`, and one Buchberger
    graph serves the command."""
    q = build_q(a, b, r, table)
    if q.is_trivial:
        return None
    routes = class_routes(q)
    table.routes[q.key] = routes[:3]
    return routes


def cmd_regularity(args) -> dict:
    # one In Q and one class_routes record for the route and the Betti check
    table = ClosedFormTable()
    routes = _class_record(args.a, args.b, args.r, table) if args.oracle else None
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
        table = ClosedFormTable()
        routes = None
        if args.emit_graph:  # the edge's two slope counts, as the route reads them
            a, b = (stats.per_vertex[v].k for v in stats.totally_interior[0])
            routes = _class_record(a, b, args.r, table)
        report = regularity_from_complex(c, args.r, h0, table)
        payload["regularity"] = report.to_json_dict()
        if routes is not None:
            payload["buchberger_graph"] = _graph_dict(routes.graph)
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


class _Command(NamedTuple):
    help: str
    positional: str | None  # the one positional argument, if any
    flags: dict             # value flag -> required, in usage order
    switches: tuple


# the command line: command `x` runs `cmd_x`, and every command also takes
# the flags of _COMMON; no flag may be abbreviated
_COMMANDS = {
    "regularity": _Command(
        "exact regularity from (a, b, r)", None, {"a": True, "b": True, "r": True}, ("oracle",)
    ),
    "analyze": _Command(
        "analyze a complex file", "path", {"r": True, "d": False}, ("oracle", "emit-graph")
    ),
    "sweep": _Command(
        "sweep a grid of (a, b, r), each a range lo..hi or one value", None,
        {"a": True, "b": True, "r": True}, (),
    ),
    "staircase": _Command(
        "staircases, colon staircases, In Q", None,
        {"r": True, "s": False, "a": False, "b": False}, ("emit-graph",),
    ),
    "betti": _Command(
        "Betti table of In Q vs closed-form syzygies", None, {"a": True, "b": True, "r": True}, ()
    ),
}
_COMMON = _Command("", None, {"format": False}, ("unsafe-no-cap",))
_FORMATS = ("json", "table")  # --format's choices, the first its default
_FLAG_HELP = {"d": "also print spline dimensions up to d", "unsafe-no-cap": "lift the r/a/b/s/d caps"}
_PROG = "spline-reg"
_HELP = ("-h", "--help")


def _is_flag(token: str) -> bool:
    """A dash and then anything but a digit: such a token is never taken
    as a value, so `--a --b 4` lacks a's value while `--a -1..3` has one."""
    return len(token) > 1 and token[0] == "-" and not token[1].isdecimal()


def _usage(command: str | None) -> str:
    """The help text of `spline-reg` or of one command, built from the table."""
    if command is None:
        lines = [
            f"usage: {_PROG} [-h] {{{','.join(_COMMANDS)}}} ...",
            "",
            "Exact regularity of the spline homology module of planar complexes",
            "",
            "commands:",
        ]
        lines += [f"  {name:<12}{spec.help}" for name, spec in _COMMANDS.items()]
        return "\n".join(lines)
    spec = _COMMANDS[command]
    words, shown = ["[-h]"], {}  # shown: flag -> how the usage writes it
    for part in (_COMMON, spec):
        words += [part.positional] if part.positional else []
        for name, required in part.flags.items():
            metavar = "{" + ",".join(_FORMATS) + "}" if name == "format" else name.upper()
            word = shown[name] = f"--{name} {metavar}"
            words.append(word if required else f"[{word}]")
        for name in part.switches:
            shown[name] = f"--{name}"
            words.append(f"[--{name}]")
    lines = [f"usage: {_PROG} {command} {' '.join(words)}", "", spec.help, ""]
    lines += [f"  {shown[name]:<18}{text}" for name, text in _FLAG_HELP.items() if name in shown]
    return "\n".join(lines)


def _parse_args(argv) -> SimpleNamespace:
    """The command named by argv's first token, with one attribute per flag
    of the command (a value flag's text or None, a switch's bool, `--format`
    json by default) and its positional.  A value flag reads `--name value`
    or `--name=value`, the last one given winning.  `-h`/`--help` prints the
    usage and exits 0; anything else the table does not allow is a
    UsageError, a missing flag before an unknown one."""
    if not argv:
        raise UsageError(f"{_PROG}: the following arguments are required: command")
    command, tokens = argv[0], argv[1:]
    if command in _HELP:
        print(_usage(None))
        raise SystemExit(0)
    spec = _COMMANDS.get(command)
    if spec is None:
        choices = ", ".join(map(repr, _COMMANDS))
        raise UsageError(f"{_PROG}: argument command: invalid choice: {command!r} (choose from {choices})")
    prog = f"{_PROG} {command}"
    flags = {**_COMMON.flags, **spec.flags}
    switches = _COMMON.switches + spec.switches
    values, unknown = {}, []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if not _is_flag(token):
            if spec.positional is None or spec.positional in values:
                unknown.append(token)
            else:
                values[spec.positional] = token
            continue
        if token in _HELP:
            print(_usage(command))
            raise SystemExit(0)
        option, given, value = token.partition("=")
        name = option[2:] if option[:2] == "--" else None
        if name in flags:
            if not given:
                if i == len(tokens) or _is_flag(tokens[i]):
                    raise UsageError(f"{prog}: argument {option}: expected one argument")
                value = tokens[i]
                i += 1
            if name == "format" and value not in _FORMATS:
                raise UsageError(
                    f"{prog}: argument {option}: invalid choice: {value!r} "
                    f"(choose from {', '.join(map(repr, _FORMATS))})"
                )
            values[name] = value
        elif name in switches:
            if given:
                raise UsageError(f"{prog}: argument {option}: ignored explicit argument {value!r}")
            values[name] = True
        else:
            unknown.append(token)
    missing = [spec.positional] if spec.positional and spec.positional not in values else []
    missing += [f"--{name}" for name, required in spec.flags.items() if required and name not in values]
    if missing:
        raise UsageError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"{_PROG}: unrecognized arguments: {' '.join(unknown)}")
    fields = {**dict.fromkeys(flags), "format": _FORMATS[0], **dict.fromkeys(switches, False), **values}
    return SimpleNamespace(command=command, **{k.replace("-", "_"): v for k, v in fields.items()})


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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        _read_flags(args)
        # looked up by name when it runs, so a wrapper set on the module
        # attribute (perfbench's tracer) is the function called
        run = globals()[f"cmd_{args.command}"]
        payload = {"schema": SCHEMA, "command": args.command, **run(args)}
    except (SplineRegError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload)
    if payload.get("violations") or any(f is False for f in _check_fields(payload)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
