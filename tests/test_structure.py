import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import splinereg
from splinereg.monomials import Monomial, MonomialIdeal
from splinereg.ratlinalg import RatMatrix

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(splinereg.__file__).resolve().parent


def _imported_modules(tree):
    """Dotted names of every module an AST imports, relative ones resolved
    inside the package (`from .x import y` -> splinereg.x, and
    `from . import x` -> splinereg.x)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("splinereg." + (node.module or "")) if node.level else node.module
            yield base.rstrip(".")
            yield from (f"{base.rstrip('.')}.{alias.name}" for alias in node.names)


def test_traced_names_resolve_and_ratlinalg_is_test_reference_only():
    # the benchmark's tracer wraps these names from outside; a rename here
    # would silently drop a layer from every traced run
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, funcs in tracer.LAYERS.items():
        mod = importlib.import_module(f"splinereg.{mod_name}")
        for fname in funcs:
            assert callable(getattr(mod, fname, None)), f"{mod_name}.{fname}"
    echelon = importlib.import_module("splinereg._echelon")
    for cls_name in tracer.ECHELON:
        assert "insert" in vars(getattr(echelon, cls_name)), cls_name

    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names = set(_imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
        if "splinereg.ratlinalg" in names:
            importers.add(path.name)
    assert importers <= {"ratlinalg.py", "__init__.py"}, importers
    assert "__init__.py" in importers  # the checker does see relative imports


def _names_in(path):
    """Every name a Python file mentions: names, attributes, definitions
    and imported aliases."""
    return {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    }


def test_dense_echelon_is_test_reference_only():
    # every production elimination runs on the sparse echelon; the dense
    # one stays as the tests' from-scratch reference and a traced name
    naming = {path.name for path in PACKAGE.glob("*.py") if "DenseIntEchelon" in _names_in(path)}
    assert naming == {"_echelon.py"}  # the checker does see the definition


def test_only_geometry_derives_lines_and_slopes():
    # a complex derives each interior edge's line and slope once, when it
    # is built, and every other module reads the stored `forms` and `slopes`
    naming = {
        path.name for path in PACKAGE.glob("*.py") if _names_in(path) & {"through", "slope_key"}
    }
    assert naming == {"geometry.py"}  # the checker does see the definitions


def _parameters(path):
    """(function, parameter) for every parameter of every function, method
    and lambda a Python file defines."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            yield from ((getattr(node, "name", "<lambda>"), arg.arg) for arg in args)


def test_no_function_takes_interior_statistics():
    # each function that reads the interior statistics derives them with
    # `interior_stats(c, r)`, which reads the lines and slopes the complex
    # stores, so none takes them as an argument
    params = {
        (path.name, fn, arg) for path in sorted(PACKAGE.glob("*.py")) for fn, arg in _parameters(path)
    }
    assert ("regularity.py", "path_bounds", "h0") in params  # the walk does see parameters
    assert not {p for p in params if p[2] == "stats"}


def test_socle_route_does_not_import_the_closed_form():
    # the socle degree of S/In Q is the independent witness for the
    # bottom-face closed form, so the monomial layer must not reach it
    tree = ast.parse((PACKAGE / "monomials.py").read_text(encoding="utf-8"))
    names = set(_imported_modules(tree))
    assert "splinereg.errors" in names  # the checker does see relative imports
    modules = {".".join(n.split(".")[:2]) for n in names}
    assert not modules & {"splinereg.staircase", "splinereg.syzygies", "splinereg.regularity"}


def _names_reached(module, roots):
    """Every name mentioned by the functions `roots` of a package module and,
    in turn, by each module-level function or class of it that they mention."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    funcs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    names, todo = set(), list(roots)
    while todo:
        fname = todo.pop()
        for node in ast.walk(funcs[fname]):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name and name not in names:
                names.add(name)
                if name in funcs:
                    todo.append(name)
    return names


def _module_names(module):
    """The names a package module defines or imports at its top level."""
    names = set()
    for node in ast.parse((PACKAGE / module).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def test_spline_dim_oracle_does_not_reach_the_formula():
    # the brute-force spline dimension is the independent witness for the
    # formula built from H0 and the local resolutions, so neither it nor a
    # chains helper it calls may name any piece of that formula or of the
    # chain oracle's boundary walk
    names = _names_reached("chains.py", ["spline_dim_oracle", "spline_dim_oracles"])
    assert {"SparseIntEchelon", "_times_linear", "spline_dim_oracles"} <= names  # sees calls
    forbidden = {
        "H0Table",
        "_h0_walk",
        "boundary_rank",
        "ideal_complex",
        "_boundary_walk",
        "local_hilbert",
        "interior_stats",
        "spline_dim_local",
    }
    assert not names & forbidden
    # of the chains module's own and imported names, the two oracles share
    # only the echelon, the linear-factor product (and what it calls),
    # count_degree and the input type both take
    module = _module_names("chains.py")
    chain = _names_reached("chains.py", ["H0Table", "h0_regularity_oracle", "h0_hilbert_oracle"])
    assert {"_h0_walk", "_boundary_walk", "_power_echelons"} <= chain  # sees calls
    kernels = _names_reached("chains.py", ["_times_linear"]) & module
    allowed = kernels | {"SparseIntEchelon", "_times_linear", "count_degree", "SimplicialComplex"}
    shared = names & chain & module
    assert shared <= allowed, shared - allowed


def test_local_hilbert_ranks_nothing():
    # the vertex term and the formula's local part are counts in closed
    # form, checked against the walk of J', the chain oracle's H0 and the
    # spline oracle, so they must not reach any of them
    ranked = {"SparseIntEchelon", "_power_echelons", "H0Table", "_h0_walk"}
    names = _names_reached("chains.py", ["local_hilbert"])
    assert "count_degree" in names  # sees calls
    assert not names & ranked
    names = _names_reached("chains.py", ["spline_dim_local"])
    assert {"local_hilbert", "interior_stats"} <= names  # sees calls
    assert not names & ranked


def test_test_references_do_not_import_the_walks_kernels():
    # the per-degree references for the chain and spline walks expand their
    # polynomials with conftest's own product, so a wrong production
    # kernel cannot agree with itself
    kernels = {"_times_linear"}
    assert kernels <= _names_in(PACKAGE / "chains.py")  # sees definitions
    assert "poly_mul" in _names_in(ROOT / "tests" / "conftest.py")
    naming = {path.name for path in (ROOT / "tests").glob("*.py") if _names_in(path) & kernels}
    assert not naming, naming


def test_power_walk_does_not_reach_the_closed_form():
    # the walk of J' degree by degree, the colon step read off it and the
    # three oracles that stop on their own echelons are the independent
    # witnesses for the staircase, colon and In Q closed forms, so neither
    # they nor a staircase helper they call may name one
    names = _names_reached(
        "staircase.py",
        [
            "_power_echelons",
            "_colon_bases",
            "colon_degree_basis",
            "initial_ideal_oracle",
            "colon_initial_oracle",
            "sum_initial_oracle",
        ],
    )
    assert {"SparseIntEchelon", "_power_echelons"} <= names  # sees calls
    forbidden = {
        "staircase_closed_form",
        "colon_staircase",
        "build_q",
        "Staircase",
        "ColonStaircase",
    }
    assert not names & forbidden


def test_buchberger_graph_does_not_reach_the_closed_form():
    # the graph's edges and faces are the independent witness for the
    # second- and third-syzygy closed forms and the bottom face, so neither
    # it nor a syzygies helper it calls may name one
    names = _names_reached("syzygies.py", ["buchberger_graph", "_region_faces"])
    assert {"Monomial", "_edges", "BuchGraph"} <= names  # the walk does see calls
    forbidden = {
        "syz2_closed_form",
        "syz3_closed_form",
        "bottom_face",
        "QData",
        "regularity_from_bottom_face",
    }
    assert not names & forbidden


def test_betti_oracle_does_not_reach_the_closed_form():
    # the Betti oracle is the independent witness for the second and third
    # syzygies, so it reads only In Q's generators: neither it nor a
    # syzygies helper it calls may name a closed form, the graph, the class
    # routes or the socle route's staircase heights
    names = _names_reached("syzygies.py", ["betti_oracle", "_lcm_closure", "_koszul_homology"])
    assert "contains" in names  # the walk does see calls
    forbidden = {
        "syz2_closed_form",
        "syz3_closed_form",
        "bottom_face",
        "buchberger_graph",
        "class_routes",
        "QData",
        "regularity_from_bottom_face",
        "max_socle_degree",
    }
    assert not names & forbidden


def test_only_class_routes_assembles_the_syzygy_closed_forms():
    # `syzygies.class_routes` builds a class's graph and both syzygy closed
    # forms and checks them as it builds them, so no other module or script
    # names a closed form and prints what no check has seen
    closed_forms = {"syz2_closed_form", "syz3_closed_form"}
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        names = _names_in(path)
        if names & closed_forms:
            naming.add(path.name)
    assert naming == {"syzygies.py"}


def _indented_json_writes(tree):
    """Line numbers of the stdlib JSON encoder calls that pass an `indent`:
    `json.dumps`, `json.dump` or a `JSONEncoder` built with one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in {"dumps", "dump", "JSONEncoder"}:
                yield node.lineno


def test_cli_emit_is_the_only_json_writer():
    # output is formatted one way: `cli._emit` prints JSON through
    # `cli._dumps`, which gives the indented encoder's bytes without
    # running it, and no module indents JSON any other way
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert list(_indented_json_writes(tree)) == [], path.name
    found = _indented_json_writes(ast.parse("x = json.dumps(v, sort_keys=True, indent=2)"))
    assert list(found) == [1]  # the checker does see such a call
    cli_tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    emit = next(n for n in ast.walk(cli_tree) if isinstance(n, ast.FunctionDef) and n.name == "_emit")
    assert "_dumps" in {getattr(n, "id", None) for n in ast.walk(emit)}


def test_chain_oracle_stays_on_integers():
    # the boundary map is built in translated integer vertex frames, so
    # neither it nor a chains helper it calls may need rational arithmetic
    # or a frame inverse
    names = _names_reached("chains.py", ["boundary_rank", "ideal_complex"])
    assert {"SparseIntEchelon", "_times_linear", "IdealComplexData"} <= names  # sees calls
    assert not names & {"Fraction", "_mat_inverse", "_row_times"}
    imported = set(_imported_modules(ast.parse((PACKAGE / "chains.py").read_text(encoding="utf-8"))))
    assert "splinereg.geometry.LinearForm" in imported  # the checker does see imports
    assert not imported & {
        "fractions", "splinereg.geometry._mat_inverse", "splinereg.geometry._row_times"
    }


def test_no_module_imports_functools():
    # a functools cache outlives the run that filled it and grows without
    # bound; state shared between degrees lives on the run's own objects
    # (`ClosedFormTable`, and `H0Table` with the one walk it holds)
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names = set(_imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
        seen |= names
        assert not {n for n in names if n.split(".")[0] == "functools"}, path.name
    assert {"fractions", "math.comb"} <= seen  # the checker does see imports


def test_no_assert_in_src():
    # `python -O` strips asserts, so every check in the package is a typed
    # raise that still runs there
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at line(s) {lines}"


def test_records_hold_values_not_run_state():
    # a record is a value: a live iterator in one of its fields is run
    # state that advances under every holder of the record, so a walk
    # lives in the generator of the run that reads it
    records = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in getattr(node, "bases", ())}
            if isinstance(node, ast.ClassDef) and "NamedTuple" in bases:
                records[node.name] = [
                    (stmt.target.id, {getattr(n, "id", None) or getattr(n, "attr", None)
                                      for n in ast.walk(stmt.annotation)})
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                ]
    assert {"IdealComplexData", "EdgeGroup", "QData"} <= set(records)  # sees the records
    assert any("LinearForm" in names for _, names in records["EdgeGroup"])  # and annotations
    live = {
        (record, field)
        for record, fields in records.items()
        for field, names in fields
        if names & {"Iterator", "Generator"}
    }
    assert not live, sorted(live)


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast and dis, and every
    # dataclass execs freshly generated methods on each start; the records
    # are NamedTuples instead
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names = set(_imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
        seen |= names
        assert not {n for n in names if n.split(".")[0] == "dataclasses"}, path.name
    assert "typing.NamedTuple" in seen  # the checker does see imports


def _run_python(*argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # compared with the same interpreter before the import, so modules that
    # `site` loads at start do not count
    script = """
import sys
before = set(sys.modules)
import splinereg.cli
print(sorted({"dataclasses", "inspect", "splinereg.cli"} & (set(sys.modules) - before)))
"""
    assert _run_python("-c", script).strip() == "['splinereg.cli']"


# every check a record runs when it is built, as (expression, exact message);
# `_replace` builds through the same checks
CONSTRUCTION_CHECKS = [
    ("Monomial(1, -1, 0)", "negative exponent"),
    ("Monomial(1, 2, 3)._replace(ez=-1)", "negative exponent"),
    ("MonomialIdeal((Monomial(2), Monomial(3)))", "generators are not an antichain"),
    (
        "MonomialIdeal((Monomial(0, 1), Monomial(1)))",
        "generators not in canonical lex-descending order",
    ),
    (
        "MonomialIdeal((Monomial(1),))._replace(gens=(Monomial(0, 1), Monomial(1)))",
        "generators not in canonical lex-descending order",
    ),
    ("RatMatrix(2, 2, (Fraction(1),) * 3)", "entry count does not match rows*cols"),
    ("RatMatrix.identity(2)._replace(rows=3)", "entry count does not match rows*cols"),
]
RECORDS = {
    "Fraction": Fraction, "Monomial": Monomial, "MonomialIdeal": MonomialIdeal, "RatMatrix": RatMatrix
}


@pytest.mark.parametrize("expr, message", CONSTRUCTION_CHECKS)
def test_construction_checks_raise(expr, message):
    with pytest.raises(ValueError) as exc:
        eval(expr, dict(RECORDS))
    assert str(exc.value) == message


def test_construction_checks_run_under_python_O():
    script = """
import sys
from fractions import Fraction
from splinereg.monomials import Monomial, MonomialIdeal
from splinereg.ratlinalg import RatMatrix

assert not __debug__
for expr in sys.argv[1:]:
    try:
        eval(expr)
    except ValueError as exc:
        print(exc)
    else:
        print("built:", expr)
"""
    out = _run_python("-O", "-c", script, *(expr for expr, _ in CONSTRUCTION_CHECKS))
    assert out.splitlines() == [message for _, message in CONSTRUCTION_CHECKS]
