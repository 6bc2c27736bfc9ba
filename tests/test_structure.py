import ast
import importlib
import importlib.util
from pathlib import Path

import splinereg

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


def test_spline_dim_oracle_does_not_reach_the_formula():
    # the brute-force spline dimension is the independent witness for the
    # formula built from H0 and the local resolutions, so neither it nor a
    # chains helper it calls may name any piece of that formula
    names = _names_reached("chains.py", ["spline_dim_oracle"])
    assert {"SparseIntEchelon", "_poly_pow"} <= names  # the walk does see calls
    forbidden = {
        "H0Table",
        "_h0_dim",
        "boundary_rank",
        "ideal_complex",
        "schumaker_local",
        "interior_stats",
        "spline_dim_formulas",
    }
    assert not names & forbidden


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
    assert {"DenseIntEchelon", "_power_columns", "_power_echelons"} <= names  # sees calls
    forbidden = {
        "staircase_closed_form",
        "colon_staircase",
        "build_q",
        "Staircase",
        "ColonStaircase",
    }
    assert not names & forbidden


def test_chain_oracle_stays_on_integers():
    # the boundary map is built in translated integer vertex frames, so
    # neither it nor a chains helper it calls may need rational arithmetic
    # or a frame inverse
    names = _names_reached("chains.py", ["boundary_rank", "ideal_complex"])
    assert {"SparseIntEchelon", "_poly_pow", "IdealComplexData"} <= names  # sees calls
    assert not names & {"Fraction", "_mat_inverse", "_row_times"}
    imported = set(_imported_modules(ast.parse((PACKAGE / "chains.py").read_text(encoding="utf-8"))))
    assert "splinereg.geometry.LinearForm" in imported  # the checker does see imports
    assert not imported & {
        "fractions", "splinereg.geometry._mat_inverse", "splinereg.geometry._row_times"
    }


def test_no_module_imports_functools():
    # a functools cache outlives the run that filled it and grows without
    # bound; state shared between degrees lives on the run's own objects
    # (`ClosedFormTable`, `H0Table`, `IdealComplexData`)
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
