import builtins
import hashlib
import importlib
import io
import json
import re
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from splinereg import chains, cli, errors, geometry, regularity
from splinereg.cli import main
from splinereg.geometry import ce1_complex, one_edge_complex
from splinereg.staircase import ClosedFormTable, build_q


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_regularity_command(capsys):
    code, out, _ = run(capsys, "regularity", "--a", "3", "--b", "4", "--r", "8")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "spline-reg/1"
    assert data["exact_regularity"] == 14
    assert data["lower_bound"] == 14 and data["upper_bound"] == 15


def test_regularity_33_r5(capsys):
    code, out, _ = run(capsys, "regularity", "--a", "3", "--b", "3", "--r", "5")
    assert code == 0
    assert json.loads(out)["exact_regularity"] == 10


def test_regularity_rejects_a2(capsys):
    code, _, err = run(capsys, "regularity", "--a", "2", "--b", "3", "--r", "1")
    assert code != 0
    assert "InvalidSlopeCount" in err


def test_regularity_with_oracle(capsys):
    code, out, _ = run(capsys, "regularity", "--a", "3", "--b", "4", "--r", "6", "--oracle")
    assert code == 0
    assert json.loads(out)["betti_confirms_syzygies"] is True


def test_regularity_oracle_builds_q_once(capsys, monkeypatch):
    # the route and the Betti check share one ClosedFormTable and one
    # class_routes record, so each colon staircase (s = 2, 3), In Q's
    # pruning check, the class checks and the Buchberger graph run once
    import splinereg.staircase as st
    import splinereg.syzygies as syz

    calls = Counter()
    for mods, name in (((st,), "staircase_closed_form"), ((st,), "_pruned_union"),
                       ((syz, regularity, cli), "class_routes"), ((syz,), "buchberger_graph")):
        def counted(*args, _real=getattr(mods[0], name), _name=name):
            calls[_name] += 1
            return _real(*args)
        for mod in mods:
            monkeypatch.setattr(mod, name, counted)
    code, out, _ = run(capsys, "regularity", "--a", "3", "--b", "4", "--r", "24", "--oracle")
    assert code == 0
    assert json.loads(out)["betti_confirms_syzygies"] is True
    assert calls == {
        "staircase_closed_form": 2, "_pruned_union": 1, "class_routes": 1, "buchberger_graph": 1,
    }


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "regularity", "--a", "4", "--b", "5", "--r", "7")
    _, out2, _ = run(capsys, "regularity", "--a", "4", "--b", "5", "--r", "7")
    assert out1 == out2


def test_caps_enforced(capsys):
    code, _, err = run(capsys, "regularity", "--a", "3", "--b", "3", "--r", "40")
    assert code == 1
    assert err == "error: FlagAboveCap: r = 40 above the cap 24; pass --unsafe-no-cap to override\n"
    code, _, _ = run(
        capsys, "regularity", "--a", "3", "--b", "3", "--r", "25", "--unsafe-no-cap"
    )
    assert code == 0


def test_staircase_r0(capsys):
    code, out, _ = run(capsys, "staircase", "--r", "0", "--s", "2")
    assert code == 0
    assert json.loads(out)["initial_ideal"] == ["x", "z"]


def test_staircase_r8_s3(capsys):
    code, out, _ = run(capsys, "staircase", "--r", "8", "--s", "3")
    data = json.loads(out)
    assert data["lambda"] == [13, 11, 10, 8, 7, 5, 4, 2, 1]


def test_staircase_full(capsys):
    code, out, _ = run(
        capsys, "staircase", "--r", "8", "--a", "3", "--b", "4", "--emit-graph"
    )
    assert code == 0
    data = json.loads(out)
    assert data["in_q"] == ["x^4", "x^3 z^2", "y^3", "y^2 z", "y z^2", "z^4"]
    assert sorted(e["lcm"] for e in data["buchberger_graph"]["edges"]) == sorted(
        ["x^4 z^2", "x^3 z^4", "y^3 z", "y^2 z^2", "y z^4",
         "x^4 y^3", "x^4 y^2 z", "x^3 y z^2"]
    )
    assert data["syz3"] == ["x^4 y^3 z", "x^4 y^2 z^2", "x^3 y z^4"]


def test_sweep_33(capsys):
    code, out, _ = run(capsys, "sweep", "--a", "3..3", "--b", "3..3", "--r", "1..12")
    assert code == 0
    data = json.loads(out)
    assert [row["exact"] for row in data["rows"]] == [2 * r for r in range(1, 13)]
    assert data["violations"] == []


def test_sweep_full_grid_no_violations(capsys):
    code, out, _ = run(capsys, "sweep", "--a", "3..8", "--b", "3..8", "--r", "1..12")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert data["summary"].endswith("0 violations")


def test_sweep_empty_range_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--a", "5..3", "--b", "3..3", "--r", "1..2")
    assert code == 1
    assert err == "error: BadRange: empty range '5..3'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("betti", "--a", "17", "--b", "3", "--r", "2"),
         "FlagAboveCap: a/b = 17 above the cap 16; pass --unsafe-no-cap to override"),
        (("staircase", "--r", "2", "--s", "16"),
         "FlagAboveCap: s = 16 above the cap 15; pass --unsafe-no-cap to override"),
        (("sweep", "--a", "3..3", "--b", "3..3", "--r", "20..25"),
         "FlagAboveCap: r = 25 above the cap 24; pass --unsafe-no-cap to override"),
        (("sweep", "--a", "3..x", "--b", "3..3", "--r", "1..2"),
         "BadRange: range '3..x' is not an integer or lo..hi"),
        (("sweep", "--a", "3", "--b", "3..", "--r", "1..2"),
         "BadRange: range '3..' is not an integer or lo..hi"),
        (("sweep", "--a", "3..3", "--b", "3..3", "--r", "two"),
         "BadRange: range 'two' is not an integer or lo..hi"),
        # both are checked before anything sized by the value is built
        (("analyze", "ce1.json", "--r", "2", "--d", "10000000000000"),
         "FlagAboveCap: d = 10000000000000 above the cap 98; pass --unsafe-no-cap to override"),
        (("sweep", "--a", "3..4", "--b", "3..4", "--r", "1..10000000000000"),
         "FlagAboveCap: r = 10000000000000 above the cap 24; pass --unsafe-no-cap to override"),
        # a range's ends are ASCII digits, as the coordinates are
        (("sweep", "--a", " 3", "--b", "3..4", "--r", "1..2"),
         "BadRange: range ' 3' is not an integer or lo..hi"),
        (("sweep", "--a", "3", "--b", "3..\u0664", "--r", "1..2"),
         "BadRange: range '3..\u0664' is not an integer or lo..hi"),
        (("sweep", "--a", "3", "--b", "3", "--r", "1_0"),
         "BadRange: range '1_0' is not an integer or lo..hi"),
        # a value that starts with '-' and a digit belongs to the flag before
        # it, as with --a=-1..3
        (("sweep", "--a", "-1..3", "--b", "3", "--r", "1"), "NegativeFlag: a/b = -1 is negative"),
    ],
    ids=[
        "cap-ab", "cap-s", "cap-sweep-r", "non-integer", "open", "word", "cap-d", "huge-range",
        "space", "arabic-indic", "underscore", "negative-range",
    ],
)
def test_flag_errors_are_typed(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("regularity", "--a", "3", "--b", "4", "--r", "2.5"), "r = '2.5' is not an integer"),
        (("analyze", "complex.json", "--r", "2", "--d", "ten"), "d = 'ten' is not an integer"),
        (("betti", "--a", "", "--b", "4", "--r", "2"), "a = '' is not an integer"),
        (("regularity", "--a", "3", "--b", "x", "--r", "2"), "b = 'x' is not an integer"),
        (("staircase", "--r", "2", "--s", "3..4"), "s = '3..4' is not an integer"),
        # ASCII digits only, as for the coordinates: int() alone reads these
        # as 8, 10, 3 and 2
        (("regularity", "--a", "3", "--b", "4", "--r", "\u0668"), "r = '\u0668' is not an integer"),
        (("regularity", "--a", "3", "--b", "4", "--r", "1_0"), "r = '1_0' is not an integer"),
        (("betti", "--a", " 3", "--b", "4", "--r", "2"), "a = ' 3' is not an integer"),
        (("staircase", "--r", "+2", "--s", "3"), "r = '+2' is not an integer"),
    ],
    ids=["r", "d", "a", "b", "s", "arabic-indic", "underscore", "space", "plus"],
)
def test_integer_flags_are_typed(capsys, argv, message):
    # each integer flag is read as text, so a bad value is its own typed
    # error rather than a usage error; analyze reports it before it opens
    # the (missing) file
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: NotAnInteger: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("betti", "--a", "3", "--b", "4", "--r", "4"),
        ("staircase", "--r", "4", "--a", "3", "--b", "4", "--emit-graph"),
    ],
    ids=["betti", "staircase"],
)
def test_printed_graph_and_syzygies_pass_the_class_checks(capsys, monkeypatch, argv):
    # the syzygies and graph these commands print come from
    # `syzygies.class_routes`, so a failing route check stops the command
    import splinereg.syzygies as syz

    real = syz.max_socle_degree
    monkeypatch.setattr(syz, "max_socle_degree", lambda ideal: real(ideal) + 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: SocleMismatch: bottom-face route gives 2, socle route 3\n"


def test_chain_oracle_disagreement_prints_both_values(tmp_path, capsys, monkeypatch):
    # a one-edge analyze stops when the chain-complex oracle and the closed
    # form disagree, and its one error line names both values
    real = regularity.h0_regularity_oracle
    monkeypatch.setattr(regularity, "h0_regularity_oracle", lambda c, r, h0=None: real(c, r, h0) + 1)
    code, out, err = run(capsys, "analyze", _one34_file(tmp_path), "--r", "4")
    assert (code, out) == (1, "")
    assert err == "error: RouteDisagreement: chain-complex oracle found 8, closed form 7\n"


def test_betti_command(capsys):
    code, out, _ = run(capsys, "betti", "--a", "3", "--b", "4", "--r", "8")
    assert code == 0
    data = json.loads(out)
    assert data["closed_forms_match_oracle"] is True
    assert len(data["betti"]["1"]) == 8 and len(data["betti"]["2"]) == 3


def test_analyze_one_edge(tmp_path, capsys):
    path = tmp_path / "one33.json"
    path.write_text(one_edge_complex(3, 3).to_json())
    code, out, _ = run(capsys, "analyze", str(path), "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert data["regularity"]["exact_regularity"] == 4
    assert data["regularity"]["routes"]["chain_oracle"] == 4


def test_analyze_ce1_path_bounds(tmp_path, capsys):
    path = tmp_path / "ce1.json"
    path.write_text(ce1_complex().to_json())
    code, out, _ = run(capsys, "analyze", str(path), "--r", "1", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["path_bounds"]["oracle_within_bounds"] is True


def test_analyze_spline_dims(tmp_path, capsys):
    path = tmp_path / "one33.json"
    path.write_text(one_edge_complex(3, 3).to_json())
    code, out, _ = run(capsys, "analyze", str(path), "--r", "1", "--d", "3", "--oracle")
    data = json.loads(out)
    dims = data["spline_dimensions"]
    assert all(row["agree"] for row in dims)
    assert dims[0]["dim_formula"] == 1


@pytest.mark.parametrize(
    "complex_, argv, degrees",
    [
        (ce1_complex, ("--r", "2", "--d", "10", "--oracle"), [3, 4, 5, 6]),
        (lambda: one_edge_complex(3, 4), ("--r", "5", "--d", "8", "--oracle"), [6, 7, 8, 9, 10]),
    ],
    ids=["ce1-path-bounds", "one34-regularity"],
)
def test_analyze_ranks_each_h0_degree_once(tmp_path, capsys, monkeypatch, complex_, argv, degrees):
    # the regularity oracle and the spline-dimension formulas share one H0
    # table: one ideal complex, and each degree ranked once
    builds, ranked = [], []
    build, h0_walk = chains.ideal_complex, chains._h0_walk

    def counted_build(c, r):
        builds.append(r)
        return build(c, r)

    def counted_walk(c, r):
        for d, dim in enumerate(h0_walk(c, r), r + 1):
            ranked.append(d)
            yield dim

    monkeypatch.setattr(chains, "ideal_complex", counted_build)
    monkeypatch.setattr(chains, "_h0_walk", counted_walk)
    path = tmp_path / "complex.json"
    path.write_text(complex_().to_json())
    code, _, _ = run(capsys, "analyze", str(path), *argv)
    assert code == 0
    assert ranked == degrees
    assert len(builds) == 1


def test_analyze_builds_no_ideal_complex_it_does_not_need(tmp_path, capsys, monkeypatch):
    # without --oracle and --d no route reads H0, so the run's H0 table
    # never starts its walk
    builds = []
    build = chains.ideal_complex

    def counted_build(c, r):
        builds.append(r)
        return build(c, r)

    monkeypatch.setattr(chains, "ideal_complex", counted_build)
    path = tmp_path / "ce1.json"
    path.write_text(ce1_complex().to_json())
    code, _, _ = run(capsys, "analyze", str(path), "--r", "2")
    assert code == 0
    assert builds == []


@pytest.mark.parametrize(
    "complex_, argv, readers",
    [
        (lambda: one_edge_complex(3, 4), ("--r", "3", "--oracle"), {"cmd_analyze", "normalize_one_edge"}),
        (ce1_complex, ("--r", "2", "--oracle"), {"cmd_analyze", "path_bounds"}),
        (ce1_complex, ("--r", "2", "--d", "6", "--oracle"), {"cmd_analyze", "path_bounds", "spline_dim_local"}),
    ],
    ids=["one34", "ce1", "ce1-d"],
)
def test_analyze_reads_interior_stats_once(tmp_path, capsys, monkeypatch, complex_, argv, readers):
    # each function of the run that reads the interior statistics derives
    # them once, at the run's r: the payload's interior data, the one-edge
    # normalization or the path bounds, and the spline-dimension formulas;
    # the name is rebound in every module that imported it
    calls = Counter()
    original = geometry.interior_stats

    def counted(c, r):
        calls[sys._getframe(1).f_code.co_name, r] += 1
        return original(c, r)

    for mod in (geometry, chains, regularity, cli):
        monkeypatch.setattr(mod, "interior_stats", counted)
    path = tmp_path / "complex.json"
    path.write_text(complex_().to_json())
    code, _, _ = run(capsys, "analyze", str(path), *argv)
    assert code == 0
    assert calls == {(reader, int(argv[1])): 1 for reader in readers}


def test_analyze_derives_each_line_and_slope_once(tmp_path, capsys, monkeypatch):
    # the complex derives each interior edge's line and slope when it is
    # built, from two points of its integer frame (homogeneous integer
    # triples, no Fraction), and every route of the run reads those: ce1
    # has 12 interior edges
    path = tmp_path / "ce1.json"
    path.write_text(ce1_complex().to_json())
    calls = Counter()

    def counted(name, derive):
        def derive_once(p, q):
            assert len(p) == len(q) == 3 and {type(x) for x in p + q} == {int}
            calls[name] += 1
            return derive(p, q)
        return derive_once

    monkeypatch.setattr(geometry.LinearForm, "through", counted("through", geometry.LinearForm.through))
    monkeypatch.setattr(geometry, "slope_key", counted("slope_key", geometry.slope_key))
    code, _, _ = run(capsys, "analyze", str(path), "--r", "2", "--d", "6", "--oracle")
    assert code == 0
    assert calls == {"through": 12, "slope_key": 12}


def test_folded_complex_exits_1(tmp_path, capsys):
    # F3's folded Morgan-Scott (p5 = (-1/2, 5/4)) used to exit 0
    path = tmp_path / "folded.json"
    path.write_text(json.dumps({
        "vertices": [["0", "0"], ["3", "0"], ["0", "3"], ["1", "1/4"], ["1", "7/4"], ["-1/2", "5/4"]],
        "triangles": [[0, 1, 3], [1, 4, 3], [1, 2, 4], [2, 5, 4], [2, 0, 5], [0, 3, 5], [3, 4, 5]],
    }))
    code, out, err = run(capsys, "analyze", str(path), "--r", "2", "--d", "6", "--oracle")
    assert (code, out) == (1, "")
    assert err == "error: NotEmbedded: both triangles at interior edge (0, 5) lie on one side of it\n"


def test_analyze_runs_the_spline_oracle_once(tmp_path, capsys, monkeypatch):
    # one elimination ranks every degree up to --d
    calls = []
    original = chains.spline_dim_oracles

    def counted(c, r, top):
        calls.append((r, top))
        return original(c, r, top)

    monkeypatch.setattr(cli, "spline_dim_oracles", counted)
    path = tmp_path / "ce1.json"
    path.write_text(ce1_complex().to_json())
    code, out, _ = run(capsys, "analyze", str(path), "--r", "2", "--d", "10", "--oracle")
    assert code == 0
    assert calls == [(2, 10)]
    assert len(json.loads(out)["spline_dimensions"]) == 11


CAPPED_SWEEP = ("sweep", "--a", "3..16", "--b", "3..16", "--r", "1..24")


def test_full_capped_sweep_budget(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, *CAPPED_SWEEP)
    elapsed = time.perf_counter() - start
    data = json.loads(out)
    assert code == 0
    assert len(data["rows"]) == 2520 and data["violations"] == []
    assert elapsed < 0.5, f"full capped sweep took {elapsed:.2f}s"


def test_capped_sweep_runs_each_check_once_per_class(capsys, monkeypatch):
    # the sweep's one ClosedFormTable builds each colon staircase once per
    # (r, s) and runs the route checks once per (lambda', eta') class:
    # 336 pairs (r, s) and 374 classes for 1,610 nontrivial cells; each
    # class builds its bottom face once
    import splinereg.staircase as st
    import splinereg.syzygies as syz

    calls = Counter()
    for mod, name in ((syz, "buchberger_graph"), (syz, "regularity_from_bottom_face"),
                      (syz, "bottom_face"), (st, "staircase_closed_form")):
        def counted(*args, _real=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(mod, name, counted)
    code, out, _ = run(capsys, *CAPPED_SWEEP)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert sum(row["exact"] is not None for row in rows) == 1610
    assert calls == {
        "buchberger_graph": 374, "regularity_from_bottom_face": 374, "bottom_face": 374,
        "staircase_closed_form": 336,
    }


@pytest.mark.parametrize(
    "ab, rs, counts, pinned",
    [
        ((3, 4), (1, 4), (7, 10), ()),
        ((7, 10), (8, 8), (1, 10), ()),
        ((3, 6), (1, 8), (33, 60), (
            "(3,3,1): SocleMismatch: bottom-face route gives 0, socle route 1",
            "(6,6,7): SocleMismatch: bottom-face route gives 0, socle route 1",
        )),
    ],
    ids=["distinct-classes", "one-class", "one-class-across-r"],
)
def test_sweep_lists_every_cell_of_a_failing_class(
    capsys, monkeypatch, ab, rs, counts, pinned
):
    # only checked results are stored, so a class whose socle route fails
    # is recomputed and reported for each of its cells, each line naming
    # the cell and the class's own unshifted values
    import splinereg.syzygies as syz

    table = ClosedFormTable()
    cells = [
        (a, b, r)
        for a in range(ab[0], ab[1] + 1)
        for b in range(a, ab[1] + 1)
        for r in range(rs[0], rs[1] + 1)
    ]
    nontrivial = [c for c in cells if not build_q(*c, table).is_trivial]
    assert (len({build_q(*c, table).key for c in nontrivial}), len(nontrivial)) == counts
    real = syz.max_socle_degree
    monkeypatch.setattr(syz, "max_socle_degree", lambda ideal: real(ideal) + 1)
    a_span, r_span = f"{ab[0]}..{ab[1]}", f"{rs[0]}..{rs[1]}"
    code, out, _ = run(capsys, "sweep", "--a", a_span, "--b", a_span, "--r", r_span)
    data = json.loads(out)
    assert code == 1
    assert len(data["rows"]) == len(cells) - len(nontrivial)
    assert len(data["violations"]) == len(nontrivial)
    for (a, b, r), line in zip(nontrivial, data["violations"]):
        assert line.startswith(f"({a},{b},{r}): SocleMismatch: bottom-face route gives ")
    for line in pinned:
        assert line in data["violations"]


@pytest.mark.parametrize(
    "flags, message",
    [(("--r=-1",), "r = -1 is negative"), (("--r", "2", "--d", "-1"), "d = -1 is negative")],
    ids=["negative-r", "negative-d"],
)
def test_analyze_rejects_negative_flags(tmp_path, capsys, flags, message):
    path = tmp_path / "complex.json"
    path.write_text(ce1_complex().to_json())
    code, out, err = run(capsys, "analyze", str(path), *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: NegativeFlag: {message}\n"


# sha256 of the JSON each command prints.  The digests were taken before the
# exact ranks moved off Fraction elimination; no refactor may change a byte.
# An analyze row names the complex written to the file it reads.
CLI_GOLDEN = [
    pytest.param(
        None, ("betti", "--a", "3", "--b", "3", "--r", "24"),
        "2b9abea086c40e531940830cfcb8e4f224e2943282075d96f0c84cd64554bc1b",
        id="betti-33-r24",
    ),
    pytest.param(
        None, ("betti", "--a", "3", "--b", "4", "--r", "24"),
        "35575a9158b5ecae3b7a7167d5c4cbec36c5f7221bf7a2b3a3f5a2f710793326",
        id="betti-34-r24",
    ),
    pytest.param(
        None, ("regularity", "--a", "3", "--b", "4", "--r", "8", "--oracle"),
        "a684456eb6e5c0228f35663c80408ab837925cdeab7bff79c5c5cb41e819472c",
        id="regularity-34-r8-oracle",
    ),
    pytest.param(
        None, ("staircase", "--r", "8", "--a", "3", "--b", "4", "--emit-graph"),
        "feeb0138a56996461eff28697d9a45450f29eb2aea8b30e44ad0cdce8925949f",
        id="staircase-34-r8-graph",
    ),
    pytest.param(
        lambda: one_edge_complex(3, 4), ("--r", "5", "--d", "8", "--oracle"),
        "78809a48869172cb63a1f389c219fed875de658458ff9be3c67d00016e8d8f21",
        id="analyze-one34-r5-d8-oracle",
    ),
    pytest.param(
        ce1_complex, ("--r", "2", "--d", "10", "--oracle"),
        "5e7579c6b6c5a7633d3d7e6da0bb4467c1583dccb9b3460c346fe0a5f3e123f3",
        id="analyze-ce1-r2-d10-oracle",
    ),
    pytest.param(
        ce1_complex, ("--r", "3", "--oracle"),
        "ff26f5f9647f3b45f22983b17587dafc2d9076f5630d348735b9bedfc956d8f7",
        id="analyze-ce1-r3-oracle",
    ),
    pytest.param(
        None, CAPPED_SWEEP,
        "ee62b10344b58d8e9c8cedf5b355c43957d84eee3373f93b52034f3f429bc3d0",
        id="sweep-capped-grid",
    ),
]


@pytest.mark.parametrize("complex_, argv, digest", CLI_GOLDEN)
def test_cli_golden_bytes(tmp_path, capsys, complex_, argv, digest):
    if complex_ is not None:
        path = tmp_path / "complex.json"
        path.write_text(complex_().to_json())
        argv = ("analyze", str(path)) + argv
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_benchmark_pinned_digests(tmp_path, capsys, monkeypatch):
    # every CLI output whose sha256 the benchmark pins in
    # perfbench/expected.json, run in a work directory that holds ce1.json as
    # the benchmark writes it; the benchmark's files are only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())["sha256"]
    (tmp_path / "ce1.json").write_text(workloads.CE1_JSON + "\n")
    monkeypatch.chdir(tmp_path)
    argvs = workloads.pinned_argvs()
    assert sorted(map(workloads.argv_key, argvs)) == sorted(expected)
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == expected[workloads.argv_key(argv)], argv


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_jobs_pass_their_own_checks(tmp_path, capsys, monkeypatch, seed):
    # every job of the benchmark's three workloads, run in process, passes
    # the check the benchmark's worker applies to it: the seeded one-edge
    # analyze jobs' routes and pinned regularities, the ce1 flags, and each
    # staircase oracle's ideal against its closed form; the benchmark's
    # files are only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    worker = importlib.import_module("worker")
    monkeypatch.chdir(tmp_path)
    kinds = Counter()
    for workload in workloads.WORKLOADS:
        for spec in workloads.build(workload, seed, tmp_path):
            kinds[spec["kind"]] += 1
            if spec["kind"] == "oracle":
                assert worker._run_oracle(spec)() == worker._closed_form(spec), spec
            else:
                code, out, _ = run(capsys, *spec["argv"])
                assert worker.check_cli(code, out.encode(), spec["check"]) is None, spec["argv"]
    assert kinds == {"cli": 14, "oracle": 6}


def _one34_file(tmp_path):
    path = tmp_path / "one34.json"
    path.write_text(one_edge_complex(3, 4).to_json())
    return str(path)


def test_analyze_and_regularity_oracle_print_the_complex_route_report(tmp_path, capsys):
    # analyze's regularity block (bottom-face, socle and chain-oracle routes)
    # and the Betti check of regularity --oracle together are the report the
    # removed `regularity --complex` printed, byte for byte
    code, out, _ = run(capsys, "analyze", _one34_file(tmp_path), "--r", "4")
    assert code == 0
    report = json.loads(out)["regularity"]
    assert report["routes"] == {"bottom_face": 7, "chain_oracle": 7, "socle_shift": 7}
    code, out, _ = run(capsys, "regularity", "--a", "3", "--b", "4", "--r", "4", "--oracle")
    assert code == 0
    checks = {k: json.loads(out)[k] for k in ("betti_confirms_syzygies", "theorem_2r_holds")}
    assert checks == {"betti_confirms_syzygies": True, "theorem_2r_holds": True}
    payload = {"schema": "spline-reg/1", "command": "regularity", **report, **checks}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3b2d168bc9ceefd97b97a1a19526f869cb0069be0347f7132ab2213cfe7edd6a"
    )


def test_analyze_emit_graph_matches_staircase(tmp_path, capsys):
    # the one-edge report's In Q and the staircase command's In Q for the
    # same (a, b, r) give one Buchberger graph; its face is x^2 y z^2
    code, out, _ = run(capsys, "analyze", _one34_file(tmp_path), "--r", "4", "--emit-graph")
    assert code == 0
    graph = json.loads(out)["buchberger_graph"]
    code, out, _ = run(capsys, "staircase", "--r", "4", "--a", "3", "--b", "4", "--emit-graph")
    assert code == 0
    assert graph == json.loads(out)["buchberger_graph"]
    assert [face["lcm"] for face in graph["faces"]] == ["x^2 y z^2"]


def test_analyze_emit_graph_builds_the_graph_once(tmp_path, capsys, monkeypatch):
    # the printed graph and the route share one ClosedFormTable and one
    # class_routes record, as regularity --oracle does; the graph is counted
    # under any name the CLI might call it by
    import splinereg.syzygies as syz

    calls = Counter()
    for mods, name in (((syz, regularity, cli), "class_routes"), ((syz, cli), "buchberger_graph")):
        def counted(*args, _real=getattr(mods[0], name), _name=name):
            calls[_name] += 1
            return _real(*args)
        for mod in mods:
            monkeypatch.setattr(mod, name, counted, raising=False)
    code, out, _ = run(capsys, "analyze", _one34_file(tmp_path), "--r", "4", "--emit-graph")
    assert code == 0
    assert [face["lcm"] for face in json.loads(out)["buchberger_graph"]["faces"]] == ["x^2 y z^2"]
    assert calls == {"class_routes": 1, "buchberger_graph": 1}


def test_analyze_emit_graph_prints_none_for_a_vanishing_module(tmp_path, capsys):
    # as staircase --emit-graph on a trivial In Q, a one-edge complex whose
    # module vanishes prints no graph and no error
    path = tmp_path / "one33.json"
    path.write_text(one_edge_complex(3, 3).to_json())
    code, out, _ = run(capsys, "analyze", str(path), "--r", "0", "--emit-graph")
    data = json.loads(out)
    assert code == 0 and data["regularity"]["module_vanishes"] is True
    assert "buchberger_graph" not in data


@pytest.mark.parametrize(
    "argv, message",
    [
        (("staircase", "--r", "3", "--s", "2", "--a", "99", "--b", "3"),
         "FlagAboveCap: a/b = 99 above the cap 16; pass --unsafe-no-cap to override"),
        (("staircase", "--r", "3", "--s", "2", "--a", "3"),
         "SplineRegError: staircase --s takes no --a, --b or --emit-graph"),
        (("staircase", "--r", "3", "--s", "2", "--emit-graph"),
         "SplineRegError: staircase --s takes no --a, --b or --emit-graph"),
        (("analyze", "ce1.json", "--r", "2", "--emit-graph"),
         "SplineRegError: --emit-graph needs one totally interior edge and two interior vertices"),
    ],
    ids=["staircase-s-a-cap", "staircase-s-a", "staircase-s-graph", "analyze-ce1-graph"],
)
def test_flags_a_command_would_ignore_are_errors(tmp_path, capsys, argv, message):
    path = tmp_path / "ce1.json"
    path.write_text(ce1_complex().to_json())
    code, out, err = run(capsys, *(str(path) if tok == "ce1.json" else tok for tok in argv))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_every_integer_option_is_in_the_flag_table():
    # _read_flags reads and caps exactly the flags the command table names;
    # the one value flag every command shares is --format, a choice
    declared = {name for spec in cli._COMMANDS.values() for name in spec.flags}
    assert declared == set(cli._FLAGS)
    assert set(cli._COMMON.flags) == {"format"}


@pytest.mark.parametrize(
    "argv, message",
    [
        # flags are read in table order, and all of them before any is
        # checked, so r's text fails before a's text or a's cap
        (("regularity", "--a", "x", "--b", "3", "--r", "y"), "NotAnInteger: r = 'y' is not an integer"),
        (("regularity", "--a", "99", "--b", "3", "--r", "y"), "NotAnInteger: r = 'y' is not an integer"),
        # then sign and cap in table order r, d, s, a/b
        (("regularity", "--a", "-1", "--b", "3", "--r", "99"),
         "FlagAboveCap: r = 99 above the cap 24; pass --unsafe-no-cap to override"),
        (("staircase", "--r", "2", "--s", "-1", "--a", "99", "--b", "3"), "NegativeFlag: s = -1 is negative"),
        # a and b share one check: a negative one before one above the cap
        (("betti", "--a", "99", "--b", "-1", "--r", "2"), "NegativeFlag: a/b = -1 is negative"),
        (("sweep", "--a", "3..99", "--b", "3..x", "--r", "1..99"),
         "BadRange: range '3..x' is not an integer or lo..hi"),
    ],
    ids=["read-r-before-a", "read-before-cap", "r-before-a", "s-before-a", "ab-sign-first", "sweep"],
)
def test_first_bad_flag_in_table_order_wins(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_analyze_rejects_boolean_indices_and_duplicate_keys(tmp_path, capsys):
    verts = '[["0", "0"], ["1", "0"], ["0", "1"]]'
    for name, text in (
        ("bools.json", '{"vertices": %s, "triangles": [[false, true, 2]]}' % verts),
        ("dup.json", '{"vertices": %s, "triangles": [], "triangles": [[0, 1, 2]]}' % verts),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path), "--r", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError:")
        assert "Traceback" not in err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    code, _, err = run(capsys, "analyze", str(path), "--r", "1")
    assert code != 0
    assert "ParseError" in err


def test_deeply_nested_complex_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "analyze", str(path), "--r", "1")
    assert (code, out, err) == (1, "", "error: ParseError: JSON nested too deeply\n")


@pytest.mark.parametrize("argv", [("analyze", "{path}", "--r", "1")], ids=["analyze"])
def test_complex_file_read_errors_are_typed(tmp_path, capsys, argv):
    # bytes that are not UTF-8 are a ParseError; a missing file stays an OSError
    path = tmp_path / "complex.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, out) == (1, "")
    assert err == (
        "error: ParseError: file is not UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )
    path.unlink()
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, out) == (1, "")
    assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: '{path}'\n"


def test_table_format(capsys):
    code, out, _ = run(
        capsys, "regularity", "--a", "3", "--b", "3", "--r", "2", "--format", "table"
    )
    assert code == 0
    assert "exact_regularity: 4" in out


STAIRCASE_33_R2_TABLE = """\
schema: spline-reg/1
command: staircase
r: 2
a: 3
b: 3
lambda:
  5
  3
  1
eta:
  5
  3
  1
lambda_prime:
  2
  0
eta_prime:
  2
  0
i0: 1
j0: 1
l0: 1
in_q:
  x
  y
  z^2
buchberger_graph:
  nodes:
    x
    y
    z^2
  edges:
    pair:
      0
      1
    lcm: x y

    pair:
      0
      2
    lcm: x z^2

    pair:
      1
      2
    lcm: y z^2

  faces:
    region:
      0
      1
      2
    lcm: x y z^2

syz2:
  x y
  x z^2
  y z^2
syz3:
  x y z^2
"""


def test_table_format_nested_text(capsys):
    # nested dicts, lists of dicts with their blank separator lines, and
    # lists of scalars, in the payload's own key order
    code, out, _ = run(
        capsys, "staircase", "--a", "3", "--b", "3", "--r", "2", "--emit-graph", "--format", "table"
    )
    assert (code, out) == (0, STAIRCASE_33_R2_TABLE)


json_scalars = hs.none() | hs.booleans() | hs.integers(-10**30, 10**30) | hs.floats() | hs.text()
json_trees = hs.recursive(
    json_scalars,
    lambda kids: (
        hs.lists(kids, max_size=4)
        | hs.lists(kids, max_size=4).map(tuple)
        | hs.dictionaries(hs.text(), kids, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(json_trees)
@example({"a}": [1, (2, "x,\ny")], "é\"\\": {}, "": [[], {}, ()], ",": [{"k": None, "}": "]"}]})
@example([[{"é": [True, False, -10**30]}], (" ", {"b": {"c": []}})])
@example({"rows": [{"a": 1}, {}], "x": [{"b": 2.5, "c": None}]})
@example(({"b": 1, "a": "x"}, {"a": -2, "é": True}, {"z": 0.1}))
@example([{"s": "},\n    {", "t": "},\n      {\"u\": 1"}, {"s": "\n"}])
@example({"rows": [{"i": i, "s": "},"} for i in range(2 * cli._BATCH + 1)]})
def test_dumps_is_json_dumps_with_indent_2(value):
    # the writer behind `--format json` gives the bytes of the stdlib's
    # pure-Python indented encoder on any tree of str-keyed JSON values
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "target, fake, field",
    [
        (
            "splinereg.cli.syzygies_match_betti",
            lambda *args: False,
            "betti_confirms_syzygies",
        ),
        (
            "splinereg.regularity.RegularityReport.conjecture_2r",
            property(lambda self: False),
            "theorem_2r_holds",
        ),
    ],
    ids=["syzygies_match_betti-betti_confirms_syzygies", "conjecture_2r-theorem_2r_holds"],
)
def test_regularity_failed_check_exits_1(capsys, monkeypatch, target, fake, field):
    monkeypatch.setattr(target, fake)
    code, out, _ = run(capsys, "regularity", "--a", "3", "--b", "4", "--r", "4", "--oracle")
    assert code == 1
    assert json.loads(out)[field] is False


def test_betti_failed_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "syzygies_match_betti", lambda *args: False)
    code, out, _ = run(capsys, "betti", "--a", "3", "--b", "4", "--r", "4")
    assert code == 1
    assert json.loads(out)["closed_forms_match_oracle"] is False


def test_analyze_failed_check_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ce1.json"
    path.write_text(ce1_complex().to_json())
    with monkeypatch.context() as patch:
        patch.setattr(cli, "spline_dim_oracles", lambda c, r, top: [-1] * (top + 1))
        code, out, _ = run(capsys, "analyze", str(path), "--r", "1", "--d", "3", "--oracle")
    assert code == 1
    data = json.loads(out)
    assert not any(row["agree"] for row in data["spline_dimensions"])
    assert data["path_bounds"]["oracle_within_bounds"] is True
    # an oracle regularity far above the path bounds
    monkeypatch.setattr(regularity, "h0_regularity_oracle", lambda c, r, h0=None: 99)
    code, out, _ = run(capsys, "analyze", str(path), "--r", "1", "--oracle")
    assert code == 1
    assert json.loads(out)["path_bounds"]["oracle_within_bounds"] is False


# main() fuzzed over a fixed pool of flag values: small valid ones, then
# -1, the flag's cap + 1, 10**13, a word, the empty string, a float and an
# Arabic-Indic three, plus the range forms for `sweep`
_HUGE = str(10**13)
_BAD = ["-1", _HUGE, "x", "", "3.5", "\u0663"]
_RANGES = ["3..4", "4..3", "3..", f"1..{_HUGE}", "-1..3"]


def _pool(valid, cap, extra=()):
    return hs.sampled_from([*valid, str(cap + 1), *_BAD, *extra])


def _flag(name, pool, optional=False):
    pair = pool.map(lambda v: [f"--{name}", v])
    return hs.just([]) | pair if optional else pair


def _switch(name):
    return hs.sampled_from([[], [f"--{name}"]])


def _command(*parts):
    return hs.tuples(*parts).map(lambda ps: [tok for part in ps for tok in part])


_R = _pool(["1", "2", "3"], 24)  # the Arabic-Indic three is r = 3 too
_AB = _pool(["3", "4"], 16)
_FORMAT = _flag("format", hs.sampled_from(["json", "table", "xml"]), optional=True)
# argv the command table rejects: a missing required flag, an unknown
# flag or subcommand, and no subcommand at all
_USAGE = [
    ["regularity", "--a", "3", "--b", "4"],
    ["sweep", "--a", "3", "--b", "4", "--r", "2", "--oracle"],
    ["bogus"],
    ["analyze", "--r", "2"],
    [],
]
_ARGV = hs.one_of(
    _command(hs.just(["regularity"]), _flag("a", _AB), _flag("b", _AB), _flag("r", _R),
             _switch("oracle"), _FORMAT),
    _command(hs.sampled_from([["analyze", "one34.json"], ["analyze", "ce1.json"]]),
             _flag("r", _R), _flag("d", _pool(["2", "4"], 98), optional=True),
             _switch("oracle"), _switch("emit-graph"), _FORMAT),
    _command(hs.just(["sweep"]), _flag("a", _pool(["3"], 16, _RANGES)),
             _flag("b", _pool(["4"], 16, _RANGES)),
             _flag("r", _pool(["2"], 24, _RANGES)), _FORMAT),
    _command(hs.just(["staircase"]), _flag("r", _R),
             _flag("s", _pool(["2", "3"], 15), optional=True),
             _flag("a", _AB, optional=True), _flag("b", _AB, optional=True),
             _switch("emit-graph"), _FORMAT),
    _command(hs.just(["betti"]), _flag("a", _AB), _flag("b", _AB), _flag("r", _R), _FORMAT),
    hs.sampled_from(_USAGE),
)


@pytest.fixture(scope="module")
def complex_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("complexes")
    files = {"one34.json": one_edge_complex(3, 4), "ce1.json": ce1_complex()}
    for name, c in files.items():
        (root / name).write_text(c.to_json())
    return {name: str(root / name) for name in files}


def _is_typed_error(name):
    cls = getattr(errors, name, None) or getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, (errors.SplineRegError, OSError))


@settings(max_examples=100, deadline=None)
@given(argv=_ARGV)
@example(argv=["analyze", "ce1.json", "--r", "2", "--d", _HUGE])
@example(argv=["sweep", "--a", "3..4", "--b", "3..4", "--r", f"1..{_HUGE}"])
@example(argv=["regularity", "--a", "3", "--b", "4"])
@example(argv=["sweep", "--a", "3", "--b", "4", "--r", "2", "--oracle"])
@example(argv=["bogus"])
@example(argv=["betti", "--a", "3", "--b", "4", "--r", "2", "--format", "xml"])
@example(argv=["regularity", "--a", "3", "--b", "4", "--r", "2", "--ora"])
@example(argv=["analyze", "ce1.json", "--r", "2", "--e"])
def test_main_exits_0_or_1_with_one_typed_error_line(complex_files, argv):
    argv = [complex_files.get(tok, tok) for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue()
        return
    assert code == 1 and out.getvalue() == ""
    line, = err.getvalue().splitlines()
    assert err.getvalue() == line + "\n"
    match = re.fullmatch(r"error: (\w+): .+", line)
    assert match and _is_typed_error(match.group(1)), line


@pytest.mark.parametrize(
    "argv, message",
    [
        (("regularity", "--a", "3", "--b", "4"),
         "spline-reg regularity: the following arguments are required: --r"),
        (("sweep", "--a", "3", "--b", "4", "--r", "2", "--oracle"),
         "spline-reg: unrecognized arguments: --oracle"),
        (("bogus",),
         "spline-reg: argument command: invalid choice: 'bogus' (choose from 'regularity', "
         "'analyze', 'sweep', 'staircase', 'betti')"),
        (("betti", "--a", "3", "--b", "4", "--r", "2", "--format", "xml"),
         "spline-reg betti: argument --format: invalid choice: 'xml' (choose from 'json', 'table')"),
    ],
    ids=["missing", "unknown-flag", "unknown-command", "choice"],
)
def test_usage_errors_are_typed(capsys, argv, message):
    # what the command line cannot read is a UsageError with exit code 1
    # and one line, not a usage block with exit code 2
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: UsageError: {message}\n")


@pytest.mark.parametrize(
    "argv, prog", [(["--help"], "spline-reg"), (["analyze", "--help"], "spline-reg analyze")]
)
def test_help_still_exits_0(capsys, argv, prog):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: {prog} [-h]")


_REG = ("regularity", "--a", "3", "--b", "4", "--r", "8")
_UNRECOGNIZED = "UsageError: spline-reg: unrecognized arguments: "


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("regularity", "--a=3", "--b", "4", "--r=8"), _REG),
        (("regularity", "--a", "3", "--b", "4", "--r", "9", "--r", "8"), _REG),
        # a dash and a digit is a value, given either way
        (("sweep", "--a", "-1..3", "--b", "3", "--r", "2"), "NegativeFlag: a/b = -1 is negative"),
        (("sweep", "--a=-1..3", "--b", "3", "--r", "2"), "NegativeFlag: a/b = -1 is negative"),
        (("regularity", "--a", "--b", "4", "--r", "8"),
         "UsageError: spline-reg regularity: argument --a: expected one argument"),
        (("regularity", "--b", "4", "--r", "8", "--a"),
         "UsageError: spline-reg regularity: argument --a: expected one argument"),
        (_REG + ("--oracle=1",),
         "UsageError: spline-reg regularity: argument --oracle: ignored explicit argument '1'"),
        ((), "UsageError: spline-reg: the following arguments are required: command"),
        (("analyze",), "UsageError: spline-reg analyze: the following arguments are required: path, --r"),
        (("regularity", "--a", "3", "--bogus"),
         "UsageError: spline-reg regularity: the following arguments are required: --b, --r"),
        (_REG + ("--",), _UNRECOGNIZED + "--"),
        (("analyze", "a.json", "b.json", "--r", "2"), _UNRECOGNIZED + "b.json"),
        # no flag may be abbreviated
        (_REG + ("--ora",), _UNRECOGNIZED + "--ora"),
        (("analyze", "a.json", "--r", "2", "--e"), _UNRECOGNIZED + "--e"),
        (_REG + ("--for", "table"), _UNRECOGNIZED + "--for table"),
        (_REG + ("-h",), None),
    ],
    ids=[
        "equals", "last-wins", "dash-value", "dash-value-equals", "no-value", "no-value-at-end",
        "switch-value", "no-command", "required-in-order", "required-first", "double-dash",
        "second-path", "abbrev-oracle", "abbrev-emit-graph", "abbrev-format", "help-after-flags",
    ],
)
def test_command_line_reader_rules(capsys, argv, expected):
    # expected: the error line argv gives, the argv it reads the same as,
    # or None for the command's usage and exit code 0
    if expected is None:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: spline-reg {argv[0]} [-h]")
    elif isinstance(expected, str):
        assert run(capsys, *argv) == (1, "", f"error: {expected}\n")
    else:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == run(capsys, *expected)
        assert code == 0 and out
