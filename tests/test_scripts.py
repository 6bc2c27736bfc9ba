"""The runnable scripts under `scripts/` end to end, each in a fresh
interpreter on this checkout's package, or in process where a test patches
a layer under the script."""
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import splinereg
from splinereg import syzygies
from splinereg.geometry import parse_complex
from splinereg.regularity import regularity_one_edge
from splinereg.staircase import ClosedFormTable, build_q

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(splinereg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_worked_example_oracles_match_their_closed_forms():
    # each line is a label padded to 34 columns, then the value
    lines = _run("worked_example.py").splitlines()
    rows = [(line[:34].strip(), line[34:].strip()) for line in lines if len(line) > 34]
    checked = 0
    for (_, closed), (label, value) in zip(rows, rows[1:]):
        if "oracle" in label and value.startswith("<"):
            assert value == closed, label
            checked += 1
    assert checked == 3  # In J'(v1), In J'(v2) (axis y) and In Q
    routes = "{'bottom_face': 14, 'socle_shift': 14, 'chain_oracle': 14}"
    assert dict(rows)["three routes:"] == routes


def test_grid_sweep_has_no_violations():
    out = _run("run_grid_sweep.py")
    assert out.rstrip().endswith("violations: none")
    assert "FAIL" not in out


def test_grid_sweep_lists_failing_cells_without_a_traceback(monkeypatch, capsys):
    # a socle route that is off by one fails every nontrivial cell; the
    # sweep lists each one by its error's name and exits 1 at the end
    nontrivial = [
        (a, b, r)
        for a in (3, 4) for b in range(a, 5) for r in (1, 2, 3)
        if not regularity_one_edge(a, b, r).vanishes
    ]
    assert len(nontrivial) == 7
    socle = syzygies.max_socle_degree
    monkeypatch.setattr(syzygies, "max_socle_degree", lambda ideal: socle(ideal) + 1)
    argv = ["run_grid_sweep.py", "--a-max", "4", "--b-max", "4", "--r-max", "3"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "run_grid_sweep.py"), run_name="__main__")
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    listed = [(a, b, r, "SocleMismatch") for a, b, r in nontrivial]
    assert out.rstrip().endswith(f"violations: {listed}")
    assert "Traceback" not in err


def test_grid_sweep_rechecks_betti_once_per_class(monkeypatch, capsys):
    # the Betti recheck reads only In Q and the class's syzygies, so it runs
    # once per (lambda', eta') class and every cell of the class prints it
    table = ClosedFormTable()
    qs = [build_q(a, b, r, table) for a in (3, 4, 5) for b in range(a, 6) for r in range(1, 7)]
    classes = {q.key for q in qs if not q.is_trivial}
    assert (sum(not q.is_trivial for q in qs), len(classes)) == (28, 17)
    checked = []

    def failing(betti_table, syz2, syz3):
        checked.append(betti_table)
        return False

    monkeypatch.setattr(syzygies, "syzygies_match_betti", failing)
    argv = ["run_grid_sweep.py", "--a-max", "5", "--b-max", "5", "--r-max", "6"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "run_grid_sweep.py"), run_name="__main__")
    assert exc.value.code == 1
    rows = capsys.readouterr().out.splitlines()[1:37]
    assert len(checked) == len(classes)
    assert sum(row.endswith(" FAIL") for row in rows) == 28
    assert all(row.endswith((" FAIL", " zero")) for row in rows)


def test_worked_example_walks_h0_once(monkeypatch, capsys):
    # the H0 rows and the chain-oracle route read one table
    from splinereg import chains

    walks = []
    walk = chains._walk

    def counted(c, r):
        walks.append(r)
        return walk(c, r)

    monkeypatch.setattr(chains, "_walk", counted)
    runpy.run_path(str(ROOT / "scripts" / "worked_example.py"), run_name="__main__")
    assert "H0 dimension at d=14:            3" in capsys.readouterr().out
    assert walks == [8]


def test_make_complexes_writes_each_bundled_complex(tmp_path, monkeypatch):
    # five named complexes and one one-edge complex per 3 <= a <= b <= 8,
    # each file exactly what its complex serializes to; the two-edge path
    # is the benchmark's ce1, whose file is only read here
    _run("make_complexes.py", str(tmp_path))
    files = sorted(tmp_path.iterdir())
    assert len(files) == 26
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert text == parse_complex(text).to_json() + "\n", path.name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert (tmp_path / "two_edge_path.json").read_text(encoding="utf-8") == workloads.CE1_JSON + "\n"
