"""The runnable scripts under `scripts/` end to end, each in a fresh
interpreter on this checkout's package."""
import os
import subprocess
import sys
from pathlib import Path

import splinereg

ROOT = Path(__file__).resolve().parents[1]


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(Path(splinereg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
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
