#!/usr/bin/env python3
"""Write perfbench/expected.json: the sha256 of every deterministic CLI
output the benchmark checks, and the exact regularity of each seeded
one-edge cell, both computed by the program at the current commit.

    python3 perfbench/capture.py

Run it only when an output change is intended; the CLI promises
byte-identical JSON, so a changed digest is otherwise a defect.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

EXPECTED = HERE / "expected.json"


def main() -> int:
    if not EXPECTED.exists():
        EXPECTED.write_text('{"sha256": {}, "exact_regularity": {}}\n')
    import workloads
    from splinereg.cli import main as cli_main
    from splinereg.regularity import regularity_one_edge

    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        (Path(tmp) / "ce1.json").write_text(workloads.CE1_JSON + "\n")
        old = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in workloads.pinned_argvs():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli_main(argv)
                if rc != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {rc}")
                digests[workloads.argv_key(argv)] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        finally:
            os.chdir(old)
    regs = {
        f"{a},{b},{r}": regularity_one_edge(a, b, r).exact
        for size in (workloads.FULL, workloads.SMOKE)
        for a, b, r in size.chain
    }
    data = {"sha256": digests, "exact_regularity": regs}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}: {len(digests)} digests, {len(regs)} regularities")
    return 0


if __name__ == "__main__":
    sys.exit(main())
