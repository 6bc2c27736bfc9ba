"""The benchmark's three workloads, as job lists built from a seed.

Each job is a spec for `worker.py`: a CLI argv, or one staircase oracle on
seeded slopes, plus the checks its output must pass.  Deterministic CLI
jobs are checked against sha256 digests of their JSON bytes pinned in
`expected.json`; seeded jobs are checked on the report's own agreement
flags and on pinned regularities.

Why these workloads:
- closed_form: the full capped `sweep` grid plus a few `regularity` and
  `staircase --emit-graph` cells, the route every user hits first.  No
  linear algebra runs, so elimination-kernel changes must predict no change
  here, while socle-scan and JSON-emit changes show.
- algebra_oracles: `betti` at (3,3,24) and (3,4,24) and the three staircase
  oracles on seeded slopes with r in {20, 24}, s in {2, 4}: the validation
  half of the paper's table, stressing the lcm closure, Bareiss pivot rows,
  the dense echelon and the Fraction-level colon solves.
- chain_oracle: `analyze` on seeded one-edge complexes and on the two-edge
  complex ce1 with the oracle on: the sparse echelon and the per-degree
  chain scan, where an early stop or block elimination would show.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import inputs

WORKLOADS = ("closed_form", "algebra_oracles", "chain_oracle")

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# Cheap, nontrivial cells (1.5-8 ms each on the reference VM), so the cells a
# seed draws change the closed_form work by well under 1 %.
CELL_POOL = (
    (5, 5, 24), (5, 6, 18), (5, 9, 20), (6, 6, 24), (6, 7, 18), (6, 11, 22),
    (7, 7, 21), (7, 12, 24), (8, 8, 24), (8, 13, 19), (9, 10, 23), (10, 16, 24),
    (11, 11, 12), (12, 14, 20), (13, 16, 24), (16, 16, 24),
)
CELLS_PER_KIND = 3


@dataclass(frozen=True)
class Size:
    sweep: tuple[str, ...]
    betti: tuple[tuple[int, int, int], ...]
    # (oracle, r, s, slope count of the sum oracle's second side or None)
    oracles: tuple[tuple[str, int, int, int | None], ...]
    # (a, b, r) of the seeded one-edge complexes
    chain: tuple[tuple[int, int, int], ...]
    # analyze flags for ce1, and the report paths that must be true
    ce1: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


FULL = Size(
    sweep=("sweep", "--a", "3..16", "--b", "3..16", "--r", "1..24"),
    betti=((3, 3, 24), (3, 4, 24)),
    oracles=(
        ("initial_ideal_oracle", 20, 2, None),
        ("initial_ideal_oracle", 24, 4, None),
        ("colon_initial_oracle", 20, 2, None),
        ("colon_initial_oracle", 24, 4, None),
        ("sum_initial_oracle", 20, 2, 4),
        ("sum_initial_oracle", 24, 4, 4),
    ),
    # r stays <= 5: the chain oracle scans all 3r+2 degrees, and r = 8
    # already takes about 29 s per job
    chain=((3, 4, 5), (4, 6, 4), (3, 3, 5)),
    ce1=(
        (("--r", "3", "--oracle"), ("path_bounds.oracle_within_bounds",)),
        (
            ("--r", "2", "--d", "10", "--oracle"),
            ("path_bounds.oracle_within_bounds", "spline_dimensions.*.agree"),
        ),
    ),
)

# a few seconds per pass, for the benchmark's own tests
SMOKE = Size(
    sweep=("sweep", "--a", "3..5", "--b", "3..5", "--r", "1..8"),
    betti=((3, 3, 8),),
    oracles=(
        ("initial_ideal_oracle", 6, 2, None),
        ("colon_initial_oracle", 6, 3, None),
        ("sum_initial_oracle", 6, 2, 3),
    ),
    chain=((3, 4, 2),),
    ce1=((("--r", "1", "--oracle"), ("path_bounds.oracle_within_bounds",)),),
)

# the two-edge complex ce1 (`geometry.ce1_complex`, `two_edge_path.json`)
CE1_JSON = json.dumps(
    {
        "vertices": [
            ["-2", "0"], ["0", "0"], ["2", "2"], ["0", "1"], ["0", "-1"],
            ["-4", "1"], ["-4", "-1"], ["4", "3"], ["4", "5"],
        ],
        "triangles": [
            [0, 1, 3], [0, 3, 5], [0, 5, 6], [0, 6, 4], [0, 4, 1],
            [1, 2, 3], [1, 4, 2], [2, 8, 3], [2, 7, 8], [2, 4, 7],
        ],
    },
    sort_keys=True,
)


def argv_key(argv) -> str:
    return " ".join(argv)


def _cli(argv, true=(), empty=(), equal=None, pinned=True) -> dict:
    check = {"true": list(true), "empty": list(empty), "equal": equal or {}}
    if pinned:
        check["sha256"] = EXPECTED["sha256"][argv_key(argv)]
    return {"kind": "cli", "argv": argv, "check": check}


def _regularity_argv(a, b, r):
    return ["regularity", "--a", str(a), "--b", str(b), "--r", str(r)]


def _staircase_argv(a, b, r):
    return ["staircase", "--r", str(r), "--a", str(a), "--b", str(b), "--emit-graph"]


def _betti_argv(a, b, r):
    return ["betti", "--a", str(a), "--b", str(b), "--r", str(r)]


def pinned_argvs() -> list[list[str]]:
    """Every deterministic CLI argv whose output digest `expected.json` pins
    (complex paths relative to the work directory)."""
    out = []
    for cell in CELL_POOL:
        out += [_regularity_argv(*cell), _staircase_argv(*cell)]
    for size in (FULL, SMOKE):
        out.append(list(size.sweep))
        out += [_betti_argv(*cell) for cell in size.betti]
        out += [["analyze", "ce1.json", *flags] for flags, _ in size.ce1]
    return out


def build(workload: str, seed: int, work: Path, size: Size = FULL) -> list[dict]:
    """The workload's job list for `seed`; input files are written to `work`,
    which is also the working directory the jobs run in."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closed_form":
        cells = rng.sample(CELL_POOL, 2 * CELLS_PER_KIND)
        jobs = [_cli(list(size.sweep), true=["rows.*.routes_agree", "rows.*.conjecture_2r"],
                     empty=["violations"])]
        jobs += [_cli(_regularity_argv(*c), true=["routes_agree"]) for c in cells[:CELLS_PER_KIND]]
        jobs += [_cli(_staircase_argv(*c)) for c in cells[CELLS_PER_KIND:]]
        return jobs
    if workload == "algebra_oracles":
        jobs = [_cli(_betti_argv(*cell), true=["closed_forms_match_oracle"]) for cell in size.betti]
        for oracle, r, s, s2 in size.oracles:
            job = {"kind": "oracle", "oracle": oracle, "r": r,
                   "slopes": [str(c) for c in inputs.slopes(rng, s)]}
            if s2 is not None:
                job["slopes2"] = [str(c) for c in inputs.slopes(rng, s2)]
            jobs.append(job)
        return jobs
    if workload == "chain_oracle":
        jobs = []
        for a, b, r in size.chain:
            name = f"one_edge_{a}{b}_r{r}.json"
            (work / name).write_text(inputs.one_edge_complex_json(rng, a, b) + "\n")
            pinned = EXPECTED["exact_regularity"][f"{a},{b},{r}"]
            jobs.append(_cli(
                ["analyze", name, "--r", str(r)],
                true=["regularity.routes_agree"],
                equal={"regularity.exact_regularity": pinned,
                       "regularity.routes.chain_oracle": pinned},
                pinned=False,
            ))
        (work / "ce1.json").write_text(CE1_JSON + "\n")
        for flags, true in size.ce1:
            jobs.append(_cli(["analyze", "ce1.json", *flags], true=true))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
