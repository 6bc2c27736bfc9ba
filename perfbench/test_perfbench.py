"""Tests of the benchmark itself (not part of the repository's tier-1 suite):

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import splinereg._echelon as echelon  # noqa: E402
import splinereg.cli  # noqa: E402
from splinereg.geometry import ce1_complex, interior_stats, normalize_one_edge, parse_complex  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    mods = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "splinereg" or name.startswith("splinereg.")
    }
    methods = {cls: cls.__dict__["insert"] for cls in (echelon.SparseIntEchelon, echelon.DenseIntEchelon)}
    return mods, methods


def test_tracer_wraps_every_binding_and_restores_it():
    before_mods, before_methods = _bindings()
    original_rank = splinereg.ratlinalg.rank
    t = tracer.Tracer()
    with t:
        # a re-imported name is swapped in every module that binds it
        assert splinereg.chains.rank is splinereg.ratlinalg.rank is not original_rank
        assert splinereg.rank is splinereg.ratlinalg.rank
        with contextlib.redirect_stdout(io.StringIO()):
            assert splinereg.cli.main(["betti", "--a", "3", "--b", "4", "--r", "4"]) == 0
    after_mods, after_methods = _bindings()
    assert after_mods.keys() == before_mods.keys()
    for name, attrs in before_mods.items():
        for attr, value in attrs.items():
            assert after_mods[name][attr] is value, f"{name}.{attr} not restored"
    assert all(after_methods[cls] is m for cls, m in before_methods.items())

    summary = t.summary()
    labels = summary["labels"]
    assert labels["cli.main"]["calls"] == 1
    assert labels["syzygies.betti_oracle"]["calls"] == 1
    assert labels["ratlinalg.rank"]["calls"] > 0
    assert summary["counts"]["syzygies.betti_entries"] > 0
    # self time never exceeds inclusive time, and the root covers its children
    for entry in labels.values():
        assert entry["self_s"] <= entry["s"] + 1e-9
    assert labels["cli.main"]["s"] >= labels["cli.cmd_betti"]["s"]


def test_tracer_refuses_a_second_install():
    t = tracer.Tracer()
    with t:
        with pytest.raises(RuntimeError):
            t.install()


def test_speed_probe_samples_inside_the_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with worker.SpeedProbe() as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # entry, exit, and a tick every 50 ms in between
    assert len(speed.samples) >= 5
    assert 0 < speed.ticked_s < 0.3
    assert speed.unit_s() == sum(speed.samples) / len(speed.samples)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(tmp_path, workload):
    jobs = workloads.build(workload, 5, tmp_path, workloads.SMOKE)
    for spec in jobs:
        plain = run.run_job(spec, tmp_path, trace=False)
        traced = run.run_job(spec, tmp_path, trace=True, spans_path=tmp_path / "spans.json")
        assert plain["ok"] and traced["ok"], (plain.get("error"), traced.get("error"))
        assert plain["sha256"] == traced["sha256"]
        assert plain["trace"] is None and traced["trace"]["spans"] > 0
        spans = json.loads((tmp_path / "spans.json").read_text())
        assert len(spans["spans"]) == traced["trace"]["spans"]


@pytest.mark.parametrize("seed", range(12))
def test_generated_complexes_parse(seed):
    rng = random.Random(seed)
    for a, b in ((3, 3), (3, 4), (4, 6), (5, 9), (8, 8), (3, 15), (14, 15)):
        c = parse_complex(inputs.one_edge_complex_json(rng, a, b))
        stats = interior_stats(c, 2)
        assert len(stats.totally_interior) == 1 and len(c.interior_vertices) == 2
        norm = normalize_one_edge(c, 2)
        assert (norm.a, norm.b) == (a, b)
        lefts = [y for x, y in c.vertices if x == -2]
        mids = [y for x, y in c.vertices if x == 3][1:-1]
        assert len(set(lefts)) == a - 2 and 0 not in lefts
        assert len(set(mids)) == b - 3 and all(0 < abs(y) < 2 for y in mids)


def test_generated_slopes_are_distinct_and_nonzero():
    rng = random.Random(0)
    for s in range(1, 13):
        got = inputs.slopes(rng, s)
        assert len(set(got)) == s and 0 not in got


def test_ce1_input_is_the_bundled_two_edge_complex():
    assert json.loads(workloads.CE1_JSON) == json.loads(ce1_complex().to_json())


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        dirs = [tmp_path / f"{workload}{i}" for i in range(2)]
        builds = []
        for d in dirs:
            d.mkdir()
            builds.append(workloads.build(workload, 9, d))
        assert builds[0] == builds[1]
        for f in dirs[0].iterdir():
            assert f.read_bytes() == (dirs[1] / f.name).read_bytes()


@pytest.mark.parametrize("workload", ["algebra_oracles", "chain_oracle"])
def test_counts_repeat_exactly(tmp_path, workload):
    jobs = workloads.build(workload, 2, tmp_path, workloads.SMOKE)
    passes = [run.run_pass(jobs, tmp_path, (True,), None, print)[True] for _ in range(2)]
    metrics, mismatch = run.layer_metrics(passes)
    assert mismatch is None
    assert metrics["ratlinalg.cells"] > 0


def _run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, timeout=600,
    )
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_has_no_failures_and_reports_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"])
        assert proc.returncode == 0, proc.stderr.decode()
        lines = proc.stdout.decode().strip().splitlines()
        assert any(line.startswith("ops_failed_share = 0.0000") for line in lines)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "closed_form", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout.decode()
