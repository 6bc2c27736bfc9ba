#!/usr/bin/env python3
"""splinereg benchmark runner.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Builds the workload's job list from --seed (see workloads.py) and runs it
in passes for about --seconds seconds.  Every job runs in its own fresh
worker process, one at a time: a closed loop with one client and one
worker, because every CLI user pays interpreter start, import and cold
caches, and a warm in-process repeat would measure a program nobody runs.

--trace 0 reports the end-to-end metrics, with the pass count printed:
  wall_s       seconds inside the program calls for the whole job list, at
               the reference speed: the sum over jobs of each job's median
               over the passes of call_s * REF_UNIT_S / probe_s
  setup_s      seconds from spawning each worker to `import splinereg.cli`
               done and inputs read, at the reference speed: the sum over
               jobs of each job's median of setup * REF_START_S / base_s
  peak_rss_mb  largest ru_maxrss of any worker
The raw sums, wall_raw_s and setup_raw_s, are printed beside them.
This shared VM runs the same job up to 1.8x slower in stretches lasting
from a fraction of a second to minutes, and its two vCPUs slow
independently: raw times of the same code spread by more than a quarter
between 40 s runs.  So each time is divided by the speed the machine
showed at that moment, measured by fixed work that runs none of the
program's code:
  - a call by worker.probe_s, the mean time of one worker.probe_unit
    sampled every 50 ms inside the call, on the worker's own vCPU;
  - a set-up by base_s, the set-up time of a BASELINE interpreter that
    starts, imports the same standard modules and reads the same stdin,
    spawned just before the worker.
A change to the program moves each ratio by the same share as it moves
the program's own time, while the two normalised sums spread by a few
percent between runs.  REF_UNIT_S (1 ms) and REF_START_S (0.1 s) only set
the scale: wall_s and setup_s read as seconds on a machine where one probe
unit takes 1 ms and the baseline starts in 0.1 s (on the reference VM the
probe unit took 1.0-1.9 ms and the baseline 0.07-0.13 s).
--trace 1 runs each job twice per pass, untraced and then traced; the
traced workers wrap each layer's public functions (tracer.py) and the
per-layer metrics are medians over the traced passes (times) or exact
per-pass counts.  Per-layer times include the probe's in-call samples
(about 2 %).  trace.overhead_share compares the two runs, job by job, on
the speed-normalised times.

Human-readable lines go to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A job fails on a
nonzero exit, an exception, or output that fails its check; failures are
counted in ops_failed_share and make "correct" false.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
JOB_TIMEOUT_S = 120
# seconds one worker.probe_unit stands for in wall_s
REF_UNIT_S = 1e-3
# seconds the BASELINE start stands for in setup_s
REF_START_S = 0.1
# a worker's set-up without splinereg: the interpreter starts, imports the
# standard modules the worker and splinereg import, and reads its stdin
BASELINE = (
    "import argparse, contextlib, dataclasses, fractions, functools, gc, hashlib, io, "
    "itertools, json, math, os, re, resource, signal, sys, time; sys.stdin.buffer.read(); "
    "print(json.dumps({'ready': time.clock_gettime(time.CLOCK_MONOTONIC)}))"
)

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(argv: list[str], stdin: bytes, work: Path):
    """Run `argv` to its end with `stdin`; returns (spawn time, returncode,
    stdout, stderr), or None when it outlives JOB_TIMEOUT_S."""
    spawned = _now()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=work, env=_env(),
    )
    try:
        out, err = proc.communicate(stdin, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave no process behind
            proc.kill()
            proc.communicate()
    return spawned, proc.returncode, out, err


def run_job(spec: dict, work: Path, trace: bool, spans_path: Path | None = None) -> dict:
    """Spawn one worker for `spec`, right after one baseline interpreter;
    returns the worker's report plus "setup_s", "base_s", and the
    normalised "norm_s" and "setup_norm_s" (see REF_UNIT_S, REF_START_S),
    or a failed report when either process dies, hangs or prints garbage."""
    payload = json.dumps(dict(spec, src=str(SRC), trace=trace,
                              spans_path=str(spans_path) if spans_path else None)).encode()
    reports = []
    for argv in ([sys.executable, "-c", BASELINE], [sys.executable, str(HERE / "worker.py")]):
        done = _spawn(argv, payload, work)
        if done is None:
            return {"ok": False, "error": f"timed out after {JOB_TIMEOUT_S} s"}
        spawned, returncode, out, err = done
        if returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or ["no stderr"]
            return {"ok": False, "error": f"{argv[-1]} exit {returncode}: {tail[0]}"}
        try:
            report = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            return {"ok": False, "error": f"unreadable report from {argv[-1]}: {exc}"}
        report["setup_s"] = report["ready"] - spawned
        reports.append(report)
    base, report = reports
    report["base_s"] = base["setup_s"]
    report["setup_norm_s"] = report["setup_s"] * REF_START_S / report["base_s"]
    report["norm_s"] = report["call_s"] * REF_UNIT_S / report["probe_s"]
    return report


def _describe(spec: dict) -> str:
    if spec["kind"] == "cli":
        return " ".join(spec["argv"])
    return f"{spec['oracle']} r={spec['r']} slopes={spec['slopes']}" + (
        f" | {spec['slopes2']}" if "slopes2" in spec else "")


def run_pass(jobs, work: Path, modes, spans_dir: Path | None, log) -> dict:
    """Run every job once per mode (False untraced, True traced), the modes
    of one job back to back so that both see the same machine state.
    Returns {mode: [report per job]}; traced spans go to `spans_dir`."""
    reports = {traced: [] for traced in modes}
    for i, spec in enumerate(jobs):
        for traced in modes:
            spans = spans_dir / f"job{i:02d}.json" if traced and spans_dir else None
            rep = run_job(spec, work, traced, spans)
            if not rep["ok"]:
                log(f"FAILED {_describe(spec)}: {rep['error']}")
            reports[traced].append(rep)
    return reports


def layer_metrics(passes: list[list[dict]]) -> tuple[dict, str | None]:
    """Per-layer metrics from traced passes: times are medians over passes,
    counts must repeat exactly from pass to pass."""
    per_pass = []
    for reports in passes:
        acc: dict[str, float] = {}
        for rep in reports:
            summ = rep["trace"]
            for label, entry in summ["labels"].items():
                mod = label.split(".")[0]
                for key in ("calls", "s", "self_s"):
                    acc[f"{label}.{key}"] = acc.get(f"{label}.{key}", 0) + entry[key]
                acc[f"{mod}.self_s"] = acc.get(f"{mod}.self_s", 0.0) + entry["self_s"]
            for key, value in summ["counts"].items():
                acc[key] = acc.get(key, 0) + value
            acc["trace.spans"] = acc.get("trace.spans", 0) + summ["spans"]
        per_pass.append(acc)
    keys = sorted(per_pass[0])
    mismatch = None
    out = {}
    for key in keys:
        values = [p[key] for p in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                mismatch = f"count {key} differs between passes: {values}"
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    for prefix in ("echelon.sparse", "echelon.dense"):
        inserts = out.pop(f"{prefix}.insert.calls")
        out[f"{prefix}.inserts"] = inserts
        out[f"{prefix}.insert_s"] = out.pop(f"{prefix}.insert.s")
        out.pop(f"{prefix}.insert.self_s")
        pivots = out.pop(f"{prefix}.pivots")
        out[f"{prefix}.pivot_ratio"] = pivots / inserts if inserts else 0.0
    cols, ranks = out.pop("ratlinalg.cols"), out.pop("ratlinalg.ranks")
    out["ratlinalg.rank_ratio"] = ranks / cols if cols else 0.0
    return out, mismatch


def per_job(passes: list[list[dict]], key: str, stat) -> list[float]:
    """`stat` of each job's `key` over the passes it passed in (0.0 if none)."""
    out = []
    for i in range(len(passes[0])):
        values = [p[i][key] for p in passes if p[i]["ok"]]
        out.append(stat(values) if values else 0.0)
    return out


def _units(name: str) -> str:
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny job sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "splinereg" / "cli.py").is_file():
        print(f"error: no splinereg sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workloads.build(args.workload, args.seed, work,
                           workloads.SMOKE if args.smoke else workloads.FULL)

    def log(msg):
        print(msg, flush=True)

    # one untimed import, so every timed worker finds compiled bytecode
    warm = subprocess.run([sys.executable, "-c", "import splinereg.cli"],
                          env=_env(), cwd=work, capture_output=True, timeout=JOB_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: importing splinereg failed:\n{warm.stderr.decode()}", file=sys.stderr)
        return 2

    start = _now()
    deadline = start + args.seconds
    modes = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    durations = []
    spans_dir = None
    if args.trace:
        spans_dir = WORK / "spans" / args.workload
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    while True:
        t0 = _now()
        reports = run_pass(jobs, work, modes, spans_dir, log)
        spans_dir = None  # spans of the first traced pass only
        durations.append(_now() - t0)
        for traced, reps in reports.items():
            passes[traced].append(reps)
            log(f"pass {len(durations)}{' traced' if traced else ''}: "
                f"wall {sum(r.get('norm_s', 0.0) for r in reps):.4f} s "
                f"(raw {sum(r.get('call_s', 0.0) for r in reps):.4f} s), "
                f"setup {sum(r.get('setup_norm_s', 0.0) for r in reps):.4f} s "
                f"(raw {sum(r.get('setup_s', 0.0) for r in reps):.4f} s)")
        # stop before a pass that would overrun the time budget
        if _now() + max(durations) > deadline:
            break

    attempted = sum(len(p) for mode in passes.values() for p in mode)
    failed = sum(not r["ok"] for mode in passes.values() for p in mode for r in p)
    correct = failed == 0
    plain = passes[False]
    calls = per_job(plain, "call_s", statistics.median)
    norms = per_job(plain, "norm_s", statistics.median)
    setups = per_job(plain, "setup_s", statistics.median)
    setup_norms = per_job(plain, "setup_norm_s", statistics.median)
    wall_raw_s, wall_s = sum(calls), sum(norms)
    setup_raw_s, setup_s = sum(setups), sum(setup_norms)
    log(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass, "
        f"{len(plain)} untraced and {len(passes[True])} traced passes in {_now() - start:.1f} s")
    for i, spec in enumerate(jobs):
        log(f"  job {i}: median call {calls[i]:.3f} s ({norms[i]:.3f} s normalised), "
            f"setup {setups[i]:.3f} s ({setup_norms[i]:.3f} s)  {_describe(spec)}")
    log(f"ops_failed_share = {failed / attempted:.4f} ({failed}/{attempted} jobs failed)")

    if args.trace:
        ok_passes = [p for p in passes[True] if all(r["ok"] for r in p)]
        values = {}
        if ok_passes:
            values, mismatch = layer_metrics(ok_passes)
            if mismatch:
                log(mismatch)
                correct = False
            traced_norm = sum(per_job(ok_passes, "norm_s", statistics.median))
            values["trace.overhead_share"] = traced_norm / wall_s - 1 if wall_s else 0.0
            values["run.wall_raw_s"], values["run.setup_raw_s"] = wall_raw_s, setup_raw_s
        else:
            log("no traced pass completed without failures")
            correct = False
        metrics = {k: {"value": v, "unit": _units(k)} for k, v in sorted(values.items())}
    else:
        rss_mb = max((r["rss_kb"] for p in plain for r in p if r["ok"]), default=0) / 1024
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        }
        log(f"wall_s = {wall_s:.4f} s, setup_s = {setup_s:.4f} s (normalised; raw "
            f"{wall_raw_s:.4f} s and {setup_raw_s:.4f} s; sums over jobs of medians over "
            f"{len(plain)} passes), peak_rss_mb = {rss_mb:.2f} MiB (max)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
