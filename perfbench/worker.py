"""Run one benchmark job in this fresh process and report it as one JSON line.

The job spec arrives as JSON on stdin.  The worker imports `splinereg` (from
the `src` directory the spec names, and nowhere else), then either calls
`splinereg.cli.main(argv)` with stdout captured or calls one staircase
oracle.  It times only that call, checks the output afterwards, and prints
{"ready", "call_s", "probe_s", "ok", "error", "sha256", "rss_kb", "trace"}
on its own stdout.  "ready" is CLOCK_MONOTONIC, which is shared by all
processes, so the parent can time set-up from the moment it spawned the
worker.

"probe_s" is the machine's speed during the call: the mean seconds one unit
of fixed interpreter work (`probe_unit`) takes, sampled once just before
the call, every TICK_S seconds during it (from a SIGALRM handler, which
Python runs between the call's bytecodes) and once just after.  A shared
VM's vCPUs slow down by up to 1.8x in stretches lasting from a fraction of
a second to minutes, and the call slows with them, so call_s / probe_s
measures the program's own cost and not the neighbours' load.  call_s
leaves out the time spent in the handler (about 2 %).
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

TICK_S = 0.05


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_unit() -> int:
    """A fixed slice of the kind of work the program does: integer
    arithmetic, tuple-keyed dict updates and Fraction sums.  Uses nothing
    from splinereg, so no change to the program can change its cost."""
    acc = 0
    table = {}
    for i in range(3400):
        acc += (i * 7919) % 1013
        table[(i & 255, i & 7)] = acc
    total = Fraction(0)
    for i in range(1, 113):
        total += Fraction(i % 7 - 3, i)
    return acc + len(table) + total.denominator


class SpeedProbe:
    """Samples `probe_unit` on entry, every TICK_S seconds while inside,
    and on exit; `ticked_s` is the time the in-between samples took."""

    def __init__(self):
        self.samples: list[float] = []
        self.ticked_s = 0.0

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is the program's time
        try:
            start = time.perf_counter()
            probe_unit()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return start

    def _tick(self, signum, frame):
        start = self._sample()
        self.ticked_s += time.perf_counter() - start

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def unit_s(self) -> float:
        """Mean seconds per probe unit over the samples."""
        return sum(self.samples) / len(self.samples)


def _resolve(payload, path: str):
    """Values at a dotted path; `*` fans out over a list."""
    nodes = [payload]
    for part in path.split("."):
        nxt = []
        for node in nodes:
            if part == "*":
                nxt.extend(node)
            else:
                nxt.append(node[part])
        nodes = nxt
    return nodes


def check_cli(rc: int, out: bytes, check: dict) -> str | None:
    """None when the output passes every check in `check`, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    digest = check.get("sha256")
    if digest is not None and hashlib.sha256(out).hexdigest() != digest:
        return "output bytes differ from the pinned digest"
    payload = json.loads(out)
    for path in check.get("true", ()):
        values = _resolve(payload, path)
        if not values or not all(v is True for v in values):
            return f"{path} is not true"
    for path in check.get("empty", ()):
        if any(v != [] for v in _resolve(payload, path)):
            return f"{path} is not empty"
    for path, want in check.get("equal", {}).items():
        if _resolve(payload, path) != [want]:
            return f"{path} = {_resolve(payload, path)}, pinned {want}"
    return None


def _run_oracle(spec: dict):
    from splinereg import staircase as st

    r = spec["r"]
    slopes = [Fraction(s) for s in spec["slopes"]]
    name = spec["oracle"]
    if name == "sum_initial_oracle":
        slopes2 = [Fraction(s) for s in spec["slopes2"]]
        return lambda: st.sum_initial_oracle(r, slopes, slopes2)
    return lambda: getattr(st, name)(r, slopes)


def _closed_form(spec: dict):
    from splinereg import staircase as st

    r, s = spec["r"], len(spec["slopes"])
    if spec["oracle"] == "initial_ideal_oracle":
        return st.staircase_closed_form(r, s).ideal("x")
    if spec["oracle"] == "colon_initial_oracle":
        return st.colon_staircase(st.staircase_closed_form(r, s)).ideal("x")
    return st.build_q(s + 1, len(spec["slopes2"]) + 1, r).in_q


def main() -> int:
    spec = json.loads(sys.stdin.read())
    import splinereg.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(splinereg.cli.__file__).startswith(src + os.sep):
        print(f"splinereg imported from {splinereg.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["kind"] == "oracle":
        call = _run_oracle(spec)
    else:
        argv = spec["argv"]
        call = lambda: splinereg.cli.main(argv)  # noqa: E731 - looked up after install
    ready = _now()

    buf = io.StringIO()
    error = None
    result = None
    with SpeedProbe() as speed:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                result = call()
        except Exception as exc:  # a failed job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        call_s = time.perf_counter() - start - speed.ticked_s

    trace = None
    if tracer is not None:
        tracer.restore()
        trace = tracer.summary()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    out = buf.getvalue().encode()
    if error is None:
        if spec["kind"] == "oracle":
            if result != _closed_form(spec):
                error = f"oracle ideal {result} differs from the closed form {_closed_form(spec)}"
        else:
            try:
                error = check_cli(result, out, spec["check"])
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
    report = {
        "ready": ready,
        "call_s": call_s,
        "probe_s": speed.unit_s(),
        "ok": error is None,
        "error": error,
        "sha256": hashlib.sha256(out if spec["kind"] == "cli" else str(result).encode()).hexdigest(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
