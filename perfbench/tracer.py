"""Outside-in tracing of splinereg's layers.

`Tracer.install()` swaps each listed public function for a timing wrapper.
Names are re-imported across modules (`chains.rank` is `ratlinalg.rank`),
so every `splinereg.*` module attribute bound to the original function is
replaced, and `restore()` puts every one of them back.  The two echelon
`insert` methods are wrapped on their classes.  `Monomial` methods and
`mono_lcm` are never wrapped: they run millions of times per job.

Each call records a span (label, start, end, parent) in memory; `summary()`
turns the spans into per-label call counts, inclusive and self seconds,
plus the work counters below.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

# module -> public functions whose spans are reported
LAYERS = {
    "cli": ("main", "cmd_regularity", "cmd_analyze", "cmd_sweep", "cmd_staircase", "cmd_betti"),
    "regularity": ("regularity_one_edge", "regularity_from_complex", "path_bounds"),
    "chains": (
        "ideal_complex",
        "boundary_rank",
        "h0_hilbert_oracle",
        "h0_regularity_oracle",
        "spline_dim_formula",
        "spline_dim_oracle",
    ),
    "geometry": ("parse_complex", "interior_stats", "normalize_one_edge"),
    "syzygies": (
        "buchberger_graph",
        "syz2_closed_form",
        "syz3_closed_form",
        "regularity_from_bottom_face",
        "betti_oracle",
    ),
    "staircase": (
        "staircase_closed_form",
        "colon_staircase",
        "build_q",
        "initial_ideal_oracle",
        "colon_degree_basis",
        "colon_initial_oracle",
        "sum_initial_oracle",
    ),
    "monomials": ("minimalize", "hilbert_function", "max_socle_degree"),
    "ratlinalg": ("pivot_rows", "rank"),
}

# class -> label prefix for its wrapped `insert`
ECHELON = {"SparseIntEchelon": "echelon.sparse", "DenseIntEchelon": "echelon.dense"}

# every work counter summary() reports, all exact integers
COUNTERS = (
    "ratlinalg.cells",
    "ratlinalg.ranks",
    "ratlinalg.cols",
    "echelon.sparse.pivots",
    "echelon.dense.pivots",
    "syzygies.betti_entries",
)


def _pivot_rows_counts(args, result, counts):
    m = args[0]
    counts["ratlinalg.cells"] += m.rows * m.cols
    counts["ratlinalg.cols"] += m.cols
    counts["ratlinalg.ranks"] += len(result)


def _betti_counts(args, result, counts):
    counts["syzygies.betti_entries"] += len(result.entries)


def _insert_counter(prefix):
    key = prefix + ".pivots"

    def count(args, result, counts):
        counts[key] += bool(result)

    return count


_COUNT_HOOKS = {
    "ratlinalg.pivot_rows": _pivot_rows_counts,
    "syzygies.betti_oracle": _betti_counts,
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.spans: list = []  # (label index, start, end, parent span index or -1)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original)

    def _wrap(self, label, fn, count=None):
        lid = len(self.labels)
        self.labels.append(label)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (lid, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        layers = {name: importlib.import_module(f"splinereg.{name}") for name in LAYERS}
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "splinereg" or name.startswith("splinereg."))
        ]
        for mod_name, funcs in LAYERS.items():
            mod = layers[mod_name]
            for fname in funcs:
                label = f"{mod_name}.{fname}"
                orig = getattr(mod, fname)
                wrapper = self._wrap(label, orig, _COUNT_HOOKS.get(label))
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is orig:
                            self._saved.append((owner, attr, orig))
                            setattr(owner, attr, wrapper)
        echelon = importlib.import_module("splinereg._echelon")
        for cls_name, prefix in ECHELON.items():
            cls = getattr(echelon, cls_name)
            orig = cls.__dict__["insert"]
            self._saved.append((cls, "insert", orig))
            cls.insert = self._wrap(prefix + ".insert", orig, _insert_counter(prefix))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def write_spans(self, path) -> None:
        """All spans as JSON: a label table and [label, start, end, parent] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels, "spans": self.spans}, fh, separators=(",", ":"))

    def summary(self) -> dict:
        """{"labels": {label: {"calls", "s", "self_s"}}, "counts": {...},
        "spans": number of spans}.

        Self time is a span's duration minus the durations of its direct
        children.  Inclusive time counts only the outermost span of a label,
        so a label nested in itself is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for lid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {label: {"calls": 0, "s": 0.0, "self_s": 0.0} for label in self.labels}
        for idx, (lid, start, end, parent) in enumerate(self.spans):
            entry = out[self.labels[lid]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != lid:
                p = self.spans[p][3]
            if p < 0:
                entry["s"] += end - start
        return {"labels": out, "counts": dict(self.counts), "spans": len(self.spans)}
