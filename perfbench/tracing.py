"""Spans around the calls into each `cybe` layer, recorded from outside.

`installed(tracer)` swaps each public function listed in `WRAPS` for a
wrapper in the module namespace its callers look it up in, and restores the
originals on exit.  A span is [name, start, end, parent index]; spans stay
in memory and are folded into per-layer totals by `layer_metrics`.  A
layer's self time is its spans' duration minus the part covered by their
child spans.  Nothing in `src/` knows about any of this.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _by_field(layer):
    def name(L, r):
        return layer + (".fp" if L.field.kind == "prime" else ".qq")
    return name


def _count_scan(counts, args, result):
    L = args[0]
    counts["exhaustive.candidates"] += L.field.p ** (L.n * L.n)
    counts["exhaustive.solutions"] += len(result[0])


def _count_bytes(counts, args, result):
    counts["problems.report_bytes"] += len(result.encode("utf-8"))


# (module, attribute, span name or name(*args), counter hook)
WRAPS = [
    ("cybe.cli", "run", "cli", None),
    ("cybe.cli", "load_problem", "problems.parse", None),
    ("cybe.cli", "dumps_report", "problems.serialize", _count_bytes),
    ("cybe.cli", "check_jacobi", "liealg.jacobi", None),
    ("cybe.cli", "verify_classification", "exhaustive.predicate", None),
    ("cybe.exhaustive", "enumerate_solutions", "exhaustive.list", None),
    ("cybe.exhaustive", "scan_solution_ids", "exhaustive.scan", _count_scan),
    ("cybe.cli", "cybe_residual", _by_field("solve.residual"), None),
    ("cybe.solve", "cybe_residual", _by_field("solve.residual"), None),
    ("cybe.cli", "classify_solution", "solve.classify", None),
    ("cybe.cli", "generate_solution", "solve.generate", None),
    ("cybe.cli", "recognize_table", "solve.recognize", None),
    ("cybe.solve", "recognize_table", "solve.recognize", None),
    ("cybe.exhaustive", "recognize_table", "solve.recognize", None),
    ("cybe.bialgebra", "recognize_table", "solve.recognize", None),
    ("cybe.cli", "symmetry_flags", "tensor.symmetry", None),
    ("cybe.cli", "is_skew_symmetric", "tensor.symmetry", None),
    ("cybe.solve", "is_strongly_symmetric", "tensor.symmetry", None),
    ("cybe.solve", "is_skew_symmetric", "tensor.symmetry", None),
    ("cybe.solve", "is_alpha_beta_skew", "tensor.symmetry", None),
    ("cybe.bialgebra", "is_skew_symmetric", "tensor.symmetry", None),
    ("cybe.cli", "bialgebra_check", _by_field("bialgebra.axioms"), None),
    ("cybe.cli", "coboundary_predicate", "bialgebra.closed_form", None),
    ("cybe.cli", "triangular_predicate", "bialgebra.closed_form", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self):
        """name -> [span count, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered
        return out


@contextmanager
def installed(tracer):
    patched = []
    try:
        for modname, attr, name, hook in WRAPS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            setattr(mod, attr, tracer.wrap(orig, name, hook))
            patched.append((mod, attr, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)


# per-layer metric -> unit; every value is per traced pass
LAYER_UNITS = {
    "exhaustive.scan_ms": "ms",
    "exhaustive.scan_calls": "count",
    "exhaustive.candidates": "count",
    "exhaustive.solutions": "count",
    "exhaustive.useful_ratio": "ratio",
    "exhaustive.scan_ns_per_candidate": "ns",
    "exhaustive.predicate_ms": "ms",
    "exhaustive.list_ms": "ms",
    "exhaustive.scans_per_command": "count",
    "problems.parse_ms": "ms",
    "problems.serialize_ms": "ms",
    "problems.report_bytes": "bytes",
    "cli.self_ms": "ms",
    "liealg.jacobi_ms": "ms",
    "solve.residual_ms.qq": "ms",
    "solve.residual_ms.fp": "ms",
    "solve.residual_calls": "count",
    "solve.classify_ms": "ms",
    "solve.recognize_ms": "ms",
    "solve.recognize_calls": "count",
    "solve.generate_ms": "ms",
    "tensor.symmetry_ms": "ms",
    "bialgebra.axioms_ms.qq": "ms",
    "bialgebra.axioms_ms.fp": "ms",
    "bialgebra.closed_form_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer, passes, enumerate_commands, overhead_frac):
    """Per-layer values per traced pass.  `*_ms` are self times;
    `enumerate_commands` counts the well-formed enumerations of a pass."""
    tot = tracer.totals()

    def self_ms(name):
        return tot[name][2] * 1000.0 / passes

    def calls(name):
        return tot[name][0] / passes

    scan_s = tot["exhaustive.scan"][1]
    candidates = tracer.counts["exhaustive.candidates"]
    solutions = tracer.counts["exhaustive.solutions"]
    return {
        "exhaustive.scan_ms": scan_s * 1000.0 / passes,
        "exhaustive.scan_calls": calls("exhaustive.scan"),
        "exhaustive.candidates": candidates / passes,
        "exhaustive.solutions": solutions / passes,
        "exhaustive.useful_ratio":
            solutions / candidates if candidates else 0.0,
        "exhaustive.scan_ns_per_candidate":
            scan_s * 1e9 / candidates if candidates else 0.0,
        "exhaustive.predicate_ms": self_ms("exhaustive.predicate"),
        "exhaustive.list_ms": self_ms("exhaustive.list"),
        "exhaustive.scans_per_command":
            calls("exhaustive.scan") / enumerate_commands
            if enumerate_commands else 0.0,
        "problems.parse_ms": self_ms("problems.parse"),
        "problems.serialize_ms": self_ms("problems.serialize"),
        "problems.report_bytes":
            tracer.counts["problems.report_bytes"] / passes,
        "cli.self_ms": self_ms("cli"),
        "liealg.jacobi_ms": self_ms("liealg.jacobi"),
        "solve.residual_ms.qq": self_ms("solve.residual.qq"),
        "solve.residual_ms.fp": self_ms("solve.residual.fp"),
        "solve.residual_calls":
            calls("solve.residual.qq") + calls("solve.residual.fp"),
        "solve.classify_ms": self_ms("solve.classify"),
        "solve.recognize_ms": self_ms("solve.recognize"),
        "solve.recognize_calls": calls("solve.recognize"),
        "solve.generate_ms": self_ms("solve.generate"),
        "tensor.symmetry_ms": self_ms("tensor.symmetry"),
        "bialgebra.axioms_ms.qq": self_ms("bialgebra.axioms.qq"),
        "bialgebra.axioms_ms.fp": self_ms("bialgebra.axioms.fp"),
        "bialgebra.closed_form_ms": self_ms("bialgebra.closed_form"),
        "trace.overhead_frac": overhead_frac,
    }
