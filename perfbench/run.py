"""The cybe benchmark: seeded CLI workloads, checked reports, timings.

    python3 perfbench/run.py --workload enum-f5-dim3 --seed 1 --seconds 30
    python3 perfbench/run.py --trace 1          # every workload, per layer

It drives the public entry point `cybe.cli.run(argv)` in process, from one
process and one thread, as a closed loop: each command starts when the
previous one has returned.  A pass runs every command of the workload once;
passes repeat until `--seconds` have gone by.  Every report is checked
against its expected answer (see `workloads` and `checks`).

With `--trace 0` the end-to-end metrics are printed; with `--trace 1`
untraced and traced passes alternate and the per-layer metrics of the
traced ones are printed, with the tracing overhead.  Each workload prints a
table, and the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib.util import find_spec
from pathlib import Path

import numpy

from checks import check
from tracing import LAYER_UNITS, Tracer, installed, layer_metrics
from workloads import REFERENCE, WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# a scaled command time is its measured time * REFERENCE_S / the median
# time of the workload's reference kernel over its pass, i.e. the time it
# would take when the kernel takes REFERENCE_S; the kernel runs between
# commands, at least REFERENCE_EVERY_S apart
REFERENCE_S = 0.020
REFERENCE_EVERY_S = 0.5

SETUP_REPEATS = 7
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from cybe.cli import run
sys.exit(run(["families"]) or run(["enumerate", "--input", sys.argv[2]]))
"""

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_ms_p50": "ms",
    "cmd_ms_tail": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Pass:
    """Timings and failures of one pass over a workload's commands."""

    def __init__(self):
        self.cmd_s = []         # per command, in command order
        self.scale = 1.0        # REFERENCE_S / median kernel time
        self.reference_s = []
        self.failures = []      # (label, reason, crashed)
        self.backends = set()

    @property
    def seconds(self):
        return sum(self.cmd_s)


def python_kernel():
    """Seconds taken by a fixed pure-Python exact-arithmetic loop."""
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(2500):
        x = x * Fraction(3, 7) + Fraction(i % 5, 3)
        x = Fraction(x.numerator % 1000, x.denominator % 1000 + 1)
    return time.perf_counter() - t0


_IDS = numpy.arange(1 << 16, dtype=numpy.int64)


def numpy_kernel():
    """Seconds taken by fixed base-5 digit arithmetic on int64 arrays."""
    t0 = time.perf_counter()
    for k in range(4):
        rem, acc = _IDS + k, numpy.zeros_like(_IDS)
        for _ in range(9):
            digit = rem % 5
            rem //= 5
            acc += digit * digit * (k + 1)
        numpy.count_nonzero(acc % 5 == 0)
    return time.perf_counter() - t0


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def run_pass(cli, cmds, kernel=None):
    result = Pass()
    last = -REFERENCE_EVERY_S
    for cmd in cmds:
        if kernel and time.perf_counter() - last >= REFERENCE_EVERY_S:
            result.reference_s.append(kernel())
            last = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(cmd.argv)
        except SystemExit as e:         # argparse rejects bad flags this way
            code = e.code
        except Exception as e:          # noqa: BLE001 - counted, not fatal
            crash = f"{type(e).__name__} escaped run: {e}"
        result.cmd_s.append(time.perf_counter() - t0)
        reason = crash or check(cmd, code, out.getvalue())
        if reason:
            result.failures.append((cmd.label, reason, crash is not None))
        elif cmd.expect.get("total"):
            result.backends.add(json.loads(out.getvalue()).get("backend"))
    if kernel:
        result.reference_s.append(kernel())
        result.scale = REFERENCE_S / statistics.median(result.reference_s)
    return result


def measure_setup(workdir):
    """Median seconds from a fresh interpreter to the end of `families`
    plus a tiny enumeration."""
    tiny = workdir / "setup-vi-f3.json"
    tiny.write_text('{"field": {"kind": "prime", "p": 3}, '
                    '"algebra": {"family": "VI"}}\n', encoding="utf-8")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(tiny)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up run failed: "
                               + proc.stderr.decode(errors="replace"))
    return statistics.median(times)


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples above it.  Below 21 samples that percentile would not lie above
    the median, so the maximum stands in for it."""
    s = sorted(samples)
    if len(s) < 21:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def measure(cli, workload, seed, seconds, trace):
    workdir = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        cmds = build(workload, seed, workdir / "problems")
        setup_s = None if trace else measure_setup(workdir)
        warmup(cli, workdir)
        plain, traced = [], []
        tracer = Tracer()
        t_end = time.perf_counter() + seconds
        while True:
            if trace and len(plain) > len(traced):
                with installed(tracer):
                    traced.append(run_pass(cli, cmds))
            else:
                plain.append(run_pass(cli, cmds,
                                      KERNELS[REFERENCE[workload]]))
            if time.perf_counter() >= t_end and (traced or not trace):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    result = {
        "correct": not any(not crashed for _, _, crashed in failures),
        "attempted": sum(len(p.cmd_s) for p in passes),
        "failed": len(failures),
        "failures": failures,
        "backends": sorted(set().union(*(p.backends for p in passes))),
        "passes": len(passes),
    }
    if trace:
        overhead = (statistics.median(p.seconds for p in traced)
                    / statistics.median(p.seconds for p in plain) - 1.0)
        enum_cmds = sum("total" in c.expect for c in cmds)
        result["metrics"] = layer_metrics(tracer, len(traced), enum_cmds,
                                          overhead)
        return result
    cmd_s = [[s * p.scale for s in p.cmd_s] for p in plain]
    cmd_ms = [s * 1000.0 for times in cmd_s for s in times]
    tail_ms, tail_pct = tail(cmd_ms)
    # each command's median over the passes: a burst of machine noise in
    # one pass moves only the commands it overlapped, and those only when
    # it hits most passes
    typical = [statistics.median(times[i] for times in cmd_s)
               for i in range(len(cmds))]
    kernel = [s for p in plain for s in p.reference_s]
    result["scaling"] = (
        f"times scaled to a {REFERENCE_S * 1000:.0f} ms "
        f"{REFERENCE[workload]} reference kernel (measured median "
        f"{statistics.median(kernel) * 1000:.2f} ms, unscaled wall_s "
        f"{statistics.median(p.seconds for p in plain):.4g})")
    if any(c.kind == "enumerate" for c in cmds):
        work = [c.expect.get("total", 0) for c in cmds]
        busy = [t for c, t in zip(cmds, typical) if c.kind == "enumerate"]
        result["throughput_of"] = "candidates_per_s"
    else:
        work = [c.tensors for c in cmds]
        busy = typical
        result["throughput_of"] = "tensors_per_s"
    result["tail_note"] = f"p{tail_pct:.1f} of {len(cmd_ms)} commands"
    result["metrics"] = {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "cmd_ms_p50": statistics.median(cmd_ms),
        "cmd_ms_tail": tail_ms,
        "throughput_per_s": sum(work) / sum(busy),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result


def warmup(cli, workdir):
    """Cheap untimed calls that load every CLI code path once."""
    tiny = workdir / "warmup-vi-f3.json"
    tiny.write_text('{"field": {"kind": "prime", "p": 3}, '
                    '"algebra": {"family": "VI"}, '
                    '"tensor": {"named": {"p": "1", "q": "2"}}}\n',
                    encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for kind in ("families", "enumerate", "check", "bialgebra"):
            cli.run([kind] if kind == "families"
                    else [kind, "--input", str(tiny)])


def machine_facts(backends):
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": find_spec("numba") is not None,
        "scan_backend": ",".join(backends) or "none",
    }


def print_table(workload, result, units):
    print(f"== {workload}: {result['passes']} passes, "
          f"{result['attempted']} commands, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4f}), "
          f"correct={result['correct']}")
    notes = {"cmd_ms_tail": result.get("tail_note"),
             "throughput_per_s": result.get("throughput_of")}
    if "scaling" in result:
        print(f"  {result['scaling']}")
    for name, value in result["metrics"].items():
        note = notes.get(name) or ""
        print(f"  {name:<34} {value:>16.6g} {units[name]:<6} {note}")
    seen = Counter((label, reason) for label, reason, _ in result["failures"])
    for (label, reason), n in sorted(seen.items()):
        print(f"  failed x{n}: {label}: {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cybe" / "cli.py").is_file():
        sys.stderr.write(f"error: no cybe sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import cybe.cli as cli

    units = LAYER_UNITS if args.trace else E2E_UNITS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = measure(cli, name, args.seed, args.seconds,
                                    args.trace)
        except Exception:               # noqa: BLE001 - no result printed
            traceback.print_exc()
            return 1
        print_table(name, results[name], units)
    facts = machine_facts(sorted({b for r in results.values()
                                  for b in r["backends"]}))
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))

    def summary(r):
        return {"correct": r["correct"], "attempted": r["attempted"],
                "failed": r["failed"],
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in r["metrics"].items()}}

    if len(names) == 1:
        print(json.dumps(summary(results[names[0]])))
    else:
        print(json.dumps({n: summary(r) for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
