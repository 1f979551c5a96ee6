"""Self-test of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

- the same seed writes byte-identical problem files;
- another seed writes different files whose commands have the same
  outcomes, command by command, over one pass of every workload;
- tampered reports are counted as failed;
- span self times subtract exactly the time of child spans.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cybe.cli as cli  # noqa: E402

import run  # noqa: E402
from checks import check  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def outcomes(cmds):
    """label -> failure reason (None when the report passed its check)."""
    found = run.run_pass(cli, cmds).failures
    expect(not any(not crashed for _, _, crashed in found),
           f"wrong reports: {found}")
    reasons = {label: reason for label, reason, _ in found}
    return {c.label: reasons.get(c.label) for c in cmds}


def test_seeds(tmp):
    for workload in WORKLOADS:
        a = build(workload, 7, tmp / f"{workload}-7a")
        build(workload, 7, tmp / f"{workload}-7b")
        b = build(workload, 8, tmp / f"{workload}-8")
        same = files(tmp / f"{workload}-7a")
        expect(same == files(tmp / f"{workload}-7b"),
               f"{workload}: seed 7 files differ between builds")
        other = files(tmp / f"{workload}-8")
        expect(set(same.values()) != set(other.values()),
               f"{workload}: seeds 7 and 8 write the same files")
        expect(outcomes(a) == outcomes(b),
               f"{workload}: seeds 7 and 8 have different outcomes")
        print(f"selftest: {workload}: seeds deterministic, outcomes equal")


def call(cmd):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run(cmd.argv)
    return code, out.getvalue()


def tampered(cmd, edit):
    code, out = call(cmd)
    expect(check(cmd, code, out) is None, f"{cmd.label}: untouched report "
                                          f"fails: {check(cmd, code, out)}")
    report = json.loads(out)
    code = edit(report, code)
    return check(cmd, code, json.dumps(report))


def test_tampering(tmp):
    sweep = build("enum-sweep", 3, tmp / "sweep")
    plain = next(c for c in sweep if c.label == "ii11/F_3")
    listed = next(c for c in sweep if c.label == "ii11/F_3 list")
    verify = build("verify-exact", 3, tmp / "verify")
    by_label = {c.label: c for c in verify}

    def set_key(key, value):
        def edit(report, code):
            report[key] = value
            return code
        return edit

    def set_result(key, index=0, nested=None):
        def edit(report, code):
            target = report["results"][index]
            if nested:
                target = target[nested]
            target[key] = not target[key]
            return code
        return edit

    def drop_solution(report, code):
        report["solutions"].pop()
        return code

    def other_exit(report, code):
        return 1 - code

    def move_entry(report, code):
        entries = report["tensor"]["entries"]
        entries[0][2] = str(int(entries[0][2].split("/")[0]) + 1)
        return code

    cases = [
        (plain, set_key("solution_count", 60)),
        (plain, set_key("confirmed", False)),
        (plain, set_key("label_counts", {"strongly-symmetric": 27})),
        (plain, set_key("false_positives", [{"id": 0}])),
        (plain, other_exit),
        (listed, drop_solution),
        (by_label["sl2/Q check"], set_result("is_solution")),
        (by_label["sl2/Q check"], set_result("strongly_symmetric",
                                             nested="symmetry")),
        (by_label["sl2/Q bialgebra"], set_result("is_triangular")),
        (by_label["iv/F_7 bialgebra"], set_result("cybe_solution")),
        (by_label["generate strong-z"], move_entry),
        (by_label["generate strong-z"], set_key("self_check", False)),
    ]
    for cmd, edit in cases:
        reason = tampered(cmd, edit)
        expect(reason is not None,
               f"{cmd.label}: tampering with {edit.__name__} went unnoticed")
    print(f"selftest: {len(cases)} tampered reports all counted as failed")


def test_self_time():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = tracer.wrap(leaf, "leaf", None)

    def parent():
        time.sleep(0.01)
        wrapped_leaf()

    tracer.wrap(parent, "parent", None)()
    tot = tracer.totals()
    expect(abs(tot["parent"][1] - tot["parent"][2] - tot["leaf"][1]) < 1e-9,
           "parent self time is not its total minus the child span")
    expect(tot["leaf"][1] == tot["leaf"][2], "a leaf span has child time")
    print("selftest: span self times subtract child spans")


def main():
    (HERE / "work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "work"))
    try:
        test_self_time()
        test_tampering(tmp)
        test_seeds(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
