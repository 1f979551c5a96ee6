"""Report checks: does one CLI call's exit code and report match what its
command expects?  `check` returns None when it does and a one-line reason
when it does not."""

from __future__ import annotations

import json
from fractions import Fraction


def check(cmd, code, out):
    want = cmd.expect.get("exit")
    if want is not None and code != want:
        return f"exit code {code}, expected {want}"
    if cmd.expect.get("exit") == 2:
        return "usage error printed a report" if out else None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as e:
        return f"report is not JSON: {e}"
    if report.get("command") != cmd.kind:
        return f"report command {report.get('command')!r}"
    if want is None and code != (0 if report.get("ok") else 1):
        return f"exit code {code} disagrees with ok={report.get('ok')}"
    return _CHECKERS[cmd.kind](cmd.expect, report)


def _grid(entries, n, p):
    g = [[Fraction(0)] * n for _ in range(n)]
    for i, j, text in entries:
        g[i - 1][j - 1] = Fraction(text) if p is None else int(text) % p
    return g


def _same_grid(got, want, p):
    n = len(want)
    return all((got[i][j] - want[i][j]) % p == 0 if p is not None
               else got[i][j] == want[i][j]
               for i in range(n) for j in range(n))


def _enumerate(exp, rep):
    for key in ("total", "solution_count", "label_counts", "confirmed",
                "empirical_only"):
        if rep.get(key) != exp[key]:
            return f"{key} {rep.get(key)!r}, expected {exp[key]!r}"
    if rep["false_positives"]:
        return "the predicate accepted a non-solution"
    if rep["ok"] != exp["confirmed"]:
        return f"ok {rep['ok']} on a confirmed={exp['confirmed']} table"
    accepted = sum(exp["label_counts"].values()) if exp["empirical_only"] \
        else exp["solution_count"]
    if exp["confirmed"] and rep["missed_by_predicate"]:
        return "confirmed table with missed solutions"
    if rep["matched"] != rep["predicate_count"] or rep["matched"] != accepted:
        return (f"matched {rep['matched']} of predicate count "
                f"{rep['predicate_count']}")
    listed = exp.get("solutions")
    if listed is None:
        return "unrequested solution list" if "solutions" in rep else None
    if "solutions" not in rep:
        return "missing solution list"
    n = len(next(iter(listed)))
    p = rep["field"]["p"]
    got = {tuple(tuple(int(v) for v in row)
                 for row in _grid(t["entries"], n, p))
           for t in rep["solutions"]}
    if len(rep["solutions"]) != len(got) or got != listed:
        return "solution list differs from the reference solution set"
    return None


def _check(exp, rep):
    if not rep.get("jacobi_ok"):
        return "Jacobi reported violated on a Lie algebra"
    results = rep["results"]
    if len(results) != len(exp["results"]):
        return f"{len(results)} results for {len(exp['results'])} tensors"
    for idx, (got, want) in enumerate(zip(results, exp["results"]), 1):
        if got["is_solution"] != want["is_solution"]:
            return f"tensor {idx}: is_solution {got['is_solution']}"
        sym = got["symmetry"]
        for key in ("strongly_symmetric", "skew_symmetric", "alpha_beta_skew"):
            if sym.get(key) != want[key]:
                return f"tensor {idx}: {key} {sym.get(key)}"
        if got["covered"] != exp["covered"]:
            return f"tensor {idx}: covered {got['covered']}"
        if got["is_solution"] and "residual_entries" in got:
            return f"tensor {idx}: solution with residual witnesses"
        if not got["is_solution"] and not got.get("residual_entries"):
            return f"tensor {idx}: non-solution without witnesses"
        if exp["covered"]:
            labels = got["labels"]
            if bool(labels) != want["is_solution"]:
                return f"tensor {idx}: labels {labels} vs solution flag"
            if (exp["strong_label"] and want["strongly_symmetric"]
                    and "strongly-symmetric" not in labels):
                return f"tensor {idx}: strong tensor without its label"
            if (exp["strong_label"] and want["alpha_beta_skew"]
                    and "alpha-beta-skew" not in labels):
                return f"tensor {idx}: alpha,beta-skew tensor unlabelled"
    return None


def _bialgebra(exp, rep):
    if not rep.get("jacobi_ok"):
        return "Jacobi reported violated on a Lie algebra"
    results = rep["results"]
    if len(results) != len(exp["results"]):
        return f"{len(results)} results for {len(exp['results'])} tensors"
    for idx, (got, want) in enumerate(zip(results, exp["results"]), 1):
        if got["cybe_solution"] != want["cybe_solution"]:
            return f"tensor {idx}: cybe_solution {got['cybe_solution']}"
        axioms = (got["coantisymmetry_ok"] and got["cojacobi_ok"]
                  and got["compatibility_ok"])
        if got["is_coboundary"] != axioms:
            return f"tensor {idx}: is_coboundary disagrees with the axioms"
        if got["is_triangular"] != (axioms and got["cybe_solution"]):
            return f"tensor {idx}: is_triangular inconsistent"
        for key in ("is_coboundary", "is_triangular"):
            if want[key] is not None and got[key] != want[key]:
                return f"tensor {idx}: {key} {got[key]}, closed form says " \
                       f"{want[key]}"
        closed = got["closed_form"]
        if closed["applicable"] != want["skew"]:
            return (f"tensor {idx}: closed form applicable "
                    f"{closed['applicable']}")
        if closed.get("agrees") is False:
            return f"tensor {idx}: closed form disagrees with the axioms"
        if want["skew"] and ("agrees" in closed) != exp["covered"]:
            return f"tensor {idx}: closed form coverage {closed}"
    return None


def _generate(exp, rep):
    if not (rep["self_check"] and rep["ok"]):
        return "generated tensor failed its self check"
    want = exp["grid"]
    got = _grid(rep["tensor"]["entries"], len(want), exp["p"])
    if not _same_grid(got, want, exp["p"]):
        return f"generated {rep['tensor']['entries']}, expected {want}"
    return None


_CHECKERS = {
    "enumerate": _enumerate,
    "check": _check,
    "bialgebra": _bialgebra,
    "generate": _generate,
}
