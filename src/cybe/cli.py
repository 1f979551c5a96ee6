"""Command-line interface.

    cybe check     --input problem.json   residual verdicts + classification
    cybe bialgebra --input problem.json   bialgebra axioms + closed forms
    cybe enumerate --input problem.json   exhaustive scan over GF(p)
    cybe generate  --input problem.json   build a closed-form solution case
    cybe families                         list algebra tables and cases

Exit codes: 0 when every verdict in the report is affirmative, 1 when some
check came back negative (not a solution, axiom failed, classification not
confirmed, budget exceeded), 2 for malformed input.  Reports go to stdout
(or --output) as JSON by default; --format text renders a summary.  Reports
are deterministic; opt into wall-clock timing with --timing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time

from .bialgebra import bialgebra_check, coboundary_predicate, triangular_predicate
from .exhaustive import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    decode_ids,
    verify_classification,
)
from .liealg import FAMILIES, check_jacobi
from .problems import (
    ProblemError,
    algebra_obj,
    dumps_report,
    load_problem,
    tensor_obj,
    tensor_objs,
)
from .scalars import FieldError, clip
from .solve import (
    GENERATORS,
    UncoveredRegime,
    classify_solution,
    cybe_residual,
    generate_solution,
    is_cybe_solution,
    is_skew_symmetric,
    recognize_table,
    symmetry_flags,
)

RESIDUAL_WITNESS_CAP = 100
# a listed dim-2 solution costs about 270 bytes of JSON and about 0.6 KB
# of peak memory (the text, and the copy the buffer returns), so the cap
# bounds the size of the report rather than the memory; larger solution
# sets are counted but not listed
LIST_SOLUTIONS_CAP = 100_000


def _jacobi_section(L, report):
    violations = check_jacobi(L)
    report["jacobi_ok"] = not violations
    if violations:
        report["jacobi_violations"] = [
            {"triple": tri, "residual": [str(v) for v in vec]}
            for tri, vec in violations
        ]
    return not violations


def _head(problem, command):
    """The algebra of a command that needs one, and its report's head."""
    L = problem.algebra
    if L is None:
        raise ProblemError(f'"{command}" needs an algebra')
    return L, {"command": command, "field": problem.field.to_spec(),
               "algebra": algebra_obj(L)}


def cmd_check(problem):
    L, report = _head(problem, "check")
    if not problem.tensors:
        raise ProblemError('"check" needs a tensor (or tensors)')
    ok = _jacobi_section(L, report)
    results = []
    if ok:
        table = recognize_table(L)
        for r in problem.tensors:
            res = cybe_residual(L, r)
            entry = {
                "tensor": tensor_obj(r),
                "is_solution": res.is_zero,
                "symmetry": symmetry_flags(r, table.alpha, table.beta),
            }
            if not res.is_zero:
                entry["residual_entries"] = [
                    [cell, str(v)]
                    for cell, v in res.nonzero_entries[:RESIDUAL_WITNESS_CAP]
                ]
                ok = False
            try:
                labels = classify_solution(L, r)
                entry["covered"] = True
                entry["labels"] = sorted(lab.value for lab in labels)
            except UncoveredRegime as e:
                entry["covered"] = False
                entry["labels"] = None
                entry["uncovered_reason"] = str(e)
            results.append(entry)
    report["results"] = results
    report["ok"] = ok
    return report, 0 if ok else 1


def cmd_bialgebra(problem):
    L, report = _head(problem, "bialgebra")
    if not problem.tensors:
        raise ProblemError('"bialgebra" needs a tensor (or tensors)')
    ok = _jacobi_section(L, report)
    results = []
    if ok:
        for r in problem.tensors:
            b = bialgebra_check(L, r)
            entry = {
                "tensor": tensor_obj(r),
                "coantisymmetry_ok": b.coantisymmetry_ok,
                "cojacobi_ok": b.cojacobi_ok,
                "compatibility_ok": b.compatibility_ok,
                "cybe_solution": b.cybe_solution,
                "is_coboundary": b.is_coboundary,
                "is_triangular": b.is_triangular,
            }
            witnesses = {}
            if not b.coantisymmetry_ok:
                witnesses["coantisymmetry"] = b.witnesses["coantisymmetry"]
            if not b.cojacobi_ok:
                witnesses["cojacobi"] = [
                    {"basis_index": i,
                     "entries": [[cell, str(v)] for cell, v in entries]}
                    for i, entries in b.witnesses["cojacobi"]
                ]
            if not b.compatibility_ok:
                witnesses["compatibility"] = [
                    {"pair": pair,
                     "entries": [[cell, str(v)] for cell, v in entries]}
                    for pair, entries in b.witnesses["compatibility"]
                ]
            if witnesses:
                entry["witnesses"] = witnesses
            closed = {"applicable": is_skew_symmetric(r)}
            if closed["applicable"]:
                try:
                    cf_cob = coboundary_predicate(L, r)
                    cf_tri = triangular_predicate(L, r)
                    closed["coboundary"] = cf_cob
                    closed["triangular"] = cf_tri
                    closed["agrees"] = (cf_cob == b.is_coboundary
                                        and cf_tri == b.is_triangular)
                except UncoveredRegime as e:
                    closed["covered"] = False
                    closed["uncovered_reason"] = str(e)
            entry["closed_form"] = closed
            if not (b.is_coboundary and b.is_triangular
                    and closed.get("agrees", True)):
                ok = False
            results.append(entry)
    report["results"] = results
    report["ok"] = ok
    return report, 0 if ok else 1


def cmd_enumerate(problem, args):
    L, report = _head(problem, "enumerate")
    opts = problem.options
    budget = args.budget if args.budget is not None else opts.get(
        "budget", DEFAULT_BUDGET)
    # JSON true is an int to Python, and null would lift the budget
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ProblemError(
            "budget (options.budget or --budget) must be an integer >= 1")
    for key in ("timing", "list_solutions"):
        if type(opts.get(key, False)) is not bool:
            raise ProblemError(f"options.{key} must be true or false")
    timing = args.timing or opts.get("timing", False)
    if not _jacobi_section(L, report):
        report["ok"] = False
        return report, 1
    t0 = time.perf_counter()
    try:
        enum = verify_classification(L, budget=budget)
    except BudgetExceeded as e:
        report["error"] = str(e)
        report["partial"] = False
        report["ok"] = False
        return report, 1
    wall_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    report.update({
        "total": enum.total,
        "backend": "frontier",
        "solution_count": enum.solution_count,
        "predicate_count": enum.predicate_count,
        "matched": enum.matched,
        "label_counts": dict(sorted(enum.label_counts.items())),
        "missed_by_predicate": enum.missed_by_predicate,
        "false_positives": enum.false_positives,
        "confirmed": enum.confirmed,
        "empirical_only": enum.empirical_only,
        "wall_time_ms": wall_ms if timing else None,
    })
    ok = enum.confirmed
    if opts.get("list_solutions") or args.list_solutions:
        if enum.solution_count > LIST_SOLUTIONS_CAP:
            report["error"] = (
                f"{enum.solution_count} solutions exceed the cap of "
                f"{LIST_SOLUTIONS_CAP} listed solutions; none are listed")
            ok = False
        else:
            report["solutions"] = tensor_objs(
                decode_ids(enum.solution_ids, L.n, enum.p), L.n)
    report["ok"] = ok
    return report, 0 if ok else 1


def cmd_generate(problem, args):
    L, report = _head(problem, "generate")
    opts = problem.options
    case = args.case or opts.get("case")
    if not case or not isinstance(case, str):
        raise ProblemError(
            '"generate" needs a case as a string (options.case or --case)')
    params_in = opts.get("params", {})
    if not isinstance(params_in, dict):
        raise ProblemError('"options.params" must be an object')
    params = {}
    for name, text in params_in.items():
        if not isinstance(text, str):
            raise ProblemError(
                f"generator parameter {clip(name)} must be a string")
        try:
            params[name] = problem.field.parse(text)
        except FieldError as e:
            raise ProblemError(f"parameter {clip(name)}: {e}") from None
    r = generate_solution(L, case, params)
    ok = is_cybe_solution(L, r)
    report.update({
        "case": case,
        "params": {k: str(v) for k, v in sorted(params.items())},
        "tensor": tensor_obj(r),
        "self_check": ok,
        "ok": ok,
    })
    return report, 0 if ok else 1


def cmd_families():
    fams = [{"name": name, "dim": fam.dim, "params": list(fam.params),
             "bracket": fam.bracket} for name, fam in FAMILIES.items()]
    cases = [
        {"name": name, "algebra": gen.algebra, "params": list(gen.params),
         "conditions": gen.text}
        for name, gen in GENERATORS.items()
    ]
    report = {
        "command": "families",
        "families": fams,
        "generator_cases": cases,
        "ok": True,
    }
    return report, 0


# ---------------------------------------------------------------------------
# text rendering

def _render_text(report, out):
    def line(s=""):
        out.write(s + "\n")

    cmd = report.get("command")
    line(f"command: {cmd}")
    if "field" in report:
        f = report["field"]
        line("field:   " + ("Q" if f["kind"] == "rational"
                            else f"F_{f['p']}"))
    if "algebra" in report:
        a = report["algebra"]
        line(f"algebra: {a['label']} (dim {a['dim']})")
    if "jacobi_ok" in report:
        line(f"jacobi:  {'ok' if report['jacobi_ok'] else 'VIOLATED'}")
        for v in report.get("jacobi_violations", []):
            line(f"  triple {tuple(v['triple'])}: residual {v['residual']}")
    if cmd in ("check", "bialgebra"):
        for idx, res in enumerate(report.get("results", []), start=1):
            line(f"tensor #{idx}: {res['tensor']['entries']}")
            if cmd == "check":
                line(f"  solution: {res['is_solution']}")
                if res.get("residual_entries"):
                    line(f"  nonzero residual at: "
                         f"{[e[0] for e in res['residual_entries']]}")
                flags = ", ".join(k for k, v in res["symmetry"].items() if v)
                line(f"  symmetry: {flags or 'none'}")
                if res["covered"]:
                    line(f"  labels: {', '.join(res['labels']) or '(none)'}")
                else:
                    line(f"  labels: uncovered regime "
                         f"({res['uncovered_reason']})")
            else:
                for key in ("coantisymmetry_ok", "cojacobi_ok",
                            "compatibility_ok", "cybe_solution",
                            "is_coboundary", "is_triangular"):
                    line(f"  {key}: {res[key]}")
                cf = res["closed_form"]
                if not cf["applicable"]:
                    line("  closed form: n/a (tensor not skew)")
                elif cf.get("covered") is False:
                    line(f"  closed form: uncovered "
                         f"({cf['uncovered_reason']})")
                else:
                    line(f"  closed form: coboundary={cf['coboundary']} "
                         f"triangular={cf['triangular']} "
                         f"agrees={cf['agrees']}")
    if cmd == "enumerate" and "total" in report:
        line(f"total candidates: {report['total']}")
        line(f"solutions:        {report['solution_count']}")
        line(f"predicate union:  {report['predicate_count']}")
        line(f"matched:          {report['matched']}")
        line(f"label counts:     {report['label_counts']}")
        line(f"missed: {len(report['missed_by_predicate'])}  "
             f"false positives: {len(report['false_positives'])}")
        line(f"confirmed: {report['confirmed']}"
             + ("  (empirical only)" if report["empirical_only"] else ""))
    if cmd == "enumerate" and "error" in report:
        line(f"error: {report['error']}")
    if cmd == "generate":
        line(f"case: {report['case']} params: {report['params']}")
        line(f"tensor: {report['tensor']['entries']}")
        line(f"self check: {report['self_check']}")
    if cmd == "families":
        for fam in report["families"]:
            line(f"{fam['name']:>4}  dim {fam['dim']}: {fam['bracket']}")
        line("generator cases:")
        for case in report["generator_cases"]:
            line(f"  {case['name']:<16} {case['algebra']:<24} "
                 f"params {', '.join(case['params'])}; {case['conditions']}")
    line(f"ok: {report.get('ok')}")


def _emit(report, args):
    """Write the report to --output, opened once, or to stdout."""
    with (open(args.output, "w", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            fh.write(dumps_report(report))
        else:
            _render_text(report, fh)


@functools.cache   # one parser per process: building it takes about 1.3 ms
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cybe",
        description="Exact verification, classification and enumeration of "
                    "constant CYBE solutions on low-dimensional Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", "-i", required=True,
                           help="problem file (JSON)")
        p.add_argument("--output", "-o", help="write the report here")
        p.add_argument("--format", choices=("json", "text"), default="json")

    common(sub.add_parser("check", help="CYBE verdicts + classification"))
    common(sub.add_parser("bialgebra",
                          help="bialgebra axioms and closed forms"))
    p_enum = sub.add_parser("enumerate",
                            help="exhaustive scan over a prime field")
    common(p_enum)
    p_enum.add_argument("--budget", type=int, default=None,
                        help="row cap of a search level "
                             f"(default {DEFAULT_BUDGET})")
    p_enum.add_argument("--timing", action="store_true",
                        help="include wall_time_ms in the report")
    p_enum.add_argument("--list-solutions", action="store_true",
                        help="include every solution tensor in the report")
    p_gen = sub.add_parser("generate", help="build a closed-form solution")
    common(p_gen)
    p_gen.add_argument("--case", choices=GENERATORS, default=None,
                       help="overrides options.case from the problem file")
    common(sub.add_parser("families",
                          help="list the built-in tables and cases"),
           needs_input=False)
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "families":
            report, code = cmd_families()
        else:
            problem = load_problem(args.input)
            if args.command == "check":
                report, code = cmd_check(problem)
            elif args.command == "bialgebra":
                report, code = cmd_bialgebra(problem)
            elif args.command == "enumerate":
                report, code = cmd_enumerate(problem, args)
            else:
                report, code = cmd_generate(problem, args)
    except ValueError as e:
        # ProblemError, FieldError, SideConditionError, UncoveredRegime and
        # the plain dimension/field guards all land here: usage errors
        sys.stderr.write(f"error: {e}\n")
        return 2
    try:
        _emit(report, args)
    except OSError as e:
        sys.stderr.write(f"error: cannot write {args.output or 'stdout'}: "
                         f"{e.strerror}\n")
        return 2
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
