"""Command-line interface.

    cybe check     --input problem.json   residual verdicts + classification
    cybe bialgebra --input problem.json   bialgebra axioms + closed forms
    cybe enumerate --input problem.json   exhaustive scan over GF(p)
    cybe generate  --input problem.json   build a closed-form solution case
    cybe families                         list algebra tables and cases

Every algebra command (all but families) checks its own input first, then
the Jacobi identity of the table, and runs its verdicts on a Lie table only.
Exit codes: 0 when every verdict in the report is affirmative, 1 when some
check came back negative (Jacobi identity violated, not a solution, axiom
failed, classification not confirmed, budget exceeded), 2 for malformed
input.  Reports go to stdout (or --output) as JSON by default; --format
text renders a summary.  Reports are deterministic; opt into wall-clock
timing with --timing.
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
    ScalarRoom,
    algebra_obj,
    dumps_report,
    load_problem,
    tensor_obj,
    tensor_objs,
)
from .scalars import clip
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
# of peak memory (its text in the buffer, which over-allocates as it
# grows, and the str it returns; the entries are shared tuples), so the
# cap bounds the size of the report rather than the memory; larger
# solution sets are counted but not listed
LIST_SOLUTIONS_CAP = 100_000


def _cells(entries, cap=None):
    """[[cell, "value"], ...] of the first cap of a kernel's nonzero
    entries (all by default), the text of each value written from the
    kernel's ints (`solve._Entries`)."""
    return [[cell, text]
            for cell, text in zip(entries.cells, entries.texts(cap))]


def _check_entry(L, r, table):
    res = cybe_residual(L, r)
    # the labels first: the symmetry flags then find the verdicts of the
    # records they share, decided by the predicates the table keeps
    try:
        labels = sorted(lab.value for lab in classify_solution(L, r))
        reason = None
    except UncoveredRegime as e:
        labels, reason = None, str(e)
    entry = {
        "tensor": tensor_obj(r),
        "is_solution": res.is_zero,
        "symmetry": symmetry_flags(r, table.alpha, table.beta),
    }
    if not res.is_zero:
        entry["residual_entries"] = _cells(res.entries, RESIDUAL_WITNESS_CAP)
    entry["covered"] = reason is None
    entry["labels"] = labels
    if reason is not None:
        entry["uncovered_reason"] = reason
    return entry, res.is_zero


BIALGEBRA_VERDICTS = ("coantisymmetry_ok", "cojacobi_ok", "compatibility_ok",
                      "cybe_solution", "is_coboundary", "is_triangular")


def _bialgebra_entry(L, r, table):
    b = bialgebra_check(L, r)
    entry = {"tensor": tensor_obj(r)}
    entry.update((key, getattr(b, key)) for key in BIALGEBRA_VERDICTS)
    witnesses = {}
    if not b.coantisymmetry_ok:
        witnesses["coantisymmetry"] = b.witness_ints["coantisymmetry"]
    for axiom, at in (("cojacobi", "basis_index"), ("compatibility", "pair")):
        if not getattr(b, f"{axiom}_ok"):
            witnesses[axiom] = [{at: where, "entries": _cells(entries)}
                                for where, entries in b.witness_ints[axiom]]
    if witnesses:
        entry["witnesses"] = witnesses
    closed = {"applicable": is_skew_symmetric(r)}
    if closed["applicable"]:
        try:
            # triangular first: where it is covered, so is coboundary
            cf_tri = triangular_predicate(L, r)
            cf_cob = coboundary_predicate(L, r)
            closed["coboundary"] = cf_cob
            closed["triangular"] = cf_tri
            closed["agrees"] = (cf_cob == b.is_coboundary
                                and cf_tri == b.is_triangular)
        except UncoveredRegime as e:
            closed["covered"] = False
            closed["uncovered_reason"] = str(e)
    entry["closed_form"] = closed
    return entry, (b.is_coboundary and b.is_triangular
                   and closed.get("agrees", True))


def _tensors(problem, args):
    if not problem.tensors:
        raise ProblemError(f'"{args.command}" needs a tensor (or tensors)')
    return problem.tensors


def _each_tensor(entry):
    """The verdicts of check and bialgebra: entry(L, r, table) gives each
    tensor's result and whether it checked out."""
    def verdicts(L, tensors, report):
        table = recognize_table(L)
        checked = [entry(L, r, table) for r in tensors]
        report["results"] = [result for result, _ in checked]
        return all(ok for _, ok in checked)
    return verdicts


def _enumerate_input(problem, args):
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
    return (budget, args.timing or opts.get("timing", False),
            args.list_solutions or opts.get("list_solutions", False))


def _enumerate(L, inputs, report):
    budget, timing, list_solutions = inputs
    t0 = time.perf_counter()
    try:
        enum = verify_classification(L, budget=budget)
    except BudgetExceeded as e:
        report["error"] = str(e)
        report["partial"] = False
        return False
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
    if not list_solutions:
        return enum.confirmed
    if enum.solution_count > LIST_SOLUTIONS_CAP:
        report["error"] = (
            f"{enum.solution_count} solutions exceed the cap of "
            f"{LIST_SOLUTIONS_CAP} listed solutions; none are listed")
        return False
    report["solutions"] = tensor_objs(
        decode_ids(enum.solution_ids, L.n, enum.p), L.n, enum.p)
    return enum.confirmed


def _generate_input(problem, args):
    opts = problem.options
    case = args.case or opts.get("case")
    if not case or not isinstance(case, str):
        raise ProblemError(
            '"generate" needs a case as a string (options.case or --case)')
    params_in = opts.get("params", {})
    if not isinstance(params_in, dict):
        raise ProblemError('"options.params" must be an object')
    params, room = {}, ScalarRoom("the generator parameters")
    for name, text in params_in.items():
        if not isinstance(text, str):
            raise ProblemError(
                f"generator parameter {clip(name)} must be a string")
        params[name] = room.scalar(text, problem.field,
                                   f"parameter {clip(name)}")
    return case, params


def _generate(L, inputs, report):
    case, params = inputs
    r = generate_solution(L, case, params)
    ok = is_cybe_solution(L, r)
    report.update({
        "case": case,
        "params": {k: str(v) for k, v in sorted(params.items())},
        "tensor": tensor_obj(r),
        "self_check": ok,
    })
    return ok


# per algebra command: its input checks, returning what its verdicts take;
# its verdicts, run on a Lie table only, returning whether all came out
# affirmative; the report keys that stand in for them on any other table
ALGEBRA_COMMANDS = {
    "check": (_tensors, _each_tensor(_check_entry), {"results": ()}),
    "bialgebra": (_tensors, _each_tensor(_bialgebra_entry), {"results": ()}),
    "enumerate": (_enumerate_input, _enumerate, {}),
    "generate": (_generate_input, _generate, {}),
}


def _algebra_command(problem, args):
    """The report of an algebra command, in three steps: the command's
    input checks (usage errors), the report's head with the Jacobi gate,
    and on a Lie table the command's verdicts."""
    read_input, verdicts, skipped = ALGEBRA_COMMANDS[args.command]
    L = problem.algebra
    if L is None:
        raise ProblemError(f'"{args.command}" needs an algebra')
    inputs = read_input(problem, args)
    violations = check_jacobi(L)
    report = {"command": args.command, "field": problem.field.to_spec(),
              "algebra": algebra_obj(L), "jacobi_ok": not violations}
    if violations:
        report["jacobi_violations"] = [
            {"triple": tri, "residual": [str(v) for v in vec]}
            for tri, vec in violations]
        report.update(skipped)
    report["ok"] = not violations and verdicts(L, inputs, report)
    return report


def cmd_families():
    fams = [{"name": name, "dim": fam.dim, "params": list(fam.params),
             "bracket": fam.bracket} for name, fam in FAMILIES.items()]
    cases = [
        {"name": name, "algebra": gen.algebra, "params": list(gen.params),
         "conditions": gen.text}
        for name, gen in GENERATORS.items()
    ]
    return {
        "command": "families",
        "families": fams,
        "generator_cases": cases,
        "ok": True,
    }


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
            for key in BIALGEBRA_VERDICTS:
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
    if cmd == "generate" and "case" in report:
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
        report = (cmd_families() if args.command == "families"
                  else _algebra_command(load_problem(args.input), args))
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
    return 0 if report["ok"] else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
