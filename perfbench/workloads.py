"""Seeded problem files for the benchmark workloads, with the answer each
report must give.

`build(workload, seed, workdir)` writes the problem files into `workdir` and
returns the commands of one pass.  The same seed gives byte-identical files;
another seed changes the parameters, the tensors, the way scalars are
written and the command order, but never the expected outcomes' kind (a
confirmed table stays confirmed, an empirical one stays empirical).

Expected answers come from three places:
- `oracle` (no `cybe` import): every solution set over F_3 and the small
  F_p of the dim-2 table, and whether each exact tensor solves the CYBE;
- closed forms from the paper: the sl2 triangularity quadric, the solvable
  coboundary criterion (delta+1)((delta-1)u+beta s)s = 0, p**n strongly
  symmetric grids, p skew dim-2 grids;
- `GOLDEN_F5` and `LABELS_F3` below: counts frozen from the program.  The
  F_3 ones are also frozen in tests/test_exhaustive.py, and every frozen
  solution count was reproduced by the oracle when it was recorded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

WORKLOADS = ("enum-f5-dim3", "enum-sweep", "verify-exact")

# The reference kernel (see run.KERNELS) each workload's times are scaled
# by.  On a small shared machine the speed of the same work follows the
# host's load in phases of seconds to minutes (runs of one workload
# differed by up to 1.7x), and a fixed kernel of the same kind of work
# follows it too: Python object arithmetic for the exact-arithmetic and
# per-command workloads, numpy array arithmetic for the large scans.  The
# two kinds of work do not follow each other.
REFERENCE = {
    "enum-f5-dim3": "numpy",
    "enum-sweep": "python",
    "verify-exact": "python",
}

# Label counts of the classified regimes over F_3, keyed by (kind, a, b);
# the regimes missing here are empirical_only.
LABELS_F3 = {
    ("ii", 0, 0): {"heisenberg-case-1": 108, "heisenberg-case-2": 207},
    **{("ii", a, b): {"strongly-symmetric": 27, "alpha-beta-skew": 33}
       for a in (1, 2) for b in (1, 2)},
    ("solvable", 0, 0): {"family-v-case-1": 162, "family-v-case-2": 171},
    ("solvable", 0, 1): {"strongly-symmetric": 27,
                         "family-iv-diagonal-case-2": 105},
    ("solvable", 0, 2): {"strongly-symmetric": 27,
                         "family-iv-diagonal-case-2": 117},
    ("solvable", 1, 1): {"strongly-symmetric": 27,
                         "family-iv-jordan-case-2": 87},
    ("solvable", 2, 1): {"strongly-symmetric": 27,
                         "family-iv-jordan-case-2": 87},
}

# Over F_5 (1,953,125 candidates each, too many to replay per run):
# solution counts and label counts.  II(a, b) is the same for every a*b != 0;
# the solvable table with beta != 0, delta not in {0, 1} depends on delta
# only.
GOLDEN_F5 = {
    "ii": (269, {"strongly-symmetric": 125, "alpha-beta-skew": 145}),
    "iii": (3725, {"heisenberg-case-1": 2000, "heisenberg-case-2": 1725}),
    "solvable-delta2": (765, {"strongly-symmetric": 125}),
    "solvable-delta3": (765, {"strongly-symmetric": 125}),
    "solvable-delta4": (925, {"strongly-symmetric": 125}),
}


@dataclass
class Command:
    """One CLI call of a pass and what its report must say."""

    label: str
    kind: str               # the cybe subcommand
    argv: list
    expect: dict = field(default_factory=dict)
    tensors: int = 0        # tensors the command checks or builds


def build(workload, seed, workdir):
    rng = random.Random(f"{workload}:{seed}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    generators = {
        "enum-f5-dim3": _enum_f5_dim3,
        "enum-sweep": _enum_sweep,
        "verify-exact": _verify_exact,
    }
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}")
    cmds = generators[workload](rng, _Writer(workdir))
    rng.shuffle(cmds)
    return cmds


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def __call__(self, stem, doc):
        self.count += 1
        path = self.workdir / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------
# scalars and tables

def _residue(rng, v, p):
    """v over F_p written as one of its representatives in (-p, 2p)."""
    return str(v % p + p * rng.choice((-1, 0, 1)))


def _field(p):
    return {"kind": "rational"} if p is None else {"kind": "prime", "p": p}


def _brackets(rng, c, p):
    """Custom-bracket form of the constants c, pairs in seeded order."""
    n = c.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if c[i, j].any() or rng.random() < 0.5]
    rng.shuffle(pairs)
    return [[i + 1, j + 1, [_residue(rng, int(v), p) for v in c[i, j]]]
            for i, j in pairs]


def _regime(kind, a, b):
    """(covered by the classification, has a strongly-symmetric label)."""
    if kind == "ii":
        covered = bool(a) == bool(b)
        return covered, covered and bool(a)
    if kind == "solvable":
        covered = not a or b == 1
        return covered, covered and bool(b)
    return True, True        # vi, abelian


# ---------------------------------------------------------------------------
# enum-f5-dim3: three full scans over F_5

def _enum_f5_dim3(rng, write):
    p = 5
    units = [1, 2, 3, 4]
    a, b = rng.choice(units), rng.choice(units)
    beta, delta = rng.choice(units), rng.choice((2, 3, 4))
    specs = [
        ("ii", {"family": "II", "params": {"alpha": _residue(rng, a, p),
                                           "beta": _residue(rng, b, p)}},
         GOLDEN_F5["ii"], True),
        ("iii", {"family": "III"}, GOLDEN_F5["iii"], True),
        ("solvable", {"family": "IV",
                      "params": {"beta": _residue(rng, beta, p),
                                 "delta": _residue(rng, delta, p)}},
         GOLDEN_F5[f"solvable-delta{delta}"], False),
    ]
    cmds = []
    for stem, algebra, (count, labels), confirmed in specs:
        path = write(stem, {"field": _field(p), "algebra": algebra})
        cmds.append(Command(
            label=f"{stem}/F_{p}", kind="enumerate",
            argv=["enumerate", "--input", path],
            expect=_enum_expect(p, 3, count, labels, confirmed)))
    return cmds


def _enum_expect(p, n, count, labels, confirmed, listed=None):
    return {"total": p ** (n * n), "solution_count": count,
            "label_counts": labels, "confirmed": confirmed,
            "empirical_only": not confirmed,
            "exit": 0 if confirmed else 1, "solutions": listed}


# ---------------------------------------------------------------------------
# enum-sweep: every II and solvable table over F_3, VI over small F_p, each
# once plain and once with its solution list, plus malformed inputs

def _enum_sweep(rng, write):
    cmds = []
    tables = [("ii", a, b) for a in range(3) for b in range(3)]
    tables += [("solvable", a, b) for a in range(3) for b in range(3)]
    for kind, a, b in tables:
        c = oracle.constants(kind, a=a, b=b)
        sols = oracle.solution_set(c, 3)
        labels = LABELS_F3.get((kind, a, b))
        if labels is None:
            labels = {"strongly-symmetric": 27}
        for listed in (False, True):
            algebra = {"dim": 3, "brackets": _brackets(rng, c, 3)}
            cmds.append(_sweep_command(
                rng, write, f"{kind}{a}{b}", 3, algebra, 3, len(sols),
                labels, (kind, a, b) in LABELS_F3, sols, listed))
    c_vi = oracle.constants("vi")
    for p in (3, 5, 7, 11, 13):
        sols = oracle.solution_set(c_vi, p)
        labels = {"strongly-symmetric": p * p, "skew-symmetric": p}
        for listed in (False, True):
            cmds.append(_sweep_command(
                rng, write, f"vi{p}", p, {"family": "VI"}, 2, len(sols),
                labels, True, sols, listed))
    cmds += _malformed(rng, write)
    return cmds


def _sweep_command(rng, write, stem, p, algebra, n, count, labels,
                   confirmed, sols, listed):
    doc = {"field": _field(p), "algebra": algebra}
    argv = ["enumerate"]
    if listed:
        # the file option and the flag reach the same code path
        if rng.random() < 0.5:
            doc["options"] = {"list_solutions": True}
        else:
            argv.append("--list-solutions")
    path = write(stem, doc)
    return Command(
        label=f"{stem}/F_{p}" + (" list" if listed else ""),
        kind="enumerate", argv=argv + ["--input", path],
        expect=_enum_expect(p, n, count, labels, confirmed,
                            sols if listed else None))


def _malformed(rng, write):
    """Inputs whose documented exit code is 2 (unusable input)."""
    base = {"field": _field(3),
            "algebra": {"family": "II", "params": {"alpha": "1",
                                                   "beta": "1"}}}
    float_doc = json.loads(json.dumps(base))
    float_doc["algebra"]["params"][rng.choice(("alpha", "beta"))] = \
        rng.choice((1.0, 2.5, -1.5))
    unknown_doc = dict(base)
    unknown_doc[rng.choice(("algebras", "tensr", "option"))] = {}
    index_doc = dict(base)
    index_doc["tensor"] = {"entries": [[rng.choice((0, 4, 5)),
                                        rng.randint(1, 3), "1"]]}
    # the budget must be an integer; a string one is still unusable input
    budget_doc = dict(base)
    budget_doc["options"] = {"budget": rng.choice(("1000", "100000000"))}
    docs = [("float-scalar", float_doc), ("unknown-key", unknown_doc),
            ("index-out-of-range", index_doc), ("string-budget", budget_doc)]
    return [Command(label=f"malformed {stem}", kind="enumerate",
                    argv=["enumerate", "--input", write(stem, doc)],
                    expect={"exit": 2})
            for stem, doc in docs]


# ---------------------------------------------------------------------------
# verify-exact: check, bialgebra and generate on exact tensors

# (stem, field p or None, table kind, a, b, problem-file algebra)
def _verify_tables(rng):
    b4, d4 = rng.choice((1, 2, -1, -3)), rng.choice((2, 3, -2, -3))
    a101, b101 = rng.randint(1, 100), rng.randint(1, 100)
    d7 = rng.choice((2, 3, 4, 5))
    return [
        ("sl2", None, "ii", 4, -4, {"family": "sl2"}),
        ("ii11", None, "ii", 1, 1,
         {"family": "II", "params": {"alpha": "1", "beta": "1"}}),
        ("iii", None, "ii", 0, 0, {"family": "III"}),
        ("iv", None, "solvable", b4, d4,
         {"family": "IV", "params": {"beta": str(b4), "delta": str(d4)}}),
        ("v", None, "solvable", 0, 0, {"family": "V"}),
        ("i", None, "abelian", 0, 0, {"family": "I", "params": {"dim": 3}}),
        ("vi", None, "vi", 0, 0, {"family": "VI"}),
        ("sl2", 7, "ii", 4, -4, {"family": "sl2"}),
        ("iv", 7, "solvable", 0, d7,
         {"family": "IV", "params": {"beta": "0", "delta": str(d7)}}),
        ("ii", 101, "ii", a101, b101,
         {"family": "II", "params": {"alpha": str(a101),
                                     "beta": str(b101)}}),
    ]


CHECK_MIX = (48, 36, 36)        # strongly symmetric, skew, random
BIALGEBRA_MIX = (24, 72, 24)


def _verify_exact(rng, write):
    cmds = []
    for stem, p, kind, a, b, algebra in _verify_tables(rng):
        c = oracle.constants(kind, a=a, b=b)
        n = c.shape[0]
        for command, mix in (("check", CHECK_MIX),
                             ("bialgebra", BIALGEBRA_MIX)):
            grids = _tensor_mix(rng, mix, n, p, kind, a, b)
            path = write(f"{stem}-{command}", {
                "field": _field(p), "algebra": algebra,
                "tensors": [_tensor_doc(g, p) for g in grids]})
            expect = (_check_expect if command == "check"
                      else _bialgebra_expect)(c, grids, p, kind, a, b)
            cmds.append(Command(
                label=f"{stem}/{'Q' if p is None else f'F_{p}'} {command}",
                kind=command, argv=[command, "--input", path],
                expect=expect, tensors=len(grids)))
    cmds += _generate_commands(rng, write)
    return cmds


def _rand_scalar(rng, p, nonzero=False):
    while True:
        v = (rng.randrange(p) if p is not None
             else Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if v or not nonzero:
            return v


def _reduce(v, p):
    return v % p if p is not None else Fraction(v)


def _tensor_mix(rng, mix, n, p, kind, a, b):
    n_strong, n_skew, n_rand = mix
    grids = []
    # a third of the solutions are alpha,beta-skew where such nonzero
    # tensors exist (not on II(1,1) over QQ)
    n_ab = n_strong // 3 if kind == "ii" and a * b and (
        p is not None or (a, b) == (4, -4)) else 0
    for _ in range(n_ab):
        grids.append(_ab_skew_grid(rng, p, a, b))
    for _ in range(n_strong - n_ab):
        lam = _rand_scalar(rng, p, nonzero=True)
        vec = [_rand_scalar(rng, p) for _ in range(n)]
        grids.append([[_reduce(lam * x * y, p) for y in vec] for x in vec])
    for i in range(n_skew):
        grids.append(_skew_grid(rng, n, p, kind, a, b, special=i % 2 == 0))
    for _ in range(n_rand):
        grids.append([[_rand_scalar(rng, p) for _ in range(n)]
                      for _ in range(n)])
    rng.shuffle(grids)
    return grids


def _sqrt_mod(v, p):
    v %= p
    for r in range(p):
        if r * r % p == v:
            return r
    return None


def _ab_skew_grid(rng, p, a, b):
    """x = a z, y = b z, p = -q, s = -t, u = -v on the quadric
    a b z^2 + b s^2 + a u^2 + p^2 = 0, with z != 0."""
    z = _rand_scalar(rng, p, nonzero=True)
    if p is None:
        # sl2 (a = 4, b = -4): u = +-s and p = +-4z solve it
        s = _rand_scalar(rng, p)
        u, pp = s * rng.choice((1, -1)), 4 * z * rng.choice((1, -1))
    else:
        while True:
            s, u = _rand_scalar(rng, p), _rand_scalar(rng, p)
            pp = _sqrt_mod(-(a * b * z * z + b * s * s + a * u * u), p)
            if pp is not None:
                break
    return [[_reduce(a * z, p), pp, s],
            [_reduce(-pp, p), _reduce(b * z, p), u],
            [_reduce(-s, p), _reduce(-u, p), z]]


def _skew_grid(rng, n, p, kind, a, b, special):
    """A skew grid; `special` ones sit on the closed forms' zero sets
    (the triangularity quadric of a II table, the solvable coboundary
    criterion) so that both verdicts occur."""
    if n == 2:
        q = _rand_scalar(rng, p)
        return [[_reduce(0, p), q], [_reduce(-q, p), _reduce(0, p)]]
    pp, s, u = (_rand_scalar(rng, p) for _ in range(3))
    if special and kind == "ii":
        if p is None and (a, b) == (4, -4):
            # -4s^2 + 4u^2 + p^2 = 0 via a Pythagorean triple
            m, k, scale = rng.randint(1, 5), rng.randint(0, 5), \
                Fraction(rng.randint(1, 3), rng.randint(1, 2))
            s, u, pp = (scale * (m * m + k * k), scale * 2 * m * k,
                        scale * 2 * (m * m - k * k))
        elif p is None and a == b == 0:
            pp = Fraction(0)
        elif p is not None:
            while True:
                root = _sqrt_mod(-(b * s * s + a * u * u), p)
                if root is not None:
                    pp = root
                    break
                s, u = _rand_scalar(rng, p), _rand_scalar(rng, p)
    elif special and kind == "solvable":
        if rng.random() < 0.5 or b == 1:
            s = _reduce(0, p)
        else:
            inv = (pow(1 - b, -1, p) if p is not None
                   else 1 / Fraction(1 - b))
            u = _reduce(a * s * inv, p)
    z = _reduce(0, p)
    return [[z, pp, s], [_reduce(-pp, p), z, u],
            [_reduce(-s, p), _reduce(-u, p), z]]


def _tensor_doc(grid, p):
    n = len(grid)
    return {"entries": [[i + 1, j + 1, str(grid[i][j])]
                        for i in range(n) for j in range(n) if grid[i][j]]}


def _skew(grid, p):
    n = len(grid)
    return all(oracle.is_zero(grid[i][j] + grid[j][i], p)
               for i in range(n) for j in range(n))


def _check_expect(c, grids, p, kind, a, b):
    solves = oracle.solves(c, grids, p)
    covered, strong_label = _regime(kind, a, b)
    results = [{"is_solution": sol,
                "strongly_symmetric": oracle.strongly_symmetric(g, p),
                "skew_symmetric": _skew(g, p),
                "alpha_beta_skew": (oracle.alpha_beta_skew(g, a, b, p)
                                    if kind == "ii" else None)}
               for g, sol in zip(grids, solves)]
    return {"covered": covered, "strong_label": strong_label,
            "results": results, "exit": 0 if all(solves) else 1}


def _closed_forms(grid, p, kind, a, b):
    """Paper closed forms for a skew grid: (coboundary, triangular), None
    where no closed form covers the table."""
    if kind in ("vi", "abelian"):
        return True, True
    pp, s, u = grid[0][1], grid[0][2], grid[1][2]
    if kind == "ii":
        return True, oracle.is_zero(b * s * s + a * u * u + pp * pp, p)
    cob = oracle.is_zero((b + 1) * ((b - 1) * u + a * s) * s, p)
    if not a:
        return cob, oracle.is_zero((1 - b) * u * s, p)
    if b == 1:
        return cob, oracle.is_zero(s, p)
    return cob, None


def _bialgebra_expect(c, grids, p, kind, a, b):
    solves = oracle.solves(c, grids, p)
    results = []
    for g, sol in zip(grids, solves):
        skew = _skew(g, p)
        cob = tri = None
        if skew:
            cob, tri = _closed_forms(g, p, kind, a, b)
        if kind == "abelian":
            cob, tri = True, True       # delta = 0 and every r solves
        if tri is None and cob is not None:
            tri = cob and sol
        results.append({"cybe_solution": sol, "skew": skew,
                        "is_coboundary": cob, "is_triangular": tri})
    verdicts = [r["is_coboundary"] for r in results] + \
        [r["is_triangular"] for r in results]
    if False in verdicts:
        code = 1
    elif None in verdicts:
        code = None     # decided by the report's own verdicts
    else:
        code = 0
    # the closed forms cover the classified regimes, except the abelian one
    covered = _regime(kind, a, b)[0] and kind != "abelian"
    return {"covered": covered, "results": results, "exit": code}


def _generate_commands(rng, write):
    q = lambda: _rand_scalar(rng, None)                      # noqa: E731
    nz = lambda: _rand_scalar(rng, None, nonzero=True)       # noqa: E731
    out = []

    s, u, z = q(), q(), nz()
    out.append(("strong-z", None, "ii", 4, -4, {"family": "sl2"},
                {"s": s, "u": u, "z": z},
                [[s * s / z, s * u / z, s], [s * u / z, u * u / z, u],
                 [s, u, z]]))

    x, pp, s, t, z = nz(), nz(), q(), q(), q()
    y, u, v = pp * pp / x, s * pp / x, t * pp / x
    out.append(("heisenberg-1", None, "ii", 0, 0, {"family": "III"},
                {"p": pp, "x": x, "y": y, "s": s, "t": t, "u": u, "v": v,
                 "z": z},
                [[x, pp, s], [pp, y, u], [t, v, z]]))

    s, u, v, y, z = q(), q(), q(), q(), nz()
    out.append(("v-1", None, "solvable", 0, 0, {"family": "V"},
                {"s": s, "u": u, "v": v, "y": y, "z": z},
                [[s * s / z, v * s / z, s], [u * s / z, y, u], [s, v, z]]))

    P = 101
    a, b = rng.randint(1, P - 1), rng.randint(1, P - 1)
    while True:
        z, s, u = (rng.randrange(P) for _ in range(3))
        root = _sqrt_mod(-(a * b * z * z + b * s * s + a * u * u), P)
        if root is not None:
            break
    out.append(("alpha-beta-skew", P, "ii", a, b,
                {"family": "II", "params": {"alpha": str(a),
                                            "beta": str(b)}},
                {"z": z, "s": s, "u": u, "p": root},
                [[a * z % P, root, s], [-root % P, b * z % P, u],
                 [-s % P, -u % P, z]]))

    cmds = []
    for case, p, kind, a, b, algebra, params, grid in out:
        path = write(f"generate-{case}", {
            "field": _field(p), "algebra": algebra,
            "options": {"case": case,
                        "params": {k: str(v) for k, v in params.items()}}})
        sol = oracle.solves(oracle.constants(kind, a=a, b=b), [grid], p)[0]
        if not sol:
            raise AssertionError(f"closed form {case} is not a solution")
        cmds.append(Command(
            label=f"generate {case}", kind="generate",
            argv=["generate", "--input", path],
            expect={"exit": 0, "grid": grid, "p": p}, tensors=1))
    return cmds
