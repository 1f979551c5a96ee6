"""The CYBE residual engine, solution families, and per-algebra classification.

Ground truth is direct expansion of
    [r12, r13] + [r12, r23] + [r13, r23]
through the structure constants.  With r = sum k[i][j] e_i (x) e_j the three
terms contribute to the residual coefficient at (a, b, c):

    term 1:  sum_{i,s} k[i][b] k[s][c] c[i][s][a]
    term 2:  sum_{j,s} k[a][j] k[s][c] c[j][s][b]
    term 3:  sum_{j,t} k[a][j] k[b][t] c[j][t][c]

The expansion runs on plain ints (`_residual_ints`), and only there: the
grid is lifted once to canonical residues over F_p, or over Q to numerators
over one common denominator D, and the constants to ints over their own
denominator C (see the fields' `lift` in `scalars`).  Each cell is
homogeneous of degree 1 in the constants and 2 in r, so the int cube is
C D^2 times the residual; only its nonzero entries are kept, as their
ints reduced in the field over the scale C D^2 (`_Entries`).  They become
Fraction/ModP scalars when a caller of the API reads them, and a report
writes their text straight from the ints (the fields' `render`).  The
bialgebra check calls
the same kernel, and the enumeration oracle runs it once on a grid of
polynomials to get each cell as a quadratic form
(`exhaustive._residual_checks`).

Checks that run on many tensors of one table are made once per table as
integer forms in the lifted grid: a kernel or a condition runs once on the
grid of cell polynomials (`_Poly`), the coefficients are reduced in the
field (`_reduced`), and the forms become one straight-line Python function
(`_straight_line`) of each tensor's lifted grid (`Tensor2.lifted`).  It
returns every value the kernel returns on that grid, in the kernel's
order, with the literal 0 for a form that vanishes identically, so it
stands in for the kernel.  The table's parameters are coefficients, so
every form is homogeneous in the grid and vanishes on the lifted grid
exactly where it does on r; any other is refused.  Each label record,
which classify_solution and the symmetry predicates both read, says which
of the table's parameters it names (`LabelRecord.names`), and is made
here into one predicate of the lifted grid per (record, dimension, the
parameters it names, field) (`_record_forms`, which keeps the last 8).
What a table derives from its constants alone is kept in the table's
one memo (`liealg.per_table`): here its lifted constants
(`_int_constants`), its Table (`recognize_table`) and its regime's
records with their predicates (`_regime`), so classify_solution finds
each predicate without a lookup and never compiles one twice for a
table; the symmetry predicates, which have no table, find theirs in
`_record_forms`.  `bialgebra` keeps its compiled axioms and closed-form
regime in the same memo.  This holds up to FORMS_MAX_DIM = 3; above it
the kernels run as they are on the lifted grid, and only the abelian
regime's records are read: the abelian label, which has no equations,
and strong and skew symmetry, which are two kernels of the flat grid
(`_strong_ints`, `_skew_ints`) with one record each for every dimension
(STRONG, SKEW).  A record's verdict on a tensor is decided once
(`_verdict`) and kept on the tensor under the record and the values of
the parameters it names, so the classification and the symmetry
predicates share one evaluation of each record they both read, and find
it by one lookup.

Everything else in this module (the closed-form solution families, the
classification predicates) is checked against that expansion by the test
suite, as are the per-cell equation systems transcribed in
tests/transcribed.py; the expansion itself is checked against a naive
reimplementation in the tests.

Classification covers the regimes with a known complete answer:

  abelian                every tensor solves
  II table, ab != 0      strongly symmetric or a,b-skew symmetric
  II table, a = b = 0    (Heisenberg) two explicit coefficient families
  solvable, b=0, d != 0  strongly symmetric or an explicit z=0 family
  solvable, b != 0, d=1  strongly symmetric or an explicit z=0 family
  solvable, b = d = 0    (family V) two explicit families split on z
  VI                     strongly symmetric or skew symmetric

Anything else (II table with exactly one of a, b zero; solvable tables with
other (b, d)) raises UncoveredRegime rather than guessing.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import (
    combinations,
    combinations_with_replacement,
    compress,
    product,
)
from math import lcm
from typing import NamedTuple

from .liealg import _as_scalar, family_ii, family_vi, per_table, solvable_table
from .scalars import FieldError, ModP, clip, show
from .tensor import NAMED_CELLS, Tensor2, Tensor3


class UncoveredRegime(ValueError):
    """The algebra's parameters fall outside every classified regime."""


class SideConditionError(ValueError):
    """A solution-family case was requested with violated side conditions."""


class _Entries(NamedTuple):
    """The nonzero entries of a kernel's flat output: their 1-based cells,
    their ints reduced in the field, and the scale every value is divided
    by, so the value at cells[t] is ints[t] / scale."""

    cells: tuple
    ints: tuple
    scale: int
    field: object

    def values(self):
        """((cell, value as a field scalar), ...)."""
        unlift, scale = self.field.unlift, self.scale
        return tuple((cell, unlift(v, scale))
                     for cell, v in zip(self.cells, self.ints))

    def texts(self, cap=None):
        """The text str() gives of each of the first cap values (all by
        default), written from the ints (the field's `render`)."""
        return self.field.render(self.ints[:cap], self.scale)


@dataclass(frozen=True)
class ResidualReport:
    """The CYBE residual of a tensor in dim n over the field, by its
    nonzero entries as kernel ints (`_Entries`); their scalars are built
    when first read."""

    entries: _Entries
    n: int
    field: object

    @property
    def is_zero(self):
        return not self.entries.cells

    @cached_property
    def nonzero_entries(self):
        """(((i, j, m), value), ...), 1-based positions."""
        return self.entries.values()

    @cached_property
    def residual(self):
        """The dense residual Tensor3, built when first read."""
        n, zero = self.n, self.field.zero()
        t = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for (a, b, c), val in self.nonzero_entries:
            t[a - 1][b - 1][c - 1] = val
        return Tensor3(n, tuple(tuple(tuple(row) for row in plane)
                                for plane in t), self.field)


@per_table
def _int_constants(L):
    """L's nonzero structure constants as (i, j, m, int) over their common
    denominator C, with C."""
    nz = L.nonzero_constants()
    ints, scale = L.field.lift([val for *_, val in nz])
    return tuple((i, j, m, v) for (i, j, m, _), v in zip(nz, ints)), scale


def _same_space(L, x, what="tensor"):
    """Refuse a tensor or cobracket x that does not live on L: the kernels
    would index past a smaller grid or read part of a larger one, and
    lifting would reduce scalars of another field without complaint, where
    their arithmetic refuses to mix."""
    if x.n != L.n:
        raise ValueError(f"dimension mismatch: algebra {L.n}, {what} {x.n}")
    if x.field != L.field:
        raise FieldError(f"{what} over {x.field!r}, algebra over {L.field!r}")


def _lift_grid(L, r):
    """r's grid as flat row-major ints over its common denominator D, and
    D (`Tensor2.lifted`); r must live on L."""
    _same_space(L, r)
    return r.lifted()


@lru_cache(maxsize=8)
def _grid_cells(n, rank):
    """The 1-based cells of a rank-`rank` grid in dim n, row-major."""
    return tuple(product(range(1, n + 1), repeat=rank))


def _nonzero_entries(field, ints, scale, n, rank):
    """The `_Entries` of a flat row-major rank-`rank` kernel output ints
    over scale: those nonzero in the field."""
    ints = field.reduce(ints)
    return _Entries(tuple(compress(_grid_cells(n, rank), ints)),
                    tuple(filter(None, ints)), scale, field)


def _residual_ints(n, consts, k):
    """Int kernel of the expansion above: the flat residual cube of the
    flat int grid k on the int constants (i, j, m, c).  On lifted input
    it is C D^2 times the residual.

    The constants are antisymmetric (c[j][i][m] = -c[i][j][m]; every
    LieAlgebra constructor enforces it), so each pair i < j is expanded
    once for both of its orderings:

        term 1:  c (k[i][b] k[j][c] - k[j][b] k[i][c])  at (m, b, c)
        term 2:  c (k[a][i] k[j][c] - k[a][j] k[i][c])  at (a, m, c)
        term 3:  c (k[a][i] k[b][j] - k[a][j] k[b][i])  at (a, b, m)

    Terms 1 and 3 are 2x2 minors of rows i, j and of columns i, j, skew in
    (b, c) and in (a, b), so each minor serves two cells.
    """
    nn = n * n
    rows = [k[i * n:i * n + n] for i in range(n)]
    cols = [k[i::n] for i in range(n)]
    t = [0] * (n * nn)
    for i, j, m, val in consts:
        if i > j:
            continue
        ri, rj, ci, cj = rows[i], rows[j], cols[i], cols[j]
        for b in range(n):
            for c in range(b + 1, n):
                minor = ri[b] * rj[c] - rj[b] * ri[c]
                if minor:
                    t[m * nn + b * n + c] += val * minor
                    t[m * nn + c * n + b] -= val * minor
                minor = ci[b] * cj[c] - cj[b] * ci[c]
                if minor:
                    t[b * nn + c * n + m] += val * minor
                    t[c * nn + b * n + m] -= val * minor
            if ci[b] or cj[b]:      # term 2, with b as its row a
                base = b * nn + m * n
                for c in range(n):
                    t[base + c] += val * (ci[b] * rj[c] - cj[b] * ri[c])
    return t


def cybe_residual(L, r):
    """Full CYBE residual of r on L, by direct expansion."""
    consts, c_scale = _int_constants(L)
    k, d_scale = _lift_grid(L, r)
    n, field = L.n, L.field
    return ResidualReport(_nonzero_entries(
        field, _residual_ints(n, consts, k), c_scale * d_scale * d_scale,
        n, 3), n, field)


def is_cybe_solution(L, r):
    return cybe_residual(L, r).is_zero


# ---------------------------------------------------------------------------
# integer forms: a kernel run once per table on polynomials, then compiled

# The largest dimension whose checks run as compiled forms.  Building them
# costs 0.5 to 6 ms per table, which a command repays over about 20 tensors
# of sl2 (4 to over 120 on other dim-3 tables).  In dim 4 they would speed
# up bialgebra on many tensors but slow down check on the abelian table at
# any count, and no benchmark workload runs there.
FORMS_MAX_DIM = 3


class _Poly(dict):
    """A polynomial in the flat grid cells with int coefficients: monomial
    (the ascending tuple of the cells it multiplies) -> nonzero coefficient.
    It has the arithmetic `_residual_ints` and the compiled label
    conditions use, so both run on grids of these unchanged."""

    __slots__ = ()

    def _add(self, other, sign):
        if type(other) is not _Poly:
            if not other:
                return self         # a _Poly is never changed in place
            other = {(): other}
        out = _Poly(self)
        for mono, c in other.items():
            c = out.get(mono, 0) + sign * c
            if c:
                out[mono] = c
            else:
                del out[mono]
        return out

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __neg__(self):
        return _Poly({mono: -c for mono, c in self.items()})

    def __mul__(self, other):
        if type(other) is not _Poly:
            return _Poly({mono: c * other for mono, c in self.items()}
                         if other else {})
        out = _Poly()
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                mono = tuple(sorted(m1 + m2))
                c = out.get(mono, 0) + c1 * c2
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return out

    __rmul__ = __mul__

    def __pow__(self, e):
        out = _Poly({(): 1})
        for _ in range(e):
            out = out * self
        return out


def _cell_polys(n):
    """The grid whose cell (i, j) is the polynomial k[i][j]."""
    return [_Poly({(i * n + j,): 1}) for i in range(n) for j in range(n)]


def _reduced(polys, field):
    """polys (_Poly with int coefficients, or 0) with their coefficients
    reduced in the field: over F_p to -p/2..p/2, so -1 stays a negation."""
    if field.kind != "prime":
        return polys
    p = field.p
    return [{mono: c - p if 2 * c > p else c for mono, c in
             ((mono, c % p) for mono, c in (poly or {}).items()) if c}
            for poly in polys]


def _straight_line(forms):
    """One function run(k) -> the tuple of the values of forms, dicts
    monomial -> int coefficient in the variables k[i] or 0, as
    straight-line Python: run on a kernel's outputs on the cell grid, it
    returns what the kernel returns on k, the literal 0 for a form that
    vanishes identically.  Each monomial is computed once, one of degree
    e > 1 from the one of its first e - 1 variables, and identical forms
    once.  Every form must be homogeneous: then on a grid lifted over its
    denominator D a form of degree g reads D^g times its value, zero
    exactly where the value is; any other raises ValueError.
    Coefficients are bound as closure variables, never written as
    literals: an int past 4,300 digits has no str().  Up to FORMS_MAX_DIM
    a form has a few dozen terms, which CPython's compiler nests easily."""
    body, monos, coefs, done, outs = [], {}, {}, {}, []

    def mono(m):
        name = monos.get(m)
        if name is None:
            if len(m) == 1:
                name = f"k{m[0]}"
                body.append(f"{name} = k[{m[0]}]")
            else:
                # the prefix first: naming it takes a name of its own
                line = f"{mono(m[:-1])} * {mono(m[-1:])}"
                name = f"m{len(monos)}"
                body.append(f"{name} = {line}")
            monos[m] = name
        return name

    for form in forms:
        if not form:
            outs.append("0")
            continue
        if len(set(map(len, form))) > 1:
            raise ValueError(f"form not homogeneous: {sorted(form)}")
        key = frozenset(form.items())
        name = done.get(key)
        if name is None:
            name = done[key] = f"f{len(done)}"
            terms = []
            for m, c in form.items():
                factors = [mono(m)] if m else []
                if abs(c) != 1 or not factors:
                    factors.insert(0, coefs.setdefault(abs(c),
                                                       f"c{len(coefs)}"))
                terms.append(("- " if c < 0 else "+ ") + " * ".join(factors))
            body.append(f"{name} = {' '.join(terms).removeprefix('+ ')}")
        outs.append(name)
    source = (f"def make({', '.join(coefs.values())}):\n"
              "    def run(k):\n"
              + "".join(f"        {line}\n" for line in body)
              + f"        return ({''.join(o + ', ' for o in outs)})\n"
              "    return run\n")
    namespace = {}
    exec(source, namespace)
    return namespace["make"](*coefs)


# ---------------------------------------------------------------------------
# table recognition

class Table(NamedTuple):
    """A recognized constructor table: its kind ("abelian", "vi", "ii" or
    "solvable"; None for any other table) and its parameters.  A parameter
    the kind does not have is None: "ii" has alpha and beta, "solvable"
    beta and delta."""

    kind: str = None
    alpha: object = None
    beta: object = None
    delta: object = None


@per_table
def recognize_table(L):
    """Identify which constructor table L is, with its parameters, as a
    Table.

    Recognition is structural (grid comparison), so custom input tables
    that happen to match a family are classified like that family.
    """
    if not L.nonzero_constants():
        return Table("abelian")
    if L.n == 2 and L.c == family_vi(L.field).c:
        return Table("vi")
    if L.n != 3:
        return Table()
    alpha = L.c[1][2][0]
    beta = L.c[2][0][1]
    if L.c == family_ii(alpha, beta, L.field, strict=False).c:
        return Table("ii", alpha, beta)
    beta = L.c[0][2][1]
    delta = L.c[1][2][1]
    if L.c == solvable_table(beta, delta, L.field).c:
        return Table("solvable", beta=beta, delta=delta)
    return Table()


# ---------------------------------------------------------------------------
# solution labels
#
# Each label of the classification is written once, as a LabelRecord whose
# conditions are text in the paper's notation ("p != 0, p^2 = xy",
# "xu = yu = u(q+p) = 0") over the named coefficients x..v and the table's
# parameters alpha, beta, delta.  The text is compiled into functions of a
# Coefficients view, and those functions give the compiled predicates of
# classify_solution, each label's truth set over GF(p)
# (exhaustive.verify_classification) and the generators' side checks,
# while `cybe families` prints the text itself.  Strong and skew symmetry,
# which hold in every dimension, are two kernels of the flat grid instead,
# with one record each (STRONG, SKEW) that carries its kernel: run on ints,
# scalars or cell polynomials, each gives its equations in one order.
# `_equations` reads either kind on the grid of cell polynomials.
# What checks the records stays independent of them: the enumeration oracle
# and the naive residual in the tests evaluate the CYBE through the
# structure constants alone.

class SolutionLabel(str, enum.Enum):
    ABELIAN = "abelian"
    STRONGLY_SYMMETRIC = "strongly-symmetric"
    SKEW_SYMMETRIC = "skew-symmetric"
    ALPHA_BETA_SKEW = "alpha-beta-skew"
    HEISENBERG_CASE1 = "heisenberg-case-1"
    HEISENBERG_CASE2 = "heisenberg-case-2"
    IV_DIAGONAL_CASE2 = "family-iv-diagonal-case-2"
    IV_JORDAN_CASE2 = "family-iv-jordan-case-2"
    V_CASE1 = "family-v-case-1"
    V_CASE2 = "family-v-case-2"

    def __str__(self):
        return self.value


class Coefficients(Tensor2):
    """What conditions read: a grid k with the parameters of its table.

    k holds exact scalars, or the polynomials k[i][j] in the grid cells
    (`_equations` turns conditions into polynomials), so x..v read
    either.
    """

    __slots__ = ("alpha", "beta", "delta")

    def __init__(self, n, k, field, params):
        super().__init__(n, k, field)
        self.alpha, self.beta, self.delta = params


_TOKEN = re.compile(r"alpha|beta|delta|\d+|[a-z]|[-+*/^()]")


def _compile(expr):
    """expr as a function of a Coefficients view.

    expr is paper notation from the tables in this module (never input):
    single-letter coefficients, alpha, beta, delta, integers, + - * / ( )
    and ^ for a power, with juxtaposition multiplying, as in
    "(1+delta)s(q+p)".
    """
    tokens = _TOKEN.findall(expr)
    if "".join(tokens) != expr.replace(" ", ""):
        raise ValueError(f"cannot read {expr!r}")
    out, after_atom = [], False
    for tok in tokens:
        if after_atom and (tok[0].isalnum() or tok == "("):
            out.append("*")
        if tok[0].isalpha():
            out.append("c." + tok)
        else:
            out.append("**" if tok == "^" else tok)
        after_atom = tok[0].isalnum() or tok == ")"
    return eval("lambda c: " + " ".join(out))


class Condition(NamedTuple):
    """expr = 0, or expr != 0 when nonzero is set, where expr is the one
    polynomial lhs - rhs of the condition's equation."""

    text: str
    expr: Callable
    nonzero: bool = False

    def holds(self, c):
        return bool(self.expr(c)) == self.nonzero


def _conditions(text):
    """The conditions of a text like "p != 0, a = b, c = d = 0", in order;
    a chain "c = d = 0" is c = 0 and d = 0, and a = b is a - (b) = 0."""
    conds = []
    for part in filter(None, text.split(", ")):
        if part.endswith(" != 0"):
            conds.append(Condition(part, _compile(part[:-5]), nonzero=True))
            continue
        *sides, last = part.split(" = ")
        conds += [Condition(f"{side} = {last}", _compile(
            side if last == "0" else f"{side} - ({last})")) for side in sides]
    return tuple(conds)


class LabelRecord:
    """One solution label: a tensor carries it iff it meets every
    condition.  A generator's grid meets all but those written in `text`,
    which it leaves to its free coefficients.

    A grid record (STRONG, SKEW) has a kernel in place of conditions:
    `kernel(n, k)` gives its equations, each = 0, on the flat grid k of
    any dimension n.  `names` says which of the table's parameters alpha,
    beta, delta the conditions read.  A record compares and hashes by
    identity, so the caches keyed by records hash none of their
    conditions.
    """

    __slots__ = ("label", "conditions", "text", "names", "kernel")

    def __init__(self, label, conditions, text, kernel=None):
        self.label = label
        self.conditions = conditions
        self.text = text
        self.kernel = kernel
        read = " ".join(cond.text for cond in conditions)
        self.names = tuple(name in read for name in ("alpha", "beta", "delta"))

    def holds(self, c):
        if self.kernel:
            return not any(self.kernel(c.n, [v for row in c.k for v in row]))
        return all(cond.holds(c) for cond in self.conditions)


def _record(label, shape, side=""):
    return LabelRecord(label, _conditions(shape) + _conditions(side), side)


def _strong_ints(n, k):
    """Strong symmetry on the flat grid k in dim n (ints, scalars or cell
    polynomials): k[i][j]k[l][m] = k[i][l]k[j][m] for all index
    quadruples.

    That says exactly: the grid is symmetric and of rank <= 1, i.e. every
    2x2 minor k[i][j]k[l][m] - k[i][m]k[l][j] with i<l, j<m vanishes.
    Symmetry makes the minor on rows (i, l) and columns (j, m) equal to the
    one on rows (j, m) and columns (i, l), so only pairs (i, l) <= (j, m)
    are kept: the differences k[i][j] - k[j][i] for i < j, then 6 minors
    for n = 3.  The quadruple form itself is the oracle
    strongly_symmetric_by_definition in tests/conftest.py.
    """
    pairs = list(combinations(range(n), 2))
    return ([k[i * n + j] - k[j * n + i] for i, j in pairs]
            + [k[i * n + j] * k[l * n + m] - k[i * n + m] * k[l * n + j]
               for (i, l), (j, m) in combinations_with_replacement(pairs, 2)])


def _skew_ints(n, k):
    """Skew symmetry on the flat grid k in dim n: k[i][j] + k[j][i] for
    i <= j."""
    return [k[i * n + j] + k[j * n + i] for i in range(n) for j in range(i, n)]


STRONG = LabelRecord(SolutionLabel.STRONGLY_SYMMETRIC, (), "", _strong_ints)
SKEW = LabelRecord(SolutionLabel.SKEW_SYMMETRIC, (), "", _skew_ints)


ABELIAN = _record(SolutionLabel.ABELIAN, "")
ALPHA_BETA_SKEW = _record(
    SolutionLabel.ALPHA_BETA_SKEW,
    "p = -q, s = -t, u = -v, x = alpha z, y = beta z",
    "alpha*beta*z^2 + beta*s^2 + alpha*u^2 + p^2 = 0")
HEISENBERG_CASE1 = _record(
    SolutionLabel.HEISENBERG_CASE1,
    "q = p", "p != 0, p^2 = xy, xu = sp, xv = tp, tu = vs")
HEISENBERG_CASE2 = _record(
    SolutionLabel.HEISENBERG_CASE2,
    "p = q = 0", "xy = xu = xv = ys = yt = 0, tu = vs")
IV_DIAGONAL_CASE2 = _record(
    SolutionLabel.IV_DIAGONAL_CASE2,
    "z = 0, t = -s, v = -u",
    "xu = xs = ys = yu = (1-delta)us = (1+delta)s(q+p) = (1+delta)u(q+p) = 0")
IV_JORDAN_CASE2 = _record(
    SolutionLabel.IV_JORDAN_CASE2,
    "z = s = t = 0, v = -u", "xu = yu = u(q+p) = 0")
V_CASE1 = _record(
    SolutionLabel.V_CASE1,
    "s = t, zp = vs, zq = us, zx = s^2", "z != 0")
V_CASE2 = _record(
    SolutionLabel.V_CASE2,
    "z = 0, t = -s", "us = vs = xs = xu = xv = 0, up = qv, s(p+q) = 0")


def regime_records(L, table):
    """The label records of L's regime, table = recognize_table(L).

    Raises UncoveredRegime outside the classified regimes.  On a covered
    regime the union of the records' truth sets is exactly the CYBE
    solution set: that is the content of the classification theorems, and
    the enumeration oracle verifies it over finite fields.
    """
    kind, alpha, beta, delta = table
    if kind is None:
        raise UncoveredRegime(f"unrecognized table for {L!r}")
    if kind == "abelian":
        if L.n >= 2:
            return ABELIAN, STRONG, SKEW
        return (ABELIAN,)
    if kind == "vi":
        return STRONG, SKEW
    if kind == "ii":
        if alpha and beta:
            return STRONG, ALPHA_BETA_SKEW
        if not alpha and not beta:
            return HEISENBERG_CASE1, HEISENBERG_CASE2
        raise UncoveredRegime(
            "II table with exactly one of alpha, beta zero has no known "
            "complete classification")
    if not beta and delta:
        return STRONG, IV_DIAGONAL_CASE2
    if beta and delta == 1:
        return STRONG, IV_JORDAN_CASE2
    if not beta and not delta:
        return V_CASE1, V_CASE2
    raise UncoveredRegime(
        f"solvable table with beta={show(beta)}, delta={show(delta)} is "
        "outside the classified regimes (need beta=0, or beta!=0 with "
        "delta=1)")


def _equations(record, n, params):
    """lhs - rhs of each of record's equations on the grid of cell
    polynomials, as a _Poly with int coefficients, and whether each must
    be nonzero, in order: its kernel's values, or its conditions'.  The
    table's parameters params become int coefficients here: a ModP its
    residue, and the denominators of Fractions are cleared, which keeps
    each polynomial's zeros."""
    cells = _cell_polys(n)
    if record.kernel:
        polys = record.kernel(n, cells)
        return polys, [False] * len(polys)
    c = Coefficients(n, [cells[i * n:i * n + n] for i in range(n)], None,
                     [int(v) if isinstance(v, ModP) else v for v in params])
    polys = []
    for cond in record.conditions:
        val = cond.expr(c)
        if type(val) is not _Poly:  # the condition reads no cell
            val = _Poly() + val
        if any(type(coef) is not int for coef in val.values()):
            den = lcm(*(coef.denominator for coef in val.values()))
            val = _Poly({mono: int(coef * den) for mono, coef in val.items()})
        polys.append(val)
    return polys, [cond.nonzero for cond in record.conditions]


@lru_cache(maxsize=8)
def _record_forms(record, n, params, field):
    """record compiled in dim n, the parameters it names params (None for
    the others) as integer coefficients and the forms reduced in the
    field: the predicate of a lifted grid k that says whether the record
    holds there.  A != 0 condition that vanishes identically reads the
    literal 0, so the predicate is then false on every grid.  The last 8
    are kept; a table keeps those of its regime (`_regime`)."""
    polys, nonzero = _equations(record, n, params)
    run, reduce = _straight_line(_reduced(polys, field)), field.reduce
    if any(nonzero):
        return lambda k: list(map(bool, reduce(run(k)))) == nonzero
    return lambda k: not any(reduce(run(k)))


def _predicate(record, n, params, field):
    """The predicate of a lifted grid k in dim n that says whether record
    holds there, params the parameters it names (None for the others):
    its compiled forms up to FORMS_MAX_DIM (`_record_forms`), and above
    it its kernel on k, where only the abelian regime's records are read.
    A record with conditions has no kernel and raises ValueError there."""
    if n <= FORMS_MAX_DIM:
        return _record_forms(record, n, params, field)
    if record.conditions:
        raise ValueError(f"the {record.label} record has conditions and no "
                         f"kernel: it cannot be read in dim {n}")
    kernel, reduce = record.kernel, field.reduce
    return lambda k: not (kernel and any(reduce(kernel(n, k))))


def _evaluate(record, r, params, holds=None):
    """Whether r meets record's equations, params the parameters they
    name (None for the others): its predicate (`_predicate`, unless the
    caller keeps it) on r's lifted grid."""
    if holds is None:
        holds = _predicate(record, r.n, params, r.field)
    return holds(r.lifted()[0])


def _verdict(record, r, params=(None, None, None), holds=None):
    """Whether r carries record's label, params the parameters (alpha,
    beta, delta) of r's table, None for each the record does not name.
    Decided once per tensor (r's grid never changes) and kept on r
    (`Tensor2.verdicts`) under the record and params, so every table that
    agrees on the values the record names shares the verdict, found by
    one lookup."""
    verdicts = r.verdicts()
    key = record, params
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = _evaluate(record, r, params, holds)
    return verdict


@per_table
def _regime(L):
    """What classify_solution reads of L: the text of the UncoveredRegime
    L raises, or for each record of its regime (the record, the
    parameters it names, its predicate), so a caller that rotates over
    many tables compiles each one's records once."""
    table = recognize_table(L)
    try:
        records = regime_records(L, table)
    except UncoveredRegime as e:
        return str(e)
    entries = []
    for rec in records:
        params = tuple(v if name else None
                       for v, name in zip(table[1:], rec.names))
        entries.append((rec, params, _predicate(rec, L.n, params, L.field)))
    return tuple(entries)


def classify_solution(L, r):
    """The set of labels r satisfies, for a covered regime.

    On covered regimes the contract is: r solves the CYBE iff the label set
    is nonempty.  Raises UncoveredRegime outside them, and ValueError or
    FieldError when r does not live on L.
    """
    _same_space(L, r)
    regime = _regime(L)
    if type(regime) is str:
        raise UncoveredRegime(regime)
    return {rec.label for rec, params, holds in regime
            if _verdict(rec, r, params, holds)}


def is_strongly_symmetric(r):
    """Symmetric grid with k[i][j]k[l][m] = k[i][l]k[j][m] for all index
    quadruples, checked through the 2x2 minors (see `_strong_ints`)."""
    return _verdict(STRONG, r)


def is_skew_symmetric(r):
    return _verdict(SKEW, r)


def is_alpha_beta_skew(r, alpha, beta):
    """Dim-3 class: p=-q, s=-t, u=-v, x=alpha z, y=beta z and
    alpha beta z^2 + beta s^2 + alpha u^2 + p^2 = 0.  alpha and beta are
    ints or scalars of r's field; others raise FieldError.  Like every
    label record, the class is compiled per (record, dimension,
    parameters, field), in about 0.3 ms; the verdict is kept on r under
    the record and (alpha, beta), where classify_solution on an II table
    with these parameters finds it too."""
    if r.n != 3:
        raise ValueError("alpha,beta-skew symmetry is a dim-3 notion")
    field = r.field
    return _verdict(ALPHA_BETA_SKEW, r, (_as_scalar(alpha, field),
                                         _as_scalar(beta, field), None))


def symmetry_flags(r, alpha=None, beta=None):
    """Non-exclusive symmetry classification of a grid.

    Returns a dict with keys strongly_symmetric, skew_symmetric and, when
    alpha/beta are supplied and n=3, alpha_beta_skew.
    """
    flags = {
        "strongly_symmetric": is_strongly_symmetric(r),
        "skew_symmetric": is_skew_symmetric(r),
    }
    if alpha is not None and beta is not None and r.n == 3:
        flags["alpha_beta_skew"] = is_alpha_beta_skew(r, alpha, beta)
    return flags


# ---------------------------------------------------------------------------
# closed-form solution families (generators)

class GeneratorCase(NamedTuple):
    """A closed-form solution family.

    On a table `on_table(L, table)` accepts, the grid built from the free
    coefficients `params` solves the CYBE once the `side` conditions hold.
    `grid` holds 3x3 entry functions; dim-2 tables take the top-left block.
    """

    algebra: str        # its tables, as `cybe families` prints them
    params: tuple
    side: tuple
    text: str           # the side conditions as `cybe families` prints them
    on_table: Callable
    needs: str          # the error on any other table
    grid: tuple
    what: str           # how errors name the side conditions


def _case(algebra, params, side, on_table, needs, grid, note="", what=""):
    """A GeneratorCase from text: params "s u z", side conditions as in
    _conditions, grid rows separated by ";" and entries by ","."""
    return GeneratorCase(
        algebra, tuple(params.split()), _conditions(side),
        (side or "none") + note, on_table, needs,
        tuple(tuple(_compile(e) for e in row.split(","))
              for row in grid.split(";")),
        what)


def _labelled(label):
    """on_table of a label's generator: the table's regime has that label."""
    def on_table(L, table):
        try:
            return any(rec.label is label for rec in regime_records(L, table))
        except UncoveredRegime:
            return False
    return on_table


GENERATORS = {
    "strong-z": _case(
        "any dim-3", "s u z", "z != 0",
        lambda L, table: L.n == 3, "strong-z needs a dim-3 algebra",
        "s^2/z, su/z, s; su/z, u^2/z, u; s, u, z"),
    "strong-x": _case(
        "any dim-2/3", "p x", "x != 0",
        lambda L, table: L.n in (2, 3), "strong-x needs dim 2 or 3",
        "x, p, 0; p, p^2/x, 0; 0, 0, 0"),
    "strong-y": _case(
        "any dim-2/3", "y", "",
        lambda L, table: L.n in (2, 3), "strong-y needs dim 2 or 3",
        "0, 0, 0; 0, y, 0; 0, 0, 0"),
    "alpha-beta-skew": _case(
        "II table", "z s u p", ALPHA_BETA_SKEW.text,
        lambda L, table: table.kind == "ii",
        "alpha-beta-skew lives on the dim-3 table with "
        "[e1,e2]=e3, [e2,e3]=alpha e1, [e3,e1]=beta e2",
        "alpha z, p, s; -p, beta z, u; -s, -u, z", what="class quadratic"),
    "heisenberg-1": _case(
        "III", "p x y s t u v z", HEISENBERG_CASE1.text,
        _labelled(SolutionLabel.HEISENBERG_CASE1),
        "heisenberg-1 needs the dim-3 table with [e1,e2]=e3 central",
        "x, p, s; p, y, u; t, v, z"),
    "heisenberg-2": _case(
        "III", "x y s t u v z", HEISENBERG_CASE2.text,
        _labelled(SolutionLabel.HEISENBERG_CASE2),
        "heisenberg-2 needs the dim-3 table with [e1,e2]=e3 central",
        "x, 0, s; 0, y, u; t, v, z"),
    "iv-diagonal-2": _case(
        "IV with beta=0", "p q s u x y", IV_DIAGONAL_CASE2.text,
        _labelled(SolutionLabel.IV_DIAGONAL_CASE2),
        "iv-diagonal-2 needs the solvable table with beta=0, delta!=0",
        "x, p, s; q, y, u; -s, -u, 0"),
    "iv-jordan-2": _case(
        "IV with beta!=0, delta=1", "p q u x y", IV_JORDAN_CASE2.text,
        _labelled(SolutionLabel.IV_JORDAN_CASE2),
        "iv-jordan-2 needs the solvable table with beta!=0, delta=1",
        "x, p, 0; q, y, u; 0, -u, 0"),
    "v-1": _case(
        "V", "s u v y z", V_CASE1.text, _labelled(SolutionLabel.V_CASE1),
        "v-1 needs the solvable table with beta=delta=0",
        "s^2/z, vs/z, s; us/z, y, u; s, v, z", note=" (p, q, x derived)"),
    "v-2": _case(
        "V", "p q s u v x y", V_CASE2.text, _labelled(SolutionLabel.V_CASE2),
        "v-2 needs the solvable table with beta=delta=0",
        "x, p, s; q, y, u; -s, v, 0"),
    "skew": _case(
        "VI", "p", "", lambda L, table: L.n == 2, "skew needs a dim-2 algebra",
        "0, p, 0; -p, 0, 0; 0, 0, 0"),
}


def generate_solution(L, case, params):
    """Build the tensor of one closed-form solution case on L.

    params maps the case's parameter names to scalars (ints accepted);
    omitted ones are zero.  Other names, violated side conditions (checked
    exactly) and a table the case does not cover raise SideConditionError.
    Every output satisfies is_cybe_solution(L, r); callers may re-check,
    the CLI does.  The cases with their tables, free parameters and side
    conditions are GENERATORS; `cybe families` prints them.
    """
    gen = GENERATORS.get(case)
    if gen is None:
        raise SideConditionError(
            f"unknown case {clip(repr(case))} (have {', '.join(GENERATORS)})")
    unknown = [str(name) for name in params if name not in gen.params]
    if unknown:
        raise SideConditionError(
            f"{case} has no parameter {clip(', '.join(unknown))} "
            f"(its parameters: {', '.join(gen.params)})")
    table = recognize_table(L)
    if not gen.on_table(L, table):
        raise SideConditionError(gen.needs)
    field = L.field
    k = [[field.zero()] * 3 for _ in range(3)]
    for name, val in params.items():
        if isinstance(val, int):
            val = field.from_int(val)
        if not field.contains(val):
            raise SideConditionError(
                f"parameter {name} is not a {field!r} scalar")
        i, j = NAMED_CELLS[name]
        k[i - 1][j - 1] = val
    c = Coefficients(3, k, field, table[1:])
    for cond in gen.side:
        if not cond.holds(c):
            raise SideConditionError(
                f"{gen.what} {cond.text} required".lstrip())
    # adding zero turns the grid's integer 0 entries into field scalars
    zero = field.zero()
    return Tensor2.from_rows(
        [[f(c) + zero for f in row[:L.n]] for row in gen.grid[:L.n]], field)
