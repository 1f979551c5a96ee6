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
C D^2 times the residual; only its nonzero entries are turned back into
Fraction/ModP scalars (reduced mod p, or divided by C D^2).  Fraction and
ModP stay at the API boundary and in the report.  The bialgebra check calls
the same kernel, and the enumeration oracle runs it once on a grid of
polynomials to get each cell as a quadratic form
(`exhaustive._residual_checks`).

Checks that run on many tensors of one table are made once per table as
integer forms in the lifted grid: a kernel or a condition runs once on the
grid of cell polynomials (`_Poly`), the coefficients are reduced in the
field, the forms that vanish identically are dropped, and the rest become
one straight-line Python function (`_compile_forms`) that each tensor's
lifted grid (`Tensor2.lifted`) is evaluated on.  The label conditions of a
regime (classify_solution), the strong and skew symmetry of a grid and the
alpha,beta-skew class are made so here, the bialgebra axioms in
`bialgebra`.  This holds up to FORMS_MAX_DIM = 3; above it the kernels and
Condition.holds run as they are.

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
from functools import lru_cache
from itertools import (
    chain,
    combinations,
    combinations_with_replacement,
    product,
)
from math import lcm
from typing import NamedTuple

from .liealg import _as_scalar, family_ii, family_vi, solvable_table
from .scalars import FieldError, clip
from .tensor import NAMED_CELLS, Tensor2, Tensor3


class UncoveredRegime(ValueError):
    """The algebra's parameters fall outside every classified regime."""


class SideConditionError(ValueError):
    """A solution-family case was requested with violated side conditions."""


@dataclass(frozen=True)
class ResidualReport:
    residual: Tensor3
    is_zero: bool
    nonzero_entries: tuple  # (((i, j, m), value), ...) 1-based positions


@lru_cache(maxsize=64)
def _int_constants(L):
    """L's nonzero structure constants as (i, j, m, int) over their common
    denominator C, with C.  A LieAlgebra is immutable and hashes by
    identity, so the lift is made once per table."""
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
    """((1-based cell, ints[idx] / scale), ...) for the entries of a flat
    row-major rank-`rank` kernel output that are nonzero in the field."""
    cells = _grid_cells(n, rank)
    return tuple((cell, field.unlift(v, scale))
                 for cell, v in zip(cells, field.reduce(ints)) if v)


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
    t = field.reduce(_residual_ints(n, consts, k))
    scale, zero = c_scale * d_scale * d_scale, field.zero()
    vals = [field.unlift(v, scale) if v else zero for v in t]
    nonzero = tuple((cell, val) for cell, val, v
                    in zip(_grid_cells(n, 3), vals, t) if v)
    nn = n * n
    residual = Tensor3(n, tuple(
        tuple(tuple(vals[row:row + n]) for row in range(plane, plane + nn, n))
        for plane in range(0, n * nn, nn)), field)
    return ResidualReport(residual, not nonzero, nonzero)


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


def _compile_forms(polys, field=None):
    """The polynomials polys (_Poly with int coefficients, or 0) as a
    _Forms, their coefficients reduced in the field (over F_p to
    -p/2..p/2, so -1 stays a negation), the ones that vanish identically
    dropped.  field=None: no reduction, forms for any field."""
    p = field.p if field is not None and field.kind == "prime" else None
    slots, kept = [], []
    for slot, poly in enumerate(polys):
        if poly and p is not None:      # a kernel leaves an untouched 0
            poly = {mono: c - p if 2 * c > p else c
                    for mono, c in ((mono, c % p) for mono, c in poly.items())
                    if c}
        if poly:
            slots.append(slot)
            kept.append(poly)
    return _Forms(tuple(slots), len(polys), _straight_line(kept))


class _Forms(NamedTuple):
    """Compiled integer forms in flat int variables (`_compile_forms`):
    run(k, d) is the tuple of the values, on the variables k lifted over
    the scale d, of the `size` forms given that do not vanish identically;
    slots[i] is the index of value i among them."""

    slots: tuple
    size: int
    run: Callable

    def flat(self, field, k, d):
        """All `size` values reduced in the field, a list, or None when
        every one is zero."""
        vals = field.reduce(self.run(k, d))
        if not any(vals):
            return None
        out = [0] * self.size
        for slot, v in zip(self.slots, vals):
            out[slot] = v
        return out


def _straight_line(forms):
    """One function run(k, d) -> the tuple of the values of forms, dicts
    monomial -> int coefficient in the variables k[i], as straight-line
    Python.  Each monomial is computed once, one of degree e > 1 from the
    one of its first e - 1 variables, and identical forms once.  A form
    whose monomials differ in degree is made homogeneous in d: a
    monomial of degree e in a form of degree g is multiplied by d^(g - e),
    so on variables lifted over d it gives d^g times the form's value,
    which is zero exactly where that value is.  Coefficients are bound as
    closure variables, never written as literals: an int past 4,300 digits
    has no str().  Up to FORMS_MAX_DIM a form has a few dozen terms,
    which CPython's compiler nests easily."""
    body, monos, powers, coefs, done, outs = [], {}, {}, {}, {}, []

    def mono(m):
        name = monos.get(m)
        if name is None:
            if len(m) == 1:
                name = f"k{m[0]}"
                body.append(f"{name} = k[{m[0]}]")
            else:
                name = f"m{len(monos)}"
                body.append(f"{name} = {mono(m[:-1])} * {mono(m[-1:])}")
            monos[m] = name
        return name

    def power(e):
        name = powers.get(e)
        if name is None:
            name = powers[e] = f"d{e}"
            body.append(f"{name} = {power(e - 1)} * d" if e > 1
                        else f"{name} = d")
        return name

    for form in forms:
        key = frozenset(form.items())
        name = done.get(key)
        if name is None:
            name = done[key] = f"f{len(done)}"
            top = max(map(len, form))
            terms = []
            for m, c in form.items():
                factors = [mono(m)] if m else []
                if len(m) < top:
                    factors.append(power(top - len(m)))
                if abs(c) != 1 or not factors:
                    factors.insert(0, coefs.setdefault(abs(c),
                                                       f"c{len(coefs)}"))
                terms.append(("- " if c < 0 else "+ ") + " * ".join(factors))
            body.append(f"{name} = {' '.join(terms).removeprefix('+ ')}")
        outs.append(name)
    source = (f"def make({', '.join(coefs.values())}):\n"
              "    def run(k, d):\n"
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


@lru_cache(maxsize=64)
def recognize_table(L):
    """Identify which constructor table L is, with its parameters, as a
    Table.

    Recognition is structural (grid comparison), so custom input tables
    that happen to match a family are classified like that family.
    Memoized per table (tables are immutable and hash by identity).
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
# parameters alpha, beta, delta; the strong and skew symmetry of a grid of
# any dimension are generated over its entries k[i][j] instead.  The text is
# compiled into functions of a Coefficients view, and those functions give
# the scalar check (classify_solution, the symmetry predicates), each
# label's truth set over GF(p) (exhaustive.verify_classification) and the
# generators' side checks, while `cybe families` prints the text itself.
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
    (`_condition_polys` turns conditions into polynomials), so x..v read
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
    """lhs = rhs; lhs = 0 when rhs is None; lhs != 0 when nonzero is set.

    Equations compare the two sides rather than subtracting them, so exact
    scalars are compared, not reduced.
    """

    text: str
    lhs: Callable
    rhs: Callable = None
    nonzero: bool = False

    def holds(self, c):
        val = self.lhs(c)
        if self.rhs is not None:
            return val == self.rhs(c)
        return bool(val) == self.nonzero


def _conditions(text):
    """The conditions of a text like "p != 0, a = b, c = d = 0", in order;
    a chain "c = d = 0" is c = 0 and d = 0."""
    conds = []
    for part in filter(None, text.split(", ")):
        if part.endswith(" != 0"):
            conds.append(Condition(part, _compile(part[:-5]), nonzero=True))
            continue
        *sides, last = part.split(" = ")
        rhs = None if last == "0" else _compile(last)
        conds += [Condition(f"{side} = {last}", _compile(side), rhs)
                  for side in sides]
    return tuple(conds)


class LabelRecord(NamedTuple):
    """One solution label: a tensor carries it iff it meets every condition.

    A generator's grid meets the `shape` conditions by construction and
    leaves the `side` ones (written `text`) to its free coefficients.
    """

    label: SolutionLabel
    shape: tuple
    side: tuple
    text: str

    def holds(self, c):
        return (all(cond.holds(c) for cond in self.shape)
                and all(cond.holds(c) for cond in self.side))


def _record(label, shape, side=""):
    return LabelRecord(label, _conditions(shape), _conditions(side), side)


class _Generated:
    """Conditions made afresh on each pass over them."""

    def __init__(self, make, n):
        self.make, self.n = make, n

    def __iter__(self):
        return self.make(self.n)


@lru_cache(maxsize=8)
def _grid_record(label, make, n):
    """The record of a grid condition in dim n.  It has O(n^4) conditions:
    up to dim 4 (27 of them) they are made once and kept, which keeps the
    dim-3 checks as fast as a hand-written loop; above, they are made on
    each pass, since a large abelian table would not fit them in memory
    and a check mostly stops at the first."""
    conds = tuple(make(n)) if n <= 4 else _Generated(make, n)
    return LabelRecord(label, conds, (), "")


def _entry(i, j):
    return lambda c: c.k[i][j]


def _negated(i, j):
    return lambda c: -c.k[i][j]


def _product(i, j, l, m):
    return lambda c: c.k[i][j] * c.k[l][m]


def _strong_conditions(n):
    pairs = list(combinations(range(n), 2))
    for i, j in pairs:
        yield Condition("k[i][j] = k[j][i]", _entry(i, j), _entry(j, i))
    for (i, l), (j, m) in combinations_with_replacement(pairs, 2):
        yield Condition("k[i][j] k[l][m] = k[i][m] k[l][j]",
                        _product(i, j, l, m), _product(i, m, l, j))


def _skew_conditions(n):
    for i in range(n):
        for j in range(i, n):
            yield Condition("k[i][j] = -k[j][i]", _entry(i, j), _negated(j, i))


def strong_record(n):
    """Strong symmetry in dim n: k[i][j]k[l][m] = k[i][l]k[j][m] for all
    index quadruples.

    That says exactly: the grid is symmetric and of rank <= 1, i.e. every
    2x2 minor k[i][j]k[l][m] - k[i][m]k[l][j] with i<l, j<m vanishes.
    Symmetry makes the minor on rows (i, l) and columns (j, m) equal to the
    one on rows (j, m) and columns (i, l), so only pairs (i, l) <= (j, m)
    are kept: 6 minors for n = 3.  The quadruple form itself is the oracle
    strongly_symmetric_by_definition in tests/conftest.py.
    """
    return _grid_record(SolutionLabel.STRONGLY_SYMMETRIC,
                        _strong_conditions, n)


def skew_record(n):
    """Skew symmetry in dim n: k[i][j] = -k[j][i] everywhere."""
    return _grid_record(SolutionLabel.SKEW_SYMMETRIC, _skew_conditions, n)


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
            return ABELIAN, strong_record(L.n), skew_record(L.n)
        return (ABELIAN,)
    if kind == "vi":
        return strong_record(2), skew_record(2)
    if kind == "ii":
        if alpha and beta:
            return strong_record(3), ALPHA_BETA_SKEW
        if not alpha and not beta:
            return HEISENBERG_CASE1, HEISENBERG_CASE2
        raise UncoveredRegime(
            "II table with exactly one of alpha, beta zero has no known "
            "complete classification")
    if not beta and delta:
        return strong_record(3), IV_DIAGONAL_CASE2
    if beta and delta == 1:
        return strong_record(3), IV_JORDAN_CASE2
    if not beta and not delta:
        return V_CASE1, V_CASE2
    raise UncoveredRegime(
        f"solvable table with beta={beta}, delta={delta} is outside the "
        "classified regimes (need beta=0, or beta!=0 with delta=1)")


def _condition_polys(conditions, n, params):
    """lhs - rhs of each condition on the grid of cell polynomials, as a
    _Poly with int coefficients.  params are the table's parameters, as
    scalars or as polynomials in further variables; the denominators of
    rational ones are cleared, which keeps each polynomial's zeros."""
    cells = _cell_polys(n)
    c = Coefficients(n, [cells[i * n:i * n + n] for i in range(n)], None,
                     params)
    polys = []
    for cond in conditions:
        val = cond.lhs(c)
        if cond.rhs is not None:
            val = val - cond.rhs(c)
        if type(val) is not _Poly:  # the condition reads no cell
            val = _Poly() + val
        if any(type(coef) is not int for coef in val.values()):
            den = lcm(*(coef.denominator for coef in val.values()))
            val = _Poly({mono: int(coef * den) for mono, coef in val.items()})
        polys.append(val)
    return polys


class _RecordForms(NamedTuple):
    """Label records compiled: `forms` holds the lhs - rhs of their
    conditions, and `records` is (label, zeros, nonzeros) for each record
    that can hold, with the positions among the values of `forms` that
    must vanish and those that must not.  A record with a != 0 condition
    that vanishes identically is left out."""

    forms: _Forms
    records: tuple

    @classmethod
    def of(cls, records, n, params, field=None):
        conds = [(rec.label, cond) for rec in records
                 for cond in chain(rec.shape, rec.side)]
        forms = _compile_forms(
            _condition_polys([cond for _, cond in conds], n, params), field)
        at = {slot: i for i, slot in enumerate(forms.slots)}
        tests = {rec.label: ([], []) for rec in records}
        never = set()
        for slot, (label, cond) in enumerate(conds):
            if slot in at:
                tests[label][cond.nonzero].append(at[slot])
            elif cond.nonzero:
                never.add(label)
        return cls(forms, tuple((label, tuple(zeros), tuple(nonzeros))
                                for label, (zeros, nonzeros) in tests.items()
                                if label not in never))

    def labels(self, field, k, d):
        """The labels of the records that hold on the variables k lifted
        over d."""
        vals = field.reduce(self.forms.run(k, d))
        return [label for label, zeros, nonzeros in self.records
                if not any(vals[i] for i in zeros)
                and all(vals[i] for i in nonzeros)]


@lru_cache(maxsize=8)
def _regime_forms(L):
    """The records of L's regime compiled, its parameters as coefficients:
    made once per table (tables are immutable and hash by identity).
    Raises UncoveredRegime outside the classified regimes."""
    table = recognize_table(L)
    prime = L.field.kind == "prime"
    params = tuple(int(v) if prime and v is not None else v
                   for v in table[1:])
    return _RecordForms.of(regime_records(L, table), L.n, params, L.field)


def classify_solution(L, r):
    """The set of labels r satisfies, for a covered regime.

    On covered regimes the contract is: r solves the CYBE iff the label set
    is nonempty.  Raises UncoveredRegime outside them, and ValueError or
    FieldError when r does not live on L.
    """
    _same_space(L, r)
    if L.n <= FORMS_MAX_DIM:
        k, d = r.lifted()
        return set(_regime_forms(L).labels(L.field, k, d))
    table = recognize_table(L)
    c = Coefficients(r.n, r.k, r.field, table[1:])
    return {rec.label for rec in regime_records(L, table) if rec.holds(c)}


@lru_cache(maxsize=8)
def _grid_forms(record_of, n):
    """The compiled record_of(n), strong_record or skew_record, for
    n <= FORMS_MAX_DIM."""
    return _RecordForms.of((record_of(n),), n, (None, None, None))


def _grid_holds(record_of, r):
    """Whether record_of(r.n), strong_record or skew_record, holds on r."""
    if r.n > FORMS_MAX_DIM:
        return record_of(r.n).holds(r)
    k, d = r.lifted()
    return bool(_grid_forms(record_of, r.n).labels(r.field, k, d))


def is_strongly_symmetric(r):
    """Symmetric grid with k[i][j]k[l][m] = k[i][l]k[j][m] for all index
    quadruples, checked through the 2x2 minors (see strong_record)."""
    return _grid_holds(strong_record, r)


def is_skew_symmetric(r):
    return _grid_holds(skew_record, r)


@lru_cache(maxsize=1)
def _alpha_beta_forms():
    """ALPHA_BETA_SKEW compiled once, alpha and beta as the variables 9 and
    10 after the dim-3 grid: its conditions are not homogeneous in these."""
    alpha, beta = _Poly({(9,): 1}), _Poly({(10,): 1})
    return _RecordForms.of((ALPHA_BETA_SKEW,), 3, (alpha, beta, None))


def is_alpha_beta_skew(r, alpha, beta):
    """Dim-3 class: p=-q, s=-t, u=-v, x=alpha z, y=beta z and
    alpha beta z^2 + beta s^2 + alpha u^2 + p^2 = 0.  alpha and beta are
    ints or scalars of r's field; others raise FieldError."""
    if r.n != 3:
        raise ValueError("alpha,beta-skew symmetry is a dim-3 notion")
    field = r.field
    k, d = field.lift([v for row in r.k for v in row]
                      + [_as_scalar(alpha, field), _as_scalar(beta, field)])
    return bool(_alpha_beta_forms().labels(field, k, d))


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


def _get(params, field, name):
    val = params.get(name, field.zero())
    if isinstance(val, int):
        val = field.from_int(val)
    if not field.contains(val):
        raise SideConditionError(f"parameter {name} is not a {field!r} scalar")
    return val


def generate_solution(L, case, params):
    """Build the tensor of one closed-form solution case on L.

    params maps coefficient names to scalars (ints accepted); omitted
    parameters are zero.  The case's side conditions are checked exactly
    and violations raise SideConditionError, as does a table the case does
    not cover.  Every output satisfies is_cybe_solution(L, r); callers may
    re-check, the CLI does.  The cases with their tables, free parameters
    and side conditions are GENERATORS; `cybe families` prints them.
    """
    gen = GENERATORS.get(case)
    if gen is None:
        raise SideConditionError(
            f"unknown case {clip(repr(case))} (have {', '.join(GENERATORS)})")
    table = recognize_table(L)
    if not gen.on_table(L, table):
        raise SideConditionError(gen.needs)
    field = L.field
    k = [[field.zero()] * 3 for _ in range(3)]
    for name in gen.params:
        i, j = NAMED_CELLS[name]
        k[i - 1][j - 1] = _get(params, field, name)
    c = Coefficients(3, k, field, table[1:])
    for cond in gen.side:
        if not cond.holds(c):
            raise SideConditionError(
                f"{gen.what} {cond.text} required".lstrip())
    # adding zero turns the grid's integer 0 entries into field scalars
    zero = field.zero()
    return Tensor2.from_rows(
        [[f(c) + zero for f in row[:L.n]] for row in gen.grid[:L.n]], field)
