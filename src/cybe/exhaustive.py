"""Exhaustive enumeration over prime fields and classification cross-checks.

A candidate tensor over GF(p) in dimension n is an integer id in base p with
n*n digits, entry (0, 0) most significant, so ids enumerate grids
lexicographically:  id = sum_{i,j} k[i][j] * p**(n*n - 1 - (i*n + j)).

One engine, `_surviving_ids`, finds the ids of the grids that pass a list of
checks.  A check (`Check`) is a sparse integer polynomial in the grid cells
(monomial -> coefficient mod p) that must vanish mod p, or must not.  The
oracle (`scan_solution_ids`) gets one check per residual cell, from a single
run of the residual kernel of `solve` on a grid whose entries are the
polynomials k[i][j] (`solve._Poly`): it knows nothing about the
classification.  `verify_classification` gets the conditions of each label
record of the regime (`solve.regime_records`, the very conditions
`classify_solution` evaluates on exact scalars) as their lhs - rhs on the
same polynomial grid (`solve._condition_polys`), and compares the sorted id
arrays.  The check is independent because the oracle never sees a label.

The engine lists the checks by a key of each check alone: equalities
first, then fewer terms, then the sorted terms.  Every tie below breaks by
that listing, so the search depends only on the set of checks, not on how a
caller lists them.  It assigns the cells the checks read one per level, in
the order `_cell_order` gives, and runs a check at the level of the last of
its cells, read in level coordinates (`_plan`): position s stands for the
cell of level s, so checks read the search rows as they are stored.  A
check on no cell is a constant, decided before the search.  The engine does
not try all p digits of the new cell x and filter them: it solves one ready
equality, written over the rows before it as a x^2 + b x + c with a a
constant and b, c reduced mod p (`_solve_cell`):
a = b = 0 gives every digit if c = 0 and none otherwise, a = 0 the one root
-c/b (from a table of inverses), a != 0 none, one or two roots (from a table
of square roots; p is odd, so 2a is invertible).  The level's other checks
then filter the children.  The cells no check reads are added at the end by
id arithmetic.  So the rows built follow the rows that survive, except
where every grid does (the abelian table).

Ids are int64, so exhaustive scans need p**(n*n) < 2**63 (in dim 3,
p <= 127; in dim 2, p < 55109) and refuse larger spaces up front.  Under
that ceiling every step is exact in int64, whatever the budget: ids stay
below p**(n*n); a check is evaluated with its coefficients and the digits as
residues, so each term of degree 2 is below p**3 and a check of T terms
below T p**3 (a product of more factors is reduced after each one past the
second), far below 2**63 (p**3 < 2**48 in dim 2), so the digit rows are
widened to int64 once per chunk; and a, b and c are reduced below p before
the discriminant, so b**2 - 4ac stays within 5 p**2 (the engine adds the
residue of -4a times c, below 2 p**2).
Dim 1 has no checks, since antisymmetry makes every one-dimensional algebra
abelian.  The budget only caps the rows of a search level: parent rows
times p, checked before each level (see `_surviving_ids`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .scalars import PrimeField
from .solve import (
    UncoveredRegime,
    _cell_polys,
    _condition_polys,
    _int_constants,
    _Poly,
    _residual_ints,
    recognize_table,
    regime_records,
    strong_record,
)
from .tensor import Tensor2

DEFAULT_BUDGET = 64_000_000
CHUNK = 1 << 15   # rows per vectorized step of a check or a comparison


class BudgetExceeded(RuntimeError):
    """A level of the search would have more rows than the budget allows."""


def candidate_count(n, p):
    return p ** (n * n)


def decode_ids(ids, n, p):
    """Candidate ids -> their base-p digits as an (len(ids), n*n) int64
    array, one grid per row, row-major."""
    powers = p ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    return ids[:, None] // powers % p


def _require_prime_field(L):
    if not isinstance(L.field, PrimeField):
        raise ValueError("exhaustive scans need a prime field, not QQ")
    p = L.field.p
    if candidate_count(L.n, p) >= 2 ** 63:
        raise ValueError(
            f"{p}**{L.n * L.n} candidates do not fit int64 ids: exhaustive "
            f"scans need p**(n*n) < 2**63 (in dim 3, p <= 127)")
    return p


# ---------------------------------------------------------------------------
# checks: polynomials in the grid cells

def _mod(poly, p):
    """poly (or an int) with its coefficients reduced mod p, zeros dropped."""
    if not isinstance(poly, _Poly):
        poly = {(): poly}
    return {mono: c % p for mono, c in poly.items() if c % p}


class Check(NamedTuple):
    """poly = 0 over GF(p), or poly != 0 when `nonzero` is set.

    poly maps monomials (ascending tuples of flat cells i*n + j) to
    coefficients in 1..p-1.  The engine reads it in search-level
    coordinates (`_plan`), and runs the check once every cell of poly is
    assigned; a check on no cell is a constant, decided before the search.
    """

    poly: dict
    nonzero: bool = False


def _residual_checks(L, p):
    """poly = 0 for each residual cell that does not vanish identically:
    one run of the residual kernel on the grid of cell polynomials."""
    n = L.n
    consts, _ = _int_constants(L)
    cube = _residual_ints(n, consts, _cell_polys(n))
    return [Check(poly) for poly in (_mod(v, p) for v in cube) if poly]


def _label_checks(record, n, p, params):
    """lhs - rhs of each condition of the record, on the grid of cell
    polynomials and the table's parameters (residues)."""
    conds = tuple(chain(record.shape, record.side))
    return [Check(_mod(poly, p), cond.nonzero)
            for cond, poly in zip(conds, _condition_polys(conds, n, params))]


# ---------------------------------------------------------------------------
# the engine

def _cell_order(reads):
    """The cells the checks read, in the order the engine assigns them.

    Greedy: finish the check with the fewest cells still open, the first
    listed of them on a tie, opening its cells most-read first, then in
    flat order, so that checks become decidable early.
    """
    order, left = [], [set(cells) for cells in reads if cells]
    while left:
        nxt = min(left, key=len)
        order += sorted(nxt, key=lambda cell: (
            -sum(cell in cells for cells in left), cell))
        left = [rest for cells in left if (rest := cells - nxt)]
    return order


def _fits(rows, budget):
    if budget is not None and rows > budget:
        raise BudgetExceeded(
            f"a search level of {rows} rows exceeds the budget of {budget}")


class _Tables(NamedTuple):
    """The tables of GF(p) `_solve_cell` reads: neg_inv[v] = -1/v
    (neg_inv[0] = 0), and root[v] a square root of v, or -1 where v is not
    a square."""

    neg_inv: np.ndarray
    root: np.ndarray

    @classmethod
    def of(cls, p):
        v = np.arange(p, dtype=np.int64)
        root = np.full(p, -1, dtype=np.int64)
        root[v * v % p] = v
        return cls(np.array([0] + [p - pow(int(u), -1, p) for u in v[1:]],
                            dtype=np.int64), root)


def _solve_cell(a, b, c, p, tables):
    """The digits x with a x^2 + b x + c = 0 mod p on each row, for a
    residue a and columns of residues b and c: (rows, xs, full), the int
    arrays of each row with a root x, and of the rows that every digit
    solves.

    a != 0: the roots (-b +- sqrt(b^2 - 4ac)) / 2a, none, one or two (p is
    odd, so 2a is invertible); a = 0, b != 0: one, x = -c/b; a = b = 0:
    every digit if c = 0, none otherwise.
    """
    if a:
        # b^2 + (-4a mod p) c < 2 p^2: the discriminant, exact
        r = tables.root[(b * b + (-4 * a % p) * c) % p]
        one, two = np.flatnonzero(r >= 0), np.flatnonzero(r > 0)
        xs = np.concatenate((r[one] - b[one], -r[two] - b[two]))
        return (np.concatenate((one, two)), xs * pow(2 * a, -1, p) % p,
                one[:0])
    rows = np.flatnonzero(b)
    return (rows, c[rows] * tables.neg_inv[b[rows]] % p,
            rows[:0] if rows.size == b.size
            else np.flatnonzero((b | c) == 0))


def _split(poly, x):
    """poly as a x^2 + b x + c: (rank, a, b, c) with the int a and the
    polynomials b and c in the other positions, or None if its degree in x
    exceeds 2 or a is not a constant.  Rank 1: a = 0 and b a nonzero
    constant (one root on every row); 2: a != 0 (at most two); 3: any other
    (some rows may take every digit)."""
    a, b, c = 0, {}, {}
    for mono, coef in poly.items():
        if x not in mono:
            c[mono] = coef
            continue
        at = mono.index(x)
        rest = mono[:at] + mono[at + 1:]
        if x not in rest:
            b[rest] = coef
        elif rest == (x,):
            a = coef
        else:
            return None
    return (2 if a else 1 if list(b) == [()] else 3), a, b, c


def _value(poly, grid, p):
    """poly on the columns of grid, whose row s holds position s, not
    reduced: below p**3 times its number of terms, as coefficients and
    factors are residues and a product of more than two factors is reduced
    after each one past the second."""
    acc, const = None, 0
    for mono, coef in poly.items():
        if not mono:
            const = coef
            continue
        term = grid[mono[0]] if coef == 1 else coef * grid[mono[0]]
        for d, cell in enumerate(mono[1:], 1):
            term = term * grid[cell]
            if d > 1:
                term %= p
        acc = term if acc is None else acc + term
    if acc is None:
        return np.full(grid.shape[1], const, dtype=grid.dtype)
    return acc + const if const else acc


class _Level(NamedTuple):
    """How level s assigns position s: the check solved for it as (a, b, c),
    an int and two polynomials in the positions before s (see `_split`),
    or None; and the other ready checks, which filter the children."""

    solver: tuple
    filters: list


def _plan(checks, order):
    """The _Level of each cell of order, the checks in level coordinates:
    monomials as descending tuples of positions in order, so a check runs
    at the first position of its largest monomial, the level of the last
    of its cells (`_surviving_ids` decides the checks on no cell).  There
    the first listed equality of least rank is solved for the cell, and the
    checks left filter in their listed order; the canonical listing puts
    the cheapest first, and renaming keeps each check's number of terms."""
    at = [[] for _ in order]
    position = {cell: s for s, cell in enumerate(order)}
    rename = {mono: tuple(sorted(map(position.__getitem__, mono),
                                 reverse=True))
              for mono in set(chain.from_iterable(c.poly for c in checks))}
    for check in checks:
        poly = {rename[mono]: coef for mono, coef in check.poly.items()}
        last = max(poly, default=())
        if last:
            at[last[0]].append(Check(poly, check.nonzero))
    levels = []
    for x, ready in enumerate(at):
        solver, parts = None, None
        for check in ready:
            split = None if check.nonzero else _split(check.poly, x)
            if split and (parts is None or split[0] < parts[0]):
                solver, parts = check, split
                if split[0] == 1:     # no rank is lower
                    break
        levels.append(_Level(
            parts and parts[1:],
            [check for check in ready if check is not solver]))
    return levels


def _filter(out, checks, p):
    """The columns of out (digits of positions 0..s, one grid each) that
    pass every check, (polynomial, nonzero), each check seeing the columns
    the ones before it kept: an index array, or None for all of them."""
    child = out.astype(np.int64)
    keep = None
    for poly, nonzero in checks:
        val = _value(poly, child, p)
        ok = (val % p == 0) != nonzero
        if not ok.all():
            child = child.compress(ok, axis=1)
            keep = np.flatnonzero(ok) if keep is None else keep[ok]
    return keep


def _extend(digits, p, level, tables):
    """The columns of digits (row t the digit of position t, one grid
    each), each with every digit of the next position that passes its
    checks, as a row below them.  The level's solver gives the children,
    the roots `_solve_cell` finds on each row, or every digit without one;
    its other checks then filter them (`_filter`).  Built about CHUNK
    children at a time."""
    s = digits.shape[0]
    step = max(1, CHUNK // p)
    kept = []
    for start in range(0, digits.shape[1], step):
        part = digits[:, start:start + step]
        m = part.shape[1]
        if level.solver is None:
            rows, xs = np.arange(m).repeat(p), np.tile(np.arange(p), m)
        else:
            a, b, c = level.solver
            grid = part.astype(np.int64)
            rows, xs, full = _solve_cell(a, _value(b, grid, p) % p,
                                         _value(c, grid, p) % p, p, tables)
            if full.size:
                rows = np.concatenate((rows, full.repeat(p)))
                xs = np.concatenate((xs, np.tile(np.arange(p), full.size)))
        out = np.empty((s + 1, xs.size), dtype=digits.dtype)
        out[:s] = part.take(rows, axis=1)
        out[s] = xs
        if level.filters:
            keep = _filter(out, level.filters, p)
            if keep is not None:
                out = out.take(keep, axis=1)
        kept.append(out)
    return kept[0] if len(kept) == 1 else np.concatenate(kept, axis=1)


def _surviving_ids(n, p, checks, budget):
    """Sorted int64 ids of the grids over GF(p) that pass every check.

    A check on no cell is a constant: if one fails, no grid passes.  Each
    level assigns one more cell some check reads, to the rows that survived
    the level before, and runs the checks whose cells are now all assigned:
    one is solved for the new cell (`_plan`, `_extend`), the others filter
    the children.  It is built chunk by chunk, so only its survivors are
    held; a level that keeps none ends the search.  Raises BudgetExceeded
    before a level whose parent rows times p exceed `budget` (None: no
    cap).  The other cells are then added to the ids by id arithmetic.
    """
    nn = n * n
    weight = p ** np.arange(nn - 1, -1, -1, dtype=np.int64)
    checks = sorted(checks, key=lambda check: (
        check.nonzero, len(check.poly), sorted(check.poly.items())))
    reads = [set(chain.from_iterable(check.poly)) for check in checks]
    if any((check.poly.get((), 0) % p == 0) == check.nonzero
           for check, cells in zip(checks, reads) if not cells):
        return np.empty(0, dtype=np.int64)
    order = _cell_order(reads)
    digits = np.zeros((0, 1), dtype=np.min_scalar_type(p - 1))
    tables = _Tables.of(p) if order else None
    for level in _plan(checks, order):
        _fits(digits.shape[1] * p, budget)
        digits = _extend(digits, p, level, tables)
        if not digits.shape[1]:
            return np.empty(0, dtype=np.int64)
    ids = weight[order] @ digits.astype(np.int64)
    del digits
    for cell in sorted(set(range(nn)) - set(order)):
        _fits(ids.size * p, budget)
        step = np.arange(0, p * weight[cell], weight[cell], dtype=np.int64)
        ids = (ids[:, None] + step).ravel()
    if order:   # free cells alone come out in id order
        ids.sort()
    return ids


def scan_solution_ids(L, budget=DEFAULT_BUDGET):
    """All candidate ids over GF(p) solving the CYBE on L, ascending.

    Returns (ids ndarray, engine name).  Raises BudgetExceeded if a level
    of the search would have more than `budget` rows.
    """
    p = _require_prime_field(L)
    return _surviving_ids(L.n, p, _residual_checks(L, p), budget), "frontier"


def enumerate_solutions(L, budget=DEFAULT_BUDGET):
    """Every CYBE solution tensor on L over GF(p), in candidate-id order."""
    ids, _ = scan_solution_ids(L, budget=budget)
    n, F = L.n, L.field
    return [Tensor2.from_rows([[F.from_int(d) for d in row] for row in g], F)
            for g in decode_ids(ids, n, F.p).reshape(-1, n, n).tolist()]


# ---------------------------------------------------------------------------
# the classification cross-check

@dataclass(frozen=True)
class EnumerationReport:
    p: int
    dim: int
    algebra: str
    total: int
    solution_count: int
    predicate_count: int
    matched: int
    label_counts: dict
    missed_by_predicate: tuple  # solutions no label accepts (witness grids)
    false_positives: tuple      # label-accepted non-solutions
    confirmed: bool
    empirical_only: bool
    solution_ids: np.ndarray = field(repr=False, compare=False)


WITNESS_CAP = 100


def _witnesses(ids, n, p):
    """{"id", "grid"} of each id, the grid's entries as the str of their
    residues: one `decode_ids` for them all."""
    ids = ids[:WITNESS_CAP]
    grids = decode_ids(ids, n, p).astype(str).reshape(-1, n, n).tolist()
    return tuple({"id": idx, "grid": grid}
                 for idx, grid in zip(ids.tolist(), grids))


def _compare(sol, truth, covered, outside):
    """Mark in `covered` the entries of sorted `sol` that sorted `truth`
    holds and append the rest of truth to `outside`; return the hits."""
    hits = 0
    for start in range(0, truth.size, CHUNK):
        part = truth[start:start + CHUNK]
        pos = np.searchsorted(sol, part)
        inside = pos < sol.size
        inside[inside] = sol[pos[inside]] == part[inside]
        covered[pos[inside]] = True
        hits += int(np.count_nonzero(inside))
        outside.append(part[~inside])
    return hits


def _union(arrays):
    """Sorted distinct entries of the given arrays, by sorting (np.union1d
    is far slower on large int64 arrays)."""
    ids = np.sort(np.concatenate(arrays))
    return ids[np.diff(ids, prepend=-1) != 0]


def verify_classification(L, budget=DEFAULT_BUDGET):
    """Enumerate the solutions over GF(p) and compare with the classification.

    Confirmation means the oracle solution set equals the union of the
    regime's label truth sets exactly.  On regimes without a classification
    the report is marked empirical_only and the predicate side degrades to
    the sufficient strong-symmetry condition.
    """
    p = _require_prime_field(L)
    ids, _ = scan_solution_ids(L, budget=budget)
    table = recognize_table(L)
    try:
        records = regime_records(L, table)
        empirical_only = False
    except UncoveredRegime:
        # strong symmetry is sufficient on every table: a partial check
        records = (strong_record(L.n),)
        empirical_only = True
    params = tuple(None if v is None else int(v) for v in table[1:])
    total = candidate_count(L.n, p)

    covered = np.zeros(ids.size, dtype=bool)
    label_counts, outside = {}, [ids[:0]]
    for rec in records:
        checks = _label_checks(rec, L.n, p, params)
        if not checks and ids.size == total:   # the truth set is ids itself
            covered[:] = True
            label_counts[rec.label.value] = int(ids.size)
            continue
        truth = _surviving_ids(L.n, p, checks, budget)
        label_counts[rec.label.value] = _compare(ids, truth, covered, outside)
        del truth   # before the next label's search allocates
    extra = _union(outside)
    missed = ids[~covered]
    matched = int(np.count_nonzero(covered))
    return EnumerationReport(
        p=p,
        dim=L.n,
        algebra=L.label,
        total=total,
        solution_count=int(ids.size),
        predicate_count=matched + int(extra.size),
        matched=matched,
        label_counts=label_counts,
        missed_by_predicate=_witnesses(missed, L.n, p),
        false_positives=_witnesses(extra, L.n, p),
        confirmed=(not empirical_only and missed.size == 0
                   and extra.size == 0),
        empirical_only=empirical_only,
        solution_ids=ids,
    )
