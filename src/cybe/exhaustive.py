"""Exhaustive enumeration over prime fields and classification cross-checks.

A candidate tensor over GF(p) in dimension n is an integer id in base p with
n*n digits, entry (0, 0) most significant, so ids enumerate grids
lexicographically:  id = sum_{i,j} k[i][j] * p**(n*n - 1 - (i*n + j)).

One engine, `_surviving_ids`, finds the ids of the grids that pass a list of
checks.  A check is a pair (cells, mask): the 0-based grid cells (i, j) it
reads, and a function from a grid whose read cells are int64 columns to a
boolean mask.  The engine assigns the cells the checks read one at a time,
p ways each, and drops the rows that fail a check as soon as every cell it
reads is assigned; the other cells are added at the end by id arithmetic.
So its cost follows the rows that survive, except where every grid does
(the abelian table).  The oracle (`scan_solution_ids`) gives it one check per
residual cell, read off the residual kernel of `solve`: it knows nothing
about the classification.  `verify_classification` gives it the conditions
of each label record of the regime (`solve.regime_records`, the very
conditions `classify_solution` evaluates on exact scalars) and compares the
sorted id arrays.  The check is independent because the oracle never sees
a label.

Ids are int64, so exhaustive scans need p**(n*n) < 2**63 (in dim 3,
p <= 127; in dim 2, p < 55109) and refuse larger spaces up front.  Under
that ceiling every check is exact in int64, whatever the budget: ids stay
below p**(n*n); a residual cell sums at most n*n*(n*n+1)/2 monomials c*k*k'
with c, k, k' < p (45 p**3 < 2**27 in dim 3, 10 p**3 < 2**51 in dim 2); a
label condition has degree at most 4 counting the table parameters
(p**4 < 2**28 in dim 3); and dim 1 has no checks, since antisymmetry makes
every one-dimensional algebra abelian.  The budget only caps the rows of a
search level (see `_surviving_ids`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, product

import numpy as np

from .scalars import PrimeField
from .solve import (
    Coefficients,
    UncoveredRegime,
    _int_constants,
    _residual_ints,
    recognize_table,
    regime_records,
    strong_record,
    table_params,
)
from .tensor import Tensor2

DEFAULT_BUDGET = 64_000_000
CHUNK = 1 << 15   # rows per vectorized step of a check or a comparison


class BudgetExceeded(RuntimeError):
    """A level of the search would have more rows than the budget allows."""


def candidate_count(n, p):
    return p ** (n * n)


def encode_tensor(r):
    """Tensor over GF(p) -> its candidate id."""
    p = r.field.p
    acc = 0
    for i in range(r.n):
        for j in range(r.n):
            acc = acc * p + int(r.k[i][j])
    return acc


def decode_tensor(idx, n, field):
    """Candidate id -> tensor over GF(p)."""
    p = field.p
    digits = []
    for _ in range(n * n):
        digits.append(idx % p)
        idx //= p
    digits.reverse()
    rows = [[field.from_int(digits[i * n + j]) for j in range(n)]
            for i in range(n)]
    return Tensor2.from_rows(rows, field)


def decode_ids(ids, n, p):
    """Candidate ids -> their base-p digits as an (len(ids), n*n) int64
    array, one grid per row, row-major: `decode_tensor` for many ids."""
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
# the engine

def _cell_order(reads):
    """The cells the checks read, in the order the engine assigns them.

    Greedy: finish the check with the fewest cells still open, opening its
    cells most-read first, so that checks become decidable early.
    """
    order, left = [], [set(cells) for cells in reads if cells]
    while left:
        nxt = min(left, key=len)
        counts = Counter(chain.from_iterable(left))
        order += sorted(nxt, key=lambda cell: (-counts[cell], cell))
        left = [cells - nxt for cells in left if cells - nxt]
    return order


def _fits(rows, budget):
    if budget is not None and rows > budget:
        raise BudgetExceeded(
            f"a search level of {rows} rows exceeds the budget of {budget}")


def _extend(digits, p, n, at, checks):
    """The columns of digits (the assigned cells of one grid), each p times
    over with the digits 0..p-1 of the next cell in a new last row, that
    pass every check.  Built about CHUNK columns at a time; each check sees
    the columns the checks before it kept, as a grid whose cells it reads
    are int64 columns (row at[cell]) and whose other cells are None."""
    k, rows = digits.shape
    step = max(1, CHUNK // p)
    kept = [np.empty((k + 1, 0), dtype=digits.dtype)]
    for start in range(0, rows, step):
        block = digits[:, start:start + step]
        cols = block.shape[1]
        part = np.empty((k + 1, cols * p), dtype=digits.dtype)
        part[:k].reshape(k, cols, p)[...] = block[:, :, None]
        part[k].reshape(cols, p)[...] = np.arange(p, dtype=digits.dtype)
        for cells, mask in checks:
            grid = [[None] * n for _ in range(n)]
            for i, j in cells:
                grid[i][j] = part[at[i, j]].astype(np.int64)
            part = part[:, mask(grid)]
        kept.append(part)
    return np.concatenate(kept, axis=1)


def _surviving_ids(n, p, checks, budget):
    """Sorted int64 ids of the grids over GF(p) that pass every check.

    Each level assigns one more cell some check reads, to p times the rows
    that survived the level before, and runs the checks whose cells are now
    all assigned; it is built chunk by chunk, so only its survivors are held.
    Raises BudgetExceeded before a level of more than `budget` rows (None:
    no cap).  The other cells are then added to the ids by id arithmetic.
    """
    nn = n * n
    weight = {(i, j): p ** (nn - 1 - i * n - j)
              for i, j in product(range(n), repeat=2)}
    order = _cell_order(cells for cells, _ in checks)
    at = {cell: row for row, cell in enumerate(order)}
    digits = np.zeros((0, 1), dtype=np.min_scalar_type(p - 1))
    pending, done = list(checks), set()
    for cell in order:
        _fits(digits.shape[1] * p, budget)
        done.add(cell)
        ready = [c for c in pending if c[0] <= done]
        pending = [c for c in pending if not c[0] <= done]
        digits = _extend(digits, p, n, at, ready)
    ids = np.zeros(digits.shape[1], dtype=np.int64)
    for cell, row in zip(order, digits):
        ids += row.astype(np.int64) * weight[cell]
    del digits
    free = sorted(set(weight) - done)
    for cell in free:
        _fits(ids.size * p, budget)
        step = np.arange(0, p * weight[cell], weight[cell], dtype=np.int64)
        if ids.size == 1:   # no second array the size of the result
            step += ids[0]
            ids = step
        else:
            ids = (ids[:, None] + step).ravel()
    # rows come out sorted exactly when each cell is less significant than
    # the ones before it, as on a table without checks
    if order + free != sorted(order + free):
        ids.sort()
    return ids


def _vanishes(terms, p):
    def mask(k):
        acc = 0
        for c, (i, j), (l, m) in terms:
            acc = acc + c * k[i][j] * k[l][m]
        return acc % p == 0
    return mask


def _residual_checks(L, p):
    """One check per residual cell that does not vanish identically.  Its
    monomials are read off the residual kernel by polarization: with e_a
    the grid with a single 1 at cell a, k_a^2 has coefficient R(e_a) and
    k_a k_b (a < b) has R(e_a + e_b) - R(e_a) - R(e_b), taken mod p."""
    n, nn = L.n, L.n * L.n
    consts, _ = _int_constants(L)

    def residual_at(*cells):
        return _residual_ints(n, consts, [int(a in cells) for a in range(nn)])

    # listed as the constants, row by row, first touch each cell: on the II
    # tables with one parameter zero, `_cell_order` then keeps the largest
    # search level 3.5-6.5 times smaller at F_7 to F_13 than flat cell order
    terms = {(cell[0] * n + cell[1]) * n + cell[2]: []
             for _, _, m, _ in consts for a, b in product(range(n), repeat=2)
             for cell in ((m, a, b), (a, m, b), (a, b, m))}
    single = [residual_at(a) for a in range(nn)]
    for a, b in combinations_with_replacement(range(nn), 2):
        coefs = single[a] if a == b else [
            both - ra - rb
            for both, ra, rb in zip(residual_at(a, b), single[a], single[b])]
        for cell, c in enumerate(coefs):
            if c % p:   # nonzero only on cells the constants touch
                terms[cell].append((c % p, divmod(a, n), divmod(b, n)))
    return [(frozenset(chain.from_iterable(mono for _, *mono in live)),
             _vanishes(live, p))
            for live in terms.values() if live]


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
    return [decode_tensor(int(i), L.n, L.field) for i in ids]


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
    wall_time_ms: object = None


WITNESS_CAP = 100


def _witness(idx, L):
    r = decode_tensor(int(idx), L.n, L.field)
    return {"id": int(idx), "grid": [[str(v) for v in row] for row in r.k]}


def _label_checks(record, n, p, params):
    def check(cond):
        return cond.cells, lambda k: cond.holds_mod(
            Coefficients(n, k, None, params), p)
    return [check(cond) for cond in chain(record.shape, record.side)]


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


def verify_classification(L, budget=DEFAULT_BUDGET, timing=False):
    """Enumerate the solutions over GF(p) and compare with the classification.

    Confirmation means the oracle solution set equals the union of the
    regime's label truth sets exactly.  On regimes without a classification
    the report is marked empirical_only and the predicate side degrades to
    the sufficient strong-symmetry condition.
    """
    t0 = time.perf_counter()
    p = _require_prime_field(L)
    ids, _ = scan_solution_ids(L, budget=budget)
    reg = recognize_table(L)
    try:
        records = regime_records(L, reg)
        empirical_only = False
    except UncoveredRegime:
        # strong symmetry is sufficient on every table: a partial check
        records = (strong_record(L.n),)
        empirical_only = True
    params = tuple(None if v is None else int(v) for v in table_params(reg))
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
        missed_by_predicate=tuple(_witness(i, L)
                                  for i in missed[:WITNESS_CAP]),
        false_positives=tuple(_witness(i, L) for i in extra[:WITNESS_CAP]),
        confirmed=(not empirical_only and missed.size == 0
                   and extra.size == 0),
        empirical_only=empirical_only,
        solution_ids=ids,
        wall_time_ms=(round((time.perf_counter() - t0) * 1000.0, 3)
                      if timing else None),
    )
