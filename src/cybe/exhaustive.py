"""Exhaustive enumeration over prime fields and classification cross-checks.

The oracle (`scan_solution_ids`) walks every candidate tensor over GF(p) and
keeps the ones whose CYBE residual vanishes, by direct evaluation through the
structure constants: it knows nothing about the classification.
`verify_classification` then runs the regime's label records
(`solve.regime_records`, the very conditions `classify_solution` evaluates
on exact scalars) over the same candidate space, batched on int64 residues,
and compares the two sets exactly.  The check is independent because the
oracle never sees a label, not because the predicates are written twice.

Candidate ids are base-p integers, entry (0, 0) most significant (see
`_kernels`).  Scans are split into p*p equal blocks on the two leading
digits; blocks can run on a thread pool and are merged back in block order,
so results are bit-identical whatever the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ._kernels import constants_arrays, decode_grids, pick_backend, scan_range
from .scalars import PrimeField
from .solve import (
    Coefficients,
    UncoveredRegime,
    recognize_table,
    regime_records,
    strong_record,
    table_params,
)
from .tensor import Tensor2

DEFAULT_BUDGET = 100_000_000


class BudgetExceeded(RuntimeError):
    """The scan would touch more candidates than the budget allows."""


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


def _require_prime_field(L):
    if not isinstance(L.field, PrimeField):
        raise ValueError("exhaustive scans need a prime field, not QQ")
    return L.field.p


def _blocks(total, p):
    nblocks = min(p * p, total)
    size = total // nblocks
    return [(b * size, (b + 1) * size) for b in range(nblocks)]


def scan_solution_ids(L, workers=1, budget=DEFAULT_BUDGET, backend=None):
    """All candidate ids over GF(p) solving the CYBE on L, ascending.

    Returns (ids ndarray, backend used).  Raises BudgetExceeded if the
    candidate space is larger than `budget`.
    """
    p = _require_prime_field(L)
    total = candidate_count(L.n, p)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            f"{total} candidates exceed the budget of {budget}")
    if backend is None:
        backend = pick_backend(total)
    ci, cj, cm, cv = constants_arrays(L)
    blocks = _blocks(total, p)
    if workers <= 1 or len(blocks) == 1:
        masks = [scan_range(lo, hi, L.n, p, ci, cj, cm, cv, backend)
                 for lo, hi in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            masks = list(pool.map(
                lambda blk: scan_range(blk[0], blk[1], L.n, p,
                                       ci, cj, cm, cv, backend),
                blocks))
    mask = np.concatenate(masks)
    return np.flatnonzero(mask).astype(np.int64), backend


def enumerate_solutions(L, workers=1, budget=DEFAULT_BUDGET, backend=None):
    """Every CYBE solution tensor on L over GF(p), in candidate-id order."""
    ids, _ = scan_solution_ids(L, workers=workers, budget=budget,
                               backend=backend)
    return [decode_tensor(int(i), L.n, L.field) for i in ids]


@dataclass(frozen=True)
class EnumerationReport:
    p: int
    dim: int
    algebra: str
    total: int
    backend: str
    workers: int
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


def _witness(idx, n, p):
    g = decode_grids(np.array([idx], dtype=np.int64), n, p)[0]
    return {"id": int(idx), "grid": [[str(int(v)) for v in row] for row in g]}


def _accepted(record, cols, ids, p, params):
    """The ids whose grids meet every condition of record.

    cols holds the grids as an (n, n, N) int64 residue array, so that
    cols[i][j] is the column of entry (i, j); a row is dropped as soon as it
    fails a condition.
    """
    n = cols.shape[0]
    for cond in chain(record.shape, record.side):
        keep = cond.holds_mod(Coefficients(n, cols, None, params), p)
        cols, ids = cols[:, :, keep], ids[keep]
    return ids


def verify_classification(L, workers=1, budget=DEFAULT_BUDGET, backend=None,
                          timing=False):
    """Scan all tensors over GF(p) and compare against the classification.

    Confirmation means the oracle solution set equals the union of the
    regime's label predicates exactly.  On regimes without a classification
    the report is marked empirical_only and the predicate side degrades to
    the sufficient strong-symmetry condition.
    """
    t0 = time.perf_counter()
    p = _require_prime_field(L)
    total = candidate_count(L.n, p)
    ids, used_backend = scan_solution_ids(L, workers=workers, budget=budget,
                                          backend=backend)
    reg = recognize_table(L)
    try:
        records = regime_records(L, reg)
        empirical_only = False
    except UncoveredRegime:
        # strong symmetry is sufficient on every table: a partial check
        records = (strong_record(L.n),)
        empirical_only = True
    params = tuple(None if v is None else int(v) for v in table_params(reg))

    sol_mask = np.zeros(total, dtype=bool)
    sol_mask[ids] = True
    label_counts = {rec.label.value: 0 for rec in records}
    pred_mask = np.zeros(total, dtype=bool)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        chunk_ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = decode_grids(chunk_ids, L.n, p).transpose(1, 2, 0)
        for rec in records:
            hit = _accepted(rec, cols, chunk_ids, p, params)
            pred_mask[hit] = True
            label_counts[rec.label.value] += int(
                np.count_nonzero(sol_mask[hit]))

    missed = np.flatnonzero(sol_mask & ~pred_mask)
    extra = np.flatnonzero(pred_mask & ~sol_mask)
    matched = int(np.count_nonzero(sol_mask & pred_mask))
    report = EnumerationReport(
        p=p,
        dim=L.n,
        algebra=L.label,
        total=total,
        backend=used_backend,
        workers=workers,
        solution_count=int(ids.shape[0]),
        predicate_count=int(np.count_nonzero(pred_mask)),
        matched=matched,
        label_counts=label_counts,
        missed_by_predicate=tuple(_witness(i, L.n, p)
                                  for i in missed[:WITNESS_CAP]),
        false_positives=tuple(_witness(i, L.n, p)
                              for i in extra[:WITNESS_CAP]),
        confirmed=(not empirical_only and missed.size == 0
                   and extra.size == 0),
        empirical_only=empirical_only,
        solution_ids=ids,
        wall_time_ms=(round((time.perf_counter() - t0) * 1000.0, 3)
                      if timing else None),
    )
    return report
