"""Reference answers for the benchmark's correctness checks.

Nothing here imports `cybe`.  The tables are written down from their
defining brackets, and the CYBE residual is evaluated as one tensor
contraction over a whole batch of grids:

    [[r, r]]^{abc} = k^{ib} k^{sc} C_{is}^a + k^{aj} k^{sc} C_{js}^b
                   + k^{aj} k^{bt} C_{jt}^c

over int64, after each rational grid is scaled to integers (the residual is
homogeneous of degree 2 in r, so scaling does not change whether it
vanishes).  That is a different evaluation order from the program's
cell-by-cell kernels and its sum over nonzero constants, so agreement is a
check and not a replay.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

# int64 headroom: |entry| <= 2**20 and |constant| <= 2**10 keep every
# residual cell of a dim-3 grid below 2**63.
_ENTRY_LIMIT = 1 << 20


def constants(kind, n=3, a=0, b=0):
    """Structure constants C[i][j][m] (0-based, ints) of a named table.

    kind "ii":       [e1,e2]=e3, [e2,e3]=a e1, [e3,e1]=b e2 (sl2: a=4, b=-4,
                     III: a=b=0)
    kind "solvable": [e1,e3]=e1+a e2, [e2,e3]=b e2 (IV, V: a=b=0)
    kind "vi":       [e1,e2]=e1 (dim 2)
    kind "abelian":  every bracket zero (dim n)
    """
    upper = {}
    if kind == "ii":
        upper = {(0, 1): (0, 0, 1), (1, 2): (a, 0, 0), (0, 2): (0, -b, 0)}
    elif kind == "solvable":
        upper = {(0, 2): (1, a, 0), (1, 2): (0, b, 0)}
    elif kind == "vi":
        n = 2
        upper = {(0, 1): (1, 0)}
    elif kind != "abelian":
        raise ValueError(f"unknown table kind {kind!r}")
    c = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), vec in upper.items():
        for m, val in enumerate(vec):
            c[i, j, m] = val
            c[j, i, m] = -val
    return c


def residual_zero(c, grids, p=None):
    """Boolean per grid: does the CYBE residual vanish (mod p if given)?

    grids is an int64 array (N, n, n).
    """
    g = np.asarray(grids, dtype=np.int64)
    if np.abs(g).max(initial=0) > _ENTRY_LIMIT:
        raise OverflowError("grid entries too large for the int64 oracle")
    res = (np.einsum("Nib,Nsc,isa->Nabc", g, g, c, optimize=True)
           + np.einsum("Naj,Nsc,jsb->Nabc", g, g, c, optimize=True)
           + np.einsum("Naj,Nbt,jtc->Nabc", g, g, c, optimize=True))
    if p is not None:
        res %= p
    return ~res.reshape(res.shape[0], -1).any(axis=1)


def all_grids(n, p):
    """Every n x n grid over F_p as an int64 array (p**(n*n), n, n)."""
    nn = n * n
    ids = np.arange(p ** nn, dtype=np.int64)
    digits = np.empty((ids.shape[0], nn), dtype=np.int64)
    for pos in range(nn - 1, -1, -1):
        digits[:, pos] = ids % p
        ids //= p
    return digits.reshape(-1, n, n)


def solution_set(c, p, chunk=1 << 15):
    """All CYBE solutions over F_p of the table c, as a set of grid tuples."""
    n = c.shape[0]
    grids = all_grids(n, p)
    out = set()
    for start in range(0, grids.shape[0], chunk):
        g = grids[start:start + chunk]
        for row in g[residual_zero(c, g, p)]:
            out.add(tuple(tuple(int(v) for v in r) for r in row))
    return out


def integer_grid(rows):
    """A rational grid scaled by the lcm of its denominators, as ints."""
    den = 1
    for row in rows:
        for v in row:
            den = lcm(den, Fraction(v).denominator)
    return [[int(Fraction(v) * den) for v in row] for row in rows]


def solves(c, rows_list, p=None):
    """Per grid (rows of ints or Fractions): is it a CYBE solution?"""
    if not rows_list:
        return []
    ints = [integer_grid(rows) if p is None else rows for rows in rows_list]
    return [bool(v) for v in residual_zero(c, np.array(ints), p)]


def is_zero(v, p=None):
    return v % p == 0 if p is not None else v == 0


def strongly_symmetric(rows, p=None):
    """Symmetric with every 2x2 minor zero: k[i][j]k[l][m] = k[i][l]k[j][m]."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if not is_zero(rows[i][j] - rows[j][i], p):
                return False
            for l in range(n):
                for m in range(n):
                    if not is_zero(rows[i][j] * rows[l][m]
                                   - rows[i][l] * rows[j][m], p):
                        return False
    return True


def alpha_beta_skew(rows, a, b, p=None):
    """The II-table class: p = -q, s = -t, u = -v, x = a z, y = b z and
    a b z^2 + b s^2 + a u^2 + p^2 = 0 (named coefficients of the grid)."""
    (x, pp, s), (q, y, u), (t, v, z) = rows
    return all(is_zero(val, p) for val in (
        pp + q, s + t, u + v, x - a * z, y - b * z,
        a * b * z * z + b * s * s + a * u * u + pp * pp))
