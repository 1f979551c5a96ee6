"""Exhaustive-scan kernels over prime fields.

A candidate tensor over GF(p) in dimension n is encoded as an integer id in
base p with n*n digits, entry (0, 0) most significant:

    id = sum_{i,j} k[i][j] * p**(n*n - 1 - (i*n + j))

so ids enumerate grids lexicographically.  The kernels take the algebra's
nonzero structure constants as flat arrays and mark which ids in a range
solve the CYBE, evaluating the residual cell by cell with early exit.

Two implementations: a numba @njit kernel (the hot path; nogil so thread
pools scale) and a vectorized numpy fallback.  Selection: the CYBE_BACKEND
environment variable ("numba", "numpy", or "auto"/unset; auto picks numba
for large ranges when it is importable, numpy otherwise, so small scans skip
the JIT compile cost).  Both paths work on int64 residues and reduce mod p
once per cell, which is exact while 3 * len(nz) * (p-1)**3 fits in int64:
true for every prime below two million, far beyond any enumerable scan.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # numba is the optional `numba` extra
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap


AUTO_NUMBA_THRESHOLD = 200_000


def pick_backend(total):
    """Resolve the CYBE_BACKEND env flag for a scan of `total` candidates."""
    mode = os.environ.get("CYBE_BACKEND", "auto").strip().lower() or "auto"
    if mode not in ("auto", "numba", "numpy"):
        raise ValueError(f"CYBE_BACKEND must be auto, numba or numpy, got {mode!r}")
    if mode == "numba":
        if not HAS_NUMBA:
            raise RuntimeError("CYBE_BACKEND=numba but numba is not importable")
        return "numba"
    if mode == "numpy":
        return "numpy"
    if HAS_NUMBA and total >= AUTO_NUMBA_THRESHOLD:
        return "numba"
    return "numpy"


def constants_arrays(L):
    """Flatten L's nonzero structure constants to int64 residue arrays."""
    nz = L.nonzero_constants()
    ii = np.array([e[0] for e in nz], dtype=np.int64)
    jj = np.array([e[1] for e in nz], dtype=np.int64)
    mm = np.array([e[2] for e in nz], dtype=np.int64)
    vv = np.array([int(e[3]) for e in nz], dtype=np.int64)
    return ii, jj, mm, vv


@njit(cache=True, nogil=True)
def _scan_numba(lo, hi, n, p, ci, cj, cm, cv, out):  # pragma: no cover
    nn = n * n
    ne = ci.shape[0]
    k = np.empty((n, n), np.int64)
    for idx in range(lo, hi):
        rem = idx
        for pos in range(nn - 1, -1, -1):
            k[pos // n, pos % n] = rem % p
            rem //= p
        ok = True
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    acc = 0
                    for e in range(ne):
                        i = ci[e]
                        j = cj[e]
                        m = cm[e]
                        v = cv[e]
                        if m == a:
                            acc += v * k[i, b] * k[j, c]
                        if m == b:
                            acc += v * k[a, i] * k[j, c]
                        if m == c:
                            acc += v * k[a, i] * k[b, j]
                    if acc % p != 0:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        out[idx - lo] = 1 if ok else 0


def decode_grids(ids, n, p):
    """Vectorized id -> grid decode; returns int64 array (len(ids), n, n)."""
    ids = np.asarray(ids, dtype=np.int64)
    nn = n * n
    grids = np.empty((ids.shape[0], n, n), dtype=np.int64)
    rem = ids.copy()
    for pos in range(nn - 1, -1, -1):
        grids[:, pos // n, pos % n] = rem % p
        rem //= p
    return grids


def _scan_numpy(lo, hi, n, p, ci, cj, cm, cv, out, chunk=1 << 16):
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        g = decode_grids(np.arange(start, stop, dtype=np.int64), n, p)
        alive = np.ones(stop - start, dtype=bool)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    acc = np.zeros(stop - start, dtype=np.int64)
                    hit = False
                    for e in range(ci.shape[0]):
                        i, j, m, v = ci[e], cj[e], cm[e], cv[e]
                        if m == a:
                            acc += v * g[:, i, b] * g[:, j, c]
                            hit = True
                        if m == b:
                            acc += v * g[:, a, i] * g[:, j, c]
                            hit = True
                        if m == c:
                            acc += v * g[:, a, i] * g[:, b, j]
                            hit = True
                    if hit:
                        alive &= acc % p == 0
        out[start - lo:stop - lo] = alive
    return out


def scan_range(lo, hi, n, p, ci, cj, cm, cv, backend):
    """Mark CYBE solutions among ids [lo, hi); returns a uint8/bool mask."""
    out = np.zeros(hi - lo, dtype=np.uint8)
    if backend == "numba":
        _scan_numba(lo, hi, n, p, ci, cj, cm, cv, out)
    else:
        _scan_numpy(lo, hi, n, p, ci, cj, cm, cv, out)
    return out
