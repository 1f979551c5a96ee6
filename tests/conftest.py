"""Shared fixtures and the naive CYBE oracle.

`naive_residual` recomputes [r12, r13] + [r12, r23] + [r13, r23] straight
from the definition: place r's legs into the tensor cube, bracket the legs
that collide, expand through L.bracket.  It shares no code path with
cybe.solve (which uses a reindexed summation over the nonzero constants), so
agreement between the two is a real check, not a tautology.

`naive_adjoint_action`, `naive_cobracket`, `naive_coantisymmetry`,
`naive_cojacobi` and `naive_compatibility` are the bialgebra axioms written
out from their definitions through L.bracket, on Fraction/ModP scalars, in
the witness format of cybe.bialgebra: the second path for its integer
kernels.

`strongly_symmetric_by_definition` is the quantifier form of strong
symmetry, kept here as the reference for cybe.tensor.is_strongly_symmetric
(which tests the equivalent rank <= 1 condition through 2x2 minors).

`brute_force_solution_ids` is the reference for the enumeration engine: it
decodes every one of the p^(n*n) candidate ids and evaluates the whole
residual cube on int64 residues, with no pruning and no cell order.
"""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cybe import QQ, PrimeField, Tensor2


def naive_residual(L, r):
    """Dense n^3 residual grid by literal expansion of the three brackets."""
    n = L.n
    zero = L.field.zero()
    t = [[[zero] * n for _ in range(n)] for _ in range(n)]
    k = r.k
    for i in range(n):
        for j in range(n):
            kij = k[i][j]
            if not kij:
                continue
            for a in range(n):
                for b in range(n):
                    kab = k[a][b]
                    if not kab:
                        continue
                    coef = kij * kab
                    # [r12, r13]: legs 1 collide -> [e_i, e_a] (x) e_j (x) e_b
                    vec = L.c[i][a]
                    for m in range(n):
                        if vec[m]:
                            t[m][j][b] = t[m][j][b] + coef * vec[m]
                    # [r12, r23]: leg 2 of r12 meets leg 1 of r23
                    #   -> e_i (x) [e_j, e_a] (x) e_b
                    vec = L.c[j][a]
                    for m in range(n):
                        if vec[m]:
                            t[i][m][b] = t[i][m][b] + coef * vec[m]
                    # [r13, r23]: legs 3 collide -> e_i (x) e_a (x) [e_j, e_b]
                    vec = L.c[j][b]
                    for m in range(n):
                        if vec[m]:
                            t[i][a][m] = t[i][a][m] + coef * vec[m]
    return t


def naive_adjoint_action(L, x_coords, r):
    """x . r straight from the derivation rule, through L.bracket."""
    n = L.n
    zero = L.field.zero()
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            kij = r.k[i][j]
            if not kij:
                continue
            left = L.bracket(x_coords, L.basis_vector(i))
            for a in range(n):
                if left[a]:
                    out[a][j] = out[a][j] + kij * left[a]
            right = L.bracket(x_coords, L.basis_vector(j))
            for b in range(n):
                if right[b]:
                    out[i][b] = out[i][b] + kij * right[b]
    return Tensor2.from_rows(out, L.field)


def naive_cobracket(L, r):
    """[delta(e_1), ..., delta(e_n)] with delta(x) = x . r."""
    return [naive_adjoint_action(L, L.basis_vector(w), r) for w in range(L.n)]


def _nonzero(grid, n, rank):
    """((1-based cell, value), ...) of the nonzero cells of a dict grid."""
    return tuple((tuple(i + 1 for i in cell), grid[cell])
                 for cell in product(range(n), repeat=rank)
                 if cell in grid and grid[cell])


def naive_coantisymmetry(images):
    """1-based indices of the images that are not skew."""
    return tuple(w + 1 for w, img in enumerate(images)
                 if any(img.k[a][b] != -img.k[b][a]
                        for a, b in product(range(img.n), repeat=2)))


def naive_cojacobi(L, images):
    """((i, nonzero entries), ...) where (1 + xi + xi^2)(1 (x) delta)
    delta(e_i) is nonzero: each term e_a (x) e_c (x) e_d of the composite
    is moved to its two cyclic shifts e_c (x) e_d (x) e_a and
    e_d (x) e_a (x) e_c, with xi(x (x) y (x) z) = y (x) z (x) x."""
    n, zero = L.n, L.field.zero()
    witnesses = []
    for i in range(n):
        total = {}
        d_i = images[i].k
        for a, b in product(range(n), repeat=2):
            if not d_i[a][b]:
                continue
            for c, d in product(range(n), repeat=2):
                val = d_i[a][b] * images[b].k[c][d]
                for cell in ((a, c, d), (c, d, a), (d, a, c)):
                    total[cell] = total.get(cell, zero) + val
        entries = _nonzero(total, n, 3)
        if entries:
            witnesses.append((i + 1, entries))
    return tuple(witnesses)


def naive_compatibility(L, images):
    """(((i, j), nonzero entries), ...) where delta([e_i, e_j]) differs
    from e_i . delta(e_j) - e_j . delta(e_i)."""
    n, zero = L.n, L.field.zero()
    witnesses = []
    for i, j in product(range(n), repeat=2):
        ei, ej = L.basis_vector(i), L.basis_vector(j)
        bracket = L.bracket(ei, ej)
        right_ij = naive_adjoint_action(L, ei, images[j]).k
        right_ji = naive_adjoint_action(L, ej, images[i]).k
        diff = {}
        for a, b in product(range(n), repeat=2):
            left = zero
            for m in range(n):
                left = left + bracket[m] * images[m].k[a][b]
            diff[(a, b)] = left - right_ij[a][b] + right_ji[a][b]
        entries = _nonzero(diff, n, 2)
        if entries:
            witnesses.append(((i + 1, j + 1), entries))
    return tuple(witnesses)


def strongly_symmetric_by_definition(r):
    """Symmetric grid with k[i][j]k[l][m] = k[i][l]k[j][m] for every index
    quadruple, checked literally."""
    k = r.k
    rng = range(r.n)
    return all(k[i][j] == k[j][i] for i, j in product(rng, repeat=2)) and all(
        k[i][j] * k[l][m] == k[i][l] * k[j][m]
        for i, j, l, m in product(rng, repeat=4))


def residual_grids_equal(report, grid):
    n = report.residual.n
    return all(report.residual.t[a][b][c] == grid[a][b][c]
               for a in range(n) for b in range(n) for c in range(n))


def rand_fraction(rng, span=4):
    num = rng.randint(-span, span)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def rand_tensor(rng, n, field, span=4):
    if isinstance(field, PrimeField):
        rows = [[field.from_int(rng.randrange(field.p)) for _ in range(n)]
                for _ in range(n)]
    else:
        rows = [[rand_fraction(rng, span) for _ in range(n)]
                for _ in range(n)]
    return Tensor2.from_rows(rows, field)


@pytest.fixture
def rng():
    return random.Random(0xC1BE)


def all_tensors(n, field):
    """Every tensor over a prime field, candidate-id order."""
    p = field.p
    total = p ** (n * n)
    for idx in range(total):
        digits = []
        v = idx
        for _ in range(n * n):
            digits.append(v % p)
            v //= p
        digits.reverse()
        rows = [[field.from_int(digits[i * n + j]) for j in range(n)]
                for i in range(n)]
        yield Tensor2.from_rows(rows, field)


def constants_arrays(L):
    """L's nonzero structure constants as int64 residue arrays i, j, m, v."""
    nz = L.nonzero_constants()
    return tuple(np.array([int(e[col]) for e in nz], dtype=np.int64)
                 for col in range(4))


def decode_grids(ids, n, p):
    """Candidate ids -> int64 grids of shape (len(ids), n, n)."""
    ids = np.asarray(ids, dtype=np.int64)
    grids = np.empty((ids.shape[0], n, n), dtype=np.int64)
    rem = ids.copy()
    for pos in range(n * n - 1, -1, -1):
        grids[:, pos // n, pos % n] = rem % p
        rem //= p
    return grids


def decoded_tensors(ids, n, field):
    """The Tensor2 over the prime field of each candidate id, decoded by
    `decode_grids`: the reference for the id decoding of cybe."""
    return [Tensor2.from_rows([[field.from_int(int(v)) for v in row]
                               for row in grid], field)
            for grid in decode_grids(ids, n, field.p)]


def brute_force_solution_ids(L, chunk=1 << 16):
    """Every candidate id over GF(p) whose CYBE residual vanishes, ascending:
    all p^(n*n) grids, each residual cell summed over the constants."""
    n, p = L.n, L.field.p
    ci, cj, cm, cv = constants_arrays(L)
    total = p ** (n * n)
    found = []
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        g = decode_grids(ids, n, p)
        alive = np.ones(ids.shape[0], dtype=bool)
        for a, b, c in product(range(n), repeat=3):
            acc = np.zeros(ids.shape[0], dtype=np.int64)
            for i, j, m, v in zip(ci, cj, cm, cv):
                if m == a:
                    acc += v * g[:, i, b] * g[:, j, c]
                if m == b:
                    acc += v * g[:, a, i] * g[:, j, c]
                if m == c:
                    acc += v * g[:, a, i] * g[:, b, j]
            alive &= acc % p == 0
        found.append(ids[alive])
    return np.concatenate(found)
