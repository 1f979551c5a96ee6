"""The id encoding and the brute-force reference scan in conftest.

The reference (`brute_force_solution_ids`) is what tests/test_exhaustive.py
pins the enumeration engine to, so it is itself pinned here to the exact
scalar residual.
"""

import numpy as np

from cybe import (
    PrimeField,
    abelian,
    family_iii,
    family_ii,
    family_vi,
    is_cybe_solution,
    scan_solution_ids,
)
from cybe.exhaustive import decode_tensor, encode_tensor
from conftest import (
    all_tensors,
    brute_force_solution_ids,
    constants_arrays,
    decode_grids,
)

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_constants_arrays_shapes():
    L = family_ii(F3.from_int(1), F3.from_int(2), F3)
    ci, cj, cm, cv = constants_arrays(L)
    assert ci.dtype == cj.dtype == cm.dtype == cv.dtype == np.int64
    assert len(ci) == len(L.nonzero_constants()) == 6
    # values are residues of the ModP entries
    for e, (i, j, m, val) in enumerate(L.nonzero_constants()):
        assert (ci[e], cj[e], cm[e], cv[e]) == (i, j, m, int(val))


def test_encode_decode_round_trip():
    for field, n in ((F3, 2), (F5, 2), (F3, 3)):
        total = field.p ** (n * n)
        for idx in (0, 1, total // 2, total - 1):
            r = decode_tensor(idx, n, field)
            assert encode_tensor(r) == idx
    # entry (0,0) is the most significant digit
    r = decode_tensor(F3.p ** (2 * 2 - 1) * 2, 2, F3)
    assert int(r.entry(0, 0)) == 2 and r.entry(0, 1) == F3.zero()


def test_decode_grids_matches_decode_tensor():
    n, p = 2, 5
    ids = np.array([0, 1, 7, 23, 5**4 - 1], dtype=np.int64)
    grids = decode_grids(ids, n, p)
    field = PrimeField(p)
    for row, idx in enumerate(ids):
        r = decode_tensor(int(idx), n, field)
        for i in range(n):
            for j in range(n):
                assert grids[row, i, j] == int(r.entry(i, j))


def test_numpy_kernel_agrees_with_scalar_path():
    # the brute-force reference keeps exactly the ids the scalar path solves
    for L in (family_vi(F3), family_vi(F5), family_iii(F3)):
        ids = set(brute_force_solution_ids(L).tolist())
        for idx, r in enumerate(all_tensors(L.n, L.field)):
            assert (idx in ids) == is_cybe_solution(L, r), (L, idx)


def test_abelian_scan_keeps_everything():
    ids, engine = scan_solution_ids(abelian(2, F3))
    assert engine == "frontier"
    assert np.array_equal(ids, np.arange(81))
