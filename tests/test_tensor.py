import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybe import (
    QQ,
    FieldError,
    PrimeField,
    Tensor2,
    Tensor3,
    change_basis,
    cycle_xi,
    is_alpha_beta_skew,
    is_skew_symmetric,
    is_strongly_symmetric,
    symmetry_flags,
    twist_tau,
)
from cybe.tensor import determinant
from conftest import (
    all_tensors,
    rand_fraction,
    rand_tensor,
    strongly_symmetric_by_definition,
)

F3 = PrimeField(3)
F5 = PrimeField(5)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def grid_strategy(n):
    return st.lists(
        st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Tensor2.from_rows(rows, QQ))


def cube_strategy(n):
    zeros = tuple(tuple(tuple(QQ.zero() for _ in range(n)) for _ in range(n))
                  for _ in range(n))
    cell = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1), fracs
    )
    def fill(cells):
        t = [[list(row) for row in plane] for plane in zeros]
        for i, j, m, val in cells:
            t[i][j][m] = val
        return Tensor3(n, tuple(tuple(tuple(r) for r in p) for p in t), QQ)
    return st.lists(cell, max_size=12).map(fill)


@given(grid_strategy(3))
def test_twist_is_an_involution(r):
    assert twist_tau(twist_tau(r)) == r


@given(grid_strategy(2))
def test_twist_is_an_involution_dim2(r):
    assert twist_tau(twist_tau(r)) == r


@given(cube_strategy(3))
def test_cycle_has_order_three(t):
    assert cycle_xi(cycle_xi(cycle_xi(t))) == t


def test_cycle_transport_on_a_single_cell():
    # e_1 (x) e_2 (x) e_3 -> e_2 (x) e_3 (x) e_1
    z = QQ.zero()
    t = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    t[0][1][2] = QQ.one()
    cube = Tensor3(3, tuple(tuple(tuple(r) for r in p) for p in t), QQ)
    moved = cycle_xi(cube)
    assert moved.entries() == [((1, 2, 0), QQ.one())]
    moved = cycle_xi(moved)
    assert moved.entries() == [((2, 0, 1), QQ.one())]


def test_twist_transposes():
    r = Tensor2.from_rows([[1, 2], [3, 4]], QQ)
    assert twist_tau(r).k == ((1, 3), (2, 4))


# strong symmetry: the label record (symmetry and 2x2 minors) must agree
# with the quantifier form


@pytest.mark.parametrize("n", [2, 3])
def test_strong_symmetry_matches_definition_exhaustive_f3(n):
    for r in all_tensors(n, F3):
        want = strongly_symmetric_by_definition(r)
        assert is_strongly_symmetric(r) == want, r


def test_strong_symmetry_matches_definition_sampled(rng):
    # random grids land on the negative branch with overwhelming odds, so
    # feed the positive branch rank-one grids and near misses explicitly,
    # over both fields and past the dimensions the exhaustive test reaches
    # (two-digit indices included)
    for n, field in product((1, 2, 3, 4, 11), (QQ, F5)):
        count = 5 if n == 11 else 50
        def scalar():
            if field is QQ:
                return rand_fraction(rng)
            return field.from_int(rng.randrange(5))
        for _ in range(2 * count):
            r = rand_tensor(rng, n, field)
            assert is_strongly_symmetric(r) == \
                strongly_symmetric_by_definition(r), r
        for _ in range(count):
            v = [scalar() for _ in range(n)]
            rows = [[a * b for b in v] for a in v]
            r = Tensor2.from_rows(rows, field)
            assert is_strongly_symmetric(r)
            assert strongly_symmetric_by_definition(r)
            # poke one cell: agreement must survive the perturbation
            bumped = [list(row) for row in rows]
            i, j = rng.randrange(n), rng.randrange(n)
            bumped[i][j] = bumped[i][j] + field.one()
            r = Tensor2.from_rows(bumped, field)
            assert is_strongly_symmetric(r) == \
                strongly_symmetric_by_definition(r), r


def test_reduced_strong_symmetry_sampled_dim3(rng):
    # the dim-3 F_3 sample: random grids, rank-one grids and near misses
    for _ in range(400):
        r = rand_tensor(rng, 3, F3)
        assert is_strongly_symmetric(r) == strongly_symmetric_by_definition(r)
    one = F3.one()
    for _ in range(100):
        v = [F3.from_int(rng.randrange(3)) for _ in range(3)]
        rows = [[a * b for b in v] for a in v]
        r = Tensor2.from_rows(rows, F3)
        assert is_strongly_symmetric(r) and strongly_symmetric_by_definition(r)
        # poke one off-diagonal cell: agreement must survive the perturbation
        bumped = [list(row) for row in rows]
        bumped[0][1] = bumped[0][1] + one
        r = Tensor2.from_rows(bumped, F3)
        assert is_strongly_symmetric(r) == strongly_symmetric_by_definition(r)


def test_reduced_strong_symmetry_rank_one_grids(rng):
    # v (x) v is strongly symmetric for every vector v, over both fields
    for field in (QQ, F5):
        for _ in range(50):
            if field is QQ:
                v = [rand_fraction(rng) for _ in range(3)]
            else:
                v = [field.from_int(rng.randrange(5)) for _ in range(3)]
            rows = [[a * b for b in v] for a in v]
            r = Tensor2.from_rows(rows, field)
            assert is_strongly_symmetric(r)
            assert strongly_symmetric_by_definition(r)


def test_strong_symmetry_needs_symmetry():
    r = Tensor2.from_rows([[0, 1], [0, 0]], QQ)
    assert not is_strongly_symmetric(r)
    assert not strongly_symmetric_by_definition(r)


def test_rank_two_symmetric_grid_is_not_strong():
    r = Tensor2.from_rows([[1, 0], [0, 1]], QQ)
    assert twist_tau(r) == r
    assert not is_strongly_symmetric(r)


# skew and alpha,beta-skew


def test_skew_predicate():
    r = Tensor2.from_rows([[0, 2], [-2, 0]], QQ)
    assert is_skew_symmetric(r)
    assert not is_skew_symmetric(Tensor2.from_rows([[1, 0], [0, 0]], QQ))


def test_skew_requires_zero_diagonal_even_mod_p():
    one = F3.one()
    r = Tensor2.from_entries(2, F3, {(0, 0): one})
    assert not is_skew_symmetric(r)


def test_alpha_beta_skew_examples():
    a, b = Fraction(4), Fraction(-4)   # the sl2 values
    z = QQ.zero()
    # p = 2s with u = 0, z = 0: 16 s^2?  pick the quadric directly:
    # b s^2 + a u^2 + p^2 = -4 s^2 + 4 u^2 + p^2 = 0 at (p,s,u)=(0,1,1)
    r = Tensor2.from_rows(
        [[z, z, 1], [z, z, 1], [-1, -1, z]], QQ
    )
    assert is_alpha_beta_skew(r, a, b)
    r = Tensor2.from_rows(
        [[z, z, 1], [z, z, z], [-1, z, z]], QQ
    )
    assert not is_alpha_beta_skew(r, a, b)   # -4 s^2 = -4 != 0
    with pytest.raises(ValueError):
        is_alpha_beta_skew(Tensor2.from_entries(2, QQ, {}), a, b)


def test_alpha_beta_skew_with_nonzero_z():
    # alpha=1, beta=-1: quadric -z^2 - s^2 + u^2 + p^2, zero at z=u=1, s=p=0
    one = QQ.one()
    r = Tensor2.from_entries(
        3, QQ, {(0, 0): one, (1, 1): -one, (2, 2): one, (1, 2): one, (2, 1): -one}
    )
    assert is_alpha_beta_skew(r, Fraction(1), Fraction(-1))


def test_symmetry_flags_shape():
    r = Tensor2.from_entries(3, QQ, {})
    flags = symmetry_flags(r)
    assert flags == {"strongly_symmetric": True, "skew_symmetric": True}
    flags = symmetry_flags(r, alpha=Fraction(1), beta=Fraction(1))
    assert flags["alpha_beta_skew"] is True
    # alpha/beta ignored off dimension 3
    assert "alpha_beta_skew" not in symmetry_flags(
        Tensor2.from_entries(2, QQ, {}), alpha=Fraction(1), beta=Fraction(1)
    )


def test_alpha_beta_skew_takes_parameters_through_the_field():
    # ints go through from_int, r's own scalars as they are; a scalar of
    # another field is refused rather than mixed into the arithmetic
    F5 = PrimeField(5)
    zero = Tensor2.from_entries(3, F5, {})
    for check in (lambda a, b: is_alpha_beta_skew(zero, a, b),
                  lambda a, b: symmetry_flags(zero, a, b)):
        with pytest.raises(FieldError):
            check(Fraction(1), Fraction(2))
        with pytest.raises(FieldError):
            check(F5.one(), PrimeField(7).one())
    rng = random.Random(33)
    for field in (F5, QQ):
        for _ in range(60):
            a, b = rng.randrange(-6, 7), rng.randrange(-6, 7)
            z, s, u, p = (field.from_int(rng.randrange(-2, 3))
                          for _ in range(4))
            r = Tensor2.from_rows([[field.from_int(a) * z, p, s],
                                   [-p, field.from_int(b) * z, u],
                                   [-s, -u, z]], field)
            assert (is_alpha_beta_skew(r, a, b) == is_alpha_beta_skew(
                r, field.from_int(a), field.from_int(b)))
            assert symmetry_flags(r, a, b) == symmetry_flags(
                r, field.from_int(a), field.from_int(b))


# change of basis


def invertible_grid(rng, n, field):
    while True:
        if field is QQ:
            rows = [[rand_fraction(rng, 3) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[field.from_int(rng.randrange(field.p)) for _ in range(n)]
                    for _ in range(n)]
        if determinant(rows, field):
            return rows


def test_change_basis_rejects_singular():
    r = Tensor2.from_entries(2, QQ, {})
    with pytest.raises(ValueError, match="singular"):
        change_basis(r, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="2x2"):
        change_basis(r, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_change_basis_identity_and_composition(rng):
    r = rand_tensor(rng, 3, QQ)
    ident = [[QQ.one() if i == j else QQ.zero() for j in range(3)] for i in range(3)]
    assert change_basis(r, ident) == r


def test_change_basis_scaling_squares():
    one = QQ.one()
    r = Tensor2.from_entries(2, QQ, {(0, 1): one})
    two = [[2 * one, QQ.zero()], [QQ.zero(), 2 * one]]
    assert change_basis(r, two).k[0][1] == 4 * one


def test_strong_symmetry_survives_any_basis_change(rng):
    # congruence k -> Q k Q^T keeps both symmetry and the rank bound, so
    # strong symmetry is basis independent; 200 random invertible changes
    for field in (QQ, F5):
        for _ in range(100):
            n = rng.choice([2, 3])
            if field is QQ:
                v = [rand_fraction(rng) for _ in range(n)]
            else:
                v = [field.from_int(rng.randrange(field.p)) for _ in range(n)]
            r = Tensor2.from_rows([[a * b for b in v] for a in v], field)
            q = invertible_grid(rng, n, field)
            assert is_strongly_symmetric(change_basis(r, q))


def test_skewness_survives_any_basis_change(rng):
    one = QQ.one()
    r = Tensor2.from_entries(3, QQ, {(0, 1): one, (1, 0): -one, (0, 2): 2 * one,
                                     (2, 0): -2 * one})
    for _ in range(50):
        q = invertible_grid(rng, 3, QQ)
        assert is_skew_symmetric(change_basis(r, q))


def test_determinant_matches_cofactor_expansion(rng):
    for _ in range(60):
        rows = [[rand_fraction(rng, 3) for _ in range(3)] for _ in range(3)]
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        want = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert determinant(rows, QQ) == want


def test_change_basis_on_a_dim_12_grid(rng):
    # q = lower * upper, both unitriangular, so det q = 1; elimination
    # decides it in O(n^3), where the expansion over 12! permutations
    # would run for hours
    n, one, zero = 12, QQ.one(), QQ.zero()
    lower = [[one if i == j else rand_fraction(rng, 3) if j < i else zero
              for j in range(n)] for i in range(n)]
    upper = [list(col) for col in zip(*lower)]
    q = [[sum((lower[i][m] * upper[m][j] for m in range(n)), zero)
          for j in range(n)] for i in range(n)]
    r = rand_tensor(rng, n, QQ)
    start = time.perf_counter()
    assert determinant(q, QQ) == one
    got = change_basis(r, q)
    assert time.perf_counter() - start < 2.0
    assert got.k == tuple(tuple(
        sum((r.k[i][j] * q[s][i] * q[t][j]
             for i in range(n) for j in range(n)), zero)
        for t in range(n)) for s in range(n))
    singular = q[:-1] + [[a + b for a, b in zip(q[0], q[1])]]
    with pytest.raises(ValueError, match="singular"):
        change_basis(r, singular)


# plain container behaviour


def test_tensor2_algebra():
    r = Tensor2.from_rows([[1, 2], [3, 4]], QQ)
    s = Tensor2.from_rows([[4, 3], [2, 1]], QQ)
    assert r != s and r == Tensor2.from_rows([[1, 2], [3, 4]], QQ)
    assert hash(r) == hash(Tensor2.from_rows([[1, 2], [3, 4]], QQ))
    assert r.entries()[0] == ((0, 0), 1)
    assert "k[1][2]=2" in repr(r)
    assert repr(Tensor2.from_entries(2, QQ, {})) == "Tensor2(0)"


def test_tensor3_algebra():
    t = [[[QQ.zero()] * 2 for _ in range(2)] for _ in range(2)]
    z = Tensor3(2, tuple(tuple(tuple(r) for r in p) for p in t), QQ)
    assert z.is_zero() and repr(z) == "Tensor3(0)"
    t[1][0][1] = Fraction(7)
    cube = Tensor3(2, tuple(tuple(tuple(r) for r in p) for p in t), QQ)
    assert cube != z and cube == Tensor3(2, cube.t, QQ)
    assert cube.entries() == [((1, 0, 1), Fraction(7))]
    assert cube.t[1][0][1] == 7
    assert "t[2][1][2]=7" in repr(cube)
    assert hash(Tensor3(2, cube.t, QQ)) == hash(cube)


def test_named_view_matches_grid():
    r = Tensor2.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]], QQ)
    assert (r.x, r.y, r.z) == (1, 5, 9)
    assert (r.p, r.q) == (2, 4)
    assert (r.s, r.t) == (3, 7)
    assert (r.u, r.v) == (6, 8)


def test_named_view_guards_dimension():
    r = Tensor2.from_rows([[1, 2], [3, 4]], QQ)
    assert (r.x, r.y, r.p, r.q) == (1, 4, 2, 3)    # these exist in dim 2
    for name in ("z", "s", "t", "u", "v"):
        with pytest.raises(ValueError, match="dimension 3"):
            getattr(r, name)


def test_from_entries_defaults_to_zero():
    r = Tensor2.from_entries(3, QQ, {(2, 1): Fraction(5)})
    assert r.entries() == [((2, 1), Fraction(5))]
    assert r.k[0][0] == QQ.zero()
