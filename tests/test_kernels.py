"""The integer kernels of cybe_residual and of the bialgebra checks.

Every verdict and every witness value is compared with the naive oracles in
conftest, which expand the definitions through L.bracket on Fraction/ModP
scalars, so the lifting, the kernels and the scaling back are all checked
against a second path: rational grids whose entries have mixed
denominators, structure constants that are not integers (C > 1), prime
fields from F_3 to F_(2^61 - 1), and every dim-2 grid over F_3.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from cybe import (
    QQ,
    Cobracket,
    FieldError,
    PrimeField,
    Tensor2,
    abelian,
    ad_action,
    bialgebra_check,
    check_coantisymmetry,
    check_cojacobi,
    check_compatibility,
    classify_solution,
    cobracket,
    coboundary_predicate,
    cybe_residual,
    family_ii,
    family_iii,
    family_vi,
    from_constants,
    sl2,
    solvable_table,
    triangular_predicate,
)
from conftest import (
    all_tensors,
    naive_adjoint_action,
    naive_coantisymmetry,
    naive_cobracket,
    naive_cojacobi,
    naive_compatibility,
    naive_residual,
)

DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 7, 9, 12)


def scalars_of(field, values):
    return all(field.contains(v) for v in values)


def assert_matches_oracles(L, r):
    n, field = L.n, L.field
    grid = naive_residual(L, r)
    want = tuple(((a + 1, b + 1, c + 1), grid[a][b][c])
                 for a, b, c in product(range(n), repeat=3) if grid[a][b][c])
    res = cybe_residual(L, r)
    assert res.nonzero_entries == want and res.is_zero == (not want)
    assert all(res.residual.t[a][b][c] == grid[a][b][c]
               for a, b, c in product(range(n), repeat=3))
    assert scalars_of(field, [v for _, v in res.nonzero_entries])

    images = naive_cobracket(L, r)
    co = naive_coantisymmetry(images)
    jac = naive_cojacobi(L, images)
    comp = naive_compatibility(L, images)
    rep = bialgebra_check(L, r)
    assert rep.witnesses == {"coantisymmetry": co, "cojacobi": jac,
                             "compatibility": comp}
    assert (rep.coantisymmetry_ok, rep.cojacobi_ok, rep.compatibility_ok,
            rep.cybe_solution) == (not co, not jac, not comp, not want)
    assert scalars_of(field, [v for _, entries in jac + comp
                              for _, v in entries])

    # the public checks on a Cobracket lift its images themselves
    delta = cobracket(L, r)
    assert list(delta.images) == images
    assert scalars_of(field, [v for img in delta.images
                              for row in img.k for v in row])
    assert check_coantisymmetry(delta) == (not co, co)
    assert check_cojacobi(delta) == (not jac, jac)
    assert check_compatibility(L, delta) == (not comp, comp)


def rand_rational(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def rand_residue(rng, field):
    if rng.random() < 0.3:
        return field.zero()
    return field.from_int(rng.randrange(field.p))


def rand_grid(rng, L, scalar):
    """A random grid, a rank-one symmetric one (a solution on every table)
    or a skew one, in turn."""
    n, kind = L.n, rng.randrange(3)
    if kind == 0:
        rows = [[scalar() for _ in range(n)] for _ in range(n)]
    elif kind == 1:
        vec = [scalar() for _ in range(n)]
        rows = [[a * b for b in vec] for a in vec]
    else:
        rows = [[L.field.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = scalar()
                rows[j][i] = -rows[i][j]
    return Tensor2.from_rows(rows, L.field)


def rational_tables():
    f = Fraction
    # [e1,e2] = 1/2 e3, [e2,e3] = 2/3 e1, [e3,e1] = -5/7 e2: a Lie table
    # whose constants have common denominator C = 42
    scaled = from_constants(3, [
        (0, 1, 2, f(1, 2)), (1, 0, 2, f(-1, 2)),
        (1, 2, 0, f(2, 3)), (2, 1, 0, f(-2, 3)),
        (2, 0, 1, f(-5, 7)), (0, 2, 1, f(5, 7))], QQ, label="custom")
    return [sl2(QQ), family_iii(QQ), family_vi(QQ),
            family_ii(f(1, 2), f(-3, 4)), solvable_table(f(1, 3), f(2, 5)),
            scaled]


def prime_tables(field, rng):
    def nonzero():
        return field.from_int(rng.randrange(1, field.p))
    return [sl2(field), family_iii(field), family_vi(field),
            family_ii(nonzero(), nonzero(), field),
            solvable_table(nonzero(), nonzero(), field),
            solvable_table(field.zero(), field.zero(), field)]


def test_kernels_match_oracles_rational_mixed_denominators():
    rng = random.Random(0x1D2)
    for L in rational_tables():
        for _ in range(40):
            assert_matches_oracles(L, rand_grid(rng, L,
                                                lambda: rand_rational(rng)))


@pytest.mark.parametrize("p", [3, 101, 2 ** 61 - 1])
def test_kernels_match_oracles_prime_fields(p):
    rng = random.Random(p)
    field = PrimeField(p)
    for L in prime_tables(field, rng):
        for _ in range(40):
            assert_matches_oracles(L, rand_grid(
                rng, L, lambda: rand_residue(rng, field)))


def test_kernels_match_oracles_every_dim2_grid_f3():
    F3 = PrimeField(3)
    two = F3.from_int(2)
    custom = from_constants(2, [(0, 1, 0, F3.one()), (0, 1, 1, two),
                                (1, 0, 0, -F3.one()), (1, 0, 1, -two)], F3)
    for L in (family_vi(F3), abelian(2, F3), custom):
        for r in all_tensors(2, F3):
            assert_matches_oracles(L, r)


def test_ad_action_lifts_the_vector_too():
    # x with its own denominators, on constants with C > 1
    rng = random.Random(7)
    for L in rational_tables():
        for _ in range(20):
            x = [rand_rational(rng) for _ in range(L.n)]
            r = rand_grid(rng, L, lambda: rand_rational(rng))
            got = ad_action(L, x, r)
            assert got == naive_adjoint_action(L, x, r)
            assert scalars_of(QQ, [v for row in got.k for v in row])


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(101)],
                         ids=repr)
def test_checks_on_arbitrary_cobrackets(field):
    # images not of the form x . r, so compatibility fails too
    rng = random.Random(11)
    if field is QQ:
        tables, scalar = rational_tables(), lambda: rand_rational(rng)
    else:
        tables = prime_tables(field, rng)
        scalar = lambda: rand_residue(rng, field)
    failed = 0
    for L in tables:
        for _ in range(15):
            images = [rand_grid(rng, L, scalar) for _ in range(L.n)]
            delta = Cobracket(L.n, tuple(images))
            co = naive_coantisymmetry(images)
            jac = naive_cojacobi(L, images)
            comp = naive_compatibility(L, images)
            assert check_coantisymmetry(delta) == (not co, co)
            assert check_cojacobi(delta) == (not jac, jac)
            assert check_compatibility(L, delta) == (not comp, comp)
            assert scalars_of(field, [v for _, entries in jac + comp
                                      for _, v in entries])
            failed += bool(comp)
    assert failed


def test_kernels_refuse_mixed_fields():
    # lifting would reduce a foreign scalar silently, so it is refused
    F3, F5 = PrimeField(3), PrimeField(5)
    r3 = Tensor2.from_rows([[F3.one()] * 3] * 3, F3)
    rq = Tensor2.from_rows([[Fraction(1, 2)] * 3] * 3, QQ)
    for L, r in ((sl2(F5), r3), (sl2(F5), rq), (sl2(QQ), r3)):
        for check in (cybe_residual, bialgebra_check, cobracket):
            with pytest.raises(FieldError):
                check(L, r)
    delta = cobracket(sl2(QQ), rq)
    with pytest.raises(FieldError):
        check_compatibility(sl2(F5), delta)
    r5 = Tensor2.from_rows([[F5.one()] * 3] * 3, F5)
    mixed = Cobracket(3, (rq, rq, r5))
    for check in (check_coantisymmetry, check_cojacobi):
        with pytest.raises(FieldError):
            check(mixed)


def _skew(n, field):
    one = field.one()
    return Tensor2.from_entries(n, field, {(0, 1): one, (1, 0): -one})


_DIM2_DELTA = cobracket(family_vi(QQ), _skew(2, QQ))


@pytest.mark.parametrize("check, L, x, error, match", [
    (classify_solution, family_vi(QQ), _skew(3, QQ),
     ValueError, "dimension mismatch: algebra 2, tensor 3"),
    (coboundary_predicate, sl2(QQ), _skew(2, QQ),
     ValueError, "dimension mismatch: algebra 3, tensor 2"),
    (triangular_predicate, sl2(QQ), _skew(2, QQ),
     ValueError, "dimension mismatch: algebra 3, tensor 2"),
    (classify_solution, sl2(QQ), _skew(3, PrimeField(5)),
     FieldError, r"tensor over GF\(5\), algebra over"),
    (coboundary_predicate, sl2(QQ), _skew(3, PrimeField(5)),
     FieldError, r"tensor over GF\(5\), algebra over"),
    (triangular_predicate, sl2(QQ), _skew(3, PrimeField(5)),
     FieldError, r"tensor over GF\(5\), algebra over"),
    (check_compatibility, abelian(1, QQ), _DIM2_DELTA,
     ValueError, "dimension mismatch: algebra 1, cobracket 2"),
    (check_compatibility, sl2(QQ), _DIM2_DELTA,
     ValueError, "dimension mismatch: algebra 3, cobracket 2"),
], ids=["classify-dim", "coboundary-dim", "triangular-dim",
        "classify-field", "coboundary-field", "triangular-field",
        "compatibility-dim1", "compatibility-dim3"])
def test_public_checks_refuse_another_space(check, L, x, error, match):
    # the int kernels would index past a smaller grid, read part of a
    # larger one, or reduce a foreign scalar, so each check refuses first
    with pytest.raises(error, match=match):
        check(L, x)
