"""The integer kernels of cybe_residual and of the bialgebra checks.

Every verdict and every witness value is compared with the naive oracles in
conftest, which expand the definitions through L.bracket on Fraction/ModP
scalars, so the lifting, the kernels and the scaling back are all checked
against a second path: rational grids whose entries have mixed
denominators, structure constants that are not integers (C > 1), prime
fields from F_3 to F_(2^61 - 1), and every dim-2 grid over F_3.

Up to FORMS_MAX_DIM the library evaluates the axioms and the label
conditions as integer forms compiled once per table; those are played here
against the kernels they are made from and against Condition.holds, on
every built-in table and on dim-4 ones, and the library's verdicts against
the oracles on a table that is not Lie, on tables above FORMS_MAX_DIM and
on one whose lifted constants have more digits than an int's str() allows.
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
    SideConditionError,
    SolutionLabel,
    Tensor2,
    UncoveredRegime,
    abelian,
    ad_action,
    bialgebra_check,
    check_coantisymmetry,
    check_cojacobi,
    check_compatibility,
    check_jacobi,
    classify_solution,
    cobracket,
    coboundary_predicate,
    cybe_residual,
    family_ii,
    family_iii,
    family_iv,
    family_v,
    family_vi,
    from_constants,
    generate_solution,
    is_alpha_beta_skew,
    is_skew_symmetric,
    is_strongly_symmetric,
    recognize_table,
    sl2,
    solvable_table,
    triangular_predicate,
)
from cybe.bialgebra import (
    _axiom_forms,
    _coantisymmetry_ints,
    _cojacobi_ints,
    _compatibility_ints,
    _images,
)
from cybe.solve import (
    ALPHA_BETA_SKEW,
    FORMS_MAX_DIM,
    GENERATORS,
    Coefficients,
    LabelRecord,
    _conditions,
    _int_constants,
    _RecordForms,
    regime_records,
    skew_record,
    strong_record,
)
from conftest import (
    all_tensors,
    naive_adjoint_action,
    naive_coantisymmetry,
    naive_cobracket,
    naive_cojacobi,
    naive_compatibility,
    naive_residual,
    strongly_symmetric_by_definition,
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


# the compiled forms


def _pairs(*brackets):
    """Antisymmetric constants from (i, j, m, value) with i < j."""
    return [e for i, j, m, v in brackets
            for e in ((i, j, m, v), (j, i, m, -v))]


def not_lie(field):
    """[e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e1+e2: antisymmetric, not Lie."""
    one = field.one()
    return from_constants(3, _pairs((0, 1, 2, one), (0, 2, 0, one),
                                    (1, 2, 0, one), (1, 2, 1, one)), field)


def sl2_plus_centre(field):
    """sl2 on e1, e2, e3 and a central e4: a non-abelian dim-4 Lie table."""
    return from_constants(4, sl2(field).nonzero_constants(), field)


def builtin_tables(field):
    """Every built-in family, the solvable table in each of its regimes,
    two dim-4 tables, and for QQ rational parameters and the table with
    C = 42."""
    s, f = field.from_int, Fraction
    tables = [abelian(2, field), abelian(3, field), abelian(4, field),
              sl2(field), sl2_plus_centre(field),
              family_ii(s(2), s(-3), field),
              family_ii(s(1), s(0), field, strict=False), family_iii(field),
              family_iv(s(0), s(3), field), family_iv(s(2), s(1), field),
              family_iv(s(1), s(3), field), family_v(field),
              family_vi(field), not_lie(field)]
    if field is QQ:
        tables += [family_ii(f(1, 2), f(-3, 4)), family_iv(f(0), f(2, 5)),
                   family_iv(f(2, 3), f(1)), rational_tables()[-1]]
    return tables


def zero_heavy(rng, field):
    """A random scalar that is zero more often than not."""
    if rng.random() < 0.6:
        return field.zero()
    return rand_rational(rng) if field is QQ else rand_residue(rng, field)


def sample_grids(rng, L, count):
    """Random grids, strong, skew and sparse ones, and the closed-form
    generators' solutions on L with sparse parameters, so that labels
    come out both ways."""
    field = L.field
    grids = [rand_grid(rng, L, lambda: zero_heavy(rng, field))
             for _ in range(count)]
    grids += [Tensor2.from_rows([[zero_heavy(rng, field)
                                  for _ in range(L.n)] for _ in range(L.n)],
                                field) for _ in range(count)]
    for case, gen in GENERATORS.items():
        for _ in range(3):
            params = {name: zero_heavy(rng, field) for name in gen.params}
            try:
                grids.append(generate_solution(L, case, params))
            except (SideConditionError, ZeroDivisionError):
                pass
    return grids


FORM_FIELDS = [QQ, PrimeField(7), PrimeField(101)]


@pytest.mark.parametrize("field", FORM_FIELDS, ids=repr)
def test_axiom_forms_equal_the_kernels(field):
    # each compiled form is the kernel's output entry on every lifted grid
    rng = random.Random(repr(field))
    for L in builtin_tables(field):
        n = L.n
        consts, _ = _int_constants(L)
        forms = _axiom_forms(L)
        for r in sample_grids(rng, L, 8):
            k, d = field.lift([v for row in r.k for v in row])
            imgs = _images(n, consts, k)
            kernels = (_coantisymmetry_ints(n, imgs), _cojacobi_ints(n, imgs),
                       _compatibility_ints(n, consts, imgs))
            for compiled, ints in zip(forms, kernels):
                want = field.reduce(ints)
                got = compiled.flat(field, k, d)
                assert got == (want if any(want) else None), (L, r)


def test_compatibility_forms_vanish_exactly_on_lie_tables():
    # x . r is a cocycle for every r exactly when ad is a representation
    for field in FORM_FIELDS:
        for L in builtin_tables(field):
            assert (not _axiom_forms(L)[2].slots) == (not check_jacobi(L)), L


@pytest.mark.parametrize("field", FORM_FIELDS, ids=repr)
def test_label_forms_equal_the_conditions(field):
    # classify_solution and the symmetry predicates against the records'
    # Condition.holds on exact scalars
    rng = random.Random(repr(field) + "labels")
    hits = set()
    for L in builtin_tables(field):
        table = recognize_table(L)
        for r in sample_grids(rng, L, 12):
            c = Coefficients(L.n, r.k, field, table[1:])
            try:
                want = {rec.label for rec in regime_records(L, table)
                        if rec.holds(c)}
            except UncoveredRegime:
                with pytest.raises(UncoveredRegime):
                    classify_solution(L, r)
            else:
                assert classify_solution(L, r) == want, (L, r)
                hits |= want
            assert is_strongly_symmetric(r) == strong_record(L.n).holds(r)
            assert is_skew_symmetric(r) == skew_record(L.n).holds(r)
            if L.n == 3:
                for alpha, beta in ((table.alpha, table.beta),
                                    (field.from_int(2), field.from_int(-1))):
                    if alpha is None:
                        continue
                    c = Coefficients(3, r.k, field, (alpha, beta, None))
                    assert (is_alpha_beta_skew(r, alpha, beta)
                            == ALPHA_BETA_SKEW.holds(c)), (L, r)
    assert set(SolutionLabel) - {SolutionLabel.HEISENBERG_CASE1} <= hits


def test_inhomogeneous_conditions_scale_with_the_grid():
    # x = 1 reads 1 against the grid's denominator D: the form X - D on
    # the lifted entry X = D x, zero exactly where x = 1
    rec = LabelRecord(SolutionLabel.ABELIAN, _conditions("x = 1"),
                      _conditions("p^2 + q = 2, z - 1 != 0"), "")
    forms = _RecordForms.of((rec,), 3, (None, None, None))
    f = Fraction
    seen = set()
    for x, p, q, z, t in product((f(1), f(1, 2), f(2), f(0)),
                                 (f(1), f(1, 2), f(0)),
                                 (f(1), f(7, 4), f(2)),
                                 (f(1), f(1, 3), f(0)),
                                 (f(0), f(1, 5))):
        r = Tensor2.from_rows([[x, p, f(0)], [q, f(0), f(0)], [t, f(0), z]],
                              QQ)
        k, d = QQ.lift([v for row in r.k for v in row])
        got = bool(forms.labels(QQ, k, d))
        assert got == rec.holds(r), (x, p, q, z, t)
        seen.add(got)
    assert seen == {True, False}


def test_compatibility_on_a_table_that_is_not_lie():
    # a cobracket x . r is a cocycle only on a Lie table; here compatibility
    # keeps its forms and fails on a skew r, as the oracle finds
    L = not_lie(QQ)
    one = QQ.one()
    r = Tensor2.from_rows([[0 * one, one, one], [-one, 0 * one, one],
                           [-one, -one, 0 * one]], QQ)
    report = bialgebra_check(L, r)
    assert len(report.witnesses["compatibility"]) == 6
    assert_matches_oracles(L, r)
    rng = random.Random(0x401)
    for field in (QQ, PrimeField(7)):
        L = not_lie(field)
        for _ in range(20):
            assert_matches_oracles(L, rand_grid(
                rng, L, lambda: zero_heavy(rng, field)))


def test_kernels_match_oracles_above_forms_max_dim():
    # sl2 + a centre in dim 4, the first dimension past the forms, and
    # sl2 + VI in dim 5: the kernels and Condition.holds run, not forms
    assert FORMS_MAX_DIM == 3
    rng = random.Random(0x5)
    for field in (QQ, PrimeField(101)):
        one, four = field.one(), field.from_int(4)
        sl2_vi = from_constants(5, _pairs(
            (0, 1, 2, one), (1, 2, 0, four), (0, 2, 1, four),
            (3, 4, 3, one)), field)
        for L in (sl2_plus_centre(field), sl2_vi):
            n = L.n
            assert not check_jacobi(L)
            for _ in range(6):
                r = rand_grid(rng, L, lambda: zero_heavy(rng, field))
                assert_matches_oracles(L, r)
                assert (is_strongly_symmetric(r)
                        == strongly_symmetric_by_definition(r))
                assert is_skew_symmetric(r) == all(
                    r.k[i][j] == -r.k[j][i]
                    for i in range(n) for j in range(n))
                with pytest.raises(UncoveredRegime):
                    classify_solution(L, r)
        for flat in (abelian(4, field), abelian(5, field)):
            for _ in range(6):
                r = rand_grid(rng, flat, lambda: zero_heavy(rng, field))
                want = {SolutionLabel.ABELIAN}
                if strongly_symmetric_by_definition(r):
                    want.add(SolutionLabel.STRONGLY_SYMMETRIC)
                if is_skew_symmetric(r):
                    want.add(SolutionLabel.SKEW_SYMMETRIC)
                assert classify_solution(flat, r) == want


def test_kernels_match_oracles_past_the_int_str_limit():
    # the II table with alpha = 1/3^4700 and beta = -1/7^2700: each
    # constant prints, but their common denominator C has over 4,500
    # digits, so the lifted constants, and the forms' coefficients, have
    # no str(); the forms bind them as values
    f = Fraction
    alpha, beta = f(1, 3 ** 4700), f(-1, 7 ** 2700)
    L = from_constants(3, _pairs((0, 1, 2, f(1)), (1, 2, 0, alpha),
                                 (0, 2, 1, -beta)), QQ, label="big")
    _, scale = _int_constants(L)
    assert scale > 10 ** 4400
    assert recognize_table(L).kind == "ii"
    rng = random.Random(0x4300)
    for r in dict.fromkeys(sample_grids(rng, L, 2)):   # each grid once
        assert_matches_oracles(L, r)
        table = recognize_table(L)
        c = Coefficients(3, r.k, QQ, table[1:])
        assert classify_solution(L, r) == {
            rec.label for rec in regime_records(L, table) if rec.holds(c)}


@pytest.mark.parametrize("check", [
    check_coantisymmetry, check_cojacobi,
    lambda delta: check_compatibility(sl2(QQ), delta)],
    ids=["coantisymmetry", "cojacobi", "compatibility"])
def test_checks_refuse_a_malformed_cobracket(check):
    # images of another dimension, or too few of them: the kernels would
    # slice and index past them
    w = _skew(2, QQ)
    for n, images in ((3, (w, w, w)), (2, (w,))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            check(Cobracket(n, images))
