"""The integer kernels of cybe_residual and of the bialgebra checks.

Every verdict and every witness value is compared with the naive oracles in
conftest, which expand the definitions through L.bracket on Fraction/ModP
scalars, so the lifting, the kernels and the scaling back are all checked
against a second path: rational grids whose entries have mixed
denominators, structure constants that are not integers (C > 1), prime
fields from F_3 to F_(2^61 - 1), and every dim-2 grid over F_3.

Up to FORMS_MAX_DIM the library evaluates the axioms and the label
conditions as integer forms, compiled once per table and once per label
record; those are played here against the kernels they are made from and
against Condition.holds, on every built-in table and on dim-4 ones, and
the library's verdicts against the oracles on a table that is not Lie, on
tables above FORMS_MAX_DIM and on one whose lifted constants have more
digits than an int's str() allows.
"""

import gc
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from cybe import (
    QQ,
    Cobracket,
    FieldError,
    LieAlgebra,
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
    symmetry_flags,
    triangular_predicate,
    verify_classification,
)
from cybe.bialgebra import (
    _axiom_forms,
    _axiom_ints,
    _coantisymmetry_ints,
    _cojacobi_ints,
    _compatibility_ints,
    _images,
)
from cybe.solve import (
    ALPHA_BETA_SKEW,
    FORMS_MAX_DIM,
    GENERATORS,
    SKEW,
    STRONG,
    Coefficients,
    LabelRecord,
    _cell_polys,
    _conditions,
    _equations,
    _int_constants,
    _record_forms,
    _reduced,
    _residual_ints,
    _straight_line,
    _verdict,
    regime_records,
)
from cybe import bialgebra, solve
from cybe.cli import _bialgebra_entry, _check_entry
from cybe.tensor import NAMED_CELLS
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
    # the compiled forms return every output entry of the kernels, run one
    # by one or together, on every lifted grid
    rng = random.Random(repr(field))
    for L in builtin_tables(field):
        n = L.n
        consts, _ = _int_constants(L)
        forms = _axiom_forms(L)
        for r in sample_grids(rng, L, 8):
            k, _ = field.lift([v for row in r.k for v in row])
            imgs = _images(n, consts, k)
            kernels = (_coantisymmetry_ints(n, imgs) + _cojacobi_ints(n, imgs)
                       + _compatibility_ints(n, consts, imgs)
                       + _residual_ints(n, consts, k))
            want = field.reduce(kernels)
            assert want == field.reduce(_axiom_ints(n, consts, k)), (L, r)
            assert list(field.reduce(forms(k))) == want, (L, r)


def test_axiom_forms_are_compiled_once_per_table(monkeypatch):
    # a caller rotating bialgebra_check over nine tables finds each one's
    # axioms compiled on the second round
    compiled = []

    def counted(forms, real=bialgebra._straight_line):
        compiled.append(len(forms))
        return real(forms)
    monkeypatch.setattr(bialgebra, "_straight_line", counted)
    tables = [family_ii(alpha, 1, QQ) for alpha in range(1, 10)]
    r = Tensor2.from_entries(3, QQ, {(0, 1): Fraction(1),
                                     (1, 0): Fraction(-1)})
    want = [bialgebra_check(L, r) for L in tables]
    assert len(compiled) == 9
    assert [bialgebra_check(L, r) for L in tables] == want
    assert len(compiled) == 9


def test_label_predicates_are_compiled_once_per_table(monkeypatch):
    # each table keeps its regime's compiled predicates, so a caller
    # rotating classify_solution over ten II tables, more than
    # `_record_forms` keeps, compiles nothing on the second round
    compiled = []

    def counted(forms, real=solve._straight_line):
        compiled.append(len(forms))
        return real(forms)
    monkeypatch.setattr(solve, "_straight_line", counted)
    rng = random.Random(0x57)
    tables = [family_ii(Fraction(alpha), Fraction(1)) for alpha in range(1, 11)]
    grids = [(L, sample_grids(rng, L, 2)) for L in tables]
    want = [[classify_solution(L, r) for r in rs] for L, rs in grids]
    assert compiled
    del compiled[:]
    assert [[classify_solution(L, Tensor2(r.n, r.k, r.field)) for r in rs]
            for L, rs in grids] == want
    assert not compiled


def test_derived_state_lives_as_long_as_its_table():
    # what the checks derive from a table is kept on the table alone, so
    # once the caller drops it no cache keeps it, or its compiled forms,
    # alive
    label = "II(alpha=1, beta=2) over F_3, dropped"
    F3 = PrimeField(3)

    def alive():
        gc.collect()
        return [obj for obj in gc.get_objects()
                if isinstance(obj, LieAlgebra) and obj.label == label]

    L = LieAlgebra(3, family_ii(1, 2, F3).c, F3, label)
    r = generate_solution(L, "alpha-beta-skew", {"s": 1, "u": 1})
    table = recognize_table(L)
    assert table.kind == "ii"
    assert classify_solution(L, r) == {SolutionLabel.ALPHA_BETA_SKEW}
    assert symmetry_flags(r, table.alpha, table.beta)["alpha_beta_skew"]
    assert bialgebra_check(L, r).is_triangular
    assert coboundary_predicate(L, r) and triangular_predicate(L, r)
    assert verify_classification(L).confirmed
    assert len(alive()) == 1
    del L
    assert not alive()


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
def test_abelian_bialgebra_verdicts_read_no_form(monkeypatch, field):
    # every axiom form of an abelian table vanishes identically, so
    # bialgebra_check neither runs nor scans them: all verdicts are true
    # and no axiom has a witness
    scanned = []
    for name in ("_axiom_forms", "_axiom_ints", "_witnesses",
                 "_coantisymmetry_failures"):
        monkeypatch.setattr(bialgebra, name,
                            lambda *args, name=name: scanned.append(name))
    L = abelian(3, field)
    for r in sample_grids(random.Random(0x47), L, 4):
        b = bialgebra_check(L, r)
        assert b.is_coboundary and b.is_triangular and b.cybe_solution, r
        assert b.witnesses == {"coantisymmetry": (), "cojacobi": (),
                               "compatibility": ()}
    assert not scanned
    with pytest.raises(ValueError, match="dimension mismatch"):
        bialgebra_check(abelian(2, field), r)


def test_compatibility_forms_vanish_exactly_on_lie_tables():
    # x . r is a cocycle for every r exactly when ad is a representation
    for field in FORM_FIELDS:
        for L in builtin_tables(field):
            n = L.n
            consts, _ = _int_constants(L)
            comp = _compatibility_ints(n, consts, _images(n, consts,
                                                          _cell_polys(n)))
            assert (not any(_reduced(comp, field))) == (not check_jacobi(L)), L


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
            assert is_strongly_symmetric(r) == STRONG.holds(r)
            assert is_skew_symmetric(r) == SKEW.holds(r)
            if L.n == 3:
                for alpha, beta in ((table.alpha, table.beta),
                                    (field.from_int(2), field.from_int(-1))):
                    if alpha is None:
                        continue
                    c = Coefficients(3, r.k, field, (alpha, beta, None))
                    assert (is_alpha_beta_skew(r, alpha, beta)
                            == ALPHA_BETA_SKEW.holds(c)), (L, r)
    assert set(SolutionLabel) - {SolutionLabel.HEISENBERG_CASE1} <= hits


def test_inhomogeneous_conditions_are_refused():
    # every compiled form is read on a grid lifted over its denominator D,
    # which scales a form of degree g by D^g: one whose monomials differ in
    # degree would be miscompiled over Q, so it is refused
    for text in ("x = 1", "p^2 + q = 2", "xy = z"):
        rec = LabelRecord(SolutionLabel.ABELIAN, _conditions(text), "")
        with pytest.raises(ValueError, match="not homogeneous"):
            _record_forms(rec, 3, (None, None, None), QQ)


def test_straight_line_names_a_monomial_after_its_prefix():
    # xyz is computed from its prefix xy, which needs a name of its own
    run = _straight_line([{(0, 1, 2): 1}, {(0, 1): 1}])
    assert run([2, 3, 5]) == (30, 6)
    rec = LabelRecord(SolutionLabel.ABELIAN, _conditions("xyz = 0, xy = 0"),
                      "")
    holds = _record_forms(rec, 3, (None, None, None), QQ)
    for diag in ((2, 3, 0), (2, 0, 5), (0, 0, 0)):
        r = Tensor2.from_rows([[Fraction(v if i == j else 0)
                                for j, v in enumerate(diag)]
                               for i in range(3)], QQ)
        assert holds(r.lifted()[0]) == rec.holds(r), diag


def test_dimension_records_are_compiled_once_per_dimension():
    # the abelian regime's records read no parameter, so a second abelian
    # table of the same dimension and field finds them compiled
    rng = random.Random(0xAB)
    r = rand_grid(rng, abelian(3, QQ), lambda: zero_heavy(rng, QQ))
    want = classify_solution(abelian(3, QQ), r)
    misses = _record_forms.cache_info().misses
    assert classify_solution(abelian(3, QQ), r) == want
    assert _record_forms.cache_info().misses == misses


def test_a_vanishing_nonzero_condition_never_holds():
    # p - p != 0 vanishes identically: the record's compiled predicate
    # holds on no grid, as its Condition.holds says
    rec = LabelRecord(SolutionLabel.ABELIAN, _conditions("p - p != 0"),
                      "p - p != 0")
    rng = random.Random(0x99)
    for field in (QQ, PrimeField(5)):
        for n in (2, 3):
            holds = _record_forms(rec, n, (None, None, None), field)
            L = abelian(n, field)
            for _ in range(6):
                r = rand_grid(rng, L, lambda: zero_heavy(rng, field))
                c = Coefficients(n, r.k, field, (None, None, None))
                assert not holds(r.lifted()[0])
                assert not _verdict(rec, r) and not rec.holds(c)


def test_a_form_that_vanishes_identically_reads_zero():
    # such a form keeps its place among the values, as the literal 0
    assert _straight_line([{}, {(0,): 1}])([5]) == (0, 5)
    assert _straight_line([0, {(0,): -1}, {}])([5]) == (0, -5, 0)


def test_a_vanishing_condition_keeps_the_others_in_place():
    # p - p = 0 compiles to the literal 0, which the record's x != 0 must
    # not be read in place of
    rec = LabelRecord(SolutionLabel.ABELIAN, _conditions("p - p = 0, x != 0"),
                      "x != 0")
    rng = random.Random(0x98)
    for field in (QQ, PrimeField(5)):
        for n in (2, 3):
            L = abelian(n, field)
            held = set()
            for r in sample_grids(rng, L, 6):
                c = Coefficients(n, r.k, field, (None, None, None))
                assert _verdict(rec, r) == rec.holds(c), (field, r)
                held.add(rec.holds(c))
            assert held == {True, False}, (field, n)


def test_a_record_is_compiled_once_for_the_parameters_it_names():
    # the strong record names no parameter, so classify_solution (which
    # passes the table's alpha, beta) and is_strongly_symmetric (which
    # passes none) share it: strong, alpha,beta-skew and skew, 3 compiles
    alpha, beta = Fraction(2, 3), Fraction(-2, 3)
    L = family_ii(alpha, beta)
    r = generate_solution(L, "alpha-beta-skew", {"s": 1, "u": 1})
    _record_forms.cache_clear()
    labels = classify_solution(L, r)
    flags = symmetry_flags(r, alpha, beta)
    assert _record_forms.cache_info().misses == 3
    assert labels == {SolutionLabel.ALPHA_BETA_SKEW}
    assert flags == {"strongly_symmetric": False, "skew_symmetric": True,
                     "alpha_beta_skew": True}


def test_large_abelian_tables_keep_the_dim3_grid_records():
    # each dimension has one grid record, and records above FORMS_MAX_DIM
    # are never compiled, so classifying abelian tables in dims 5..13 (two
    # grid records each) keeps STRONG's dim-3 forms, and the next dim-3
    # check finds them
    vec = [Fraction(1), Fraction(2), Fraction(0)]
    r3 = Tensor2.from_rows([[a * b for b in vec] for a in vec], QQ)
    assert is_strongly_symmetric(r3)
    kept = STRONG
    misses = _record_forms.cache_info().misses
    for n in range(5, 14):
        r = Tensor2.from_entries(n, QQ, {(0, 1): Fraction(1)})
        assert SolutionLabel.ABELIAN in classify_solution(abelian(n, QQ), r)
    assert STRONG is kept
    assert is_strongly_symmetric(r3)
    assert _record_forms.cache_info().misses == misses


def test_one_grid_record_for_every_dimension():
    # strong and skew symmetry are one record each, read in every
    # dimension through their kernels: they keep no condition list, which
    # in dim 40 would hold 305,370 conditions of strong symmetry
    for rec, label in ((STRONG, SolutionLabel.STRONGLY_SYMMETRIC),
                       (SKEW, SolutionLabel.SKEW_SYMMETRIC)):
        assert rec.label is label and rec.kernel is not None
        assert rec.conditions == () and rec.names == (False, False, False)
    L = abelian(40, QQ)
    assert regime_records(L, recognize_table(L))[1:] == (STRONG, SKEW)
    r = Tensor2.from_entries(40, QQ, {(0, 1): Fraction(1)})
    assert classify_solution(L, r) == {SolutionLabel.ABELIAN}


@pytest.mark.parametrize("text, want, grids", [
    ("x = y + z", lambda x, y, z, p, u, v: x - (y + z),
     (({"x": 3, "y": 1, "z": 2}, True), ({"x": 1, "y": 1, "z": 2}, False))),
    ("p^2 = xy - uv", lambda x, y, z, p, u, v: p * p - (x * y - u * v),
     (({"p": 1, "x": 1, "y": 2, "u": 1, "v": 1}, True),
      ({"p": 1, "x": 1, "y": 2, "u": -1, "v": 1}, False))),
])
def test_an_equation_reads_as_lhs_minus_the_whole_rhs(text, want, grids):
    # a compound right side is subtracted as a whole: x = y + z is
    # x - (y + z) = 0, which x - y + z = 0 would miss on the first grid
    (cond,) = _conditions(text)
    cells = _cell_polys(3)
    polys = [cells[(i - 1) * 3 + j - 1] for i, j in
             (NAMED_CELLS[name] for name in "xyzpuv")]
    rec = LabelRecord(SolutionLabel.ABELIAN, (cond,), "")
    assert _equations(rec, 3, (None, None, None)) == ([want(*polys)], [False])
    for vals, holds in grids:
        r = Tensor2.from_entries(3, QQ, {
            (i - 1, j - 1): Fraction(vals[name])
            for name, (i, j) in NAMED_CELLS.items() if name in vals})
        c = Coefficients(3, r.k, QQ, (None, None, None))
        assert cond.holds(c) == holds, vals


def test_a_product_drops_the_monomials_that_cancel():
    # (k0 + k1)(k0 - k1): the two k0 k1 terms cancel, and no zero
    # coefficient is stored in their place
    k0, k1 = _cell_polys(2)[:2]
    assert (k0 + k1) * (k0 - k1) == {(0, 0): 1, (1, 1): -1}


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
    # sl2 + VI in dim 5: the kernels run, not forms
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


def test_verdicts_above_forms_max_dim_touch_no_scalars(monkeypatch):
    # above FORMS_MAX_DIM a verdict is a record's kernel on the lifted
    # grid: with the scalar view of the conditions refused, the labels and
    # the symmetry predicates still agree with the definitions, on
    # rank-1 and rank-2 symmetric, skew, zero and random grids
    def refuse(*args):
        raise AssertionError("a verdict built a Coefficients view")

    monkeypatch.setattr(solve, "Coefficients", refuse)
    rng = random.Random(0x456)
    seen = set()
    for field in (QQ, PrimeField(7)):
        def vector(n):
            return [zero_heavy(rng, field) for _ in range(n)]

        for n in (4, 5, 6):
            L = abelian(n, field)
            u, v, a, b = vector(n), vector(n), vector(n), vector(n)
            grids = [[[x * y for y in u] for x in u],
                     [[x * y + z * w for y, w in zip(u, v)]
                      for x, z in zip(u, v)],
                     [[x * y - z * w for y, w in zip(b, a)]
                      for x, z in zip(a, b)],
                     [[field.zero()] * n for _ in range(n)],
                     [vector(n) for _ in range(n)]]
            for rows in grids:
                r = Tensor2.from_rows(rows, field)
                strong = strongly_symmetric_by_definition(r)
                skew = all(r.k[i][j] + r.k[j][i] == 0
                           for i in range(n) for j in range(n))
                want = {SolutionLabel.ABELIAN}
                if strong:
                    want.add(SolutionLabel.STRONGLY_SYMMETRIC)
                if skew:
                    want.add(SolutionLabel.SKEW_SYMMETRIC)
                assert classify_solution(L, r) == want, (L, r)
                assert is_strongly_symmetric(r) == strong, r
                assert is_skew_symmetric(r) == skew, r
                seen.add((strong, skew))
    assert len(seen) == 4
    # a record with conditions has no kernel to read there, and refuses
    rec = LabelRecord(SolutionLabel.ABELIAN, _conditions("p = 0"), "")
    r = Tensor2.from_entries(4, QQ, {(0, 1): Fraction(1)})
    with pytest.raises(ValueError, match="no kernel"):
        _verdict(rec, r)


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


def test_tables_whose_parameters_have_no_str():
    # alpha = beta = 1/10^4400 print past the int-to-str limit: recognition
    # and classification never print them, an uncovered solvable table with
    # such a beta still raises UncoveredRegime, and family_iv builds it
    f = Fraction
    tiny = f(1, 10 ** 4400)
    L = from_constants(3, _pairs((0, 1, 2, f(1)), (1, 2, 0, tiny),
                                 (0, 2, 1, -tiny)), QQ)
    table = recognize_table(L)
    assert table == ("ii", tiny, tiny, None)
    rng = random.Random(0x4400)
    for r in dict.fromkeys(sample_grids(rng, L, 2)):
        c = Coefficients(3, r.k, QQ, table[1:])
        assert classify_solution(L, r) == {
            rec.label for rec in regime_records(L, table) if rec.holds(c)}
    S = from_constants(3, _pairs((0, 2, 0, f(1)), (0, 2, 1, tiny),
                                 (1, 2, 1, f(2))), QQ)
    assert recognize_table(S) == ("solvable", None, tiny, f(2))
    with pytest.raises(UncoveredRegime, match=r"beta=\.\.\., delta=2 "):
        regime_records(S, recognize_table(S))
    zero = Tensor2.from_rows([[f(0)] * 3] * 3, QQ)
    for check in (classify_solution, triangular_predicate):
        with pytest.raises(UncoveredRegime):
            check(S, zero)
    assert family_iv(tiny, 2, QQ).c == S.c


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


def test_each_record_is_evaluated_once_per_tensor(monkeypatch):
    # check reads strong and skew symmetry (and alpha,beta-skew on a dim-3
    # table with alpha, beta) for its symmetry flags, and the regime's
    # records, strong symmetry and alpha,beta-skew among them, for its
    # labels; bialgebra reads skew symmetry for the closed form's
    # applicability and again in each closed form.  Each record is decided
    # once per tensor, on the compiled forms and above FORMS_MAX_DIM alike
    rng = random.Random(0x51)
    cases = [(L, sample_grids(rng, L, 3))
             for field in (QQ, PrimeField(7))
             for L in builtin_tables(field) + [abelian(5, field)]]
    seen, kept = Counter(), []    # tensors equal by value: keyed by id

    def counted(record, r, *how):
        seen[record, id(r)] += 1
        return evaluate(record, r, *how)

    evaluate = solve._evaluate

    monkeypatch.setattr(solve, "_evaluate", counted)
    for L, grids in cases:
        table = recognize_table(L)
        want = {STRONG, SKEW}
        if L.n == 3 and table.alpha is not None:
            want.add(ALPHA_BETA_SKEW)
        try:
            want.update(regime_records(L, table))
        except UncoveredRegime:
            pass
        for r in grids:
            _check_entry(L, r, table)
            assert {rec for rec, t in seen if t == id(r)} == want, (L, r)
            fresh = Tensor2(r.n, r.k, r.field)
            kept.append(fresh)
            _bialgebra_entry(L, fresh, table)
            assert {rec for rec, t in seen if t == id(fresh)} == {
                SKEW}, (L, r)
            _bialgebra_entry(L, r, table)
    assert seen and set(seen.values()) == {1}

