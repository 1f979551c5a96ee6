from fractions import Fraction
from itertools import product

import pytest

from cybe import (
    QQ,
    PrimeField,
    Tensor2,
    UncoveredRegime,
    abelian,
    ad_action,
    bialgebra_check,
    check_coantisymmetry,
    check_cojacobi,
    check_compatibility,
    cobracket,
    coboundary_predicate,
    family_ii,
    family_iii,
    family_iv,
    family_v,
    family_vi,
    from_constants,
    is_skew_symmetric,
    sl2,
    solvable_table,
    triangular_predicate,
)
from conftest import all_tensors, naive_adjoint_action, rand_tensor

F3 = PrimeField(3)
F5 = PrimeField(5)


def bialgebra_tables():
    return [family_vi(), family_vi(F5), sl2(QQ), family_iii(),
            family_ii(Fraction(1), Fraction(-2)),
            family_ii(Fraction(1), Fraction(0), strict=False),
            family_iv(Fraction(0), Fraction(2)),
            family_iv(Fraction(2), Fraction(1)),
            family_iv(Fraction(1), Fraction(-2)),
            family_v(), abelian(3),
            solvable_table(F3.from_int(1), F3.from_int(0), F3)]


def rand_vector(rng, L):
    if isinstance(L.field, PrimeField):
        return [L.field.from_int(rng.randrange(L.field.p)) for _ in range(L.n)]
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(L.n)]


def test_ad_action_matches_derivation_rule(rng):
    for L in bialgebra_tables():
        for _ in range(25):
            x = rand_vector(rng, L)
            r = rand_tensor(rng, L.n, L.field)
            assert ad_action(L, x, r) == naive_adjoint_action(L, x, r), (L, x)


def test_ad_action_dimension_guard():
    with pytest.raises(ValueError, match="dimension"):
        ad_action(sl2(QQ), [QQ.one()] * 2, Tensor2.from_entries(3, QQ, {}))
    with pytest.raises(ValueError, match="dimension"):
        ad_action(sl2(QQ), [QQ.one()] * 3, Tensor2.from_entries(2, QQ, {}))
    with pytest.raises(ValueError, match="dimension"):
        cobracket(sl2(QQ), Tensor2.from_entries(3, QQ, {})).of_vector(
            [QQ.one()] * 2)


def test_cobracket_images_and_linearity(rng):
    L = sl2(QQ)
    r = rand_tensor(rng, 3, QQ)
    delta = cobracket(L, r)
    assert delta.n == 3
    for i in range(3):
        coords = [QQ.zero()] * 3
        coords[i] = QQ.one()
        assert delta.images[i] == ad_action(L, coords, r)
    # of_vector is the linear extension
    x = rand_vector(rng, L)
    assert delta.of_vector(x) == ad_action(L, x, r)


def test_cobracket_on_abelian_is_zero(rng):
    L = abelian(3)
    delta = cobracket(L, rand_tensor(rng, 3, QQ))
    assert all(delta.images[i].is_zero() for i in range(3))
    report = bialgebra_check(L, rand_tensor(rng, 3, QQ))
    assert report.is_coboundary and report.is_triangular


def test_compatibility_always_holds_for_cobrackets(rng):
    # delta = x . r is a 1-cocycle by construction, for ANY r: this is the
    # structural fact the compatibility axiom reduces to.  500 trials.
    tables = bialgebra_tables()
    trials = 0
    while trials < 500:
        for L in tables:
            r = rand_tensor(rng, L.n, L.field)
            ok, wit = check_compatibility(L, cobracket(L, r))
            assert ok and wit == ()
            trials += 1


def test_zero_tensor_is_trivially_triangular():
    for L in bialgebra_tables():
        report = bialgebra_check(L, Tensor2.from_entries(L.n, L.field, {}))
        assert report.is_coboundary and report.is_triangular
        assert report.cybe_solution


# the dim-2 table: bialgebra iff skew, and then always triangular


def test_dim2_coboundary_iff_skew_exhaustive_f3_f5():
    for field in (F3, F5):
        L = family_vi(field)
        for r in all_tensors(2, field):
            report = bialgebra_check(L, r)
            skew = is_skew_symmetric(r)
            assert report.is_coboundary == skew, r
            assert report.is_triangular == skew, r
            if skew:
                assert report.cybe_solution


def test_dim2_rational_spot_checks():
    L = family_vi()
    for p in (Fraction(0), Fraction(3), Fraction(-1, 2)):
        r = Tensor2.from_entries(2, QQ, {(0, 1): p, (1, 0): -p})
        report = bialgebra_check(L, r)
        assert report.is_triangular
        assert coboundary_predicate(L, r) and triangular_predicate(L, r)
    # a strong non-skew solution solves the CYBE but breaks coantisymmetry
    r = Tensor2.from_entries(2, QQ, {(0, 0): QQ.one()})
    report = bialgebra_check(L, r)
    assert report.cybe_solution and not report.coantisymmetry_ok
    assert not report.is_coboundary and not report.is_triangular


# closed forms against the axiom checker


def skew3(field, p, s, u):
    return Tensor2.from_rows(
        [[field.zero(), p, s],
         [-p, field.zero(), u],
         [-s, -u, field.zero()]], field)


def test_sl2_closed_forms_match_checker():
    L = sl2(QQ)
    vals = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    hits = 0
    for p, s, u in product(vals, repeat=3):
        r = skew3(QQ, p, s, u)
        report = bialgebra_check(L, r)
        assert report.is_coboundary           # every skew r, this table
        assert coboundary_predicate(L, r)
        want_tri = not (Fraction(-4) * s * s + Fraction(4) * u * u + p * p)
        assert report.is_triangular == want_tri
        assert triangular_predicate(L, r) == want_tri
        hits += want_tri
    assert hits > 1    # the quadric has nontrivial points in this box


def test_heisenberg_closed_forms_match_checker():
    L = family_iii()
    vals = [Fraction(v) for v in (-1, 0, 1, 2)]
    for p, s, u in product(vals, repeat=3):
        r = skew3(QQ, p, s, u)
        report = bialgebra_check(L, r)
        assert report.is_coboundary
        # alpha = beta = 0 kills the quadric down to p^2
        want_tri = not p
        assert report.is_triangular == want_tri
        assert triangular_predicate(L, r) == want_tri


def test_solvable_closed_forms_match_checker():
    vals = [Fraction(v) for v in (-1, 0, 1, 2)]
    one = QQ.one()
    for beta, delta in product((Fraction(0), Fraction(1), Fraction(2)),
                               (Fraction(0), Fraction(1), Fraction(2))):
        L = solvable_table(beta, delta)
        for p, s, u in product(vals, repeat=3):
            r = skew3(QQ, p, s, u)
            report = bialgebra_check(L, r)
            want_cob = not ((delta + one) * ((delta - one) * u + beta * s) * s)
            assert report.is_coboundary == want_cob, (beta, delta, p, s, u)
            assert coboundary_predicate(L, r) == want_cob
            if not beta:
                want_tri = want_cob and not ((one - delta) * u * s)
                assert triangular_predicate(L, r) == (not ((one - delta) * u * s))
                assert report.is_triangular == want_tri
            elif delta == one:
                assert triangular_predicate(L, r) == (not s)
                assert report.is_triangular == (want_cob and not s)
            else:
                with pytest.raises(UncoveredRegime):
                    triangular_predicate(L, r)


def test_solvable_closed_forms_mod_p():
    for field in (F3, F5):
        one = field.one()
        scal = [field.from_int(v) for v in range(field.p)]
        for beta in scal[:2]:
            for delta in scal:
                L = solvable_table(beta, delta, field)
                for p, s, u in product(scal, repeat=3):
                    r = skew3(field, p, s, u)
                    want = not ((delta + one) * ((delta - one) * u + beta * s) * s)
                    assert bialgebra_check(L, r).is_coboundary == want
                    assert coboundary_predicate(L, r) == want


def test_coboundary_formula_equals_its_expanded_form():
    # (delta+1)((delta-1)u + beta s)s == delta^2 us + delta beta s^2
    #                                    + beta s^2 - us, pointwise
    vals = [Fraction(v, d) for v in range(-3, 4) for d in (1, 2)]
    for beta, delta, s, u in product(vals[:8], vals[:8], vals, vals):
        lhs = (delta + 1) * ((delta - 1) * u + beta * s) * s
        rhs = (delta * delta * u * s + delta * beta * s * s
               + beta * s * s - u * s)
        assert lhs == rhs


def test_noncoboundary_witness_structure():
    # beta=0, delta=2: cocycle fails co-Jacobi or coantisymmetry when us != 0
    L = family_iv(Fraction(0), Fraction(2))
    r = skew3(QQ, Fraction(0), Fraction(1), Fraction(1))
    report = bialgebra_check(L, r)
    assert not report.is_coboundary and not report.is_triangular
    assert not coboundary_predicate(L, r)
    # compatibility still holds (it always does for a cobracket)
    assert report.compatibility_ok
    failing = [name for name, ok in (
        ("coantisymmetry", report.coantisymmetry_ok),
        ("cojacobi", report.cojacobi_ok)) if not ok]
    assert failing
    for name in failing:
        wit = report.witnesses[name]
        assert wit
        if name == "cojacobi":
            for i, entries in wit:
                assert 1 <= i <= 3
                for (a, b, c), v in entries:
                    assert v and all(1 <= t <= 3 for t in (a, b, c))
        else:
            assert all(1 <= i <= 3 for i in wit)


def test_witness_indices_for_broken_coantisymmetry():
    L = family_vi()
    r = Tensor2.from_entries(2, QQ, {(1, 1): QQ.one()})   # y=1
    delta = cobracket(L, r)
    ok, bad = check_coantisymmetry(delta)
    assert not ok and bad == (1,)    # delta(e1) = e1 (x) e2 + e2 (x) e1
    img = delta.images[0]
    assert img.k[0][1] == QQ.one() and img.k[1][0] == QQ.one()


def test_cojacobi_checker_on_a_handmade_failure():
    # delta(e1) = e1 ^ e2, delta(e2) = e2 ^ e3, delta(e3) = 0: composing
    # them puts e1 (x) e2 (x) e3 and -e1 (x) e3 (x) e2 in different cyclic
    # orbits, so the cyclic sum cannot cancel
    from cybe import Cobracket
    one = QQ.one()
    w12 = Tensor2.from_entries(3, QQ, {(0, 1): one, (1, 0): -one})
    w23 = Tensor2.from_entries(3, QQ, {(1, 2): one, (2, 1): -one})
    delta = Cobracket(3, (w12, w23, Tensor2.from_entries(3, QQ, {})))
    ok, wit = check_cojacobi(delta)
    assert not ok
    assert [i for i, _ in wit] == [1]
    entries = dict(wit)[1]
    assert ((1, 2, 3), one) in entries


# scope errors


def test_closed_forms_reject_non_skew():
    L = sl2(QQ)
    r = Tensor2.from_entries(3, QQ, {(0, 0): QQ.one()})
    with pytest.raises(ValueError, match="skew"):
        coboundary_predicate(L, r)
    with pytest.raises(ValueError, match="skew"):
        triangular_predicate(L, r)


def test_closed_forms_uncovered_regimes():
    r = skew3(QQ, Fraction(1), Fraction(0), Fraction(0))
    for L in (abelian(3),
              family_ii(Fraction(1), Fraction(0), strict=False),
              family_ii(Fraction(0), Fraction(1), strict=False)):
        with pytest.raises(UncoveredRegime):
            coboundary_predicate(L, r)
        with pytest.raises(UncoveredRegime):
            triangular_predicate(L, r)
    one = QQ.one()
    foreign = from_constants(3, [(0, 1, 0, one), (1, 0, 0, -one)], QQ)
    with pytest.raises(UncoveredRegime, match="no closed form"):
        coboundary_predicate(foreign, r)
    # solvable beta != 0, delta != 1: coboundary is covered, triangular not
    L = family_iv(Fraction(1), Fraction(2))
    assert coboundary_predicate(L, skew3(QQ, one, QQ.zero(), QQ.zero()))
    with pytest.raises(UncoveredRegime, match="triangular"):
        triangular_predicate(L, skew3(QQ, one, QQ.zero(), QQ.zero()))
