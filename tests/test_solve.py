from fractions import Fraction

import pytest

from cybe import (
    QQ,
    PrimeField,
    SideConditionError,
    SolutionLabel,
    Tensor2,
    UncoveredRegime,
    abelian,
    classify_solution,
    cybe_residual,
    family_ii,
    family_iii,
    family_iv,
    family_v,
    family_vi,
    from_constants,
    generate_solution,
    is_cybe_solution,
    recognize_table,
    sl2,
    solvable_table,
)
from cybe.solve import regime_records
from conftest import naive_residual, rand_fraction, rand_tensor, residual_grids_equal
from transcribed import family_equations, solvable_zero_cells

F3 = PrimeField(3)
F5 = PrimeField(5)


def residual_tables():
    out = [abelian(2), abelian(3), family_vi(), family_vi(F5),
           family_iii(), sl2(QQ), family_v(),
           family_ii(Fraction(2), Fraction(-3)),
           family_ii(Fraction(1), Fraction(0), strict=False),
           family_iv(Fraction(1), Fraction(2)),
           family_iv(Fraction(-2), Fraction(1)),
           solvable_table(F5.from_int(2), F5.from_int(2), F5),
           family_ii(F3.from_int(1), F3.from_int(1), F3)]
    return out


def test_residual_matches_naive_expansion(rng):
    for L in residual_tables():
        field = L.field
        for _ in range(40):
            r = rand_tensor(rng, L.n, field)
            report = cybe_residual(L, r)
            assert residual_grids_equal(report, naive_residual(L, r)), (L, r)


def test_residual_report_fields():
    L = family_vi()
    one = QQ.one()
    r = Tensor2.from_entries(2, QQ, {(0, 0): one})   # x=1: a strong solution
    report = cybe_residual(L, r)
    assert report.is_zero and report.nonzero_entries == ()
    # the identity grid is symmetric of rank 2: not a solution here
    r = Tensor2.from_entries(2, QQ, {(0, 0): one, (1, 1): one})
    report = cybe_residual(L, r)
    assert not report.is_zero
    assert report.nonzero_entries      # ((1-based cell), value) pairs
    for (a, b, c), value in report.nonzero_entries:
        assert 1 <= a <= 2 and 1 <= b <= 2 and 1 <= c <= 2
        assert report.residual.t[a - 1][b - 1][c - 1] == value and value
    assert not is_cybe_solution(L, r)


def test_zero_tensor_always_solves(rng):
    for L in residual_tables():
        assert is_cybe_solution(L, Tensor2.from_entries(L.n, L.field, {}))


def test_strongly_symmetric_solves_every_table(rng):
    # rank-one symmetric grids solve the equation on any of these tables
    for L in residual_tables():
        field = L.field
        for _ in range(20):
            if isinstance(field, PrimeField):
                vec = [field.from_int(rng.randrange(field.p))
                       for _ in range(L.n)]
            else:
                vec = [rand_fraction(rng) for _ in range(L.n)]
            r = Tensor2.from_rows([[a * b for b in vec] for a in vec], field)
            assert is_cybe_solution(L, r), (L, vec)


# table recognition


def _fields(table):
    return table.kind, table.alpha, table.beta, table.delta


def test_recognize_builders():
    b, d = F3.from_int(2), F3.from_int(1)
    for L, want in [
            (abelian(3), ("abelian", None, None, None)),
            (abelian(1), ("abelian", None, None, None)),
            (family_vi(), ("vi", None, None, None)),
            (family_vi(F3), ("vi", None, None, None)),
            (sl2(QQ), ("ii", Fraction(4), Fraction(-4), None)),
            (family_iii(), ("ii", 0, 0, None)),
            (family_ii(Fraction(2), Fraction(5)),
             ("ii", Fraction(2), Fraction(5), None)),
            (family_v(), ("solvable", None, 0, 0)),
            (family_iv(Fraction(3), Fraction(2)),
             ("solvable", None, Fraction(3), Fraction(2))),
            (solvable_table(b, d, F3), ("solvable", None, b, d))]:
        assert _fields(recognize_table(L)) == want, L


def test_recognize_structural_copy_of_sl2():
    one = QQ.one()
    four = QQ.from_int(4)
    L = from_constants(3, [
        (0, 1, 2, one), (1, 0, 2, -one),
        (1, 2, 0, four), (2, 1, 0, -four),
        (2, 0, 1, -four), (0, 2, 1, four),
    ], QQ)
    assert _fields(recognize_table(L)) == ("ii", four, -four, None)


def test_recognize_rejects_foreign_tables():
    one = QQ.one()
    # [e1,e2] = e1 is a Lie algebra but none of the named tables
    L = from_constants(3, [(0, 1, 0, one), (1, 0, 0, -one)], QQ)
    assert _fields(recognize_table(L)) == (None, None, None, None)
    # a dim-2 table that is not [e1,e2]=e1
    M = from_constants(2, [(0, 1, 1, one), (1, 0, 1, -one)], QQ)
    assert _fields(recognize_table(M)) == (None, None, None, None)


# transcribed equation systems


def equation_test_tables():
    return [
        family_ii(Fraction(1), Fraction(1)),
        family_ii(Fraction(-2), Fraction(3)),
        family_iii(),                                   # ii with a=b=0
        family_ii(Fraction(1), Fraction(0), strict=False),   # uncovered regime
        sl2(QQ),
        family_iv(Fraction(1), Fraction(1)),
        family_iv(Fraction(0), Fraction(2)),
        family_iv(Fraction(2), Fraction(2)),            # uncovered regime
        family_v(),
        family_ii(F5.from_int(3), F5.from_int(2), F5),
        solvable_table(F5.from_int(2), F5.from_int(0), F5),
    ]


def test_family_equations_match_residual_cells(rng):
    for L in equation_test_tables():
        kind = recognize_table(L).kind
        want_count = 27 if kind == "ii" else 21
        for _ in range(30):
            r = rand_tensor(rng, 3, L.field)
            eqs = family_equations(L, r)
            assert len(eqs) == want_count
            assert [idx for idx, _, _ in eqs] == list(range(1, want_count + 1))
            rep = cybe_residual(L, r)
            for _, (a, b, c), value in eqs:
                assert value == rep.residual.t[a - 1][b - 1][c - 1], \
                    (L, (a, b, c))


def test_solvable_system_covers_exactly_the_nonvanishing_cells(rng):
    dead = set(solvable_zero_cells())
    assert len(dead) == 6
    for L in (family_iv(Fraction(1), Fraction(2)), family_v(),
              solvable_table(F3.from_int(2), F3.from_int(2), F3)):
        r = rand_tensor(rng, 3, L.field)
        cells = {cell for _, cell, _ in family_equations(L, r)}
        assert len(cells) == 21
        assert cells | dead == {(a, b, c)
                                for a in (1, 2, 3)
                                for b in (1, 2, 3)
                                for c in (1, 2, 3)}
        assert not (cells & dead)
        # the dead cells really are identically zero, even for random r
        rep = cybe_residual(L, r)
        for (a, b, c) in dead:
            assert not rep.residual.t[a - 1][b - 1][c - 1]


def test_ii_system_touches_every_cell(rng):
    r = rand_tensor(rng, 3, QQ)
    cells = [cell for _, cell, _ in family_equations(sl2(QQ), r)]
    assert len(cells) == len(set(cells)) == 27


def test_family_equations_rejections():
    r3 = Tensor2.from_entries(3, QQ, {})
    with pytest.raises(ValueError, match="abelian"):
        family_equations(abelian(3), r3)
    with pytest.raises(ValueError, match="no transcribed system"):
        family_equations(family_vi(), Tensor2.from_entries(2, QQ, {}))
    with pytest.raises(ValueError, match="dimension mismatch"):
        family_equations(sl2(QQ), Tensor2.from_entries(2, QQ, {}))
    one = QQ.one()
    foreign = from_constants(3, [(0, 1, 0, one), (1, 0, 0, -one)], QQ)
    with pytest.raises(ValueError, match="no transcribed system"):
        family_equations(foreign, r3)


# classification predicates


def test_classify_on_covered_regimes(rng):
    covered = [abelian(2), family_vi(), sl2(QQ), family_iii(),
               family_iv(Fraction(0), Fraction(2)),
               family_iv(Fraction(1), Fraction(1)), family_v()]
    for L in covered:
        for _ in range(60):
            r = rand_tensor(rng, L.n, L.field)
            is_sol, labels = is_cybe_solution(L, r), classify_solution(L, r)
            # the covered contract: solution iff labeled
            assert is_sol == bool(labels), (L, r, labels)


def test_classify_uncovered_regimes_raise():
    for L in (family_ii(Fraction(1), Fraction(0), strict=False),
              family_ii(Fraction(0), Fraction(2), strict=False),
              family_iv(Fraction(1), Fraction(2)),
              solvable_table(Fraction(2), Fraction(0))):
        with pytest.raises(UncoveredRegime):
            regime_records(L, recognize_table(L))
        with pytest.raises(UncoveredRegime):
            classify_solution(L, Tensor2.from_entries(3, L.field, {}))
    one = QQ.one()
    foreign = from_constants(3, [(0, 1, 0, one), (1, 0, 0, -one)], QQ)
    with pytest.raises(UncoveredRegime, match="unrecognized"):
        regime_records(foreign, recognize_table(foreign))


def test_abelian_labels_everything():
    L = abelian(3)
    r = Tensor2.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]], QQ)
    is_sol, labels = is_cybe_solution(L, r), classify_solution(L, r)
    assert is_sol and SolutionLabel.ABELIAN in labels
    assert SolutionLabel.STRONGLY_SYMMETRIC not in labels


def test_label_enum_values_are_report_strings():
    assert str(SolutionLabel.HEISENBERG_CASE1) == "heisenberg-case-1"
    assert SolutionLabel.V_CASE2.value == "family-v-case-2"
    assert str(SolutionLabel.ALPHA_BETA_SKEW) == "alpha-beta-skew"


# generators


def frac_grid(span=2):
    vals = [Fraction(v) for v in range(-span, span + 1)]
    return vals


def test_generate_strong_cases(rng):
    L = sl2(QQ)
    for s in frac_grid():
        for u in frac_grid():
            for z in (Fraction(1), Fraction(-2), Fraction(1, 2)):
                r = generate_solution(L, "strong-z", {"s": s, "u": u, "z": z})
                assert is_cybe_solution(L, r)
                is_sol = is_cybe_solution(L, r)
                labels = classify_solution(L, r)
                assert is_sol and SolutionLabel.STRONGLY_SYMMETRIC in labels
    with pytest.raises(SideConditionError, match="z != 0"):
        generate_solution(L, "strong-z", {"s": Fraction(1)})
    r = generate_solution(family_vi(), "strong-x", {"x": Fraction(2),
                                                    "p": Fraction(3)})
    assert is_cybe_solution(family_vi(), r)
    assert r.k[1][1] == Fraction(9, 2)
    # padded to dim 3 on a dim-3 table
    r = generate_solution(L, "strong-x", {"x": Fraction(1), "p": Fraction(2)})
    assert r.n == 3 and is_cybe_solution(L, r)
    r = generate_solution(L, "strong-y", {"y": Fraction(5)})
    assert is_cybe_solution(L, r) and r.k[1][1] == 5
    with pytest.raises(SideConditionError, match="x != 0"):
        generate_solution(family_vi(), "strong-x", {"p": Fraction(1)})


def test_generate_alpha_beta_skew():
    L = sl2(QQ)   # quadric -16 z^2 - 4 s^2 + 4 u^2 + p^2
    r = generate_solution(L, "alpha-beta-skew",
                          {"z": 0, "s": 1, "u": 1, "p": 0})
    assert is_cybe_solution(L, r)
    labels = classify_solution(L, r)
    assert SolutionLabel.ALPHA_BETA_SKEW in labels
    r = generate_solution(L, "alpha-beta-skew",
                          {"z": 0, "s": 1, "u": 0, "p": 2})
    assert is_cybe_solution(L, r)
    with pytest.raises(SideConditionError, match="quadratic"):
        generate_solution(L, "alpha-beta-skew", {"z": 1})
    with pytest.raises(SideConditionError, match="dim-3 table"):
        generate_solution(family_vi(), "alpha-beta-skew", {"p": 0})
    # over F_5 with alpha=beta=1 the quadric z^2+s^2+u^2+p^2 vanishes at
    # (z,s,u,p) = (1,2,0,0)
    M = family_ii(F5.one(), F5.one(), F5)
    r = generate_solution(M, "alpha-beta-skew",
                          {"z": 1, "s": 2, "u": 0, "p": 0})
    assert is_cybe_solution(M, r)


def test_generate_heisenberg_cases():
    L = family_iii()
    r = generate_solution(L, "heisenberg-1",
                          {"p": 1, "x": 1, "y": 1, "u": 1, "s": 1,
                           "v": 2, "t": 2, "z": 5})
    assert is_cybe_solution(L, r)
    labels = classify_solution(L, r)
    assert SolutionLabel.HEISENBERG_CASE1 in labels
    with pytest.raises(SideConditionError, match="p != 0"):
        generate_solution(L, "heisenberg-1", {"x": 1})
    with pytest.raises(SideConditionError, match="p\\^2 = xy"):
        generate_solution(L, "heisenberg-1", {"p": 1, "x": 1, "y": 2})
    r = generate_solution(L, "heisenberg-2",
                          {"s": 1, "t": 2, "z": 3})
    assert is_cybe_solution(L, r)
    labels = classify_solution(L, r)
    assert SolutionLabel.HEISENBERG_CASE2 in labels
    with pytest.raises(SideConditionError, match="xy = 0"):
        generate_solution(L, "heisenberg-2", {"x": 1, "y": 1})
    with pytest.raises(SideConditionError, match="tu = vs"):
        generate_solution(L, "heisenberg-2", {"t": 1, "u": 1, "v": 2, "s": 3})
    with pytest.raises(SideConditionError, match="central"):
        generate_solution(sl2(QQ), "heisenberg-1", {"p": 1, "x": 1, "y": 1})


def test_generate_solvable_cases():
    L = family_iv(Fraction(0), Fraction(2))
    r = generate_solution(L, "iv-diagonal-2", {"p": 1, "q": -1, "y": 3})
    assert is_cybe_solution(L, r)
    labels = classify_solution(L, r)
    assert SolutionLabel.IV_DIAGONAL_CASE2 in labels
    with pytest.raises(SideConditionError):
        generate_solution(L, "iv-diagonal-2", {"x": 1, "u": 1})
    with pytest.raises(SideConditionError, match="beta=0"):
        generate_solution(family_iv(Fraction(1), Fraction(1)),
                          "iv-diagonal-2", {})

    M = family_iv(Fraction(2), Fraction(1))
    r = generate_solution(M, "iv-jordan-2", {"p": 1, "q": -1, "u": 2})
    assert is_cybe_solution(M, r)
    labels = classify_solution(M, r)
    assert SolutionLabel.IV_JORDAN_CASE2 in labels
    r = generate_solution(M, "iv-jordan-2", {"x": 1, "y": 2, "p": 3, "q": 4})
    assert is_cybe_solution(M, r)
    with pytest.raises(SideConditionError, match="u\\(q\\+p\\)"):
        generate_solution(M, "iv-jordan-2", {"u": 1, "p": 1})
    with pytest.raises(SideConditionError, match="delta=1"):
        generate_solution(family_iv(Fraction(1), Fraction(2)),
                          "iv-jordan-2", {})

    V = family_v()
    r = generate_solution(V, "v-1", {"s": 2, "u": 1, "v": -1, "y": 4, "z": 2})
    assert is_cybe_solution(V, r)
    labels = classify_solution(V, r)
    assert SolutionLabel.V_CASE1 in labels
    assert r.p == Fraction(-1) and r.q == Fraction(1) and r.x == Fraction(2)
    with pytest.raises(SideConditionError, match="z != 0"):
        generate_solution(V, "v-1", {"s": 1})

    r = generate_solution(V, "v-2", {"p": 2, "q": 1, "u": 1, "v": 2, "y": 3})
    assert is_cybe_solution(V, r)
    labels = classify_solution(V, r)
    assert SolutionLabel.V_CASE2 in labels
    with pytest.raises(SideConditionError, match="up = qv"):
        generate_solution(V, "v-2", {"p": 1, "q": 1, "u": 1, "v": 2})
    with pytest.raises(SideConditionError, match="beta=delta=0"):
        generate_solution(family_iv(Fraction(0), Fraction(1)),
                          "v-1", {"z": 1})


def test_generate_skew_dim2():
    L = family_vi()
    r = generate_solution(L, "skew", {"p": Fraction(7)})
    assert is_cybe_solution(L, r)
    assert r.k == ((QQ.zero(), Fraction(7)), (Fraction(-7), QQ.zero()))
    labels = classify_solution(L, r)
    assert SolutionLabel.SKEW_SYMMETRIC in labels
    with pytest.raises(SideConditionError, match="dim-2"):
        generate_solution(sl2(QQ), "skew", {"p": 1})


def test_generate_refuses_parameters_the_case_does_not_have():
    # x names a cell, just not one of strong-z's free parameters
    for extra in ("U", "x"):
        with pytest.raises(SideConditionError,
                           match=f"strong-z has no parameter {extra} "
                                 r"\(its parameters: s, u, z\)"):
            generate_solution(sl2(QQ), "strong-z",
                              {"s": 1, extra: 5, "z": 3})
    with pytest.raises(SideConditionError, match="no parameter q, y"):
        generate_solution(family_vi(), "skew", {"q": 1, "p": 1, "y": 1})


def test_generate_unknown_case_and_bad_param():
    with pytest.raises(SideConditionError, match="unknown case"):
        generate_solution(family_vi(), "strong-w", {})
    with pytest.raises(SideConditionError, match="scalar"):
        generate_solution(family_vi(), "skew", {"p": 0.5})
    # prime-field scalars from a different field are rejected too
    with pytest.raises(SideConditionError, match="scalar"):
        generate_solution(family_vi(F3), "skew", {"p": F5.one()})


def test_generated_solutions_over_prime_fields(rng):
    L = family_iii(F5)
    for p in range(1, 5):
        x = F5.from_int(rng.randrange(1, 5))
        pe = F5.from_int(p)
        y = pe * pe / x
        r = generate_solution(L, "heisenberg-1", {"p": pe, "x": x, "y": y})
        assert is_cybe_solution(L, r)
        labels = classify_solution(L, r)
        assert SolutionLabel.HEISENBERG_CASE1 in labels
