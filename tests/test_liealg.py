from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cybe import (
    QQ,
    PrimeField,
    abelian,
    check_jacobi,
    family_ii,
    family_iii,
    family_iv,
    family_v,
    family_vi,
    from_constants,
    make_family,
    sl2,
    solvable_table,
)
from cybe.cli import cmd_families
from cybe.liealg import FAMILIES

F3 = PrimeField(3)
F5 = PrimeField(5)


def all_builders():
    out = [abelian(1), abelian(2), abelian(3), family_iii(), family_v(),
           family_vi(), sl2(QQ), family_vi(F5), family_iii(F3)]
    for a in (1, -1, 2, Fraction(1, 2)):
        for b in (1, -2, 3):
            out.append(family_ii(Fraction(a), Fraction(b)))
    for b in (0, 1, -2):
        for d in (1, 2, Fraction(-1, 3)):
            out.append(family_iv(Fraction(b), Fraction(d)))
    for b in range(3):
        for d in range(3):
            out.append(solvable_table(F3.from_int(b), F3.from_int(d), F3))
    return out


def test_jacobi_holds_for_every_builder():
    for L in all_builders():
        assert check_jacobi(L) == [], L


def test_antisymmetry_structural():
    for L in all_builders():
        n = L.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert L.c[i][j][k] == -L.c[j][i][k]


def test_family_tables_match_their_defining_brackets():
    L = family_ii(Fraction(4), Fraction(-4))
    assert L.c[0][1] == (0, 0, 1)       # [e1,e2] = e3
    assert L.c[1][2] == (4, 0, 0)       # [e2,e3] = 4 e1
    assert L.c[2][0] == (0, -4, 0)      # [e3,e1] = -4 e2
    H = family_iii()
    assert H.c[0][1] == (0, 0, 1)
    assert H.c[1][2] == (0, 0, 0)
    S = solvable_table(Fraction(7), Fraction(5))
    assert S.c[0][2] == (1, 7, 0)       # [e1,e3] = e1 + 7 e2
    assert S.c[1][2] == (0, 5, 0)       # [e2,e3] = 5 e2
    assert S.c[2][0] == (-1, -7, 0)
    V = family_vi()
    assert V.c[0][1] == (1, 0)          # [e1,e2] = e1


def test_sl2_constants_come_from_matrix_commutators():
    # basis h1=[[0,1],[1,0]], h2=[[0,-1],[1,0]], h3=[[2,0],[0,-2]]
    h = [((0, 1), (1, 0)), ((0, -1), (1, 0)), ((2, 0), (0, -2))]

    def mat_mul(x, y):
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2))
                           for j in range(2)) for i in range(2))

    def commutator(x, y):
        a, b = mat_mul(x, y), mat_mul(y, x)
        return tuple(tuple(a[i][j] - b[i][j] for j in range(2))
                     for i in range(2))

    def in_basis(m):
        # h1, h2, h3 span: m = c1 h1 + c2 h2 + c3 h3
        c3 = Fraction(m[0][0], 2)
        c1 = Fraction(m[0][1] + m[1][0], 2)
        c2 = Fraction(m[1][0] - m[0][1], 2)
        assert m == tuple(
            tuple(c1 * Fraction(h[0][i][j]) + c2 * Fraction(h[1][i][j])
                  + c3 * Fraction(h[2][i][j]) for j in range(2))
            for i in range(2))
        return (c1, c2, c3)

    L = sl2(QQ)
    for i in range(3):
        for j in range(3):
            want = in_basis(commutator(h[i], h[j]))
            assert L.c[i][j] == want, (i, j)


def test_bracket_bilinear_and_antisymmetric():
    L = sl2(QQ)
    x = (Fraction(1), Fraction(-2), Fraction(3))
    y = (Fraction(0), Fraction(1, 2), Fraction(1))
    z = (Fraction(2), Fraction(1), Fraction(-1))
    xy = L.bracket(x, y)
    assert L.bracket(y, x) == tuple(-v for v in xy)
    lhs = L.bracket(tuple(a + b for a, b in zip(x, z)), y)
    rhs = tuple(a + b for a, b in zip(xy, L.bracket(z, y)))
    assert lhs == rhs
    with pytest.raises(ValueError, match="vectors of length 3"):
        L.bracket(x[:2], y)
    scaled = L.bracket(tuple(Fraction(5) * a for a in x), y)
    assert scaled == tuple(Fraction(5) * v for v in xy)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_jacobi_identity_on_vectors(a1, a2, a3, b1, b2, b3):
    L = family_iv(Fraction(1), Fraction(1))
    x = (Fraction(a1), Fraction(a2), Fraction(a3))
    y = (Fraction(b1), Fraction(b2), Fraction(b3))
    z = (Fraction(1), Fraction(0), Fraction(-1))
    total = [QQ.zero()] * 3
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        t = L.bracket(L.bracket(u, v), w)
        total = [acc + c for acc, c in zip(total, t)]
    assert not any(total)


def test_family_constructor_guards():
    with pytest.raises(ValueError):
        family_ii(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        family_ii(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        family_iv(Fraction(1), Fraction(0))
    # non-strict escape hatch for the unclassified parameters
    assert check_jacobi(family_ii(Fraction(1), Fraction(0), strict=False)) == []


def test_make_family_dispatch():
    assert make_family("I", QQ, dim=2).n == 2
    assert make_family("I", QQ).n == 3
    assert make_family("VI", QQ).n == 2
    L = make_family("II", QQ, alpha=Fraction(2), beta=Fraction(3))
    assert L.c[1][2] == (2, 0, 0)
    assert make_family("sl2", QQ).c[1][2] == (4, 0, 0)
    with pytest.raises(ValueError):
        make_family("VII", QQ)
    with pytest.raises(ValueError, match="unexpected family parameters"):
        make_family("VI", QQ, alpha=Fraction(1))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_make_family_takes_the_parameters_families_names(name):
    family = FAMILIES[name]
    values = {"dim": 2, "alpha": 2, "beta": 3, "delta": 5}
    params = {param: values[param] for param in family.params}
    L = make_family(name, QQ, **params)
    assert L.c == family.build(*params.values(), QQ).c
    for missing in family.params:
        rest = {k: v for k, v in params.items() if k != missing}
        if name == "I":
            assert make_family(name, QQ, **rest).n == 3
            continue
        with pytest.raises(ValueError) as err:
            make_family(name, QQ, **rest)
        assert str(err.value) == f"family {name} needs parameter {missing}"
    with pytest.raises(ValueError) as err:
        make_family(name, QQ, **params, gamma=1)
    assert str(err.value) == "unexpected family parameters ['gamma']"
    listed = cmd_families()["families"]
    assert [fam["name"] for fam in listed] == list(FAMILIES)
    assert {"name": name, "dim": family.dim, "params": list(family.params),
            "bracket": family.bracket} in listed


def test_from_constants_antisymmetry_enforced():
    one = QQ.one()
    # c[1][2][3] = 1 but c[2][1][3] = 0: not a bracket
    with pytest.raises(ValueError, match="antisymmetry"):
        from_constants(3, [(0, 1, 2, one)], QQ)
    # diagonal must vanish
    with pytest.raises(ValueError, match="antisymmetry"):
        from_constants(2, [(0, 0, 1, one)], QQ)
    with pytest.raises(ValueError, match="out of range"):
        from_constants(2, [(0, 2, 1, one)], QQ)
    L = from_constants(2, [(0, 1, 0, one), (1, 0, 0, -one)], QQ)
    assert L.c[0][1] == (1, 0)


def test_mutated_ii_table_still_satisfies_jacobi():
    # zeroing the beta bracket of the II table ([e3,e1]=0, [e2,e3]=e1,
    # [e1,e2]=e3) leaves a Lie algebra: every cyclic term hits [e_k,e_k]
    one = QQ.one()
    consts = [(0, 1, 2, one), (1, 0, 2, -one),
              (1, 2, 0, one), (2, 1, 0, -one)]
    assert check_jacobi(from_constants(3, consts, QQ)) == []


def test_jacobi_violation_is_reported_with_its_triple():
    # [e1,e2]=e2, [e2,e3]=e1: the cyclic sum at (e1,e2,e3) is [e2,e3]=e1
    one = QQ.one()
    consts = [(0, 1, 1, one), (1, 0, 1, -one),
              (1, 2, 0, one), (2, 1, 0, -one)]
    L = from_constants(3, consts, QQ)
    violations = check_jacobi(L)
    assert violations, "this table must fail Jacobi"
    (triple, residual), = violations
    assert triple == (1, 2, 3)
    assert residual == (1, 0, 0)
