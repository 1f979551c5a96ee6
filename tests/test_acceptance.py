"""Acceptance suite: ten numbered criteria, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s -v` to see the lines as they print;
on a failure pytest shows the captured FAIL line either way.  Every check is
exact (no tolerances anywhere); the timed criteria assert their wall-clock
budgets.
"""

import random
import time
from fractions import Fraction
from itertools import product

from cybe import (
    QQ,
    PrimeField,
    Tensor2,
    Tensor3,
    abelian,
    bialgebra_check,
    change_basis,
    check_compatibility,
    cobracket,
    cybe_residual,
    cycle_xi,
    family_ii,
    family_iii,
    family_iv,
    family_v,
    family_vi,
    generate_solution,
    is_cybe_solution,
    is_skew_symmetric,
    is_strongly_symmetric,
    scan_solution_ids,
    sl2,
    solvable_table,
    twist_tau,
    verify_classification,
)
from cybe.tensor import determinant
from conftest import all_tensors
from transcribed import family_equations

F3 = PrimeField(3)
F5 = PrimeField(5)


class criterion:
    """Context manager that prints `[criterion N] PASS/FAIL title; notes`."""

    def __init__(self, n, title):
        self.n = n
        self.title = title
        self.notes = []

    def note(self, text):
        self.notes.append(text)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        tail = ("; " + "; ".join(self.notes)) if self.notes else ""
        print(f"[criterion {self.n:>2}] {verdict}  {self.title}{tail}",
              flush=True)
        return False


def nonzero_fraction(rng):
    while True:
        f = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if f:
            return f


def some_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def test_criterion_01_strong_tensors_solve_every_family():
    rng = random.Random(101)
    families = [
        ("I", abelian(3)),
        ("II(4,-4)", sl2(QQ)),
        ("II(1,1)", family_ii(Fraction(1), Fraction(1))),
        ("III", family_iii()),
        ("IV(1,2)", family_iv(Fraction(1), Fraction(2))),
        ("V", family_v()),
        ("VI", family_vi()),
    ]
    with criterion(1, "1000 strongly symmetric tensors per family, "
                      "residual exactly zero") as c:
        t0 = time.perf_counter()
        for name, L in families:
            for k in range(1000):
                if L.n == 3:
                    case = ("strong-z", "strong-x", "strong-y")[k % 3]
                else:
                    case = ("strong-x", "strong-y")[k % 2]
                if case == "strong-z":
                    params = {"s": some_fraction(rng),
                              "u": some_fraction(rng),
                              "z": nonzero_fraction(rng)}
                elif case == "strong-x":
                    params = {"p": some_fraction(rng),
                              "x": nonzero_fraction(rng)}
                else:
                    params = {"y": some_fraction(rng)}
                r = generate_solution(L, case, params)
                assert is_strongly_symmetric(r), (name, params)
                assert cybe_residual(L, r).is_zero, (name, params)
        elapsed = time.perf_counter() - t0
        c.note(f"7000 tensors in {elapsed:.2f}s")
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_02_dim2_solutions_are_strong_or_skew():
    with criterion(2, "dim-2 table over F_3 and F_5: solutions == "
                      "strongly-symmetric union skew-symmetric") as c:
        t0 = time.perf_counter()
        r3 = verify_classification(family_vi(F3))
        r5 = verify_classification(family_vi(F5))
        elapsed = time.perf_counter() - t0
        assert r3.confirmed and r3.solution_count == 11
        assert r3.label_counts == {"strongly-symmetric": 9,
                                   "skew-symmetric": 3}
        assert r5.confirmed and r5.solution_count == 29
        assert r5.label_counts == {"strongly-symmetric": 25,
                                   "skew-symmetric": 5}
        c.note(f"11/81 and 29/625 solutions in {elapsed:.2f}s")
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
        # independent scalar cross-check over F_3 (no kernels, no masks)
        L = family_vi(F3)
        for r in all_tensors(2, F3):
            want = is_strongly_symmetric(r) or is_skew_symmetric(r)
            assert is_cybe_solution(L, r) == want


def test_criterion_03_ii_classification_both_fields():
    with criterion(3, "II table: all (a,b) in (F_3*)^2 and three F_5 pairs "
                      "confirmed") as c:
        for a in (1, 2):
            for b in (1, 2):
                rep = verify_classification(
                    family_ii(F3.from_int(a), F3.from_int(b), F3))
                assert rep.confirmed and rep.solution_count == 59, (a, b)
        c.note("F_3: 4 pairs, 59 solutions each")
        for a, b in ((1, 1), (1, 4), (2, 3)):
            t0 = time.perf_counter()
            rep = verify_classification(
                family_ii(F5.from_int(a), F5.from_int(b), F5))
            elapsed = time.perf_counter() - t0
            assert rep.confirmed and rep.solution_count == 269, (a, b)
            assert rep.total == 1_953_125
            c.note(f"F_5 ({a},{b}): {elapsed:.2f}s")
            assert elapsed < 60.0, f"pair ({a},{b}) took {elapsed:.2f}s"


def test_criterion_04_heisenberg_two_cases():
    with criterion(4, "Heisenberg table over F_3: solutions == union of the "
                      "two case families") as c:
        rep = verify_classification(family_iii(F3))
        assert rep.confirmed
        assert rep.solution_count == 315
        assert rep.label_counts == {"heisenberg-case-1": 108,
                                    "heisenberg-case-2": 207}
        assert rep.matched == rep.predicate_count == 315
        c.note("315 solutions = 108 (case 1) + 207 (case 2), overlap counted"
               " once")


def test_criterion_05_solvable_covered_regimes():
    covered = {
        (0, 1): (123, {"strongly-symmetric": 27,
                       "family-iv-diagonal-case-2": 105}),
        (0, 2): (135, {"strongly-symmetric": 27,
                       "family-iv-diagonal-case-2": 117}),
        (1, 1): (105, {"strongly-symmetric": 27,
                       "family-iv-jordan-case-2": 87}),
        (2, 1): (105, {"strongly-symmetric": 27,
                       "family-iv-jordan-case-2": 87}),
        (0, 0): (333, {"family-v-case-1": 162, "family-v-case-2": 171}),
    }
    with criterion(5, "solvable table over F_3: every covered regime "
                      "confirmed, open regimes recorded") as c:
        for (b, d), (count, labels) in covered.items():
            rep = verify_classification(
                solvable_table(F3.from_int(b), F3.from_int(d), F3))
            assert rep.confirmed, (b, d)
            assert rep.solution_count == count, (b, d)
            assert rep.label_counts == labels, (b, d)
        c.note("covered (beta,delta): (0,1) 123, (0,2) 135, (1,1) 105, "
               "(2,1) 105, (0,0) 333")
        # regimes without a classification: counts recorded, and the
        # sufficient condition never overshoots (no false positives)
        open_counts = []
        for b, d in ((1, 0), (2, 0), (1, 2), (2, 2)):
            rep = verify_classification(
                solvable_table(F3.from_int(b), F3.from_int(d), F3))
            assert rep.empirical_only and not rep.confirmed, (b, d)
            assert rep.false_positives == (), (b, d)
            open_counts.append(f"({b},{d}) {rep.solution_count}")
        c.note("open regimes, solution counts: " + ", ".join(open_counts))


def test_criterion_06_transcribed_systems_audit():
    tables = [
        family_ii(F3.from_int(1), F3.from_int(1), F3),
        family_ii(F3.from_int(2), F3.from_int(1), F3),
        family_ii(F3.from_int(0), F3.from_int(0), F3, strict=False),
        family_ii(F3.from_int(1), F3.from_int(0), F3, strict=False),
        solvable_table(F3.from_int(0), F3.from_int(1), F3),
        solvable_table(F3.from_int(1), F3.from_int(1), F3),
        solvable_table(F3.from_int(0), F3.from_int(0), F3),
        solvable_table(F3.from_int(2), F3.from_int(2), F3),
    ]
    with criterion(6, "transcribed quadratic systems == expansion engine "
                      "over exhaustive F_3 grids") as c:
        for L in tables:
            ids, _ = scan_solution_ids(L)
            sols = set(ids.tolist())
            # every grid in candidate-id order, its entries int residues
            for idx, d in enumerate(product(range(3), repeat=9)):
                rows = (d[0:3], d[3:6], d[6:9])
                eqs = family_equations(L, Tensor2(3, rows, F3))
                assert (not any(v % 3 for _, _, v in eqs)) == (idx in sols), \
                    (L.label, idx)
                if idx % 97 == 0:
                    # spot check the cell-by-cell identity, not just zero sets
                    rep = cybe_residual(L, Tensor2.from_rows(
                        [[F3.from_int(v) for v in row] for row in rows], F3))
                    for _, (a, b, cc), v in eqs:
                        assert rep.residual.t[a - 1][b - 1][cc - 1] == v
        c.note(f"8 tables x 19683 grids, zero sets identical, "
               f"cell-wise agreement sampled every 97th grid")


def skew3q(p, s, u):
    z = QQ.zero()
    return Tensor2.from_rows([[z, p, s], [-p, z, u], [-s, -u, z]], QQ)


def test_criterion_07_sl2_coboundary_always_triangular_on_quadric():
    L = sl2(QQ)
    grid = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    with criterion(7, "sl2: every skew r is coboundary; triangular exactly "
                      "on -4s^2+4u^2+p^2 = 0") as c:
        true_points = 0
        for p, s, u in product(grid, repeat=3):
            rep = bialgebra_check(L, skew3q(p, s, u))
            assert rep.is_coboundary, (p, s, u)
            want = (Fraction(-4) * s * s + Fraction(4) * u * u + p * p) == 0
            assert rep.is_triangular == want, (p, s, u)
            true_points += want
        # anchor points
        assert bialgebra_check(L, skew3q(Fraction(2), Fraction(1),
                                         Fraction(0))).is_triangular
        assert bialgebra_check(L, skew3q(Fraction(0), Fraction(0),
                                         Fraction(0))).is_triangular
        assert not bialgebra_check(L, skew3q(Fraction(1), Fraction(1),
                                             Fraction(0))).is_triangular
        c.note(f"125 grid points, {true_points} on the quadric")


def test_criterion_08_solvable_coboundary_formula_on_the_grid():
    grid = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    one = QQ.one()
    with criterion(8, "solvable tables: coboundary iff "
                      "(delta+1)((delta-1)u+beta*s)s = 0 on the full "
                      "{-2..2}^5 grid") as c:
        t0 = time.perf_counter()
        checked = 0
        for beta, delta in product(grid, repeat=2):
            L = solvable_table(beta, delta)
            for p, s, u in product(grid, repeat=3):
                rep = bialgebra_check(L, skew3q(p, s, u))
                want_cob = ((delta + one) * ((delta - one) * u + beta * s)
                            * s) == 0
                assert rep.is_coboundary == want_cob, (beta, delta, p, s, u)
                if beta == 0:
                    want_tri = want_cob and ((one - delta) * u * s) == 0
                    assert rep.is_triangular == want_tri, (delta, p, s, u)
                elif delta == one:
                    assert rep.is_triangular == (want_cob and s == 0), \
                        (beta, p, s, u)
                checked += 1
        elapsed = time.perf_counter() - t0
        c.note(f"{checked} (beta,delta,p,s,u) points in {elapsed:.1f}s")
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_09_dim2_bialgebra_iff_skew():
    with criterion(9, "dim-2 table: coboundary == triangular == skew, "
                      "all F_5 tensors and a rational grid") as c:
        L = family_vi(F5)
        for r in all_tensors(2, F5):
            rep = bialgebra_check(L, r)
            skew = is_skew_symmetric(r)
            assert rep.is_coboundary == skew, r
            assert rep.is_triangular == skew, r
        M = family_vi()
        grid = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
        count = 0
        for x, p, q, y in product(grid, repeat=4):
            r = Tensor2.from_rows([[x, p], [q, y]], QQ)
            rep = bialgebra_check(M, r)
            skew = is_skew_symmetric(r)
            assert rep.is_coboundary == skew, r
            assert rep.is_triangular == skew, r
            count += 1
        c.note(f"625 F_5 tensors + {count} rational grid points")


def test_criterion_10_machinery_properties():
    rng = random.Random(1010)
    with criterion(10, "twist involutive, cycle order three, cocycle "
                       "compatibility, strong symmetry basis-invariant") as c:
        for _ in range(200):
            rows = [[some_fraction(rng) for _ in range(3)] for _ in range(3)]
            r = Tensor2.from_rows(rows, QQ)
            assert twist_tau(twist_tau(r)) == r
        for _ in range(200):
            t = Tensor3(3, tuple(
                tuple(tuple(some_fraction(rng) for _ in range(3))
                      for _ in range(3)) for _ in range(3)), QQ)
            assert cycle_xi(cycle_xi(cycle_xi(t))) == t
        c.note("200 twist + 200 cycle trials")

        tables = [family_vi(), sl2(QQ), family_iii(),
                  family_iv(Fraction(1), Fraction(1)), family_v(),
                  family_iv(Fraction(0), Fraction(2)), abelian(3)]
        done = 0
        while done < 500:
            for L in tables:
                rows = [[some_fraction(rng) for _ in range(L.n)]
                        for _ in range(L.n)]
                r = Tensor2.from_rows(rows, L.field)
                ok, _ = check_compatibility(L, cobracket(L, r))
                assert ok, (L, rows)
                done += 1
        c.note(f"{done} compatibility trials, zero failures")

        changes = 0
        while changes < 200:
            v = [some_fraction(rng) for _ in range(3)]
            r = Tensor2.from_rows([[a * b for b in v] for a in v], QQ)
            q = [[some_fraction(rng) for _ in range(3)] for _ in range(3)]
            if not determinant(q, QQ):
                continue
            assert is_strongly_symmetric(change_basis(r, q)), (v, q)
            changes += 1
        c.note("200 basis changes preserve strong symmetry")
