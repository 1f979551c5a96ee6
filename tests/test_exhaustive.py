import random
from functools import partial

import numpy as np
import pytest

from cybe import (
    BudgetExceeded,
    ModP,
    PrimeField,
    abelian,
    classify_solution,
    enumerate_solutions,
    family_iii,
    family_ii,
    family_iv,
    family_vi,
    is_cybe_solution,
    scan_solution_ids,
    solvable_table,
    verify_classification,
)
from cybe import exhaustive, is_skew_symmetric, is_strongly_symmetric
from cybe.exhaustive import (
    Check,
    _label_checks,
    _surviving_ids,
    candidate_count,
    decode_ids,
)
from cybe.solve import (
    Coefficients,
    UncoveredRegime,
    recognize_table,
    regime_records,
    strong_record,
)
from conftest import (
    all_tensors,
    brute_force_solution_ids,
    constants_arrays,
    decode_grids,
    decoded_tensors,
)

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_candidate_count():
    assert candidate_count(2, 3) == 81
    assert candidate_count(3, 3) == 19683
    assert candidate_count(3, 5) == 5 ** 9


def test_budget_guard():
    with pytest.raises(BudgetExceeded, match="exceed"):
        scan_solution_ids(family_iii(F5), budget=10_000)
    # budget=None disables the guard
    ids, _ = scan_solution_ids(family_vi(F3), budget=None)
    assert ids.shape[0] == 11


def test_prime_field_required():
    from cybe import QQ, family_vi as vi
    with pytest.raises(ValueError, match="prime field"):
        scan_solution_ids(vi(QQ))


def test_enumerate_dim2_f3_against_scalar_check():
    L = family_vi(F3)
    sols = enumerate_solutions(L)
    got = {tuple(tuple(int(v) for v in row) for row in r.k) for r in sols}
    want = set()
    for r in all_tensors(2, F3):
        if is_cybe_solution(L, r):
            want.add(tuple(tuple(int(v) for v in row) for row in r.k))
    assert got == want
    assert len(sols) == 11


def test_solution_ids_are_sorted_and_deduplicated():
    ids, _ = scan_solution_ids(family_vi(F5))
    assert ids.shape[0] == 29
    assert np.all(np.diff(ids) > 0)


# frozen counts from the enumeration oracle; any engine change that shifts
# one of these numbers is a regression, not a new truth


def _table(spec, p):
    F = PrimeField(p)
    kind, *params = spec
    if kind == "vi":
        return family_vi(F)
    if kind == "abelian":
        return abelian(params[0], F)
    a, b = (F.from_int(v) for v in params)
    if kind == "ii":
        return family_ii(a, b, F, strict=False)
    return solvable_table(a, b, F)


GOLDEN = [
    # (algebra factory, solutions, label -> count, confirmed)
    (lambda: family_vi(F3), 11,
     {"strongly-symmetric": 9, "skew-symmetric": 3}, True),
    (lambda: family_vi(F5), 29,
     {"strongly-symmetric": 25, "skew-symmetric": 5}, True),
    (lambda: family_ii(F3.one(), F3.one(), F3), 59,
     {"strongly-symmetric": 27, "alpha-beta-skew": 33}, True),
    (lambda: family_iii(F3), 315,
     {"heisenberg-case-1": 108, "heisenberg-case-2": 207}, True),
    (lambda: solvable_table(F3.from_int(0), F3.from_int(1), F3), 123,
     {"strongly-symmetric": 27, "family-iv-diagonal-case-2": 105}, True),
    (lambda: solvable_table(F3.from_int(0), F3.from_int(2), F3), 135,
     {"strongly-symmetric": 27, "family-iv-diagonal-case-2": 117}, True),
    (lambda: solvable_table(F3.from_int(1), F3.from_int(1), F3), 105,
     {"strongly-symmetric": 27, "family-iv-jordan-case-2": 87}, True),
    (lambda: solvable_table(F3.from_int(2), F3.from_int(1), F3), 105,
     {"strongly-symmetric": 27, "family-iv-jordan-case-2": 87}, True),
    (lambda: solvable_table(F3.from_int(0), F3.from_int(0), F3), 333,
     {"family-v-case-1": 162, "family-v-case-2": 171}, True),
    # F_7, F_11 and F_13: frozen from the filter engine the solving one
    # replaced, so that the two check each other; at F_7 the solution ids
    # of each table were also equal to brute_force_solution_ids
    (partial(_table, ("vi",), 7), 55,
     {"strongly-symmetric": 49, "skew-symmetric": 7}, True),
    (partial(_table, ("abelian", 2), 7), 2401,
     {"abelian": 2401, "strongly-symmetric": 49, "skew-symmetric": 7}, True),
    (partial(_table, ("ii", 1, 2), 7), 727,
     {"strongly-symmetric": 343, "alpha-beta-skew": 385}, True),
    (partial(_table, ("ii", 0, 0), 7), 19159,
     {"heisenberg-case-1": 12348, "heisenberg-case-2": 6811}, True),
    (partial(_table, ("solvable", 0, 1), 7), 3031,
     {"strongly-symmetric": 343, "family-iv-diagonal-case-2": 2737}, True),
    (partial(_table, ("solvable", 0, 2), 7), 2779,
     {"strongly-symmetric": 343, "family-iv-diagonal-case-2": 2485}, True),
    (partial(_table, ("solvable", 1, 1), 7), 2737,
     {"strongly-symmetric": 343, "family-iv-jordan-case-2": 2443}, True),
    (partial(_table, ("solvable", 0, 0), 7), 19453,
     {"family-v-case-1": 14406, "family-v-case-2": 5047}, True),
    (partial(_table, ("vi",), 11), 131,
     {"strongly-symmetric": 121, "skew-symmetric": 11}, True),
    (partial(_table, ("abelian", 2), 11), 14641,
     {"abelian": 14641, "strongly-symmetric": 121,
      "skew-symmetric": 11}, True),
    (partial(_table, ("ii", 1, 2), 11), 2771,
     {"strongly-symmetric": 1331, "alpha-beta-skew": 1441}, True),
    (partial(_table, ("ii", 0, 0), 11), 175571,
     {"heisenberg-case-1": 133100, "heisenberg-case-2": 42471}, True),
    (partial(_table, ("solvable", 0, 1), 11), 17171,
     {"strongly-symmetric": 1331, "family-iv-diagonal-case-2": 15961}, True),
    (partial(_table, ("solvable", 0, 2), 11), 16071,
     {"strongly-symmetric": 1331, "family-iv-diagonal-case-2": 14861}, True),
    (partial(_table, ("solvable", 1, 1), 11), 15961,
     {"strongly-symmetric": 1331, "family-iv-jordan-case-2": 14751}, True),
    (partial(_table, ("solvable", 0, 0), 11), 176781,
     {"family-v-case-1": 146410, "family-v-case-2": 30371}, True),
    (partial(_table, ("vi",), 13), 181,
     {"strongly-symmetric": 169, "skew-symmetric": 13}, True),
    (partial(_table, ("abelian", 2), 13), 28561,
     {"abelian": 28561, "strongly-symmetric": 169,
      "skew-symmetric": 13}, True),
    (partial(_table, ("ii", 1, 2), 13), 4549,
     {"strongly-symmetric": 2197, "alpha-beta-skew": 2353}, True),
    (partial(_table, ("ii", 0, 0), 13), 399685,
     {"heisenberg-case-1": 316368, "heisenberg-case-2": 83317}, True),
    (partial(_table, ("solvable", 0, 1), 13), 32773,
     {"strongly-symmetric": 2197, "family-iv-diagonal-case-2": 30745}, True),
    (partial(_table, ("solvable", 0, 2), 13), 30901,
     {"strongly-symmetric": 2197, "family-iv-diagonal-case-2": 28873}, True),
    (partial(_table, ("solvable", 1, 1), 13), 30745,
     {"strongly-symmetric": 2197, "family-iv-jordan-case-2": 28717}, True),
    (partial(_table, ("solvable", 0, 0), 13), 401713,
     {"family-v-case-1": 342732, "family-v-case-2": 58981}, True),
]


def _golden_id(case):
    L = case[0]()    # the F_3 and F_5 cases keep their names
    return L.label if L.field.p < 7 else f"{L.label}/F{L.field.p}"


@pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
def test_golden_counts(case):
    factory, solutions, labels, confirmed = case
    report = verify_classification(factory())
    assert report.solution_count == solutions
    assert report.label_counts == labels
    assert report.confirmed is confirmed
    assert not report.empirical_only
    assert report.missed_by_predicate == ()
    assert report.false_positives == ()
    assert report.matched == report.solution_count == report.predicate_count


def test_all_alpha_beta_pairs_f3_have_59_solutions():
    for a in (1, 2):
        for b in (1, 2):
            L = family_ii(F3.from_int(a), F3.from_int(b), F3)
            report = verify_classification(L)
            assert report.confirmed and report.solution_count == 59, (a, b)


def test_uncovered_solvable_regime_is_empirical_only():
    # beta=1, delta=0 has no classification; the report degrades to the
    # sufficient condition and must show zero false positives
    L = solvable_table(F3.from_int(1), F3.from_int(0), F3)
    report = verify_classification(L)
    assert report.empirical_only and not report.confirmed
    assert report.solution_count == 333
    assert report.false_positives == ()
    assert report.label_counts == {"strongly-symmetric": 27}
    assert len(report.missed_by_predicate) > 0   # capped witness list
    w = report.missed_by_predicate[0]
    assert set(w) == {"id", "grid"}
    assert len(w["grid"]) == 3 and all(len(row) == 3 for row in w["grid"])


def test_report_metadata_fields():
    L = family_vi(F3)
    report = verify_classification(L)
    assert (report.p, report.dim) == (3, 2)
    assert report.algebra == L.label
    assert report.total == 81
    assert scan_solution_ids(L)[1] == "frontier"


# the engine against the brute-force reference scan in conftest

F3_TABLES = (
    [family_ii(F3.from_int(a), F3.from_int(b), F3, strict=False)
     for a in range(3) for b in range(3)]
    + [solvable_table(F3.from_int(b), F3.from_int(d), F3)
       for b in range(3) for d in range(3)]
    + [family_vi(F3)] + [abelian(n, F3) for n in (1, 2, 3)])


@pytest.mark.parametrize("L", F3_TABLES, ids=lambda L: L.label)
def test_engine_matches_brute_force_f3(L):
    ids, engine = scan_solution_ids(L)
    assert engine == "frontier" and ids.dtype == np.int64
    assert np.array_equal(ids, brute_force_solution_ids(L))


@pytest.mark.parametrize("L", [
    family_vi(F5),
    family_ii(F5.one(), F5.from_int(2), F5),
    family_iii(F5),
    solvable_table(F5.one(), F5.from_int(2), F5),
], ids=lambda L: L.label)
def test_engine_matches_brute_force_f5(L):
    assert np.array_equal(scan_solution_ids(L)[0],
                          brute_force_solution_ids(L))


@pytest.mark.parametrize("p", [7, 11, 13])
def test_vi_closed_form_counts(p):
    # the dim-2 solutions are the p^2 rank <= 1 symmetric grids and the p
    # skew ones, which share only zero
    report = verify_classification(family_vi(PrimeField(p)))
    assert report.confirmed
    assert report.solution_count == p * p + p - 1
    assert report.label_counts == {"strongly-symmetric": p * p,
                                   "skew-symmetric": p}


def test_ii_over_f11_beyond_brute_force():
    # 11^9 = 2.36e9 candidates: far more than a scan of each one could take
    F11 = PrimeField(11)
    report = verify_classification(family_ii(F11.one(), F11.one(), F11))
    assert report.total == 11 ** 9
    assert report.confirmed and not report.empirical_only
    assert report.label_counts["strongly-symmetric"] == 11 ** 3


def test_checks_stay_exact_past_2_to_the_31():
    # k1 = k0 and k2 = -k0 are solved; the filter
    # (p-1)(k0 k2 + k1 k2 + k2^2 + k0 k1) then vanishes mod p on every row,
    # but its value from residues is (p-1) p^2 = 2.18e9 > 2^31 at p = 1297,
    # so rows of 32-bit ints would wrap and drop all but t = 0
    p = 1297
    checks = [Check({(0,): p - 1, (1,): 1}),
              Check({(0,): 1, (2,): 1}),
              Check({(0, 2): p - 1, (1, 2): p - 1, (2, 2): p - 1,
                     (0, 1): p - 1})]
    ids = _surviving_ids(2, p, checks, None)
    t, k3 = np.divmod(np.arange(p * p), p)
    want = ((t * p + t) * p + (-t % p)) * p + k3     # (t, t, -t, k3)
    assert (p - 1) * p * p > 2 ** 31
    assert np.array_equal(ids, np.sort(want))


@pytest.mark.parametrize("constant, holds", [
    (Check({(): 1}), False),          # 1 = 0
    (Check({}, True), False),         # 0 != 0
    (Check({(): 2}, True), True),     # 2 != 0
])
def test_checks_on_no_cell_are_decided(constant, holds):
    # a check that reads no cell is true for every grid or for none, alone
    # and beside a check that reads a cell (k[0][1] = 0 over F_3 in dim 2)
    every = np.arange(3 ** 4)
    beside = Check({(1,): 1})
    for checks, want in (([constant], every),
                         ([constant, beside], every[every // 9 % 3 == 0]),
                         ([beside, constant], every[every // 9 % 3 == 0])):
        ids = _surviving_ids(2, 3, checks, None)
        assert np.array_equal(ids, want if holds else every[:0]), checks


def test_int64_id_ceiling():
    # 131^9 >= 2^63 > 127^9
    with pytest.raises(ValueError, match="int64"):
        scan_solution_ids(abelian(3, PrimeField(131)))
    assert candidate_count(3, 127) < 2 ** 63 <= candidate_count(3, 131)


def test_vectorized_predicates_match_scalar_classification():
    # per regime: every F_3 candidate is in the engine's truth set of a
    # label exactly when the scalar evaluation of the same record on ModP
    # grids gives it that label (a wrong polynomial shows up here)
    tables = [
        family_vi(F3),
        family_ii(F3.one(), F3.from_int(2), F3),
        family_iii(F3),
        solvable_table(F3.from_int(0), F3.from_int(2), F3),
        solvable_table(F3.from_int(1), F3.from_int(1), F3),
        solvable_table(F3.from_int(0), F3.from_int(0), F3),
        abelian(2, F3),
    ]
    for L in tables:
        table = recognize_table(L)
        params = tuple(None if v is None else int(v) for v in table[1:])
        accepted = {
            rec.label: set(_surviving_ids(
                L.n, 3, _label_checks(rec, L.n, 3, params), None).tolist())
            for rec in regime_records(L, table)}
        for idx, r in enumerate(all_tensors(L.n, F3)):
            labels = classify_solution(L, r)
            for label, hits in accepted.items():
                assert (idx in hits) == (label in labels), (L, idx, label)


def test_enumerated_tensors_match_decoded_grids():
    # enumerate_solutions decodes every id at once, the reference one at a
    # time; both give tensors of field entries
    for L in (family_vi(F3), family_iii(F3)):
        ids, _ = scan_solution_ids(L)
        sols = enumerate_solutions(L)
        assert sols == decoded_tensors(ids, L.n, L.field)
        assert all(r.field == L.field and isinstance(v, ModP)
                   for r in sols for row in r.k for v in row)


# the id encoding, and the brute-force reference in conftest that the
# engine is pinned to, itself pinned to the exact scalar residual


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
        ids = np.array([0, 1, total // 2, total - 1], dtype=np.int64)
        for idx, r in zip(ids.tolist(), decoded_tensors(ids, n, field)):
            acc = 0
            for row in r.k:
                for v in row:
                    acc = acc * field.p + int(v)
            assert acc == idx
    # entry (0,0) is the most significant digit
    r, = decoded_tensors([F3.p ** (2 * 2 - 1) * 2], 2, F3)
    assert int(r.k[0][0]) == 2 and r.k[0][1] == F3.zero()
    r, = decoded_tensors([80], 2, F3)   # 80 = 2222 base 3
    assert all(int(v) == 2 for row in r.k for v in row)


def test_decode_grids_matches_decode_ids():
    for n, p in ((2, 5), (3, 3), (3, 127)):
        total = p ** (n * n)
        ids = np.array([0, 1, 7, 23, total // 3, total - 1], dtype=np.int64)
        assert np.array_equal(decode_ids(ids, n, p),
                              decode_grids(ids, n, p).reshape(-1, n * n))


def test_brute_force_reference_agrees_with_scalar_path():
    # the brute-force reference keeps exactly the ids the scalar path solves
    for L in (family_vi(F3), family_vi(F5), family_iii(F3)):
        ids = set(brute_force_solution_ids(L).tolist())
        for idx, r in enumerate(all_tensors(L.n, L.field)):
            assert (idx in ids) == is_cybe_solution(L, r), (L, idx)


def test_abelian_scan_keeps_everything():
    ids, engine = scan_solution_ids(abelian(2, F3))
    assert engine == "frontier"
    assert np.array_equal(ids, np.arange(81))


@pytest.mark.parametrize("n", [1, 2])
def test_abelian_report_searches_the_space_once(monkeypatch, n):
    # the `abelian` label has no conditions: its truth set is every grid,
    # which on the abelian table are the solution ids the oracle found
    searches = []
    real = exhaustive._surviving_ids

    def counted(n, p, checks, budget):
        searches.append(len(checks))
        return real(n, p, checks, budget)

    monkeypatch.setattr(exhaustive, "_surviving_ids", counted)
    report = verify_classification(abelian(n, F3))
    assert searches.count(0) == 1
    grids = list(all_tensors(n, F3))
    total = len(grids)
    assert (report.total, report.solution_count, report.matched,
            report.predicate_count) == (total,) * 4
    want = {"abelian": total}
    if n > 1:
        want["strongly-symmetric"] = sum(map(is_strongly_symmetric, grids))
        want["skew-symmetric"] = sum(map(is_skew_symmetric, grids))
    assert report.label_counts == want
    assert report.confirmed and not report.empirical_only
    assert report.missed_by_predicate == report.false_positives == ()
    assert np.array_equal(report.solution_ids, np.arange(total))



# the solving step: each level solves one check for its new cell, as
# a x^2 + b x + c over the rows before it

@pytest.mark.parametrize("p", [3, 5, 7])
def test_solve_cell_finds_every_root(p):
    # every (a, b, c) over GF(p), one per row, against trying each digit
    a_, b_, c_ = np.indices((p, p, p)).reshape(3, -1)
    tables = exhaustive._Tables.of(p)
    digits = np.arange(p)
    for a in range(p):
        b, c = b_[a_ == a], c_[a_ == a]
        rows, xs, full = exhaustive._solve_cell(a, b, c, p, tables)
        got = {(int(r), int(x)) for r, x in zip(rows, xs)}
        got |= {(int(r), x) for r in full for x in range(p)}
        assert len(got) == rows.size + full.size * p   # no child twice
        want = {(r, int(x)) for r in range(b.size) for x in digits
                if (a * x * x + b[r] * x + c[r]) % p == 0}
        assert got == want, (p, a)


def _child_counts(monkeypatch):
    """Record how many children each row gets from `_solve_cell`."""
    seen = set()
    real = exhaustive._solve_cell

    def recording(a, b, c, p, tables):
        rows, xs, full = real(a, b, c, p, tables)
        counts = np.bincount(rows, minlength=c.size)
        counts[full] += p
        seen.update(np.unique(counts).tolist())
        return rows, xs, full

    monkeypatch.setattr(exhaustive, "_solve_cell", recording)
    return seen


def test_residual_scan_takes_every_branch(monkeypatch):
    # [e1,e2] = e2, [e1,e3] = 2e3, [e2,e3] = e1 over F_3: rows with no
    # root, one, two and every digit, and still exactly the brute-force
    # solutions
    from cybe.liealg import check_jacobi, from_constants
    brackets = [(0, 1, 1, 1), (0, 2, 2, 2), (1, 2, 0, 1)]
    L = from_constants(3, [const for i, j, m, c in brackets for const in (
        (i, j, m, F3.from_int(c)), (j, i, m, F3.from_int(-c)))], F3)
    assert not check_jacobi(L)
    seen = _child_counts(monkeypatch)
    ids, _ = scan_solution_ids(L)
    assert seen == {0, 1, 2, 3}
    assert np.array_equal(ids, brute_force_solution_ids(L))


def test_label_searches_take_every_branch(monkeypatch):
    # strong symmetry and the alpha,beta-skew class over F_3, against the
    # scalar evaluation of the same records on every candidate
    L = family_ii(F3.one(), F3.from_int(2), F3)
    table = recognize_table(L)
    params = int(table.alpha), int(table.beta), None
    seen = _child_counts(monkeypatch)
    for rec in regime_records(L, table):
        got = _surviving_ids(3, 3, _label_checks(rec, 3, 3, params), None)
        want = [idx for idx, r in enumerate(all_tensors(3, F3))
                if rec.holds(Coefficients(3, r.k, F3, params))]
        assert np.array_equal(got, want), rec.label
    assert seen == {0, 1, 2, 3}


def test_cell_order_keeps_ii10_f13_levels_small():
    # with the checks listed canonically, fewest terms first, `_cell_order`
    # opens the cells of the short residual checks first, which keeps this
    # table's largest level at 501,085 rows; the budget admits no level
    # above that.  Built from brackets, as a problem file gives it.
    from cybe.problems import parse_algebra
    F13 = PrimeField(13)
    L = parse_algebra({"dim": 3, "brackets": [
        [1, 3, ["0", "0", "0"]], [2, 3, ["1", "0", "0"]],
        [1, 2, ["0", "0", "1"]]]}, F13)
    table = recognize_table(L)
    assert (table.kind, table.alpha, table.beta) == ("ii", 1, 0)
    ids, _ = scan_solution_ids(L, budget=501_085)
    assert ids.size == 34645


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("make", [
    lambda F: family_ii(F.one(), F.zero(), F, strict=False),
    lambda F: family_ii(F.one(), F.one(), F),
    lambda F: family_iv(F.zero(), F.one(), F),
    family_iii,
], ids=["II(1,0)", "II(1,1)", "IV(0,1)", "III"])
def test_search_depends_only_on_the_set_of_checks(monkeypatch, make, p):
    # the residual search and each label search of the table, its checks
    # shuffled: the same ids and the same level sizes every time
    F = PrimeField(p)
    L = make(F)
    table = recognize_table(L)
    try:
        records = regime_records(L, table)
    except UncoveredRegime:
        records = (strong_record(3),)
    params = tuple(None if v is None else int(v) for v in table[1:])
    searches = [exhaustive._residual_checks(L, p)] + [
        _label_checks(rec, 3, p, params) for rec in records]
    sizes = []
    monkeypatch.setattr(exhaustive, "_fits",
                        lambda rows, budget: sizes.append(rows))
    rng = random.Random(p)
    for checks in searches:
        runs = set()
        for _ in range(6):
            sizes.clear()
            ids = _surviving_ids(3, p, checks, None)
            runs.add((ids.tobytes(), tuple(sizes)))
            checks = rng.sample(checks, len(checks))
        assert len(runs) == 1


def test_witnesses_are_ids_and_residue_grids():
    # the uncovered solvable table over F_3: witness i is the i-th solution
    # no label accepts, its grid the str of each residue
    L = solvable_table(F3.from_int(1), F3.from_int(0), F3)
    report = verify_classification(L)
    assert len(report.missed_by_predicate) == exhaustive.WITNESS_CAP
    ids = [w["id"] for w in report.missed_by_predicate]
    for w, r in zip(report.missed_by_predicate, decoded_tensors(ids, 3, F3)):
        assert w == {"id": w["id"],
                     "grid": [[str(v) for v in row] for row in r.k]}
        assert type(w["id"]) is int
