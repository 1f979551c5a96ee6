"""Coboundary cobrackets and Lie bialgebra axiom checks.

For a tensor r on L the candidate cobracket is delta(x) = x . r, the adjoint
action extended as a derivation of the tensor square:

    x . r = sum_i [x, a_i] (x) b_i + a_i (x) [x, b_i]   for r = sum a_i (x) b_i

delta makes (L, delta) a Lie bialgebra exactly when three axioms hold:
coantisymmetry (every delta(e_i) is skew), co-Jacobi (the cyclic sum of
(1 (x) delta) delta(e_i) vanishes), and compatibility (delta is a 1-cocycle:
delta([x, y]) = x . delta(y) - y . delta(x)).  bialgebra_check verifies the
axioms by direct computation; is_coboundary is their conjunction and
is_triangular additionally requires r to solve the CYBE.

coboundary_predicate / triangular_predicate are the independent closed forms
for the classified regimes, kept deliberately separate so the test suite can
play them against the axiom checker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .solve import (
    UncoveredRegime,
    is_cybe_solution,
    is_skew_symmetric,
    recognize_table,
)
from .tensor import Tensor2, Tensor3, cycle_xi


def _ad_matrix(L, x_coords):
    """adx[i][m] = coefficient of e_m in [x, e_i]."""
    n = L.n
    zero = L.field.zero()
    adx = [[zero] * n for _ in range(n)]
    for w, xw in enumerate(x_coords):
        if not xw:
            continue
        for i in range(n):
            row = L.c[w][i]
            for m in range(n):
                if row[m]:
                    adx[i][m] = adx[i][m] + xw * row[m]
    return adx


def ad_action(L, x_coords, r):
    """x . r for x given by basis coordinates."""
    if len(x_coords) != L.n or r.n != L.n:
        raise ValueError("dimension mismatch")
    n = L.n
    adx = _ad_matrix(L, x_coords)
    zero = L.field.zero()
    k = r.k
    out = [[zero] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            acc = zero
            for i in range(n):
                if adx[i][a] and k[i][b]:
                    acc = acc + adx[i][a] * k[i][b]
            for j in range(n):
                if k[a][j] and adx[j][b]:
                    acc = acc + k[a][j] * adx[j][b]
            out[a][b] = acc
    return Tensor2.from_rows(out, L.field)


@dataclass(frozen=True)
class Cobracket:
    """delta determined by its values on the basis: images[i] = delta(e_i)."""

    n: int
    images: tuple

    def image(self, i):
        return self.images[i]

    def of_vector(self, coords):
        out = Tensor2.zero(self.n, self.images[0].field)
        for i, ci in enumerate(coords):
            if ci:
                out = out + self.images[i].scale(ci)
        return out


def cobracket(L, r):
    basis = []
    for i in range(L.n):
        coords = [L.field.zero()] * L.n
        coords[i] = L.field.one()
        basis.append(ad_action(L, coords, r))
    return Cobracket(L.n, tuple(basis))


def check_coantisymmetry(delta):
    """Every basis image skew?  Returns (ok, failing 1-based indices)."""
    bad = [i + 1 for i in range(delta.n)
           if not is_skew_symmetric(delta.images[i])]
    return not bad, tuple(bad)


def check_cojacobi(delta, field):
    """Cyclic sum of (1 (x) delta) delta(e_i) vanishes for every i?

    Returns (ok, witnesses) with witnesses = ((i, nonzero entries), ...) for
    the failing basis elements, entries 1-based.
    """
    n = delta.n
    zero = field.zero()
    witnesses = []
    for i in range(n):
        m_i = delta.images[i].k
        t = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                coef = m_i[a][b]
                if not coef:
                    continue
                m_b = delta.images[b].k
                for c in range(n):
                    for d in range(n):
                        if m_b[c][d]:
                            t[a][c][d] = t[a][c][d] + coef * m_b[c][d]
        t3 = Tensor3(n, tuple(tuple(tuple(row) for row in plane)
                              for plane in t), field)
        total = t3 + cycle_xi(t3) + cycle_xi(cycle_xi(t3))
        if not total.is_zero():
            entries = tuple(((a + 1, b + 1, c + 1), v)
                            for (a, b, c), v in total.entries())
            witnesses.append((i + 1, entries))
    return not witnesses, tuple(witnesses)


def check_compatibility(L, delta):
    """delta([e_i, e_j]) = e_i . delta(e_j) - e_j . delta(e_i) on all pairs?

    Returns (ok, witnesses) with witnesses = (((i, j), nonzero entries), ...),
    all indices 1-based.
    """
    n = L.n
    witnesses = []
    basis = []
    for i in range(n):
        coords = [L.field.zero()] * n
        coords[i] = L.field.one()
        basis.append(coords)
    for i in range(n):
        for j in range(n):
            left = Tensor2.zero(n, L.field)
            for m in range(n):
                cm = L.c[i][j][m]
                if cm:
                    left = left + delta.images[m].scale(cm)
            right = (ad_action(L, basis[i], delta.images[j])
                     - ad_action(L, basis[j], delta.images[i]))
            diff = left - right
            if not diff.is_zero():
                entries = tuple(((a + 1, b + 1), v)
                                for (a, b), v in diff.entries())
                witnesses.append(((i + 1, j + 1), entries))
    return not witnesses, tuple(witnesses)


@dataclass(frozen=True)
class BialgebraReport:
    coantisymmetry_ok: bool
    cojacobi_ok: bool
    compatibility_ok: bool
    cybe_solution: bool
    is_coboundary: bool
    is_triangular: bool
    witnesses: dict


def bialgebra_check(L, r):
    """Axiom-by-axiom verdict for delta = x . r.  Pure computation: this
    never consults the closed-form predicates below."""
    delta = cobracket(L, r)
    co_ok, co_w = check_coantisymmetry(delta)
    jac_ok, jac_w = check_cojacobi(delta, L.field)
    comp_ok, comp_w = check_compatibility(L, delta)
    is_cob = co_ok and jac_ok and comp_ok
    sol = is_cybe_solution(L, r)
    return BialgebraReport(
        coantisymmetry_ok=co_ok,
        cojacobi_ok=jac_ok,
        compatibility_ok=comp_ok,
        cybe_solution=sol,
        is_coboundary=is_cob,
        is_triangular=is_cob and sol,
        witnesses={
            "coantisymmetry": co_w,
            "cojacobi": jac_w,
            "compatibility": comp_w,
        },
    )


def _skew_named(r):
    if not is_skew_symmetric(r):
        raise ValueError("closed-form predicates apply to skew tensors only")
    if r.n == 3:
        return r.p, r.s, r.u
    if r.n == 2:
        return r.p, None, None
    return None, None, None   # no named coefficients in other dims


def coboundary_predicate(L, r):
    """Closed form: does skew r induce a Lie bialgebra on L?

    Covered: the dim-3 table [e1,e2]=e3, [e2,e3]=alpha e1, [e3,e1]=beta e2
    with alpha*beta != 0 or alpha = beta = 0 (always a bialgebra); the dim-3
    solvable table for every (beta, delta); the dim-2 table (always).
    """
    p, s, u = _skew_named(r)
    reg = recognize_table(L)
    if reg is None:
        raise UncoveredRegime(f"no closed form for {L!r}")
    kind = reg[0]
    if kind == "vi":
        return True
    if kind == "ii":
        alpha, beta = reg[1], reg[2]
        if (alpha and beta) or (not alpha and not beta):
            return True
        raise UncoveredRegime(
            "no closed form when exactly one of alpha, beta is zero")
    if kind == "solvable":
        beta, delta = reg[1], reg[2]
        one = L.field.one()
        return not ((delta + one) * ((delta - one) * u + beta * s) * s)
    raise UncoveredRegime(f"no closed form for table {kind!r}")


def triangular_predicate(L, r):
    """Closed form: does skew r induce a triangular Lie bialgebra on L?

    Covered: the dim-3 table with alpha*beta != 0 or alpha = beta = 0
    (quadratic beta*s^2 + alpha*u^2 + p^2 = 0); the solvable table with
    beta = 0 (condition (1-delta)us = 0) or beta != 0, delta = 1 (s = 0);
    the dim-2 table (always).
    """
    p, s, u = _skew_named(r)
    reg = recognize_table(L)
    if reg is None:
        raise UncoveredRegime(f"no closed form for {L!r}")
    kind = reg[0]
    if kind == "vi":
        return True
    if kind == "ii":
        alpha, beta = reg[1], reg[2]
        if (alpha and beta) or (not alpha and not beta):
            return not (beta * s * s + alpha * u * u + p * p)
        raise UncoveredRegime(
            "no closed form when exactly one of alpha, beta is zero")
    if kind == "solvable":
        beta, delta = reg[1], reg[2]
        one = L.field.one()
        if not beta:
            return not ((one - delta) * u * s)
        if delta == one:
            return not s
        raise UncoveredRegime(
            f"no triangular closed form for beta={beta}, delta={delta}")
    raise UncoveredRegime(f"no closed form for table {kind!r}")
