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

The checks run on plain ints, lifted as in `solve`: r over its common
denominator D (residues over F_p), the constants over theirs, C.  The int
images of delta are C D times the true ones, and each check is homogeneous,
so only the nonzero entries it reports are turned back into Fraction/ModP
witnesses, reduced mod p or divided by (C D)^2 for co-Jacobi and C^2 D for
compatibility.  The public checks on a Cobracket lift its images over their
common denominator E instead (scales E^2 and C E).

coboundary_predicate / triangular_predicate are the independent closed forms
for the classified regimes, kept deliberately separate so the test suite can
play them against the axiom checker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import FieldError
from .solve import (
    UncoveredRegime,
    _int_constants,
    _lift_grid,
    _nonzero_entries,
    _residual_ints,
    is_skew_symmetric,
    recognize_table,
)
from .tensor import Tensor2


def _images(n, consts, k):
    """Int kernel of the cobracket: the flat grids e_w . r for every w, from
    the int constants (w, i, m, c) and the flat int grid k of r.

    [e_w, e_i] = sum_m c e_m puts c k[i][b] at (m, b) and c k[a][i] at
    (a, m); on lifted input the images are C D times delta(e_w).
    """
    imgs = [[0] * (n * n) for _ in range(n)]
    for w, i, m, val in consts:
        img = imgs[w]
        for b in range(n):
            if k[i * n + b]:
                img[m * n + b] += val * k[i * n + b]
        for a in range(n):
            if k[a * n + i]:
                img[a * n + m] += val * k[a * n + i]
    return imgs


def _tensor2(field, n, ints, scale):
    entries = _nonzero_entries(field, ints, scale, n, 2)
    return Tensor2.from_entries(
        n, field, {(i - 1, j - 1): v for (i, j), v in entries})


def _lift_images(delta, field):
    """delta's images as flat int grids over one common denominator E."""
    if any(img.field != field for img in delta.images):
        raise FieldError(f"cobracket images not all over {field!r}")
    nn = delta.n * delta.n
    ints, scale = field.lift([v for img in delta.images
                              for row in img.k for v in row])
    return [ints[w * nn:(w + 1) * nn] for w in range(delta.n)], scale


def ad_action(L, x_coords, r):
    """x . r for x given by basis coordinates."""
    return cobracket(L, r).of_vector(x_coords)


@dataclass(frozen=True)
class Cobracket:
    """delta determined by its values on the basis: images[i] = delta(e_i)."""

    n: int
    images: tuple

    def of_vector(self, coords):
        """The linear extension: sum_i coords[i] delta(e_i)."""
        if len(coords) != self.n:
            raise ValueError("dimension mismatch")
        field = self.images[0].field
        imgs, scale = _lift_images(self, field)
        x, x_scale = field.lift(coords)
        out = [sum(xw * img[ab] for xw, img in zip(x, imgs))
               for ab in range(self.n * self.n)]
        return _tensor2(field, self.n, out, x_scale * scale)


def cobracket(L, r):
    consts, c_scale = _int_constants(L)
    k, d_scale = _lift_grid(L, r)
    return Cobracket(L.n, tuple(
        _tensor2(L.field, L.n, img, c_scale * d_scale)
        for img in _images(L.n, consts, k)))


def _coantisymmetry_failures(field, n, imgs):
    return tuple(
        w + 1 for w, img in enumerate(imgs)
        if any(field.reduce([img[a * n + b] + img[b * n + a]
                             for a in range(n) for b in range(a, n)])))


def _cojacobi_witnesses(field, n, imgs, scale):
    """Int kernel of co-Jacobi on flat int images m_w; homogeneous of degree
    2 in delta, so scale is the images' scale squared."""
    nn = n * n
    witnesses = []
    for i, m_i in enumerate(imgs):
        # t = (1 (x) delta) delta(e_i): m_i[a][b] e_a (x) delta(e_b)
        t = [0] * (n * nn)
        for ab, coef in enumerate(m_i):
            if coef:
                m_b, base = imgs[ab % n], ab // n * nn
                for cd in range(nn):
                    if m_b[cd]:
                        t[base + cd] += coef * m_b[cd]
        # t + xi(t) + xi^2(t): (a, b, c) gathers t[a][b][c], t[c][a][b]
        # and t[b][c][a]
        total = [t[(a * n + b) * n + c] + t[(c * n + a) * n + b]
                 + t[(b * n + c) * n + a]
                 for a in range(n) for b in range(n) for c in range(n)]
        entries = _nonzero_entries(field, total, scale, n, 3)
        if entries:
            witnesses.append((i + 1, entries))
    return tuple(witnesses)


def _compatibility_witnesses(field, n, consts, imgs, scale):
    """Int kernel of the cocycle condition on flat int images; degree 1 in
    the constants and in delta, so scale is C times the images' scale."""
    nn = n * n
    # ad[j][i] = e_i . delta(e_j)
    ad = [_images(n, consts, img) for img in imgs]
    left = [[[0] * nn for _ in range(n)] for _ in range(n)]
    for i, j, m, val in consts:
        row, img = left[i][j], imgs[m]
        for ab in range(nn):
            row[ab] += val * img[ab]
    witnesses = []
    for i in range(n):
        for j in range(n):
            diff = [lv - rj + ri for lv, rj, ri
                    in zip(left[i][j], ad[j][i], ad[i][j])]
            entries = _nonzero_entries(field, diff, scale, n, 2)
            if entries:
                witnesses.append(((i + 1, j + 1), entries))
    return tuple(witnesses)


def check_coantisymmetry(delta):
    """Every basis image skew?  Returns (ok, failing 1-based indices)."""
    field = delta.images[0].field
    bad = _coantisymmetry_failures(field, delta.n,
                                   _lift_images(delta, field)[0])
    return not bad, bad


def check_cojacobi(delta, field):
    """Cyclic sum of (1 (x) delta) delta(e_i) vanishes for every i?

    Returns (ok, witnesses) with witnesses = ((i, nonzero entries), ...) for
    the failing basis elements, entries 1-based.
    """
    imgs, scale = _lift_images(delta, field)
    witnesses = _cojacobi_witnesses(field, delta.n, imgs, scale * scale)
    return not witnesses, witnesses


def check_compatibility(L, delta):
    """delta([e_i, e_j]) = e_i . delta(e_j) - e_j . delta(e_i) on all pairs?

    Returns (ok, witnesses) with witnesses = (((i, j), nonzero entries), ...),
    all indices 1-based.
    """
    consts, c_scale = _int_constants(L)
    imgs, scale = _lift_images(delta, L.field)
    witnesses = _compatibility_witnesses(L.field, L.n, consts, imgs,
                                         c_scale * scale)
    return not witnesses, witnesses


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
    never consults the closed-form predicates below.  r and the constants
    are lifted once and every check runs on the int images."""
    n, field = L.n, L.field
    consts, c_scale = _int_constants(L)
    k, d_scale = _lift_grid(L, r)
    imgs = [field.reduce(img) for img in _images(n, consts, k)]
    scale = c_scale * d_scale
    co_w = _coantisymmetry_failures(field, n, imgs)
    jac_w = _cojacobi_witnesses(field, n, imgs, scale * scale)
    comp_w = _compatibility_witnesses(field, n, consts, imgs, c_scale * scale)
    co_ok, jac_ok, comp_ok = not co_w, not jac_w, not comp_w
    is_cob = co_ok and jac_ok and comp_ok
    sol = not any(field.reduce(_residual_ints(n, consts, k)))
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


def _closed_form_regime(L, r):
    """(kind, a, b, (p, s, u)): "vi", "ii" with alpha, beta both zero or
    both nonzero, or "solvable" with beta, delta, and the named coefficients
    of skew r.  Raises ValueError if r is not skew, else UncoveredRegime."""
    named = _skew_named(r)
    reg = recognize_table(L)
    if reg is None:
        raise UncoveredRegime(f"no closed form for {L!r}")
    kind = reg[0]
    if kind == "vi":
        return kind, None, None, named
    if kind == "ii" and bool(reg[1]) != bool(reg[2]):
        raise UncoveredRegime(
            "no closed form when exactly one of alpha, beta is zero")
    if kind in ("ii", "solvable"):
        return kind, reg[1], reg[2], named
    raise UncoveredRegime(f"no closed form for table {kind!r}")


def coboundary_predicate(L, r):
    """Closed form: does skew r induce a Lie bialgebra on L?

    Covered: the dim-3 table [e1,e2]=e3, [e2,e3]=alpha e1, [e3,e1]=beta e2
    with alpha*beta != 0 or alpha = beta = 0 (always a bialgebra); the dim-3
    solvable table for every (beta, delta); the dim-2 table (always).
    """
    kind, beta, delta, (_, s, u) = _closed_form_regime(L, r)
    if kind == "solvable":
        one = L.field.one()
        return not ((delta + one) * ((delta - one) * u + beta * s) * s)
    return True


def triangular_predicate(L, r):
    """Closed form: does skew r induce a triangular Lie bialgebra on L?

    Covered: the dim-3 table with alpha*beta != 0 or alpha = beta = 0
    (quadratic beta*s^2 + alpha*u^2 + p^2 = 0); the solvable table with
    beta = 0 (condition (1-delta)us = 0) or beta != 0, delta = 1 (s = 0);
    the dim-2 table (always).
    """
    kind, a, b, (p, s, u) = _closed_form_regime(L, r)
    one = L.field.one()
    if kind == "ii":            # a, b = alpha, beta
        return not (b * s * s + a * u * u + p * p)
    if kind == "solvable":      # a, b = beta, delta
        if not a:
            return not ((one - b) * u * s)
        if b == one:
            return not s
        raise UncoveredRegime(
            f"no triangular closed form for beta={a}, delta={b}")
    return True
