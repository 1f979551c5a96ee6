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
so only the nonzero entries it reports are kept, as ints reduced in the
field over the scale (C D)^2 for co-Jacobi and C^2 D for compatibility
(`solve._Entries`), and made Fraction/ModP witnesses when read.  The public
checks on a Cobracket lift its images over their common denominator E
instead (scales E^2 and C E).

Each check is an int kernel (its arithmetic, a flat output list) and a
witness extraction.  bialgebra_check reads the three, and the CYBE
residual that decides triangularity, as one flat list (`_axiom_ints`),
from one evaluator per table kept in the table's memo
(`liealg.per_table`): up to FORMS_MAX_DIM that list compiled (see
`solve`), above it the kernels on ints (`_axiom_forms`), so a caller
that rotates over many tables compiles each once; on a Lie table, where
x . r is a cocycle for every r, every compatibility entry is the literal
0.  On an abelian table every form vanishes identically, so
bialgebra_check returns its all-true verdicts without reading any.  The
public checks on an arbitrary Cobracket run the kernels on ints.

coboundary_predicate / triangular_predicate are the independent closed forms
for the classified regimes, kept deliberately separate so the test suite can
play them against the axiom checker.  Which regime's form applies, or why
none does, is decided once per table and kept in the same memo
(`_closed_form_regimes`), so a skew tensor pays only the forms' Fraction
or ModP arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .liealg import per_table
from .scalars import FieldError, show
from .solve import (
    FORMS_MAX_DIM,
    UncoveredRegime,
    _cell_polys,
    _grid_cells,
    _int_constants,
    _lift_grid,
    _nonzero_entries,
    _reduced,
    _residual_ints,
    _same_space,
    _straight_line,
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
    entries = _nonzero_entries(field, ints, scale, n, 2).values()
    return Tensor2.from_entries(
        n, field, {(i - 1, j - 1): v for (i, j), v in entries})


def _lift_images(delta):
    """delta's images as flat int grids over one common denominator E."""
    field = delta.field
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

    def __post_init__(self):
        # the kernels slice the flat images by n * n and index n of them
        if (len(self.images) != self.n
                or any(img.n != self.n for img in self.images)):
            raise ValueError(f"dimension mismatch: a dim-{self.n} cobracket "
                             f"needs {self.n} images of dim {self.n}")

    @property
    def field(self):
        """The field of the images; the checks refuse images over two."""
        return self.images[0].field

    def of_vector(self, coords):
        """The linear extension: sum_i coords[i] delta(e_i)."""
        if len(coords) != self.n:
            raise ValueError("dimension mismatch")
        field = self.field
        imgs, scale = _lift_images(self)
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


def _coantisymmetry_ints(n, imgs):
    """Int kernel of coantisymmetry on flat images m_w: m_w[a][b] +
    m_w[b][a] for a <= b, w by w (n (n + 1) / 2 entries each)."""
    return [img[a * n + b] + img[b * n + a]
            for img in imgs for a in range(n) for b in range(a, n)]


def _cojacobi_ints(n, imgs):
    """Int kernel of co-Jacobi on flat images m_w: the cyclic sums of
    (1 (x) delta) delta(e_i), flat n^3 cubes i by i.  Homogeneous of degree
    2 in delta, so on lifted images their scale squared times the true
    ones."""
    nn = n * n
    out = []
    for m_i in imgs:
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
        out += [t[(a * n + b) * n + c] + t[(c * n + a) * n + b]
                + t[(b * n + c) * n + a]
                for a in range(n) for b in range(n) for c in range(n)]
    return out


def _compatibility_ints(n, consts, imgs):
    """Int kernel of the cocycle condition on flat images: delta([e_i,
    e_j]) - e_i . delta(e_j) + e_j . delta(e_i), flat n x n grids pair by
    pair.  Degree 1 in the constants and in delta, so on lifted input C
    times the images' scale times the true ones."""
    nn = n * n
    # ad[j][i] = e_i . delta(e_j)
    ad = [_images(n, consts, img) for img in imgs]
    left = [[[0] * nn for _ in range(n)] for _ in range(n)]
    for i, j, m, val in consts:
        row, img = left[i][j], imgs[m]
        for ab in range(nn):
            row[ab] += val * img[ab]
    return [lv - rj + ri for i in range(n) for j in range(n)
            for lv, rj, ri in zip(left[i][j], ad[j][i], ad[i][j])]


def _axiom_ints(n, consts, k):
    """The three axiom kernels on the images of the flat grid k, then the
    CYBE residual of k, as one flat list: coantisymmetry, co-Jacobi,
    compatibility, residual."""
    imgs = _images(n, consts, k)
    return (_coantisymmetry_ints(n, imgs) + _cojacobi_ints(n, imgs)
            + _compatibility_ints(n, consts, imgs)
            + _residual_ints(n, consts, k))


@per_table
def _axiom_forms(L):
    """The function of r's lifted grid k that returns `_axiom_ints` on k
    for L: up to FORMS_MAX_DIM `_axiom_ints` run once on the grid of cell
    polynomials and compiled, each entry a form, linear (coantisymmetry,
    compatibility) or quadratic (co-Jacobi, residual); above it the
    kernels themselves."""
    n, (consts, _) = L.n, _int_constants(L)
    if n > FORMS_MAX_DIM:
        return lambda k: _axiom_ints(n, consts, k)
    return _straight_line(_reduced(_axiom_ints(n, consts, _cell_polys(n)),
                                   L.field))


def _coantisymmetry_failures(n, flat):
    """1-based w of each image whose entries of the reduced flat output of
    `_coantisymmetry_ints` are not all zero."""
    size = n * (n + 1) // 2
    return tuple(w + 1 for w in range(n) if any(flat[w * size:(w + 1) * size]))


def _witnesses(field, flat, scale, n, rank, keys):
    """((key, its nonzero entries), ...) for each block of n^rank entries
    of the flat int output of a kernel that is not all zero in the field,
    keyed in order; the entries are ints over scale (`_nonzero_entries`)."""
    size = n ** rank
    out = []
    for at, key in enumerate(keys):
        block = flat[at * size:(at + 1) * size]
        if any(block):
            entries = _nonzero_entries(field, block, scale, n, rank)
            if entries.cells:
                out.append((key, entries))
    return tuple(out)


def _valued(witnesses):
    """witnesses with each block's entries as (cell, field scalar) pairs."""
    return tuple((key, entries.values()) for key, entries in witnesses)


def check_coantisymmetry(delta):
    """Every basis image skew?  Returns (ok, failing 1-based indices)."""
    imgs, _ = _lift_images(delta)
    bad = _coantisymmetry_failures(
        delta.n, delta.field.reduce(_coantisymmetry_ints(delta.n, imgs)))
    return not bad, bad


def check_cojacobi(delta):
    """Cyclic sum of (1 (x) delta) delta(e_i) vanishes for every i?

    Returns (ok, witnesses) with witnesses = ((i, nonzero entries), ...) for
    the failing basis elements, entries 1-based.
    """
    n = delta.n
    imgs, scale = _lift_images(delta)
    witnesses = _witnesses(delta.field, _cojacobi_ints(n, imgs),
                           scale * scale, n, 3, range(1, n + 1))
    return not witnesses, _valued(witnesses)


def check_compatibility(L, delta):
    """delta([e_i, e_j]) = e_i . delta(e_j) - e_j . delta(e_i) on all pairs?

    Returns (ok, witnesses) with witnesses = (((i, j), nonzero entries), ...),
    all indices 1-based.  Raises ValueError or FieldError when delta does
    not live on L.
    """
    _same_space(L, delta, "cobracket")
    consts, c_scale = _int_constants(L)
    imgs, scale = _lift_images(delta)
    witnesses = _witnesses(L.field, _compatibility_ints(L.n, consts, imgs),
                           c_scale * scale, L.n, 2, _grid_cells(L.n, 2))
    return not witnesses, _valued(witnesses)


@dataclass(frozen=True)
class BialgebraReport:
    """The axiom verdicts of bialgebra_check, and the witnesses of the
    failed axioms: `witness_ints` as the kernels give them, each block's
    entries as ints over a scale (`solve._Entries`); `witnesses` with field
    scalars, built when first read."""

    coantisymmetry_ok: bool
    cojacobi_ok: bool
    compatibility_ok: bool
    cybe_solution: bool
    is_coboundary: bool
    is_triangular: bool
    witness_ints: dict

    @cached_property
    def witnesses(self):
        """{"coantisymmetry": the failing 1-based images, "cojacobi":
        ((i, entries), ...), "compatibility": (((i, j), entries), ...)},
        the entries ((1-based cell, value), ...)."""
        ints = self.witness_ints
        return {"coantisymmetry": ints["coantisymmetry"],
                "cojacobi": _valued(ints["cojacobi"]),
                "compatibility": _valued(ints["compatibility"])}


def bialgebra_check(L, r):
    """Axiom-by-axiom verdict for delta = x . r.  Pure computation: this
    never consults the closed-form predicates below.  r and the constants
    are lifted once, and the axioms are the table's evaluator
    (`_axiom_forms`) on r's lifted grid.  A table with no nonzero
    constant (an abelian one) reads none: there every form is 0."""
    n, field = L.n, L.field
    consts, c_scale = _int_constants(L)
    if not consts:
        # every axiom form vanishes identically, as does the residual
        _same_space(L, r)
        return BialgebraReport(True, True, True, True, True, True, {
            "coantisymmetry": (), "cojacobi": (), "compatibility": ()})
    k, d_scale = _lift_grid(L, r)
    vals = field.reduce(_axiom_forms(L)(k))
    cut = n * n * (n + 1) // 2
    co, jac = vals[:cut], vals[cut:cut + n ** 4]
    comp, res = vals[cut + n ** 4:cut + 2 * n ** 4], vals[cut + 2 * n ** 4:]
    scale = c_scale * d_scale
    co_w = _coantisymmetry_failures(n, co)
    jac_w = _witnesses(field, jac, scale * scale, n, 3, range(1, n + 1))
    comp_w = _witnesses(field, comp, c_scale * scale, n, 2,
                        _grid_cells(n, 2))
    co_ok, jac_ok, comp_ok = not co_w, not jac_w, not comp_w
    is_cob = co_ok and jac_ok and comp_ok
    sol = not any(res)
    return BialgebraReport(
        coantisymmetry_ok=co_ok,
        cojacobi_ok=jac_ok,
        compatibility_ok=comp_ok,
        cybe_solution=sol,
        is_coboundary=is_cob,
        is_triangular=is_cob and sol,
        witness_ints={
            "coantisymmetry": co_w,
            "cojacobi": jac_w,
            "compatibility": comp_w,
        },
    )


@per_table
def _closed_form_regimes(L):
    """L's closed-form regimes: (its Table, why no coboundary form covers
    it, why no triangular one does), a reason None where a form covers L.
    The coboundary form covers "vi", "ii" with alpha, beta both zero or
    both nonzero, and "solvable"; the triangular one all of these but
    "solvable" with beta != 0, delta != 1."""
    table = recognize_table(L)
    kind, alpha, beta, delta = table
    why = None
    if kind is None:
        why = f"no closed form for {L!r}"
    elif kind == "ii" and bool(alpha) != bool(beta):
        why = "no closed form when exactly one of alpha, beta is zero"
    elif kind not in ("vi", "ii", "solvable"):
        why = f"no closed form for table {kind!r}"
    why_triangular = why
    if kind == "solvable" and beta and delta != L.field.one():
        why_triangular = (f"no triangular closed form for "
                          f"beta={show(beta)}, delta={show(delta)}")
    return table, why, why_triangular


def _closed_form_table(L, r, triangular=False):
    """L's Table when a closed form (a triangular one if asked) covers it.
    Raises ValueError or FieldError if r does not live on L, ValueError if
    r is not skew, else UncoveredRegime.  The "ii" and "solvable" tables
    are dim 3, so there r has the named coefficients p, s and u."""
    _same_space(L, r)
    if not is_skew_symmetric(r):
        raise ValueError("closed-form predicates apply to skew tensors only")
    table, why, why_triangular = _closed_form_regimes(L)
    if triangular:
        why = why_triangular
    if why is not None:
        raise UncoveredRegime(why)
    return table


def coboundary_predicate(L, r):
    """Closed form: does skew r induce a Lie bialgebra on L?

    Covered: the dim-3 table [e1,e2]=e3, [e2,e3]=alpha e1, [e3,e1]=beta e2
    with alpha*beta != 0 or alpha = beta = 0 (always a bialgebra); the dim-3
    solvable table for every (beta, delta); the dim-2 table (always).
    """
    kind, _, beta, delta = _closed_form_table(L, r)
    if kind == "solvable":
        one, s = L.field.one(), r.s
        return not ((delta + one) * ((delta - one) * r.u + beta * s) * s)
    return True


def triangular_predicate(L, r):
    """Closed form: does skew r induce a triangular Lie bialgebra on L?

    Covered: the dim-3 table with alpha*beta != 0 or alpha = beta = 0
    (quadratic beta*s^2 + alpha*u^2 + p^2 = 0); the solvable table with
    beta = 0 (condition (1-delta)us = 0) or beta != 0, delta = 1 (s = 0);
    the dim-2 table (always).
    """
    kind, alpha, beta, delta = _closed_form_table(L, r, triangular=True)
    if kind == "ii":
        return not (beta * r.s * r.s + alpha * r.u * r.u + r.p * r.p)
    if kind == "solvable":
        if not beta:
            return not ((L.field.one() - delta) * r.u * r.s)
        return not r.s
    return True
