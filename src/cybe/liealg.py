"""Lie algebras as structure-constant tables over an exact field.

A ``LieAlgebra`` stores the constants c[i][j][k] of [e_i, e_j] = sum_k
c[i][j][k] e_k densely (n <= 3 in practice).  Constructors cover the
classical list of Lie algebras of dimension <= 3:

  family I    abelian, any dimension
  family II   dim 3: [e1,e2]=e3, [e2,e3]=a e1, [e3,e1]=b e2   (ab != 0)
  family III  dim 3 Heisenberg: [e1,e2]=e3 central (a=b=0 above)
  family IV   dim 3 solvable: [e1,e3]=e1+b e2, [e2,e3]=d e2   (d != 0)
  family V    the same table with b=d=0
  family VI   dim 2: [e1,e2]=e1

sl2 (trace-zero 2x2 matrices in the basis {[[0,1],[1,0]], [[0,-1],[1,0]],
[[2,0],[0,-2]]}) is the family II table with a=4, b=-4.

FAMILIES names each built-in family's constructor and parameters, for
make_family and `cybe families`.

Custom tables are accepted from input files; antisymmetry is enforced at
construction, the Jacobi identity via check_jacobi (callers must treat a
nonempty violation list as fatal: nothing downstream is meaningful on a
non-Lie table).

A table never changes, so whatever is derived from it alone (its lifted
constants, its recognized family, its regime's compiled label predicates,
its compiled bialgebra axioms, its closed-form regime) is made when first
needed by a function marked `per_table`, and kept in the table's one memo
(`LieAlgebra.derived`): it lives exactly as long as the table.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import wraps
from typing import NamedTuple

from .scalars import QQ, FieldError, clip, show


class LieAlgebra:
    """Immutable structure-constant table; build via the module constructors."""

    __slots__ = ("n", "c", "field", "label", "derived")

    def __init__(self, n, c, field, label=None):
        self.n = n
        self.c = c  # c[i][j][k], tuple of tuples of tuples, 0-based
        self.field = field
        self.label = label
        self.derived = {}  # per_table function -> its value on this table

    def bracket(self, x, y):
        """[x, y] for coefficient vectors x, y of length n."""
        if len(x) != self.n or len(y) != self.n:
            raise ValueError(f"expected vectors of length {self.n}")
        zero = self.field.zero()
        out = [zero] * self.n
        for i in range(self.n):
            if not x[i]:
                continue
            for j in range(self.n):
                if not y[j]:
                    continue
                coef = x[i] * y[j]
                row = self.c[i][j]
                for k in range(self.n):
                    if row[k]:
                        out[k] = out[k] + coef * row[k]
        return tuple(out)

    def basis_vector(self, i):
        zero, one = self.field.zero(), self.field.one()
        return tuple(one if k == i else zero for k in range(self.n))

    def nonzero_constants(self):
        """All (i, j, k, c[i][j][k]) with nonzero value, row-major order."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.c[i][j][k]:
                        out.append((i, j, k, self.c[i][j][k]))
        return out

    def __repr__(self):
        tag = self.label or "custom"
        return f"LieAlgebra({tag}, n={self.n}, {self.field!r})"


def per_table(derive):
    """derive(L), made once per table and kept in L.derived, so it lives
    as long as L.  derive must read nothing but L, and its value must not
    refer to L, or L would outlive its last user until a gc pass."""
    @wraps(derive)
    def memo(L):
        try:
            return L.derived[derive]
        except KeyError:
            value = L.derived[derive] = derive(L)
            return value
    return memo


def _table(n, field, entries, label):
    """Build a table from upper entries {(i,j): vector}; mirrors filled in.

    entries maps 0-based (i, j) with i < j to the coefficient vector of
    [e_i, e_j].  Antisymmetry supplies [e_j, e_i] and zero diagonals.
    """
    zero = field.zero()
    zvec = [zero] * n
    c = [[list(zvec) for _ in range(n)] for _ in range(n)]
    for (i, j), vec in entries.items():
        assert i < j
        for k in range(n):
            c[i][j][k] = vec[k]
            c[j][i][k] = -vec[k]
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return LieAlgebra(n, frozen, field, label)


def abelian(n, field=QQ):
    """Family I: all brackets vanish."""
    return _table(n, field, {}, f"I(dim {n})")


def family_ii(alpha, beta, field=QQ, _label=None, strict=True):
    """Family II: [e1,e2]=e3, [e2,e3]=alpha e1, [e3,e1]=beta e2.

    The classified regime needs alpha*beta != 0; pass strict=False to build
    the same table with other parameters (alpha=beta=0 is family III).
    """
    alpha = _as_scalar(alpha, field)
    beta = _as_scalar(beta, field)
    if strict and not (alpha and beta):
        raise ValueError("family II needs alpha*beta != 0 (alpha=beta=0 is family III)")
    zero, one = field.zero(), field.one()
    entries = {
        (0, 1): [zero, zero, one],      # [e1,e2] = e3
        (1, 2): [alpha, zero, zero],    # [e2,e3] = alpha e1
        (0, 2): [zero, -beta, zero],    # [e1,e3] = -beta e2, i.e. [e3,e1] = beta e2
    }
    label = _label or f"II(alpha={show(alpha)}, beta={show(beta)})"
    return _table(3, field, entries, label)


def family_iii(field=QQ):
    """Family III, the Heisenberg algebra: [e1,e2]=e3, e3 central."""
    zero = field.zero()
    return family_ii(zero, zero, field, _label="III", strict=False)


def solvable_table(beta, delta, field=QQ, _label=None):
    """The dim-3 solvable table [e1,e3]=e1+beta e2, [e2,e3]=delta e2.

    Families IV (delta != 0) and V (beta = delta = 0) both live here; the
    classification regimes are keyed on (beta, delta), so enumeration code
    wants the raw table for any parameters.
    """
    beta = _as_scalar(beta, field)
    delta = _as_scalar(delta, field)
    zero, one = field.zero(), field.one()
    entries = {
        (0, 2): [one, beta, zero],     # [e1,e3] = e1 + beta e2
        (1, 2): [zero, delta, zero],   # [e2,e3] = delta e2
    }
    label = _label or f"solvable(beta={show(beta)}, delta={show(delta)})"
    return _table(3, field, entries, label)


def family_iv(beta, delta, field=QQ):
    """Family IV: the solvable table with delta != 0."""
    delta_s = _as_scalar(delta, field)
    if not delta_s:
        raise ValueError("family IV needs delta != 0 (beta=delta=0 is family V)")
    beta_s = _as_scalar(beta, field)
    label = f"IV(beta={show(beta_s)}, delta={show(delta_s)})"
    return solvable_table(beta_s, delta_s, field, _label=label)


def family_v(field=QQ):
    """Family V: the solvable table with beta = delta = 0."""
    zero = field.zero()
    return solvable_table(zero, zero, field, _label="V")


def family_vi(field=QQ):
    """Family VI, the nonabelian dim-2 algebra: [e1,e2]=e1."""
    zero, one = field.zero(), field.one()
    entries = {(0, 1): [one, zero]}
    return _table(2, field, entries, "VI")


def sl2(field=QQ):
    """sl(2) in the standard symmetric/antisymmetric/diagonal basis.

    [e1,e2]=e3, [e2,e3]=4 e1, [e3,e1]=-4 e2: the family II table with
    alpha=4, beta=-4.
    """
    four = field.from_int(4)
    return family_ii(four, -four, field, _label="sl2")


def from_constants(n, c_entries, field, label=None):
    """Custom algebra from a full constant list [(i, j, k, scalar), ...], 0-based.

    Antisymmetry is verified (it is part of what makes the table a candidate
    Lie algebra); Jacobi is NOT verified here, run check_jacobi.
    """
    zero = field.zero()
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, val in c_entries:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"index out of range in constant ({i},{j},{k})")
        c[i][j][k] = val
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    raise ValueError(
                        f"antisymmetry violated at c[{i+1}][{j+1}][{k+1}]")
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return LieAlgebra(n, frozen, field, label)


def check_jacobi(L):
    """Violations of [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0.

    Returns [] iff the table is a Lie algebra (antisymmetry is already
    enforced structurally).  Each violation is ((i, j, k), residual vector)
    with 1-based indices, i < j < k.
    """
    out = []
    for i in range(L.n):
        for j in range(i + 1, L.n):
            for k in range(j + 1, L.n):
                ei, ej, ek = (L.basis_vector(m) for m in (i, j, k))
                acc = [
                    a + b + c
                    for a, b, c in zip(
                        L.bracket(L.bracket(ei, ej), ek),
                        L.bracket(L.bracket(ej, ek), ei),
                        L.bracket(L.bracket(ek, ei), ej),
                    )
                ]
                if any(acc):
                    out.append(((i + 1, j + 1, k + 1), tuple(acc)))
    return out


class Family(NamedTuple):
    """A built-in family: its constructor, called as build(*params, field),
    the names of its parameters, and its dimension and brackets as
    `cybe families` prints them."""

    build: Callable
    params: tuple
    dim: object
    bracket: str


FAMILIES = {
    "I": Family(abelian, ("dim",), "any (default 3)",
                "abelian: every bracket vanishes"),
    "II": Family(family_ii, ("alpha", "beta"), 3,
                 "[e1,e2]=e3, [e2,e3]=alpha e1, [e3,e1]=beta e2 "
                 "(alpha*beta != 0)"),
    "III": Family(family_iii, (), 3,
                  "[e1,e2]=e3, e3 central (the II table at alpha=beta=0)"),
    "IV": Family(family_iv, ("beta", "delta"), 3,
                 "[e1,e3]=e1+beta e2, [e2,e3]=delta e2 (delta != 0)"),
    "V": Family(family_v, (), 3,
                "[e1,e3]=e1 (the solvable table at beta=delta=0)"),
    "VI": Family(family_vi, (), 2, "[e1,e2]=e1"),
    "sl2": Family(sl2, (), 3, "the II table at alpha=4, beta=-4"),
}


def make_family(name, field=QQ, **params):
    """Dispatch on a family name; params are ints or field scalars.

    Each family takes exactly the parameters FAMILIES names, except that
    I's dim defaults to 3.
    """
    family = FAMILIES.get(name)
    if family is None:
        raise ValueError(f"unknown family {clip(repr(name))} "
                         f"(have {sorted(FAMILIES)})")
    if name == "I":
        params.setdefault("dim", 3)
    try:
        args = [params.pop(param) for param in family.params]
    except KeyError as e:
        raise ValueError(f"family {name} needs parameter {e.args[0]}") from None
    if params:
        raise ValueError(
            f"unexpected family parameters {clip(str(sorted(params)))}")
    return family.build(*args, field)


def _as_scalar(v, field):
    if isinstance(v, int):
        return field.from_int(v)
    if not field.contains(v):
        raise FieldError(f"scalar {v!r} does not live in {field!r}")
    return v
