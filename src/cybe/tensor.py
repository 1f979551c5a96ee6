"""Elements of L(x)L and L(x)L(x)L over an exact field.

Tensor2 holds r = sum k[i][j] e_i (x) e_j as a dense n x n grid; Tensor3 the
analogous n x n x n grid.  Grids are 0-based internally; anything that names
basis vectors in reports is 1-based (e_1..e_n).

A Tensor2 has two forms of its grid: the scalars k, and the lifted ints
(`Tensor2.lifted`) that every kernel of `solve` and `bialgebra` reads.  One
made from its scalars (`Tensor2(n, k, field)`) lifts them when first asked;
one made from its ints (`Tensor2.from_ints`, as a problem file's tensors
are) has them from birth and builds k only when something reads it.

For n = 3 a tensor exposes the conventional single-letter view of its grid
    x=k11 y=k22 z=k33 p=k12 q=k21 s=k13 t=k31 u=k23 v=k32
read-only, so reports and tests can speak that language.  NAMED_CELLS is
the one table of these names: the properties are made from it.

The symmetry predicates (is_strongly_symmetric, is_skew_symmetric,
is_alpha_beta_skew) are evaluations of solution-label records and live in
`solve` with them.
"""

from __future__ import annotations


# 1-based (row, column) of each named dim-3 coefficient
NAMED_CELLS = {
    "x": (1, 1), "y": (2, 2), "z": (3, 3),
    "p": (1, 2), "q": (2, 1),
    "s": (1, 3), "t": (3, 1),
    "u": (2, 3), "v": (3, 2),
}


class Tensor2:
    __slots__ = ("n", "_k", "field", "_lifted", "_verdicts")

    def __init__(self, n, k, field):
        self.n = n
        self._k = k  # tuple of tuples, 0-based
        self.field = field
        self._lifted = self._verdicts = None

    @classmethod
    def from_ints(cls, n, field, ints, scale):
        """The tensor whose flat row-major grid is ints / scale, lifted
        from birth: ints and scale must be what the field's `lift` gives
        of that grid (canonical residues and 1 over F_p; over Q the
        numerators over the lcm of the reduced denominators).  Its scalar
        grid k is built when first read."""
        r = cls(n, None, field)
        r._lifted = ints, scale
        return r

    @property
    def k(self):
        """The grid as a tuple of rows of field scalars, 0-based."""
        if self._k is None:
            ints, scale = self._lifted
            n, unlift = self.n, self.field.unlift
            vals = [unlift(v, scale) for v in ints]
            self._k = tuple(tuple(vals[i:i + n]) for i in range(0, n * n, n))
        return self._k

    def lifted(self):
        """The grid as flat row-major ints over their common denominator,
        and that denominator (the field's `lift`), made once: the integer
        kernels and forms of `solve` and `bialgebra` all read it, and the
        grid never changes.  Callers must not change the list."""
        if self._lifted is None:
            self._lifted = self.field.lift([v for row in self.k for v in row])
        return self._lifted

    def verdicts(self):
        """The dict in which `solve` keeps the label records' verdicts on
        this grid, made once, so each record is decided once per grid."""
        if self._verdicts is None:
            self._verdicts = {}
        return self._verdicts

    @classmethod
    def from_entries(cls, n, field, entries):
        """Grid from {(i, j): scalar} with 0-based indices; the rest zero."""
        z = field.zero()
        k = [[z] * n for _ in range(n)]
        for (i, j), val in entries.items():
            k[i][j] = val
        return cls(n, tuple(tuple(row) for row in k), field)

    @classmethod
    def from_rows(cls, rows, field):
        n = len(rows)
        return cls(n, tuple(tuple(row) for row in rows), field)

    def entries(self):
        """Nonzero entries as ((i, j), value), 0-based, row-major."""
        return [
            ((i, j), self.k[i][j])
            for i in range(self.n)
            for j in range(self.n)
            if self.k[i][j]
        ]

    def is_zero(self):
        return not any(self.lifted()[0])

    def __eq__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.n == other.n and self.k == other.k

    def __hash__(self):
        return hash(self.k)

    def __repr__(self):
        terms = [f"k[{i+1}][{j+1}]={v}" for (i, j), v in self.entries()]
        return "Tensor2(" + (", ".join(terms) if terms else "0") + ")"


def _named(i, j):
    """Read-only property for the named coefficient at 1-based cell (i, j);
    the ones in row or column 3 need a grid of dimension 3."""
    def get(self):
        if self.n < 3 <= max(i, j):
            raise ValueError("named coefficient needs dimension 3")
        return self.k[i - 1][j - 1]
    return property(get)


for _name, _cell in NAMED_CELLS.items():
    setattr(Tensor2, _name, _named(*_cell))


class Tensor3:
    __slots__ = ("n", "t", "field")

    def __init__(self, n, t, field):
        self.n = n
        self.t = t  # t[i][j][m], tuple^3, 0-based
        self.field = field

    def entries(self):
        """Nonzero entries as ((i, j, m), value), 0-based, lexicographic."""
        return [
            ((i, j, m), self.t[i][j][m])
            for i in range(self.n)
            for j in range(self.n)
            for m in range(self.n)
            if self.t[i][j][m]
        ]

    def is_zero(self):
        return not self.entries()

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.n == other.n and self.t == other.t

    def __hash__(self):
        return hash(self.t)

    def __repr__(self):
        terms = [f"t[{i+1}][{j+1}][{m+1}]={v}" for (i, j, m), v in self.entries()]
        return "Tensor3(" + (", ".join(terms) if terms else "0") + ")"


def twist_tau(r):
    """tau: x(x)y -> y(x)x, i.e. transpose of the grid."""
    return Tensor2(
        r.n,
        tuple(tuple(r.k[j][i] for j in range(r.n)) for i in range(r.n)),
        r.field,
    )


def cycle_xi(t):
    """xi: x(x)y(x)z -> y(x)z(x)x on simple tensors.

    On coefficients: the result's entry at (a, b, c) is t[c][a][b] (the
    coefficient that moved there came from the last leg).
    """
    n = t.n
    return Tensor3(
        n,
        tuple(
            tuple(
                tuple(t.t[c][a][b] for c in range(n)) for b in range(n)
            )
            for a in range(n)
        ),
        t.field,
    )


def determinant(rows, field):
    """Exact determinant by elimination over the field, O(n^3)."""
    m = [[field.zero() + v for v in row] for row in rows]
    n, det = len(m), field.one()
    for c in range(n):
        at = next((i for i in range(c, n) if m[i][c]), None)
        if at is None:
            return field.zero()
        if at != c:
            m[c], m[at] = m[at], m[c]
            det = -det
        pivot = m[c]
        det = det * pivot[c]
        for row in m[c + 1:]:
            if row[c]:
                f = row[c] / pivot[c]
                for j in range(c + 1, n):
                    row[j] = row[j] - f * pivot[j]
    return det


def change_basis(r, q_rows):
    """Coefficients of r in the primed basis e_i = sum_s e'_s q[s][i].

    result[s][t] = sum_{i,j} k[i][j] q[s][i] q[t][j].  q must be invertible
    (checked via exact determinant).
    """
    n = r.n
    if len(q_rows) != n or any(len(row) != n for row in q_rows):
        raise ValueError(f"need an {n}x{n} grid")
    if not determinant(q_rows, r.field):
        raise ValueError("singular change of basis")
    zero = r.field.zero()
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            kij = r.k[i][j]
            if not kij:
                continue
            for s in range(n):
                qsi = q_rows[s][i]
                if not qsi:
                    continue
                coef = kij * qsi
                for t in range(n):
                    if q_rows[t][j]:
                        out[s][t] = out[s][t] + coef * q_rows[t][j]
    return Tensor2(n, tuple(tuple(row) for row in out), r.field)
