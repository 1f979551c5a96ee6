"""The CYBE residual of the two parametric dim-3 tables, transcribed.

For the II table and the solvable table the residual grid is written out as
an explicit quadratic system in the named coefficients (x y z p q s t u v).
Each entry is (cell, polynomial): the polynomial equals the residual
coefficient at that 1-based cell, exactly.  These lists are validation
targets for the expansion engine `cybe.solve.cybe_residual` (and vice
versa), never the engine itself.
"""

from cybe.solve import recognize_table


def _ii_equations(a, b, C):
    x, y, z = C.x, C.y, C.z
    p, q, s, t, u, v = C.p, C.q, C.s, C.t, C.u, C.v
    return (
        ((1, 1, 1), a * p * t - a * q * s),
        ((2, 2, 2), b * p * u - b * q * v),
        ((3, 3, 3), t * u - v * s),
        ((1, 2, 3), a * y * z - b * x * z + x * y - a * u * v + b * s * s - p * q),
        ((2, 3, 1), b * z * x - y * x + a * y * z - b * s * t + q * q - a * u * v),
        ((3, 1, 2), x * y - a * z * y + b * z * x - p * q + a * v * v - b * s * t),
        ((1, 3, 2), -a * z * y + x * y - b * x * z + a * u * v - p * p + b * s * t),
        ((3, 2, 1), -x * y + b * x * z - a * y * z + p * q - b * t * t + a * u * v),
        ((2, 1, 3), -b * x * z + a * y * z - y * x + b * s * t - a * u * u + p * q),
        ((1, 1, 2), a * (-t * y + q * v + p * v - s * y)),
        ((2, 1, 1), a * (-u * q + y * t + y * s - u * p)),
        ((1, 1, 3), a * (q * z - t * u + p * z - s * u)),
        ((3, 1, 1), a * (v * t - z * q + v * s - z * p)),
        ((2, 2, 1), b * (-p * t + v * x + u * x - q * t)),
        ((1, 2, 2), b * (-x * v + s * p - x * u + s * q)),
        ((2, 2, 3), b * (v * s - p * z + u * s - q * z)),
        ((3, 2, 2), b * (-t * v + z * p + z * q - t * u)),
        ((3, 3, 1), s * q - u * x + t * q - v * x),
        ((3, 3, 2), -u * p + s * y - v * p + t * y),
        ((2, 3, 3), q * u - y * s + q * v - y * t),
        ((1, 3, 3), -p * s + x * u - p * t + x * v),
        ((1, 3, 1), a * u * t - a * z * q - p * x + x * q + a * p * z - a * s * v),
        ((1, 2, 1), -a * v * q + a * y * t - b * x * t + b * s * x - a * s * y + a * p * u),
        ((2, 1, 2), b * t * p - b * x * v + a * y * v - a * u * y - b * q * s + b * u * x),
        ((2, 3, 2), -b * s * v + b * z * p + q * y - y * p - b * q * z + b * u * t),
        ((3, 2, 3), p * u - y * s - b * t * z + b * z * s + t * y - v * q),
        ((3, 1, 3), -q * s + x * u + a * v * z - a * z * u + t * p - v * x),
    )


def _solvable_equations(b, d, C):
    x, y, z = C.x, C.y, C.z
    p, q, s, t, u, v = C.p, C.q, C.s, C.t, C.u, C.v
    return (
        ((1, 1, 1), -s * x + x * t),
        ((2, 2, 2), b * (-u * p + q * v) + d * (-u * y + y * v)),
        ((1, 2, 3), -v * s + p * z - b * s * s + b * x * z - d * s * u + d * z * p),
        ((2, 3, 1), -b * x * z + b * s * t - d * z * q + d * u * t - u * t + q * z),
        ((3, 1, 2), -z * p + t * v - b * z * x + b * t * s - d * z * p + d * v * s),
        ((1, 3, 2), -z * p + s * v - b * s * t + b * x * z - d * s * v + d * z * p),
        ((3, 2, 1), -b * z * x + b * t * t - d * z * q + d * v * t - z * q + t * u),
        ((2, 1, 3), -b * s * t + b * x * z - d * t * u + d * q * z - u * s + q * z),
        ((1, 1, 2), -t * p + x * v - s * p + v * x),
        ((2, 1, 1), -u * x + q * t - u * x + q * s),
        ((1, 1, 3), -s * t + x * z - s * s + x * z),
        ((3, 1, 1), -z * x + t * t - z * x + s * t),
        ((2, 2, 1), b * (-v * x + p * t - u * x + q * t) + d * (-v * q + y * t - u * q + y * t)),
        ((1, 2, 2), b * (-s * p + x * v - s * q + x * u) + d * (-s * y + p * v - s * y + p * u)),
        ((2, 2, 3), b * (-v * s + p * z - s * u + z * q) + d * (-v * u + y * z - u * u + y * z)),
        ((3, 2, 2), b * (-z * p + t * v - z * q + t * u) + d * (-z * y + v * v - z * y + v * u)),
        ((1, 2, 1), -v * x + p * t - b * s * x + b * x * t - d * s * q + d * p * t - s * q + x * u),
        ((2, 1, 2), b * (-p * t + v * x - u * x + q * s) + d * (-t * y + q * v - u * p + y * s) - u * p + q * v),
        ((2, 3, 2), b * (-z * p + s * v - u * t + q * z)),
        ((3, 2, 3), b * (-z * s + t * z) + d * (-z * u + v * z)),
        ((3, 1, 3), -z * s + t * z),
    )


_SOLVABLE_ZERO_CELLS = ((3, 3, 3), (3, 3, 1), (1, 3, 3), (3, 3, 2), (2, 3, 3), (1, 3, 1))


def family_equations(L, r):
    """Evaluate the transcribed quadratic system for L's table at r.

    Returns a list of (index, cell, value): index counts from 1 in a fixed
    documented order, cell is the 1-based residual grid cell the polynomial
    equals.  Supported tables: the dim-3 II table (any alpha, beta; 27
    equations, one per cell) and the dim-3 solvable table (any beta, delta;
    21 equations, the remaining 6 cells vanish identically).

    r holds field scalars, or int residues over a prime field: then the
    table's parameters are taken as residues too, so no field scalar is
    made and each value is an int to reduce mod p.
    """
    if r.n != L.n:
        raise ValueError(f"dimension mismatch: algebra {L.n}, tensor {r.n}")
    reg = recognize_table(L)
    if reg is None:
        raise ValueError("no transcribed system for this table")
    kind = reg[0]
    if kind == "abelian" and L.n == 3:
        # the II table with alpha = beta = 0 is NOT abelian ([e1,e2]=e3);
        # a fully abelian table has no system to evaluate
        raise ValueError("no transcribed system for the abelian table")
    params = reg[1:]
    if isinstance(r.k[0][0], int):
        params, _ = L.field.lift(params)
    if kind == "ii":
        eqs = _ii_equations(*params, r)
    elif kind == "solvable":
        eqs = _solvable_equations(*params, r)
    else:
        raise ValueError(f"no transcribed system for table {kind!r}")
    return [(idx + 1, cell, value) for idx, (cell, value) in enumerate(eqs)]


def solvable_zero_cells():
    """Residual cells that vanish identically on the solvable table."""
    return _SOLVABLE_ZERO_CELLS
