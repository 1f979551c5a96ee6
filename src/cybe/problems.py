"""Problem files: the JSON input format of the CLI, and report serialization.

A problem file is one JSON object:

    {
      "field":   {"kind": "rational"} | {"kind": "prime", "p": 5},
      "algebra": {"family": "II", "params": {"alpha": "1", "beta": "-4"}}
               | {"dim": 3, "brackets": [[1, 2, ["0", "0", "1"]], ...]},
      "tensor":  {"entries": [[1, 2, "1/2"], ...], "named": {"p": "2"}},
      "tensors": [ <tensor object>, ... ],
      "options": {"case": "strong-z", "params": {...}, "budget": 64000000,
                  "timing": false, "list_solutions": false}
    }

Every scalar is a JSON string ("-4", "1/2"); bare numbers are rejected so
floats can never sneak in.  The nonzero scalars of one tensor, and those of
the algebra, have at most SCALAR_CAP characters in all.  Indices are
1-based.  In "brackets", entry [i, j, coeffs] gives [e_i, e_j] for i < j as
a coefficient vector; the mirrored constants are filled in automatically.
Tensor entries may also use the dim-3 coefficient names x y z p q s t u v
(dim 2: x y p q); a named alias and an explicit entry for the same cell is
a duplicate and an error.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from json.encoder import encode_basestring
from types import GeneratorType

from .liealg import _table, make_family
from .scalars import FieldError, clip, make_field
from .tensor import NAMED_CELLS, Tensor2

# Larger dims are refused before any table is built: `check` of one tensor
# on the abelian table at dim 16 takes 48 ms in process (2-CPU VM, Python
# 3.11), 42 ms of it `check_jacobi`.
MAX_DIM = 16

# The nonzero scalars of one group (a tensor; the algebra's brackets or its
# family's parameters; the generator parameters) have at most SCALAR_CAP
# characters of text in all.  A value a report prints is a sum of at most
# 12 n^3 products of at most two scalars of a tensor and two of the algebra
# (a co-Jacobi entry; others have fewer, and a generated entry such as
# s^2/z or alpha z is one product of at most three), so its numerator and
# denominator each have at most 2 * 1000 + 2 * 1000 + 5 digits, within
# Python's limit of 4,300 on str() of an int.
SCALAR_CAP = 1000


class ProblemError(ValueError):
    """Malformed problem file (schema, indices, coefficient format)."""


@dataclass
class Problem:
    field: object
    algebra: object  # LieAlgebra or None
    tensors: list
    options: dict


def _expect_dict(obj, what):
    if not isinstance(obj, dict):
        raise ProblemError(f"{what} must be a JSON object")
    return obj


def _only(obj, keys, what):
    extra = set(obj) - keys
    if extra:
        raise ProblemError(f"unknown {what} keys: {clip(str(sorted(extra)))}")


class ScalarRoom:
    """The characters of SCALAR_CAP left to the nonzero scalars of one
    group, which `scalar` parses one by one."""

    def __init__(self, group):
        self.left, self.group = SCALAR_CAP, group

    def scalar(self, text, field, where):
        """text as a scalar of the field, its characters taken from the
        room when it is nonzero.  A text longer than the room left is
        refused before it is parsed."""
        if not isinstance(text, str):
            raise ProblemError(
                f"{where}: coefficients must be strings, got "
                f"{type(text).__name__} ({clip(repr(text))})")
        if len(text) > self.left:
            raise ProblemError(
                f"{where}: {clip(repr(text))} takes the scalars of "
                f"{self.group} past the cap of {SCALAR_CAP} characters")
        try:
            value = field.parse(text)
        except FieldError as e:
            raise ProblemError(f"{where}: {e}") from None
        if value:
            self.left -= len(text)
        return value


def parse_field(obj):
    obj = _expect_dict(obj, '"field"')
    kind = obj.get("kind")
    _only(obj, {"kind", "p"}, '"field"')
    try:
        return make_field(kind, obj.get("p"))
    except FieldError as e:
        raise ProblemError(str(e)) from None


def parse_algebra(obj, field):
    obj = _expect_dict(obj, '"algebra"')
    if "family" in obj:
        _only(obj, {"family", "params"}, '"algebra"')
        params_in = obj.get("params", {})
        _expect_dict(params_in, '"algebra.params"')
        params, room = {}, ScalarRoom("the algebra")
        for name, val in params_in.items():
            if name == "dim":
                # type() rather than isinstance(): JSON true is not an int
                if type(val) is not int or not 1 <= val <= MAX_DIM:
                    raise ProblemError(
                        f'"dim" must be an integer from 1 to {MAX_DIM}')
                params[name] = val
            else:
                params[name] = room.scalar(val, field,
                                           f"algebra param {clip(name)}")
        try:
            return make_family(obj["family"], field, **params)
        except (FieldError, ValueError, TypeError) as e:
            raise ProblemError(f"bad algebra spec: {e}") from None
    if "brackets" in obj or "dim" in obj:
        _only(obj, {"dim", "brackets"}, '"algebra"')
        n = obj.get("dim")
        if type(n) is not int or not 1 <= n <= MAX_DIM:
            raise ProblemError('"algebra.dim" must be a positive integer '
                               f'of at most {MAX_DIM}')
        brackets = obj.get("brackets", [])
        if not isinstance(brackets, list):
            raise ProblemError('"algebra.brackets" must be a list')
        entries, room = {}, ScalarRoom("the algebra")
        for ent in brackets:
            if (not isinstance(ent, list) or len(ent) != 3
                    or type(ent[0]) is not int
                    or type(ent[1]) is not int
                    or not isinstance(ent[2], list)):
                raise ProblemError("bracket entries are [i, j, [coeffs]], "
                                   f"got {clip(repr(ent))}")
            i, j, coeffs = ent
            if not (1 <= i < j <= n):
                raise ProblemError(
                    f"bracket indices need 1 <= i < j <= {n}, got "
                    f"{clip(f'({i}, {j})')}")
            if len(coeffs) != n:
                raise ProblemError(
                    f"bracket [{i}, {j}] needs {n} coefficients")
            vec = [room.scalar(cstr, field, f"bracket [{i}, {j}]")
                   for cstr in coeffs]
            if (i - 1, j - 1) in entries:
                raise ProblemError(f"duplicate bracket for ({i}, {j})")
            entries[(i - 1, j - 1)] = vec
        return _table(n, field, entries, "custom")
    raise ProblemError(
        '"algebra" needs either "family" or "dim"+"brackets"')


def parse_tensor(obj, n, field):
    obj = _expect_dict(obj, "tensor")
    _only(obj, {"entries", "named"}, "tensor")
    seen, room = {}, ScalarRoom("one tensor")
    entries = obj.get("entries", [])
    if not isinstance(entries, list):
        raise ProblemError('"entries" must be a list')
    for ent in entries:
        if not isinstance(ent, list) or len(ent) != 3:
            raise ProblemError(
                f'tensor entries are [i, j, "coeff"], got {clip(repr(ent))}')
        i, j, text = ent
        if type(i) is not int or type(j) is not int:
            raise ProblemError(
                f"tensor entry indices must be ints: {clip(repr(ent))}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ProblemError(f"tensor entry {clip(f'({i}, {j})')} "
                               f"out of range for dim {n}")
        if (i, j) in seen:
            raise ProblemError(f"duplicate tensor entry ({i}, {j})")
        seen[(i, j)] = room.scalar(text, field, f"tensor entry ({i}, {j})")
    named = obj.get("named", {})
    _expect_dict(named, '"named"')
    for name, text in named.items():
        cell = NAMED_CELLS.get(name)
        if cell is None:
            raise ProblemError(
                f"unknown coefficient name {clip(repr(name))}")
        if cell[0] > n or cell[1] > n:
            raise ProblemError(
                f"coefficient {name!r} needs dim {max(cell)}, have {n}")
        if cell in seen:
            raise ProblemError(
                f"duplicate tensor entry ({cell[0]}, {cell[1]}) via {name!r}")
        seen[cell] = room.scalar(text, field, f"coefficient {name}")
    return Tensor2.from_entries(
        n, field, {(i - 1, j - 1): v for (i, j), v in seen.items()})


def parse_problem(doc):
    doc = _expect_dict(doc, "problem file")
    _only(doc, {"field", "algebra", "tensor", "tensors", "options"},
          "top-level")
    if "field" not in doc:
        raise ProblemError('problem file needs a "field"')
    field = parse_field(doc["field"])
    algebra = None
    if "algebra" in doc:
        algebra = parse_algebra(doc["algebra"], field)
    tensors = []
    if "tensor" in doc and "tensors" in doc:
        raise ProblemError('give either "tensor" or "tensors", not both')
    if algebra is not None:
        tensor_objs = ([doc["tensor"]] if "tensor" in doc
                       else doc.get("tensors", []))
        if not isinstance(tensor_objs, list):
            raise ProblemError('"tensors" must be a list')
        tensors = [parse_tensor(t, algebra.n, field) for t in tensor_objs]
    elif "tensor" in doc or "tensors" in doc:
        raise ProblemError("tensors need an algebra (for the dimension)")
    options = doc.get("options", {})
    _expect_dict(options, '"options"')
    return Problem(field=field, algebra=algebra, tensors=tensors,
                   options=options)


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ProblemError(f"cannot read {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ProblemError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise ProblemError(f"{path} nests too deeply") from None
    return parse_problem(doc)


# ---------------------------------------------------------------------------
# canonical echo / serialization

def tensor_obj(r):
    return {"entries": [[i + 1, j + 1, str(v)]
                        for (i, j), v in r.entries()]}


def algebra_obj(L):
    return {
        "label": L.label,
        "dim": L.n,
        "constants": [[i + 1, j + 1, m + 1, str(v)]
                      for i, j, m, v in L.nonzero_constants()],
    }


def tensor_objs(digits, n, p):
    """`tensor_obj` of each grid in `digits`, an (N, n*n) array of base-p
    digits with one grid per row, row-major (`exhaustive.decode_ids`):
    the nonzero cells, each as the str of its canonical residue.  A
    generator, so a listing holds one solution's objects at a time.

    Each of the n*n*(p - 1) possible entries is one tuple, made once and
    shared by every grid that has it, so `dumps_report` writes its text
    once and then looks it up.  These entries never outnumber the listed
    solutions: every Lie table has at least p**n solutions (the strongly
    symmetric grids v (x) v), which for odd p is at least n*n*(p - 1), and
    a listing has at most `cli.LIST_SOLUTIONS_CAP` of them, so in dims 2
    and 3 there are at most about 1,300 entries."""
    table = [[None] + [(i + 1, j + 1, str(d)) for d in range(1, p)]
             for i in range(n) for j in range(n)]
    for row in digits:
        yield {"entries": [cell[d] for cell, d in zip(table, row.tolist())
                           if d]}


def dumps_report(report):
    """The report as JSON text: byte for byte
    json.dumps(report, indent=2, ensure_ascii=False) + "\n", so two-space
    indent, non-ASCII characters as they are, keys in insertion order and
    a trailing newline, written by `_write_json` into one buffer.  The
    text of a tuple (a witness cell, a listing entry) and the head of a
    [tuple, str] pair (a residual or witness entry) are made once per
    (tuple, indent) of one report, and each pair is written in one piece.

    Under any indent json runs its pure-Python generator, which takes
    about 2.6 times as long as `_write_json` on report-shaped values.
    """
    buf = io.StringIO()
    _write_json(report, "\n", buf.write, {})
    buf.write("\n")
    return buf.getvalue()


def _tuple_text(obj, nl, memo):
    """The text of the tuple obj starting on the line of newline and indent
    nl, made once per (tuple, nl) of one report: witness cells are the
    shared tuples of `solve._grid_cells`, repeated thousands of times.
    memo is keyed by id and holds obj, so no other object takes its id
    while memo lives, and a tuple holding a dict needs no hash."""
    key = (id(obj), nl)
    hit = memo.get(key)
    if hit is None:
        parts = []
        _write_json(obj, nl, parts.append, memo)
        hit = memo[key] = (obj, "".join(parts))
    return hit[1]


def _pair_text(pair, nl, memo):
    """The text of a [tuple, str] pair starting on the line of newline and
    indent nl: a residual or witness entry [cell, "value"].  Its head, up
    to the str, is made once per (tuple, nl) of one report and kept in
    memo as `_tuple_text` keeps the tuple's own text."""
    cell, value = pair
    key = (id(cell), nl, "pair")
    hit = memo.get(key)
    if hit is None:
        inner = nl + "  "
        hit = memo[key] = (cell, "[" + inner + _tuple_text(cell, inner, memo)
                           + "," + inner, nl + "]")
    return hit[1] + encode_basestring(value) + hit[2]


def _write_json(obj, nl, add, memo):
    """Write the text of `obj` through `add` in pieces: a dict with str
    keys, or a list, tuple or generator, as an array; `nl` is the newline
    and indent of the line `obj` starts on, and `memo` holds the text of
    the tuples inside it (`_tuple_text`) and the heads of its
    [tuple, str] pairs (`_pair_text`).  Scalars are the texts json
    writes: str through its C string encoder, int through int.__repr__,
    float through json.dumps (NaN and the infinities as json spells
    them).  Raises TypeError on a non-str key or on any other type, and
    RecursionError on a cycle."""
    inner = nl + "  "
    sep = "," + inner
    t = type(obj)
    if t is list or t is tuple or t is GeneratorType:
        head = first = "[" + inner
        for v in obj:
            t = type(v)
            if t is str:
                add(head + encode_basestring(v))
            elif t is int:
                add(head + int.__repr__(v))
            elif t is bool:
                add(head + ("true" if v else "false"))
            elif v is None:
                add(head + "null")
            elif t is float:
                add(head + json.dumps(v))
            elif t is tuple:
                add(head + _tuple_text(v, inner, memo))
            elif (t is list and len(v) == 2 and type(v[0]) is tuple
                  and type(v[1]) is str):
                add(head + _pair_text(v, inner, memo))
            else:
                add(head)
                _write_json(v, inner, add, memo)
            head = sep
        add("[]" if head is first else nl + "]")
    elif t is dict:
        head = first = "{" + inner
        for k, v in obj.items():
            if type(k) is not str:
                raise TypeError("json converts non-str keys")
            key = head + encode_basestring(k) + ": "
            t = type(v)
            if t is str:
                add(key + encode_basestring(v))
            elif t is int:
                add(key + int.__repr__(v))
            elif t is bool:
                add(key + ("true" if v else "false"))
            elif v is None:
                add(key + "null")
            elif t is float:
                add(key + json.dumps(v))
            elif t is tuple:
                add(key + _tuple_text(v, inner, memo))
            else:
                add(key)
                _write_json(v, inner, add, memo)
            head = sep
        add("{}" if head is first else nl + "}")
    else:
        raise TypeError(f"not a dict or an array: {t.__name__}")
