"""Exact scalar arithmetic over Q and over prime fields F_p with p odd.

Rational scalars are stdlib ``fractions.Fraction`` (always reduced, exact).
Prime-field scalars are ``ModP`` instances carrying the least non-negative
residue.  Every other module treats scalars opaquely through a field
object, ``QQ`` (the one ``RationalField``) or a ``PrimeField``: both offer
zero, one, from_int, parse, contains and to_spec, so the same code runs over
both ground fields.

The characteristic-2 exclusion is baked in: ``PrimeField(2)`` raises.

For the integer kernels of `solve` and `bialgebra` both fields also map
scalars to plain ints and back: ``lift(values)`` gives (ints, scale) with
each value = int / scale (canonical residues and scale 1 over F_p;
numerators over the least common denominator over Q); ``reduce(ints)``
canonicalizes kernel output, zero exactly where the scalar is;
``unlift(v, scale)`` is the scalar v / scale; and ``render(ints, scale)``
writes the text str(unlift(v, scale)) of each v without making the scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class FieldError(ValueError):
    """Bad field spec, malformed scalar text, or mixed-field arithmetic."""


ECHO_CAP = 80


def clip(text):
    """text as an error message echoes input: past ECHO_CAP characters,
    its head and its length, so no error line grows with the input."""
    if len(text) <= ECHO_CAP:
        return text
    return f"{text[:ECHO_CAP]}... ({len(text)} characters)"


def show(value):
    """str(value), or "..." for a scalar past Python's int-to-str digit
    limit (4,300 by default), where str() raises ValueError."""
    try:
        return str(value)
    except ValueError:
        return "..."


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 2 ** 64


def is_prime(n):
    """Deterministic Miller-Rabin on the first twelve prime bases.

    No composite below 3.18e23 is a strong pseudoprime to all of them, so
    the answer is exact for every n < PRIME_LIMIT = 2**64, the fields
    `PrimeField` accepts.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModP:
    """Residue in F_p, canonical representative in [0, p).

    Supports +, -, *, /, unary -, **, == (against ModP of the same p and
    against int, reducing the int mod p).  Arithmetic with a ModP of a
    different p raises FieldError rather than guessing.
    """

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, ModP):
            if other.p != self.p:
                raise FieldError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return ModP(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModP(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModP(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModP(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ModP(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return ModP(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return ModP(-self.val, self.p)

    def __pow__(self, e):
        # raised here: returning NotImplemented would let Fraction.__rpow__
        # compute x ** Fraction(2) as if x were rational
        if not isinstance(e, int) or e < 0:
            raise TypeError(f"a power in F_{self.p} needs an int exponent "
                            f">= 0, not {type(e).__name__}")
        return ModP(pow(self.val, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, ModP):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        # hash of the canonical residue; matches hash(int) for 0 <= val < p
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __int__(self):
        return self.val

    def __repr__(self):
        return f"ModP({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


class RationalField:
    kind = "rational"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def parse(self, text):
        """Parse "-?digits(/digits)?" into a reduced Fraction."""
        text = text.strip()
        num, slash, den = text.partition("/")
        try:
            n, d = int(num), int(den) if slash else 1
        except ValueError:
            d = None
        if d == 0:
            raise FieldError(f"zero denominator in {clip(repr(text))}")
        # keep the accepted grammar strict: denominator is digits only
        if d is None or d < 0:
            raise FieldError(f"malformed rational {clip(repr(text))}")
        return Fraction(n, d)

    def contains(self, value):
        return isinstance(value, Fraction)

    def lift(self, values):
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den

    def reduce(self, ints):
        return ints

    def unlift(self, v, scale):
        return Fraction(v, scale)

    def render(self, ints, scale):
        """The text of each v / scale, "n" or "n/d" in lowest terms as str
        of the Fraction gives it, by one gcd each; scale >= 1."""
        return [str(v // g) if (g := gcd(v, scale)) == scale
                else f"{v // g}/{scale // g}" for v in ints]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"

    def to_spec(self):
        return {"kind": "rational"}


class PrimeField:
    kind = "prime"

    def __init__(self, p):
        if isinstance(p, int) and p >= PRIME_LIMIT:
            raise FieldError(f"p must be below 2**64, got {clip(str(p))}")
        if not isinstance(p, int) or not is_prime(p):
            raise FieldError(f"{clip(repr(p))} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is excluded (p must be odd)")
        self.p = p

    def zero(self):
        return ModP(0, self.p)

    def one(self):
        return ModP(1, self.p)

    def from_int(self, n):
        return ModP(n, self.p)

    def parse(self, text):
        """Parse "-?digits" into the canonical residue mod p."""
        text = text.strip()
        try:
            n = int(text)
        except ValueError:
            raise FieldError(f"malformed residue {clip(repr(text))} "
                             f"for F_{self.p}") from None
        return ModP(n, self.p)

    def contains(self, value):
        return isinstance(value, ModP) and value.p == self.p

    def lift(self, values):
        return [int(v) % self.p for v in values], 1

    def reduce(self, ints):
        p = self.p
        return [v % p for v in ints]

    def unlift(self, v, scale):
        return ModP(v * pow(scale, -1, self.p), self.p)

    def render(self, ints, scale):
        """The text of each v / scale, its canonical residue, by one
        inverse for them all."""
        p = self.p
        inv = pow(scale, -1, p)
        return [str(v * inv % p) for v in ints]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def to_spec(self):
        return {"kind": "prime", "p": self.p}


QQ = RationalField()


def make_field(kind, p=None):
    """Field from its spec: ("rational", None) or ("prime", p)."""
    if kind == "rational":
        if p is not None:
            raise FieldError("rational field takes no p")
        return QQ
    if kind == "prime":
        if p is None:
            raise FieldError("prime field needs p")
        return PrimeField(p)
    raise FieldError(f"unknown field kind {clip(repr(kind))}")
