import operator
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cybe import QQ, FieldError, ModP, PrimeField
from cybe.scalars import clip, is_prime, make_field

primes = st.sampled_from([3, 5, 7, 11, 13, 97])
ints = st.integers(min_value=-10**6, max_value=10**6)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2**31 - 1)


SMALL_PRIMES = [d for d in range(2, 448) if all(d % e for e in range(2, d))]


def by_trial_division(n):
    """Primality for n < 448**2 by trial division."""
    return n >= 2 and all(n % d for d in SMALL_PRIMES if d * d <= n)


def test_is_prime_matches_trial_division_below_200000():
    assert all(is_prime(n) == by_trial_division(n) for n in range(200_000))


@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to the first one, four and nine prime bases
    assert not is_prime(n)
    with pytest.raises(FieldError, match="not prime"):
        PrimeField(n)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_large_mersenne_primes_are_accepted_fast(p):
    t0 = time.perf_counter()
    assert PrimeField(p).p == p
    assert time.perf_counter() - t0 < 0.1


def test_prime_field_ceiling():
    # 2^64 + 13 is prime, but past where the Miller-Rabin bases are exact
    with pytest.raises(FieldError, match="below 2\\*\\*64"):
        PrimeField(2**64 + 13)
    assert PrimeField(2**64 - 59).p == 2**64 - 59   # the largest below


@given(primes, ints, ints)
def test_modp_ring_ops_match_int_arithmetic(p, a, b):
    x, y = ModP(a, p), ModP(b, p)
    assert (x + y).val == (a + b) % p
    assert (x - y).val == (a - b) % p
    assert (x * y).val == (a * b) % p
    assert (-x).val == (-a) % p
    assert (x ** 3).val == pow(a, 3, p)


@given(primes, ints, ints)
def test_modp_division(p, a, b):
    if b % p == 0:
        with pytest.raises(ZeroDivisionError):
            ModP(a, p) / ModP(b, p)
    else:
        q = ModP(a, p) / ModP(b, p)
        assert (q * ModP(b, p)).val == a % p


def test_modp_int_mixing():
    x = ModP(2, 5)
    assert x + 4 == 1
    assert 4 + x == 1
    assert 3 - x == 1
    assert x * 3 == 1
    assert 1 / x == 3
    assert x == 7 and x == -3


def test_modp_mixed_moduli_rejected():
    with pytest.raises(FieldError):
        ModP(1, 3) + ModP(1, 5)
    with pytest.raises(FieldError):
        ModP(1, 3) * ModP(1, 5)


@pytest.mark.parametrize("other", [Fraction(1), 1.0],
                         ids=["Fraction", "float"])
def test_modp_refuses_what_it_cannot_coerce(other):
    # every arithmetic operator, in both orders, and equality: a residue
    # has no value in Q or in the floats, not even 1
    x = ModP(1, 5)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.pow):
        for a, b in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(a, b)
    assert (x == other) is False


def test_modp_hash_and_bool():
    assert hash(ModP(2, 5)) == hash(ModP(7, 5))
    assert not ModP(0, 5)
    assert ModP(5, 5) == 0
    assert int(ModP(9, 7)) == 2


def test_prime_field_construction():
    with pytest.raises(FieldError):
        PrimeField(2)
    with pytest.raises(FieldError):
        PrimeField(9)
    with pytest.raises(FieldError):
        PrimeField(1)
    f = PrimeField(7)
    assert f.one() + f.from_int(6) == 0
    assert f == PrimeField(7) and f != PrimeField(5) and f != QQ


def test_make_field():
    assert make_field("rational") is QQ
    assert make_field("prime", 5) == PrimeField(5)
    with pytest.raises(FieldError):
        make_field("prime")
    with pytest.raises(FieldError):
        make_field("rational", 5)
    with pytest.raises(FieldError):
        make_field("real")


def test_rational_parse():
    assert QQ.parse("-4") == Fraction(-4)
    assert QQ.parse("1/2") == Fraction(1, 2)
    assert QQ.parse("-6/4") == Fraction(-3, 2)
    assert QQ.parse(" 3 ") == Fraction(3)
    for bad in ("1/0", "1/-2", "0.5", "1e3", "a", "", "1/2/3"):
        with pytest.raises(FieldError):
            QQ.parse(bad)


def test_prime_parse():
    f = PrimeField(5)
    assert f.parse("-4") == 1
    assert f.parse("7") == 2
    with pytest.raises(FieldError):
        f.parse("1/2")
    with pytest.raises(FieldError):
        f.parse("x")


@given(st.fractions(max_denominator=1000))
def test_rational_round_trip(x):
    assert QQ.parse(str(x)) == x


@given(primes, ints)
def test_prime_round_trip(p, a):
    f = PrimeField(p)
    v = f.from_int(a)
    assert f.parse(str(v)) == v


RENDER_FIELDS = [QQ, PrimeField(3), PrimeField(101), PrimeField(2**64 - 59)]


@given(st.sampled_from(RENDER_FIELDS),
       st.lists(st.integers(-10**30, 10**30).filter(bool), min_size=1,
                max_size=8),
       st.integers(1, 10**12), st.integers(0, 3))
def test_render_writes_the_text_of_each_unlifted_value(field, ints, scale,
                                                       shared):
    # v / scale as str() of the scalar gives it, without making the scalar:
    # over Q "n" or "n/d" in lowest terms, scales sharing factors with v
    # included; over F_p the residue, for every scale the field inverts
    if shared:
        scale *= ints[0] ** shared
    scale = abs(scale)
    if field is not QQ:
        assume(scale % field.p)
    assert field.render(ints, scale) == [str(field.unlift(v, scale))
                                         for v in ints]


# parse_ints, the one grammar of scalar text, against the parsers it
# replaced, kept here as written before it: the same texts accepted with
# the same values, the same refused with the same messages

def reference_rational_parse(text):
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        d = None
    if d == 0:
        raise FieldError(f"zero denominator in {clip(repr(text))}")
    if d is None or d < 0:
        raise FieldError(f"malformed rational {clip(repr(text))}")
    return Fraction(n, d)


def reference_prime_parse(text, p):
    text = text.strip()
    try:
        n = int(text)
    except ValueError:
        raise FieldError(f"malformed residue {clip(repr(text))} "
                         f"for F_{p}") from None
    return ModP(n, p)


# what int() quietly accepts (signs, blanks, underscores, non-ASCII
# digits), what the grammar refuses, and residues outside 0..p-1
TRICKY_TEXTS = ["-0", "+3", " 3 ", "3 / 4", "1/+2", "1_000", "٣",
                "٣/٤", "4/2", "-6/4", "1/-2", "1/0", "0/5", "-0/7",
                "1/2/3", "", " ", "/", "1/", "/2", "0.5", "1e3", "a", "_1",
                "1__0", "7", "-7", "97", "-98", "10000000000000000000001",
                "\t-12\n", " 5"]
scalar_texts = (st.sampled_from(TRICKY_TEXTS)
                | st.text(st.sampled_from("0123456789-+/ _٣x."),
                          max_size=8)
                | st.builds(lambda n, d, s: f"{n}{s}{d}", ints,
                            st.integers(-30, 10 ** 6),
                            st.sampled_from(["/", " / ", "/+"]))
                | ints.map(str))


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except FieldError as e:
        return "refused", str(e)


def reads_as_the_reference_rational(text):
    kind, want = outcome(reference_rational_parse, text)
    got = outcome(QQ.parse_ints, text)
    if kind == "refused":
        assert got == (kind, want)
        return
    assert got == ("ok", (want.numerator, want.denominator))
    assert QQ.parse(text) == want
    assert QQ.render([want.numerator], want.denominator) == [str(want)]


def reads_as_the_reference_residue(p, text):
    f = PrimeField(p)
    kind, want = outcome(lambda t: reference_prime_parse(t, p), text)
    got = outcome(f.parse_ints, text)
    if kind == "refused":
        assert got == (kind, want)
        return
    assert got == ("ok", (want.val, 1)) and 0 <= want.val < p
    assert f.parse(text) == want
    assert f.render([want.val], 1) == [str(want)]


@given(scalar_texts)
def test_rational_parse_ints_is_the_reference_grammar(text):
    reads_as_the_reference_rational(text)


@given(primes, scalar_texts)
def test_prime_parse_ints_is_the_reference_grammar(p, text):
    reads_as_the_reference_residue(p, text)


@pytest.mark.parametrize("text", TRICKY_TEXTS)
def test_tricky_texts_read_as_the_reference_reads_them(text):
    # each of the examples, whatever the property tests draw
    reads_as_the_reference_rational(text)
    for p in (5, 97):
        reads_as_the_reference_residue(p, text)
