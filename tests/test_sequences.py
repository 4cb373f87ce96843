import math
import time

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, factorint, symbols

from polyplane.dsl import parse_poly as P
from polyplane.numtheory import _factor_degrees
from polyplane.poly import MAX_BOX_BITS, PatternPoly
from polyplane.sequences import (
    MAX_HINT_DEGREE,
    BitSeq,
    _is_odd_prime,
    _order_of_two,
    dseq,
    period,
    poly_reciprocal_seq,
)


def test_dseq_19():
    s = dseq(19, 18)
    assert str(s) == "000011010111100101"
    assert s.period_hint == 18


def test_dseq_small_primes():
    assert str(dseq(3, 4)) == "0101"
    assert str(dseq(7, 6)) == "001001"


def test_dseq_rejects_non_primes():
    for bad in (1, 2, 4, 9, 15, 21):
        with pytest.raises(ValueError):
            dseq(bad, 4)
    with pytest.raises(ValueError):
        dseq(19, 0)


def test_dseq_refuses_a_count_over_the_box_bound():
    # refused before the division, whose quotient and bit text would take over 300 MB
    with pytest.raises(ValueError, match="sequence too long"):
        dseq(7, MAX_BOX_BITS + 1)


def test_dseq_refuses_pseudoprimes():
    # a Carmichael number, a Carmichael number that is a strong pseudoprime to
    # base 2, and the least strong pseudoprime to bases 2, 3, 5 and 7
    for bad in (561, 41041, 3215031751):
        with pytest.raises(ValueError):
            dseq(bad, 4)


def test_dseq_accepts_exactly_the_odd_primes_below_5000():
    def is_odd_prime(n):
        return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))

    for n in range(-3, 5000):
        if is_odd_prime(n):
            assert len(dseq(n, 2)) == 2
        else:
            with pytest.raises(ValueError):
                dseq(n, 2)


def test_dseq_half_period_complement():
    # holds whenever 2 generates the full multiplicative group mod p
    for p in (3, 5, 11, 13, 19, 29):
        s = dseq(p, p - 1)
        assert s.period_hint == p - 1
        half = (p - 1) // 2
        for k in range(p - 1):
            assert s[k] ^ s[(k + half) % (p - 1)] == 1


def test_order_of_two_matches_stepping():
    def stepped(p):  # the least k >= 1 with 2^k = 1 mod p, one power at a time
        power, k = 2 % p, 1
        while power != 1:
            power, k = power * 2 % p, k + 1
        return k

    for p in range(3, 3000, 2):
        if _is_odd_prime(p):
            assert _order_of_two(p) == stepped(p), p


def test_dseq_hint_of_a_large_prime():
    p = 100000007
    h = dseq(p, 4).period_hint
    assert pow(2, h, p) == 1
    f, rest = 2, h
    while rest > 1:  # every prime factor f of h: 2^(h/f) != 1
        if f * f > rest:
            f = rest
        if rest % f == 0:
            assert pow(2, h // f, p) != 1
            while rest % f == 0:
                rest //= f
        f += 1


def test_lfsr_sequence_phase():
    assert str(poly_reciprocal_seq(P("1+x+x^3"), 7)) == "1110100"


def test_lfsr_degenerate_taps():
    assert str(poly_reciprocal_seq(P("1+x"), 5)) == "11111"
    assert str(poly_reciprocal_seq(P("1+x^2"), 6)) == "101010"


def test_lfsr_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        poly_reciprocal_seq(P("x+x^3"), 7)  # no constant term
    with pytest.raises(ValueError):
        poly_reciprocal_seq(P("1+x+y"), 7)  # not univariate
    with pytest.raises(ValueError):
        poly_reciprocal_seq(P("1+x"), 0)
    with pytest.raises(ValueError):
        poly_reciprocal_seq(P("1+x^-1+x"), 7)  # a negative tap is not a shift register


def test_lfsr_hint_is_the_order_of_q_even_for_a_short_prefix():
    assert poly_reciprocal_seq(P("1+x+x^3"), 3).period_hint == 7  # prefix 111 looks like period 1
    assert poly_reciprocal_seq(P("1"), 5).period_hint is None  # 10000 never repeats


def test_lfsr_hint_of_a_primitive_trinomial_beyond_the_prefix():
    s = poly_reciprocal_seq(P("1+x^3+x^17"), 8010)
    assert s.period_hint == 131071  # 2^17 - 1, far longer than the 8010 bits generated


def test_lfsr_hint_of_high_degree_polynomials():
    q = 1 | 1 << 1 | 1 << 100  # 1+x+x^100
    k = poly_reciprocal_seq(PatternPoly([(0, 0), (1, 0), (100, 0)]), 10).period_hint
    assert x_power_mod(k, q) == 1
    assert all(x_power_mod(k // p, q) != 1 for p in factorint(k))
    # a degree-101 factor whose order needs the unsplit 2^101 - 1, and a degree past the bound
    assert poly_reciprocal_seq(P("1+x+x^137"), 10).period_hint is None
    beyond = PatternPoly([(0, 0), (1, 0), (MAX_HINT_DEGREE + 1, 0)])
    assert poly_reciprocal_seq(beyond, 10).period_hint is None


@settings(deadline=None, max_examples=100)
@given(st.integers(0, (1 << 24) - 1), st.integers(1, 3))
def test_factor_degrees_match_sympy(upper, power):
    q = 1
    for _ in range(power):  # a power of a random polynomial has repeated factors
        q = clmul(q, 1 | upper << 1)
    x = symbols("x")
    factors = Poly(sum(x ** k for k in range(q.bit_length()) if q >> k & 1), x, modulus=2).factor_list()[1]
    expected = {}
    for f, times in factors:
        expected[f.degree()] = max(expected.get(f.degree(), 0), times)
    assert _factor_degrees(q) == expected


def x_power_mod(e, q):
    """x^e mod q for GF(2) polynomials packed as ints, by square-and-multiply."""
    acc, base = 1, clmod(2, q)
    while e:
        if e & 1:
            acc = clmod(clmul(acc, base), q)
        base, e = clmod(clmul(base, base), q), e >> 1
    return acc


def clmul(a, b):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a, b = a << 1, b >> 1
    return acc


def clmod(a, q):
    """a mod q for GF(2) polynomials packed as ints (bit k is x^k)."""
    while a.bit_length() >= q.bit_length():
        a ^= q << (a.bit_length() - q.bit_length())
    return a


def poly_order(q):
    """ord(q): the least e >= 1 with q | x^e - 1, by brute force; q has constant term 1."""
    e, power = 1, clmod(2, q)
    while power != clmod(1, q):
        e, power = e + 1, clmod(power << 1, q)
    return e


@given(st.integers(0, 255), st.integers(1, 600))
def test_lfsr_hint_is_the_order_of_q(upper, count):
    q = 1 | upper << 1  # degree <= 8, constant term 1
    s = poly_reciprocal_seq(PatternPoly((a, 0) for a in range(9) if q >> a & 1), count)
    assert s.period_hint == (poly_order(q) if q > 1 else None)


def test_lfsr_maximal_length():
    s = poly_reciprocal_seq(P("1+x+x^3"), 14)
    assert period(s) == 7  # 2^3 - 1, the longest a degree-3 recurrence allows
    assert s.period_hint == 7


def test_period_examples():
    assert period(BitSeq("010101")) == 2
    assert period(dseq(19, 36)) == 18
    assert period(poly_reciprocal_seq(P("1+x+x^3"), 21)) == 7
    assert period(BitSeq("1")) == 1
    assert period(BitSeq("11111")) == 1


def test_period_is_linear_time():
    s = BitSeq([0] * 19999 + [1])
    start = time.perf_counter()
    assert period(s) == 20000
    assert time.perf_counter() - start < 1.0


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.integers(1, 4), st.integers(0, 39),
       st.lists(st.integers(0, 1), max_size=40))
def test_period_matches_the_quadratic_search(block, repeat, cut, middle):
    bits = (block * repeat)[: max(1, len(block) * repeat - cut)]  # period at most len(block)
    if middle:  # the bits again after the middle: over 32 of them recur there, maybe at no period
        bits = bits + middle + bits

    def quadratic(bits):  # the least t >= 1 with bits[k] == bits[k + t] wherever both exist
        for t in range(1, len(bits) + 1):
            if all(bits[k] == bits[k + t] for k in range(len(bits) - t)):
                return t

    assert period(BitSeq(bits)) == quadratic(bits)


def test_indexing_and_iterating_a_bitseq_builds_no_view():
    import tracemalloc

    s = dseq(1000003, 10**6)
    tracemalloc.start()
    try:
        got = s[0], s[-1], s[5:9], list(zip(range(3), s))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tuple view is 8 MB and would stay; iteration reads one byte a bit
    assert peak < 2_100_000 and s._bits is None
    assert got == (s.bits[0], s.bits[-1], s.bits[5:9], list(zip(range(3), s.bits)))
    assert type(s[0]) is int and list(s) == list(s.bits)


def test_period_of_aperiodic_sample_is_its_length():
    assert period(BitSeq("0100111")) == 7


def test_period_rejects_empty():
    with pytest.raises(ValueError):
        period(BitSeq(""))


def test_bitseq_validation():
    with pytest.raises(ValueError):
        BitSeq("0102")
    with pytest.raises(ValueError):
        BitSeq("0101", period_hint=3)  # bits[0] != bits[3]
    with pytest.raises(ValueError):
        BitSeq("0101", period_hint=0)
    s = BitSeq("0101", period_hint=2)
    assert s.period_hint == 2


def test_bitseq_value_semantics():
    assert BitSeq("0101") == BitSeq([0, 1, 0, 1], period_hint=2)
    assert BitSeq("01") != BitSeq("10")
    assert len(BitSeq("0101")) == 4
    assert list(BitSeq("011")) == [0, 1, 1]


def test_bitseq_immutable():
    s = BitSeq("01")
    with pytest.raises(AttributeError):
        s.bits = (1, 1)
