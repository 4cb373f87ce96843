import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, S, factorint, isprime, primerange, symbols

from polyplane.numtheory import (
    _is_strong_lucas_probable_prime,
    carryless_divmod,
    carryless_gcd,
    carryless_power,
    carryless_product,
    carryless_square,
    is_probable_prime,
    least_divisor,
    order_of_two,
    order_of_x,
    prime_factors,
)


@pytest.mark.parametrize("k", range(1, 65))
def test_prime_factors_of_mersenne_numbers(k):
    # 2^59 - 1 and 2^62 - 1 leave composite cofactors past trial division
    assert prime_factors((1 << k) - 1) == set(factorint((1 << k) - 1))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, (1 << 64) - 1))
def test_prime_factors_match_sympy(n):
    assert prime_factors(n) == set(factorint(n))


def test_prime_factors_of_semiprimes_and_prime_powers():
    for n in (1000003 * 1000033, 4294967291 * 4294967279, 1000003 ** 3, 2 ** 61 - 1):
        assert prime_factors(n) == set(factorint(n))
    assert prime_factors(1) == set()
    with pytest.raises(ValueError):
        prime_factors(0)


def test_order_of_two_matches_a_search_on_odd_moduli():
    for modulus in range(1, 400, 2):
        expected = next(d for d in range(1, modulus + 1) if pow(2, d, modulus) == 1 % modulus)
        assert order_of_two(modulus) == expected, modulus
    assert least_divisor(360, [2, 3, 5], lambda d: d % 12 == 0) == 12


def test_prime_factors_leave_out_what_rho_cannot_split_in_time():
    # 2^137 - 1 = 32032215596496435569 * 5439042183600204290159
    assert prime_factors((1 << 137) - 1) == set()
    assert prime_factors(3 * 7 ** 2 * 1000003 * ((1 << 137) - 1)) == {3, 7, 1000003}


def test_least_divisor_is_exact_when_the_answer_is_prime_to_the_unfactored_part():
    n = 2 ** 3 * 5 * 32032215596496435569 * 5439042183600204290159
    assert least_divisor(n, [2, 5], lambda d: d % 20 == 0) == 20
    assert least_divisor(n, [2, 5], lambda d: d % 32032215596496435569 == 0) is None
    with pytest.raises(ValueError):
        order_of_two(32032215596496435569 * 5439042183600204290159)  # phi not found


def test_probable_primes_beyond_the_miller_rabin_bound():
    # the least strong pseudoprime to the first 13 prime bases: only the Lucas test rejects it
    assert not is_probable_prime(3317044064679887385961981)
    for n in (2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1, 3317044064679887385962123):
        assert is_probable_prime(n) == isprime(n), n
    assert not is_probable_prime((2 ** 61 - 1) * (2 ** 89 - 1))


def test_strong_lucas_test_passes_primes_and_exactly_the_known_pseudoprimes():
    composites = [n for n in range(1001, 60000, 2) if _is_strong_lucas_probable_prime(n) and not isprime(n)]
    assert composites == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]  # OEIS A217255
    assert all(_is_strong_lucas_probable_prime(p) for p in primerange(1001, 60000))


@settings(deadline=None, max_examples=200)
@given(st.integers(1 << 82, 1 << 120))
def test_probable_prime_matches_sympy_above_the_bound(n):
    n |= 1
    if all(n % p for p in primerange(3, 1000)):
        assert is_probable_prime(n) == isprime(n)


# -- GF(2)[x] arithmetic on packed ints, against sympy and set-based products ------

SX = symbols("x")
gf2_polys = st.integers(0, (1 << 40) - 1)


def to_sympy(u):
    return Poly(sum((SX ** k for k in range(u.bit_length()) if u >> k & 1), S.Zero), SX, modulus=2)


def from_sympy(poly):
    return sum(1 << k for (k,), c in poly.terms() if int(c) % 2)


def set_product(u, v):
    # the exponents of a product are the sums i + j, each kept if it occurs an odd number of times
    terms = set()
    for i in range(u.bit_length()):
        for j in range(v.bit_length()):
            if u >> i & 1 and v >> j & 1:
                terms ^= {i + j}
    return sum(1 << k for k in terms)


@settings(deadline=None, max_examples=200)
@given(gf2_polys, gf2_polys)
def test_carryless_product_matches_a_set_product_and_sympy(u, v):
    assert carryless_product(u, v) == carryless_product(v, u) == set_product(u, v)
    assert carryless_product(u, v) == from_sympy(to_sympy(u) * to_sympy(v))
    assert carryless_square(u) == set_product(u, u)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, (1 << 12) - 1), st.integers(0, 40), st.integers(1, (1 << 10) - 1))
def test_carryless_power_matches_sympy(u, e, q):
    q |= 1 << 10  # degree 10
    assert carryless_power(u, e, lambda a: a) == from_sympy(to_sympy(u) ** e)
    want = from_sympy((to_sympy(u) ** e).rem(to_sympy(q)))
    assert carryless_power(u, e, lambda a: carryless_divmod(a, q)[1]) == want


@settings(deadline=None, max_examples=200)
@given(gf2_polys, gf2_polys.filter(bool))
def test_carryless_divmod_and_gcd(a, b):
    quotient, remainder = carryless_divmod(a, b)
    assert carryless_product(quotient, b) ^ remainder == a
    assert remainder.bit_length() < b.bit_length()
    assert carryless_gcd(a, b) == from_sympy(to_sympy(a).gcd(to_sympy(b)))


def test_order_of_x_matches_a_search_up_to_degree_10():
    for q in range(3, 1 << 11, 2):  # q(0) = 1 and degree 1 to 10
        x_power, d = 0b10, 1  # x^d mod q
        while carryless_divmod(x_power, q)[1] != 1:
            x_power, d = carryless_divmod(x_power << 1, q)[1], d + 1
        assert order_of_x(q) == d, bin(q)
