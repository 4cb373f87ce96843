import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime, primerange

from polyplane.numtheory import (
    _is_strong_lucas_probable_prime,
    is_probable_prime,
    least_divisor,
    order_of_two,
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
