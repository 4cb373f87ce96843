"""Prime factors, least divisors and GF(2)[x] arithmetic, for multiplicative orders.

The order of an element g of a finite group divides every exponent N of
the group (every N with g^N = 1 for all g), and it is the least divisor
d of N with g^d = 1.  Given the primes of N that divisor is found by
dividing N by each prime for as long as the test still holds, so an
order costs O(log N) tests.  This serves ord_M(2) (d-sequences), ord(q)
of a polynomial (shift-register period hints) and element orders in the
torus ring.

GF(2)[x] arithmetic is here too, on polynomials packed into ints, bit k
standing for x^k: addition is XOR, the rest are the carry-less functions.

Factoring is bounded: a composite part that Pollard-Brent rho does not
split within a fixed number of steps is left unfactored, and the
least-divisor search still answers exactly whenever the order is prime
to that part (see :func:`least_divisor`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import compress, count
from math import gcd, isqrt, lcm


def _primes_below(limit: int) -> tuple[int, ...]:
    # sieve of Eratosthenes
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), sieve))


_TRIAL = 1000  # trial division bound; a cofactor below _TRIAL^2 is prime
_SMALL_PRIMES = _primes_below(_TRIAL)
# Miller-Rabin with these bases is exact below 3.3e24 (Sorenson & Webster 2015)
_WITNESSES = _SMALL_PRIMES[:13]
_WITNESS_BOUND = 3317044064679887385961981  # the least strong pseudoprime to them all
# Rho steps per composite part.  Below 2^64 the least prime factor is below
# 2^32, which rho finds in about 2^16 steps, so 2^20 leaves a wide margin;
# above, a part with no prime factor below about 10^9 is left unsplit.
_RHO_STEPS_SMALL, _RHO_STEPS = 1 << 20, 1 << 16
# carryless_square's tables: _SPREAD[h] is the half byte h with bit k moved to bit 2k,
# and _SPREAD_LOW[b], _SPREAD_HIGH[b] that of the low and the high half of byte b
_SPREAD = bytes([0, 1, 4, 5, 16, 17, 20, 21, 64, 65, 68, 69, 80, 81, 84, 85])
_SPREAD_LOW, _SPREAD_HIGH = _SPREAD * 16, bytes(v for v in _SPREAD for _ in range(16))


def least_divisor(n: int, primes: Iterable[int], holds: Callable[[int], bool]) -> int | None:
    """The least divisor d of n with holds(d), or None if it cannot be told.

    holds(n) must be true, and among the divisors of n, holds must be true
    exactly on the multiples of that d, as "g^d = 1" is for an order.
    primes are prime factors of n, as :func:`prime_factors` finds them.
    When they are all of them d is exact.  Otherwise the unfactored part
    of n is dropped when holds allows, and d is exact again; when it does
    not, d shares a factor with that part, and the answer is None.
    """
    primes = tuple(primes)
    known = n
    for p in primes:
        while known % p == 0:
            known //= p
    if known != 1:  # the unfactored part
        if not holds(n // known):
            return None
        n //= known
    for p in primes:
        while n % p == 0 and holds(n // p):
            n //= p
    return n


def prime_factors(n: int) -> set[int]:
    """The distinct prime factors of n >= 1 that are found within a bound.

    Trial division by the primes below 1000, then a Baillie-PSW-strength
    primality test on what is left (:func:`is_probable_prime`), splitting a
    composite part by Pollard-Brent rho within a fixed number of steps.  A
    part is left unfactored when rho does not find its least prime factor
    in time: in practice never below 2^64, and seldom when that factor is
    below about 10^9.  The primes of such a part are missing from the
    result, which callers see as a cofactor after dividing the primes out.
    """
    if n < 1:
        raise ValueError("only positive integers have prime factors")
    primes = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
    unsplit: set[int] = set()
    todo = [n] if n > 1 else []
    while todo:
        c = todo.pop()  # no prime factor below _TRIAL
        for p in primes:
            while c % p == 0:
                c //= p
        if c == 1:
            continue
        if c < _TRIAL * _TRIAL or is_probable_prime(c):
            primes.add(c)
            shared = {r for r in unsplit if r % c == 0}  # parts set aside earlier
            unsplit -= shared
            todo += shared
        elif d := _rho(c, _RHO_STEPS_SMALL if c < 1 << 64 else _RHO_STEPS):
            todo += [d, c // d]
        else:
            unsplit.add(c)
    return primes


def order_of_two(modulus: int) -> int:
    """ord_M(2) for odd M >= 1: the least d >= 1 with 2^d = 1 mod M."""
    phi = cofactor = modulus
    for p in prime_factors(modulus):
        phi -= phi // p
        while cofactor % p == 0:
            cofactor //= p
    order = None  # phi is unknown unless the primes of the modulus are all found
    if cofactor == 1:
        order = least_divisor(phi, prime_factors(phi), lambda d: pow(2, d, modulus) == 1)
    if order is None:
        raise ValueError(f"ord_{modulus}(2) needs prime factors that were not found")
    return order


def order_of_x(q: int) -> int | None:
    """ord(q), the least d >= 1 with x^d = 1 mod q, for q(0) = 1 and deg q >= 1, or None
    as :func:`least_divisor` says.  An irreducible factor of degree k has its order
    dividing 2^k - 1, and a multiplicity e multiplies that by the least 2^t >= e
    (Lidl & Niederreiter, Finite Fields, ch. 3)."""
    degrees = _factor_degrees(q)
    exponent = 1 << (max(degrees.values()) - 1).bit_length()
    primes = {2}
    for k in degrees:
        exponent = lcm(exponent, (1 << k) - 1)
        primes |= prime_factors((1 << k) - 1)
    return least_divisor(exponent, primes,
                         lambda d: carryless_power(0b10, d, lambda a: carryless_divmod(a, q)[1]) == 1)


def _factor_degrees(q: int) -> dict[int, int]:
    # Distinct-degree factorization of q with q(0) = 1: maps each degree d of
    # an irreducible factor of q to the largest multiplicity among those of
    # degree d.  gcd(q, x^(2^d) - x) is the product of the degree-d irreducible
    # factors once each, those of lower degree having been divided out.
    degrees = {}
    power, d = 0b10, 0  # x^(2^d) mod q
    while q.bit_length() - 1 >= 2 * (d + 1):  # else q is 1 or irreducible
        d += 1
        power = carryless_divmod(carryless_square(power), q)[1]
        factors, times = carryless_gcd(q, power ^ 0b10), 0
        while factors != 1:
            q = carryless_divmod(q, factors)[0]
            factors, times = carryless_gcd(q, factors), times + 1
        if times:
            degrees[d] = times
    if q != 1:
        degrees[q.bit_length() - 1] = 1
    return degrees


def carryless_square(u: int) -> int:
    """The square of u in GF(2)[x]: the cross terms cancel in pairs, so bit k
    moves to bit 2k, spread from each half of each byte by a table."""
    data = u.to_bytes((u.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(data))
    out[0::2], out[1::2] = data.translate(_SPREAD_LOW), data.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


def carryless_product(u: int, v: int) -> int:
    """The product of u and v in GF(2)[x]: an XOR of copies of the denser
    operand, one shifted onto each set bit of the sparser."""
    if u.bit_count() > v.bit_count():
        u, v = v, u
    bits = format(u, "b")[::-1]
    acc, k = 0, bits.find("1")
    while k >= 0:
        acc ^= v << k
        k = bits.find("1", k + 1)
    return acc


def carryless_power(u: int, e: int, reduce: Callable[[int], int]) -> int:
    """u^e in GF(2)[x] modulo whatever reduce removes, left to right: square,
    times u where e has a 1 bit, and reduce after each product."""
    acc = 1
    for bit in format(e, "b"):
        acc = reduce(carryless_square(acc))
        if bit == "1":
            acc = reduce(carryless_product(u, acc))
    return acc


def carryless_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by b != 0 in GF(2)[x]."""
    quotient, size = 0, b.bit_length()
    while (excess := a.bit_length() - size) >= 0:
        quotient |= 1 << excess
        a ^= b << excess
    return quotient, a


def carryless_gcd(a: int, b: int) -> int:
    """The greatest common divisor of a and b in GF(2)[x]."""
    while b:
        a, b = b, carryless_divmod(a, b)[1]
    return a




def is_probable_prime(n: int) -> bool:
    """Primality of an integer.

    Trial division by the primes below 1000, then Miller-Rabin to the
    first 13 prime bases, exact below 3.3e24; above, also a strong Lucas
    test, which with the base-2 Miller-Rabin test makes the Baillie-PSW
    test (Baillie & Wagstaff 1980), with no composite known to pass it.
    """
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL:
        return False  # 1 and below; a larger n < _TRIAL would have had a factor
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _WITNESS_BOUND or _is_strong_lucas_probable_prime(n)


def _is_strong_lucas_probable_prime(n: int) -> bool:
    # Lucas sequences U, V with P = 1 and Q = (1 - D)/4, D the first of 5, -7,
    # 9, -11, ... with Jacobi symbol (D/n) = -1 (Selfridge's choice).  With
    # n + 1 = k*2^s, a prime has U_k = 0 or V_(k*2^r) = 0 for some r < s.
    if isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    disc = 5
    while (symbol := _jacobi(disc, n)) == 1:
        disc = -disc - 2 if disc > 0 else 2 - disc
    if symbol == 0:
        return False  # n has the factor |D| < n
    q = (1 - disc) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, q_k = 0, 2, 1  # U_0, V_0, Q^0
    for bit in format((n + 1) >> s, "b"):
        u, v, q_k = u * v % n, (v * v - 2 * q_k) % n, q_k * q_k % n  # index doubles
        if bit == "1":  # index steps by 1; halving mod odd n adds n to odd values
            u, v = u + v, disc * u + v
            u, v = (u + n * (u & 1)) // 2 % n, (v + n * (v & 1)) // 2 % n
            q_k = q_k * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, q_k = (v * v - 2 * q_k) % n, q_k * q_k % n
        if v == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # the Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _rho(n: int, steps: int) -> int | None:
    # A nontrivial factor of the odd composite n, or None after that many steps:
    # Pollard's rho (Pollard 1975) on y -> y^2 + c, with Brent's cycle search and
    # 128 differences per gcd.  Each round starts from y = 2 with the next c, so
    # the result is deterministic.
    for c in count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            if steps <= 0:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = gcd(acc, n)
                k += 128
            steps -= 2 * r
            r *= 2
        if g == n:  # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g
