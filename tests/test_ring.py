import math
import random
from itertools import product

import pytest

from polyplane import ring
from polyplane.dsl import evaluate, parse, parse_poly as P
from polyplane.poly import ONE, X, ZERO, PatternPoly, Window
from polyplane.ring import MAX_FIELD_DEGREE, QuotientRing

R33 = QuotientRing(3, 3)
R22 = QuotientRing(2, 2)


def rand_poly(rng, lo=-6, hi=10, max_terms=6):
    count = rng.randrange(max_terms + 1)
    return PatternPoly(
        (rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(count)
    )


def test_reduce_wraps_exponents():
    assert R33.reduce(P("x^3")) == ONE
    assert R33.reduce(P("1+x^3")) == ZERO
    assert R33.reduce(P("x^4*y^5")) == P("x*y^2")


def test_reduce_handles_negative_exponents():
    assert R33.reduce(P("x^-1")) == P("x^2")
    assert R33.reduce(P("x^-4*y^-3")) == P("x^2")


def test_monomial_products():
    assert R33.mul(P("x*y"), P("x^2*y^2")) == ONE
    assert R33.mul(P("y"), P("y^2")) == ONE
    assert R33.mul(P("x^2*y"), P("x*y^2")) == ONE


def test_reduced_trinomial_product():
    # the plain product has x^3 and y^3 terms; both fold to 1 and cancel
    assert R33.reduce(P("1+x+y") * P("1+x^2+y^2")) == P("1+x+y+x^2+y^2+x*y^2+x^2*y")


def test_basis_is_diagonal_ordered():
    labels = [str(PatternPoly.monomial(i, j)) for i, j in R33.basis]
    assert labels == ["1", "x", "y", "x^2", "x*y", "y^2", "x^2*y", "x*y^2", "x^2*y^2"]


def test_mul_table_trivial_ring():
    assert QuotientRing(1, 1).mul_table() == [[ONE]]


def test_mul_table_2x2_diagonal_is_identity():
    table = R22.mul_table()
    for k in range(4):
        assert table[k][k] == ONE  # every monomial squares to 1 when m = n = 2


def test_mul_table_guard():
    with pytest.raises(ValueError):
        QuotientRing(9, 9).mul_table()


def test_orders_of_monomials():
    assert R33.order(X) == 3
    assert R33.order(ONE) == 1


def test_orders_of_binomial_sums():
    for text in ("1+x", "1+x+y", "1+x^2", "1+x*y", "1+x+x*y", "1+x^2*y", "1+x^2*y^2"):
        assert R33.order(P(text)) == 4, text


def test_order_in_2x2():
    assert R22.order(P("1+x+y")) == 2  # (1+x+y)^2 = 1+x^2+y^2 = 1


def test_order_of_zero_raises():
    with pytest.raises(ValueError):
        R33.order(ZERO)


def test_order_of_nilpotent_raises():
    # (1+x)^2 = 1+x^2 = 0 when x^2 = 1, so powers never revisit 1+x
    with pytest.raises(ValueError):
        R22.order(P("1+x"))


def test_order_lcm_formula_exhaustive():
    for m in range(1, 7):
        for n in range(1, 7):
            ring = QuotientRing(m, n)
            for i in range(m):
                for j in range(n):
                    expected = math.lcm(m // math.gcd(i, m), n // math.gcd(j, n))
                    assert ring.order(PatternPoly.monomial(i, j)) == expected


def brute_force_order(m, n, code):
    """The order of an element by stepping a, a^2, a^3, ... on the m x n torus.

    Elements are ints whose bit i*n + j is the coefficient of x^i y^j.  The
    step is multiplication by a, a linear map applied through two tables of
    six-bit chunks.  Returns None where the powers never come back to a.
    """
    cells = [divmod(s, n) for s in range(m * n) if code >> s & 1]
    column = [0] * 12  # column[i*n + j] is a * x^i y^j; zero past m*n
    for t in range(m * n):
        i, j = divmod(t, n)
        for u, v in cells:
            column[t] ^= 1 << ((u + i) % m * n + (v + j) % n)
    low, high = [0] * 64, [0] * 64
    for v in range(1, 64):
        b = (v & -v).bit_length() - 1
        low[v] = low[v & (v - 1)] ^ column[b]
        high[v] = high[v & (v - 1)] ^ column[b + 6]
    power, k, seen = code, 1, set()
    while power != 1 and (k == 1 or power != code):
        if power in seen:
            return None
        seen.add(power)
        power, k = low[power & 63] ^ high[power >> 6], k + 1
    return k


def test_order_matches_brute_force_on_every_small_torus():
    # every nonzero element of every torus with m*n <= 12, even moduli included
    checked = 0
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            ring = QuotientRing(m, n)
            for code in range(1, 1 << m * n):
                a = PatternPoly(divmod(t, n) for t in range(m * n) if code >> t & 1)
                expected = brute_force_order(m, n, code)
                if expected is None:
                    with pytest.raises(ValueError):
                        ring.order(a)
                else:
                    assert ring.order(a) == expected, (m, n, a)
                checked += 1
    assert checked == 35943


def test_order_on_a_ring_whose_exponent_is_hard_to_factor():
    # L = ord_823(2) = 411, and 2^411 - 1 has parts that rho does not split in time
    ring = QuotientRing(823, 1)
    assert ring.order(X) == 823  # prime to those parts
    idempotent = PatternPoly((i, 0) for i in range(823))  # sum of x^i squares to itself
    assert ring.order(idempotent) == 2
    with pytest.raises(ValueError, match="not found"):
        ring.order(P("1+x+x^2"))


def test_order_refuses_a_field_degree_beyond_the_bound():
    assert MAX_FIELD_DEGREE < 2052  # L for the 2053 x 1 torus
    with pytest.raises(ValueError, match="at most"):
        QuotientRing(2053, 1).order(X)


def test_inverse_of_units():
    assert R33.inverse(X) == P("x^2")
    assert R22.inverse(P("1+x+y")) == P("1+x+y")


def test_inverse_none_matches_brute_force():
    a = R33.reduce(P("1+x"))
    assert R33.inverse(a) is None
    # independent oracle: scan all 512 elements for a multiplicative partner
    assert all(R33.mul(a, b) != ONE for b in R33.enumerate_nonzero())


def test_inverse_multiplies_to_one():
    rng = random.Random(5)
    found = 0
    while found < 25:
        a = R33.reduce(rand_poly(rng))
        inv = R33.inverse(a)
        if inv is not None:
            assert R33.mul(a, inv) == ONE
            found += 1


def test_annihilator_witnesses_zero_divisors():
    for ring in (R22, R33):
        for a in ring.enumerate_nonzero():
            ann = ring.annihilator(a)
            if ring.is_invertible(a):
                assert ann is None
            else:
                assert ann is not None and ann
                assert ring.mul(a, ann) == ZERO


def test_reduce_is_a_ring_homomorphism():
    rng = random.Random(17)
    for _ in range(80):
        a, b = rand_poly(rng), rand_poly(rng)
        assert R33.reduce(a + b) == R33.reduce(a) + R33.reduce(b)
        assert R33.reduce(a * b) == R33.mul(R33.reduce(a), R33.reduce(b))


def test_enumerate_nonzero_2x2_matches_listing():
    listed = [
        "1", "x", "y", "1+x", "1+y", "x*y", "x+y", "1+x+y", "1+x+x*y",
        "1+y+x*y", "x+x*y", "y+x*y", "x+y+x*y", "1+x*y", "1+x+y+x*y",
    ]
    expected = {P(text) for text in listed}
    got = list(R22.enumerate_nonzero())
    assert len(got) == 15
    assert set(got) == expected


def test_enumerate_nonzero_counts():
    assert list(QuotientRing(1, 1).enumerate_nonzero()) == [ONE]
    assert sum(1 for _ in R33.enumerate_nonzero()) == 511


def test_enumerate_nonzero_guard():
    with pytest.raises(ValueError):
        QuotientRing(5, 5).enumerate_nonzero()


def test_ring_validation():
    with pytest.raises(ValueError):
        QuotientRing(0, 3)
    assert QuotientRing(2, 3).size == 64


def test_a_torus_is_refused_when_its_packed_residues_are_over_the_box_bound(monkeypatch):
    # a residue of the m x n torus packs into n rows of 2m - 1 bits, checked before any mask is built
    monkeypatch.setattr(ring, "MAX_BOX_BITS", 63)
    assert QuotientRing(4, 9).mul(P("x^3"), P("x*y^9")) == ONE  # 9 rows of 7 bits: 63
    assert QuotientRing(32, 1).reduce(P("x^33")) == X
    for m, n, bits in ((4, 10, 70), (33, 1, 65), (1, 64, 64)):
        with pytest.raises(ValueError) as info:
            QuotientRing(m, n)
        assert str(info.value) == f"torus too large: a residue packs into {bits} bits, over 63"


def test_elimination_is_refused_above_its_bound(monkeypatch):
    # inverse and annihilator solve an (m*n)-square system, checked before the matrix is built
    monkeypatch.setattr(ring, "MAX_GAUSS_CELLS", 12)
    assert QuotientRing(3, 4).inverse(P("1+x+y")) is not None
    line = QuotientRing(12, 1)
    assert line.mul(line.annihilator(P("1+x")), P("1+x")) == ZERO != line.annihilator(P("1+x"))
    for torus, call in ((QuotientRing(13, 1), "inverse"), (QuotientRing(2, 7), "annihilator"),
                        (QuotientRing(2, 7), "is_invertible")):
        with pytest.raises(ValueError) as info:
            getattr(torus, call)(P("1+x"))
        assert str(info.value) == "elimination too large: m*n must be at most 12"
    # wrap-mode division reports it for the term it divides by; plain terms need no elimination
    with pytest.raises(ValueError) as info:
        evaluate(parse("x + y/(1+x)"), Window(3, 3, "wrap"))
    assert str(info.value) == "term 2 (y/(1+x)): elimination too large: m*n must be at most 12"
    assert evaluate(parse("x + y^5"), Window(3, 3, "wrap")) == P("x+y")


def test_order_is_refused_above_its_work_bound(monkeypatch):
    # (powers) * (bits of N) * n*(2m-1) * (1 + weight of the reduced element), checked before any product
    cases = [
        # 11x11: N = 2^10 - 1 = 3*11*31 takes 2 + 3 powers of 10 bits
        (QuotientRing(11, 11), P("1+x+y"), 5 * 10 * 11 * 21 * 4, 1023),
        # x^11*y^11 is 1 on this torus: the element reduces to x+y, of weight 2
        (QuotientRing(11, 11), P("1+x+y+x^11*y^11"), 5 * 10 * 11 * 21 * 3, 342),
        # 4x4: N = 4, whose prime 2 counts once and twice more as it divides N, takes 5 powers of 3 bits
        (QuotientRing(4, 4), P("x^5"), 5 * 3 * 4 * 7 * 2, 4),
    ]
    for torus, element, work, order in cases:
        monkeypatch.setattr(ring, "MAX_ORDER_BITS", work)
        assert torus.order(element) == order
        monkeypatch.setattr(ring, "MAX_ORDER_BITS", work - 1)
        with pytest.raises(ValueError, match=f"order too large: {work} bit steps are over {work - 1}"):
            torus.order(element)


def test_the_benchmark_torus_stays_far_below_the_order_bound():
    # the densest element of the 11x11 torus, 121 terms, costs under 1/1000 of the bound
    assert 5 * 10 * 11 * 21 * (1 + 121) * 1000 < ring.MAX_ORDER_BITS


def test_a_refused_order_builds_no_mask_of_the_layout():
    # the 8191x16383 torus packs a residue into 2^28 bits: each mask of _fold would take 32 MB
    torus = QuotientRing(8191, 16383)
    with pytest.raises(ValueError, match="order too large"):
        torus.order(P("1+x+y"))
    assert not {"_rows", "_cols", "_wrap"} & vars(torus).keys()
    small = QuotientRing(3, 3)
    assert small.order(P("1+x")) == 4 and {"_rows", "_cols", "_wrap"} <= vars(small).keys()
