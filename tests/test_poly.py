import operator
import random
import time
import tracemalloc
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from polyplane.dsl import parse_poly as P
from polyplane.poly import PIECE_BITS, ONE, X, Y, ZERO, PatternPoly, Window, bit_flags, poly_sum, set_bits


def rand_poly(rng, lo=0, hi=3, max_terms=5):
    count = rng.randrange(max_terms + 1)
    return PatternPoly(
        (rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(count)
    )


def test_add_cancels_shared_terms():
    assert P("1+x") + P("x+y") == P("1+y")


def test_add_self_is_zero():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_poly(rng)
        assert a + a == ZERO


def test_add_line_and_diagonal():
    horizontal = PatternPoly((i, 0) for i in range(5))
    diagonal = PatternPoly((k, k) for k in range(4))
    # the shared point (0, 0) cancels
    assert horizontal + diagonal == P("x+x^2+x^3+x^4+x*y+x^2*y^2+x^3*y^3")


def test_mul_monomials():
    assert X * Y == P("x*y")


def test_mul_squares_cancel_cross_terms():
    assert P("1+x") * P("1+x") == P("1+x^2")


def test_mul_trinomials():
    # all nine products are distinct monomials, so nothing cancels
    assert P("1+x+y") * P("1+x^2+y^2") == P("1+x+y+x^2+y^2+x^3+y^3+x*y^2+x^2*y")


def test_pow_matches_repeated_mul():
    a = P("1+x+y^2")
    assert a**0 == ONE
    assert a**3 == a * a * a
    with pytest.raises(ValueError):
        a ** (-1)


def test_shift_diagonal():
    diagonal = PatternPoly((k, k) for k in range(4))
    assert diagonal.shift(2, 0) == PatternPoly((k + 2, k) for k in range(4))


def test_shift_identity_and_inverse():
    a = P("1+x*y^2+x^3")
    assert a.shift(0, 0) == a
    assert a.shift(3, 1).shift(-3, -1) == a


def test_shift_equals_mul_by_monomial():
    rng = random.Random(11)
    for _ in range(30):
        a = rand_poly(rng)
        dx, dy = rng.randrange(4), rng.randrange(4)
        assert a.shift(dx, dy) == a * PatternPoly.monomial(dx, dy)


def test_truncate_drops_out_of_frame_terms():
    w = Window(4, 3)
    assert P("1+x^5+x^4*y").truncate(w) == P("1+x^4*y")
    assert P("x^-1*y+x*y").truncate(w) == P("x*y")


def test_truncate_idempotent_and_monotone():
    rng = random.Random(3)
    w = Window(3, 2)
    for _ in range(50):
        a = rand_poly(rng, lo=-2, hi=5)
        t = a.truncate(w)
        assert t.truncate(w) == t
        assert t.support <= a.support


def test_group_axioms_exhaustive_3x3():
    box = list(product(range(3), repeat=2))
    polys = []
    for code in range(1 << 9):
        polys.append(PatternPoly(box[t] for t in range(9) if code >> t & 1))
    for a in polys:
        assert a + a == ZERO
        assert a + ZERO == a
    for a in polys:
        for b in polys:
            assert a + b == b + a


def test_mul_ring_axioms_randomized():
    rng = random.Random(23)
    for _ in range(150):
        a, b, c = (rand_poly(rng, hi=4) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_zero_and_one_behave():
    a = P("x+y^3")
    assert a * ONE == a
    assert a * ZERO == ZERO
    assert not ZERO
    assert len(a) == 2


def test_text_form():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(P("x*y^2+x+1")) == "1+x+x*y^2"
    assert str(PatternPoly.monomial(-1, 1)) == "x^-1*y"
    assert str(PatternPoly.monomial(0, -2)) == "y^-2"


def test_text_form_is_diagonal_ordered():
    # antidiagonals ascending, within each antidiagonal x-heavy first
    p = PatternPoly([(0, 3), (3, 0), (1, 1), (0, 0)])
    assert str(p) == "1+x*y+x^3+y^3"


def test_window_validation():
    with pytest.raises(ValueError):
        Window(-1, 0)
    with pytest.raises(ValueError):
        Window(2, 2, "torus")
    w = Window(4, 3)
    assert (w.width, w.height) == (5, 4)


@pytest.mark.parametrize("other", [1, "x", None])
def test_sum_and_product_take_only_polynomials(other):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(X, other)
        with pytest.raises(TypeError):
            op(other, X)


def test_poly_rejects_bad_monomials():
    with pytest.raises(TypeError):
        PatternPoly([(0.5, 1)])
    with pytest.raises((TypeError, ValueError)):
        PatternPoly([(1, 2, 3)])


def test_large_exponents_are_exact():
    # exponents well past +/-1024 never wrap around
    far = PatternPoly.monomial(1024, -1024)
    assert far * far == PatternPoly.monomial(2048, -2048)
    assert far.shift(-2048, 2048) == PatternPoly.monomial(-1024, 1024)


def test_poly_hashable_and_immutable():
    a = P("1+x")
    assert hash(a) == hash(P("x+1"))
    with pytest.raises(AttributeError):
        a.support = frozenset()


def reference_set_bits(row, start=0):
    return [start + i for i in range(row.bit_length()) if row >> i & 1]


def test_set_bits_fixed_rows():
    rng = random.Random(61)
    rows = [0, 1, 1 << 63, 1 << 64, 1 << 255 | 1 << 256, (1 << 64) - 1, (1 << 300) - 1, (1 << 1000) - 2]
    rows += [1 | 1 << 5000, sum(1 << rng.randrange(10_000) for _ in range(40))]  # sparse and wide
    rows += [sum(1 << rng.randrange(100_000) for _ in range(400))]  # wide, with over 256 set bits
    rows += [rng.getrandbits(rng.randrange(1, 2000)) for _ in range(50)]
    rows += [rng.getrandbits(300) & rng.getrandbits(300) & rng.getrandbits(300) for _ in range(20)]
    for row in rows:
        for start in (0, 7, -3):
            assert list(set_bits(row, start)) == reference_set_bits(row, start)
    assert list(set_bits(0b1011)) == [0, 1, 3]


def test_set_bits_of_rows_wider_than_a_piece():
    rng = random.Random(67)
    dense = rng.getrandbits(2 * PIECE_BITS + 13) | 1 << 2 * PIECE_BITS + 12
    rows = [1 << PIECE_BITS, 1 << PIECE_BITS | 1 << PIECE_BITS - 1,  # the first piece zero; a boundary
            dense & ~((1 << 2 * PIECE_BITS) - (1 << PIECE_BITS)),  # dense pieces around a zero one
            sum(1 << rng.randrange(2 * PIECE_BITS + 100) for _ in range(300))]  # sparse pieces
    for row in rows:
        want = reference_set_bits(row)
        for start in (0, 7, -3):
            assert list(set_bits(row, start)) == [start + i for i in want]


def test_set_bits_of_a_wide_sparse_row_reads_its_pieces_only():
    # 2^24 bits, 301 of them set: a pass over every position would build 16 MB of 0/1 bytes
    rng = random.Random(71)
    want = sorted({rng.randrange(2**24 - 1) for _ in range(300)} | {2**24 - 1})
    row = sum(1 << i for i in want)
    start = time.perf_counter()
    assert list(set_bits(row)) == want
    assert time.perf_counter() - start < 0.05
    tracemalloc.start()
    try:
        assert list(set_bits(row, -5)) == [i - 5 for i in want]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 700) - 1), st.integers(min_value=-1000, max_value=1000))
def test_set_bits_property(row, start):
    assert list(set_bits(row, start)) == reference_set_bits(row, start)


def test_bit_flags_are_the_row_bits_padded():
    assert bit_flags(0b1101, 6) == b"\1\0\1\1\0\0"
    assert bit_flags(0, 3) == b"\0\0\0"


def test_support_of_a_wide_dense_row_is_fast():
    p = PatternPoly.from_rows([(1 << 200_000) - 1])
    start = time.perf_counter()
    support = p.support
    assert time.perf_counter() - start < 0.5
    assert len(support) == 200_000 and (199_999, 0) in support and (200_000, 0) not in support
    sparse = PatternPoly.from_rows([0, 1 | 1 << 2**27])
    start = time.perf_counter()
    assert sparse.support == {(0, 1), (2**27, 1)}
    assert time.perf_counter() - start < 0.5  # it builds no 2^27-byte text


@settings(max_examples=200)
@given(st.lists(st.frozensets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4), max_size=9),
       st.lists(st.integers(0, 8), max_size=4))
def test_sum_of_many_is_the_sum_added_one_at_a_time(supports, repeats):
    polys = [PatternPoly(s) for s in supports]
    polys += [polys[k] for k in repeats if k < len(polys)]  # duplicates, which cancel in pairs
    assert poly_sum(polys) == reduce(operator.add, polys, ZERO)
    assert poly_sum(iter(polys)) == poly_sum(reversed(polys))
    assert poly_sum(polys + polys) == ZERO


def test_sum_of_many_is_exact_far_apart():
    assert poly_sum([]) == ZERO
    assert poly_sum([X]) == X
    cells = [(1 << 27, 0), (0, 0), (5, -(1 << 20)), (1 << 27, 0), (-3, 7)]
    assert poly_sum(PatternPoly.monomial(i, j) for i, j in cells) == PatternPoly([(0, 0), (5, -(1 << 20)), (-3, 7)])


def test_cells_spread_over_a_wide_row_are_set_in_one_pass():
    # one int is built per row, not one per cell: bit by bit, 300 cells over 2^27 columns took 1.8 s
    # on 2 cores with Python 3.11.7
    rng = random.Random(27)
    cells = {(rng.randrange(1 << 27), 0) for _ in range(300)} | {(0, 0), ((1 << 27) - 1, 1)}
    start = time.perf_counter()
    p = PatternPoly(cells)
    assert time.perf_counter() - start < 0.5
    assert p.support == cells and len(p.rows) == 2


def test_values_too_large_to_store_are_refused():
    with pytest.raises(ValueError):
        ONE + PatternPoly.monomial(1 << 40, 0)
    with pytest.raises(ValueError):
        PatternPoly([(0, 0), (0, 1 << 30)])
    wide, tall = ONE + X.shift(99_999, 0), ONE + Y.shift(0, 99_999)  # each fits
    with pytest.raises(ValueError):
        wide * tall  # a box of 10^10 cells


def test_public_values_survive_copy_and_pickle():
    import copy
    import pickle

    from polyplane.dsl import Token, parse
    from polyplane.folding import BitGrid
    from polyplane.render import Perspective, RenderConfig
    from polyplane.ring import QuotientRing
    from polyplane.sequences import BitSeq
    from polyplane.series import RationalTerm

    expr = parse("x^-1*y/(1+x+y) + 1+x")
    values = [
        ZERO, ONE, P("x^-2*y^3+x*y^-1+x^5"),
        BitSeq(""), BitSeq("0110", period_hint=3),
        BitGrid(["011", "100"]),
        Window(4, 3, "wrap"),
        RationalTerm(P("x^-1*y"), P("1+x+y")),
        expr, expr.terms[0],
        Perspective(0.5, 0.75), RenderConfig(glyph_on="@", perspective=Perspective(0.5, 1.0)),
        QuotientRing(3, 5),
        Token("int", -2, 3), Window(4, 3), Window(0, 0, "window"), Perspective(), RenderConfig(),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value),
                     *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
    hinted = pickle.loads(pickle.dumps(BitSeq("0110", period_hint=3)))
    assert (hinted.period_hint, hinted.bits) == (3, (0, 1, 1, 0))
    assert pickle.loads(pickle.dumps(QuotientRing(3, 5))).mul(P("x^2"), P("x")) == ONE
