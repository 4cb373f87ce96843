import random
from itertools import product

import pytest

from polyplane.dsl import parse_poly as P
from polyplane.poly import ONE, X, Y, ZERO, PatternPoly, Window


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
