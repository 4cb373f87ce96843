"""Series expansion tests.

The independent oracle here is binomial parity via exact integer
binomials: the coefficient of x^i y^j in 1/(1+x+y) is C(i+j, i) mod 2
and in 1/(1+x+xy) it is C(i, j) mod 2.  The oracle never touches the
recurrence under test.
"""

import math
import random
import time

import pytest

from polyplane.dsl import parse_poly as P
from polyplane.poly import ONE, ZERO, PatternPoly, Window
from polyplane import poly, series
from polyplane.series import RationalTerm, Term, check_denominator, eval_sum, eval_term, expand_rows, reciprocal


def binom_parity(n, k):
    return math.comb(n, k) % 2


def rand_admissible(rng, max_terms=5):
    """A random denominator: constant term plus positive-graded terms."""
    support = {(0, 0)}
    for _ in range(rng.randrange(1, max_terms)):
        if rng.random() < 0.4:
            support.add((rng.randint(1, 4), 0))
        else:
            support.add((rng.randint(0, 4), rng.randint(1, 3)))
    return PatternPoly(support)


def test_a_term_without_a_denominator_is_its_numerator_truncated():
    num = P("1+x^9+x^-1*y+x^2*y^3+y^4")
    assert eval_term(Term(num), Window(4, 3)) == P("1+x^2*y^3")
    assert eval_sum([Term(num), RationalTerm(ONE, P("1+x")), Term(P("1"))], Window(4, 3)) == P("1+x+x^2+x^3+x^4+x^2*y^3")


# -- reciprocal ------------------------------------------------------------


def test_reciprocal_horizontal_line():
    assert reciprocal(P("1+x"), Window(4, 3)) == P("1+x+x^2+x^3+x^4")


def test_reciprocal_vertical_line():
    assert reciprocal(P("1+y"), Window(4, 3)) == P("1+y+y^2+y^3")


def test_reciprocal_diagonal_line():
    assert reciprocal(P("1+x*y"), Window(4, 3)) == PatternPoly((k, k) for k in range(4))


def test_reciprocal_two_term_recurrence():
    expected = P("1+x+x*y^2+x^2+x^3+x^3*y^2+x^4")
    assert reciprocal(P("1+x+x*y^2"), Window(4, 3)) == expected


def test_reciprocal_pascal_triangle_oracle():
    c = reciprocal(P("1+x+y"), Window(63, 63))
    for i in range(64):
        for j in range(64):
            assert ((i, j) in c) == (binom_parity(i + j, i) == 1), (i, j)


def test_reciprocal_pascal_rows_oracle():
    c = reciprocal(P("1+x+x*y"), Window(63, 63))
    for i in range(64):
        for j in range(64):
            assert ((i, j) in c) == (binom_parity(i, j) == 1), (i, j)


def test_reciprocal_defining_identity_randomized():
    rng = random.Random(41)
    for _ in range(60):
        q = rand_admissible(rng)
        w = Window(rng.randrange(1, 33), rng.randrange(1, 33))
        assert (q * reciprocal(q, w)).truncate(w) == ONE


def test_reciprocal_rejects_bad_denominators():
    with pytest.raises(ValueError):
        reciprocal(P("x+y"), Window(4, 3))  # no constant term
    with pytest.raises(ValueError):
        reciprocal(P("1+x^-1"), Window(4, 3))  # not positive in the grading
    with pytest.raises(ValueError):
        reciprocal(P("1+x*y^-1"), Window(4, 3))


def test_reciprocal_of_one():
    assert reciprocal(ONE, Window(5, 5)) == ONE


# -- eval_term ---------------------------------------------------------------


def test_eval_term_laurent_denominator():
    term = RationalTerm(P("x^4"), P("1+x^-1*y"))
    expected = PatternPoly([(4, 0), (3, 1), (2, 2), (1, 3)])
    assert eval_term(term, Window(4, 3)) == expected


def test_eval_term_laurent_denominator_wider_window():
    term = RationalTerm(P("x^4"), P("1+x^-1*y"))
    expected = PatternPoly([(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)])
    assert eval_term(term, Window(8, 5)) == expected


def test_eval_term_shifted_vertical_line():
    term = RationalTerm(P("x^2"), P("1+y"))
    assert eval_term(term, Window(4, 3)) == PatternPoly((2, j) for j in range(4))


def test_eval_term_unit_numerator_matches_reciprocal():
    q = P("1+x")
    w = Window(4, 3)
    assert eval_term(RationalTerm(ONE, q), w) == reciprocal(q, w)


def test_eval_term_requires_window_mode():
    with pytest.raises(ValueError):
        eval_term(RationalTerm(ONE, P("1+x")), Window(4, 3, "wrap"))


def test_reciprocal_requires_window_mode_like_eval_term():
    # 1+x has no inverse on the 4x1 torus, so no wrap-mode series could stand for it
    with pytest.raises(ValueError, match="window-mode"):
        reciprocal(P("1+x"), Window(3, 0, "wrap"))
    with pytest.raises(ValueError, match="no constant term"):
        reciprocal(P("x"), Window(3, 0))


def test_rational_term_validates_on_construction():
    with pytest.raises(ValueError):
        RationalTerm(ONE, P("x+y"))
    with pytest.raises(ValueError):
        RationalTerm(ONE, ZERO)


# -- eval_sum ----------------------------------------------------------------


def test_eval_sum_cross():
    terms = [
        RationalTerm(ONE, P("1+x")),
        RationalTerm(P("x^2"), P("1+y")),
        RationalTerm(ONE, P("1+x+x*y^2")),
    ]
    expected = PatternPoly([(2, 0), (2, 1), (2, 2), (2, 3), (1, 2), (3, 2)])
    assert eval_sum(terms, Window(4, 3)) == expected


def test_eval_sum_checkerboard():
    q = P("1+x*y")
    terms = [RationalTerm(num, q) for num in (ONE, P("x^2"), P("y^2"), P("x^4"))]
    got = eval_sum(terms, Window(4, 3))
    expected = PatternPoly(
        (i, j) for i in range(5) for j in range(4) if (i - j) % 2 == 0
    )
    assert got == expected
    assert len(got) == 10


def test_eval_sum_of_three_diagonalish_terms():
    terms = [
        RationalTerm(ONE, P("1+x")),
        RationalTerm(ONE, P("1+x*y")),
        RationalTerm(ONE, P("1+x+x*y^2")),
    ]
    expected = PatternPoly([(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (3, 2)])
    assert eval_sum(terms, Window(4, 3)) == expected


def test_eval_sum_cancels_duplicates():
    term = RationalTerm(P("x"), P("1+x+y"))
    assert eval_sum([term, term], Window(6, 6)) == ZERO


def test_eval_sum_empty():
    assert eval_sum([], Window(3, 3)) == ZERO


# -- structural checks ---------------------------------------------------------


def test_check_denominator_messages():
    with pytest.raises(ValueError, match="constant term"):
        check_denominator(P("x"))
    with pytest.raises(ValueError, match="grading"):
        check_denominator(P("1+y^-1"))


def test_row_zero_matches_shift_register_sequence():
    from polyplane.sequences import poly_reciprocal_seq

    rng = random.Random(13)
    for _ in range(20):
        taps = {(0, 0)} | {(rng.randint(1, 5), 0) for _ in range(rng.randrange(1, 4))}
        q = PatternPoly(taps)
        w = Window(30, 2)
        series_row = reciprocal(q, w)
        bits = poly_reciprocal_seq(q, 31)
        for i in range(31):
            assert ((i, 0) in series_row) == (bits[i] == 1)


def test_zero_numerator_expands_to_zero():
    assert eval_term(RationalTerm(ZERO, P("1+x")), Window(4, 4)) == ZERO


def test_numerator_above_window_expands_to_zero():
    assert eval_term(RationalTerm(P("y^9"), P("1+x")), Window(4, 3)) == ZERO


def test_expansion_stops_at_its_dead_rows():
    # y^14/(1+x+x^2) has one live series row: a million window rows cost no more than fifteen
    term = RationalTerm(P("y^14"), P("1+x+x^2"))
    start = time.perf_counter()
    got = eval_term(term, Window(255, 10**6))
    assert time.perf_counter() - start < 0.1
    assert got == eval_term(term, Window(255, 14)) and len(got) == 171
    first, rows = expand_rows(P("x^2"), P("1+x^40*y"), Window(30, 10**6))  # row 1 is past the window
    assert first == 0 and rows[0] == 1 << 2 and not any(rows[1:]) and len(rows) <= 3
    # the list starts at the first window row a numerator term reaches
    first, rows = expand_rows(P("y^5+x*y^7"), P("1+x^40*y"), Window(30, 10**6))
    assert first == 5 and rows[:3] == [1, 0, 2] and not any(rows[3:]) and len(rows) <= 5


def test_the_rows_a_live_series_walks_are_bounded(monkeypatch):
    # a row step counts its shifts, one per lower tap and two more, times the band's width, at least
    # SERIES_ROW_BITS; the bound is on the rows beyond the window's height.  Here 3 lower taps on a
    # band of 10 bits, and 310 rows down to x*y^-300, 300 of them beyond the 10 rows of the window
    term, window = RationalTerm(P("x*y^-300"), P("1+x^3*y+x^3*y^2+y")), Window(9, 9)
    want = eval_term(term, window)
    monkeypatch.setattr(series, "MAX_SERIES_BITS", 5 * series.SERIES_ROW_BITS * 300)
    assert eval_term(term, window) == want and want
    monkeypatch.setattr(series, "MAX_SERIES_BITS", 5 * series.SERIES_ROW_BITS * 300 - 1)
    with pytest.raises(ValueError, match="series too deep: still live after 309 of its 310 rows of 10 bits;"
                                         " the 300 beyond the window's height pass over more than 6143999 bits"):
        eval_term(term, window)
    # a band wider than SERIES_ROW_BITS counts its width: 2 lower taps on 6028 bits
    term = RationalTerm(P("y^-3000"), P("1+x^-1*y+x*y"))
    monkeypatch.setattr(series, "MAX_SERIES_BITS", 4 * 6028 * 3000)
    want = eval_term(term, window)
    monkeypatch.setattr(series, "MAX_SERIES_BITS", 4 * 6028 * 3000 - 1)
    with pytest.raises(ValueError, match="still live after 3009 of its 3010 rows of 6028 bits"):
        eval_term(term, window)
    # a series that dies within the bound is not refused however deep its numerator: 1/(1+x*y) leaves the
    # 10-bit band at row 10, and the loop stops at row 11, the second zero row of the two it keeps
    term = RationalTerm(P("y^-100000000"), P("1+x*y"))
    monkeypatch.setattr(series, "MAX_SERIES_BITS", 3 * series.SERIES_ROW_BITS * 2)
    assert eval_term(term, window) == ZERO
    monkeypatch.setattr(series, "MAX_SERIES_BITS", 3 * series.SERIES_ROW_BITS * 2 - 1)
    with pytest.raises(ValueError, match="still live after 11 of its 100000010 rows"):
        eval_term(term, window)
    # the window's own rows are not counted: 1/(1+y) is live on all 5000 rows of a window one column wide
    tall = Window(0, 4999)
    want = eval_term(RationalTerm(ONE, P("1+y")), tall)
    monkeypatch.setattr(series, "MAX_SERIES_BITS", 0)
    assert eval_term(RationalTerm(ONE, P("1+y")), tall) == want and len(want) == 5000
    with pytest.raises(ValueError, match="still live after 5000 of its 5001 rows"):
        eval_term(RationalTerm(P("y^-1"), P("1+y")), tall)


def test_the_window_rows_an_expansion_writes_are_bounded(monkeypatch):
    # the list of rows written is bounded at 64 bits a row, whatever the window's width
    monkeypatch.setattr(poly, "MAX_BOX_BITS", 64 * 1000)
    monkeypatch.setattr(series, "MAX_BOX_BITS", 64 * 1000)
    assert eval_term(RationalTerm(P("y^999"), P("1+x")), Window(3, 10**9)) == P("(1+x+x^2+x^3)*y^999")
    assert len(eval_term(RationalTerm(ONE, P("1+y")), Window(5000, 999))) == 1000
    # the rows are counted from the first one a numerator term reaches: y^10^8 costs one row
    assert eval_term(RationalTerm(P("y^100000000"), P("1+x")), Window(3, 10**9)) == P("(1+x+x^2+x^3)*y^100000000")
    with pytest.raises(ValueError, match="series too tall: 1001 window rows of 64 bits are over 64000 bits"):
        eval_term(RationalTerm(ONE, P("1+y")), Window(5000, 10**9))
    with pytest.raises(ValueError, match="series too tall: 1001 window rows"):
        eval_term(RationalTerm(P("y^7"), P("1+y")), Window(5000, 10**9))
    # so are those of an in-row-tap term
    with pytest.raises(ValueError, match="series too tall: 1001 window rows"):
        eval_term(RationalTerm(ONE, P("1+x+y")), Window(3, 10**9))
    # and those of a sum, gaps between its terms included, though each term is one row
    with pytest.raises(ValueError, match="series too tall: 100000001 window rows of 64 bits are over 64000 bits"):
        eval_sum([RationalTerm(ONE, ONE), RationalTerm(P("y^100000000"), P("1+x"))], Window(3, 10**9))


# -- the row engine against a cell-by-cell reference -----------------------


def reference_expand(num, den, window):
    """num * (1/den) on the window, resolving each series row bit by bit."""
    if not num:
        return ZERO
    depth = window.n - min(j for _, j in num.support)
    if depth < 0:
        return ZERO
    row_taps = sorted(a for a, b in den.support if b == 0 and a > 0)
    lower_taps = [(a, b) for a, b in den.support if b > 0]
    reach = max((abs(a) for a, _ in lower_taps), default=0)
    lo = min(0, -max(i for i, _ in num.support)) - depth * reach
    hi = max(0, window.m - min(i for i, _ in num.support)) + depth * reach
    series = []  # series[j] is the set of columns lit in series row j
    for j in range(depth + 1):
        row = set()
        for t in range(lo, hi + 1):
            bit = 1 if (j, t) == (0, 0) else 0
            for a, b in lower_taps:
                if b <= j and t - a in series[j - b]:
                    bit ^= 1
            for a in row_taps:
                if t - a in row:
                    bit ^= 1
            if bit:
                row.add(t)
        series.append(row)
    cells = set()
    for u, v in num.support:
        for j in range(max(v, 0), window.n + 1):
            for i in range(window.m + 1):
                if i - u in series[j - v]:
                    cells ^= {(i, j)}
    return PatternPoly(cells)


def random_term(rng, case):
    """A random admissible term of one of the CASES, and a window for it."""
    row_count, lower_x, lower_count, num_x, num_y, num_count, side = CASES[case]
    den = {(0, 0)}
    den |= {(rng.randint(1, 6), 0) for _ in range(rng.randrange(*row_count))}
    den |= {(rng.randint(*lower_x), rng.randint(1, 3)) for _ in range(rng.randrange(*lower_count))}
    num = {(rng.randint(*num_x), rng.randint(*num_y)) for _ in range(rng.randrange(*num_count))}
    if case in BAND_WIDTHS:
        # lower taps x^a*y^b with a >= 0 and every numerator term inside the window's
        # columns and at most 3 rows down: the band is the window's columns widened by
        # the spread of the numerator's x-exponents, so the window sets its width
        xs = [u for u, _ in num]
        window = Window(rng.randint(*BAND_WIDTHS[case]) - 1 - (max(xs) - min(xs)), rng.randrange(3, side + 1))
    else:
        window = Window(rng.randrange(side // 4 if case != "small" else 0, side + 1), rng.randrange(0, side + 1))
    return RationalTerm(PatternPoly(num), PatternPoly(den)), window


# in-row tap count range, lower-tap x-steps and count range, numerator x- and y-exponents and
# term count range, window side (the height alone for the BAND_WIDTHS cases)
CASES = {
    "small": ((0, 4), (-3, 3), (0, 3), (-4, 6), (-3, 6), (0, 4), 15),
    # x-steps that pass the window: the rows die after a few steps, and the expansion stops
    "rows_die": ((0, 4), (8, 45), (1, 3), (-6, 10), (-3, 20), (1, 5), 40),
    # only nonnegative lower taps: the band gets no margin, wherever the numerator sits
    "numerators_far_left": ((0, 4), (0, 4), (1, 3), (-70, -30), (-3, 20), (1, 5), 40),
    "numerators_far_right": ((0, 4), (0, 4), (1, 3), (10, 40), (-3, 20), (1, 5), 40),
    "laurent_wide": ((0, 4), (-3, 3), (0, 3), (-20, 40), (-3, 20), (1, 5), 40),
    # in-row taps on every term, on bands of about one byte, one word and two words
    "in_row_band_8": ((1, 4), (0, 4), (0, 3), (0, 3), (-3, 3), (1, 5), 40),
    "in_row_band_64": ((1, 4), (0, 4), (0, 3), (0, 3), (-3, 3), (1, 5), 40),
    "in_row_band_128": ((1, 4), (0, 4), (0, 3), (0, 3), (-3, 3), (1, 5), 40),
    # in-row taps beside lower taps whose x-step reaches or passes the band's width
    "in_row_steps_pass_band": ((1, 4), (7, 12), (1, 4), (0, 3), (-3, 3), (1, 5), 40),
    # in-row taps beside Laurent lower taps, which widen the band
    "in_row_laurent": ((1, 4), (-4, -1), (1, 3), (-10, 20), (-3, 20), (1, 5), 40),
    # in-row taps beside lower taps whose x-steps pass the window: the band keeps only the rows
    # j with j*min(a/b) inside it, and the rows below them are zero
    "in_row_rows_die": ((1, 4), (8, 45), (1, 3), (-3, 3), (-3, 20), (1, 5), 40),
}
# the band widths, in bits, of the cases whose window is sized from their band
BAND_WIDTHS = {
    "in_row_band_8": (7, 9),
    "in_row_band_64": (63, 65),
    "in_row_band_128": (127, 129),
    "in_row_steps_pass_band": (7, 9),
}


def test_expansion_matches_cell_by_cell_reference():
    for case in CASES:
        rng = random.Random(97 if case == "small" else f"97-{case}")
        for _ in range(150 if case == "small" else 40):
            term, w = random_term(rng, case)
            assert eval_term(term, w) == reference_expand(term.numerator, term.denominator, w), (case, term, w)


def test_eval_sum_is_the_sum_of_the_references():
    rng = random.Random(101)
    for _ in range(30):
        case = rng.choice(list(CASES))
        terms, windows = zip(*[random_term(rng, case) for _ in range(rng.randrange(2, 5))])
        terms, w = list(terms), windows[0]
        if rng.random() < 0.3:
            terms.append(terms[0])  # a repeated term cancels
        want = set()
        for t in terms:
            want ^= reference_expand(t.numerator, t.denominator, w).support
        assert eval_sum(terms, w) == PatternPoly(want), (terms, w)


def test_both_sides_of_the_packed_band_budget_match_the_reference(monkeypatch):
    # An in-row-tap term whose whole band fits PACKED_BAND_BITS is resolved in one packed
    # product, any other row by row.  The budgets below put each term's band under some of
    # them and over the rest, from none packed (0) to all packed.
    rng = random.Random("97-budget")
    cases = ["in_row_band_8", "in_row_band_64", "in_row_band_128", "in_row_steps_pass_band", "in_row_laurent",
             "in_row_rows_die"]
    terms = [random_term(rng, case) for case in cases for _ in range(6)]
    wants = [reference_expand(t.numerator, t.denominator, w) for t, w in terms]
    for bits in [0] + [1 << k for k in range(6, 18)] + [1 << 40]:
        monkeypatch.setattr(series, "PACKED_BAND_BITS", bits)
        for (term, w), want in zip(terms, wants):
            assert eval_term(term, w) == want, (bits, term, w)
