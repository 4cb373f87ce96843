"""PatternPoly, the torus ring and expression evaluation against oracles that share no code with them.

Polynomial arithmetic is checked against sympy's GF(2) polynomials, with
Laurent supports shifted to nonnegative exponents; reduction against a
set-based fold; and inverse and annihilator against a set-based copy of
the Gauss-Jordan elimination they are defined by, on every element of
every torus with m*n <= 12.  Evaluation is checked term by term: in window
mode against the bit-by-bit series of tests/test_series.py and a cell
filter, in wrap mode against the set-based fold and elimination.
"""

from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from polyplane.dsl import PatternExpr, Term, evaluate, parse
from polyplane.poly import ONE, ZERO, PatternPoly, Window, diag_key
from polyplane.ring import QuotientRing
from polyplane.series import check_denominator
from test_series import reference_expand

SX, SY = sympy.symbols("x y")
LOW = 6  # exponents drawn from [-LOW, LOW]; shifting by LOW makes them nonnegative

supports = st.frozensets(st.tuples(st.integers(-LOW, LOW), st.integers(-LOW, LOW)), max_size=14)
shifts = st.integers(-2 * LOW, 2 * LOW)


def to_sympy(support, offset=LOW):
    return sympy.Poly(sum((SX ** (i + offset) * SY ** (j + offset) for i, j in support), sympy.S.Zero),
                      SX, SY, modulus=2)


def from_sympy(poly, offset=LOW):
    return {(i - offset, j - offset) for (i, j), c in poly.terms() if int(c) % 2}


@given(supports, supports)
def test_add_matches_sympy(a, b):
    assert (PatternPoly(a) + PatternPoly(b)).support == from_sympy(to_sympy(a) + to_sympy(b))


@given(supports, supports)
def test_mul_matches_sympy(a, b):
    product_ = PatternPoly(a) * PatternPoly(b)
    assert product_.support == from_sympy(to_sympy(a) * to_sympy(b), 2 * LOW)


@given(st.tuples(st.integers(-LOW, LOW), st.integers(-LOW, LOW)), supports)
def test_mul_by_one_cell_matches_sympy(mono, a):
    one = PatternPoly.monomial(*mono)
    assert one == PatternPoly([mono]) and hash(one) == hash(PatternPoly([mono])) and one.support == {mono}
    want = from_sympy(to_sympy({mono}) * to_sympy(a), 2 * LOW)
    assert (one * PatternPoly(a)).support == want
    assert (PatternPoly(a) * one).support == want
    assert (one * one).support == {(2 * mono[0], 2 * mono[1])}


def test_monomial_exponents_must_be_integers():
    for bad in ((1.5, 0), (0, 2.0), ("1", 0)):
        with pytest.raises(TypeError):
            PatternPoly.monomial(*bad)


@settings(deadline=None, max_examples=50)
@given(st.frozensets(st.tuples(st.integers(-LOW, LOW), st.integers(-LOW, LOW)), max_size=5), st.integers(0, 4))
def test_pow_matches_sympy(a, e):
    assert (PatternPoly(a) ** e).support == from_sympy(to_sympy(a) ** e, e * LOW)


@given(supports, shifts, shifts)
def test_shift_matches_sympy(a, dx, dy):
    moved = to_sympy(a) * sympy.Poly(SX ** (dx + 2 * LOW) * SY ** (dy + 2 * LOW), SX, SY, modulus=2)
    assert PatternPoly(a).shift(dx, dy).support == from_sympy(moved, 3 * LOW)


@given(supports, st.integers(0, LOW + 1), st.integers(0, LOW + 1))
def test_truncate_matches_sympy(a, m, n):
    want = {(i, j) for i, j in from_sympy(to_sympy(a)) if 0 <= i <= m and 0 <= j <= n}
    assert PatternPoly(a).truncate(Window(m, n)).support == want


@given(supports)
def test_views_agree_with_the_support(a):
    p = PatternPoly(a)
    assert p.support == a and isinstance(p.support, frozenset)
    assert len(p) == len(a) and bool(p) == bool(a)
    assert list(p) == sorted(a, key=diag_key)
    assert all(cell in p for cell in a)
    assert (LOW + 1, 0) not in p


@given(st.integers(0, 3), st.lists(st.integers(0, 1 << 12), max_size=8), shifts, shifts)
def test_from_rows_equals_the_cell_set(lead, rows, dx, dy):
    rows = [0] * lead + rows  # empty leading rows
    cells = {(i + dx, j + dy) for j, row in enumerate(rows) for i in range(row.bit_length()) if row >> i & 1}
    p = PatternPoly.from_rows(rows).shift(dx, dy)  # dx < 0 gives negative columns
    q = PatternPoly(cells)
    assert p == q and hash(p) == hash(q)
    assert p.support == cells


# columns near the origin or up to 2^22 away, so that a row can be millions of bits wide
wide_cells = st.frozensets(st.tuples(st.integers(-LOW, LOW) | st.integers(-(1 << 22), 1 << 22),
                                     st.integers(-LOW, LOW)), max_size=14)


@settings(max_examples=60)
@given(wide_cells)
def test_cells_build_the_rows_of_from_rows(cells):
    rows, x0, y0 = [0] * (2 * LOW + 1), min((i for i, _ in cells), default=0), -LOW
    for i, j in cells:
        rows[j - y0] |= 1 << i - x0  # the cells' bits set one at a time
    p = PatternPoly(cells)
    assert p == PatternPoly.from_rows(rows).shift(x0, y0) and p.support == cells


def set_reduce(support, m, n):
    residue = set()
    for i, j in support:
        residue ^= {(i % m, j % n)}
    return residue


@settings(max_examples=200)
@given(st.frozensets(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=20),
       st.integers(1, 9), st.integers(1, 9))
def test_reduce_matches_a_set_fold(a, m, n):
    assert QuotientRing(m, n).reduce(PatternPoly(a)).support == set_reduce(a, m, n)


@given(supports, supports, st.integers(1, 6), st.integers(1, 6))
def test_ring_mul_is_the_reduced_product(a, b, m, n):
    ring = QuotientRing(m, n)
    want = set_reduce(from_sympy(to_sympy(a) * to_sympy(b), 2 * LOW), m, n)
    assert ring.mul(PatternPoly(a), PatternPoly(b)).support == want


def reference_solve(ring, support):
    # Gauss-Jordan over GF(2) on the matrix of multiplication by the element,
    # columns in basis order, built cell by cell; returns (inverse, annihilator)
    # as supports, None where there is none.
    basis = ring.basis
    index = {cell: t for t, cell in enumerate(basis)}
    size = len(basis)
    rows = [0] * size
    for col, (bi, bj) in enumerate(basis):
        for cell in set_reduce({(i + bi, j + bj) for i, j in support}, ring.m, ring.n):
            rows[index[cell]] |= 1 << col
    rows[0] |= 1 << size  # basis[0] is 1
    pivots = []
    for col in range(size):
        hit = next((r for r in range(len(pivots), size) if rows[r] >> col & 1), None)
        if hit is None:
            continue
        rank = len(pivots)
        rows[rank], rows[hit] = rows[hit], rows[rank]
        for r in range(size):
            if r != rank and rows[r] >> col & 1:
                rows[r] ^= rows[rank]
        pivots.append(col)
    if len(pivots) == size:
        return {basis[c] for r, c in enumerate(pivots) if rows[r] >> size & 1}, None
    free = next(c for c in range(size) if c not in pivots)
    return None, {basis[free]} | {basis[c] for r, c in enumerate(pivots) if rows[r] >> free & 1}


def test_inverse_and_annihilator_match_the_reference_on_every_small_torus():
    for m, n in product(range(1, 13), repeat=2):
        if m * n > 12:
            continue
        ring = QuotientRing(m, n)
        for element in ring.enumerate_nonzero():
            inverse, annihilator = reference_solve(ring, element.support)
            got = ring.inverse(element)
            assert (got and got.support) == inverse, (m, n, element)
            got = ring.annihilator(element)
            assert (got and got.support) == annihilator, (m, n, element)


def set_mul(a, b, m, n):
    out = set()
    for i, j in a:
        for k, l in b:
            out ^= {((i + k) % m, (j + l) % n)}
    return out


near = st.integers(-3, 5)
far = st.sampled_from([-300000000, -70000, 70000, 300000000])  # far left, right, above or below the grid
plain_terms = st.one_of(st.frozensets(st.tuples(near, near), min_size=1, max_size=4),
                        st.tuples(near | far, near | far).map(lambda cell: {cell}))


@st.composite
def quotient_terms(draw):
    numerator = draw(st.frozensets(st.tuples(near, near), min_size=1, max_size=3))
    taps = draw(st.frozensets(st.tuples(st.integers(-2, 3), st.integers(-1, 2)), min_size=1, max_size=3))
    if draw(st.integers(0, 3)):  # mostly admissible: a constant term and taps after it in the (y, x) grading
        taps = {(0, 0)} | {(a, b) for a, b in taps if b > 0 or (b == 0 and a > 0)}
    return Term(PatternPoly(numerator), PatternPoly(taps))


expressions = st.lists(plain_terms.map(lambda s: Term(PatternPoly(s))) | quotient_terms(), min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(expressions, st.integers(0, 4), st.integers(0, 4))
def test_evaluate_is_the_sum_of_its_terms_in_both_modes(terms, m, n):
    expr, w, torus = PatternExpr(tuple(terms)), Window(m, n), QuotientRing(m + 1, n + 1)
    prefixes = [f"term {k} ({PatternExpr((t,)).to_text()}): " for k, t in enumerate(terms, 1)]

    # window mode: each quotient's series, each plain numerator cut to the window
    want, error = set(), None
    for t, prefix in zip(terms, prefixes):
        if t.denominator is None:
            want ^= {(i, j) for i, j in t.numerator.support if 0 <= i <= m and 0 <= j <= n}
            continue
        try:
            check_denominator(t.denominator)
        except ValueError as exc:
            error = error or prefix + str(exc)
            continue
        want ^= reference_expand(t.numerator, t.denominator, w).support
    if error:
        with pytest.raises(ValueError) as info:
            evaluate(expr, w)
        assert str(info.value) == error
    else:
        assert evaluate(expr, w).support == want

    # wrap mode: each numerator folded onto the torus, times the inverse of its denominator
    want, error = set(), None
    for t, prefix in zip(terms, prefixes):
        inverse = {(0, 0)} if t.denominator is None else reference_solve(torus, t.denominator.support)[0]
        if inverse is None:
            error = error or prefix + f"denominator is not invertible on the {m + 1}x{n + 1} torus"
            continue
        want ^= set_mul(set_reduce(t.numerator.support, m + 1, n + 1), inverse, m + 1, n + 1)
    if error:
        with pytest.raises(ValueError) as info:
            evaluate(expr, Window(m, n, "wrap"))
        assert str(info.value) == error
    else:
        assert evaluate(expr, Window(m, n, "wrap")).support == want


def test_a_plain_term_far_off_the_grid_is_cut_or_folded_before_the_sum():
    # summed whole, x^-300000000 + 1 would span 3*10^8 columns, over the bound of a polynomial's box
    expr = parse("x^-300000000 + 1")
    assert evaluate(expr, Window(2, 2)) == ONE
    assert evaluate(expr, Window(2, 2, "wrap")) == ZERO
    assert evaluate(parse("x^-300000000"), Window(2, 2)) == ZERO
