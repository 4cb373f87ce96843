"""Sequences, folds and codecs against per-bit references kept in this file.

Each reference is the plain loop the definition states: a fold places term
t at its cell one step at a time, a codec walks monomial_at/index_of bit by
bit, bit k of a d-sequence is (2^(k+1) mod p) mod 2, and a period hint
holds when every bit equals the one a hint further on.  An LFSR sequence
is checked without its recurrence: Berlekamp-Massey must read its
polynomial back from its first 2*deg q bits.  Errors are compared by type
and message.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from polyplane.folding import SCHEMES, BitGrid, fold, unfold
from polyplane.ordering import ORDERINGS, decode, encode, index_of, monomial_at
from polyplane.poly import ZERO, PatternPoly
from polyplane.sequences import BitSeq, dseq, poly_reciprocal_seq

bit_lists = st.lists(st.integers(0, 1), max_size=120)
sides = st.integers(1, 12)


def place(t, rows, cols, scheme):
    if scheme == "diagonal":
        return t % rows, t % cols
    if scheme == "row_major":
        return divmod(t, cols)
    return t % rows, t // rows


def reference_fold(bits, rows, cols, scheme):
    if scheme == "diagonal" and math.gcd(rows, cols) != 1:
        raise ValueError(f"rows and cols must be coprime for the diagonal scheme (gcd={math.gcd(rows, cols)})")
    if len(bits) != rows * cols:
        raise ValueError(f"sequence length {len(bits)} != rows*cols = {rows * cols}")
    cells = [[None] * cols for _ in range(rows)]
    for t, b in enumerate(bits):
        r, c = place(t, rows, cols, scheme)
        assert cells[r][c] is None  # every cell is written once
        cells[r][c] = b
    return tuple(map(tuple, cells))


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@given(st.data(), sides, sides, st.sampled_from(SCHEMES))
def test_fold_and_unfold_match_per_cell_placement(data, rows, cols, scheme):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
    want = outcome(reference_fold, bits, rows, cols, scheme)
    got = outcome(lambda: fold(BitSeq(bits), rows, cols, scheme).cells)
    assert got == want
    grid = BitGrid(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)))
    if scheme == "diagonal" and math.gcd(rows, cols) != 1:
        assert outcome(unfold, grid, scheme) == want
    else:
        read = tuple(grid[r][c] for r, c in (place(t, rows, cols, scheme) for t in range(rows * cols)))
        assert unfold(grid, scheme).bits == read
        assert fold(unfold(grid, scheme), rows, cols, scheme) == grid


@given(bit_lists, sides, sides, st.sampled_from(SCHEMES))
def test_fold_length_errors_match(bits, rows, cols, scheme):
    assert outcome(lambda: fold(bits, rows, cols, scheme).cells) == outcome(reference_fold, bits, rows, cols, scheme)


def test_fold_thin_shapes():
    bits = BitSeq("1101001")
    for scheme in SCHEMES:
        assert fold(bits, 1, 7, scheme).cells == (bits.bits,)
        assert fold(bits, 7, 1, scheme).cells == tuple((b,) for b in bits)
        assert unfold(fold(bits, 1, 7, scheme), scheme) == bits
        assert unfold(fold(bits, 7, 1, scheme), scheme) == bits


def reference_decode(bits, ordering):
    return PatternPoly(monomial_at(ordering, k) for k, b in enumerate(bits) if b)


def reference_encode(poly, ordering, length=None):
    if any(i < 0 or j < 0 for i, j in poly.support):
        raise ValueError("polynomials with negative exponents cannot be encoded")
    indices = {index_of(ordering, mono) for mono in poly.support}
    needed = max(indices) + 1 if indices else 0
    if length is None:
        length = needed
    elif length < needed:
        raise ValueError(f"length {length} too small: the support needs {needed} bits")
    return tuple(1 if k in indices else 0 for k in range(length))


@given(bit_lists, st.sampled_from(ORDERINGS))
def test_decode_matches_monomial_at(bits, ordering):
    assert decode(BitSeq(bits), ordering) == reference_decode(bits, ordering)
    assert decode(bits, ordering) == reference_decode(bits, ordering)


def test_decode_of_lengths_ending_mid_diagonal_and_mid_shell():
    for n in range(0, 60):
        bits = [1] * n
        for ordering in ORDERINGS:
            assert decode(bits, ordering) == reference_decode(bits, ordering)
            assert decode([0] * n + [1], ordering) == PatternPoly([monomial_at(ordering, n)])


cells = st.frozensets(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=20)


@given(cells, st.sampled_from(ORDERINGS), st.one_of(st.none(), st.integers(0, 300)))
def test_encode_matches_index_of(support, ordering, length):
    poly = PatternPoly(support)
    got = outcome(lambda: encode(poly, ordering, length).bits)
    assert got == outcome(reference_encode, poly, ordering, length)


@given(cells, st.integers(-5, -1), st.integers(-5, 5), st.sampled_from(ORDERINGS), st.booleans())
def test_encode_refuses_laurent_terms(support, low, other, ordering, in_x):
    poly = PatternPoly(support | {(low, other) if in_x else (other, low)})
    assert outcome(encode, poly, ordering) == outcome(reference_encode, poly, ordering)


def test_encode_edge_cases_match():
    for ordering in ORDERINGS:
        assert encode(ZERO, ordering).bits == ()
        assert encode(ZERO, ordering, 5).bits == (0,) * 5
        for k in range(40):  # a lone monomial at every position of the first shells
            mono = PatternPoly([monomial_at(ordering, k)])
            assert encode(mono, ordering).bits == (0,) * k + (1,)
            assert outcome(encode, mono, ordering, k) == outcome(reference_encode, mono, ordering, k)


@given(st.sampled_from([3, 5, 7, 11, 13, 19, 23, 29, 101, 1009, 65537, 2**31 - 1, 2**61 - 1]),
       st.integers(1, 400))
def test_dseq_matches_powers_of_two(p, count):
    assert dseq(p, count).bits == tuple(pow(2, k + 1, p) % 2 for k in range(count))


def berlekamp_massey(bits) -> int:
    """The connection polynomial of the shortest LFSR that generates bits, over GF(2),
    as an int with bit i for x^i (Massey, IEEE Trans. Inf. Theory 15, 1969)."""
    c, b = 1, 1  # the current and the last-changed connection polynomials
    length, gap = 0, 1
    for n, bit in enumerate(bits):
        # the discrepancy: bit n against what c predicts from the length bits before it
        d = bit
        for i in range(1, length + 1):
            d ^= (c >> i & 1) & bits[n - i]
        if not d:
            gap += 1
        elif 2 * length <= n:
            c, b = c ^ (b << gap), c
            length, gap = n + 1 - length, 1
        else:
            c ^= b << gap
            gap += 1
    return c


def test_berlekamp_massey_reads_the_polynomial_back_from_an_lfsr_sequence():
    # 1/q has linear complexity deg q, so 2*deg q of its bits determine q
    rng = random.Random(5)
    for degree in list(range(1, 25)) * 6:
        packed = 1 | 1 << degree | rng.getrandbits(degree) << 1 & (1 << degree) - 1
        q = PatternPoly((i, 0) for i in range(degree + 1) if packed >> i & 1)
        assert berlekamp_massey(poly_reciprocal_seq(q, 2 * degree).bits) == packed, q


@given(bit_lists, st.integers(1, 130), st.booleans())
@settings(max_examples=300)
def test_bitseq_hint_check_matches_the_loop(bits, hint, as_text):
    holds = all(bits[k] == bits[k + hint] for k in range(len(bits) - hint))
    value = "".join(map(str, bits)) if as_text else bits
    if holds:
        assert BitSeq(value, period_hint=hint).period_hint == hint
    else:
        with pytest.raises(ValueError, match=f"bits do not repeat with period {hint}"):
            BitSeq(value, period_hint=hint)


def test_bitseq_errors_match():
    # text is 0/1 text or refused whole: int() would read a fullwidth "１" as 1 and an Arabic-Indic "٠" as 0
    for bad, message in (("0102", "bits must be 0 or 1"), ([0, 2], "bits must be 0 or 1"),
                         ("01a", "bits must be 0 or 1"), ("0 1", "bits must be 0 or 1"),
                         ("\uff11\u06601", "bits must be 0 or 1"), ([0, "a"], "invalid literal")):
        with pytest.raises(ValueError, match=message):
            BitSeq(bad)
    for bad, message in (([], "at least one"), ([[0, 1], [1]], "same length"), ([[0, 2]], "0 or 1"),
                         (["01", "1"], "same length"), (["0a"], "cells must be 0 or 1"),
                         (["01", "\uff110"], "cells must be 0 or 1")):
        with pytest.raises(ValueError, match=message):
            BitGrid(bad)


@given(bit_lists, st.sampled_from(ORDERINGS))
def test_views_are_tuples_of_ints(bits, ordering):
    s = BitSeq("".join(map(str, bits)))
    assert type(s.bits) is tuple and all(type(b) is int for b in s.bits)
    assert s.bits == tuple(bits) and list(s) == bits and str(s) == "".join(map(str, bits))
    assert BitSeq(bits) == s and hash(BitSeq(bits)) == hash(s)
    if bits:
        grid = fold(s, 1, len(bits), "row_major")
        assert type(grid.cells) is tuple and type(grid[0]) is tuple
        assert all(type(b) is int for b in grid[0]) and grid.cells == (tuple(bits),)
        assert BitGrid(["".join(map(str, bits))]) == grid == BitGrid([bits])
    code = encode(decode(s, ordering), ordering, len(bits))
    assert type(code.bits) is tuple and all(type(b) is int for b in code.bits)
