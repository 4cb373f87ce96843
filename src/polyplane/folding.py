"""Folding bit sequences into rectangular arrays and back.

The diagonal scheme places 1-indexed term k at row (k-1) mod rows,
column (k-1) mod cols; by the Chinese remainder theorem this covers every
cell exactly once iff rows and cols are coprime.  row_major fills left to
right, top to bottom; col_major top to bottom, left to right.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .poly import BIT_VALUES, Frozen
from .sequences import BitSeq, bit_text, bit_tuple, is_bit_text

SCHEMES = ("diagonal", "row_major", "col_major")


class BitGrid(Frozen):
    """An immutable rows x cols array of bits.

    Each row is stored as one '0'/'1' str; ``cells`` is a tuple-of-tuples
    view of ints, built once, on first use.
    """

    __slots__ = ("_lines", "_cells")

    def __init__(self, rows: Iterable[Iterable]):
        lines = [row if isinstance(row, str) else tuple(int(b) for b in row) for row in rows]
        if not lines or not lines[0]:
            raise ValueError("grid must have at least one row and one column")
        if any(len(line) != len(lines[0]) for line in lines):
            raise ValueError("grid rows must all have the same length")
        _init_grid(self, [line if is_bit_text(line) else bit_text(line, "cells") for line in lines])

    @staticmethod
    def _make(lines) -> "BitGrid":
        # a grid of '0'/'1' rows of one length that polyplane cut itself: unchecked
        return _init_grid(object.__new__(BitGrid), lines)

    @classmethod
    def from_lines(cls, text: str) -> "BitGrid":
        return cls(line for line in text.splitlines() if line)

    def __reduce__(self):
        return BitGrid, (self._lines,)

    @property
    def cells(self) -> tuple:
        """The rows as tuples of ints 0 and 1."""
        if self._cells is None:  # one translate of the whole text, cut into rows by zip
            data = "".join(self._lines).encode().translate(BIT_VALUES)
            object.__setattr__(self, "_cells", tuple(zip(*[iter(data)] * self.cols)))
        return self._cells

    @property
    def rows(self) -> int:
        return len(self._lines)

    @property
    def cols(self) -> int:
        return len(self._lines[0])

    def __getitem__(self, r):
        # read from the lines: a tuple row for an index, a tuple of them for a slice, as from .cells
        return tuple(map(bit_tuple, self._lines[r])) if isinstance(r, slice) else bit_tuple(self._lines[r])

    def _key(self) -> tuple:
        return self._lines

    def __str__(self) -> str:
        return "\n".join(self._lines)

    def __repr__(self) -> str:
        return f"BitGrid({list(self._lines)})"


def _init_grid(g: BitGrid, lines) -> BitGrid:
    object.__setattr__(g, "_lines", tuple(lines))
    object.__setattr__(g, "_cells", None)
    return g


def _check_scheme(rows: int, cols: int, scheme: str) -> None:
    if scheme == "diagonal":
        if math.gcd(rows, cols) != 1:
            raise ValueError(
                f"rows and cols must be coprime for the diagonal scheme (gcd={math.gcd(rows, cols)})"
            )
    elif scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")


def fold(s, rows: int, cols: int, scheme: str) -> BitGrid:
    """Arrange a sequence of rows*cols bits into a grid."""
    if not isinstance(s, BitSeq):
        s = BitSeq(s)
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    _check_scheme(rows, cols, scheme)
    if len(s) != rows * cols:
        raise ValueError(f"sequence length {len(s)} != rows*cols = {rows * cols}")
    text = str(s)
    if scheme == "row_major":
        return BitGrid._make([text[r * cols : (r + 1) * cols] for r in range(rows)])
    if scheme == "col_major":
        return BitGrid._make([text[r::rows] for r in range(rows)])
    # The chunk text[rows*k : rows*(k+1)] holds the terms rows*k + r, term rows*k + r going to row r,
    # column rows*k + r mod cols.  Put chunk k at place rows*k mod cols: then placed[r::rows] is row
    # r rotated left by r, and row r itself is one slice of placed twice over, from place -r mod cols.
    inverse = pow(rows, -1, cols)
    placed = "".join([text[rows * k : rows * (k + 1)] for k in (c * inverse % cols for c in range(cols))])
    placed += placed
    return BitGrid._make([placed[start : start + rows * cols : rows]
                          for start in (r + rows * (-r % cols) for r in range(rows))])


def unfold(g: BitGrid, scheme: str) -> BitSeq:
    """Read a grid back into the sequence that fold() would have consumed."""
    rows, cols = g.rows, g.cols
    _check_scheme(rows, cols, scheme)
    lines = g._lines
    if scheme == "row_major":
        return BitSeq._make("".join(lines))
    if scheme == "col_major":
        flat = "".join(lines)
        return BitSeq._make("".join([flat[c::cols] for c in range(cols)]))
    # each row rotated left by r, so that column c of the rows is the chunk fold placed at c, and
    # chunk k of the sequence is the column rows*k mod cols
    flat = "".join([line[r % cols :] + line[: r % cols] for r, line in enumerate(lines)])
    return BitSeq._make("".join([flat[rows * k % cols :: cols] for k in range(cols)]))
