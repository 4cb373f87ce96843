"""Folding bit sequences into rectangular arrays and back.

The diagonal scheme places 1-indexed term k at row (k-1) mod rows,
column (k-1) mod cols; by the Chinese remainder theorem this covers every
cell exactly once iff rows and cols are coprime.  row_major fills left to
right, top to bottom; col_major top to bottom, left to right.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from operator import itemgetter

from .poly import Frozen
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
        lines = tuple(line if is_bit_text(line) else bit_text(line, "cells") for line in lines)
        object.__setattr__(self, "_lines", lines)
        object.__setattr__(self, "_cells", None)

    @classmethod
    def from_lines(cls, text: str) -> "BitGrid":
        return cls(line for line in text.splitlines() if line)

    def __reduce__(self):
        return BitGrid, (self._lines,)

    @property
    def cells(self) -> tuple:
        """The rows as tuples of ints 0 and 1."""
        if self._cells is None:
            object.__setattr__(self, "_cells", tuple(map(bit_tuple, self._lines)))
        return self._cells

    @property
    def rows(self) -> int:
        return len(self._lines)

    @property
    def cols(self) -> int:
        return len(self._lines[0])

    def __getitem__(self, r):
        return self.cells[r]

    def _key(self) -> tuple:
        return self._lines

    def __str__(self) -> str:
        return "\n".join(self._lines)

    def __repr__(self) -> str:
        return f"BitGrid({list(self._lines)})"


def _check_scheme(rows: int, cols: int, scheme: str) -> None:
    if scheme == "diagonal":
        if math.gcd(rows, cols) != 1:
            raise ValueError(
                f"rows and cols must be coprime for the diagonal scheme (gcd={math.gcd(rows, cols)})"
            )
    elif scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")


def _rotate(line: str, r: int) -> str:
    # the line rotated left by r places
    r %= len(line)
    return line[r:] + line[:r]


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
        return BitGrid([text[r * cols : (r + 1) * cols] for r in range(rows)])
    lines = [text[r::rows] for r in range(rows)]  # the terms t = r mod rows, in order
    if scheme == "diagonal":
        # term r + rows*k goes to column r + rows*k mod cols: put term k of the
        # row at column rows*k mod cols, then rotate right by r
        inverse = pow(rows, -1, cols)
        place = itemgetter(*[c * inverse % cols for c in range(cols)])
        lines = [_rotate("".join(place(terms)), -r) for r, terms in enumerate(lines)]
    return BitGrid(lines)


def unfold(g: BitGrid, scheme: str) -> BitSeq:
    """Read a grid back into the sequence that fold() would have consumed."""
    _check_scheme(g.rows, g.cols, scheme)
    lines = g._lines
    if scheme == "row_major":
        return BitSeq("".join(lines))
    if scheme == "diagonal":
        take = itemgetter(*[g.rows * k % g.cols for k in range(g.cols)])
        lines = ["".join(take(_rotate(line, r))) for r, line in enumerate(lines)]
    return BitSeq("".join(map("".join, zip(*lines))))
