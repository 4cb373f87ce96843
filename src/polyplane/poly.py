"""Bivariate polynomials over GF(2) with set-of-monomials semantics.

A monomial is a plain ``(i, j)`` pair of integer exponents standing for
x^i y^j; negative exponents are allowed (Laurent terms).  A polynomial is
the set of monomials whose coefficient is 1, so addition is symmetric
difference and every element is its own negative.  The empty set is the
zero polynomial.

Polynomials double as binary pictures: monomial (i, j) marks the cell in
column i, row j of a grid.  A :class:`Window` fixes the visible part of
the grid by inclusive maximum exponents, giving (m+1) x (n+1) cells.
Whole-window code packs row j of a grid into an int whose bit i is cell (i, j).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

Monomial = tuple  # an (i, j) exponent pair


def diag_key(mono: Monomial) -> tuple[int, int]:
    """Sort key of the antidiagonal term order: total degree, then y."""
    i, j = mono
    return (i + j, j)


def set_bits(row: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative int, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def term_text(mono: Monomial) -> str:
    """Canonical text of one monomial: "1", "x", "y^3", "x^2*y", "x^-1*y"."""
    i, j = mono
    if i == 0 and j == 0:
        return "1"
    parts = []
    if i != 0:
        parts.append("x" if i == 1 else f"x^{i}")
    if j != 0:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


@dataclass(frozen=True)
class Window:
    """Visible grid: exponents 0..m horizontally, 0..n vertically, inclusive.

    ``mode`` selects how expressions are evaluated on the grid: "window"
    truncates a power series to the rectangle, "wrap" folds exponents onto
    the (m+1) x (n+1) torus instead.
    """

    m: int
    n: int
    mode: str = "window"

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("window bounds must be nonnegative")
        if self.mode not in ("window", "wrap"):
            raise ValueError(f"unknown window mode {self.mode!r}")

    @property
    def width(self) -> int:
        return self.m + 1

    @property
    def height(self) -> int:
        return self.n + 1

    def contains(self, mono: Monomial) -> bool:
        i, j = mono
        return 0 <= i <= self.m and 0 <= j <= self.n


class PatternPoly:
    """A bivariate GF(2) polynomial stored as its support set.

    Instances are immutable and hashable.  ``+`` is GF(2) addition
    (symmetric difference of supports, so ``a + a == 0``), ``*`` is
    polynomial multiplication with coefficients folded mod 2, and ``-``
    is an alias of ``+``.
    """

    __slots__ = ("support",)

    support: frozenset

    def __init__(self, monomials: Iterable[Monomial] = ()):
        support = set()
        for mono in monomials:
            i, j = mono
            support.add((operator.index(i), operator.index(j)))
        object.__setattr__(self, "support", frozenset(support))

    @classmethod
    def _raw(cls, support: frozenset) -> "PatternPoly":
        # internal fast path: support is already a validated frozenset
        self = object.__new__(cls)
        object.__setattr__(self, "support", support)
        return self

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "PatternPoly":
        """The cells (i, j) with bit i set in rows[j]."""
        return cls._raw(frozenset((i, j) for j, row in enumerate(rows) for i in set_bits(row)))

    @classmethod
    def monomial(cls, i: int, j: int) -> "PatternPoly":
        """The single-term polynomial x^i y^j."""
        return cls(((i, j),))

    def __setattr__(self, name, value):
        raise AttributeError("PatternPoly is immutable")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PatternPoly):
            return NotImplemented
        return PatternPoly._raw(self.support ^ other.support)

    __sub__ = __add__

    def __mul__(self, other):
        if not isinstance(other, PatternPoly):
            return NotImplemented
        acc: set = set()
        for a, b in self.support:
            for c, d in other.support:
                key = (a + c, b + d)
                if key in acc:
                    acc.remove(key)
                else:
                    acc.add(key)
        return PatternPoly._raw(frozenset(acc))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def shift(self, dx: int, dy: int) -> "PatternPoly":
        """Translate the pattern: multiply by x^dx y^dy (dx, dy may be < 0)."""
        return PatternPoly._raw(frozenset((i + dx, j + dy) for i, j in self.support))

    def truncate(self, window: Window) -> "PatternPoly":
        """Keep only the monomials visible in the window."""
        return PatternPoly._raw(frozenset(m for m in self.support if window.contains(m)))

    # -- container protocol ----------------------------------------------

    def terms(self) -> list[Monomial]:
        """Support in canonical (antidiagonal) order."""
        return sorted(self.support, key=diag_key)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.terms())

    def __contains__(self, mono: Monomial) -> bool:
        return tuple(mono) in self.support

    def __len__(self) -> int:
        return len(self.support)

    def __bool__(self) -> bool:
        return bool(self.support)

    def __eq__(self, other):
        if not isinstance(other, PatternPoly):
            return NotImplemented
        return self.support == other.support

    def __hash__(self):
        return hash(self.support)

    def __str__(self) -> str:
        if not self.support:
            return "0"
        return "+".join(term_text(m) for m in self.terms())

    def __repr__(self) -> str:
        return f"PatternPoly({str(self)!r})"


ZERO = PatternPoly()
ONE = PatternPoly.monomial(0, 0)
X = PatternPoly.monomial(1, 0)
Y = PatternPoly.monomial(0, 1)
