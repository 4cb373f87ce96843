"""Bivariate polynomials over GF(2), stored as packed rows.

A monomial is a plain ``(i, j)`` pair of integer exponents standing for
x^i y^j; negative exponents are allowed (Laurent terms).  A polynomial is
determined by the set of monomials whose coefficient is 1, so addition is
symmetric difference and every element is its own negative.  The empty
set is the zero polynomial.

Polynomials double as binary pictures: monomial (i, j) marks the cell in
column i, row j of a grid, and a polynomial is stored that way, row j an
int whose bit i is cell (i, j), offset so that no row or column is wasted.
A :class:`Window` fixes the visible part of the grid by inclusive maximum
exponents, giving (m+1) x (n+1) cells.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from functools import reduce

Monomial = tuple  # an (i, j) exponent pair
MAX_BOX_BITS = 1 << 28  # bound on a polynomial's box, in bits of storage


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


class Frozen:
    """Base of the immutable value classes: setting or deleting any attribute raises AttributeError.

    A subclass that names its constructor arguments in ``__match_args__``,
    each stored in the slot of the same name, also gets ``==`` and ``hash``
    over ``_key()`` (all fields unless it says otherwise) between instances
    of one class, the dataclass-style repr ``Name(field=value, ...)``, and
    copy and pickle by calling the constructor again.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # called without a value

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    _key = _fields

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Window(Frozen):
    """Visible grid: exponents 0..m horizontally, 0..n vertically, inclusive.

    ``mode`` selects how expressions are evaluated on the grid: "window"
    truncates a power series to the rectangle, "wrap" folds exponents onto
    the (m+1) x (n+1) torus instead.
    """

    __slots__ = __match_args__ = ("m", "n", "mode")

    def __init__(self, m: int, n: int, mode: str = "window"):
        if m < 0 or n < 0:
            raise ValueError("window bounds must be nonnegative")
        if mode not in ("window", "wrap"):
            raise ValueError(f"unknown window mode {mode!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)

    @property
    def width(self) -> int:
        return self.m + 1

    @property
    def height(self) -> int:
        return self.n + 1


def _check_box(width: int, height: int) -> None:
    # Refuse before allocating: a row costs at least a machine word, and a
    # product is packed into one int the size of its box.
    if height * max(width, 64) > MAX_BOX_BITS:
        raise ValueError(f"polynomial too large: its {width}x{height} box is over {MAX_BOX_BITS} bits")


class PatternPoly(Frozen):
    """A bivariate GF(2) polynomial stored as packed rows.

    Bit i of ``rows[k]`` is the coefficient of x^(x0+i) y^(y0+k).  The form
    is canonical: the first and last rows are nonzero, some row has bit 0
    set, and zero is ``()`` at offset (0, 0); so ``==`` and ``hash`` compare
    (x0, y0, rows).  ``support``, the set of monomials with coefficient 1,
    is a frozenset view built once, on first use.

    Instances are immutable and hashable.  ``+`` is GF(2) addition (XOR of
    aligned rows, so ``a + a == 0``), ``*`` is polynomial multiplication
    with coefficients folded mod 2, and ``-`` is an alias of ``+``.  A
    value whose box would exceed MAX_BOX_BITS raises ValueError.
    """

    __slots__ = ("x0", "y0", "rows", "_cols", "_support")  # _cols: the width of the box

    x0: int
    y0: int
    rows: tuple

    def __init__(self, monomials: Iterable[Monomial] = ()):
        cells = frozenset((operator.index(i), operator.index(j)) for i, j in monomials)
        x0 = y0 = cols = 0
        rows = ()
        if cells:
            xs, ys = zip(*cells)
            x0, y0 = min(xs), min(ys)
            cols, height = max(xs) - x0 + 1, max(ys) - y0 + 1
            _check_box(cols, height)
            rows = [0] * height
            for i, j in cells:
                rows[j - y0] |= 1 << i - x0
        _init(self, x0, y0, tuple(rows), cols, cells)

    @staticmethod
    def _make(x0: int, y0: int, rows) -> "PatternPoly":
        # the canonical form of a list or tuple of rows placed at (x0, y0)
        lo, hi = 0, len(rows)
        while lo < hi and not rows[lo]:
            lo += 1
        if lo == hi:
            return ZERO
        while not rows[hi - 1]:
            hi -= 1
        union = reduce(operator.or_, rows)
        low = (union & -union).bit_length() - 1
        rows = tuple([row >> low for row in rows[lo:hi]] if low else rows[lo:hi])
        return _init(object.__new__(PatternPoly), x0 + low, y0 + lo, rows, union.bit_length() - low)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "PatternPoly":
        """The cells (i, j) with bit i set in rows[j]."""
        return cls._make(0, 0, rows if isinstance(rows, (list, tuple)) else list(rows))

    @classmethod
    def monomial(cls, i: int, j: int) -> "PatternPoly":
        """The single-term polynomial x^i y^j."""
        return cls(((i, j),))

    def __reduce__(self):
        return PatternPoly._make, (self.x0, self.y0, self.rows)

    @property
    def support(self) -> frozenset:
        """The monomials (i, j) with coefficient 1."""
        if self._support is None:
            cells = ((self.x0 + i, j) for j, row in enumerate(self.rows, self.y0) for i in set_bits(row))
            object.__setattr__(self, "_support", frozenset(cells))
        return self._support

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PatternPoly):
            return NotImplemented
        if not other._cols:
            return self
        if not self._cols:
            return other
        x0, y0 = min(self.x0, other.x0), min(self.y0, other.y0)
        height = max(self.y0 + len(self.rows), other.y0 + len(other.rows)) - y0
        _check_box(max(self.x0 + self._cols, other.x0 + other._cols) - x0, height)
        rows = [0] * height
        for p in (self, other):
            shift = p.x0 - x0
            for k, row in enumerate(p.rows, p.y0 - y0):
                rows[k] ^= row << shift
        return PatternPoly._make(x0, y0, rows)

    __sub__ = __add__

    def __mul__(self, other):
        # Kronecker substitution: with rows a stride apart that fits the
        # product's width, one operand becomes one int, the product is an XOR
        # of its copies shifted to the set bits of the other, and its rows
        # never overlap.  The stride is rounded up to whole bytes, so packing
        # and unpacking go through bytes in linear time.
        if not isinstance(other, PatternPoly):
            return NotImplemented
        if not self._cols or not other._cols:
            return ZERO
        width = self._cols + other._cols - 1
        height = len(self.rows) + len(other.rows) - 1
        _check_box(width, height)
        size = (width + 7) // 8  # bytes per packed row
        few, many = sorted((self.rows, other.rows), key=lambda rows: sum(map(int.bit_count, rows)))
        packed = int.from_bytes(b"".join(row.to_bytes(size, "little") for row in many), "little")
        acc = 0
        for k, row in enumerate(few):
            for i in set_bits(row):
                acc ^= packed << 8 * size * k + i
        data = acc.to_bytes(height * size, "little")
        rows = [int.from_bytes(data[k : k + size], "little") for k in range(0, len(data), size)]
        return PatternPoly._make(self.x0 + other.x0, self.y0 + other.y0, rows)

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
        if not self._cols:
            return self
        return _init(object.__new__(PatternPoly), self.x0 + dx, self.y0 + dy, self.rows, self._cols)

    def truncate(self, window: Window) -> "PatternPoly":
        """Keep only the monomials visible in the window."""
        x0, y0, rows = self.x0, self.y0, self.rows
        first = max(-y0, 0)  # rows[k] is window row y0 + k
        rows = rows[first : max(window.n + 1 - y0, 0)]
        cut = max(-x0, 0)  # bit i is window column x0 + i
        stop = min(window.m + 1 - x0, self._cols)
        if stop <= cut or not rows:
            return ZERO
        if cut or stop < self._cols:
            mask = (1 << stop) - (1 << cut)
            rows = [row & mask for row in rows]
        return PatternPoly._make(x0, y0 + first, rows)

    # -- container protocol ----------------------------------------------

    def terms(self) -> list[Monomial]:
        """Support in canonical (antidiagonal) order."""
        return sorted(self.support, key=diag_key)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.terms())

    def __contains__(self, mono: Monomial) -> bool:
        return tuple(mono) in self.support

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def __bool__(self) -> bool:
        return bool(self._cols)

    def __eq__(self, other):
        if not isinstance(other, PatternPoly):
            return NotImplemented
        return (self.x0, self.y0, self.rows) == (other.x0, other.y0, other.rows)

    def __hash__(self):
        return hash((self.x0, self.y0, self.rows))

    def __str__(self) -> str:
        if not self._cols:
            return "0"
        return "+".join(term_text(m) for m in self.terms())

    def __repr__(self) -> str:
        return f"PatternPoly({str(self)!r})"


def _init(p: PatternPoly, x0: int, y0: int, rows: tuple, cols: int, support=None) -> PatternPoly:
    setattr_ = object.__setattr__
    setattr_(p, "x0", x0)
    setattr_(p, "y0", y0)
    setattr_(p, "rows", rows)
    setattr_(p, "_cols", cols)
    setattr_(p, "_support", support)
    return p


ZERO = PatternPoly()
ONE = PatternPoly.monomial(0, 0)
X = PatternPoly.monomial(1, 0)
Y = PatternPoly.monomial(0, 1)
