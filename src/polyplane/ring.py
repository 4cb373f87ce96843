"""Arithmetic in the finite ring GF(2)[x, y] / (x^m - 1, y^n - 1).

Exponents wrap around an m x n torus, so every polynomial reduces to a
residue supported on 0 <= i < m, 0 <= j < n.  The ring has 2^(m*n)
elements.  Monomials form a multiplicative group isomorphic to
Z_m x Z_n; general elements may be units or zero divisors, and both
kinds get a well-defined notion of order (see :meth:`QuotientRing.order`).

Products are taken on residues packed into one int: cell (i, j) is bit
j*(2m-1) + i.  The stride of 2m-1 leaves room for the columns 0..2m-2 of
a plain product, so one carry-less multiply (an XOR of shifted copies)
forms all its rows without collisions, and two whole-int folds reduce
it: rows j >= n onto j - n, then columns i >= m onto i - m.

Invertibility is decided by Gaussian elimination over GF(2) on the
multiplication-by-a matrix; its null space supplies zero-divisor
witnesses (:meth:`QuotientRing.annihilator`).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property, reduce
from math import lcm
from operator import xor

from .numtheory import carryless_power, carryless_product, least_divisor, order_of_two, prime_factors
from .poly import MAX_BOX_BITS, Frozen, PatternPoly, diag_key, set_bits

MAX_TABLE_CELLS = 64  # m*n bound for mul_table
MAX_GAUSS_CELLS = 1936  # m*n bound for inverse and annihilator: 1.2 s for a dense 44x44 element (2 cores, Python 3.11)
MAX_ENUM_BITS = 24  # m*n bound for enumerate_nonzero
MAX_FIELD_DEGREE = 1024  # bound for order on L = ord_lcm(m',n')(2), see _exponent
MAX_ORDER_BITS = 1 << 32  # bound for the bit steps of order: about 1.4 s at worst (2 cores, Python 3.11)


def _every_row(row: int, stride: int, rows: int) -> int:
    # row copied to every row of the layout: the copies double each step, in time linear in its size
    out, step = row, stride
    while step < rows.bit_length():
        out |= out << step
        step *= 2
    return out & rows


class QuotientRing(Frozen):
    """The ring of bivariate GF(2) polynomials with x^m = 1 and y^n = 1."""

    __match_args__ = ("m", "n")  # no __slots__: the cached properties below live in __dict__

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("moduli must be positive")
        stride = 2 * m - 1
        if n * stride > MAX_BOX_BITS:
            raise ValueError(f"torus too large: a residue packs into {n * stride} bits, over {MAX_BOX_BITS}")
        vars(self).update(m=m, n=n, _stride=stride)  # past Frozen.__setattr__

    def __repr__(self) -> str:
        return f"QuotientRing({self.m}, {self.n})"

    @property
    def size(self) -> int:
        """Number of ring elements, 2^(m*n)."""
        return 1 << (self.m * self.n)

    @cached_property
    def basis(self) -> tuple:
        """Residue monomials (i, j) in antidiagonal order; (0, 0) first."""
        box = [(i, j) for i in range(self.m) for j in range(self.n)]
        return tuple(sorted(box, key=diag_key))

    # -- element arithmetic ------------------------------------------------

    def reduce(self, p: PatternPoly) -> PatternPoly:
        """Canonical residue: exponents mod (m, n), colliding terms cancel."""
        return self._unpack(self._pack(p))

    def mul(self, a: PatternPoly, b: PatternPoly) -> PatternPoly:
        """Product in the ring."""
        return self._unpack(self._fold(carryless_product(self._pack(a), self._pack(b))))

    def _pack(self, a: PatternPoly) -> int:
        # the residue of a: rows folded mod n, then each mod x^m - 1, after
        # moving the column offset's residue in
        m, n = self.m, self.n
        u = 0
        for k in range(min(n, len(a.rows))):
            row = reduce(xor, a.rows[k::n]) << a.x0 % m
            while row >> m:  # halve the width at a multiple of m
                half = m * -(-row.bit_length() // (2 * m))
                row = (row & (1 << half) - 1) ^ row >> half
            u ^= row << (a.y0 + k) % n * self._stride
        return u

    def _unpack(self, u: int) -> PatternPoly:
        mask = (1 << self.m) - 1
        return PatternPoly.from_rows([u >> j * self._stride & mask for j in range(self.n)])

    # The masks of _fold, each as large as the layout, are built on first use, so that a call refused
    # before its first product (an order over MAX_ORDER_BITS) builds none of them.

    @cached_property
    def _rows(self) -> int:
        return (1 << self.n * self._stride) - 1  # the rows 0..n-1 of the packed layout

    @cached_property
    def _cols(self) -> int:
        return _every_row((1 << self.m) - 1, self._stride, self._rows)  # columns 0..m-1 of every row

    @cached_property
    def _wrap(self) -> int:
        return _every_row((1 << self.m - 1) - 1, self._stride, self._rows)  # columns 0..m-2

    def _fold(self, u: int) -> int:
        # a plain product, rows 0..2n-2 and columns 0..2m-2, to its residue
        u = (u & self._rows) ^ (u >> self.n * self._stride)
        return (u & self._cols) ^ (u >> self.m & self._wrap)

    @cached_property
    def _exponent(self) -> tuple[int, set[int]]:
        # N with a^(N+1) = a for every element without a nilpotent part, and
        # the primes found in it (Lidl & Niederreiter, Finite Fields, ch. 3): for
        # m = 2^a*m' and n = 2^b*n' with m', n' odd, N = 2^max(a,b) * (2^L - 1),
        # L being ord_lcm(m',n')(2), the degree of the field the roots of unity
        # lie in.
        m_twos, n_twos = self.m & -self.m, self.n & -self.n
        field_degree = order_of_two(lcm(self.m // m_twos, self.n // n_twos))
        if field_degree > MAX_FIELD_DEGREE:
            raise ValueError(
                f"orders need L = {field_degree}, the degree of the field of the"
                f" roots of unity, to be at most {MAX_FIELD_DEGREE}"
            )
        exponent = max(m_twos, n_twos) * ((1 << field_degree) - 1)
        return exponent, prime_factors(exponent)

    def mul_table(self) -> list[list[PatternPoly]]:
        """Full multiplication table over the monomial basis.

        Guarded to m*n <= 64; row g, column h holds g*h in basis order.
        """
        if self.m * self.n > MAX_TABLE_CELLS:
            raise ValueError(f"table too large: m*n must be at most {MAX_TABLE_CELLS}")
        gens = [PatternPoly.monomial(i, j) for i, j in self.basis]
        return [[self.mul(g, h) for h in gens] for g in gens]

    def order(self, a: PatternPoly) -> int:
        """Order of a nonzero element.

        Units get the least k >= 1 with a^k = 1.  Zero divisors get the
        least k >= 2 with a^k = a, the index at which the power sequence
        first returns to a.  Raises ValueError for 0 and for elements
        whose powers never return to a (possible when m or n is even,
        where nilpotents exist).

        Unless a has a nilpotent part, which a^(N+1) != a reveals, the
        powers a, a^2, ... cycle with a period T dividing the exponent N
        of :attr:`_exponent`, and e = a^N is the identity of that cycle:
        1 for a unit, an idempotent otherwise.  T is the least divisor d
        of N with a^d = e, found by square-and-multiply in O(log N)
        products per prime of N; the order is T for a unit, T + 1 otherwise.
        The primes of N are those of 2^L - 1, sought within a fixed budget
        (:func:`polyplane.numtheory.prime_factors`).  ValueError also when T
        shares a factor with a part of 2^L - 1 that could not be split, and
        when L exceeds MAX_FIELD_DEGREE.
        """
        a = self.reduce(a)
        if not a:
            raise ValueError("the zero element has no order")
        exponent, primes = self._exponent
        u = self._pack(a)
        # A power squares and multiplies by u once per bit of N, which takes about one pass over the
        # layout per term of u and one more; it takes a power per divisor test, one per prime of N (2
        # as often as it divides N), and two more.
        powers = 2 + len(primes) + (exponent & -exponent).bit_length() - 1
        work = powers * exponent.bit_length() * self.n * self._stride * (1 + u.bit_count())
        if work > MAX_ORDER_BITS:
            raise ValueError(f"order too large: {work} bit steps are over {MAX_ORDER_BITS}")
        e = carryless_power(u, exponent, self._fold)
        if self._fold(carryless_product(e, u)) != u:
            raise ValueError(f"powers of {a} never return to it (nilpotent part)")
        period = least_divisor(exponent, primes, lambda d: carryless_power(u, d, self._fold) == e)
        if period is None:
            raise ValueError(f"the order of {a} needs prime factors of 2^L - 1 that were not found")
        return period + (e != 1)

    # -- linear algebra over GF(2) ------------------------------------------

    @cached_property
    def _basis_bits(self) -> tuple:
        # the packed bit of each basis monomial, in basis order
        return tuple(j * self._stride + i for i, j in self.basis)

    def _from_basis(self, cols) -> PatternPoly:
        return self._unpack(sum(1 << self._basis_bits[c] for c in cols))

    def _mul_matrix(self, a: PatternPoly) -> list[int]:
        # rows[r] bit c == coefficient of basis[r] in a * basis[c]
        index = {bit: t for t, bit in enumerate(self._basis_bits)}
        u = self._pack(a)
        rows = [0] * len(self.basis)
        for col, bit in enumerate(self._basis_bits):
            for k in set_bits(self._fold(u << bit)):
                rows[index[k]] |= 1 << col
        return rows

    def _gauss(self, a: PatternPoly) -> tuple[list[int], list[int], int]:
        # Gauss-Jordan on the multiplication matrix augmented (bit N) with
        # the coordinates of 1; returns (reduced rows, pivot columns, N).
        if self.m * self.n > MAX_GAUSS_CELLS:
            raise ValueError(f"elimination too large: m*n must be at most {MAX_GAUSS_CELLS}")
        n_cols = len(self.basis)
        rows = self._mul_matrix(a)
        rows[0] |= 1 << n_cols  # basis[0] is (0, 0), the coordinate vector of 1
        pivots: list[int] = []
        rank = 0
        for col in range(n_cols):
            hit = next((r for r in range(rank, n_cols) if rows[r] >> col & 1), None)
            if hit is None:
                continue
            rows[rank], rows[hit] = rows[hit], rows[rank]
            for r in range(n_cols):
                if r != rank and rows[r] >> col & 1:
                    rows[r] ^= rows[rank]
            pivots.append(col)
            rank += 1
        return rows, pivots, n_cols

    def inverse(self, a: PatternPoly) -> PatternPoly | None:
        """Multiplicative inverse, or None when a is not a unit.  Guarded to m*n <= MAX_GAUSS_CELLS."""
        a = self.reduce(a)
        rows, pivots, n_cols = self._gauss(a)
        if len(pivots) < n_cols:
            return None  # singular: a*b = 1 has no solution
        return self._from_basis(col for row, col in enumerate(pivots) if rows[row] >> n_cols & 1)

    def is_invertible(self, a: PatternPoly) -> bool:
        """True iff multiplication by a permutes the ring."""
        return self.inverse(a) is not None

    def annihilator(self, a: PatternPoly) -> PatternPoly | None:
        """A nonzero b with a*b = 0, or None when a is a unit.

        Taken from the null space of the multiplication matrix, so it
        exists for every zero divisor (and for 0 itself).  Guarded to
        m*n <= MAX_GAUSS_CELLS, as :meth:`inverse` is.
        """
        a = self.reduce(a)
        rows, pivots, n_cols = self._gauss(a)
        if len(pivots) == n_cols:
            return None
        free = next(c for c in range(n_cols) if c not in pivots)
        coords = {free}
        for row, col in enumerate(pivots):
            if rows[row] >> free & 1:
                coords.add(col)
        return self._from_basis(coords)

    # -- enumeration ---------------------------------------------------------

    def enumerate_nonzero(self) -> Iterator[PatternPoly]:
        """All 2^(m*n) - 1 nonzero elements, in ascending bit-pattern order
        over the antidiagonal monomial basis.  Guarded to m*n <= 24."""
        if self.m * self.n > MAX_ENUM_BITS:
            raise ValueError(f"enumeration too large: m*n must be at most {MAX_ENUM_BITS}")
        size = len(self.basis)
        return (self._from_basis(set_bits(code)) for code in range(1, 1 << size))
