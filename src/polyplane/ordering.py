"""Linear enumerations of grid monomials and the bit codec they induce.

Three orders over nonnegative exponent pairs, each a bijection with the
index line::

    diagonal        1, x, y, x^2, xy, y^2, x^3, x^2y, xy^2, y^3, x^4, ...
    boustrophedon   1, x, y, y^2, xy, x^2, x^3, x^2y, xy^2, y^3, y^4, ...
    meander         1, x, xy, y, y^2, xy^2, x^2y^2, x^2y, x^2, x^3, ...

diagonal and boustrophedon walk antidiagonals i+j = d, the former always
toward y, the latter alternating direction.  meander walks square shells
max(i, j) = s, serpentine: odd shells run (s,0) -> (s,s) -> (0,s), even
shells the reverse way around.

A polynomial encodes to the bit string whose k-th bit says whether the
k-th monomial is present; trailing zero bits are dropped unless an
explicit length is given.
"""

from __future__ import annotations

from math import isqrt

from .poly import MAX_BOX_BITS, Monomial, PatternPoly, row_text
from .sequences import BitSeq

ORDERINGS = ("diagonal", "boustrophedon", "meander")


def _check_ordering(ordering: str) -> None:
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; pick one of {', '.join(ORDERINGS)}")


def monomial_at(ordering: str, k: int) -> Monomial:
    """The k-th monomial (0-indexed) of the given enumeration order."""
    _check_ordering(ordering)
    if k < 0:
        raise ValueError("index must be nonnegative")
    if ordering == "meander":
        s = isqrt(k)
        r = k - s * s
        if s % 2 == 1:
            return (s, r) if r <= s else (2 * s - r, s)
        return (r, s) if r <= s else (s, 2 * s - r)
    d = (isqrt(8 * k + 1) - 1) // 2
    r = k - d * (d + 1) // 2
    if ordering == "diagonal" or d % 2 == 1:
        return (d - r, r)
    return (r, d - r)  # boustrophedon runs even antidiagonals from the y side


def index_of(ordering: str, mono: Monomial) -> int:
    """Position of a monomial in the enumeration; inverse of monomial_at."""
    _check_ordering(ordering)
    i, j = mono
    if i < 0 or j < 0:
        raise ValueError("negative exponents have no index")
    if ordering == "meander":
        s = max(i, j)
        base = s * s
        if s % 2 == 1:
            return base + j if i == s else base + s + (s - i)
        return base + i if j == s else base + s + (s - j)
    d = i + j
    base = d * (d + 1) // 2
    if ordering == "diagonal" or d % 2 == 1:
        return base + j
    return base + i


# encode and decode lay the cells out row by row in one string `width` wide,
# cell (i, j) being character j*width + i, with width one more than the
# number of parts so that no stride is 0.  Antidiagonal d, cells (d, 0) to
# (0, d), is then the slice [d : d*width + 1 : width - 1]; shell s walked the
# odd way round is column s upward, [s : s*width + s + 1 : width], then row
# s leftward, [s*width : s*width + s] reversed.  Boustrophedon and meander
# run their even parts the other way round.


def _walk_parts(ordering: str, size: int) -> int:
    # the antidiagonals (shells, for meander) that hold the first size monomials
    if not size:
        return 0
    last = monomial_at(ordering, size - 1)
    return (max(last) if ordering == "meander" else sum(last)) + 1


def encode(p: PatternPoly, ordering: str, length: int | None = None) -> BitSeq:
    """Bit string of a polynomial: bit k set iff the k-th monomial is present.

    A string longer than MAX_BOX_BITS is refused with ValueError before any
    bit of it is built.
    """
    _check_ordering(ordering)
    if p.x0 < 0 or p.y0 < 0:
        raise ValueError("polynomials with negative exponents cannot be encoded")
    # in each ordering the last monomial of a row is at one of the row's ends
    ends = (index_of(ordering, (p.x0 + i, j)) for j, row in enumerate(p.rows, p.y0) if row
            for i in ((row & -row).bit_length() - 1, row.bit_length() - 1))
    needed = max(ends, default=-1) + 1
    if length is None:
        length = needed
    elif length < needed:
        raise ValueError(f"length {length} too small: the support needs {needed} bits")
    if length > MAX_BOX_BITS:
        raise ValueError(f"encoding too long: {length} bits is over {MAX_BOX_BITS}")
    count = _walk_parts(ordering, needed)
    width = count + 1
    rows = [0] * p.y0 + list(p.rows) + [0] * (count - p.y0 - len(p.rows))
    grid = "".join(row_text(row << p.x0, width) for row in rows)
    if ordering == "meander":
        walk = [grid[s : s * width + s + 1 : width] + grid[s * width : s * width + s][::-1]
                for s in range(count)]
    else:
        walk = [grid[d : d * width + 1 : width - 1] for d in range(count)]
    if ordering != "diagonal":
        walk[::2] = [part[::-1] for part in walk[::2]]
    return BitSeq("".join(walk)[:length].ljust(length, "0"))


def decode(bits, ordering: str) -> PatternPoly:
    """Polynomial whose support is the set bits of the string."""
    _check_ordering(ordering)
    data = str(bits if isinstance(bits, BitSeq) else BitSeq(bits)).encode()
    count = _walk_parts(ordering, len(data))
    if ordering == "meander":  # shell s is the 2s+1 bits from s^2
        data = data.ljust(count * count, b"0")
        walk = [data[s * s : (s + 1) * (s + 1)] for s in range(count)]
    else:  # antidiagonal d is the d+1 bits from d(d+1)/2
        data = data.ljust(count * (count + 1) // 2, b"0")
        walk = [data[d * (d + 1) // 2 : (d + 1) * (d + 2) // 2] for d in range(count)]
    if ordering != "diagonal":
        walk[::2] = [part[::-1] for part in walk[::2]]
    width = count + 1
    grid = bytearray(b"0" * (width * count))
    for s, part in enumerate(walk):
        if ordering == "meander":
            grid[s : s * width + s + 1 : width] = part[: s + 1]
            grid[s * width : s * width + s] = part[:s:-1]
        else:
            grid[s : s * width + 1 : width - 1] = part
    return PatternPoly.from_rows([int(grid[j * width : (j + 1) * width][::-1], 2) for j in range(count)])
