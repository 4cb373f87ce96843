"""Windowed power-series expansion of rational pattern terms.

1/q is the unique formal series c with q*c = 1: its constant coefficient
is 1 and every other coefficient is the GF(2) sum of earlier coefficients
selected by the non-constant terms of q.  "Earlier" is the (y, then x)
grading, which is why a denominator is admissible only when it has a
constant term and every other term (a, b) satisfies b > 0, or b = 0 with
a > 0.  Only Laurent x-terms such as x^-1*y reach rightward into previous
rows, so rows are computed on a band widened by them alone; the band
margins below guarantee that every coefficient inside the window is exact.

With q = 1 + T, squaring is the Frobenius map over GF(2), so 1/q is the
product of the factors 1 + T(x^(2^k), y^(2^k)).  One kernel multiplies by
them, each factor one shift and one XOR per tap that still keeps a cell in
the band.  When q has in-row taps and the whole band fits PACKED_BAND_BITS,
it runs once on the band's rows, a stride apart in one int; otherwise the
row loop runs it on each nonzero row with the in-row taps alone, the same
identity in x, and stops once the rows it keeps are all zero.
"""

from __future__ import annotations

from collections.abc import Iterable

from .poly import MAX_BOX_BITS, ONE, ZERO, Frozen, PatternPoly, Window, _unpack, term_text


def check_denominator(q: PatternPoly) -> None:
    """Raise ValueError unless 1/q exists as a one-sided formal series."""
    if (0, 0) not in q.support:
        raise ValueError("denominator has no constant term")
    for a, b in q.support:
        if (a, b) == (0, 0):
            continue
        if b < 0 or (b == 0 and a <= 0):
            raise ValueError(
                f"denominator term {term_text((a, b))} is not positive in the (y, x) grading"
            )


class Term(Frozen):
    """One summand: a polynomial, divided by another unless the denominator is None.

    ``pos`` and ``div_pos`` are the offsets of the term and of its '/' in
    the source text; ``==`` and ``hash`` ignore them.
    """

    __slots__ = __match_args__ = ("numerator", "denominator", "pos", "div_pos")

    def __init__(self, numerator: PatternPoly, denominator: PatternPoly | None = None,
                 pos: int = 0, div_pos: int | None = None):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "div_pos", div_pos)

    def _key(self) -> tuple:
        return (self.numerator, self.denominator)


class RationalTerm(Term):
    """A :class:`Term` whose denominator is given and admissible (see :func:`check_denominator`),
    which is validated on construction.  The numerator may use Laurent exponents."""

    __slots__ = ()
    __match_args__ = ("numerator", "denominator")

    def __init__(self, numerator: PatternPoly, denominator: PatternPoly):
        check_denominator(denominator)
        super().__init__(numerator, denominator)


PACKED_BAND_BITS = 1 << 18  # the largest band, rows times stride, that expand_rows resolves in one packed int
# A packed band holds at most PACKED_BAND_BITS // 8 window rows, so they are within the bound the row loop applies.
assert PACKED_BAND_BITS // 8 * 64 <= MAX_BOX_BITS


def expand_rows(num: PatternPoly, den: PatternPoly, window: Window) -> tuple[int, list[int]]:
    """Window-exact rows of num * (1/den) for admissible den, from the first window row a numerator
    term reaches: ``(first, rows)`` with bit i of rows[k] for cell (i, first + k).  The list stops
    soon after the last nonzero row; the rows past its end are zero."""
    n = window.n
    row_taps = [a for a, b in den.support if b == 0 and a > 0]
    lower_taps = [(a, b) for a, b in den.support if b > 0]
    # Only a tap x^a y^b with a < 0 reads columns right of the one it writes.
    reach = max((-a for a, _ in lower_taps if a < 0), default=0)

    # Series row j has no cell left of column -j*reach, so a numerator term
    # x^u y^v reaches the window only if v <= n and u - (n - v)*reach <= m.
    shifts = [(u, v) for u, v in num.support if v <= n and u - (n - v) * reach <= window.m]
    if not shifts:
        return 0, []
    xs = [u for u, _ in shifts]
    low = min(v for _, v in shifts)
    depth = n - low  # deepest series row any numerator shift can use
    first = max(low, 0)  # window row first + k is out[k]
    height = n + 1 - first  # window rows first..n
    top = max(v for _, v in shifts) - first

    # Needed series columns are the window columns shifted by the numerator. The series has no
    # cell left of the band, and right of them the band holds the `reach` columns per row step
    # that the taps with a < 0 read, so every needed column is exact.
    lo = min(0, -max(xs)) - depth * reach
    hi = max(0, window.m - min(xs)) + depth * reach
    width = hi - lo + 1
    # Row j reads rows j - b only, so the last `kept` rows are all it holds.
    kept = max((b for _, b in lower_taps), default=0) + 1
    if kept * width > MAX_BOX_BITS:
        raise ValueError(f"series band too large: {kept} rows of {width} bits are over {MAX_BOX_BITS} bits")
    mask, keep = (1 << width) - 1, (1 << window.width) - 1
    # Series column i - u is bit i - u - lo; lo <= -u, so the shift is rightward.
    shifts = [(v - first, -(u + lo)) for u, v in shifts]

    # With T = den - 1, 1/den = prod_k (1 + T(x^(2^k), y^(2^k))) over GF(2), and round k
    # multiplies by factor k.  A tap x^a y^b takes part in the rounds k while its shifts
    # a*2^k and b*2^k keep some cell in the band (|a*2^k| under its width, b*2^k under its
    # live rows); in the later ones it moves every cell out.  The row loop's rounds hold the
    # in-row taps alone.
    rounds = []
    if row_taps:
        # with every lower tap at a > 0, series row j has no cell left of column j*min(a/b)
        live = depth + 1
        if all(a > 0 for a, _ in lower_taps):
            live = min(live, max((hi * b // a + 1 for a, b in lower_taps), default=1))
        taps = [(a, 0) for a in row_taps] + lower_taps
        counts = [min(((size - 1) // step).bit_length() for step, size in ((abs(a), width), (b, live)) if step)
                  for a, b in taps]
        # Rows sit a stride apart in one int: it leaves room for the largest x-shift, so no cell
        # crosses into the next row, and whole bytes, so the rows split out of one to_bytes pass.
        stride = (width + max((abs(a) << c - 1 for (a, _), c in zip(taps, counts) if c), default=0) + 7) & -8
        if max(live, height) * stride <= PACKED_BAND_BITS:  # x^a y^b is the shift a + b*stride > 0
            rounds = _rounds([(a + b * stride, c) for (a, b), c in zip(taps, counts)])
            return first, _expand_packed(rounds, stride, live, lo, mask, keep, shifts, height)
        rounds = _rounds(list(zip(row_taps, counts)))

    out = []
    rows = [0] * kept  # series row j is rows[j % kept]
    grow_at = -top  # the first row j whose window row j + top is not in out yet
    for j in range(depth + 1):
        acc = (1 << -lo) if j == 0 else 0  # seed: coefficient 1 at (0, 0)
        for a, b in lower_taps:  # rows[(j - b) % kept] is still 0 while j < b
            src = rows[(j - b) % kept]
            acc ^= (src << a) if a >= 0 else (src >> -a)
        acc &= mask
        if not acc:  # a zero row has nothing to resolve within it
            rows[j % kept] = 0
            if any(rows):
                continue
            break  # rows j - kept + 1 .. j are zero, so every later row is too
        if rounds:  # with T the in-row taps, the row is acc / (1 + T) = acc * prod_k (1 + T(x^(2^k)))
            acc = _frobenius(acc, rounds, mask)
        rows[j % kept] = acc
        if j >= grow_at:  # make room for this row's window rows: double the list, 1024 rows at first
            if (written := min(j + top, height - 1) + 1) * 64 > MAX_BOX_BITS:  # a list slot counted as 64 bits
                raise ValueError(f"series too tall: {written} window rows of 64 bits are over {MAX_BOX_BITS} bits")
            out += [0] * (min(max(written, 2 * len(out), 1024), height, MAX_BOX_BITS // 64) - len(out))
            grow_at = len(out) - top if len(out) < height else depth + 1
        for v, right in shifts:
            if 0 <= j + v < height:
                out[j + v] ^= acc >> right & keep
    del out[j + top + 1 :]  # rows no live series row reached
    return first, out


def _rounds(taps) -> list[list[int]]:
    # the shifts of round k: shift << k for each (shift, count) of taps with k < count
    return [[shift << k for shift, count in taps if k < count] for k in range(max([c for _, c in taps], default=0))]


def _frobenius(acc: int, rounds: list[list[int]], mask: int) -> int:
    # acc times the factor 1 + sum(x^shift for shift in round) of each round, masked after each
    for shifts in rounds:
        term = 0
        for shift in shifts:
            term ^= acc << shift
        acc = (acc ^ term) & mask
    return acc


def _expand_packed(rounds, stride, live, lo, mask, keep, shifts, height) -> list[int]:
    # expand_rows on rows 0..live-1 of the band at once, each a stride apart in one int
    size = stride // 8
    band = int.from_bytes(mask.to_bytes(size, "little") * live, "little")  # live copies of mask
    acc = _frobenius(1 << -lo, rounds, band)  # seed: coefficient 1 at (0, 0)
    out = 0
    for v, right in shifts:  # series row j is window row j + v, its column i - u window column i
        shift = v * stride - right
        out ^= acc << shift if shift >= 0 else acc >> -shift
    rows = min(height, -(-out.bit_length() // stride))
    return _unpack(out & int.from_bytes(keep.to_bytes(size, "little") * rows, "little"), size, rows)


def reciprocal(q: PatternPoly, window: Window) -> PatternPoly:
    """Expansion of 1/q truncated to the window: :func:`eval_term` of 1/q."""
    return eval_term(RationalTerm(ONE, q), window)


def eval_term(term: Term, window: Window) -> PatternPoly:
    """Expansion of numerator/denominator (admissible) truncated to the window; without one, the numerator's."""
    if window.mode != "window":
        raise ValueError("eval_term needs a window-mode Window; wrap-mode division is a ring operation")
    if term.denominator is None:
        return term.numerator.truncate(window)
    first, rows = expand_rows(term.numerator, term.denominator, window)
    return PatternPoly._make(0, first, rows)


def eval_sum(terms: Iterable[Term], window: Window) -> PatternPoly:
    """GF(2) sum of the expansions of all terms, added row by row into one buffer."""
    polys = [p for p in (eval_term(term, window) for term in terms) if p]  # cells in the window: x0, y0 >= 0
    if not polys:
        return ZERO
    y0 = min(p.y0 for p in polys)
    # each term's rows are bounded on their own, but the rows between two terms are not
    if (height := max(p.y0 + len(p.rows) for p in polys) - y0) * 64 > MAX_BOX_BITS:
        raise ValueError(f"series too tall: {height} window rows of 64 bits are over {MAX_BOX_BITS} bits")
    out = [0] * height
    for p in polys:
        for j, row in enumerate(p.rows, p.y0 - y0):
            out[j] ^= row << p.x0
    return PatternPoly._make(0, y0, out)
