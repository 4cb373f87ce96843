"""Windowed power-series expansion of rational pattern terms.

1/q is the unique formal series c with q*c = 1: its constant coefficient
is 1 and every other coefficient is the GF(2) sum of earlier coefficients
selected by the non-constant terms of q.  "Earlier" is the (y, then x)
grading, which is why a denominator is admissible only when it has a
constant term and every other term (a, b) satisfies b > 0, or b = 0 with
a > 0.  Laurent x-terms such as x^-1*y reach rightward into previous
rows, so rows are computed on a widened band; the band margins below
guarantee that every coefficient inside the window is exact.
"""

from __future__ import annotations

from collections.abc import Iterable

from .poly import MAX_BOX_BITS, ONE, ZERO, Frozen, PatternPoly, Window, term_text


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


class RationalTerm(Frozen):
    """A fraction numerator/denominator of GF(2) polynomials.

    The numerator may use Laurent exponents; the denominator must be
    admissible (see :func:`check_denominator`), which is validated on
    construction.
    """

    __slots__ = __match_args__ = ("numerator", "denominator")

    def __init__(self, numerator: PatternPoly, denominator: PatternPoly):
        check_denominator(denominator)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)


def expand_rows(num: PatternPoly, den: PatternPoly, window: Window) -> list[int]:
    """Window-exact rows of num * (1/den) for admissible den: bit i of row j is cell (i, j)."""
    n = window.n
    out = [0] * (n + 1)
    row_taps = [a for a, b in den.support if b == 0 and a > 0]
    lower_taps = [(a, b) for a, b in den.support if b > 0]
    reach = max((abs(a) for a, _ in lower_taps), default=0)

    # Series row j has no cell left of column -j*reach, so a numerator term
    # x^u y^v reaches the window only if v <= n and u - (n - v)*reach <= m.
    shifts = [(u, v) for u, v in num.support if v <= n and u - (n - v) * reach <= window.m]
    if not shifts:
        return out
    xs = [u for u, _ in shifts]
    depth = n - min(v for _, v in shifts)  # deepest series row any numerator shift can use

    # Needed series columns are the window columns shifted by the numerator;
    # each row step may consult `reach` extra columns on either side.
    lo = min(0, -max(xs)) - depth * reach
    hi = max(0, window.m - min(xs)) + depth * reach
    width = hi - lo + 1
    # Row j reads rows j - b only, so the last `kept` rows are all it holds.
    kept = max((b for _, b in lower_taps), default=0) + 1
    if kept * width > MAX_BOX_BITS:
        raise ValueError(f"series band too large: {kept} rows of {width} bits are over {MAX_BOX_BITS} bits")
    mask, keep = (1 << width) - 1, (1 << window.width) - 1
    min_tap = min(row_taps, default=width)
    rounds = [[a << k for a in row_taps] for k in range(((width - 1) // min_tap).bit_length())]
    # Series column i - u is bit i - u - lo; lo <= -u, so the shift is rightward.
    shifts = [(v, -(u + lo)) for u, v in shifts]

    rows = [0] * kept  # series row j is rows[j % kept]
    for j in range(depth + 1):
        acc = (1 << -lo) if j == 0 else 0  # seed: coefficient 1 at (0, 0)
        for a, b in lower_taps:  # rows[(j - b) % kept] is still 0 while j < b
            src = rows[(j - b) % kept]
            acc ^= (src << a) if a >= 0 else (src >> -a)
        acc &= mask
        # With T the in-row taps, the row is acc / (1 + T), and over GF(2)
        # 1 / (1 + T) = prod_k (1 + T(x^(2^k))) mod x^width; rounds[k] holds the exponents of T(x^(2^k)).
        for taps in rounds:
            term = 0
            for a in taps:
                term ^= acc << a
            acc = (acc ^ term) & mask
        rows[j % kept] = acc
        for v, right in shifts:
            if 0 <= j + v <= n:
                out[j + v] ^= acc >> right & keep
    return out


def reciprocal(q: PatternPoly, window: Window) -> PatternPoly:
    """Expansion of 1/q truncated to the window."""
    check_denominator(q)
    return PatternPoly.from_rows(expand_rows(ONE, q, window))


def eval_term(term: RationalTerm, window: Window) -> PatternPoly:
    """Expansion of numerator/denominator truncated to the window."""
    if window.mode != "window":
        raise ValueError("eval_term needs a window-mode Window; wrap-mode division is a ring operation")
    return PatternPoly.from_rows(expand_rows(term.numerator, term.denominator, window))


def eval_sum(terms: Iterable[RationalTerm], window: Window) -> PatternPoly:
    """GF(2) sum of the expansions of all terms."""
    acc = ZERO
    for term in terms:
        acc = acc + eval_term(term, window)
    return acc
