"""One-dimensional binary generator sequences.

Two generators are provided: prime-reciprocal sequences, digit k being
(2^(k+1) mod p) mod 2 for an odd prime p, and shift-register sequences,
the coefficients of 1/q(x) for a univariate GF(2) polynomial q with
constant term 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .numtheory import is_probable_prime, order_of_x
from .numtheory import order_of_two as _order_of_two
from .poly import BIT_VALUES, MAX_BOX_BITS, ONE, Frozen, PatternPoly, Window, row_text
from .series import check_denominator, expand_rows

MAX_HINT_DEGREE = 1024  # deg q bound for the period hint of poly_reciprocal_seq


def is_bit_text(value) -> bool:
    """Whether value is a str of the characters '0' and '1' only."""
    return isinstance(value, str) and value.isascii() and not value.encode().translate(None, b"01")


def bit_tuple(text: str) -> tuple:
    """The ints of a '0'/'1' str."""
    return tuple(text.encode().translate(BIT_VALUES))


def bit_text(values, what: str) -> str:
    """The '0'/'1' str of an iterable of ints; ValueError unless each is 0 or 1, and for a str, which
    is '0'/'1' text as it stands or no bits at all (int() reads the digits of every script)."""
    if isinstance(values, str) or not set(values := tuple(int(b) for b in values)) <= {0, 1}:
        raise ValueError(f"{what} must be 0 or 1")
    return "".join(map(str, values))


class BitSeq(Frozen):
    """An immutable bit string with an optional verified period hint.

    The bits are stored as one '0'/'1' str; ``bits`` is a tuple-of-ints view
    built once, on first use.
    """

    __slots__ = ("_text", "period_hint", "_bits")

    def __init__(self, bits: Iterable, period_hint: int | None = None):
        text = bits if is_bit_text(bits) else bit_text(bits, "bits")
        if period_hint is not None:
            if period_hint < 1:
                raise ValueError("period hint must be positive")
            if text[period_hint:] != text[: max(len(text) - period_hint, 0)]:
                raise ValueError(f"bits do not repeat with period {period_hint}")
        _init_seq(self, text, period_hint)

    @staticmethod
    def _make(text: str, period_hint: int | None = None) -> "BitSeq":
        # a sequence of '0'/'1' text that polyplane built itself, with a hint that holds: unchecked
        return _init_seq(object.__new__(BitSeq), text, period_hint)

    def __reduce__(self):
        return BitSeq, (self._text, self.period_hint)

    @property
    def bits(self) -> tuple:
        """The bits as a tuple of ints 0 and 1."""
        if self._bits is None:
            object.__setattr__(self, "_bits", bit_tuple(self._text))
        return self._bits

    def __len__(self) -> int:
        return len(self._text)

    def __getitem__(self, k):
        # read from the text: an int for an index, a tuple for a slice, as from .bits
        return bit_tuple(self._text[k]) if isinstance(k, slice) else int(self._text[k])

    def __iter__(self) -> Iterator[int]:
        return iter(self._text.encode().translate(BIT_VALUES))  # one byte a bit, 0 or 1

    def _key(self) -> str:
        return self._text  # the hint is metadata, not part of the value

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        if self.period_hint is None:
            return f"BitSeq({self._text!r})"
        return f"BitSeq({self._text!r}, period_hint={self.period_hint})"


def _init_seq(s: BitSeq, text: str, period_hint: int | None) -> BitSeq:
    object.__setattr__(s, "_text", text)
    object.__setattr__(s, "period_hint", period_hint)
    object.__setattr__(s, "_bits", None)
    return s


PERIOD_HEAD = 32  # the bits whose first recurrence period tries before the failure function


def period(s: BitSeq) -> int:
    """Smallest t >= 1 with s[k] == s[k+t] wherever both indices exist."""
    text = str(s)
    n = len(text)
    if n == 0:
        raise ValueError("empty sequence has no period")
    # a period t <= n - PERIOD_HEAD puts the first PERIOD_HEAD bits at t, so the first place
    # they recur is the least period if it is one at all
    t = text.find(text[:PERIOD_HEAD], 1)
    if t < 0:  # every period is over n - PERIOD_HEAD, and n is one
        return next(t for t in range(max(n - PERIOD_HEAD + 1, 1), n + 1) if text[t:] == text[: n - t])
    if text[t:] == text[: n - t]:
        return t
    # the least period is n - fail[n], fail[k] being the length of the longest
    # proper border of text[:k] (Knuth, Morris & Pratt 1977); k holds fail[i]
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        b = text[i]
        while k and text[k] != b:
            k = fail[k]
        if text[k] == b:
            k += 1
        fail[i + 1] = k
    return n - k


def _is_odd_prime(p: int) -> bool:
    return p % 2 == 1 and is_probable_prime(p)


def dseq(p: int, count: int) -> BitSeq:
    """Binary expansion of 1/p: bit k is (2^(k+1) mod p) mod 2.

    p must be an odd prime.  The bits come from one long division,
    floor(2^count / p).  The period hint is the multiplicative order
    of 2 mod p, which is the true period of the infinite expansion.
    A count above MAX_BOX_BITS is refused with ValueError before the division.
    """
    if not _is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if count < 1:
        raise ValueError("count must be positive")
    if count > MAX_BOX_BITS:
        raise ValueError(f"sequence too long: {count} bits is over {MAX_BOX_BITS}")
    # bit k is binary digit k+1 of 1/p: 2^(k+1) = p*q + r with p odd gives q = r mod 2
    bits = format((1 << count) // p, f"0{count}b")
    return BitSeq._make(bits, _order_of_two(p))


def poly_reciprocal_seq(q: PatternPoly, count: int) -> BitSeq:
    """Coefficients of the series 1/q(x) for univariate q with constant term.

    This is the output of the linear feedback shift register whose taps
    are the nonzero powers of q: c[k] = sum of c[k-a] over taps a, that
    is, row 0 of the series expansion of 1/q.  The period hint is ord(q),
    the least e >= 1 with q | x^e - 1, which is the true period of 1/q
    whatever the count.  For q = 1 it is None: 1000... never repeats.  It
    is None too where ord(q) is out of reach: above MAX_HINT_DEGREE, or when
    it needs prime factors of some 2^k - 1 (k the degree of an irreducible
    factor of q) that a bounded search did not find, in practice only for
    k around 90 or more.
    """
    if count < 1:
        raise ValueError("count must be positive")
    check_denominator(q)
    if len(q.rows) > 1:  # check_denominator leaves y^0 as the first row
        raise ValueError("polynomial must be univariate in x")
    bits = row_text(expand_rows(ONE, q, Window(count - 1, 0))[1][0], count)
    packed = q.rows[0]  # with bit 0, the constant term
    degree = packed.bit_length() - 1
    return BitSeq._make(bits, order_of_x(packed) if 0 < degree <= MAX_HINT_DEGREE else None)
