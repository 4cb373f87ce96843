"""One-dimensional binary generator sequences.

Two generators are provided: prime-reciprocal sequences, digit k being
(2^(k+1) mod p) mod 2 for an odd prime p, and shift-register sequences,
the coefficients of 1/q(x) for a univariate GF(2) polynomial q with
constant term 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .poly import ONE, PatternPoly, Window
from .series import check_denominator, expand_rows


class BitSeq:
    """An immutable bit string with an optional verified period hint."""

    __slots__ = ("bits", "period_hint")

    def __init__(self, bits: Iterable, period_hint: int | None = None):
        values = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in values):
            raise ValueError("bits must be 0 or 1")
        if period_hint is not None:
            if period_hint < 1:
                raise ValueError("period hint must be positive")
            if any(values[k] != values[k + period_hint] for k in range(len(values) - period_hint)):
                raise ValueError(f"bits do not repeat with period {period_hint}")
        object.__setattr__(self, "bits", values)
        object.__setattr__(self, "period_hint", period_hint)

    def __setattr__(self, name, value):
        raise AttributeError("BitSeq is immutable")

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, k):
        return self.bits[k]

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __eq__(self, other):
        if not isinstance(other, BitSeq):
            return NotImplemented
        return self.bits == other.bits  # the hint is metadata, not part of the value

    def __hash__(self):
        return hash(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __repr__(self) -> str:
        if self.period_hint is None:
            return f"BitSeq({str(self)!r})"
        return f"BitSeq({str(self)!r}, period_hint={self.period_hint})"


def period(s: BitSeq) -> int:
    """Smallest t >= 1 with s[k] == s[k+t] wherever both indices exist."""
    if len(s) == 0:
        raise ValueError("empty sequence has no period")
    bits = s.bits
    for t in range(1, len(bits) + 1):
        if all(bits[k] == bits[k + t] for k in range(len(bits) - t)):
            return t
    raise AssertionError("unreachable: t = len(bits) always matches")


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _order_of_two(p: int) -> int:
    # ord_p(2) divides p - 1: for each prime factor f of p - 1, found by trial
    # division, divide it out once per power of f while 2 stays a root of unity.
    order = rest = p - 1
    f = 2
    while rest > 1:
        if f * f > rest:
            f = rest
        while rest % f == 0:
            rest //= f
            if pow(2, order // f, p) == 1:
                order //= f
        f += 1
    return order


def dseq(p: int, count: int) -> BitSeq:
    """Binary expansion of 1/p: bit k is (2^(k+1) mod p) mod 2.

    p must be an odd prime.  The period hint is the multiplicative order
    of 2 mod p, which is the true period of the infinite expansion.
    """
    if not _is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if count < 1:
        raise ValueError("count must be positive")
    bits = []
    power = 2 % p
    for _ in range(count):
        bits.append(power % 2)
        power = power * 2 % p
    return BitSeq(bits, period_hint=_order_of_two(p))


def poly_reciprocal_seq(q: PatternPoly, count: int) -> BitSeq:
    """Coefficients of the series 1/q(x) for univariate q with constant term.

    This is the output of the linear feedback shift register whose taps
    are the nonzero powers of q: c[k] = sum of c[k-a] over taps a, that
    is, row 0 of the series expansion of 1/q.  The period hint is ord(q),
    the true period, when the prefix shows it: the prefix period t is
    reported when t + max(deg q, 1) <= count, since then the register
    state repeats inside the prefix.  Otherwise the hint is None.
    """
    if count < 1:
        raise ValueError("count must be positive")
    check_denominator(q)
    if any(j != 0 for _, j in q.support):
        raise ValueError("polynomial must be univariate in x")
    row = expand_rows(ONE, q, Window(count - 1, 0))[0]
    bits = format(row, f"0{count}b")[::-1]
    t = period(BitSeq(bits))
    degree = max(a for a, _ in q.support)
    return BitSeq(bits, period_hint=t if t + max(degree, 1) <= count else None)
